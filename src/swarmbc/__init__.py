"""Swarm behavior cloning: MLP policy ensembles trained with a pairwise
hidden-activation alignment penalty, plus the desk-scale control tasks,
metrics, and experiment harness used to evaluate it."""

__version__ = "0.1.0"
