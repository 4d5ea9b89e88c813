"""Monotonic-clock spans around the public entry points of each swarmbc layer.

The tracer never edits the package: ``instrument`` swaps each traced
function for a timing wrapper wherever the package holds a reference to it
(module globals, names imported into other modules, class attributes), and
puts the originals back on exit. Spans nest, so every span gets a total
time and a self time (total minus the time its traced children covered).
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time

import numpy as np

from swarmbc import ensemble, envs, harness, metrics, nn, svg

# (span name, owner, attribute). Functions are replaced in every swarmbc
# module that references them; methods are replaced on their class.
SPANS = (
    ("nn.forward", nn, "forward"),
    ("nn.backward_policy", nn, "backward_policy"),
    ("nn.adam_step", nn, "adam_step"),
    ("ensemble.batch_loss_and_grads", ensemble, "batch_loss_and_grads"),
    ("ensemble.train", ensemble, "train"),
    ("ensemble.predict_members", ensemble.Ensemble, "predict_members"),
    ("envs.step", envs.DeskEnv, "step"),
    ("envs.expert_action", envs.PointReach, "expert_action"),
    ("envs.expert_action", envs.PendulumSwing, "expert_action"),
    ("envs.expert_action", envs.CartBalance, "expert_action"),
    ("envs.generate_dataset", envs, "generate_dataset"),
    ("metrics.rollout", metrics, "rollout"),
    ("metrics.mean_action_difference", metrics, "mean_action_difference"),
    ("metrics.baseline_returns", metrics, "baseline_returns"),
    ("harness.run_cell", harness, "run_cell"),
    ("harness.load_or_compute_baselines", harness, "load_or_compute_baselines"),
    ("harness.ResultsStore.append", harness.ResultsStore, "append"),
    ("harness.write_summaries", harness, "write_summaries"),
    ("svg.line_chart", svg, "line_chart"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
# nn.forward on a single state (the rollout shape), reported beside the total
FORWARD_B1 = "nn.forward_b1"
COUNTS = ("train.steps", "train.epochs", "train.epoch_budget",
          "eval.env_steps", "eval.episodes")


class Tracer:
    """Per-span call counts, total and self seconds, plus work counters."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES + (FORWARD_B1,)}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.root_s = 0.0  # time covered by outermost spans
        self._stack = []   # child time accumulated by each open span

    def wrap(self, name, fn):
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
            if after is not None:
                after(self, dt, args, kwargs, result)
            return result

        return traced


def _after_forward(tracer, dt, args, kwargs, result):
    state = args[1] if len(args) > 1 else kwargs["s"]
    if np.ndim(state) == 1:
        stats = tracer.spans[FORWARD_B1]
        stats[0] += 1
        stats[1] += dt


def _after_train(tracer, dt, args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    config = config or ensemble.TrainConfig()
    history = result[1]
    batches = math.ceil(len(dataset) / config.batch_size)
    tracer.counts["train.epochs"] += len(history)
    tracer.counts["train.epoch_budget"] += config.epochs
    tracer.counts["train.steps"] += len(history) * batches


def _after_rollout(tracer, dt, args, kwargs, result):
    policy = args[1] if len(args) > 1 else kwargs["policy"]
    if isinstance(policy, ensemble.Ensemble):
        tracer.counts["eval.env_steps"] += len(result)
        tracer.counts["eval.episodes"] += 1


_AFTER = {
    "nn.forward": _after_forward,
    "ensemble.train": _after_train,
    "metrics.rollout": _after_rollout,
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call to a traced entry point through ``tracer`` while the
    block runs."""
    undo = []
    try:
        for name, owner, attr in SPANS:
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [
                    mod for mod_name, mod in sorted(sys.modules.items())
                    if mod_name.split(".")[0] == "swarmbc"
                    and any(v is original for v in vars(mod).values())
                ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        undo.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
