"""Slow reference versions of engine parts, kept as test oracles: building
ensembles from single policies, and the two-call baseline rollouts."""

import numpy as np

from swarmbc import nn
from swarmbc.ensemble import Ensemble
from swarmbc.envs import random_action
from swarmbc.metrics import rollouts


def ensemble_of(members, **fields) -> Ensemble:
    """An Ensemble holding copies of ``members``' parameters (all of one
    ``layer_dims``); ``fields`` are the other Ensemble fields."""
    layer_dims = list(members[0].layer_dims)
    params, weights, biases = nn.stacked_buffer(layer_dims, len(members))
    for i, m in enumerate(members):
        for w, b, mw, mb in zip(weights, biases, m.weights, m.biases):
            w[i], b[i] = mw, mb
    return Ensemble(layer_dims=layer_dims, params=params, **fields)


def baseline_returns(env, n_episodes: int, seed: int):
    """``metrics.baseline_returns`` as two ``rollouts`` calls, the random
    episodes drawing one ``random_action`` per episode per step."""
    episode_seeds = np.random.SeedSequence(seed).spawn(2 * n_episodes)
    starts = episode_seeds[0::2]
    rngs = [np.random.default_rng(s) for s in episode_seeds[1::2]]
    spec = env.spec
    random_eps = rollouts(
        env, lambda obs, episodes: [random_action(spec, rngs[e]) for e in episodes], starts
    )
    expert_eps = rollouts(env, lambda obs, _: env.expert_action(obs), starts)
    return (
        float(np.mean([t.episode_return for t in random_eps])),
        float(np.mean([t.episode_return for t in expert_eps])),
    )
