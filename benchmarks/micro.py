"""Per-layer micro-benchmarks at the default shapes (N=4, hidden 16-16,
batch 64), each the median over repeats of a loop of public calls.

Parts that have no public entry point of their own are measured as a
difference of two public calls: the pairwise penalty as the extra time
``tau > 0`` adds to ``batch_loss_and_grads``, and a training epoch as the
extra time ten more epochs add to ``ensemble.train``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import numpy as np

from swarmbc import ensemble, envs, metrics, nn
from swarmbc.ensemble import TrainConfig

N_MEMBERS = 4
BATCH = 64


def _loops(fns, calls: int, repeats: int):
    """Seconds per call of each of ``fns``, one sample per repeat; the
    functions are timed in turn within each repeat so that differences
    between them see the same machine state."""
    for fn in fns:
        fn()  # warm-up
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            out.append((time.perf_counter() - t0) / calls)
    return samples


def _per_call(fn, calls: int, repeats: int) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` loops of ``calls``."""
    return statistics.median(_loops([fn], calls, repeats)[0])


def _median_difference(fn_a, fn_b, calls: int, repeats: int):
    """Median per-call time of ``fn_a`` and the median per-repeat excess of
    ``fn_a`` over ``fn_b``."""
    a, b = _loops([fn_a, fn_b], calls, repeats)
    return statistics.median(a), statistics.median(x - y for x, y in zip(a, b))


def _expert_actions(env, seed):
    obs, done, actions = env.reset(seed), False, []
    while not done:
        action = env.expert_action(obs)
        actions.append(action)
        obs, _, done = env.step(action)
    return actions


def run_micro(seed: int, repeats: int = 7, scale: int = 1) -> dict:
    """Micro timings in microseconds (``train_epoch_ms`` in milliseconds).
    ``scale`` divides the loop lengths, for a quick smoke run."""
    def calls(n):
        return max(1, n // scale)

    env = envs.make_env("point_reach")
    data = envs.generate_dataset(env, 4, seed)
    ens, _ = ensemble.train(data, N_MEMBERS, 0.25, TrainConfig(epochs=1), seed)
    idx = np.random.default_rng(seed).choice(len(data), BATCH, replace=False)
    states, actions = data.states[idx], data.actions[idx]
    x64 = ens.normalize(states)
    x1 = x64[0]
    members = ens.members

    traces = [nn.forward(m, x64) for m in members]
    out_grads = [2.0 * (t.output - actions) / BATCH for t in traces]
    hid_grads = [[0.01 * h for h in t.hiddens] for t in traces]
    raw = [nn.backward_policy(m, t, g, h)
           for m, t, g, h in zip(members, traces, out_grads, hid_grads)]
    params = [nn.policy_parameters(m) for m in members]
    grads = [nn.policy_gradients(dw, db) for dw, db in raw]
    opt = [nn.adam_init(p) for p in params]
    plain = replace(ens, tau=0.0)

    us = 1e6
    out = {
        "forward_b64_us": _per_call(
            lambda: [nn.forward(m, x64) for m in members], calls(200), repeats) * us,
        "forward_b1_us": _per_call(
            lambda: [nn.forward(m, x1) for m in members], calls(400), repeats) * us,
        "backward_b64_us": _per_call(
            lambda: [nn.backward_policy(m, t, g, h)
                     for m, t, g, h in zip(members, traces, out_grads, hid_grads)],
            calls(200), repeats) * us,
        "adam_step_us": _per_call(
            lambda: [nn.adam_step(p, g, s) for p, g, s in zip(params, grads, opt)],
            calls(200), repeats) * us,
    }
    swarm_s, penalty_s = _median_difference(
        lambda: ensemble.batch_loss_and_grads(ens, states, actions),
        lambda: ensemble.batch_loss_and_grads(plain, states, actions),
        calls(100), repeats)
    out["loss_and_grads_us"] = swarm_s * us
    out["swarm_penalty_us"] = penalty_s * us

    short, long = 2, 12
    _, extra_s = _median_difference(
        lambda: ensemble.train(data, N_MEMBERS, 0.25, TrainConfig(epochs=long), seed),
        lambda: ensemble.train(data, N_MEMBERS, 0.25, TrainConfig(epochs=short), seed),
        1, repeats)
    epoch = extra_s / (long - short)
    out["train_epoch_ms"] = epoch * 1e3
    out["train_step_us"] = epoch / math.ceil(len(data) / BATCH) * us

    for env_id in envs.ENV_IDS:
        step_env = envs.make_env(env_id)
        replay = _expert_actions(step_env, seed)

        def replay_episode(step_env=step_env, replay=replay):
            step_env.reset(seed)
            for action in replay:
                step_env.step(action)

        out[f"env_step_us.{env_id}"] = (
            _per_call(replay_episode, calls(5), repeats) / len(replay) * us
        )

    obs = env.reset(seed)
    steps = len(metrics.rollout(env, ens, seed, record_members=True))
    out["rollout_step_us"] = _per_call(
        lambda: metrics.rollout(env, ens, seed, record_members=True),
        calls(3), repeats) / steps * us
    out["predict_members_us"] = _per_call(
        lambda: ens.predict_members(obs), calls(400), repeats) * us
    member_actions = ens.predict_members(obs)
    out["mean_action_difference_us"] = _per_call(
        lambda: metrics.mean_action_difference(member_actions), calls(400), repeats) * us
    return out
