"""Fixed evaluation cases and their recorded outputs.

``golden_rollouts.json`` holds what the scalar, one-episode-at-a-time
evaluation loop of commit 15391be produced for these cases: per-episode
returns and d traces as ``repr`` floats, digests of every recorded array,
baseline returns, dataset digests and digests of ``swarmbc eval`` output
files. ``tests/test_rollouts.py`` holds the lockstep evaluation path to
them bit for bit. Run ``PYTHONPATH=src python tests/golden_cases.py`` only
to record a deliberate change of the evaluation numbers.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
from reference import ensemble_of, init_policy, per_state, random_action

from swarmbc.cli import main as cli_main
from swarmbc.ensemble import Ensemble, method_of, save_ensemble
from swarmbc.envs import ENV_IDS, generate_dataset, make_env
from swarmbc.metrics import baseline_returns, rollout

GOLDEN_PATH = Path(__file__).with_name("golden_rollouts.json")
MEMBER_COUNTS = (1, 2, 3, 4, 8)
N_SEEDS = 6


def episode_seeds(env_id):
    return np.random.SeedSequence(1000 + ENV_IDS.index(env_id)).spawn(N_SEEDS)


def golden_ensemble(env_id, n_members) -> Ensemble:
    """Untrained but fixed ensemble with non-trivial state normalisation and
    the env's action bounds."""
    spec = make_env(env_id).spec
    discrete = spec.action_kind == "discrete"
    rng = np.random.default_rng([ENV_IDS.index(env_id), n_members])
    members = [
        init_policy(
            [spec.obs_dim, 8, 8, spec.action_dim],
            np.random.default_rng(rng.integers(2**63)),
            output_activation="softmax" if discrete else "identity",
        )
        for _ in range(n_members)
    ]
    obs_mean = rng.normal(scale=0.1, size=spec.obs_dim)
    obs_std = rng.uniform(0.2, 1.5, size=spec.obs_dim)
    if discrete:
        # a pole-angle feedback path through hidden unit 0 of both layers:
        # cart_balance episodes then last from tens of steps to the horizon
        obs_mean[:] = 0.0
        for m in members:
            m.weights[0][2, 0] += 30.0 * obs_std[2]
            m.weights[1][0, 0] += 1.0
            m.weights[2][0] += [-1.0, 1.0]
    return ensemble_of(
        members,
        tau=0.0,
        action_kind=spec.action_kind,
        obs_mean=obs_mean,
        obs_std=obs_std,
        action_low=spec.action_low,
        action_high=spec.action_high,
        meta={"env": env_id, "method": method_of(0.0, n_members), "n_expert_episodes": 1},
    )


def mixed_policy(env, index):
    """Scripted expert on even episodes, uniform-random actions on odd ones:
    on cart_balance the first run the full horizon, the second fail early."""
    if index % 2 == 0:
        return env.expert_action
    rng = np.random.default_rng(index)
    return lambda obs: random_action(env.spec, rng)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def probe_states(env_id, n=300):
    """Random states, actions and observations well beyond typical episodes:
    point_reach walls, every pendulum expert branch, failing carts."""
    rng = np.random.default_rng(77 + ENV_IDS.index(env_id))
    if env_id == "point_reach":
        states = rng.uniform([-4.5, -4.5, -2.5, -2.5], [4.5, 4.5, 2.5, 2.5], size=(n, 4))
        actions = rng.uniform(-1.5, 1.5, size=(n, 2))
    elif env_id == "pendulum_swing":
        states = rng.uniform([-10.0, -9.0], [10.0, 9.0], size=(n, 2))
        states[::3] *= [0.05, 0.3]  # near upright: the catch region
        states[1::7, 1] = rng.uniform(-0.06, 0.06, size=len(states[1::7]))
        actions = rng.uniform(-15.0, 15.0, size=(n, 1))
    else:
        states = rng.uniform(-1.0, 1.0, size=(n, 4)) * [3.0, 3.0, 0.3, 3.0]
        actions = rng.integers(2, size=n)
    return states, actions


def step_records(env_id) -> dict:
    """Single ``step`` and ``expert_action`` calls on the probe states."""
    env = make_env(env_id)
    states, actions = probe_states(env_id)
    obs, rewards, dones, experts = [], [], [], []
    for state, action in zip(states, actions):
        env.reset(0)
        env._state = state.copy()
        experts.append(env.expert_action(env._observe()))
        o, r, d = env.step(action)
        obs.append(o)
        rewards.append(r)
        dones.append(d)
    return {
        "step": digest(np.array(obs), np.array(rewards), np.array(dones)),
        "expert": digest(np.array(experts)),
    }


def trajectory_record(traj) -> dict:
    return {
        "return": repr(traj.episode_return),
        "length": len(traj),
        "d": None if traj.action_diffs is None else " ".join(map(repr, traj.action_diffs.tolist())),
        "digest": digest(
            traj.observations,
            traj.rewards,
            np.asarray(traj.actions, dtype=np.float64),
            np.zeros(0) if traj.member_actions is None else traj.member_actions,
        ),
    }


def eval_cases(workdir: Path):
    """``swarmbc eval`` runs: (name, argv) with ``--out`` inside ``workdir``."""
    cases = []
    for env_id, n in (("point_reach", 3), ("pendulum_swing", 1), ("cart_balance", 2)):
        model = workdir / f"{env_id}_{n}.json"
        save_ensemble(golden_ensemble(env_id, n), model)
        cases.append((f"{env_id}/N={n}", ["eval", "--model", str(model), "--episodes", "3",
                                          "--seed", "4", "--out", str(workdir / f"out_{env_id}")]))
    cases.append(("cart_balance/expert", ["eval", "--expert", "--env", "cart_balance",
                                          "--episodes", "3", "--seed", "4",
                                          "--out", str(workdir / "out_expert")]))
    return cases


# ``eval_results.csv``'s preamble, and the one its rows were recorded under:
# the log took its own schema later, its rows unchanged. The file's digest is
# taken with the recorded preamble in place of its own.
EVAL_PREAMBLE = (b"# schema=swarmbc.eval.v1\nenv,method,n_expert_episodes,tau,n_members,"
                 b"master_seed,scaled_return,action_diff\n")
RECORDED_EVAL_PREAMBLE = (b"# schema=swarmbc.results.v1\nenv,method,n_expert_episodes,tau,"
                          b"n_members,seed,scaled_return,action_diff\n")


def output_digests(out_dir: Path) -> dict:
    digests = {}
    for p in sorted(out_dir.iterdir()):
        data = p.read_bytes()
        if p.name == "eval_results.csv":
            assert data.startswith(EVAL_PREAMBLE), data[:len(EVAL_PREAMBLE)]
            data = RECORDED_EVAL_PREAMBLE + data[len(EVAL_PREAMBLE):]
        digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests


def record() -> dict:
    golden = {"rollouts": {}, "mixed": {}, "baselines": {}, "datasets": {}, "steps": {},
              "eval": {}}
    for env_id in ENV_IDS:
        env = make_env(env_id)
        seeds = episode_seeds(env_id)
        for n in MEMBER_COUNTS:
            ens = golden_ensemble(env_id, n)
            golden["rollouts"][f"{env_id}/N={n}"] = [
                trajectory_record(rollout(env, ens, s, record_members=True)) for s in seeds
            ]
        golden["mixed"][env_id] = [
            trajectory_record(rollout(env, per_state(mixed_policy(env, i)), s))
            for i, s in enumerate(seeds)
        ]
        golden["baselines"][env_id] = [repr(r) for r in baseline_returns(env, 6, seed=5)]
        data = generate_dataset(env, 3, seed=9)
        golden["datasets"][env_id] = digest(data.states, data.actions)
        golden["steps"][env_id] = step_records(env_id)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in eval_cases(Path(tmp)):
            assert cli_main(argv) == 0
            golden["eval"][name] = output_digests(Path(argv[-1]))
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
