"""Lockstep evaluation against the recorded outputs of the scalar loop it
replaced (``golden_rollouts.json``, see ``golden_cases.py``), bit for bit,
and against itself: E episodes in one ``rollouts`` call equal E separate
calls."""

import json

import numpy as np
import pytest

import golden_cases as gc
import reference
from swarmbc.cli import main as cli_main
from swarmbc.ensemble import deployed_action, rollout_step
from swarmbc.envs import ENV_IDS, generate_dataset, make_env, random_action
from swarmbc.errors import ConfigError
from swarmbc.metrics import baseline_returns, rollout, rollouts

GOLDEN = json.loads(gc.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("n_episodes", (1, 3, 6))
@pytest.mark.parametrize("n_members", gc.MEMBER_COUNTS)
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_lockstep_ensemble_rollouts_match_golden(env_id, n_members, n_episodes):
    env = make_env(env_id)
    ens = gc.golden_ensemble(env_id, n_members)
    seeds = gc.episode_seeds(env_id)[:n_episodes]
    want = GOLDEN["rollouts"][f"{env_id}/N={n_members}"][:n_episodes]
    got = rollouts(env, ens, seeds, record_members=True)
    assert [gc.trajectory_record(t) for t in got] == want
    # the acting path without recording steps through the same episodes
    plain = rollouts(env, ens, seeds)
    assert [repr(t.episode_return) for t in plain] == [w["return"] for w in want]
    assert all(t.member_actions is None and t.action_diffs is None for t in plain)


def test_golden_cart_episodes_end_at_different_steps():
    lengths = {w["length"] for w in GOLDEN["rollouts"]["cart_balance/N=4"]}
    assert len(lengths) >= 4 and max(lengths) < 200
    assert {w["length"] for w in GOLDEN["mixed"]["cart_balance"]} >= {200, 4, 6, 7}


@pytest.mark.parametrize("n_episodes", (1, 3, 6))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_lockstep_callable_policy_matches_golden(env_id, n_episodes):
    # per-episode policies: expert on even episodes, random on odd ones
    env = make_env(env_id)
    policies = [gc.mixed_policy(env, i) for i in range(n_episodes)]

    def policy(obs, episodes):
        return [policies[e](o) for o, e in zip(obs, episodes)]

    got = rollouts(env, policy, gc.episode_seeds(env_id)[:n_episodes])
    want = GOLDEN["mixed"][env_id][:n_episodes]
    assert [gc.trajectory_record(t) for t in got] == want


@pytest.mark.parametrize("record_members", (False, True))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_trajectory_arrays_are_contiguous_and_own_their_memory(env_id, record_members):
    # cart_balance's episodes end at different steps, so the live rows thin out
    env = make_env(env_id)
    trajs = rollouts(env, gc.golden_ensemble(env_id, 3), gc.episode_seeds(env_id),
                     record_members=record_members)
    arrays = [a for t in trajs for a in (t.observations, t.actions, t.rewards,
                                         t.member_actions, t.action_diffs) if a is not None]
    assert len(arrays) == len(trajs) * (5 if record_members else 3)
    assert all(a.flags.c_contiguous for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_trajectory_actions_take_their_dtype_from_the_action_kind(env_id):
    env = make_env(env_id)
    want = np.int64 if env.spec.action_kind == "discrete" else np.float64
    seeds = gc.episode_seeds(env_id)[:3]
    if env.spec.action_kind == "discrete":  # Python ints, and a float 0.0 / 1.0
        by_callable = [lambda obs, episodes: [int(a) for a in env.expert_action(obs)],
                       lambda obs, episodes: env.expert_action(obs).astype(np.float64)]
    else:
        by_callable = [lambda obs, episodes: [[1] * env.spec.action_dim for _ in obs]]
    for policy in [gc.golden_ensemble(env_id, 2), *by_callable]:
        for traj in rollouts(env, policy, seeds):
            assert traj.actions.dtype == want
            assert traj.actions.shape[1:] == (() if want is np.int64 else (env.spec.action_dim,))


@pytest.mark.parametrize("n_members", (2, 3))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_rollouts_equal_separate_single_episode_calls(env_id, n_members):
    env = make_env(env_id)
    ens = gc.golden_ensemble(env_id, n_members)
    seeds = np.random.SeedSequence(99).spawn(5)
    together = rollouts(env, ens, seeds, record_members=True)
    for seed, traj in zip(seeds, together):
        (alone,) = rollouts(env, ens, [seed], record_members=True)
        assert traj.episode_return == alone.episode_return
        for name in ("observations", "actions", "rewards", "member_actions", "action_diffs"):
            assert np.array_equal(getattr(traj, name), getattr(alone, name)), name


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_baselines_and_datasets_match_golden(env_id):
    env = make_env(env_id)
    assert [repr(r) for r in baseline_returns(env, 6, seed=5)] == GOLDEN["baselines"][env_id]
    data = generate_dataset(env, 3, seed=9)
    assert gc.digest(data.states, data.actions) == GOLDEN["datasets"][env_id]


@pytest.mark.parametrize("seed", (0, 5, 17))
@pytest.mark.parametrize("n_episodes", (1, 2, 3, 6))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_baselines_match_the_two_call_reference(env_id, n_episodes, seed):
    # one lockstep call of random and expert episodes, random actions drawn
    # a horizon at a time, against a random_action call per episode per step
    env = make_env(env_id)
    got = baseline_returns(env, n_episodes, seed=seed)
    want = reference.baseline_returns(env, n_episodes, seed=seed)
    assert [repr(r) for r in got] == [repr(r) for r in want]


@pytest.mark.parametrize("env_id", ENV_IDS)  # continuous and discrete specs
def test_block_random_draw_equals_single_draws(env_id):
    spec, steps = make_env(env_id).spec, 37
    for seed in range(1000):
        block = random_action(spec, np.random.default_rng(seed), steps)
        rng = np.random.default_rng(seed)
        singles = np.array([random_action(spec, rng) for _ in range(steps)])
        assert np.array_equal(block, singles) and block.dtype == singles.dtype, seed


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_single_steps_and_experts_match_golden(env_id):
    assert gc.step_records(env_id) == GOLDEN["steps"][env_id]


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_batched_step_and_expert_match_golden(env_id):
    env = make_env(env_id)
    states, actions = gc.probe_states(env_id)
    experts = env.expert_action(env.observe(states))
    new_states, rewards, failed = env.advance(states, actions)
    assert gc.digest(env.observe(new_states), rewards, failed) == GOLDEN["steps"][env_id]["step"]
    assert gc.digest(experts) == GOLDEN["steps"][env_id]["expert"]


def test_eval_outputs_match_golden(tmp_path):
    for name, argv in gc.eval_cases(tmp_path):
        assert cli_main(argv) == 0
        assert gc.output_digests(tmp_path / argv[-1]) == GOLDEN["eval"][name], name


@pytest.mark.parametrize("n_members", gc.MEMBER_COUNTS)
def test_batched_predict_members_rows_equal_single_state_calls(n_members):
    ens = gc.golden_ensemble("pendulum_swing", n_members)
    states = np.random.default_rng(3).normal(size=(7, 3))
    batch = ens.predict_members(states)
    assert batch.shape == (7, n_members, 1)
    for s, row in zip(states, batch):
        assert np.array_equal(ens.predict_members(s), row)


@pytest.mark.parametrize("n_episodes", (1, 2, 6))
@pytest.mark.parametrize("n_members", (1, 2, 4))
@pytest.mark.parametrize("env_id", ENV_IDS)
def test_rollout_step_equals_predict_members_and_deployed_action(env_id, n_members, n_episodes):
    """One step built for E episodes, called on every live size E..1 as
    ``rollouts`` calls it after failures, then on sizes E, 1, E, 2 (a size may
    follow any other), against the per-call reference.
    Continuous cases alternate states whose mean action is clipped with
    states whose mean is inside the bounds; every call sees a clipped one."""
    env = make_env(env_id)
    spec = env.spec
    ens = gc.golden_ensemble(env_id, n_members)
    rng = np.random.default_rng([ENV_IDS.index(env_id), n_members, n_episodes])
    pool = env.start_states(range(200)) + rng.normal(scale=2.0, size=(200, 1))
    obs = env.observe(pool)
    if spec.action_low is not None:  # spread the means and centre them on the upper bound
        ens.weights[-1] *= 4.0 * spec.action_high[0]
        ens.biases[-1] += spec.action_high - np.median(ens.predict_members(obs).mean(axis=1), axis=0)
        means = ens.predict_members(obs).mean(axis=1)
        clipped = ((means < spec.action_low) | (means > spec.action_high)).any(axis=1)
        inside, outside = obs[~clipped], obs[clipped]
        # the last row, in every call, is clipped
        obs = np.stack([(outside if (n_episodes - i) % 2 else inside)[i]
                        for i in range(n_episodes)])
    else:
        obs = obs[:n_episodes]
    step = rollout_step(ens, n_episodes)
    for live in [*range(n_episodes, 0, -1), n_episodes, 1, n_episodes, min(2, n_episodes)]:
        rows = obs[n_episodes - live:]
        outputs, actions = step(rows)
        want_outputs = ens.predict_members(rows)
        want_actions = deployed_action(ens, want_outputs)
        for got, want in ((outputs, want_outputs), (actions, want_actions)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), f"{live} live of {n_episodes}"


def test_batched_cart_step_rejects_non_binary_action():
    env = make_env("cart_balance")
    states = env.start_states([0, 1, 2])
    with pytest.raises(ConfigError):
        env.advance(states, np.array([0, 2, 1]))
    with pytest.raises(ConfigError):
        rollouts(env, lambda obs, episodes: np.full(len(obs), -1), [0, 1])


def test_record_members_with_plain_callable_raises():
    env = make_env("point_reach")
    with pytest.raises(ConfigError):
        rollout(env, env.expert_action, 0, record_members=True)
    with pytest.raises(ConfigError):
        rollouts(env, lambda obs, _: env.expert_action(obs), [0, 1], record_members=True)
