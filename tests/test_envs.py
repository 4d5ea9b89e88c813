import dataclasses
import math
import re

import numpy as np
import pytest
from reference import per_state, random_action

from swarmbc.data import DatasetMeta, load_dataset, save_dataset
from swarmbc.envs import (
    ENV_IDS,
    PointReach,
    generate_dataset,
    make_env,
    wrap_angle,
)
from swarmbc.errors import ConfigError, EpisodeDoneError
from swarmbc.metrics import baseline_returns, rollout, scaled_return


def test_make_env_rejects_unknown_id():
    with pytest.raises(ConfigError):
        make_env("walker2d")


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_reset_same_seed_same_observation(env_id):
    env = make_env(env_id)
    a = env.reset(1234)
    b = env.reset(1234)
    assert np.array_equal(a, b)
    c = env.reset(1235)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_reset_zeroes_step_counter(env_id):
    # a reset mid-episode starts a whole episode: the expert runs to the horizon
    env = make_env(env_id)
    env.reset(0)
    env.step(random_action(env.spec, np.random.default_rng(0)))
    obs, done, steps = env.reset(1), False, 0
    while not done:
        obs, _, done = env.step(env.expert_action(obs))
        steps += 1
    assert steps == env.spec.max_steps


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_spec_numbers_stay_python_numbers_and_bounds_stay_float_vectors(env_id):
    """The physics keeps its per-step constants as 0-d arrays; none may leak
    into a spec or a class constant, where text output would print it as
    ``np.float64(...)``."""
    env = make_env(env_id)
    spec = env.spec
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if field.name in ("action_low", "action_high"):
            if spec.action_kind == "discrete":
                assert value is None
            else:
                assert type(value) is np.ndarray and value.dtype == np.float64
                assert value.shape == (spec.action_dim,)
        else:
            assert type(value) in (str, int, float), (field.name, type(value))
    assert "np." not in repr(spec)
    constants = {name: getattr(type(env), name) for name in dir(type(env)) if name.isupper()}
    assert constants and all(type(v) is float for v in constants.values()), constants


def test_point_reach_start_within_configured_box():
    env = make_env("point_reach")
    for seed in range(1000):
        obs = env.reset(seed)
        assert np.all(np.abs(obs[:2]) <= PointReach.START_POS)
        assert np.all(np.abs(obs[2:]) <= PointReach.START_VEL)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_observation_dim_matches_spec(env_id):
    env = make_env(env_id)
    obs = env.reset(3)
    assert obs.shape == (env.spec.obs_dim,)
    obs, _, _ = env.step(env.expert_action(obs))
    assert obs.shape == (env.spec.obs_dim,)


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_dynamics_bit_exact_determinism(env_id):
    env1, env2 = make_env(env_id), make_env(env_id)
    obs1, obs2 = env1.reset(42), env2.reset(42)
    rng = np.random.default_rng(7)
    for _ in range(30):
        action = random_action(env1.spec, rng)
        obs1, r1, d1 = env1.step(action)
        obs2, r2, d2 = env2.step(action)
        assert np.array_equal(obs1, obs2)
        assert r1 == r2 and d1 == d2
        if d1:
            break


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_reward_within_documented_interval(env_id):
    env = make_env(env_id)
    rng = np.random.default_rng(0)
    for seed in range(5):
        env.reset(seed)
        done = False
        while not done:
            _, reward, done = env.step(random_action(env.spec, rng))
            assert env.spec.reward_min <= reward <= env.spec.reward_max


def test_point_reach_goal_is_fixed_point():
    env = make_env("point_reach")
    env.reset(0)
    env._state = np.zeros(4)  # place exactly at the goal, at rest
    obs, reward, done = env.step(np.zeros(2))
    assert np.array_equal(obs, np.zeros(4))
    assert reward == 0.0
    assert not done


def test_point_reach_expert_zero_at_setpoint():
    env = make_env("point_reach")
    assert np.array_equal(env.expert_action(np.zeros(4)), np.zeros(2))


def test_pendulum_hanging_down_is_stable_equilibrium():
    env = make_env("pendulum_swing")
    env.reset(0)
    env._state = np.array([math.pi, 0.0])
    for _ in range(300):
        _, _, done = env.step(np.array([0.0]))
        if done:
            break
    theta, omega = env._state
    assert abs(wrap_angle(theta) - (-math.pi)) < 1e-9 or abs(
        wrap_angle(theta) - math.pi
    ) < 1e-9
    assert abs(omega) < 1e-9


def test_pendulum_expert_near_zero_at_upright():
    env = make_env("pendulum_swing")
    u = env.expert_action(np.array([1.0, 0.0, 0.0]))  # upright, at rest
    assert abs(float(u[0])) < 1e-12


def test_pendulum_expert_swings_up_and_balances():
    env = make_env("pendulum_swing")
    for seed in range(20):
        obs = env.reset(seed)
        done = False
        while not done:
            obs, _, done = env.step(env.expert_action(obs))
        theta = math.atan2(obs[1], obs[0])
        assert abs(theta) < 0.05
        assert abs(obs[2]) < 0.1


def test_cart_expert_alternates_from_exact_upright_and_survives():
    env = make_env("cart_balance")
    env.reset(0)
    env._state = np.zeros(4)
    obs = env._observe()
    actions, done = [], False
    while not done:
        action = env.expert_action(obs)
        actions.append(action)
        obs, _, done = env.step(action)
    assert len(actions) == env.spec.max_steps  # done only at the horizon
    # bang-bang balancing alternates the push direction from a symmetric start
    flips = sum(1 for a, b in zip(actions, actions[1:]) if a != b)
    assert flips > len(actions) // 2


def test_cart_expert_survives_full_horizon_from_seeded_starts():
    env = make_env("cart_balance")
    for seed in range(200):
        traj = rollout(env, per_state(env.expert_action), seed)
        assert len(traj) == env.spec.max_steps
        assert traj.episode_return == env.spec.max_steps


def test_cart_rejects_non_binary_action():
    env = make_env("cart_balance")
    env.reset(0)
    with pytest.raises(ConfigError):
        env.step(2)


def test_step_after_done_raises():
    env = make_env("cart_balance")
    env.reset(0)
    done = False
    while not done:
        _, _, done = env.step(1)  # constant push fails fast
    with pytest.raises(EpisodeDoneError):
        env.step(1)


def test_step_before_reset_raises():
    env = make_env("point_reach")
    with pytest.raises(EpisodeDoneError):
        env.step(np.zeros(2))


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_expert_beats_random_with_margin(env_id):
    env = make_env(env_id)
    root = np.random.SeedSequence(31).spawn(40)
    random_rets, expert_rets = [], []
    for i in range(20):
        rng = np.random.default_rng(root[2 * i + 1])
        traj = rollout(env, per_state(lambda obs: random_action(env.spec, rng)), root[2 * i])
        random_rets.append(traj.episode_return)
        traj = rollout(env, per_state(env.expert_action), root[2 * i])
        expert_rets.append(traj.episode_return)
    gap = np.mean(expert_rets) - np.mean(random_rets)
    spread = max(np.std(random_rets), np.std(expert_rets), 1e-9)
    # the scaling denominator must dominate the per-policy noise
    assert gap >= 2.0 * spread


def test_generate_dataset_one_episode_sample_count():
    env = make_env("point_reach")
    dataset = generate_dataset(env, 1, seed=5)
    assert len(dataset) == env.spec.max_steps
    assert dataset.meta.episodes == 1
    assert dataset.meta.env == "point_reach"


def test_generate_dataset_metadata_and_one_hot():
    env = make_env("cart_balance")
    dataset = generate_dataset(env, 8, seed=3)
    assert dataset.meta.episodes == 8
    assert dataset.meta.action_kind == "discrete"
    assert dataset.actions.shape[1] == 2
    sums = dataset.actions.sum(axis=1)
    assert np.array_equal(sums, np.ones(len(dataset)))
    assert set(np.unique(dataset.actions)) <= {0.0, 1.0}


def test_generate_dataset_rejects_zero_episodes():
    env = make_env("point_reach")
    with pytest.raises(ConfigError):
        generate_dataset(env, 0, seed=1)


@pytest.mark.parametrize("field, value, text", [
    ("episodes", 0, "episodes must be >= 1, got 0"),
    ("episodes", -3, "episodes must be >= 1, got -3"),
    ("episodes", 2.7, "episodes must be an int, got 2.7"),
    ("episodes", True, "episodes must be an int, got True"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("seed", "3", "seed must be an int, got '3'"),
    ("obs_dim", 0, "obs_dim must be >= 1, got 0"),
    ("action_dim", 1.0, "action_dim must be an int, got 1.0"),
    ("action_kind", "binary", "unknown action_kind 'binary'"),
])
def test_a_dataset_header_checks_its_own_fields(field, value, text):
    fields = dict(env="point_reach", episodes=1, seed=0, obs_dim=4, action_dim=2,
                  action_kind="continuous")
    DatasetMeta(**fields)
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        DatasetMeta(**{**fields, field: value})


def test_dataset_file_byte_identical_for_same_seed(tmp_path):
    env = make_env("pendulum_swing")
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(generate_dataset(env, 2, seed=9), p1)
    save_dataset(generate_dataset(env, 2, seed=9), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_roundtrip_lossless(tmp_path):
    env = make_env("point_reach")
    dataset = generate_dataset(env, 1, seed=11)
    path = tmp_path / "d.jsonl"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.states, dataset.states)
    assert np.array_equal(loaded.actions, dataset.actions)
    assert loaded.meta == dataset.meta
    assert np.array_equal(loaded.obs_mean, dataset.obs_mean)


def test_expert_scaled_return_is_one_by_construction():
    for env_id in ENV_IDS:
        env = make_env(env_id)
        r_random, r_expert = baseline_returns(env, n_episodes=10, seed=2)
        assert scaled_return(r_expert, r_random, r_expert) == 1.0
        assert scaled_return(r_random, r_random, r_expert) == 0.0
