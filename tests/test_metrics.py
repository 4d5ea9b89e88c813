import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import reference
from reference import ensemble_of, init_policy, per_state

from swarmbc.envs import make_env
from swarmbc.errors import ConfigError, DegenerateBaselineError
from swarmbc.metrics import (
    action_differences,
    baseline_returns,
    mean_action_difference,
    rollout,
    scaled_return,
    write_trajectory_csv,
)


def pairwise_oracle(actions):
    """Independent double-loop evaluation of the average pairwise L2 norm."""
    n = len(actions)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            sq = 0.0
            for x, y in zip(actions[i], actions[j]):
                sq += (x - y) ** 2
            total += math.sqrt(sq)
    return 2.0 * total / (n * (n - 1))


def test_identical_actions_give_zero():
    actions = np.tile(np.array([0.3, -1.0]), (4, 1))
    assert mean_action_difference(actions) == 0.0


def test_single_pair_345():
    assert mean_action_difference([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)


def test_three_vector_case():
    d = mean_action_difference([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert d == pytest.approx((2.0 / 6.0) * (1.0 + 1.0 + math.sqrt(2.0)))
    assert d == pytest.approx(1.138071, abs=1e-6)


def test_rejects_single_action():
    with pytest.raises(ConfigError):
        mean_action_difference([[1.0, 2.0]])


def test_matches_double_loop_oracle_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 5))
        actions = rng.normal(scale=3.0, size=(n, dim))
        assert mean_action_difference(actions) == pytest.approx(
            pairwise_oracle(actions), abs=1e-12
        )


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, 5e-324, -5e-324]


@pytest.mark.parametrize("n", range(2, 21))
def test_action_differences_equal_the_full_matrix_form_bitwise(n):
    """The i < j pairs alone against every ordered pair's distance: random
    ``(T, N, A)`` traces and single ``(N, A)`` states, some with special values."""
    rng = np.random.default_rng(n)
    for a, trial in product(range(1, 5), range(24)):
        shape = (n, a) if trial % 4 == 0 else (int(rng.integers(1, 64)), n, a)
        x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
        if trial % 2:
            special = rng.random(shape) < 0.1
            x[special] = rng.choice(SPECIAL_VALUES, size=special.sum())
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = action_differences(x), reference.action_differences(x)
        assert np.array_equal(reference.bits(got), reference.bits(want)), \
            f"trial {trial} of shape {shape}, numpy {np.__version__}"


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_invariances(n, dim, seed, scale):
    rng = np.random.default_rng(seed)
    actions = rng.normal(size=(n, dim))
    d = mean_action_difference(actions)
    # permutation invariant
    perm = rng.permutation(n)
    assert mean_action_difference(actions[perm]) == pytest.approx(d, abs=1e-12)
    # translation invariant
    shift = rng.normal(size=dim)
    assert mean_action_difference(actions + shift) == pytest.approx(d, abs=1e-9)
    # positive homogeneity
    assert mean_action_difference(actions * scale) == pytest.approx(
        d * scale, rel=1e-9, abs=1e-9
    )
    # bounded by the largest pairwise distance
    dmax = max(
        np.linalg.norm(actions[i] - actions[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    assert 0.0 <= d <= dmax + 1e-12


def test_scaled_return_endpoints_and_formula():
    assert scaled_return(100.0, -100.0, 100.0) == 1.0
    assert scaled_return(-100.0, -100.0, 100.0) == 0.0
    assert scaled_return(50.0, -100.0, 100.0) == pytest.approx(0.75)


def test_scaled_return_degenerate_denominator():
    with pytest.raises(DegenerateBaselineError):
        scaled_return(1.0, 5.0, 5.0 + 1e-9)


@given(
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3),
)
@settings(max_examples=50, deadline=None)
def test_scaled_return_monotone_in_return(r1, r2):
    r_random, r_expert = -50.0, 150.0
    lo, hi = sorted((r1, r2))
    if hi - lo < 1e-9:
        return
    assert scaled_return(lo, r_random, r_expert) < scaled_return(
        hi, r_random, r_expert
    )


def test_rollout_deterministic():
    env = make_env("point_reach")
    t1 = rollout(env, per_state(env.expert_action), 42)
    t2 = rollout(env, per_state(env.expert_action), 42)
    assert np.array_equal(t1.observations, t2.observations)
    assert t1.episode_return == t2.episode_return


def test_expert_rollout_return_in_measured_band():
    env = make_env("point_reach")
    _, r_expert = baseline_returns(env, n_episodes=20, seed=0)
    traj = rollout(env, per_state(env.expert_action), 7)
    # expert returns vary with the start state but stay within a loose band
    # around the measured mean
    assert abs(traj.episode_return - r_expert) < 0.5 * abs(r_expert) + 20.0


def _tiny_ensemble(n_members, action_dim=2, obs_dim=4, discrete=False):
    members = [
        init_policy(
            [obs_dim, 4, 4, action_dim],
            np.random.default_rng(100 + i),
            output_activation="softmax" if discrete else "identity",
        )
        for i in range(n_members)
    ]
    return ensemble_of(
        members,
        tau=0.0,
        action_kind="discrete" if discrete else "continuous",
    )


def test_rollout_single_member_has_no_action_diff():
    env = make_env("point_reach")
    ens = _tiny_ensemble(1)
    traj = rollout(env, ens, 3, record_members=True)
    assert traj.member_actions is not None
    assert traj.member_actions.shape[1] == 1
    assert traj.action_diffs is None
    assert traj.mean_action_difference is None


def test_rollout_records_members_and_diffs():
    env = make_env("point_reach")
    ens = _tiny_ensemble(3)
    traj = rollout(env, ens, 3, record_members=True)
    assert traj.member_actions.shape == (len(traj), 3, 2)
    assert traj.action_diffs.shape == (len(traj),)
    assert np.all(traj.action_diffs >= 0.0)
    # spot check one timestep against the metric
    t = len(traj) // 2
    assert traj.action_diffs[t] == pytest.approx(
        mean_action_difference(traj.member_actions[t])
    )


def test_rollout_discrete_records_probability_vectors():
    env = make_env("cart_balance")
    ens = _tiny_ensemble(2, action_dim=2, obs_dim=4, discrete=True)
    traj = rollout(env, ens, 5, record_members=True)
    sums = traj.member_actions.sum(axis=-1)
    assert sums == pytest.approx(np.ones_like(sums))


def test_record_members_requires_ensemble():
    env = make_env("point_reach")
    with pytest.raises(ConfigError):
        rollout(env, per_state(env.expert_action), 0, record_members=True)


def test_baseline_returns_repeatable_and_ordered():
    for env_id in ("point_reach", "pendulum_swing", "cart_balance"):
        env = make_env(env_id)
        pair1 = baseline_returns(env, n_episodes=5, seed=11)
        pair2 = baseline_returns(env, n_episodes=5, seed=11)
        assert pair1 == pair2
        r_random, r_expert = pair1
        assert r_expert > r_random


def test_trajectory_csv_schema(tmp_path):
    env = make_env("point_reach")
    ens = _tiny_ensemble(2)
    traj = rollout(env, ens, 9, record_members=True)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,reward,d,a_member0_0,a_member0_1,a_member1_0,a_member1_1"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(traj.action_diffs[0])
