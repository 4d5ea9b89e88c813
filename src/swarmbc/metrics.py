"""Evaluation quantities: per-state action disagreement, rollouts,
episode returns, and return scaling against expert/random baselines.

The disagreement measure for N predicted actions is the average pairwise
L2 distance (not squared):

    d = 2 / (N (N - 1)) * sum_{i<j} ||a_i - a_j||

Returns are undiscounted sums over an episode. Scaled return maps the
random-policy level to 0 and the expert level to 1.

``rollouts`` runs E episodes in lockstep: one policy call and one batched
env step per timestep for all episodes still running. An episode that
fails leaves the live set (a done-mask, as in Gymnasium's
``SyncVectorEnv``). Each column of a call (observations, actions, rewards,
member outputs) is one ``(horizon, E, ...)`` record allocated up front;
step t writes the live episodes' rows of row t, and each episode's
trajectory copies out its first ``length`` rows.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from .data import Dataset, DatasetMeta, replace_file
from .ensemble import Ensemble, rollout_step
from .envs import DeskEnv, random_action
from .errors import ConfigError, DegenerateBaselineError, DimensionMismatchError, check_range

# |R_expert - R_random| below this is too degenerate to scale against.
BASELINE_EPSILON = 1e-6


def mean_action_difference(actions) -> float:
    """Average pairwise L2 distance among N >= 2 action vectors.

    For discrete policies the inputs are the members' probability vectors.
    """
    a = np.asarray(actions, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(
            f"expected (N, action_dim) array, got shape {a.shape}"
        )
    n = a.shape[0]
    if n < 2:
        raise ConfigError(
            f"pairwise action difference needs >= 2 actions, got {n}"
        )
    return float(action_differences(a))


def action_differences(actions: np.ndarray) -> np.ndarray:
    """d for every leading index of an ``(..., N, action_dim)`` array, e.g.
    the per-timestep trace of an episode's ``(T, N, action_dim)`` outputs."""
    i, j = _pairs(actions.shape[-2])
    diffs = actions[..., i, :] - actions[..., j, :]
    # fancy indexing puts the pair axis first in memory; each row of pair
    # distances is summed as one contiguous vector, the way a single state's is
    return np.ascontiguousarray(np.sqrt(np.sum(diffs * diffs, axis=-1))).mean(axis=-1)


@functools.cache
def _pairs(n: int):
    """The (i, j) index arrays of the i < j pairs of ``n`` members."""
    return np.triu_indices(n, k=1)


@dataclass
class Trajectory:
    """One episode. ``member_actions`` has shape (T, N, action_dim) when the
    rollout recorded them; ``action_diffs`` is None unless N >= 2."""

    observations: np.ndarray
    actions: np.ndarray  # (T, action_dim) float64, or (T,) int64 action indices
    rewards: np.ndarray
    episode_return: float
    member_actions: Optional[np.ndarray] = None
    action_diffs: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def mean_action_difference(self) -> Optional[float]:
        if self.action_diffs is None:
            return None
        return float(self.action_diffs.mean())


@dataclass(frozen=True)
class Cell:
    """One sweep cell: a method's model, trained on one expert dataset and
    evaluated on one env."""

    env: str
    method: str  # "bc" | "ensemble" | "swarm"
    n_expert_episodes: int
    tau: float
    n_members: int
    seed: int  # index of the cell among its group's seeds

    def key(self):
        return (self.env, self.method, self.n_expert_episodes, repr(float(self.tau)),
                self.n_members, self.seed)

    @staticmethod
    def parse(row):
        """The cell whose ``key()`` is the first six fields of a table row."""
        env, method, n_episodes, tau, n_members, seed = row[:6]
        return Cell(env, method, int(n_episodes), float(tau), int(n_members), int(seed))


@dataclass(frozen=True)
class RunRecord(Cell):
    """A cell's result: its mean scaled return and mean action difference."""

    scaled_return: float
    action_diff: Optional[float]  # episode-averaged d; None when N = 1

    @staticmethod
    def parse(row):
        """The record of a results row: its cell, then the two numbers."""
        scaled_return, action_diff = row[6:]
        return RunRecord(*astuple(Cell.parse(row)), float(scaled_return),
                   float(action_diff) if action_diff else None)

    def row(self) -> list:
        """The results row of this record, which ``parse`` reads back bit for bit."""
        diff = "" if self.action_diff is None else repr(float(self.action_diff))
        return [*self.key(), repr(float(self.scaled_return)), diff]


def rollouts(env: DeskEnv, policy, seeds, record_members: bool = False) -> list[Trajectory]:
    """Run one episode per seed, all in lockstep; returns their Trajectories.

    ``policy`` is an Ensemble or a callable ``(obs, episodes) -> actions``
    on a batch: ``obs`` is ``(E_live, obs_dim)`` and ``episodes`` holds the
    indices into ``seeds`` of those rows. Each timestep makes one policy
    call and one ``env.advance`` for the live episodes. With
    ``record_members`` and an Ensemble, every member's raw output is stored
    and each episode gets its per-step disagreement trace d_t. Every number
    equals what stepping each episode alone produces.
    """
    is_ensemble = isinstance(policy, Ensemble)
    if record_members and not is_ensemble:
        raise ConfigError("record_members requires an Ensemble policy")
    spec, seeds = env.spec, list(seeds)
    horizon, n = spec.max_steps, len(seeds)
    states = env.start_states(seeds)
    # one (horizon, E, ...) record per column: observations, actions (integer
    # indices for discrete envs), rewards and the recorded member outputs
    discrete = spec.action_kind == "discrete"
    records = [np.empty((horizon, n, spec.obs_dim)),
               np.empty((horizon, n) if discrete else (horizon, n, spec.action_dim),
                        np.int64 if discrete else np.float64),
               np.empty((horizon, n))]
    if record_members:
        records.append(np.empty((horizon, n, policy.n_members, policy.action_dim)))
    lengths = np.full(n, horizon)  # an episode that fails at step t has t + 1 steps
    live, rows, outputs = np.arange(n), None, None  # rows: the live episodes once one failed
    step = rollout_step(policy, n) if is_ensemble else None
    for t in range(horizon):
        obs = env.observe(states)
        if is_ensemble:
            outputs, actions = step(obs)  # outputs: (E_live, N, action_dim)
        else:
            actions = np.asarray(policy(obs, live))
        states, rewards, failed = env.advance(states, actions)
        at = t if rows is None else (t, rows)  # a whole row while every episode runs
        for record, column in zip(records, (obs, actions, rewards, outputs)):
            record[at] = column
        if not np.count_nonzero(failed):  # cheaper than failed.any()
            continue
        lengths[live[failed]] = t + 1
        live, states = live[~failed], states[~failed]
        if not live.size:
            break
        rows = live
    return [_trajectory(records, e, length) for e, length in enumerate(lengths.tolist())]


def _trajectory(records, episode: int, length: int) -> Trajectory:
    """Episode ``episode``'s rows of the records, as C-contiguous copies."""
    observations, actions, rewards, *outputs = (r[:length, episode].copy() for r in records)
    members = outputs[0] if outputs else None  # (T, N, action_dim)
    diffs = action_differences(members) if members is not None and members.shape[1] >= 2 else None
    return Trajectory(observations, actions, rewards, float(rewards.sum()), members, diffs)


def rollout(env: DeskEnv, policy, seed, record_members: bool = False) -> Trajectory:
    """Run one full episode: ``rollouts`` with one seed."""
    return rollouts(env, policy, [seed], record_members)[0]


def scaled_return(episode_return, r_random, r_expert) -> float:
    """Affine rescale: 0 at the random-policy level, 1 at the expert level."""
    denom = r_expert - r_random
    if abs(denom) < BASELINE_EPSILON:
        raise DegenerateBaselineError(
            f"expert ({r_expert}) and random ({r_random}) returns are too close"
        )
    return float((episode_return - r_random) / denom)


def scripted_rollouts(env: DeskEnv, baseline=None, datasets=()):
    """The scripted episodes of an optional baseline and of expert datasets,
    each given as ``(n_episodes, seed)``, in one lockstep ``rollouts`` call.
    Returns the baseline's ``(r_random, r_expert)`` (None without one) and
    the ``Dataset`` of each dataset; episodes do not depend on their batch,
    so each equals a call of its own. A baseline runs the uniform-random
    policy and the expert from the same start states, each random episode
    drawing its whole horizon from its own generator (the stream of one draw
    per step). A dataset holds every (observation, expert action) pair,
    discrete actions one-hot.
    """
    for n_episodes, _ in filter(None, (baseline, *datasets)):
        check_range("n_episodes", n_episodes, 1)
    spec = env.spec
    starts = []
    if baseline:  # one (E_random, ...) block per step
        pair = np.random.SeedSequence(baseline[1]).spawn(2 * baseline[0])
        starts = pair[0::2]
        draws = iter(np.stack([random_action(spec, np.random.default_rng(s), spec.max_steps)
                               for s in pair[1::2]], axis=1))
    n_random = len(starts)

    def policy(obs, episodes):  # episodes < n_random are random, the rest expert
        n = episodes.searchsorted(n_random)
        expert = env.expert_action(obs[n:])
        if not n_random:
            return expert
        draw = next(draws)  # whole while every random episode runs
        return np.concatenate([draw if n == n_random else draw[episodes[:n]], expert])

    trajs = iter(rollouts(env, policy, starts + starts + [
        s for n, seed in datasets for s in np.random.SeedSequence(seed).spawn(n)]))

    def take(n):
        return [next(trajs) for _ in range(n)]

    returns = (_mean_return(take(n_random)), _mean_return(take(n_random))) if baseline else None
    return returns, [_dataset(spec, take(n), n, seed) for n, seed in datasets]


def _mean_return(trajs) -> float:
    return float(np.mean([t.episode_return for t in trajs]))


def _dataset(spec, episodes, n_episodes: int, seed: int) -> Dataset:
    actions = np.concatenate([t.actions for t in episodes])
    if spec.action_kind == "discrete":
        actions = np.eye(spec.action_dim)[actions]
    meta = DatasetMeta(env=spec.env_id, episodes=n_episodes, seed=seed, obs_dim=spec.obs_dim,
                       action_dim=spec.action_dim, action_kind=spec.action_kind)
    return Dataset(np.concatenate([t.observations for t in episodes]), actions, meta)


def baseline_returns(env: DeskEnv, n_episodes: int = 20, seed: int = 0):
    """Mean episode returns of the uniform-random policy and the scripted
    expert over seeded episodes from the same start states: returns
    ``(r_random, r_expert)``, as ``scripted_rollouts`` with that baseline."""
    return scripted_rollouts(env, (n_episodes, seed))[0]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Per-timestep CSV: t, reward, d, then a_member{i}_{dim} columns when
    member actions were recorded. d is blank for single-member rollouts."""
    header = ["t", "reward", "d"]
    n_members = action_dim = 0
    if traj.member_actions is not None:
        _, n_members, action_dim = traj.member_actions.shape
        for i in range(n_members):
            for j in range(action_dim):
                header.append(f"a_member{i}_{j}")
    buf = io.StringIO()
    writer = csv.writer(buf)  # its rows end in "\r\n"
    writer.writerow(header)
    for t in range(len(traj)):
        row = [t, repr(float(traj.rewards[t]))]
        if traj.action_diffs is not None:
            row.append(repr(float(traj.action_diffs[t])))
        else:
            row.append("")
        if traj.member_actions is not None:
            row.extend(
                repr(float(v)) for v in traj.member_actions[t].reshape(-1)
            )
        writer.writerow(row)
    replace_file(path, buf.getvalue())
