"""Desk-scale control environments with deterministic dynamics and
analytic scripted experts.

Three tasks, all integrated with semi-implicit Euler at a fixed dt:

* ``point_reach`` -- 2-D double integrator pushed toward the origin by a
  bounded force; reward is the negative distance to the goal.
* ``pendulum_swing`` -- torque-limited pendulum swing-up; reward penalizes
  the angle from upright, angular velocity, and torque effort.
* ``cart_balance`` -- linearized cart-pole with a discrete left/right
  force; +1 reward per step the pole stays up and the cart stays in bounds.

Each env writes its physics once, over a batch of E states of shape
``(E, state_dim)``: ``observe`` maps states to observations, ``advance``
maps states and actions to ``(states, rewards, failed)``, and the scripted
expert takes one observation or a batch. ``reset``/``step`` run a single
episode as the E = 1 case; ``metrics.rollouts`` steps many at once.

Dynamics are deterministic; the only randomness is the seeded start state,
so identical (state, action) pairs always produce bit-identical successors,
whatever batch they are stepped in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, EpisodeDoneError, cut

DT = 0.05


def _c(x):
    """``x`` as a 0-d float64 array. The per-step physics uses its constants
    in this form: numpy dispatches a ufunc about 0.35 us faster on a 0-d
    array than on a Python float, with the same result."""
    return np.array(x, dtype=np.float64)


_DT, _ZERO, _ONE, _NEG_ONE = _c(DT), _c(0.0), _c(1.0), _c(-1.0)
_PI, _TWO_PI = _c(math.pi), _c(2.0 * math.pi)


def wrap_angle(theta):
    """Map any angle (or array of angles) onto [-pi, pi)."""
    return (theta + _PI) % _TWO_PI - _PI


def _clip(x, low, high, out=None):
    """``np.clip`` without its Python-level overhead (same values)."""
    return np.minimum(np.maximum(x, low, out=out), high, out=out)


@dataclass(frozen=True)
class EnvSpec:
    env_id: str
    obs_dim: int
    action_kind: str         # "continuous" | "discrete"
    action_dim: int          # action vector dim, or number of discrete actions
    action_low: np.ndarray   # None for discrete
    action_high: np.ndarray
    max_steps: int
    reward_min: float
    reward_max: float


class DeskEnv:
    """The batched physics hooks, plus reset/step bookkeeping for one episode.

    Subclasses set the class attribute ``spec`` and implement
    ``_sample_start`` (one start state from a generator), ``advance(states,
    actions)`` and ``expert_action(obs)``; ``observe(states)`` is optional
    and defaults to the states themselves. Batched actions are ``(E,
    action_dim)`` floats or ``(E,)`` integer indices for discrete envs.
    """

    spec: EnvSpec

    def __init__(self):
        self._state = None
        self._steps = 0
        self._done = True

    def start_states(self, seeds) -> np.ndarray:
        """One seeded start state per seed, stacked to ``(E, state_dim)``."""
        return np.stack([self._sample_start(np.random.default_rng(s)) for s in seeds])

    def reset(self, seed) -> np.ndarray:
        self._state = self.start_states([seed])[0]
        self._steps = 0
        self._done = False
        return self._observe()

    def step(self, action):
        if self._state is None:
            raise EpisodeDoneError(f"{self.spec.env_id}: step() before reset()")
        if self._done:
            raise EpisodeDoneError(f"{self.spec.env_id}: episode already done")
        states, rewards, failed = self.advance(self._state[None], np.asarray(action)[None])
        self._state = states[0]
        self._steps += 1
        if failed[0] or self._steps >= self.spec.max_steps:
            self._done = True
        return self._observe(), float(rewards[0]), self._done

    def _observe(self) -> np.ndarray:
        return self.observe(self._state[None])[0]

    # subclass hooks
    def _sample_start(self, rng):
        raise NotImplementedError

    def observe(self, states) -> np.ndarray:
        return states.copy()

    def advance(self, states, actions):
        raise NotImplementedError

    def expert_action(self, obs):
        raise NotImplementedError


class PointReach(DeskEnv):
    """Double integrator on the plane; the goal is the origin.

    State (px, py, vx, vy). The commanded force is clipped to [-1, 1]^2,
    velocity is capped at VMAX, and positions are clamped to the arena box
    (hitting a wall zeroes that velocity component), which bounds the
    per-step reward to [-ARENA*sqrt(8), 0].
    """

    KP = 4.0
    KD = 0.8  # underdamped on purpose: the expert spirals in, sweeping
    # a wide swath of the state space even in a single episode
    VMAX = 2.0
    ARENA = 4.0
    START_POS = 1.5
    START_VEL = 0.1
    _arena, _vmax, _neg_vmax = _c(ARENA), _c(VMAX), _c(-VMAX)
    _neg_kp, _kd = _c(-KP), _c(KD)
    spec = EnvSpec(env_id="point_reach", obs_dim=4, action_kind="continuous", action_dim=2,
                   action_low=np.array([-1.0, -1.0]), action_high=np.array([1.0, 1.0]),
                   max_steps=200, reward_min=-ARENA * math.sqrt(8.0), reward_max=0.0)

    def _sample_start(self, rng):
        pos = rng.uniform(-self.START_POS, self.START_POS, size=2)
        vel = rng.uniform(-self.START_VEL, self.START_VEL, size=2)
        return np.concatenate([pos, vel])

    def advance(self, states, actions):
        u = _clip(np.asarray(actions, dtype=np.float64), _NEG_ONE, _ONE)
        new = np.empty_like(states)
        pos, vel = new[:, :2], new[:, 2:]
        _clip(states[:, 2:] + _DT * u, self._neg_vmax, self._vmax, out=vel)
        np.add(states[:, :2], _DT * vel, out=pos)
        wall = np.abs(pos) > self._arena
        if np.count_nonzero(wall):  # cheaper than wall.any()
            np.copysign(self._arena, pos, out=pos, where=wall)
            vel[wall] = 0.0
        # |pos| as sqrt of a (1, 2) @ (2, 1) product rounds like np.linalg.norm
        # of one position; norm(axis=1) and sqrt(x*x + y*y) do not
        reward = -np.sqrt(np.matmul(pos[:, None, :], pos[:, :, None])[:, 0, 0])
        return new, reward, np.zeros(len(states), dtype=bool)

    def expert_action(self, obs):
        pos, vel = obs[..., :2], obs[..., 2:]
        return _clip(self._neg_kp * pos - self._kd * vel, _NEG_ONE, _ONE)


class PendulumSwing(DeskEnv):
    """Torque-limited pendulum; angle 0 is upright, pi is hanging down.

    Observation (cos th, sin th, omega). Max torque is well below the
    gravity torque at the horizontal, so the expert has to pump energy
    before it can catch and stabilize the pendulum near the top.
    """

    MASS = 1.0
    LENGTH = 1.0
    GRAVITY = 9.81
    U_MAX = 12.0
    OMEGA_MAX = 8.0
    # expert gains
    K_ENERGY = 2.0
    KP = 24.0
    KD = 6.0
    CATCH_ANGLE = 0.5
    CATCH_OMEGA = 2.5
    _u_max, _neg_u_max = _c(U_MAX), _c(-U_MAX)
    _omega_max, _neg_omega_max = _c(OMEGA_MAX), _c(-OMEGA_MAX)
    _g_over_l, _ml2 = _c(GRAVITY / LENGTH), _c(MASS * LENGTH**2)
    _omega_cost, _u_cost = _c(0.1), _c(0.001)
    _half_ml2, _mgl = _c(0.5 * MASS * LENGTH**2), _c(MASS * GRAVITY * LENGTH)
    _neg_k_energy, _neg_kp, _kd = _c(-K_ENERGY), _c(-KP), _c(KD)
    _rest_omega, _catch_angle, _catch_omega = _c(0.05), _c(CATCH_ANGLE), _c(CATCH_OMEGA)
    spec = EnvSpec(env_id="pendulum_swing", obs_dim=3, action_kind="continuous", action_dim=1,
                   action_low=np.array([-U_MAX]), action_high=np.array([U_MAX]), max_steps=300,
                   reward_min=-(math.pi**2 + 0.1 * OMEGA_MAX**2 + 0.001 * U_MAX**2),
                   reward_max=0.0)

    def _sample_start(self, rng):
        theta = math.pi + rng.uniform(-1.0, 1.0)
        omega = rng.uniform(-0.5, 0.5)
        return np.array([theta, omega])

    def observe(self, states):
        obs = np.empty((len(states), 3))
        np.cos(states[:, 0], out=obs[:, 0])
        np.sin(states[:, 0], out=obs[:, 1])
        obs[:, 2] = states[:, 1]
        return obs

    def advance(self, states, actions):
        u = np.asarray(actions, dtype=np.float64).reshape(len(states), -1)[:, 0]
        u = _clip(u, self._neg_u_max, self._u_max)
        new = np.empty_like(states)
        theta, omega = new[:, 0], new[:, 1]
        accel = self._g_over_l * np.sin(states[:, 0]) + u / self._ml2
        _clip(states[:, 1] + _DT * accel, self._neg_omega_max, self._omega_max, out=omega)
        np.add(states[:, 0], _DT * omega, out=theta)
        a = wrap_angle(theta)
        reward = -(a * a + self._omega_cost * omega * omega + self._u_cost * u * u)
        return new, reward, np.zeros(len(states), dtype=bool)

    def expert_action(self, obs):
        obs = np.asarray(obs, dtype=np.float64)
        rows = obs.reshape(-1, 3)
        # math.atan2 per state: np.arctan2 rounds differently on some inputs
        theta = np.array([math.atan2(y, x) for x, y, _ in rows.tolist()])
        omega = rows[:, 2]
        # Pump mechanical energy toward the upright level (E = 0); dE/dt =
        # omega * u, so push along omega while energy is short, kick off the
        # hanging rest point, and catch the pendulum near the top.
        energy = (self._half_ml2 * omega * omega
                  + self._mgl * (np.cos(theta) - _ONE))
        u = self._neg_k_energy * omega * energy
        u[np.abs(omega) < self._rest_omega] = self.U_MAX
        catch = (np.abs(theta) <= self._catch_angle) & (np.abs(omega) <= self._catch_omega)
        if np.count_nonzero(catch):
            u[catch] = (self._neg_kp * theta - self._kd * omega)[catch]
        return _clip(u, self._neg_u_max, self._u_max).reshape(obs.shape[:-1] + (1,))


class CartBalance(DeskEnv):
    """Cart-pole linearized about the upright pole, with bang-bang force.

    Action 0 pushes left, 1 pushes right. The episode fails when the pole
    angle or cart position leaves its bound; reward is 1 per surviving step.
    """

    M_CART = 1.0
    M_POLE = 0.1
    POLE_HALF = 0.5
    GRAVITY = 9.8
    FORCE = 10.0
    ANGLE_LIMIT = 0.21
    X_LIMIT = 2.4
    START = 0.05
    # expert: push right iff theta + EXPERT_BLEND * theta_dot > 0
    EXPERT_BLEND = 0.25
    _gravity, _blend = _c(GRAVITY), _c(EXPERT_BLEND)
    _x_limit, _angle_limit = _c(X_LIMIT), _c(ANGLE_LIMIT)
    # effective pole length in the linearized angular dynamics
    _l_eff = _c(POLE_HALF * (4.0 / 3.0 - M_POLE / (M_CART + M_POLE)))
    _lever = _c(M_POLE * POLE_HALF / (M_CART + M_POLE))
    _push = np.array([-FORCE, FORCE]) / (M_CART + M_POLE)  # by action
    spec = EnvSpec(env_id="cart_balance", obs_dim=4, action_kind="discrete", action_dim=2,
                   action_low=None, action_high=None, max_steps=200,
                   reward_min=0.0, reward_max=1.0)

    def _sample_start(self, rng):
        return rng.uniform(-self.START, self.START, size=4)

    def advance(self, states, actions):
        a = np.asarray(actions).reshape(len(states))
        if not set(a.tolist()) <= {0, 1}:
            raise ConfigError(f"cart_balance: action must be 0 or 1, got {actions!r}")
        push = self._push[a.astype(np.intp)]
        acc = np.empty((len(states), 2))  # (x, theta) accelerations
        theta_acc = np.divide(self._gravity * states[:, 2] - push, self._l_eff, out=acc[:, 1])
        np.subtract(push, self._lever * theta_acc, out=acc[:, 0])
        # positions (x, theta) and velocities are the even and odd state columns
        new = np.empty_like(states)
        pos, vel = new[:, 0::2], new[:, 1::2]
        np.add(states[:, 1::2], _DT * acc, out=vel)
        np.add(states[:, 0::2], _DT * vel, out=pos)
        dist = np.abs(pos)  # |x|, |theta|
        failed = (dist[:, 0] > self._x_limit) | (dist[:, 1] > self._angle_limit)
        return new, _ONE - failed, failed

    def expert_action(self, obs):
        return (obs[..., 2] + self._blend * obs[..., 3] > _ZERO).astype(np.int64)


_ENV_CLASSES = {cls.spec.env_id: cls for cls in (PointReach, PendulumSwing, CartBalance)}
ENV_IDS = tuple(_ENV_CLASSES)


def make_env(env_id: str) -> DeskEnv:
    try:
        return _ENV_CLASSES[env_id]()
    except (KeyError, TypeError):  # TypeError: an unhashable id, such as a list
        raise ConfigError(f"unknown env {cut(repr(env_id))}; "
                          f"choose from {', '.join(ENV_IDS)}") from None


def random_action(spec: EnvSpec, rng, steps: int):
    """``steps`` uniform actions in the env's action space, as rows, in one
    draw (the same stream as ``steps`` single draws)."""
    if spec.action_kind == "discrete":
        return rng.integers(spec.action_dim, size=steps)
    return rng.uniform(spec.action_low, spec.action_high, size=(steps, spec.action_dim))


def generate_dataset(env: DeskEnv, n_episodes: int, seed: int) -> Dataset:
    """Roll the scripted expert for seeded episodes (in lockstep), recording
    every (observation, expert action) pair: ``metrics.scripted_rollouts``
    with one dataset. Discrete actions are stored one-hot."""
    from .metrics import scripted_rollouts  # metrics imports this module

    return scripted_rollouts(env, datasets=[(n_episodes, seed)])[1][0]
