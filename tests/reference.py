"""Slow reference versions of engine parts, kept as test oracles: building
ensembles from single policies, single-state policies in rollouts, single
random actions, the two-call baseline rollouts, the deployed action, the
action difference over the full N x N distance matrix, and the per-policy
forward, backward and Adam step the stacked kernels must match bit for bit."""

from dataclasses import dataclass, replace

import numpy as np

from swarmbc import nn
from swarmbc.ensemble import Ensemble
from swarmbc.errors import DimensionMismatchError
from swarmbc.metrics import rollouts
from swarmbc.nn import BETA1, BETA2, EPS, AdamState, MlpPolicy


def ensemble_of(members, **fields) -> Ensemble:
    """An Ensemble holding copies of ``members``' parameters (all of one
    ``layer_dims``); ``fields`` are the other Ensemble fields."""
    layer_dims = list(members[0].layer_dims)
    params, weights, biases = nn.stacked_buffer(layer_dims, len(members))
    for i, m in enumerate(members):
        for w, b, mw, mb in zip(weights, biases, m.weights, m.biases):
            w[i], b[i] = mw, mb
    return Ensemble(layer_dims=layer_dims, params=params, **fields)


def init_policy(layer_dims, rng, output_activation="identity") -> MlpPolicy:
    """One freshly drawn policy: ``nn.init_members`` at N = 1."""
    _, weights, biases = nn.stacked_buffer(layer_dims, 1)
    nn.init_members(weights, biases, [rng])
    return MlpPolicy(list(layer_dims), [w[0] for w in weights], [b[0] for b in biases],
                     output_activation)


def per_state(policy):
    """A ``rollouts`` policy that calls the single-state ``policy`` on each
    live observation in turn."""
    return lambda obs, episodes: [policy(o) for o in obs]


def deployed_action(ensemble: Ensemble, outputs):
    """The action for member outputs of shape (..., N, action_dim): the
    member mean clipped to the action bounds, or the argmax of the mean
    probabilities for a discrete head."""
    mean = outputs.mean(axis=-2)
    if ensemble.action_kind == "discrete":
        return mean.argmax(axis=-1)
    if ensemble.action_low is None:
        return mean
    return np.clip(mean, ensemble.action_low, ensemble.action_high)


def random_action(spec, rng):
    """One uniform action in the env's action space: a step of
    ``envs.random_action``'s block draw."""
    if spec.action_kind == "discrete":
        return int(rng.integers(spec.action_dim))
    return rng.uniform(spec.action_low, spec.action_high)


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


def bits(a):
    """The bit patterns of ``a`` with every NaN as ``np.nan``: which of two NaNs an
    add or a max keeps depends on its operand order, which IEEE 754 leaves open."""
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def action_differences(actions: np.ndarray) -> np.ndarray:
    """``metrics.action_differences`` from every ordered pair's distance, of
    which the i < j entries are averaged."""
    n = actions.shape[-2]
    diffs = actions[..., :, None, :] - actions[..., None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    iu = np.triu_indices(n, k=1)
    # each row of pair distances is summed as one contiguous vector, the way
    # a single state's pair vector is
    return np.ascontiguousarray(dists[..., iu[0], iu[1]]).mean(axis=-1)


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass (single state or batch)."""

    state: np.ndarray
    pre_activations: list[np.ndarray]  # one per affine layer, outputs last
    hiddens: list[np.ndarray]          # post-tanh, one per hidden layer
    output: np.ndarray


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def forward(policy: MlpPolicy, s: np.ndarray) -> ForwardTrace:
    """Run the network on one state (1-D) or a batch (2-D), keeping all
    intermediates for the backward pass."""
    s = np.asarray(s, dtype=np.float64)
    single = s.ndim == 1
    x = np.atleast_2d(s)
    if x.shape[1] != policy.layer_dims[0]:
        raise DimensionMismatchError(
            f"input layer: state dim {x.shape[1]}, expected {policy.layer_dims[0]}"
        )
    pre, hiddens = [], []
    a = x
    n_layers = len(policy.weights)
    for k in range(n_layers):
        z = a @ policy.weights[k] + policy.biases[k]
        pre.append(z)
        if k < n_layers - 1:
            a = np.tanh(z)
            hiddens.append(a)
        elif policy.output_activation == "softmax":
            a = _softmax(z)
        else:
            a = z
    if single:
        return ForwardTrace(
            state=s,
            pre_activations=[p[0] for p in pre],
            hiddens=[h[0] for h in hiddens],
            output=a[0],
        )
    return ForwardTrace(state=s, pre_activations=pre, hiddens=hiddens, output=a)


def backward_policy(policy, trace, output_grad, hidden_grads=None):
    """Analytic gradients of a scalar loss w.r.t. every weight and bias.

    ``output_grad`` is dL/d(output); ``hidden_grads[k]``, when given, is
    dL/dh_{k+1} injected directly on the post-tanh activation of hidden
    layer k (this is how the pairwise alignment penalty enters the graph
    mid-network). Returns ``(dweights, dbiases)`` mirroring the policy.
    """
    K = policy.n_hidden_layers
    if hidden_grads is None:
        hidden_grads = [None] * K
    if len(hidden_grads) != K:
        raise DimensionMismatchError(
            f"got {len(hidden_grads)} hidden-gradient seeds for {K} hidden layers"
        )

    x = np.atleast_2d(np.asarray(trace.state, dtype=np.float64))
    hiddens = [np.atleast_2d(h) for h in trace.hiddens]
    out = np.atleast_2d(trace.output)
    gy = np.atleast_2d(np.asarray(output_grad, dtype=np.float64))
    if gy.shape != out.shape:
        raise DimensionMismatchError(
            f"output seed shape {gy.shape}, expected {out.shape}"
        )

    if policy.output_activation == "softmax":
        # dL/dz = y * (g - sum(g * y)) for y = softmax(z)
        dz = out * (gy - (gy * out).sum(axis=-1, keepdims=True))
    else:
        dz = gy

    dweights = [None] * len(policy.weights)
    dbiases = [None] * len(policy.biases)
    acts = [x] + hiddens  # inputs to each affine layer
    for k in range(len(policy.weights) - 1, -1, -1):
        dweights[k] = acts[k].T @ dz
        dbiases[k] = dz.sum(axis=0)
        if k == 0:
            break
        da = dz @ policy.weights[k].T
        seed = hidden_grads[k - 1]
        if seed is not None:
            da = da + np.atleast_2d(seed)
        h = hiddens[k - 1]
        dz = da * (1.0 - h * h)  # tanh'(z) from the stored activation
    return dweights, dbiases


def adam_step(params, grads, state: AdamState):
    """One update. Returns ``(new_params, new_state)``; nothing is mutated."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatchError("parameter/gradient/state length mismatch")
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_m, new_v, new_params = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionMismatchError(
                f"gradient shape {g.shape} does not match parameter {p.shape}"
            )
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        new_m.append(m)
        new_v.append(v)
        new_params.append(p - state.lr * (m / c1) / (np.sqrt(v / c2) + EPS))
    return new_params, replace(state, m=new_m, v=new_v, step=t)
