"""Dense feed-forward policies with hand-written analytic gradients.

Everything here is float64. The single-policy functions are purely
functional: forward passes return a trace of every intermediate value, the
backward pass consumes a trace plus gradient seeds (including seeds injected
directly on hidden activations), and ``adam_step`` returns fresh arrays
instead of mutating. They do no arithmetic of their own: each is the N = 1
case of the stacked engine below.

The stacked engine runs N same-shape policies as one: their parameters live
in one flat buffer, laid out layer by layer as ``W_k`` of shape
``(N, in, out)`` followed by ``b_k`` of shape ``(N, out)``, so that one
``np.matmul`` per layer serves every member and ``adam_update`` rewrites the
whole buffer in place. ``stacked_buffer`` is the one place that knows this
layout. Member i's ``W_k[i]`` is a contiguous block, so each member can
still be handed out as an ``MlpPolicy`` of views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, check_range

OUTPUT_ACTIVATIONS = ("identity", "softmax")
# Adam's moment decay rates and denominator guard: fixed, the learning rate
# alone is a setting
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class MlpPolicy:
    """One MLP: ``layer_dims[0]`` inputs, K hidden tanh layers, one output layer.

    ``weights[k]`` has shape ``(layer_dims[k], layer_dims[k+1])`` and acts on
    row vectors (``x @ W + b``).
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.layer_dims) < 3:
            raise DimensionMismatchError(
                f"need at least one hidden layer, got layer_dims={self.layer_dims}"
            )
        if any(d <= 0 for d in self.layer_dims):
            raise DimensionMismatchError(f"non-positive width in {self.layer_dims}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        n_layers = len(self.layer_dims) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise DimensionMismatchError(
                f"expected {n_layers} weight/bias pairs, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[k], self.layer_dims[k + 1])
            if w.shape != want:
                raise DimensionMismatchError(
                    f"layer {k}: weight shape {w.shape}, expected {want}"
                )
            if b.shape != (self.layer_dims[k + 1],):
                raise DimensionMismatchError(
                    f"layer {k}: bias shape {b.shape}, expected ({want[1]},)"
                )

    @property
    def n_hidden_layers(self) -> int:
        return len(self.layer_dims) - 2


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass (single state or batch)."""

    state: np.ndarray
    hiddens: list[np.ndarray]  # post-tanh, one per hidden layer
    output: np.ndarray


def init_members(weights, biases, rngs) -> None:
    """Uniform fan-in-scaled init into stacked views, member i drawn from
    ``rngs[i]`` layer by layer: weights and biases both ~ U(+-1/sqrt(fan_in))."""
    for i, rng in enumerate(rngs):
        for w, b in zip(weights, biases):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[i] = rng.uniform(-bound, bound, size=w.shape[1:])
            b[i] = rng.uniform(-bound, bound, size=b.shape[1:])


def _softmax(z: np.ndarray, out=None) -> np.ndarray:
    if z.shape[-1] == 2:
        # each column against its mirror gives the row max and the row sum at
        # full shape, bit for bit as below: numpy dispatches same-shape
        # operands faster than a broadcast (..., 1) column
        e = np.subtract(z, np.maximum(z, z[..., ::-1]), out=out)
        np.exp(e, out=e)
        e /= e + e[..., ::-1]
        return e
    # the row max as a running maximum over the columns, one call per column
    # instead of one inner loop per row: a max is exact in any order
    top = z[..., :1]
    for j in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., j : j + 1])
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def forward(policy: MlpPolicy, s: np.ndarray) -> ForwardTrace:
    """Run the network on one state (1-D) or a batch (2-D), keeping all
    intermediates for the backward pass: ``stacked_forward`` at N = 1."""
    s = np.asarray(s, dtype=np.float64)
    hiddens, output = stacked_forward([w[None] for w in policy.weights],
                                      [b[None, None] for b in policy.biases],
                                      np.atleast_2d(s)[None], policy.output_activation)
    rows = 0 if s.ndim == 1 else slice(None)
    return ForwardTrace(state=s, hiddens=[h[0, rows] for h in hiddens], output=output[0, rows])


def backward_policy(policy, trace, output_grad, hidden_grads=None):
    """Analytic gradients of a scalar loss w.r.t. every weight and bias:
    ``stacked_backward`` at N = 1.

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
    out = np.atleast_2d(trace.output)[None]
    gy = np.array(output_grad, dtype=np.float64, ndmin=2)[None]  # a copy: overwritten
    if gy.shape != out.shape:
        raise DimensionMismatchError(
            f"output seed shape {gy.shape[1:]}, expected {out.shape[1:]}"
        )
    hiddens = [np.atleast_2d(h)[None] for h in trace.hiddens]
    seeds = [np.zeros_like(h) if g is None else np.atleast_2d(g)
             for h, g in zip(hiddens, hidden_grads)]
    _, dweights, dbiases = stacked_buffer(policy.layer_dims, 1)
    stacked_backward([w[None] for w in policy.weights], np.atleast_2d(trace.state), hiddens,
                     out, gy, seeds, dweights, dbiases, policy.output_activation,
                     [(np.empty_like(h), np.empty_like(h)) for h in hiddens])
    return [dw[0] for dw in dweights], [db[0] for db in dbiases]


def stacked_buffer(layer_dims, n_members: int):
    """A zeroed flat buffer for ``n_members`` policies and its per-layer views:
    ``(flat, weights, biases)`` with ``weights[k]`` of shape ``(N, in, out)``
    and ``biases[k]`` of shape ``(N, out)``."""
    dims = list(zip(layer_dims[:-1], layer_dims[1:]))
    flat = np.zeros(n_members * sum((fan_in + 1) * fan_out for fan_in, fan_out in dims))
    weights, biases, at = [], [], 0
    for fan_in, fan_out in dims:
        size = n_members * fan_in * fan_out
        weights.append(flat[at : at + size].reshape(n_members, fan_in, fan_out))
        at += size
        biases.append(flat[at : at + n_members * fan_out].reshape(n_members, fan_out))
        at += n_members * fan_out
    return flat, weights, biases


def stacked_forward(weights, bias_rows, x: np.ndarray, output_activation: str, out=None):
    """Every member on one shared batch ``x`` of shape ``(B, in)``.

    ``bias_rows[k]`` is ``biases[k][:, None, :]``. Returns ``(hiddens, output)``:
    post-tanh activations ``(N, B, width)`` per hidden layer and the head
    output ``(N, B, out)``, written into ``out`` (one buffer per layer) if
    given. Leading axes broadcast as in ``np.matmul``: ``x`` of shape ``(E, 1,
    1, in)`` gives ``(E, N, 1, out)``.
    """
    if x.shape[-1] != weights[0].shape[-2]:
        raise DimensionMismatchError(
            f"input layer: state dim {x.shape[-1]}, expected {weights[0].shape[-2]}"
        )
    hiddens = []
    a = x
    for k, (w, b) in enumerate(zip(weights, bias_rows)):
        a = np.matmul(a, w, out=None if out is None else out[k])
        a += b
        if k < len(weights) - 1:
            hiddens.append(np.tanh(a, out=a))
    return hiddens, _softmax(a, out=a) if output_activation == "softmax" else a


def stacked_backward(weights, x, hiddens, output, output_grad, hidden_grads,
                     dweights, dbiases, output_activation: str, scratch) -> None:
    """Analytic gradients for every member at once, written into the
    gradient views ``dweights``/``dbiases`` (shaped like ``weights``/``biases``).

    ``output_grad`` is ``(N, B, out)``; ``hidden_grads`` is None or one
    ``(N, B, width)`` seed per hidden layer. ``output_grad`` is overwritten,
    and ``scratch`` holds two ``(N, B, width)`` buffers per hidden layer.
    """
    dz = output_grad
    if output_activation == "softmax":
        dz -= (dz * output).sum(axis=-1, keepdims=True)
        dz *= output
    acts = [x] + hiddens  # inputs to each affine layer
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].swapaxes(-1, -2), dz, out=dweights[k])
        if dz.shape[-1] > 1:  # einsum adds the B rows in order, as dz.sum(axis=1) does
            np.einsum("nbw->nw", dz, out=dbiases[k])
        else:  # numpy squeezes a width-1 column and sums it pairwise
            dz.sum(axis=1, out=dbiases[k])
        if k == 0:
            break
        da, slope = scratch[k - 1]
        np.matmul(dz, weights[k].swapaxes(-1, -2), out=da)
        if hidden_grads is not None:
            da += hidden_grads[k - 1]
        h = hiddens[k - 1]
        np.subtract(1.0, np.multiply(h, h, out=slope), out=slope)
        dz = np.multiply(da, slope, out=da)


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state for a list of arrays."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 1e-3


def adam_init(params, lr=1e-3) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(params, grads, state: AdamState):
    """One update. Returns ``(new_params, new_state)``; nothing is mutated:
    ``adam_update`` on copies."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatchError("parameter/gradient/state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionMismatchError(
                f"gradient shape {g.shape} does not match parameter {p.shape}"
            )
    new_params = [p.copy() for p in params]
    new_state = replace(state, m=[m.copy() for m in state.m], v=[v.copy() for v in state.v])
    adam_update(new_params, grads, new_state)
    return new_params, new_state


def adam_update(params, grads, state: AdamState) -> None:
    """One Adam step in place, written into ``params``, ``state.m`` and
    ``state.v``."""
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    state.step = t


def policy_parameters(policy: MlpPolicy) -> list[np.ndarray]:
    """Flatten to [W0, b0, W1, b1, ...] for the optimizer."""
    out = []
    for w, b in zip(policy.weights, policy.biases):
        out.append(w)
        out.append(b)
    return out


def policy_gradients(dweights, dbiases) -> list[np.ndarray]:
    out = []
    for dw, db in zip(dweights, dbiases):
        out.append(dw)
        out.append(db)
    return out


def finite_diff_grad(loss_fn, params, step=1e-5):
    """Central-difference gradients of ``loss_fn(params)`` w.r.t. every entry.

    The test oracle for the analytic backward pass: it only ever calls the
    loss as a black box.
    """
    check_range("step", step, 0, np.inf, above=True)
    grads = []
    work = [p.astype(np.float64).copy() for p in params]
    for i, p in enumerate(work):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            lo_hi = loss_fn(work)
            p[idx] = orig - step
            lo_lo = loss_fn(work)
            p[idx] = orig
            g[idx] = (lo_hi - lo_lo) / (2.0 * step)
        grads.append(g)
    return grads
