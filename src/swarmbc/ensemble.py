"""Policy ensembles and the three behavior-cloning variants.

The single training loss for a sample (s, a) is

    L(s, a) = sum_i ||pi_i(s) - a||^2
              + tau * sum_k sum_{i<j} ||h_ik(s) - h_jk(s)||^2

where h_ik is member i's post-tanh activation at hidden layer k. With
tau = 0 this is plain ensemble behavior cloning (members decouple); with
tau > 0 the pairwise term pulls the members' hidden representations
together, which is the whole point: aligned hidden features produce
aligned actions in states the data never covered. The deployed action is
the member mean (continuous, clipped to env bounds) or the argmax of the
mean probability vector (discrete).

Training evaluates the pairwise sum in its centred form,
N * sum_i ||h_ik - mean_j h_jk||^2, which equals it in real arithmetic and
costs O(N) instead of O(N^2); ``swarm_loss`` keeps the pairwise double loop
as the reference. The pairwise sum is raw by default. ``normalize_swarm``
divides it by K * N(N-1)/2 so one tau transfers across ensemble sizes; it
is off by default because the raw form is the reference definition.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .data import Dataset, replace_file
from .envs import ENV_IDS, env_spec
from .errors import ConfigError, DimensionMismatchError, TrainingDivergedError

METHODS = ("bc", "ensemble", "swarm")


def check_tau(tau: float) -> float:
    """``tau + 0.0`` if ``tau`` is a regularizer strength, in [0, inf): -0.0 is 0.0."""
    if not 0 <= tau < math.inf:
        raise ConfigError(f"tau must be in [0, inf), got {tau}")
    return tau + 0.0


@dataclass
class LossBreakdown:
    """bc_term + tau * swarm_term = total; swarm_term is stored pre-tau."""

    bc_term: float
    swarm_term: float
    total: float


@dataclass
class Ensemble:
    """N same-shape policies plus the state normalisation and action bounds.

    ``params`` is the one flat buffer of all members' parameters (layout in
    ``nn.stacked_buffer``); the constructor copies it, so ``replace(ens, ...)``
    detaches. ``weights[k]``/``biases[k]`` are the stacked ``(N, in, out)``/
    ``(N, out)`` views the engine runs on, ``bias_rows[k]`` their ``(N, 1,
    out)`` broadcast form, and ``members`` hands member i out as an
    ``MlpPolicy`` of views. The head follows ``action_kind``: softmax
    for discrete, identity otherwise.
    """

    layer_dims: list[int]
    params: np.ndarray
    tau: float
    action_kind: str  # "continuous" | "discrete"
    obs_mean: np.ndarray = None
    obs_std: np.ndarray = None
    action_low: np.ndarray = None
    action_high: np.ndarray = None
    normalize_swarm: bool = False
    meta: dict = field(default_factory=dict)
    weights: list = field(init=False, repr=False, compare=False)
    biases: list = field(init=False, repr=False, compare=False)
    bias_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tau = check_tau(self.tau)
        if self.action_kind not in ("continuous", "discrete"):
            raise ConfigError(f"unknown action_kind {self.action_kind!r}")
        dims = self.layer_dims
        if len(dims) < 3 or min(dims) < 1:
            raise DimensionMismatchError(
                f"need at least one hidden layer and positive widths, got layer_dims={dims}")
        params = np.asarray(self.params, dtype=np.float64)
        n, rest = divmod(params.size, nn.stacked_buffer(dims, 1)[0].size)
        if params.ndim != 1 or n < 1 or rest:
            raise DimensionMismatchError(
                f"params of shape {params.shape} do not hold N >= 1 members of layer_dims {dims}")
        self.params, self.weights, self.biases = nn.stacked_buffer(dims, n)
        self.params[:] = params
        self.bias_rows = [b[:, None, :] for b in self.biases]
        if self.obs_mean is None:
            self.obs_mean = np.zeros(dims[0])
            self.obs_std = np.ones(dims[0])
        shapes = {"obs_mean": dims[0], "obs_std": dims[0]}
        if self.action_low is not None or self.action_high is not None:
            shapes.update(action_low=dims[-1], action_high=dims[-1])
        for name, size in shapes.items():
            if np.shape(getattr(self, name)) != (size,):
                raise DimensionMismatchError(
                    f"{name} has shape {np.shape(getattr(self, name))}, expected ({size},)")
        for name in ("params", *shapes):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} holds a non-finite number")
        if not np.all(np.greater(self.obs_std, 0.0)):
            raise ConfigError(f"obs_std must be > 0, got {self.obs_std}")
        if self.action_low is not None and np.any(self.action_low > self.action_high):
            raise ConfigError(
                f"action_low {self.action_low} exceeds action_high {self.action_high}")

    @property
    def n_members(self) -> int:
        return len(self.weights[0])

    @property
    def obs_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def action_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def head(self) -> str:
        return "softmax" if self.action_kind == "discrete" else "identity"

    @property
    def members(self) -> list[nn.MlpPolicy]:
        """Member i as an ``MlpPolicy`` whose arrays are views into ``params``."""
        return [
            nn.MlpPolicy(list(self.layer_dims), [w[i] for w in self.weights],
                         [b[i] for b in self.biases], self.head)
            for i in range(self.n_members)
        ]

    def normalize(self, s):
        return (np.asarray(s, dtype=np.float64) - self.obs_mean) / self.obs_std

    def predict_members(self, s) -> np.ndarray:
        """Raw member outputs: (N, action_dim) for one state, (E, N,
        action_dim) for a batch of E states. Discrete heads yield probability
        vectors (no argmax, no clipping).

        Every (state, member) pair is its own (1, in) @ (in, out) product, so
        a batch row is bit-identical to the single-state call (a (E, in)
        product rounds differently).
        """
        x = self.normalize(s)[..., None, None, :]  # ([E,] 1, 1, in)
        return nn.stacked_forward(self.weights, self.bias_rows, x, self.head)[1][..., 0, :]


def _swarm_scale(ensemble: Ensemble) -> float:
    """1 for the raw pairwise sum, 1/(K * pairs) in normalized mode."""
    n = ensemble.n_members
    pairs = (len(ensemble.layer_dims) - 2) * (n * (n - 1)) // 2
    return 1.0 / pairs if ensemble.normalize_swarm and pairs else 1.0


def _check_sample(ensemble: Ensemble, s, a):
    s = np.asarray(s, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if s.shape != (ensemble.obs_dim,):
        raise DimensionMismatchError(
            f"state shape {s.shape}, expected ({ensemble.obs_dim},)"
        )
    if a.shape != (ensemble.action_dim,):
        raise DimensionMismatchError(
            f"action shape {a.shape}, expected ({ensemble.action_dim},)"
        )
    return s, a


def _bc_term(outputs, a) -> float:
    return float(sum(np.sum((y - a) ** 2) for y in outputs))


def _member_activations(ensemble: Ensemble, s):
    """Every member's hidden activations, ``(N, width)`` per hidden layer, and
    outputs ``(N, action_dim)`` on one state."""
    x = ensemble.normalize(s)[None]
    hiddens, output = nn.stacked_forward(ensemble.weights, ensemble.bias_rows, x, ensemble.head)
    return [h[:, 0] for h in hiddens], output[:, 0]


def _swarm_term(hiddens) -> float:
    """Raw pairwise squared hidden-activation differences, hidden layers only."""
    total = 0.0
    for h in hiddens:
        for i in range(len(h)):
            for j in range(i + 1, len(h)):
                d = h[i] - h[j]
                total += float(np.sum(d * d))
    return total


def standard_loss(ensemble: Ensemble, s, a) -> LossBreakdown:
    """Plain BC-ensemble loss for one sample: sum_i ||pi_i(s) - a||^2."""
    s, a = _check_sample(ensemble, s, a)
    bc = _bc_term(_member_activations(ensemble, s)[1], a)
    return LossBreakdown(bc_term=bc, swarm_term=0.0, total=bc)


def swarm_loss(ensemble: Ensemble, s, a) -> LossBreakdown:
    """Full training loss for one sample; reduces bit-exactly to
    ``standard_loss`` when tau = 0."""
    s, a = _check_sample(ensemble, s, a)
    hiddens, outputs = _member_activations(ensemble, s)
    bc = _bc_term(outputs, a)
    swarm = _swarm_term(hiddens) * _swarm_scale(ensemble)
    return LossBreakdown(bc_term=bc, swarm_term=swarm, total=bc + ensemble.tau * swarm)


def deployed_action(ensemble: Ensemble, outputs):
    """The action for member outputs of shape (..., N, action_dim): the
    componentwise member mean clipped to the env bounds for continuous
    heads, the argmax of the mean probability vector for discrete."""
    return _deploy(outputs, outputs.shape[-2], ensemble.action_kind, ensemble.action_low,
                   ensemble.action_high)


def _deploy(outputs, n_members, action_kind: str, low=None, high=None):
    """``deployed_action``'s rule, dividing the member sum by ``n_members``."""
    # outputs.mean(axis=-2) and np.clip, bit for bit, minus their Python overhead
    mean = np.add.reduce(outputs, axis=-2) / n_members
    if action_kind == "discrete":
        return mean.argmax(axis=-1)
    if low is not None:
        mean = np.minimum(np.maximum(mean, low), high)
    return mean


def rollout_step(ensemble: Ensemble, n: int):
    """``step(obs) -> (outputs, actions)`` on a batch of up to ``n`` states:
    ``predict_members(obs)`` and its ``deployed_action``, bit for bit.

    The normalisation, the bias rows and the action bounds are copied once,
    broadcast to ``n`` leading rows, and sliced once per batch size; N is a
    0-d array. So every elementwise call has same-shape or 0-d operands,
    which numpy dispatches about 1 us faster than broadcast ones.
    The copies hold the ensemble's numbers as the step was built, so the
    ensemble must not change while the step is in use.
    """
    def rows(v):
        return np.broadcast_to(v, (n, *v.shape)).copy()

    mean, std = rows(ensemble.obs_mean), rows(ensemble.obs_std)
    bias_rows = [rows(b) for b in ensemble.bias_rows]
    bounds = () if ensemble.action_low is None else (
        rows(ensemble.action_low), rows(ensemble.action_high))
    n_members = np.array(float(ensemble.n_members))

    @functools.cache
    def views(e):  # the constants for a batch of e states
        return mean[:e], std[:e], [b[:e] for b in bias_rows], [v[:e] for v in bounds]

    def step(obs):
        mean_e, std_e, bias_e, bounds_e = views(len(obs))
        x = (obs - mean_e) / std_e
        outputs = nn.stacked_forward(ensemble.weights, bias_e, x[:, None, None, :],
                                     ensemble.head)[1][:, :, 0, :]
        return outputs, _deploy(outputs, n_members, ensemble.action_kind, *bounds_e)

    return step


def _kernel(ensemble: Ensemble, n_batch: int, dweights, dbiases):
    """The training step for batches of ``n_batch`` rows, over buffers allocated
    once: ``step(x, actions, bc_sums, swarm_sums)`` on normalized states writes
    each member's summed squared error into ``bc_sums``, each hidden layer's
    sum_i ||h_i - h_mean||^2 into ``swarm_sums`` (untouched at N = 1, where it
    is 0) and the gradient of the mean loss into ``dweights``/``dbiases``."""
    n, head, bias_rows = ensemble.n_members, ensemble.head, ensemble.bias_rows
    acts = [np.empty((n, n_batch, width)) for width in ensemble.layer_dims[1:]]
    hiddens, output = acts[:-1], acts[-1]
    err, err_sq = np.empty_like(output), np.empty_like(output)
    centred = [np.empty_like(h) for h in hiddens]
    scratch = [(np.empty_like(h), np.empty_like(h)) for h in hiddens]
    means = [np.empty(h.shape[1:]) for h in hiddens]
    # sum_{i<j} ||h_i - h_j||^2 = N sum_i ||h_i - h_mean||^2, with gradient
    # 2N (h_i - h_mean) w.r.t. h_i
    coef = 2.0 * ensemble.tau * _swarm_scale(ensemble) / n_batch
    seeds = centred if ensemble.tau > 0 and n > 1 else None

    def step(x, actions, bc_sums, swarm_sums):
        nn.stacked_forward(ensemble.weights, bias_rows, x, head, out=acts)
        np.subtract(output, actions, out=err)
        np.add.reduce(np.square(err, out=err_sq).reshape(n, -1), axis=1, out=bc_sums)
        if n > 1:
            for k, (h, mean, d, (_, d_sq)) in enumerate(zip(hiddens, means, centred, scratch)):
                np.add.reduce(h, axis=0, out=mean)
                mean /= n
                np.subtract(h, mean, out=d)
                np.add.reduce(np.square(d, out=d_sq).reshape(-1), out=swarm_sums[k, ...])
                if seeds is not None:
                    d *= n
                    d *= coef
        np.divide(np.multiply(err, 2.0, out=err), n_batch, out=err)
        nn.stacked_backward(ensemble.weights, x, hiddens, output, err, seeds,
                            dweights, dbiases, head, scratch)

    return step


def _breakdown(ensemble: Ensemble, scale: float, bc_sums, swarm_sums,
               n_batch: int) -> LossBreakdown:
    """The mean LossBreakdown of a batch from the sums ``_kernel`` wrote, as
    lists of floats; ``scale`` is ``_swarm_scale(ensemble)``."""
    # left to right, as swarm_loss adds numpy scalars: from Python 3.12, sum()
    # of floats compensates
    bc = swarm = 0.0
    for member_sum in bc_sums:
        bc += member_sum
    for layer_sum in swarm_sums:
        swarm += layer_sum
    bc /= n_batch
    swarm = ensemble.n_members * swarm * scale / n_batch
    return LossBreakdown(bc_term=bc, swarm_term=swarm, total=bc + ensemble.tau * swarm)


def _batch(ensemble: Ensemble, states, actions):
    """One run of the kernel on a 2-D batch: ``(LossBreakdown, flat gradient,
    dweights, dbiases)``, the gradient laid out like ``ensemble.params``."""
    grad, dweights, dbiases = nn.stacked_buffer(ensemble.layer_dims, ensemble.n_members)
    sums = np.zeros(ensemble.n_members), np.zeros(len(ensemble.layer_dims) - 2)
    _kernel(ensemble, len(states), dweights, dbiases)(ensemble.normalize(states), actions, *sums)
    breakdown = _breakdown(ensemble, _swarm_scale(ensemble), *(s.tolist() for s in sums),
                           len(states))
    return breakdown, grad, dweights, dbiases


def batch_loss_and_grads(ensemble: Ensemble, states, actions):
    """Mean per-sample loss over a batch, plus per-member parameter grads.

    Returns ``(LossBreakdown, grads)`` with ``grads[i]`` a flat parameter
    list matching ``nn.policy_parameters(member_i)``. One backward pass
    through the coupled graph: every member's hidden activations receive
    gradient from the pairwise term as well as from its own output error.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    breakdown, _, dweights, dbiases = _batch(ensemble, states, actions)
    grads = [
        [g[i] for pair in zip(dweights, dbiases) for g in pair]
        for i in range(ensemble.n_members)
    ]
    return breakdown, grads


@dataclass
class TrainConfig:
    epochs: int = 400
    batch_size: int = 64
    learning_rate: float = 1e-3
    hidden_dims: tuple = (16, 16)
    patience: int = 50
    min_improvement: float = 1e-4
    normalize_swarm: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not self.hidden_dims:
            raise ConfigError("need at least one hidden layer")
        if any(width < 1 for width in self.hidden_dims):
            raise ConfigError(f"hidden_dims widths must be >= 1, got {self.hidden_dims}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be in (0, inf), got {self.learning_rate}")
        if self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not 0 <= self.min_improvement < math.inf:
            raise ConfigError(f"min_improvement must be in [0, inf), got {self.min_improvement}")


# a diverging run overflows before its epoch ends; TrainingDivergedError
# reports it once, without a numpy warning for each overflowing call
@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: Dataset,
    n_members: int,
    tau: float,
    config: TrainConfig = None,
    seed: int = 0,
):
    """Train a fresh ensemble on a dataset; returns ``(ensemble, history)``.

    All members update jointly from the single coupled loss each minibatch:
    one stacked forward and backward, then one Adam step over the flat
    parameter buffer.
    States are normalized with the dataset statistics. Training stops at the
    epoch budget or once the epoch loss has stopped improving for
    ``patience`` epochs. ``history`` holds one mean LossBreakdown per epoch.
    """
    if config is None:
        config = TrainConfig()
    if len(dataset) == 0:
        raise ConfigError("cannot train on an empty dataset")
    if n_members < 1:
        raise ConfigError(f"n_members must be >= 1, got {n_members}")
    tau = check_tau(tau)

    layer_dims = [dataset.meta.obs_dim, *config.hidden_dims, dataset.meta.action_dim]
    streams = np.random.SeedSequence(seed).spawn(n_members + 1)
    params, weights, biases = nn.stacked_buffer(layer_dims, n_members)
    nn.init_members(weights, biases, [np.random.default_rng(s) for s in streams[:n_members]])
    shuffle_rng = np.random.default_rng(streams[n_members])

    low = high = None
    if dataset.meta.action_kind != "discrete" and dataset.meta.env in ENV_IDS:
        spec = env_spec(dataset.meta.env)
        low, high = spec.action_low, spec.action_high

    ens = Ensemble(
        layer_dims=layer_dims,
        params=params,
        tau=tau,
        action_kind=dataset.meta.action_kind,
        obs_mean=dataset.obs_mean.copy(),
        obs_std=dataset.obs_std.copy(),
        action_low=low,
        action_high=high,
        normalize_swarm=config.normalize_swarm,
        meta={
            "env": dataset.meta.env,
            "n_expert_episodes": dataset.meta.episodes,
            "dataset_seed": dataset.meta.seed,
            "train_seed": seed,
        },
    )

    grad, dweights, dbiases = nn.stacked_buffer(layer_dims, n_members)
    opt = nn.adam_init([ens.params], lr=config.learning_rate)

    n_samples = len(dataset)
    history: list[LossBreakdown] = []
    best_total = np.inf
    best_epoch = -1
    last_finite = ens.params.copy()

    # per minibatch of an epoch: its kernel, its views of the epoch's shuffled
    # rows, and its loss sums until the epoch ends
    batches = [slice(start, min(start + config.batch_size, n_samples))
               for start in range(0, n_samples, config.batch_size)]
    sizes = [rows.stop - rows.start for rows in batches]
    steps = {size: _kernel(ens, size, dweights, dbiases) for size in set(sizes)}
    bc_sums = np.zeros((len(batches), n_members))
    swarm_sums = np.zeros((len(batches), len(config.hidden_dims)))
    xs = ens.normalize(dataset.states)  # row by row, as each minibatch alone
    x_epoch, a_epoch = np.empty(xs.shape), np.empty(dataset.actions.shape)
    jobs = [(steps[size], x_epoch[rows], a_epoch[rows], bc_sums[i], swarm_sums[i])
            for i, (rows, size) in enumerate(zip(batches, sizes))]
    params_list, grad_list = [ens.params], [grad]
    scale = _swarm_scale(ens)

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_samples)
        # mode "clip" never clips a permutation, and unlike "raise" writes
        # straight into ``out``
        xs.take(order, axis=0, out=x_epoch, mode="clip")
        dataset.actions.take(order, axis=0, out=a_epoch, mode="clip")
        for step, *batch in jobs:
            step(*batch)
            nn.adam_update(params_list, grad_list, opt)
        sum_bc = sum_swarm = sum_total = 0.0
        for size, bc, swarm in zip(sizes, bc_sums.tolist(), swarm_sums.tolist()):
            breakdown = _breakdown(ens, scale, bc, swarm, size)
            # checked after the epoch's steps: a non-finite batch leaves the
            # rest of the epoch non-finite, and the payload is the epoch's start
            if not math.isfinite(breakdown.total):
                payload = replace(ens, params=last_finite, meta=dict(ens.meta))
                raise TrainingDivergedError(
                    f"non-finite loss in epoch {epoch}",
                    epoch=epoch,
                    last_finite_ensemble=payload,
                )
            sum_bc += breakdown.bc_term * size
            sum_swarm += breakdown.swarm_term * size
            sum_total += breakdown.total * size
        epoch_loss = LossBreakdown(
            bc_term=sum_bc / n_samples,
            swarm_term=sum_swarm / n_samples,
            total=sum_total / n_samples,
        )
        history.append(epoch_loss)
        last_finite[:] = ens.params

        if np.isfinite(best_total):
            threshold = config.min_improvement * max(1.0, abs(best_total))
            improved = epoch_loss.total < best_total - threshold
        else:
            improved = True
        if improved:
            best_total = epoch_loss.total
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break
    return ens, history


def save_ensemble(ensemble: Ensemble, path) -> None:
    """Write a self-describing JSON model file (lossless float64 round-trip)."""
    doc = {
        "format": "swarmbc-ensemble-v1",
        "n_members": ensemble.n_members,
        "tau": ensemble.tau,
        "action_kind": ensemble.action_kind,
        "normalize_swarm": ensemble.normalize_swarm,
        "layer_dims": list(ensemble.layer_dims),
        "hidden_activation": "tanh",
        "output_activation": ensemble.head,
        "obs_mean": ensemble.obs_mean.tolist(),
        "obs_std": ensemble.obs_std.tolist(),
        "action_low": None if ensemble.action_low is None else ensemble.action_low.tolist(),
        "action_high": None if ensemble.action_high is None else ensemble.action_high.tolist(),
        "meta": ensemble.meta,
        "members": [
            {
                "weights": [w[i].tolist() for w in ensemble.weights],
                "biases": [b[i].tolist() for b in ensemble.biases],
            }
            for i in range(ensemble.n_members)
        ],
    }
    replace_file(path, json.dumps(doc))


def load_ensemble(path) -> Ensemble:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "swarmbc-ensemble-v1":
        raise ConfigError(f"{path}: not a swarmbc ensemble file")
    layer_dims = list(doc["layer_dims"])
    if doc["n_members"] != len(doc["members"]):
        raise ConfigError(f"{path}: n_members is {doc['n_members']} but the file holds "
                          f"{len(doc['members'])} members")
    params, weights, biases = nn.stacked_buffer(layer_dims, len(doc["members"]))
    for i, rec in enumerate(doc["members"]):
        for name, views in (("weights", weights), ("biases", biases)):
            arrays = [np.array(a, dtype=np.float64) for a in rec[name]]
            shapes, want = [a.shape for a in arrays], [v.shape[1:] for v in views]
            if shapes != want:
                raise ConfigError(f"{path}: member {i} {name} shapes {shapes}, expected {want}")
            for view, a in zip(views, arrays):
                view[i] = a
    ens = Ensemble(
        layer_dims=layer_dims,
        params=params,
        tau=float(doc["tau"]),
        action_kind=doc["action_kind"],
        obs_mean=np.array(doc["obs_mean"], dtype=np.float64),
        obs_std=np.array(doc["obs_std"], dtype=np.float64),
        action_low=None if doc["action_low"] is None else np.array(doc["action_low"]),
        action_high=None if doc["action_high"] is None else np.array(doc["action_high"]),
        normalize_swarm=bool(doc.get("normalize_swarm", False)),
        meta=doc.get("meta", {}),
    )
    activations = doc["hidden_activation"], doc["output_activation"]
    if activations != ("tanh", ens.head):
        raise ConfigError(f"{path}: activations {activations} do not fit action_kind "
                          f"{ens.action_kind!r}, which takes ('tanh', {ens.head!r})")
    return ens


def random_tiny_ensemble(rng, tau, n_members=None, discrete=None) -> Ensemble:
    """Small random ensemble for gradient and identity checks."""
    if n_members is None:
        n_members = int(rng.integers(2, 4))
    if discrete is None:
        discrete = bool(rng.integers(2))
    obs_dim = int(rng.integers(1, 4))
    action_dim = int(rng.integers(2, 4)) if discrete else int(rng.integers(1, 4))
    n_hidden = int(rng.integers(1, 3))
    hidden = [int(rng.integers(1, 5)) for _ in range(n_hidden)]
    dims = [obs_dim, *hidden, action_dim]
    params, weights, biases = nn.stacked_buffer(dims, n_members)
    nn.init_members(weights, biases,
                    [np.random.default_rng(rng.integers(2**63)) for _ in range(n_members)])
    return Ensemble(
        layer_dims=dims,
        params=params,
        tau=tau,
        action_kind="discrete" if discrete else "continuous",
    )


def gradient_max_rel_error(n_trials=100, seed=0, taus=(0.0, 0.25, 1.0), step=1e-5):
    """Compare the stacked kernel's analytic gradients of the full loss against
    central finite differences of the double-loop ``swarm_loss`` on random
    tiny ensembles; returns the worst relative error (absolute floor 1e-7 in
    the denominator)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_trials):
        tau = taus[trial % len(taus)]
        ens = random_tiny_ensemble(rng, tau)
        s = rng.normal(size=ens.obs_dim)
        if ens.action_kind == "discrete":
            a = np.zeros(ens.action_dim)
            a[rng.integers(ens.action_dim)] = 1.0
        else:
            a = rng.normal(size=ens.action_dim)

        _, grad, _, _ = _batch(ens, s[None, :], a[None, :])

        def loss_fn(flat):
            ens.params[:] = flat[0]  # swarm_loss reads views of this buffer
            return swarm_loss(ens, s, a).total

        (fd,) = nn.finite_diff_grad(loss_fn, [ens.params], step=step)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-7)
        worst = np.maximum(worst, np.max(np.abs(grad - fd) / denom))  # keeps a NaN
    return float(worst)
