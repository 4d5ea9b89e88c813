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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .data import Dataset
from .errors import ConfigError, DimensionMismatchError, TrainingDivergedError

METHODS = ("bc", "ensemble", "swarm")


@dataclass
class LossBreakdown:
    """bc_term + tau * swarm_term = total; swarm_term is stored pre-tau."""

    bc_term: float
    swarm_term: float
    total: float


@dataclass
class Ensemble:
    """N same-shape policies plus the state normalisation and action bounds.

    The constructor copies the members' parameters into one flat buffer,
    ``params`` (layout in ``nn``), and replaces ``members`` by policies whose
    arrays are views into it; ``weights[k]``/``biases[k]`` are the stacked
    ``(N, in, out)``/``(N, out)`` views the engine runs on. Writing into a
    member's arrays therefore updates the buffer; putting a different policy
    into ``members`` does not (build a new Ensemble instead).
    """

    members: list[nn.MlpPolicy]
    tau: float
    action_kind: str  # "continuous" | "discrete"
    obs_mean: np.ndarray = None
    obs_std: np.ndarray = None
    action_low: np.ndarray = None
    action_high: np.ndarray = None
    normalize_swarm: bool = False
    meta: dict = field(default_factory=dict)
    params: np.ndarray = field(init=False, repr=False, compare=False)
    weights: list = field(init=False, repr=False, compare=False)
    biases: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        if self.tau < 0:
            raise ConfigError(f"tau must be >= 0, got {self.tau}")
        if self.action_kind not in ("continuous", "discrete"):
            raise ConfigError(f"unknown action_kind {self.action_kind!r}")
        dims = self.members[0].layer_dims
        for i, m in enumerate(self.members):
            if m.layer_dims != dims:
                raise DimensionMismatchError(
                    f"member {i} layer_dims {m.layer_dims} != member 0 {dims}"
                )
            if m.output_activation != self.members[0].output_activation:
                raise DimensionMismatchError("members disagree on output activation")
        if self.obs_mean is None:
            self.obs_mean = np.zeros(dims[0])
            self.obs_std = np.ones(dims[0])
        self.params, self.weights, self.biases = nn.stacked_buffer(dims, len(self.members))
        for i, m in enumerate(self.members):
            for w, b, mw, mb in zip(self.weights, self.biases, m.weights, m.biases):
                w[i], b[i] = mw, mb
        self.members = [
            replace(
                m,
                layer_dims=list(dims),
                weights=[w[i] for w in self.weights],
                biases=[b[i] for b in self.biases],
            )
            for i, m in enumerate(self.members)
        ]

    @property
    def n_members(self) -> int:
        return len(self.members)

    @property
    def obs_dim(self) -> int:
        return self.members[0].obs_dim

    @property
    def action_dim(self) -> int:
        return self.members[0].action_dim

    def normalize(self, s):
        return (np.asarray(s, dtype=np.float64) - self.obs_mean) / self.obs_std

    def member_traces(self, s) -> list[nn.ForwardTrace]:
        """Per-member forward traces (the reference path of the loss oracles)."""
        z = self.normalize(s)
        return [nn.forward(m, z) for m in self.members]

    def predict_members(self, s) -> np.ndarray:
        """Raw member outputs: (N, action_dim) for one state, (E, N,
        action_dim) for a batch of E states. Discrete heads yield probability
        vectors (no argmax, no clipping).

        Every (state, member) pair is its own (1, in) @ (in, out) product, so
        a batch row is bit-identical to the single-state call (a (E, in)
        product rounds differently).
        """
        x = self.normalize(s)
        weights = [w[None] for w in self.weights]  # (1, N, in, out)
        bias_rows = [b[:, None, :] for b in self.biases]
        head = self.members[0].output_activation
        out = nn.stacked_forward(weights, bias_rows, x[..., None, None, :], head)[1]
        return out[..., 0, :] if x.ndim > 1 else out[0, :, 0]


def _swarm_scale(ensemble: Ensemble) -> float:
    """1 for the raw pairwise sum, 1/(K * pairs) in normalized mode."""
    n = ensemble.n_members
    pairs = ensemble.members[0].n_hidden_layers * (n * (n - 1)) // 2
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


def _swarm_term(traces) -> float:
    """Raw pairwise squared hidden-activation differences, hidden layers only."""
    n = len(traces)
    widths = [tuple(h.shape for h in t.hiddens) for t in traces]
    if any(w != widths[0] for w in widths):
        raise DimensionMismatchError("members have heterogeneous hidden widths")
    total = 0.0
    for k in range(len(traces[0].hiddens)):
        for i in range(n):
            for j in range(i + 1, n):
                d = traces[i].hiddens[k] - traces[j].hiddens[k]
                total += float(np.sum(d * d))
    return total


def standard_loss(ensemble: Ensemble, s, a) -> LossBreakdown:
    """Plain BC-ensemble loss for one sample: sum_i ||pi_i(s) - a||^2."""
    s, a = _check_sample(ensemble, s, a)
    outputs = [t.output for t in ensemble.member_traces(s)]
    bc = _bc_term(outputs, a)
    return LossBreakdown(bc_term=bc, swarm_term=0.0, total=bc)


def swarm_loss(ensemble: Ensemble, s, a) -> LossBreakdown:
    """Full training loss for one sample; reduces bit-exactly to
    ``standard_loss`` when tau = 0."""
    s, a = _check_sample(ensemble, s, a)
    traces = ensemble.member_traces(s)
    bc = _bc_term([t.output for t in traces], a)
    swarm = _swarm_term(traces) * _swarm_scale(ensemble)
    return LossBreakdown(bc_term=bc, swarm_term=swarm, total=bc + ensemble.tau * swarm)


def deployed_action(ensemble: Ensemble, outputs):
    """The action for member outputs of shape (..., N, action_dim): the
    componentwise member mean clipped to the env bounds for continuous
    heads, the argmax of the mean probability vector for discrete."""
    # outputs.mean(axis=-2) and np.clip, bit for bit, minus their Python overhead
    mean = np.add.reduce(outputs, axis=-2) / outputs.shape[-2]
    if ensemble.action_kind == "discrete":
        return mean.argmax(axis=-1)
    if ensemble.action_low is not None:
        mean = np.minimum(np.maximum(mean, ensemble.action_low), ensemble.action_high)
    return mean


def ensemble_action(ensemble: Ensemble, s):
    """The deployed action for one state (an int for discrete heads)."""
    action = deployed_action(ensemble, ensemble.predict_members(s))
    return int(action) if ensemble.action_kind == "discrete" else action


def _kernel(ensemble: Ensemble, n_batch: int, dweights, dbiases):
    """The training step for batches of ``n_batch`` rows, over buffers allocated
    once: ``step(x, actions, bc_sums, swarm_sums)`` on normalized states writes
    each member's summed squared error into ``bc_sums``, each hidden layer's
    sum_i ||h_i - h_mean||^2 into ``swarm_sums`` (untouched at N = 1, where it
    is 0) and the gradient of the mean loss into ``dweights``/``dbiases``."""
    n = ensemble.n_members
    head = ensemble.members[0].output_activation
    bias_rows = [b[:, None, :] for b in ensemble.biases]
    acts = [np.empty((n, n_batch, width)) for width in ensemble.members[0].layer_dims[1:]]
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
                d *= n
                d *= coef
        np.divide(np.multiply(err, 2.0, out=err), n_batch, out=err)
        nn.stacked_backward(ensemble.weights, x, hiddens, output, err, seeds,
                            dweights, dbiases, head, scratch)

    return step


def _breakdown(ensemble: Ensemble, bc_sums, swarm_sums, n_batch: int) -> LossBreakdown:
    """The mean LossBreakdown of a batch from the sums ``_kernel`` wrote."""
    bc = sum(bc_sums.tolist()) / n_batch  # as swarm_loss
    swarm = ensemble.n_members * sum(swarm_sums) * _swarm_scale(ensemble) / n_batch
    total = bc + ensemble.tau * swarm
    return LossBreakdown(bc_term=float(bc), swarm_term=float(swarm), total=float(total))


def _batch(ensemble: Ensemble, states, actions):
    """One run of the kernel on a 2-D batch: ``(LossBreakdown, flat gradient,
    dweights, dbiases)``, the gradient laid out like ``ensemble.params``."""
    grad, dweights, dbiases = nn.stacked_buffer(ensemble.members[0].layer_dims, ensemble.n_members)
    sums = np.zeros(ensemble.n_members), np.zeros(ensemble.members[0].n_hidden_layers)
    _kernel(ensemble, len(states), dweights, dbiases)(ensemble.normalize(states), actions, *sums)
    return _breakdown(ensemble, *sums, len(states)), grad, dweights, dbiases


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


def evaluate_loss(ensemble: Ensemble, states, actions) -> LossBreakdown:
    """Mean per-sample LossBreakdown over a set of samples (no gradients)."""
    breakdown, _ = batch_loss_and_grads(ensemble, states, actions)
    return breakdown


@dataclass
class TrainConfig:
    epochs: int = 400
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    hidden_dims: tuple = (16, 16)
    patience: int = 50
    min_rel_improvement: float = 1e-4
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
        if not 0 <= self.min_rel_improvement < math.inf:
            raise ConfigError(
                f"min_rel_improvement must be in [0, inf), got {self.min_rel_improvement}")


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
    if tau < 0:
        raise ConfigError(f"tau must be >= 0, got {tau}")

    discrete = dataset.meta.action_kind == "discrete"
    layer_dims = [dataset.meta.obs_dim, *config.hidden_dims, dataset.meta.action_dim]
    streams = np.random.SeedSequence(seed).spawn(n_members + 1)
    members = [
        nn.init_policy(
            layer_dims,
            np.random.default_rng(streams[i]),
            output_activation="softmax" if discrete else "identity",
        )
        for i in range(n_members)
    ]
    shuffle_rng = np.random.default_rng(streams[n_members])

    low = high = None
    if not discrete:
        from .envs import ENV_IDS, env_spec

        if dataset.meta.env in ENV_IDS:
            spec = env_spec(dataset.meta.env)
            low, high = spec.action_low, spec.action_high

    ens = Ensemble(
        members=members,
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
    opt = nn.adam_init(
        [ens.params],
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
    )

    n_samples = len(dataset)
    history: list[LossBreakdown] = []
    best_total = np.inf
    best_epoch = -1
    last_finite = ens.params.copy()

    # per minibatch of an epoch: its rows, and its loss sums until the epoch ends
    batches = [slice(start, min(start + config.batch_size, n_samples))
               for start in range(0, n_samples, config.batch_size)]
    sizes = [rows.stop - rows.start for rows in batches]
    steps = {size: _kernel(ens, size, dweights, dbiases) for size in set(sizes)}
    bc_sums = np.zeros((len(batches), n_members))
    swarm_sums = np.zeros((len(batches), len(config.hidden_dims)))
    xs = ens.normalize(dataset.states)  # row by row, as each minibatch alone

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_samples)
        x_epoch, a_epoch = xs[order], dataset.actions[order]
        for i, (rows, size) in enumerate(zip(batches, sizes)):
            steps[size](x_epoch[rows], a_epoch[rows], bc_sums[i], swarm_sums[i])
            nn.adam_update([ens.params], [grad], opt)
        sum_bc = sum_swarm = sum_total = 0.0
        for size, bc, swarm in zip(sizes, bc_sums, swarm_sums):
            breakdown = _breakdown(ens, bc, swarm, size)
            # checked after the epoch's steps: a non-finite batch leaves the
            # rest of the epoch non-finite, and the payload is the epoch's start
            if not math.isfinite(breakdown.total):
                payload = replace(ens, meta=dict(ens.meta))  # copies the buffer
                payload.params[:] = last_finite
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
            threshold = config.min_rel_improvement * max(1.0, abs(best_total))
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
    import json

    doc = {
        "format": "swarmbc-ensemble-v1",
        "n_members": ensemble.n_members,
        "tau": ensemble.tau,
        "action_kind": ensemble.action_kind,
        "normalize_swarm": ensemble.normalize_swarm,
        "layer_dims": list(ensemble.members[0].layer_dims),
        "hidden_activation": ensemble.members[0].hidden_activation,
        "output_activation": ensemble.members[0].output_activation,
        "obs_mean": ensemble.obs_mean.tolist(),
        "obs_std": ensemble.obs_std.tolist(),
        "action_low": None if ensemble.action_low is None else ensemble.action_low.tolist(),
        "action_high": None if ensemble.action_high is None else ensemble.action_high.tolist(),
        "meta": ensemble.meta,
        "members": [
            {
                "weights": [w.tolist() for w in m.weights],
                "biases": [b.tolist() for b in m.biases],
            }
            for m in ensemble.members
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_ensemble(path) -> Ensemble:
    import json

    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "swarmbc-ensemble-v1":
        raise ConfigError(f"{path}: not a swarmbc ensemble file")
    layer_dims = list(doc["layer_dims"])
    members = [
        nn.MlpPolicy(
            layer_dims=list(layer_dims),
            weights=[np.array(w, dtype=np.float64) for w in rec["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in rec["biases"]],
            hidden_activation=doc["hidden_activation"],
            output_activation=doc["output_activation"],
        )
        for rec in doc["members"]
    ]
    return Ensemble(
        members=members,
        tau=float(doc["tau"]),
        action_kind=doc["action_kind"],
        obs_mean=np.array(doc["obs_mean"], dtype=np.float64),
        obs_std=np.array(doc["obs_std"], dtype=np.float64),
        action_low=None if doc["action_low"] is None else np.array(doc["action_low"]),
        action_high=None if doc["action_high"] is None else np.array(doc["action_high"]),
        normalize_swarm=bool(doc.get("normalize_swarm", False)),
        meta=doc.get("meta", {}),
    )


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
    members = [
        nn.init_policy(
            dims,
            np.random.default_rng(rng.integers(2**63)),
            output_activation="softmax" if discrete else "identity",
        )
        for _ in range(n_members)
    ]
    return Ensemble(
        members=members,
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
            ens.params[:] = flat[0]  # the members are views of this buffer
            return swarm_loss(ens, s, a).total

        (fd,) = nn.finite_diff_grad(loss_fn, [ens.params], step=step)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-7)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    return worst
