"""The allocating training loop that ``ensemble.train`` replaced, kept as the
bit-exact oracle of its in-place kernel.

Per minibatch it normalizes the batch, runs a stacked forward and backward
that allocate every intermediate, reduces the loss terms to Python floats,
checks the step's loss for finiteness and takes one Adam step (through
``nn.adam_update``, so a test that patches it patches both loops).
"""

from dataclasses import replace

import numpy as np
from reference import ensemble_of, init_policy

from swarmbc import nn
from swarmbc.ensemble import LossBreakdown, TrainConfig, _swarm_scale
from swarmbc.errors import TrainingDivergedError


def stacked_forward(weights, biases, x, output_activation):
    hiddens = []
    a = x
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(np.matmul(a, w) + b[:, None, :])
        hiddens.append(a)
    z = np.matmul(a, weights[-1]) + biases[-1][:, None, :]
    if output_activation == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return hiddens, e / e.sum(axis=-1, keepdims=True)
    return hiddens, z


def stacked_backward(weights, x, hiddens, output, output_grad, hidden_grads,
                     dweights, dbiases, output_activation):
    if output_activation == "softmax":
        dz = output * (output_grad - (output_grad * output).sum(axis=-1, keepdims=True))
    else:
        dz = output_grad
    acts = [x] + hiddens
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].swapaxes(-1, -2), dz, out=dweights[k])
        dz.sum(axis=1, out=dbiases[k])
        if k == 0:
            break
        da = np.matmul(dz, weights[k].swapaxes(-1, -2))
        if hidden_grads is not None:
            da += hidden_grads[k - 1]
        h = hiddens[k - 1]
        dz = da * (1.0 - h * h)


def loss_and_grads(ensemble, states, actions, dweights, dbiases) -> LossBreakdown:
    """Mean per-sample loss over a 2-D batch, gradients into the views."""
    n_batch = len(states)
    n = ensemble.n_members
    head = ensemble.head
    x = ensemble.normalize(states)
    hiddens, output = stacked_forward(ensemble.weights, ensemble.biases, x, head)
    err = output - actions
    bc = 0.0
    for member_sum in np.square(err).reshape(n, -1).sum(axis=1).tolist():  # left to right
        bc += member_sum
    bc /= n_batch

    scale = _swarm_scale(ensemble)
    centred = [h - h.sum(axis=0) / n for h in hiddens]
    swarm = n * sum(np.sum(d * d) for d in centred) * scale / n_batch
    total = bc + ensemble.tau * swarm

    hidden_grads = None
    if ensemble.tau > 0 and n > 1:
        coef = 2.0 * ensemble.tau * scale / n_batch
        hidden_grads = [coef * (n * d) for d in centred]
    stacked_backward(ensemble.weights, x, hiddens, output, 2.0 * err / n_batch,
                     hidden_grads, dweights, dbiases, head)
    return LossBreakdown(bc_term=float(bc), swarm_term=float(swarm), total=float(total))


def train(dataset, n_members, tau, config=None, seed=0):
    """``ensemble.train`` as a per-step loop over ``loss_and_grads``."""
    config = config or TrainConfig()
    discrete = dataset.meta.action_kind == "discrete"
    layer_dims = [dataset.meta.obs_dim, *config.hidden_dims, dataset.meta.action_dim]
    streams = np.random.SeedSequence(seed).spawn(n_members + 1)
    members = [
        init_policy(layer_dims, np.random.default_rng(streams[i]),
                    output_activation="softmax" if discrete else "identity")
        for i in range(n_members)
    ]
    shuffle_rng = np.random.default_rng(streams[n_members])
    ens = ensemble_of(members, tau=tau, action_kind=dataset.meta.action_kind,
                      obs_mean=dataset.obs_mean.copy(), obs_std=dataset.obs_std.copy(),
                      normalize_swarm=config.normalize_swarm)
    grad, dweights, dbiases = nn.stacked_buffer(layer_dims, n_members)
    opt = nn.adam_init([ens.params], lr=config.learning_rate)

    n_samples = len(dataset)
    history = []
    best_total, best_epoch = np.inf, -1
    last_finite = ens.params.copy()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_samples)
        sum_bc = sum_swarm = sum_total = 0.0
        for start in range(0, n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            breakdown = loss_and_grads(ens, dataset.states[idx], dataset.actions[idx],
                                       dweights, dbiases)
            if not np.isfinite(breakdown.total):
                payload = replace(ens, params=last_finite, meta=dict(ens.meta))
                raise TrainingDivergedError(f"non-finite loss in epoch {epoch}",
                                            epoch=epoch, last_finite_ensemble=payload)
            nn.adam_update([ens.params], [grad], opt)
            w = len(idx)
            sum_bc += breakdown.bc_term * w
            sum_swarm += breakdown.swarm_term * w
            sum_total += breakdown.total * w
        epoch_loss = LossBreakdown(bc_term=sum_bc / n_samples,
                                   swarm_term=sum_swarm / n_samples,
                                   total=sum_total / n_samples)
        history.append(epoch_loss)
        last_finite[:] = ens.params

        if np.isfinite(best_total):
            threshold = config.min_improvement * max(1.0, abs(best_total))
            improved = epoch_loss.total < best_total - threshold
        else:
            improved = True
        if improved:
            best_total, best_epoch = epoch_loss.total, epoch
        elif epoch - best_epoch >= config.patience:
            break
    return ens, history
