import math
import re
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import reference
import train_oracle
from reference import ensemble_of, init_policy

from swarmbc import nn
from swarmbc.data import Dataset, DatasetMeta
from swarmbc.ensemble import (
    METHOD_RULE,
    METHODS,
    Ensemble,
    TrainConfig,
    _breakdown,
    batch_loss_and_grads,
    check_method_params,
    gradient_max_rel_error,
    load_ensemble,
    method_of,
    random_tiny_ensemble,
    rollout_step,
    save_ensemble,
    standard_loss,
    swarm_loss,
    train,
)
from swarmbc.envs import generate_dataset, make_env
from swarmbc.errors import ConfigError, DimensionMismatchError, TrainingDivergedError


def fixed_output_policy(obs_dim, outputs):
    """Policy that ignores its input: zero weights, output bias = outputs."""
    outputs = np.asarray(outputs, dtype=np.float64)
    dims = [obs_dim, 2, len(outputs)]
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(2), outputs.copy()]
    return nn.MlpPolicy(dims, weights, biases)


def deployed(ens, s):
    """The action ``rollout_step`` deploys on the one state ``s``, which must
    equal the reference rule on the members' outputs."""
    outputs, actions = rollout_step(ens, 1)(np.asarray(s, dtype=np.float64)[None])
    assert np.array_equal(actions, reference.deployed_action(ens, outputs))
    return actions[0]


@pytest.mark.parametrize("tau, n, method", [
    (0.0, 1, "bc"), (-0.0, 1, "bc"), (0.0, 2, "ensemble"), (0.0, 8, "ensemble"),
    (0.25, 2, "swarm"), (1e-300, 4, "swarm"), (7.0, 8, "swarm"),
])
def test_tau_and_n_name_one_method_and_check_method_params_takes_only_it(tau, n, method):
    assert method_of(tau, n) == method
    check_method_params(method, tau, n)
    for other in set(METHODS) - {method}:
        with pytest.raises(ConfigError, match=re.escape(METHOD_RULE)):
            check_method_params(other, tau, n)


@pytest.mark.parametrize("tau, n, text", [
    (0.5, 1, f"tau = 0.5 with N = 1 is no method: {METHOD_RULE}"),
    (0.25, 0, "n_members must be >= 1, got 0"),
    (float("nan"), 4, "tau must be in [0, inf), got nan"),
    (-0.5, 4, "tau must be in [0, inf), got -0.5"),
])
def test_method_of_refuses_what_is_no_method(tau, n, text):
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        method_of(tau, n)


def test_standard_loss_zero_when_members_match_target():
    members = [fixed_output_policy(3, [0.5, -0.2]) for _ in range(3)]
    ens = ensemble_of(members, tau=0.0, action_kind="continuous")
    out = standard_loss(ens, np.zeros(3), np.array([0.5, -0.2]))
    assert out.bc_term == 0.0
    assert out.total == 0.0


def test_standard_loss_hand_value():
    # outputs 0.5 and -0.5 against target 0: 0.25 + 0.25
    members = [fixed_output_policy(2, [0.5]), fixed_output_policy(2, [-0.5])]
    ens = ensemble_of(members, tau=0.0, action_kind="continuous")
    out = standard_loss(ens, np.zeros(2), np.zeros(1))
    assert out.total == pytest.approx(0.5)


def test_standard_loss_single_member_is_plain_bc():
    rng = np.random.default_rng(0)
    member = init_policy([2, 3, 2], rng)
    ens = ensemble_of([member], tau=0.0, action_kind="continuous")
    s, a = rng.normal(size=2), rng.normal(size=2)
    out = standard_loss(ens, s, a)
    direct = float(np.sum((nn.forward(member, s).output - a) ** 2))
    assert out.total == pytest.approx(direct, rel=1e-15)


def test_swarm_loss_tau_zero_equals_standard_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(100):
        ens = random_tiny_ensemble(rng, tau=0.0)
        s = rng.normal(size=ens.obs_dim)
        a = rng.normal(size=ens.action_dim)
        assert swarm_loss(ens, s, a).total == standard_loss(ens, s, a).total


def test_swarm_loss_identical_members_have_zero_swarm_term():
    rng = np.random.default_rng(2)
    member = init_policy([3, 4, 4, 2], rng)
    ens = ensemble_of(
        [member] * 4,
        tau=0.7,
        action_kind="continuous",
    )
    out = swarm_loss(ens, rng.normal(size=3), rng.normal(size=2))
    assert out.swarm_term == 0.0
    assert out.total == out.bc_term


def test_swarm_loss_hand_pairwise_value():
    # N=2, K=1 hidden layer with h1=(1,0), h2=(0,1): pairwise sum = 2
    def policy_with_hidden(hidden_bias):
        dims = [1, 2, 1]
        w = [np.zeros((1, 2)), np.zeros((2, 1))]
        b = [np.array(hidden_bias, dtype=np.float64), np.zeros(1)]
        return nn.MlpPolicy(dims, w, b)

    h1 = np.arctanh(np.array([0.9, 0.0]))
    h2 = np.arctanh(np.array([0.0, 0.9]))
    ens = ensemble_of(
        [policy_with_hidden(h1), policy_with_hidden(h2)],
        tau=0.25,
        action_kind="continuous",
    )
    out = swarm_loss(ens, np.zeros(1), np.zeros(1))
    expected_swarm = 2.0 * 0.81  # ||(0.9,0) - (0,0.9)||^2
    assert out.swarm_term == pytest.approx(expected_swarm, rel=1e-12)
    assert out.total == pytest.approx(out.bc_term + 0.25 * expected_swarm, rel=1e-12)


def test_loss_non_negative_terms():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ens = random_tiny_ensemble(rng, tau=float(rng.uniform(0, 2)))
        s = rng.normal(size=ens.obs_dim)
        a = rng.normal(size=ens.action_dim)
        out = swarm_loss(ens, s, a)
        assert out.bc_term >= 0.0
        assert out.swarm_term >= 0.0
        assert out.total == pytest.approx(
            out.bc_term + ens.tau * out.swarm_term, rel=1e-12
        )


def test_loss_permutation_equivariance():
    rng = np.random.default_rng(5)
    ens = random_tiny_ensemble(rng, tau=0.3, n_members=3, discrete=False)
    s = rng.normal(size=ens.obs_dim)
    a = rng.normal(size=ens.action_dim)
    base = swarm_loss(ens, s, a)
    shuffled = ensemble_of(
        [ens.members[2], ens.members[0], ens.members[1]],
        tau=ens.tau,
        action_kind=ens.action_kind,
    )
    out = swarm_loss(shuffled, s, a)
    assert out.total == pytest.approx(base.total, rel=1e-12)
    assert np.allclose(deployed(shuffled, s), deployed(ens, s))


def test_deployed_action_single_member_and_mean():
    m1 = fixed_output_policy(2, [1.0, 0.0])
    m2 = fixed_output_policy(2, [0.0, 1.0])
    solo = ensemble_of([m1], tau=0.0, action_kind="continuous")
    assert np.allclose(deployed(solo, np.zeros(2)), [1.0, 0.0])
    duo = ensemble_of([m1, m2], tau=0.0, action_kind="continuous")
    assert np.allclose(deployed(duo, np.zeros(2)), [0.5, 0.5])


def test_deployed_action_clips_to_bounds():
    m = fixed_output_policy(2, [3.0, -7.0])
    ens = ensemble_of(
        [m],
        tau=0.0,
        action_kind="continuous",
        action_low=np.array([-1.0, -1.0]),
        action_high=np.array([1.0, 1.0]),
    )
    assert np.allclose(deployed(ens, np.zeros(2)), [1.0, -1.0])


def test_deployed_action_discrete_argmax_of_mean_probs():
    rng = np.random.default_rng(6)
    ens = random_tiny_ensemble(rng, tau=0.0, n_members=3, discrete=True)
    s = rng.normal(size=ens.obs_dim)
    probs = ens.predict_members(s)
    assert deployed(ens, s) == int(np.argmax(probs.mean(axis=0)))


def test_gradient_check_small():
    assert gradient_max_rel_error(n_trials=20, seed=3) < 1e-4


def test_joint_gradient_coupling():
    # with tau > 0 the gradient of member 1's parameters depends on member
    # 2's activations; with tau = 0 it does not
    rng = np.random.default_rng(7)
    m1 = init_policy([2, 3, 1], np.random.default_rng(71))
    m2a = init_policy([2, 3, 1], np.random.default_rng(72))
    m2b = init_policy([2, 3, 1], np.random.default_rng(73))
    s = rng.normal(size=(1, 2))
    a = rng.normal(size=(1, 1))

    def grads_of_member1(other, tau):
        ens = ensemble_of([m1, other], tau=tau, action_kind="continuous")
        _, grads = batch_loss_and_grads(ens, s, a)
        return grads[0]

    with_a = grads_of_member1(m2a, 0.5)
    with_b = grads_of_member1(m2b, 0.5)
    assert any(not np.array_equal(x, y) for x, y in zip(with_a, with_b))

    decoupled_a = grads_of_member1(m2a, 0.0)
    decoupled_b = grads_of_member1(m2b, 0.0)
    for x, y in zip(decoupled_a, decoupled_b):
        assert np.array_equal(x, y)


def _reference_batch(ens, states, actions):
    """The per-member reference for ``batch_loss_and_grads``: one
    ``reference.forward`` and ``reference.backward_policy`` per member, hidden
    seeds in the raw pairwise form 2 (N h_i - sum_j h_j), bc summed member by
    member."""
    n, n_batch = ens.n_members, len(states)
    traces = [reference.forward(m, ens.normalize(states)) for m in ens.members]
    bc = sum(np.sum((t.output - actions) ** 2) for t in traces) / n_batch
    scale = 1.0
    if ens.normalize_swarm and n > 1:
        scale = 1.0 / (ens.members[0].n_hidden_layers * n * (n - 1) // 2)
    coef = 2.0 * ens.tau * scale / n_batch
    grads = []
    for t, m in zip(traces, ens.members):
        hidden_grads = None
        if ens.tau > 0 and n > 1:
            hidden_grads = [
                coef * (n * t.hiddens[k] - np.stack([u.hiddens[k] for u in traces]).sum(axis=0))
                for k in range(m.n_hidden_layers)
            ]
        dw, db = reference.backward_policy(m, t, 2.0 * (t.output - actions) / n_batch,
                                           hidden_grads)
        grads.append(nn.policy_gradients(dw, db))
    return bc, grads


@pytest.mark.parametrize("normalize_swarm", [False, True])
@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("n_members", [1, 2, 3, 5, 8])
def test_stacked_kernel_matches_per_member_reference(n_members, discrete, normalize_swarm):
    rng = np.random.default_rng(100 * n_members + 10 * discrete + normalize_swarm)
    for tau in (0.0, 0.7):
        for _ in range(5):
            ens = random_tiny_ensemble(rng, tau, n_members=n_members, discrete=discrete)
            ens = replace(ens, normalize_swarm=normalize_swarm)
            n_batch = int(rng.integers(1, 8))
            states = rng.normal(size=(n_batch, ens.obs_dim))
            actions = rng.normal(size=(n_batch, ens.action_dim))

            loss, grads = batch_loss_and_grads(ens, states, actions)
            per_sample = [swarm_loss(ens, s, a) for s, a in zip(states, actions)]
            for term in ("bc_term", "swarm_term", "total"):
                want = np.mean([getattr(p, term) for p in per_sample])
                assert getattr(loss, term) == pytest.approx(want, rel=1e-12, abs=1e-12)
            plain = np.mean([standard_loss(ens, s, a).total for s, a in zip(states, actions)])
            assert loss.bc_term == pytest.approx(plain, rel=1e-12, abs=1e-12)

            ref_bc, ref_grads = _reference_batch(ens, states, actions)
            assert loss.bc_term == ref_bc
            # the centred seed N (h_i - h_mean) rounds exactly like the raw
            # N h_i - sum_j h_j when N is a power of two
            exact = n_members in (1, 2, 4, 8)
            for got_member, want_member in zip(grads, ref_grads):
                for got, want in zip(got_member, want_member):
                    if exact:
                        assert np.array_equal(got, want)
                    else:
                        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_predict_members_matches_per_member_forward():
    rng = np.random.default_rng(12)
    for discrete in (False, True):
        ens = random_tiny_ensemble(rng, 0.0, n_members=4, discrete=discrete)
        s = rng.normal(size=ens.obs_dim)
        want = np.stack([reference.forward(m, ens.normalize(s)).output for m in ens.members])
        assert np.array_equal(ens.predict_members(s), want)


def test_members_are_views_into_the_parameter_buffer():
    rng = np.random.default_rng(13)
    ens = random_tiny_ensemble(rng, 0.5, n_members=3)
    assert ens.params.size == sum(
        w.size + b.size for m in ens.members for w, b in zip(m.weights, m.biases)
    )
    for m in ens.members:
        for a in m.weights + m.biases:
            assert np.shares_memory(a, ens.params)
    ens.members[1].biases[0][0] = 42.0
    assert ens.biases[0][1, 0] == 42.0


def _toy_dataset(n=60, seed=0, obs_dim=3, action_dim=2, discrete=False):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, obs_dim))
    w = rng.normal(size=(obs_dim, action_dim))
    actions = np.tanh(states @ w)
    if discrete:
        actions = np.eye(action_dim)[np.argmax(actions, axis=1)]
    meta = DatasetMeta(
        env="toy", episodes=1, seed=seed, obs_dim=obs_dim,
        action_dim=action_dim, action_kind="discrete" if discrete else "continuous",
    )
    return Dataset(states=states, actions=actions, meta=meta)


def _reference_train(dataset, n_members, tau, cfg, seed):
    """``train`` rebuilt from the single-policy reference primitives: per
    minibatch, ``forward`` -> ``backward_policy`` -> ``adam_step`` per member.
    Returns the final members and the per-epoch mean total loss."""
    head = "softmax" if dataset.meta.action_kind == "discrete" else "identity"
    dims = [dataset.meta.obs_dim, *cfg.hidden_dims, dataset.meta.action_dim]
    streams = np.random.SeedSequence(seed).spawn(n_members + 1)
    members = [
        init_policy(dims, np.random.default_rng(streams[i]), output_activation=head)
        for i in range(n_members)
    ]
    shuffle_rng = np.random.default_rng(streams[n_members])
    opts = [nn.adam_init(nn.policy_parameters(m), lr=cfg.learning_rate) for m in members]
    history = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(dataset))
        epoch_total = 0.0
        for start in range(0, len(dataset), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = (dataset.states[idx] - dataset.obs_mean) / dataset.obs_std
            a = dataset.actions[idx]
            traces = [reference.forward(m, x) for m in members]
            sums = [np.stack([t.hiddens[k] for t in traces]).sum(axis=0)
                    for k in range(len(cfg.hidden_dims))]
            bc = sum(np.sum((t.output - a) ** 2) for t in traces)
            swarm = sum(
                np.sum((traces[i].hiddens[k] - traces[j].hiddens[k]) ** 2)
                for k in range(len(cfg.hidden_dims))
                for i in range(n_members) for j in range(i + 1, n_members)
            )
            epoch_total += bc + tau * swarm
            coef = 2.0 * tau / len(idx)
            for i, t in enumerate(traces):
                hidden_grads = None
                if tau > 0 and n_members > 1:
                    hidden_grads = [coef * (n_members * h - hs) for h, hs in zip(t.hiddens, sums)]
                dw, db = reference.backward_policy(
                    members[i], t, 2.0 * (t.output - a) / len(idx), hidden_grads
                )
                params, opts[i] = reference.adam_step(
                    nn.policy_parameters(members[i]), nn.policy_gradients(dw, db), opts[i]
                )
                members[i] = replace(members[i], weights=params[0::2], biases=params[1::2])
        history.append(epoch_total / len(dataset))
    return members, history


def test_train_validates_inputs():
    dataset = _toy_dataset()
    with pytest.raises(ConfigError):
        train(dataset, 0, 0.0)
    with pytest.raises(ConfigError):
        train(dataset, 2, -0.1)


def test_train_single_member_tau_zero_is_plain_bc():
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=5, hidden_dims=(8,), batch_size=16)
    ens, history = train(dataset, 1, 0.0, cfg, seed=4)
    assert ens.n_members == 1
    assert len(history) == 5
    assert all(h.swarm_term == 0.0 for h in history)
    assert history[-1].total < history[0].total


def test_train_deterministic_same_seed():
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=8, hidden_dims=(6,), batch_size=32)
    e1, h1 = train(dataset, 3, 0.25, cfg, seed=9)
    e2, h2 = train(dataset, 3, 0.25, cfg, seed=9)
    for a, b in zip(e1.members, e2.members):
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)
    assert [h.total for h in h1] == [h.total for h in h2]


def test_train_different_seed_differs():
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=3, hidden_dims=(6,), batch_size=32)
    e1, _ = train(dataset, 2, 0.0, cfg, seed=1)
    e2, _ = train(dataset, 2, 0.0, cfg, seed=2)
    assert not np.array_equal(e1.members[0].weights[0], e2.members[0].weights[0])


def test_train_members_start_distinct():
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=1, hidden_dims=(6,), batch_size=64)
    ens, _ = train(dataset, 4, 0.0, cfg, seed=3)
    w0 = [m.weights[0] for m in ens.members]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(w0[i], w0[j])


def test_train_normalizes_states_from_dataset_stats():
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=2, hidden_dims=(6,), batch_size=32)
    ens, _ = train(dataset, 2, 0.0, cfg, seed=0)
    assert np.array_equal(ens.obs_mean, dataset.obs_mean)
    assert np.array_equal(ens.obs_std, dataset.obs_std)


def test_train_swarm_term_reduced_vs_tau_zero_at_matched_epochs():
    # the regularizer's direct mechanism: training with tau > 0 ends with a
    # much smaller pairwise hidden term than tau = 0 training, measured on
    # the same data at the same epoch count (mean over 5 seeds)
    env = make_env("point_reach")
    cfg = TrainConfig(epochs=40, patience=40, hidden_dims=(8, 8))
    with_reg, without_reg = [], []
    for seed in range(5):
        dataset = generate_dataset(env, 1, seed=500 + seed)
        swarm_ens, swarm_hist = train(dataset, 4, 0.25, cfg, seed=seed)
        plain_ens, plain_hist = train(dataset, 4, 0.0, cfg, seed=seed)
        assert len(swarm_hist) == len(plain_hist) == 40
        with_reg.append(swarm_hist[-1].swarm_term)
        without_reg.append(plain_hist[-1].swarm_term)
    assert np.mean(with_reg) < np.mean(without_reg)


def test_train_early_stops_on_plateau():
    dataset = _toy_dataset(n=20)
    cfg = TrainConfig(
        epochs=4000, patience=10, hidden_dims=(8,), batch_size=20,
        min_improvement=0.05,
    )
    _, history = train(dataset, 1, 0.0, cfg, seed=0)
    assert len(history) < 4000


def test_batch_loss_matches_mean_of_per_sample_losses():
    rng = np.random.default_rng(8)
    ens = random_tiny_ensemble(rng, tau=0.4, n_members=2, discrete=False)
    states = rng.normal(size=(6, ens.obs_dim))
    actions = rng.normal(size=(6, ens.action_dim))
    batch = batch_loss_and_grads(ens, states, actions)[0]
    per_sample = [swarm_loss(ens, s, a).total for s, a in zip(states, actions)]
    assert batch.total == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_normalized_swarm_mode_scales_pairwise_sum():
    rng = np.random.default_rng(9)
    members = [init_policy([2, 3, 3, 1], np.random.default_rng(i)) for i in range(4)]
    raw = ensemble_of(members, tau=0.5, action_kind="continuous")
    norm = ensemble_of(members, tau=0.5, action_kind="continuous", normalize_swarm=True)
    s, a = rng.normal(size=2), rng.normal(size=1)
    out_raw = swarm_loss(raw, s, a)
    out_norm = swarm_loss(norm, s, a)
    pairs = 2 * (4 * 3) // 2  # K * N(N-1)/2
    assert out_norm.swarm_term == pytest.approx(out_raw.swarm_term / pairs, rel=1e-12)


def test_serialization_roundtrip_lossless(tmp_path):
    env = make_env("cart_balance")
    dataset = generate_dataset(env, 1, seed=1)
    cfg = TrainConfig(epochs=3, hidden_dims=(6, 6))
    ens, _ = train(dataset, 3, 0.25, cfg, seed=5)
    path = tmp_path / "model.json"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert loaded.tau == ens.tau
    assert loaded.n_members == ens.n_members
    assert loaded.action_kind == ens.action_kind
    assert np.array_equal(loaded.obs_mean, ens.obs_mean)
    assert np.array_equal(loaded.obs_std, ens.obs_std)
    for a, b in zip(loaded.members, ens.members):
        assert a.layer_dims == b.layer_dims
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)
    # identical behavior after the round trip
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = rng.normal(size=ens.obs_dim)
        assert np.array_equal(loaded.predict_members(s), ens.predict_members(s))


@pytest.mark.parametrize("size", [0, 16, 17, 31])
def test_ensemble_rejects_params_that_do_not_fit_layer_dims(size):
    # one member of layer_dims [2, 3, 1] has 2*3 + 3 + 3*1 + 1 = 13 parameters
    Ensemble(layer_dims=[2, 3, 1], params=np.zeros(26), tau=0.0, action_kind="continuous")
    with pytest.raises(DimensionMismatchError):
        Ensemble(layer_dims=[2, 3, 1], params=np.zeros(size), tau=0.0,
                 action_kind="continuous")


@pytest.mark.parametrize("tau", [-0.5, float("inf"), float("nan")])
def test_ensemble_and_train_reject_tau_outside_zero_to_inf(tau):
    with pytest.raises(ConfigError, match=r"tau must be in \[0, inf\)"):
        Ensemble(layer_dims=[2, 3, 1], params=np.zeros(13), tau=tau, action_kind="continuous")
    with pytest.raises(ConfigError, match=r"tau must be in \[0, inf\)"):
        train(_toy_dataset(), 2, tau, TrainConfig(epochs=1, hidden_dims=(3,)))


@pytest.mark.parametrize("field, value", [
    ("obs_mean", np.zeros(3)), ("obs_std", np.ones(1)), ("action_low", -np.ones(2)),
    ("action_high", np.ones(3)),
])
def test_ensemble_rejects_fields_that_disagree_with_layer_dims(field, value):
    # layer_dims [2, 3, 1]: obs_dim 2, action_dim 1
    fields = dict(obs_mean=np.zeros(2), obs_std=np.ones(2),
                  action_low=-np.ones(1), action_high=np.ones(1))
    Ensemble(layer_dims=[2, 3, 1], params=np.zeros(13), tau=0.0, action_kind="continuous",
             **fields)
    fields[field] = value
    with pytest.raises(DimensionMismatchError, match=field):
        Ensemble(layer_dims=[2, 3, 1], params=np.zeros(13), tau=0.0, action_kind="continuous",
                 **fields)


@pytest.mark.parametrize("field, index, value, message", [
    ("params", 12, np.nan, "params holds a non-finite"),
    ("obs_mean", 0, np.inf, "obs_mean holds a non-finite"),
    ("obs_std", 1, np.nan, "obs_std holds a non-finite"),
    ("action_low", 0, -np.inf, "action_low holds a non-finite"),
    ("action_high", 0, np.nan, "action_high holds a non-finite"),
    ("obs_std", 1, 0.0, "obs_std must be > 0"),
    ("obs_std", 0, -1.0, "obs_std must be > 0"),
    ("obs_std", 0, 0.99e-8, "obs_std must be > 0, at least 1e-08"),  # below data.STD_FLOOR
    ("action_low", 0, 2.0, "action_low .* exceeds action_high"),
])
def test_ensemble_rejects_non_finite_or_degenerate_numbers(field, index, value, message):
    fields = dict(params=np.zeros(13), obs_mean=np.zeros(2), obs_std=np.ones(2),
                  action_low=-np.ones(1), action_high=np.ones(1))
    Ensemble(layer_dims=[2, 3, 1], tau=0.0, action_kind="continuous", **fields)
    fields[field][index] = value
    with pytest.raises(ConfigError, match=message):
        Ensemble(layer_dims=[2, 3, 1], tau=0.0, action_kind="continuous", **fields)


def _fresh_members(ens, states):
    """``predict_members`` of a newly built Ensemble on a copy of ``ens``'s numbers."""
    fresh = Ensemble(layer_dims=list(ens.layer_dims), params=ens.params.copy(), tau=ens.tau,
                     action_kind=ens.action_kind, obs_mean=ens.obs_mean.copy(),
                     obs_std=ens.obs_std.copy())
    return fresh.predict_members(states)


def test_predict_members_views_follow_the_parameter_buffer(tmp_path):
    """The stacked views ``predict_members`` runs on are derived once; every way
    of changing or copying the buffer must still give what a fresh Ensemble gives."""
    dataset = generate_dataset(make_env("pendulum_swing"), 1, seed=2)
    states = dataset.states[:7]
    ens, _ = train(dataset, 3, 0.25, TrainConfig(epochs=2, hidden_dims=(5, 4)), seed=3)
    assert np.array_equal(ens.predict_members(states), _fresh_members(ens, states))

    before = ens.predict_members(states)
    ens.params[:] = np.random.default_rng(4).normal(size=ens.params.size)  # in place
    after = ens.predict_members(states)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _fresh_members(ens, states))
    assert np.array_equal(ens.predict_members(states[0]), after[0])

    copy = replace(ens, tau=0.0)
    copy.params *= 0.5
    assert np.array_equal(copy.predict_members(states), _fresh_members(copy, states))
    assert np.array_equal(ens.predict_members(states), after)  # the original is untouched

    save_ensemble(ens, tmp_path / "m.json")
    loaded = load_ensemble(tmp_path / "m.json")
    assert np.array_equal(loaded.predict_members(states), after)
    assert np.array_equal(loaded.predict_members(states), _fresh_members(loaded, states))


def test_replace_returns_an_independent_buffer():
    ens = random_tiny_ensemble(np.random.default_rng(14), 0.25, n_members=3)
    other = replace(ens, tau=0.0)
    assert not np.shares_memory(other.params, ens.params)
    assert np.array_equal(other.params, ens.params)
    before = ens.params.copy()
    other.params[:] = 1.0
    other.members[0].weights[0][0, 0] = 2.0
    assert np.array_equal(ens.params, before)


@pytest.mark.parametrize("env_id", ["point_reach", "pendulum_swing"])
def test_a_trained_ensemble_owns_its_action_bounds(env_id):
    spec = make_env(env_id).spec  # one EnvSpec per env class, shared by its instances
    low, high = spec.action_low.copy(), spec.action_high.copy()
    ens, _ = train(generate_dataset(make_env(env_id), 1, seed=0), 2, 0.25,
                   TrainConfig(epochs=1, hidden_dims=(3,)), seed=0)
    assert np.array_equal(ens.action_low, low) and np.array_equal(ens.action_high, high)
    ens.action_low[:] = 5.0
    ens.action_high[:] = 6.0
    assert np.array_equal(spec.action_low, low) and np.array_equal(spec.action_high, high)
    assert np.array_equal(make_env(env_id).spec.action_low, low)


@pytest.mark.parametrize("discrete", [False, True])
def test_train_matches_single_policy_reference_loop(discrete):
    dataset = _toy_dataset(n=50, discrete=discrete, action_dim=3)
    cfg = TrainConfig(epochs=6, hidden_dims=(8, 6), batch_size=16, learning_rate=1e-2)
    ens, history = train(dataset, 4, 0.25, cfg, seed=21)
    ref_members, ref_history = _reference_train(dataset, 4, 0.25, cfg, seed=21)
    for got, want in zip(ens.members, ref_members):
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
    assert len(history) == len(ref_history)
    for h, ref in zip(history, ref_history):
        assert h.total == pytest.approx(ref, rel=1e-12)


def test_train_divergence_payload_is_last_epoch_end_and_detached(monkeypatch):
    # three minibatches per epoch; after the first update of epoch 2 the live
    # buffer is poisoned, so the loss of that epoch's second batch is NaN
    dataset = _toy_dataset()
    cfg = TrainConfig(epochs=10, hidden_dims=(8,), batch_size=20)
    live = []
    adam_update = nn.adam_update

    def poisoning_update(params, grads, state):
        adam_update(params, grads, state)
        live.append(params[0])
        if len(live) == 7:
            params[0][:] = np.nan

    monkeypatch.setattr(nn, "adam_update", poisoning_update)
    with pytest.raises(TrainingDivergedError) as info:
        train(dataset, 2, 0.25, cfg, seed=1)
    monkeypatch.undo()
    assert info.value.epoch == 2
    payload = info.value.last_finite_ensemble

    expected, _ = train(dataset, 2, 0.25, replace(cfg, epochs=2), seed=1)
    assert np.array_equal(payload.params, expected.params)
    for got, want in zip(payload.members, expected.members):
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)

    snapshot = [a.copy() for m in payload.members for a in m.weights + m.biases]
    live[-1][:] = 7.0  # the live training buffer is written after the raise
    after = [a for m in payload.members for a in m.weights + m.biases]
    assert all(np.array_equal(a, b) for a, b in zip(after, snapshot))


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("n_members", [1, 2, 3, 4, 8])
def test_train_matches_the_allocating_per_step_oracle(n_members, discrete):
    # 50 samples are three batches of 16 and a remainder of 2; 11 are less than one batch.
    # A width-1 layer (hidden, or a continuous head of one action) sums its bias
    # gradient by another call than the wider layers.
    shapes = [((8, 6), 3), ((1, 6), 3)] + ([] if discrete else [((1, 6), 1)])
    for (hidden_dims, action_dim), tau, normalize_swarm, size in product(
            shapes, (0.0, 0.25), (False, True), (50, 11)):
        dataset = _toy_dataset(n=size, discrete=discrete, action_dim=action_dim)
        cfg = TrainConfig(epochs=4, hidden_dims=hidden_dims, batch_size=16, learning_rate=1e-2,
                          normalize_swarm=normalize_swarm)
        ens, history = train(dataset, n_members, tau, cfg, seed=5)
        want, want_history = train_oracle.train(dataset, n_members, tau, cfg, seed=5)
        assert np.array_equal(ens.params, want.params)
        assert history == want_history


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("n_members", [1, 2, 3, 4, 8])
def test_batch_loss_and_grads_matches_the_allocating_oracle(n_members, discrete):
    rng = np.random.default_rng(10 * n_members + discrete)
    for tau, normalize_swarm, n_batch in product((0.0, 0.25), (False, True), (1, 7)):
        ens = random_tiny_ensemble(rng, tau, n_members=n_members, discrete=discrete)
        ens = replace(ens, normalize_swarm=normalize_swarm)
        states = rng.normal(size=(n_batch, ens.obs_dim))
        actions = rng.normal(size=(n_batch, ens.action_dim))
        loss, grads = batch_loss_and_grads(ens, states, actions)
        _, dweights, dbiases = nn.stacked_buffer(ens.members[0].layer_dims, n_members)
        assert loss == train_oracle.loss_and_grads(ens, states, actions, dweights, dbiases)
        for i, member_grads in enumerate(grads):
            want = [g[i] for pair in zip(dweights, dbiases) for g in pair]
            assert all(np.array_equal(a, b) for a, b in zip(member_grads, want))


def test_breakdown_adds_the_member_sums_left_to_right():
    """The bc term adds the per-member sums in order, as ``swarm_loss`` adds
    numpy scalars. From Python 3.12, ``sum()`` of these floats compensates and
    gives 1.0."""
    member_sums = [1e16, 1.0, -1e16]
    plain = 0.0
    for member_sum in member_sums:
        plain += member_sum
    assert math.fsum(member_sums) != plain  # compensated and plain sums differ
    ens = random_tiny_ensemble(np.random.default_rng(0), 0.0, n_members=3)
    swarm_sums = [0.0] * (len(ens.layer_dims) - 2)
    breakdown = _breakdown(ens, 1.0, member_sums, swarm_sums, 1)
    assert breakdown.bc_term == plain == sum(np.float64(v) for v in member_sums) == 0.0


@pytest.mark.parametrize("poison_after, value, batch", [
    (6, 1e200, "first"),     # the last update of epoch 1: epoch 2's first batch overflows
    (8, np.nan, "remainder"),  # epoch 2's second update: its remainder batch is NaN
])
def test_divergence_is_reported_as_by_the_per_step_check(monkeypatch, poison_after, value, batch):
    dataset = _toy_dataset()  # 60 samples: batches of 25, 25 and 10
    cfg = TrainConfig(epochs=10, hidden_dims=(8,), batch_size=25)
    adam_update = nn.adam_update

    def diverge(train_fn):
        updates = []

        def poisoning_update(params, grads, state):
            adam_update(params, grads, state)
            updates.append(None)
            if len(updates) == poison_after:
                params[0][-1] = value  # the last output bias of the last member

        monkeypatch.setattr(nn, "adam_update", poisoning_update)
        with pytest.raises(TrainingDivergedError) as info:
            train_fn(dataset, 2, 0.25, cfg, seed=1)
        monkeypatch.undo()
        return info.value

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = diverge(train)
    # the rest of the epoch runs on: an overflow warns where numpy overflows, and only there
    assert all("overflow encountered" in str(w.message) for w in caught)
    with np.errstate(over="ignore"):  # the oracle's overflow, which the engine keeps quiet
        want = diverge(train_oracle.train)
    assert got.epoch == want.epoch == 2
    assert np.array_equal(got.last_finite_ensemble.params, want.last_finite_ensemble.params)
    if batch == "remainder":  # NaN propagates quietly through the rest of the epoch
        assert not caught
        expected, _ = train(dataset, 2, 0.25, replace(cfg, epochs=2), seed=1)
        assert np.array_equal(got.last_finite_ensemble.params, expected.params)
