from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import reference

from swarmbc import nn
from swarmbc.errors import DimensionMismatchError


def zero_policy(dims, output_activation="identity"):
    return nn.MlpPolicy(
        layer_dims=list(dims),
        weights=[np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
        biases=[np.zeros(b) for b in dims[1:]],
        output_activation=output_activation,
    )


def test_forward_zero_parameters_gives_zero_everywhere():
    policy = zero_policy([3, 4, 4, 2])
    trace = nn.forward(policy, np.array([0.3, -1.2, 5.0]))
    for h in trace.hiddens:
        assert np.all(h == 0.0)
    assert np.all(trace.output == 0.0)


def test_forward_identity_chain_at_zero():
    # 1-1-1 net, W=(1), b=(0) in both layers, input 0: tanh(0)=0 throughout
    policy = nn.MlpPolicy(
        layer_dims=[1, 1, 1],
        weights=[np.ones((1, 1)), np.ones((1, 1))],
        biases=[np.zeros(1), np.zeros(1)],
    )
    trace = nn.forward(policy, np.array([0.0]))
    assert trace.hiddens[0] == pytest.approx(np.array([0.0]))
    assert trace.output == pytest.approx(np.array([0.0]))


def test_forward_matches_hand_evaluated_chain():
    # 2-2-1 net evaluated independently with scalar arithmetic
    w1 = np.array([[0.1, -0.2], [0.3, 0.05]])
    b1 = np.array([0.01, -0.02])
    w2 = np.array([[0.7], [-0.4]])
    b2 = np.array([0.1])
    policy = nn.MlpPolicy([2, 2, 1], [w1, w2], [b1, b2])
    s = np.array([0.5, -0.3])

    z0 = 0.5 * 0.1 + (-0.3) * 0.3 + 0.01
    z1 = 0.5 * (-0.2) + (-0.3) * 0.05 + (-0.02)
    h0, h1 = np.tanh(z0), np.tanh(z1)
    expected = h0 * 0.7 + h1 * (-0.4) + 0.1

    trace = nn.forward(policy, s)
    assert trace.hiddens[0] == pytest.approx(np.array([h0, h1]), rel=1e-15)
    assert trace.output == pytest.approx(np.array([expected]), rel=1e-15)


def test_forward_rejects_wrong_input_dim():
    policy = zero_policy([3, 2, 1])
    with pytest.raises(DimensionMismatchError, match="input layer"):
        nn.forward(policy, np.array([1.0, 2.0]))


def test_forward_trace_consistency():
    # recomputing activations from stored pre-activations reproduces the
    # stored values exactly
    rng = np.random.default_rng(3)
    policy = nn.init_policy([3, 5, 4, 2], rng)
    trace = reference.forward(policy, rng.normal(size=3))
    for z, h in zip(trace.pre_activations[:-1], trace.hiddens):
        assert np.array_equal(np.tanh(z), h)
    assert np.array_equal(trace.pre_activations[-1], trace.output)


def test_forward_batch_matches_single():
    # one state runs as a batch of one, bit for bit; a row of a larger batch may
    # round otherwise, since a (5, in) matmul is not five (1, in) ones
    rng = np.random.default_rng(4)
    policy = nn.init_policy([3, 4, 4, 2], rng)
    for s in rng.normal(size=(5, 3)):
        single, batch = nn.forward(policy, s), nn.forward(policy, s[None])
        assert single.output.shape == (2,) and batch.output.shape == (1, 2)
        assert np.array_equal(batch.output[0], single.output)
        for h_batch, h_single in zip(batch.hiddens, single.hiddens, strict=True):
            assert np.array_equal(h_batch[0], h_single)


def test_backward_zero_seeds_give_zero_gradients():
    rng = np.random.default_rng(5)
    policy = nn.init_policy([2, 3, 2], rng)
    trace = nn.forward(policy, rng.normal(size=2))
    dws, dbs = nn.backward_policy(
        policy, trace, np.zeros(2), [np.zeros(3)]
    )
    for g in dws + dbs:
        assert np.all(g == 0.0)


def test_backward_matches_hand_derived_221_net():
    # squared-error output loss on a 2-2-1 tanh net, gradients written out
    # by hand from the chain rule
    w1 = np.array([[0.2, -0.5], [0.4, 0.3]])
    b1 = np.array([0.1, -0.1])
    w2 = np.array([[0.6], [-0.7]])
    b2 = np.array([0.05])
    policy = nn.MlpPolicy([2, 2, 1], [w1, w2], [b1, b2])
    x = np.array([0.8, -0.4])
    target = 0.3

    z = x @ w1 + b1
    h = np.tanh(z)
    y = (h @ w2 + b2).item()
    gy = 2.0 * (y - target)

    db2_hand = np.array([gy])
    dw2_hand = (h * gy).reshape(2, 1)
    dh = gy * w2[:, 0]
    dz = dh * (1.0 - h * h)
    db1_hand = dz
    dw1_hand = np.outer(x, dz)

    trace = nn.forward(policy, x)
    dws, dbs = nn.backward_policy(
        policy, trace, np.array([gy]), [np.zeros(2)]
    )
    assert dws[0] == pytest.approx(dw1_hand, rel=1e-12)
    assert dbs[0] == pytest.approx(db1_hand, rel=1e-12)
    assert dws[1] == pytest.approx(dw2_hand, rel=1e-12)
    assert dbs[1] == pytest.approx(db2_hand, rel=1e-12)


def test_backward_softmax_head_matches_finite_differences():
    rng = np.random.default_rng(7)
    policy = nn.init_policy([2, 3, 3], rng, output_activation="softmax")
    x = rng.normal(size=2)
    target = np.array([0.0, 1.0, 0.0])

    def loss_fn(params):
        probe = replace(policy, weights=params[0::2], biases=params[1::2])
        out = nn.forward(probe, x).output
        return float(np.sum((out - target) ** 2))

    trace = nn.forward(policy, x)
    gy = 2.0 * (trace.output - target)
    dws, dbs = nn.backward_policy(policy, trace, gy, [np.zeros(3)])
    analytic = nn.policy_gradients(dws, dbs)
    fd = nn.finite_diff_grad(loss_fn, nn.policy_parameters(policy), step=1e-6)
    for a, f in zip(analytic, fd):
        assert a == pytest.approx(f, abs=1e-7)


def test_adam_zero_gradient_keeps_parameters():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = nn.adam_init(params)
    state.m = [np.full_like(p, 0.3) for p in params]  # pre-decayed moments
    new_params, new_state = nn.adam_step(
        params, [np.zeros_like(p) for p in params], state
    )
    # moments decay toward zero but zero gradient cannot move parameters
    # from a fresh state
    fresh = nn.adam_init(params)
    moved, _ = nn.adam_step(params, [np.zeros_like(p) for p in params], fresh)
    for p, q in zip(params, moved):
        assert np.array_equal(p, q)
    assert new_state.step == 1
    assert np.all(new_state.m[0] == 0.9 * 0.3)


def test_adam_constant_gradient_moves_against_sign():
    params = [np.array([0.0])]
    state = nn.adam_init(params, lr=0.01)
    g = [np.array([0.5])]
    for _ in range(50):
        params, state = nn.adam_step(params, g, state)
    assert params[0][0] < 0.0
    params = [np.array([0.0])]
    state = nn.adam_init(params, lr=0.01)
    g = [np.array([-0.5])]
    for _ in range(50):
        params, state = nn.adam_step(params, g, state)
    assert params[0][0] > 0.0


def test_adam_first_step_magnitude_is_learning_rate():
    # closed form: m_hat = g, v_hat = g^2, update = lr * g / (|g| + eps)
    params = [np.array([2.0])]
    state = nn.adam_init(params, lr=1e-3)
    new_params, _ = nn.adam_step(params, [np.array([0.5])], state)
    update = new_params[0][0] - 2.0
    expected = -1e-3 * 0.5 / (0.5 + 1e-8)
    assert update == pytest.approx(expected, rel=1e-12)
    assert abs(update) == pytest.approx(1e-3, rel=1e-7)


def test_adam_update_in_place_matches_adam_step_bitwise():
    rng = np.random.default_rng(8)
    params = [rng.normal(size=(3, 2)), rng.normal(size=2)]
    state = nn.adam_init(params, lr=0.05)
    flat = np.concatenate([p.ravel() for p in params])
    flat_state = nn.adam_init([flat], lr=0.05)
    for _ in range(5):
        grads = [rng.normal(size=p.shape) for p in params]
        params, state = reference.adam_step(params, grads, state)
        nn.adam_update([flat], [np.concatenate([g.ravel() for g in grads])], flat_state)
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in params]))
    assert flat_state.step == state.step == 5


def _random_policy_and_state(rng):
    """A policy of 1-3 hidden layers with either head, and one state (1-D) or a
    batch of 1-69 states."""
    dims = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(3, 6)))]
    head = nn.OUTPUT_ACTIVATIONS[int(rng.integers(2))]
    policy = nn.init_policy(dims, rng, output_activation=head)
    n_batch = int(rng.integers(0, 70))
    return policy, rng.normal(size=(n_batch, dims[0]) if n_batch else dims[0])


def _random_seeds(rng, trace):
    """An output seed, and hidden seeds that are None, or a list mixing
    arrays and None."""
    hidden = [None if rng.integers(3) == 0 else rng.normal(size=h.shape) for h in trace.hiddens]
    return rng.normal(size=trace.output.shape), None if rng.integers(4) == 0 else hidden


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def test_single_policy_path_matches_the_reference_bitwise():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        policy, s = _random_policy_and_state(rng)
        got, want = nn.forward(policy, s), reference.forward(policy, s)
        _assert_identical(got.hiddens + [got.output], want.hiddens + [want.output])

        output_grad, hidden_grads = _random_seeds(rng, want)
        grads = nn.backward_policy(policy, got, output_grad, hidden_grads)
        want_grads = reference.backward_policy(policy, want, output_grad, hidden_grads)
        _assert_identical(grads[0] + grads[1], want_grads[0] + want_grads[1])

        params = nn.policy_parameters(policy)
        state = nn.AdamState(m=[rng.normal(size=p.shape) for p in params],
                             v=[rng.uniform(size=p.shape) for p in params],
                             step=int(rng.integers(0, 50)), lr=float(rng.uniform(1e-4, 0.1)))
        flat_grads = nn.policy_gradients(*grads)
        new_params, new_state = nn.adam_step(params, flat_grads, state)
        want_params, want_state = reference.adam_step(params, flat_grads, state)
        _assert_identical(new_params, want_params)
        _assert_identical(new_state.m + new_state.v, want_state.m + want_state.v)
        assert new_state.step == want_state.step == state.step + 1


def _extreme_values(rng, shape, special_share):
    """Magnitudes from 1e-8 to 1e8 of either sign, a share of them replaced by
    +-0, +-inf or NaN."""
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    special = rng.random(shape) < special_share
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_bias_gradient_reduction_equals_dz_sum_bitwise(n):
    rng = np.random.default_rng(n)
    for b, w in product([1, 2, 7, 16, 64, 65], [1, 2, 3, 16]):
        for dz in (_extreme_values(rng, (n, b, w), 0.0), _extreme_values(rng, (n, b, w), 0.05),
                   np.where(rng.random((n, b, w)) < 0.97, -0.0, 0.0)):
            # a one-layer net: its bias gradient is the reduction of the output seed
            dbias = np.empty((n, w))
            with np.errstate(invalid="ignore"):
                nn.stacked_backward([np.zeros((n, 1, w))], np.zeros((b, 1)), [], None,
                                    dz.copy(), None, [np.empty((n, 1, w))], [dbias],
                                    "identity", [])
                want = dz.sum(axis=1)
            assert np.array_equal(reference.bits(dbias), reference.bits(want)), \
                f"dz of shape {dz.shape}, numpy {np.__version__}"


@pytest.mark.parametrize("k", [2, 3, 5])
def test_softmax_equals_the_row_max_form_bitwise(k):
    rng = np.random.default_rng(k)
    for shape, share in product([(1, 1, k), (4, 1, k), (4, 64, k), (8, 65, k), (6, 4, 1, k)],
                                [0.0, 0.2]):
        z = _extreme_values(rng, shape, share)
        with np.errstate(invalid="ignore", over="ignore"):
            want = z - z.max(axis=-1, keepdims=True)
            np.exp(want, out=want)
            want /= want.sum(axis=-1, keepdims=True)
            got = nn._softmax(z)
            in_place = nn._softmax(z, out=z)
        for result in (got, in_place):
            assert np.array_equal(reference.bits(result), reference.bits(want)), \
                f"z of shape {shape}, numpy {np.__version__}"


def test_backward_rejects_wrong_seed_counts_and_shapes():
    policy = nn.init_policy([2, 3, 4, 2], np.random.default_rng(9))
    trace = nn.forward(policy, np.ones((5, 2)))
    with pytest.raises(DimensionMismatchError, match="1 hidden-gradient seeds for 2"):
        nn.backward_policy(policy, trace, np.zeros((5, 2)), [np.zeros((5, 3))])
    with pytest.raises(DimensionMismatchError, match="output seed shape"):
        nn.backward_policy(policy, trace, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatchError, match="output seed shape"):
        nn.backward_policy(policy, trace, np.zeros(2))


def test_adam_step_rejects_length_or_shape_mismatch():
    params = [np.zeros((2, 3)), np.zeros(3)]
    state = nn.adam_init(params)
    with pytest.raises(DimensionMismatchError, match="length mismatch"):
        nn.adam_step(params, [np.zeros((2, 3))], state)
    with pytest.raises(DimensionMismatchError, match="length mismatch"):
        nn.adam_step(params, [np.zeros((2, 3)), np.zeros(3)], nn.adam_init(params[:1]))
    with pytest.raises(DimensionMismatchError, match="does not match parameter"):
        nn.adam_step(params, [np.zeros((2, 3)), np.zeros(2)], state)


@pytest.mark.parametrize("head", nn.OUTPUT_ACTIVATIONS)
def test_single_policy_functions_leave_their_inputs_unchanged(head):
    rng = np.random.default_rng(11)
    policy = nn.init_policy([3, 4, 4, 2], rng, output_activation=head)
    s = rng.normal(size=(6, 3))
    trace = nn.forward(policy, s)
    output_grad, hidden_grads = rng.normal(size=(6, 2)), [rng.normal(size=(6, 4)), None]
    params = nn.policy_parameters(policy)
    grads = nn.policy_gradients(*nn.backward_policy(policy, trace, output_grad, hidden_grads))
    state = nn.adam_init(params)
    state.m = [rng.normal(size=p.shape) for p in params]
    state.v = [rng.uniform(size=p.shape) for p in params]
    inputs = [s, output_grad, hidden_grads[0], *params, *grads, *state.m, *state.v,
              *trace.hiddens, trace.output]
    before = [a.copy() for a in inputs]
    for _ in range(2):
        nn.forward(policy, s)
        nn.backward_policy(policy, trace, output_grad, hidden_grads)
        nn.adam_step(params, grads, state)
    _assert_identical(inputs, before)
    assert state.step == 0


def test_finite_diff_on_quadratic():
    params = [np.array([1.0, -2.0])]
    grads = nn.finite_diff_grad(
        lambda ps: float(np.sum(ps[0] ** 2)), params, step=1e-6
    )
    assert grads[0] == pytest.approx(np.array([2.0, -4.0]), abs=1e-8)
    # original parameters untouched
    assert np.array_equal(params[0], np.array([1.0, -2.0]))


def test_finite_diff_on_constant_is_zero():
    grads = nn.finite_diff_grad(lambda ps: 7.5, [np.ones((2, 2))], step=1e-5)
    assert np.all(grads[0] == 0.0)


def test_init_determinism():
    a = nn.init_policy([3, 8, 8, 2], np.random.default_rng(123))
    b = nn.init_policy([3, 8, 8, 2], np.random.default_rng(123))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = nn.init_policy([3, 8, 8, 2], np.random.default_rng(124))
    assert not np.array_equal(a.weights[0], c.weights[0])
