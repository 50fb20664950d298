import mpmath
import numpy as np
import pytest

from cganlab.conditioning import vector_concat
from cganlab.errors import ConfigError, ContractError, DimensionError
from cganlab.tensor import (ADAM_BLOCK, LOG_FLOOR, AdamState, Tensor, TiedRows, activation,
                            adam_step, backward, is_one_hot, leaky_relu, log, matmul,
                            no_grad, one_hot, rows, softmax, softmax_cross_entropy)
from conftest import assert_grads_match, projection, reference_leaky_relu

mpmath.mp.dps = 50


# ----------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = matmul(np.eye(2), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
    assert out.data.tolist() == [[11.0]]


def naive_matmul(a, b):
    r, k = a.shape
    k2, s = b.shape
    out = np.zeros((r, s))
    for i in range(r):
        for j in range(s):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_matches_triple_loop_exactly(rng):
    a = rng.integers(-9, 10, (5, 7)).astype(np.float64)
    b = rng.integers(-9, 10, (7, 3)).astype(np.float64)
    np.testing.assert_array_equal(matmul(a, b).data, naive_matmul(a, b))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        matmul(np.zeros((2, 3)), np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)
    with pytest.raises(DimensionError):
        matmul(np.zeros(3), np.zeros((3, 2)))


def test_matmul_gradients(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))
    assert_grads_match(lambda x, y: projection(w)(matmul(x, y)), a, b)


# ----------------------------------------------------------------------
# activations


def test_sigmoid_at_zero():
    assert activation([0.0], "sigmoid").data.tolist() == [0.5]


def test_leaky_relu_definition():
    out = leaky_relu([[-5.0, 0.0, 2.0]], [1.0, 0.0, -1.0]).data
    assert out.tolist() == [[-0.8, 0.0, 1.0]]
    with pytest.raises(DimensionError):
        leaky_relu([-5.0, 0.0, 2.0], [1.0, 0.0, -1.0])  # one sample, not a batch
    with pytest.raises(DimensionError):
        leaky_relu([[-5.0, 0.0, 2.0]], [1.0, 0.0])


def test_sigmoid_stays_strictly_inside_unit_interval():
    out = activation([-1000.0, 1000.0], "sigmoid").data
    assert 0.0 < out[0] < out[1] < 1.0


def test_unknown_activation_kind():
    with pytest.raises(ConfigError):
        activation([1.0], "swish")
    with pytest.raises(ConfigError):  # a hidden layer's activation is leaky_relu(x, bias)
        activation([1.0], "leaky_relu")


@pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
def test_activation_gradients(kind, rng):
    x = rng.normal(size=(4, 3)) + 0.3 * np.sign(rng.normal(size=(4, 3)))
    w = rng.normal(size=(4, 3))
    assert_grads_match(lambda t: projection(w)(activation(t, kind)), x)


def test_leaky_relu_gradients(rng):
    bias = rng.normal(size=3)
    # keep x + bias away from the kink
    x = rng.normal(size=(4, 3)) + 0.3 * np.sign(rng.normal(size=(4, 3))) - bias
    w = rng.normal(size=(4, 3))
    assert_grads_match(lambda t, b: projection(w)(leaky_relu(t, b)), x, bias)


def _kink_operands(rng):
    """x [6, 4] and bias [4] whose sums include +-0.0, subnormal and tiny values
    of each sign, and ordinary values on both sides of the kink."""
    bias = rng.normal(size=4)
    bias[1] = -0.0
    x = rng.normal(size=(6, 4)) * 3.0
    x[0] = -bias  # +0.0: b + -b, and 0.0 + -0.0 in column 1
    x[1, 1] = -0.0  # -0.0 + -0.0
    x[2, 1], x[3, 1] = 5e-324, -5e-324
    x[4, 1], x[5, 1] = 1e-300, -1e-300
    return x, bias


@pytest.mark.parametrize("wrt", ["all", "x", "bias"])
def test_leaky_relu_matches_its_definition_bit_for_bit(wrt, rng):
    x_arr, b_arr = _kink_operands(rng)
    w = rng.normal(size=x_arr.shape)
    got_x, got_b = Tensor(x_arr), Tensor(b_arr)
    want_x, want_b = Tensor(x_arr), Tensor(b_arr)
    got = leaky_relu(got_x, got_b)
    want = reference_leaky_relu(want_x + want_b)
    assert got.data.tobytes() == want.data.tobytes()
    zero = got.data == 0.0
    assert (zero & np.signbit(got.data)).any() and (zero & ~np.signbit(got.data)).any()
    assert (got.data > 0.0).sum() > 2 and (got.data < 0.0).sum() > 2
    leaves = {"all": lambda x, b: None, "x": lambda x, b: [x], "bias": lambda x, b: [b]}[wrt]
    backward(projection(w)(got), wrt=leaves(got_x, got_b))
    backward(projection(w)(want), wrt=leaves(want_x, want_b))
    for g, r, kept in ((got_x, want_x, wrt != "bias"), (got_b, want_b, wrt != "x")):
        if kept:
            assert g.grad.tobytes() == r.grad.tobytes()
        else:
            assert g.grad is None and r.grad is None


# ----------------------------------------------------------------------
# softmax / cross-entropy


def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(Tensor([[0.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert abs(loss.item() - np.log(3.0)) < 1e-12


def test_cross_entropy_saturated_logits_stable():
    loss = softmax_cross_entropy(Tensor([[1000.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    assert 0.0 <= loss.item() < 1e-12


def test_one_hot_rows():
    t = one_hot(np.array([2, 0, 2, 1], dtype=np.uint8), 3)
    assert t.dtype == np.float64
    assert np.array_equal(t, np.eye(3)[[2, 0, 2, 1]])
    assert is_one_hot(t)
    assert not is_one_hot(t * 0.5)
    assert one_hot(np.full(2, 1), 4).tolist() == [[0.0, 1.0, 0.0, 0.0]] * 2


def test_cross_entropy_non_one_hot_rejected():
    with pytest.raises(ContractError):
        softmax_cross_entropy(Tensor([[1.0, 2.0]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        softmax_cross_entropy(Tensor([[1.0, 2.0]]), np.array([[1.0, 1.0]]))


def _ce_oracle(logits, target):
    total = mpmath.mpf(0)
    for row, t in zip(logits, target):
        denom = sum(mpmath.exp(mpmath.mpf(v)) for v in row)
        picked = mpmath.exp(mpmath.mpf(row[int(np.argmax(t))])) / denom
        total += -mpmath.log(picked)
    return float(total / len(logits))


def test_cross_entropy_matches_extended_precision_oracle(rng):
    logits = rng.normal(size=(4, 5)) * 3.0
    target = np.zeros((4, 5))
    target[np.arange(4), rng.integers(0, 5, 4)] = 1.0
    loss = softmax_cross_entropy(Tensor(logits), target)
    assert abs(loss.item() - _ce_oracle(logits, target)) < 1e-12
    assert loss.item() >= 0.0


def test_cross_entropy_gradient(rng):
    logits = rng.normal(size=(3, 4))
    target = np.zeros((3, 4))
    target[np.arange(3), rng.integers(0, 4, 3)] = 1.0
    assert_grads_match(lambda t: softmax_cross_entropy(t, target), logits)


def test_softmax_rows_normalized(rng):
    p = softmax(Tensor(rng.normal(size=(6, 9)) * 5.0)).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0.0)


def test_softmax_gradient(rng):
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(3, 5))
    assert_grads_match(lambda t: projection(w)(softmax(t)), x)


# ----------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0])
    backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_backward_accumulates_over_multiple_paths():
    x = Tensor([1.0, 2.0])
    loss = (x * 2.0).sum() + (x * 3.0).sum()
    backward(loss)
    np.testing.assert_array_equal(x.grad, [5.0, 5.0])
    # and equals the sum of single-path runs
    x1 = Tensor([1.0, 2.0])
    backward((x1 * 2.0).sum())
    g1 = x1.grad.copy()
    x2 = Tensor([1.0, 2.0])
    backward((x2 * 3.0).sum())
    np.testing.assert_array_equal(x.grad, g1 + x2.grad)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ContractError):
        backward(x * 2.0)


def test_backward_resets_stale_gradients():
    x = Tensor([1.0, 2.0])
    backward((x * 2.0).sum())
    backward((x * 2.0).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_fan_in_through_add_reshape_and_concat(rng):
    # integer weights keep every sum exact, so the expected gradients are exact
    w1, w2, w3 = (rng.integers(-9, 10, shape).astype(np.float64)
                  for shape in ((2, 3), (3, 2), (2, 5)))
    x, y = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 2)))
    a = x + Tensor(np.ones((2, 3)))
    r = x.reshape((3, 2))
    cc = vector_concat(x, y)
    loss = (a * w1).sum() + (r * w2).sum() + (cc * w3).sum()
    backward(loss)
    # first-write leaves x.grad aliasing a.grad; later arrivals must not write through
    np.testing.assert_array_equal(a.grad, w1)
    np.testing.assert_array_equal(r.grad, w2)
    np.testing.assert_array_equal(cc.grad, w3)
    np.testing.assert_array_equal(x.grad, w1 + w2.reshape(2, 3) + w3[:, :3])
    np.testing.assert_array_equal(y.grad, w3[:, 3:])


def test_backward_wrt_prunes_unrequested_leaves(rng):
    a, b, c = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))
    loss = (matmul(matmul(a, b), c) * Tensor(rng.normal(size=(3, 3)))).sum()
    backward(loss)
    full = b.grad.copy()
    backward(loss, wrt=[b])
    assert b.grad.tobytes() == full.tobytes()
    assert a.grad is None and c.grad is None
    backward(Tensor(2.0) * a.sum(), wrt=[b])  # no path to b
    assert a.grad is None


def test_reductions_and_reshape_gradients(rng):
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(2, 10))
    assert_grads_match(lambda t: projection(w)(t.reshape((2, 10))), x)
    assert_grads_match(lambda t: (t.mean(axis=1) * Tensor(np.arange(4.0))).sum(), x)
    assert_grads_match(lambda t: t.mean(), x)


def test_rows_gradients(rng):
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(2, 3))
    assert_grads_match(lambda a: projection(w)(rows(a, 1, 3)), x)


def test_rows_forward_is_a_view_and_slices_fan_in(rng):
    x = Tensor(rng.normal(size=(4, 2)))
    top, bottom = rows(x, 0, 2), rows(x, 2, 4)
    assert np.shares_memory(top.data, x.data) and np.shares_memory(bottom.data, x.data)
    np.testing.assert_array_equal(bottom.data, x.data[2:])
    backward(top.sum() * 2.0 + bottom.sum() * 3.0)
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [2.0, 2.0], [3.0, 3.0], [3.0, 3.0]])


def test_rows_range_checked():
    with pytest.raises(DimensionError):
        rows(Tensor(np.zeros((3, 2))), 2, 4)
    with pytest.raises(DimensionError):
        rows(Tensor(np.zeros((3, 2))), 2, 1)


def test_log_gradients(rng):
    x = rng.uniform(0.5, 2.0, size=(3, 3))
    w = rng.normal(size=(3, 3))
    assert_grads_match(lambda t: projection(w)(log(t)), x)
    # below LOG_FLOOR the value is clamped and the gradient is zero
    x = Tensor([0.0, LOG_FLOOR / 2, 1.0])
    y = log(x)
    assert y.data.tolist() == [np.log(LOG_FLOOR), np.log(LOG_FLOOR), 0.0]
    backward(y.sum())
    assert x.grad.tolist() == [0.0, 0.0, 1.0]


def test_non_finite_result_raises():
    with pytest.raises(ContractError), np.errstate(over="ignore"):
        Tensor([1e308]) * 10.0
    with pytest.raises(ContractError):
        Tensor([np.nan])
    with no_grad(), pytest.raises(ContractError), np.errstate(over="ignore"):
        Tensor([1e308]) * 10.0


def test_no_grad_records_no_graph_and_keeps_the_values():
    x, w, b = Tensor([[1.0, -2.0]]), Tensor([[0.5], [0.25]]), Tensor([0.125])
    want = leaky_relu(x @ w, b)
    with no_grad():
        got = leaky_relu(x @ w, b)
    assert got.parents == () and got._backward is None
    assert np.array_equal(got.data, want.data) and want.parents


def test_no_grad_is_restored_after_nesting_and_errors():
    x = Tensor([1.0, 2.0])
    with no_grad():
        with no_grad():
            assert (x * 2.0).parents == ()
        assert (x * 2.0).parents == ()
    assert (x * 2.0).parents
    with pytest.raises(ValueError), no_grad():
        raise ValueError("inside")
    assert (x * 2.0).parents


# ----------------------------------------------------------------------
# adam


def test_adam_zero_gradient_is_a_noop():
    p = Tensor([1.5, -2.5])
    before = p.data.copy()
    st = AdamState.fresh((2,), lr=0.1)
    adam_step(p, np.zeros(2), st)
    np.testing.assert_array_equal(p.data, before)
    assert st.step == 1


def test_adam_single_step_hand_computed():
    # beta1=0.9, beta2=0.999, g=1: m_hat=1, v_hat=1 after bias correction,
    # so the step is lr / (1 + eps)
    p = Tensor([0.0])
    st = AdamState.fresh((1,), lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
    adam_step(p, np.array([1.0]), st)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15
    assert abs(p.data[0] + 0.1) < 1e-8


def test_adam_converges_on_quadratic():
    w = Tensor([0.0])
    st = AdamState.fresh((1,), lr=0.05, beta1=0.9, beta2=0.999)
    for _ in range(2000):
        adam_step(w, 2.0 * (w.data - 3.0), st)
    assert abs(w.data[0] - 3.0) < 1e-3


def test_adam_shape_mismatch():
    p = Tensor([1.0, 2.0])
    st = AdamState.fresh((2,))
    with pytest.raises(DimensionError):
        adam_step(p, np.zeros(3), st)


def test_adam_hyper_validation():
    with pytest.raises(ConfigError):
        AdamState.fresh((1,), beta1=1.0)
    with pytest.raises(ConfigError):
        AdamState.fresh((1,), epsilon=0.0)
    for lr in (-1e-3, np.nan, np.inf):
        with pytest.raises(ConfigError):
            AdamState.fresh((1,), lr=lr)


def reference_adam(data, grad, m, v, step, st):
    """The whole-array update adam_step must reproduce bit for bit."""
    m = st.beta1 * m + (1.0 - st.beta1) * grad
    v = st.beta2 * v + (1.0 - st.beta2) * grad * grad
    m_hat = m / (1.0 - st.beta1 ** step)
    v_hat = v / (1.0 - st.beta2 ** step)
    return data - st.lr * m_hat / (np.sqrt(v_hat) + st.epsilon), m, v


@pytest.mark.parametrize("shape", [(2 * ADAM_BLOCK + 5,), (3000, 7), (900, 5, 4), (5, 64), ()])
def test_adam_blocks_match_whole_array_formula(shape, rng):
    p = Tensor(rng.normal(size=shape))
    st = AdamState.fresh(shape, lr=0.01, beta1=0.8, beta2=0.99)
    m_array, v_array = st.m, st.v
    for step in range(1, 4):
        grad = rng.normal(size=shape)
        want, want_m, want_v = reference_adam(p.data.copy(), grad, st.m.copy(), st.v.copy(),
                                              step, st)
        adam_step(p, grad, st)
        assert p.data.tobytes() == want.tobytes()
        assert st.m.tobytes() == want_m.tobytes() and st.v.tobytes() == want_v.tobytes()
    if p.size > ADAM_BLOCK:  # several blocks: updated in place
        assert st.m is m_array and st.v is v_array
    assert st.step == 3


def test_adam_refuses_a_gradient_of_another_form(rng):
    p = Tensor(rng.normal(size=(6, 2)))  # 2 blocks of 1 free and 2 tied rows
    tied = TiedRows(rng.normal(size=(2, 1, 2)), rng.normal(size=(2, 2)))
    with pytest.raises(DimensionError):
        adam_step(p, tied, AdamState.fresh((6, 2)))
    st = AdamState.fresh((6, 2))
    st.m, st.v = TiedRows.zeros(2, 1, 2, 2), TiedRows.zeros(2, 1, 2, 2)
    with pytest.raises(DimensionError):
        adam_step(p, tied.full(), st)
    with pytest.raises(DimensionError):
        adam_step(p, TiedRows(rng.normal(size=(3, 0, 2)), rng.normal(size=(2, 2))), st)
    adam_step(p, tied, st)
    assert st.step == 1


def test_adam_on_checkpoint_loaded_model_matches_formula(tmp_path, rng):
    from cganlab.checkpoint import load_model, save_model
    from cganlab.models import NetworkSpec, build_generator
    from cganlab.rng import RngStream

    # l0.w is 7 x 1200, more than one block; l1.w is 1200 x 4
    g = build_generator((2, 2, 1), 3, 4, NetworkSpec([1200]), RngStream(2, ("g",)))
    for name, t in g.named().items():
        adam_step(t, rng.normal(size=t.shape), g.adam[name])
    save_model(tmp_path / "g.ckpt", g)
    loaded, _ = load_model(tmp_path / "g.ckpt")
    assert loaded.weights[0].size > ADAM_BLOCK
    for name, t in loaded.named().items():
        st = loaded.adam[name]
        grad = rng.normal(size=t.shape)
        want, want_m, want_v = reference_adam(t.data.copy(), grad, st.m.copy(), st.v.copy(),
                                              2, st)
        adam_step(t, grad, st)
        assert st.step == 2
        assert t.data.tobytes() == want.tobytes()
        assert st.m.tobytes() == want_m.tobytes() and st.v.tobytes() == want_v.tobytes()
