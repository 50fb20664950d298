import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cganlab import conditioning
from cganlab.conditioning import (spatial_bilinear_pool, spatial_replicate_concat,
                                  vector_concat)
from cganlab.errors import DimensionError
from cganlab.tensor import Tensor, backward, matmul
from conftest import (assert_grads_match, bilinear_pool, full_grad, projection,
                      replicate_concat)


# ----------------------------------------------------------------------
# vector_concat


def test_vector_concat_definition():
    out = vector_concat(Tensor([[1.0, 2.0]]), Tensor([[0.0, 1.0]]))
    assert out.data.tolist() == [[1.0, 2.0, 0.0, 1.0]]


def test_vector_concat_rejects_empty_condition():
    with pytest.raises(DimensionError):
        vector_concat(Tensor([[1.0, 2.0]]), Tensor(np.zeros((1, 0))))


def test_vector_concat_rejects_rank_mismatch():
    with pytest.raises(DimensionError):
        vector_concat(Tensor([[1.0]]), Tensor([1.0]))
    with pytest.raises(DimensionError):
        vector_concat(Tensor([1.0, 2.0]), Tensor([1.0]))
    with pytest.raises(DimensionError):
        vector_concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_vector_concat_gradient_is_identity_routing():
    z = Tensor([[1.0, 2.0, 3.0]])
    c = Tensor([[4.0, 5.0]])
    backward(vector_concat(z, c).sum())
    np.testing.assert_array_equal(z.grad, np.ones((1, 3)))
    np.testing.assert_array_equal(c.grad, np.ones((1, 2)))


def test_vector_concat_gradients(rng):
    a, b = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 6))
    assert_grads_match(lambda x, y: projection(w)(vector_concat(x, y)), a, b)


# ----------------------------------------------------------------------
# replicate_concat, the reference definition


def test_replicate_concat_single_pixel():
    out = replicate_concat(Tensor([[[5.0, 6.0]]]), Tensor([7.0]))
    assert out.shape == (1, 1, 3)
    assert out.data.ravel().tolist() == [5.0, 6.0, 7.0]


def test_replicate_concat_replicates_everywhere(rng):
    x = Tensor(rng.normal(size=(2, 2, 3)))
    c = Tensor([1.0, 0.0])
    out = replicate_concat(x, c).data
    for i in range(2):
        for j in range(2):
            assert out[i, j, 3:].tolist() == [1.0, 0.0]
            np.testing.assert_array_equal(out[i, j, :3], x.data[i, j])


def test_replicate_concat_slicing_recovers_inputs(rng):
    x = rng.normal(size=(3, 3, 2))
    c = rng.normal(size=4)
    out = replicate_concat(Tensor(x), Tensor(c)).data
    np.testing.assert_array_equal(out[..., :2], x)
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(out[i, j, 2:], c)


def test_replicate_concat_condition_gradient_is_pixel_count():
    x = Tensor(np.zeros((4, 4, 2)))
    c = Tensor([0.3, -0.7, 0.1])
    backward(replicate_concat(x, c).sum())
    np.testing.assert_array_equal(c.grad, [16.0, 16.0, 16.0])


def test_replicate_concat_finite_difference(rng):
    x = rng.normal(size=(2, 2, 3))
    c = rng.normal(size=2)
    w = rng.normal(size=(2, 2, 5))
    assert_grads_match(lambda a, b: projection(w)(replicate_concat(a, b)), x, c)


def test_replicate_concat_batched(rng):
    x = rng.normal(size=(4, 2, 2, 3))
    c = rng.normal(size=(4, 2))
    out = replicate_concat(Tensor(x), Tensor(c))
    assert out.shape == (4, 2, 2, 5)
    np.testing.assert_array_equal(out.data[2, 1, 0, 3:], c[2])


# ----------------------------------------------------------------------
# bilinear_pool, the reference definition


def test_sbp_one_hot_selects_block():
    out = bilinear_pool(Tensor([[[2.0, 3.0]]]), Tensor([1.0, 0.0]))
    assert out.data.ravel().tolist() == [2.0, 3.0, 0.0, 0.0]


def test_sbp_declared_layout():
    out = bilinear_pool(Tensor([[[2.0, 3.0]]]), Tensor([1.0, 2.0]))
    assert out.data.ravel().tolist() == [2.0, 3.0, 4.0, 6.0]


def test_sbp_output_shape():
    out = bilinear_pool(Tensor(np.ones((4, 4, 3))), Tensor(np.ones(10)))
    assert out.shape == (4, 4, 30)


def test_sbp_one_hot_selection_is_bitwise_exact(rng):
    x = rng.normal(size=(3, 3, 4))
    m, a = 5, 2
    c = np.zeros(m)
    c[a] = 1.0
    out = bilinear_pool(Tensor(x), Tensor(c)).data.reshape(3, 3, m, 4)
    assert np.array_equal(out[:, :, a, :], x)
    mask = np.ones(m, dtype=bool)
    mask[a] = False
    assert np.all(out[:, :, mask, :] == 0.0)


def test_sbp_bilinear_in_condition(rng):
    x = rng.normal(size=(2, 2, 3))
    c1, c2 = rng.normal(size=4), rng.normal(size=4)
    alpha, beta = 0.37, -1.21
    combo = bilinear_pool(Tensor(x), Tensor(alpha * c1 + beta * c2)).data
    parts = (alpha * bilinear_pool(Tensor(x), Tensor(c1)).data
             + beta * bilinear_pool(Tensor(x), Tensor(c2)).data)
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_sbp_bilinear_in_image(rng):
    c = rng.normal(size=3)
    x1, x2 = rng.normal(size=(2, 2, 2)), rng.normal(size=(2, 2, 2))
    alpha, beta = -0.5, 2.25
    combo = bilinear_pool(Tensor(alpha * x1 + beta * x2), Tensor(c)).data
    parts = (alpha * bilinear_pool(Tensor(x1), Tensor(c)).data
             + beta * bilinear_pool(Tensor(x2), Tensor(c)).data)
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_sbp_per_pixel_norm_identity(rng):
    x = rng.normal(size=(3, 3, 4))
    c = rng.normal(size=5)
    out = bilinear_pool(Tensor(x), Tensor(c)).data
    for i in range(3):
        for j in range(3):
            lhs = np.linalg.norm(out[i, j])
            rhs = np.linalg.norm(x[i, j]) * np.linalg.norm(c)
            assert abs(lhs - rhs) < 1e-10


def test_sbp_finite_difference(rng):
    x = rng.normal(size=(2, 2, 2))
    c = rng.normal(size=3)
    w = rng.normal(size=(2, 2, 6))
    assert_grads_match(lambda a, b: projection(w)(bilinear_pool(a, b)), x, c)


def test_sbp_batched_matches_per_sample(rng):
    x = rng.normal(size=(3, 2, 2, 2))
    c = rng.normal(size=(3, 4))
    batched = bilinear_pool(Tensor(x), Tensor(c)).data
    for i in range(3):
        single = bilinear_pool(Tensor(x[i]), Tensor(c[i])).data
        np.testing.assert_array_equal(batched[i], single)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), d=st.integers(1, 4), m=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_sbp_shape_and_linearity_property(n, d, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n, d))
    c1, c2 = rng.normal(size=m), rng.normal(size=m)
    out = bilinear_pool(Tensor(x), Tensor(c1))
    assert out.shape == (n, n, d * m)
    combo = bilinear_pool(Tensor(x), Tensor(c1 + c2)).data
    np.testing.assert_allclose(
        combo,
        out.data + bilinear_pool(Tensor(x), Tensor(c2)).data,
        atol=1e-12)


# ----------------------------------------------------------------------
# the ops: D's first-layer product, against the reference definitions

# name: (the op, its reference definition, output channels from d and m)
FACTORED_OPS = {
    "replicate_concat": (spatial_replicate_concat, replicate_concat, lambda d, m: d + m),
    "bilinear_pool": (spatial_bilinear_pool, bilinear_pool, lambda d, m: d * m),
}
FACTORED_SHAPES = [(28, 28, 1, 10), (4, 4, 3, 5), (1, 1, 2, 3), (3, 2, 2, 4)]


def _conditions(rng, b, m, dense):
    """Dense normal rows, or one-hot rows that never pick the last condition."""
    if dense:
        return rng.normal(size=(b, m))
    return np.eye(m)[np.arange(b) % (m - 1)]


def _rel_err(got, want):
    got = full_grad(got)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture(params=["loop", "default"])
def pool_build_max(request, monkeypatch):
    """With "loop", sbp takes its per-condition loop at every size; "default" builds small inputs."""
    if request.param == "loop":
        monkeypatch.setattr(conditioning, "POOL_BUILD_MAX", 0)
    return conditioning.POOL_BUILD_MAX


@pytest.mark.parametrize("dense", [False, True], ids=["one_hot", "dense"])
@pytest.mark.parametrize("shape", FACTORED_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", sorted(FACTORED_OPS))
def test_factored_product_matches_reference(name, shape, dense, pool_build_max, rng):
    op, reference, channels = FACTORED_OPS[name]
    h, w, d, m = shape
    b, k = 6, 5
    x = rng.normal(size=(b, h, w, d))
    c = _conditions(rng, b, m, dense)
    weight = rng.normal(size=(h * w * channels(d, m), k))
    proj = rng.normal(size=(b, k))
    got = [Tensor(a) for a in (x, c, weight)]
    out = op(got[0], got[1], weight=got[2])
    backward((out * proj).sum())
    want = [Tensor(a) for a in (x, c, weight)]
    ref = matmul(reference(want[0], want[1]).reshape((b, -1)), want[2])
    backward((ref * proj).sum())
    assert out.shape == (b, k)
    assert _rel_err(out.data, ref.data) < 1e-12
    for g_, w_ in zip(got, want):
        assert _rel_err(g_.grad, w_.grad) < 1e-12


def test_pooled_input_is_built_only_when_small(rng, monkeypatch):
    ran = []
    for product in ("_built_pool_product", "_bilinear_pool_product"):
        def spy(*args, product=product, inner=getattr(conditioning, product)):
            ran.append(product)
            return inner(*args)
        monkeypatch.setattr(conditioning, product, spy)
    spatial_bilinear_pool(Tensor(rng.normal(size=(256, 1, 1, 2))),
                          Tensor(np.eye(3)[np.arange(256) % 3]),
                          weight=Tensor(rng.normal(size=(6, 4))))
    spatial_bilinear_pool(Tensor(rng.normal(size=(128, 28, 28, 1))),
                          Tensor(np.eye(10)[np.arange(128) % 10]),
                          weight=Tensor(rng.normal(size=(7840, 4))))
    assert ran == ["_built_pool_product", "_bilinear_pool_product"]


@pytest.mark.parametrize("name", sorted(FACTORED_OPS))
def test_factored_product_weight_gradient_only(name, pool_build_max, rng):
    op, _, channels = FACTORED_OPS[name]
    x = Tensor(rng.normal(size=(4, 3, 2, 2)))
    c = Tensor(_conditions(rng, 4, 4, dense=False))
    weight = Tensor(rng.normal(size=(3 * 2 * channels(2, 4), 3)))
    backward(op(x, c, weight=weight).sum(), wrt=[weight])
    assert x.grad is None and c.grad is None
    assert weight.grad is not None and full_grad(weight.grad).shape == weight.shape


def test_rank_mismatch_rejected():
    w_bp, w_rc = Tensor(np.zeros((2 * 2 * 2 * 3, 1))), Tensor(np.zeros((2 * 2 * 5, 1)))
    with pytest.raises(DimensionError):
        spatial_bilinear_pool(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((1, 3))), w_bp)
    with pytest.raises(DimensionError):  # one sample is a batch of one, not a rank-3 image
        spatial_bilinear_pool(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(3)), w_bp)
    with pytest.raises(DimensionError):
        spatial_replicate_concat(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros(3)), w_rc)
    with pytest.raises(DimensionError):
        spatial_replicate_concat(Tensor(np.zeros((2, 2, 2, 2))), Tensor(np.zeros((3, 2))),
                                 Tensor(np.zeros((2 * 2 * 4, 1))))


@pytest.mark.parametrize("name", sorted(FACTORED_OPS))
def test_factored_product_rejects_misfit_weight(name):
    op, _, channels = FACTORED_OPS[name]
    x, c = Tensor(np.zeros((2, 2, 2, 1))), Tensor(np.eye(3)[:2])
    with pytest.raises(DimensionError):
        op(x, c, weight=Tensor(np.zeros((2 * 2 * channels(1, 3) + 1, 4))))
    with pytest.raises(DimensionError):
        op(x, c, weight=Tensor(np.zeros(2 * 2 * channels(1, 3))))
