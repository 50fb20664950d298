"""Shared test helpers: finite-difference gradient checks, datasets, the
one-operand definition of leaky_relu, the weight-free definitions of the
spatial conditioning ops, a one-glyph-at-a-time digit renderer, a file on a
full disk, and a private temporary directory for the whole session."""

import errno
import io
import tempfile

import numpy as np
import pytest

from cganlab.data import _glyph_points
from cganlab.rng import RngStream
from cganlab.tensor import LEAKY_SLOPE, Tensor, TiedRows, _accum, backward


def numeric_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def assert_grads_match(build, *arrays, rtol=1e-4, atol=1e-6, h=1e-5):
    """Backprop through build(*tensors) and compare against finite differences.

    build must map Tensors of the given arrays to a scalar Tensor.
    """
    tensors = [Tensor(a) for a in arrays]
    loss = build(*tensors)
    backward(loss)
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [Tensor(x if j == i else arr) for j, arr in enumerate(arrays)]
            return build(*args).item()

        assert tensors[i].grad is not None, f"input {i} received no gradient"
        analytic = full_grad(tensors[i].grad)
        numeric = numeric_grad(f, np.array(a, dtype=np.float64), h=h)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def full_grad(grad):
    """A gradient as an ndarray: a TiedRows (cgan/fcgan's first D weight) expanded."""
    return grad.full() if isinstance(grad, TiedRows) else grad


def projection(weights):
    """Reduce a non-scalar op output to a scalar via a fixed random projection."""
    w = Tensor(weights)

    def reduce(t):
        return (t * w).sum()

    return reduce


def reference_leaky_relu(x) -> Tensor:
    """max(x, LEAKY_SLOPE * x) elementwise, with slope 1 or LEAKY_SLOPE backward.

    The definition of `cganlab.tensor.leaky_relu(x, bias)`, which computes
    reference_leaky_relu(x + bias) as one node and must give the same bits.
    """
    y = LEAKY_SLOPE * x.data
    np.maximum(x.data, y, out=y)

    def back(g, a=x, d=x.data):
        slope = np.where(d > 0, 1.0, LEAKY_SLOPE)
        _accum(a, np.multiply(g, slope, out=slope))

    return Tensor(y, (x,), "leaky_relu", back)


def replicate_concat(x, c) -> Tensor:
    """c tiled over the spatial grid of x and appended along channels.

    The definition of `cganlab.conditioning.spatial_replicate_concat`, which
    returns flatten(replicate_concat(x, c)) @ weight without building it. x
    is one image [h, w, d] with a condition [m], or a batch [b, h, w, d]
    with [b, m]; the output has d + m channels.
    """
    d = x.shape[-1]
    tiled = np.broadcast_to(c.data[..., None, None, :], x.shape[:-1] + c.shape[-1:])

    def back(g, xa=x, ca=c):
        _accum(xa, g[..., :d])
        _accum(ca, g[..., d:].sum(axis=(-3, -2)))

    return Tensor(np.concatenate([x.data, tiled], axis=-1), (x, c), "replicate_concat", back)


def bilinear_pool(x, c) -> Tensor:
    """Every pixel's channel vector times every entry of c, condition-major.

    The definition of `cganlab.conditioning.spatial_bilinear_pool`, which
    returns flatten(bilinear_pool(x, c)) @ weight. Shapes as for
    replicate_concat; out[..., i, j, a*d + e] = x[..., i, j, e] * c[..., a].
    """
    *lead, h, w, d = x.shape
    m = c.shape[-1]
    prod = np.einsum("...hwd,...m->...hwmd", x.data, c.data)

    def back(g, xa=x, ca=c):
        g5 = g.reshape(prod.shape)
        _accum(xa, np.einsum("...hwmd,...m->...hwd", g5, ca.data))
        _accum(ca, np.einsum("...hwmd,...hwd->...m", g5, xa.data))

    return Tensor(prod.reshape(*lead, h, w, m * d), (x, c), "bilinear_pool", back)


_PIXELS = np.arange(28).reshape(-1, 1)


def render_digit(label: int, stream: RngStream, outline=None) -> np.ndarray:
    """One noisy 28x28 uint8 glyph: stroke, box blur, additive noise.

    The reference for `cganlab.data.render_digits`, which renders a
    label's glyphs in batches and must return the same bytes. The stroke mask
    takes every stroke point's squared distance to all 784 pixels. outline is
    the label's stroke as an array of (y, x) points.
    """
    if outline is None:
        outline = np.asarray(_glyph_points(label))
    pts = outline + stream.uniform(-2.0, 2.0, 2)
    r = stream.uniform(1.0, 1.7)
    val = stream.uniform(175.0, 255.0)
    # squared distance from pixel (y, x) to every stroke point, row and
    # column terms computed once per row and per column
    dy2, dx2 = (_PIXELS - pts[:, 0]) ** 2, (_PIXELS - pts[:, 1]) ** 2
    d2 = (dy2[:, None, :] + dx2[None, :, :]).min(axis=2)
    padded = np.zeros((30, 30))
    padded[1:29, 1:29] = np.where(d2 <= r * r, val, 0.0)
    blurred = sum(padded[i:i + 28, j:j + 28] for i in range(3) for j in range(3)) / 9.0
    noisy = blurred + stream.uniform(0.0, 25.0, (28, 28))
    return np.clip(noisy, 0, 255).astype(np.uint8)


@pytest.fixture(scope="session", autouse=True)
def session_tempdir(tmp_path_factory):
    """tempfile's directory, and TMPDIR for subprocesses, inside this session's
    temporary tree, so that no test reads or writes the tiny-digits-3 files
    the CLI keeps under the user's own temporary directory."""
    tmp = tmp_path_factory.mktemp("tempdir")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", str(tmp))
        mp.setenv("TMPDIR", str(tmp))
        yield tmp


@pytest.fixture(scope="session")
def mixture_data():
    from cganlab.data import mixture_3x2
    return mixture_3x2()


class FullDisk(io.FileIO):
    """A file that takes 16 bytes of a write and then reports a full disk."""

    def write(self, data):
        super().write(bytes(data)[:16])
        raise OSError(errno.ENOSPC, "No space left on device")


def assert_same_digits(got, want):
    """Two (train, valid, test) splits hold the same arrays and metadata."""
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.images, w.images) and np.array_equal(g.labels, w.labels)
        assert g.meta == w.meta


@pytest.fixture(scope="session")
def digits_data(tmp_path_factory):
    from cganlab.data import tiny_digits3
    return tiny_digits3(tmp_path_factory.mktemp("digits-src"))


@pytest.fixture
def rng():
    return np.random.default_rng(4151)


@pytest.fixture
def stream():
    return RngStream(4151)
