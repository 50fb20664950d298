"""Ways of injecting a condition vector into a network's data path.

Three constructions over a batch of images x of shape [b, h, w, d] and
conditions c of shape [b, m]:

* vector_concat: row-wise concatenation [z, c] of a [b, k] and a [b, m].
* spatial_replicate_concat: c is replicated across all h*w pixel positions
  and appended along the channel axis, giving [b, h, w, d+m].
* spatial_bilinear_pool: every pixel (a d-vector) is multiplied against every
  entry of c (an outer product), and the flattened products become the new
  channel axis, giving [b, h, w, d*m]. Channel layout is condition-major:
  out[:, i, j, a*d + e] = x[:, i, j, e] * c[:, a].

The two spatial ops feed D's first layer, and take its weight of shape
[h*w*C, k], C being their output channel count. They return flatten(op(x,
c)) @ weight, shape [b, k], computed from the factored algebra without
building the op's channels (except sbp's on single-pixel images, where they
are just x (x) c), and are differentiable in x, c and the weight.
The weight-free definitions above are the tests' references
(tests/conftest.py), which these products must match. Replicate-concat's
weight gradient is a tensor.TiedRows, which holds the condition rows'
gradient once, not once per pixel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, TiedRows, _accum

def vector_concat(z, c) -> Tensor:
    """[z, c] row by row, for a [b, k] and a [b, m] batch."""
    z, c = Tensor._coerce(z), Tensor._coerce(c)
    if z.ndim != 2 or c.ndim != 2 or z.shape[0] != c.shape[0]:
        raise DimensionError(f"vector_concat expects [b, k] and [b, m] operands, "
                             f"got {z.shape} and {c.shape}")
    if z.shape[1] == 0 or c.shape[1] == 0:
        raise DimensionError("concat operands must be non-empty along the last axis")
    split = z.shape[1]

    def back(g, za=z, ca=c):
        _accum(za, g[:, :split])
        _accum(ca, g[:, split:])

    return Tensor(np.concatenate([z.data, c.data], axis=-1), (z, c), "concat", back)


def _spatial_operands(x, c, weight, channels):
    """(x, c, weight, weight viewed as [h*w, *channels(d, m), k]) after checking shapes."""
    x, c, wt = Tensor._coerce(x), Tensor._coerce(c), Tensor._coerce(weight)
    if x.ndim != 4 or c.ndim != 2:
        raise DimensionError(f"expected images [b, h, w, d] and conditions [b, m]; "
                             f"got {x.shape} and {c.shape}")
    if x.shape[0] != c.shape[0]:
        raise DimensionError(f"batch sizes disagree: image {x.shape} vs condition {c.shape}")
    if c.shape[1] == 0:
        raise DimensionError("condition vector must be non-empty")
    _, h, w, d = x.shape
    layout = (h * w,) + channels(d, c.shape[1])
    rows = int(np.prod(layout))
    if wt.ndim != 2 or wt.shape[0] != rows:
        raise DimensionError(f"weight of shape {wt.shape} does not fit a conditioned input "
                             f"of {rows} values per sample (pixels, channels: {layout})")
    return x, c, wt, wt.data.reshape(layout + (wt.shape[1],))


def spatial_replicate_concat(x, c, weight) -> Tensor:
    """flatten(replicate_concat(x, c)) @ weight, with weight viewed as [h*w, d+m, k].

    Computed as x @ W_image + c @ sum_p W_p,cond: every pixel sees the same
    c, so the condition rows of all pixels collapse into one [m, k] matrix.
    For the same reason the weight's gradient gives every pixel's condition
    rows the same c^T g; it arrives as a TiedRows holding that [m, k] block
    once.
    """
    xb, cb, wt, w3 = _spatial_operands(x, c, weight, lambda d, m: (d + m,))
    b, h, w, d = xb.shape
    pixels, k = h * w, w3.shape[2]
    xs = xb.data.reshape(b, pixels * d)
    w_image = w3[:, :d, :].reshape(pixels * d, k)  # a view when d == 1
    w_cond = w3[:, d:, :].sum(axis=0)
    out_data = xs @ w_image + cb.data @ w_cond

    def back(g, xa=xb, ca=cb, wa=wt):
        if xa.wanted:
            _accum(xa, (g @ w_image.T).reshape(xa.shape))
        if ca.wanted:
            _accum(ca, g @ w_cond.T)
        if wa.wanted:
            # every pixel's condition rows get the same gradient, kept once
            _accum(wa, TiedRows((xs.T @ g).reshape(pixels, d, k), ca.data.T @ g))

    return Tensor(out_data, (xb, cb, wt), "replicate_concat", back)


def spatial_bilinear_pool(x, c, weight) -> Tensor:
    """flatten(bilinear_pool(x, c)) @ weight, with weight viewed as [h*w, m, d, k].

    Bilinear pooling's channels are every product x[:, i, j, e] * c[:, a],
    stored condition-major, so a one-hot c = e_a copies x into channel
    block a and zeroes the others. The product is sum_a c[:, a] * (x @ W_a),
    W_a being the rows of condition block a, multiplied only on the rows
    where c[:, a] is non-zero: a one-hot c costs one image-width product per
    row instead of m. A single-pixel image's pooled input is just the outer
    product x (x) c, so it is built and multiplied instead: there the loop's
    fixed cost per condition (row selection, a small product, a scatter)
    outweighs the m-fold saving in multiplications.
    """
    xb, cb, wt, _ = _spatial_operands(x, c, weight, lambda d, m: (m, d))
    _, h, w, _ = xb.shape
    product = _built_pool_product if h * w == 1 else _bilinear_pool_product
    return product(xb, cb, wt)


def _built_pool_product(xb, cb, wt):
    """The pooled input P, built condition-major as [b, h*w*m*d], times the weight."""
    b, h, w, d = xb.shape
    m = cb.shape[1]
    pooled = np.einsum("bhwd,bm->bhwmd", xb.data, cb.data).reshape(b, h * w * m * d)

    def back(g, xa=xb, ca=cb, wa=wt):
        if wa.wanted:
            _accum(wa, pooled.T @ g)
        if not (xa.wanted or ca.wanted):
            return
        g5 = (g @ wa.data.T).reshape(b, h, w, m, d)
        if xa.wanted:
            _accum(xa, np.einsum("bhwmd,bm->bhwd", g5, ca.data))
        if ca.wanted:
            _accum(ca, np.einsum("bhwmd,bhwd->bm", g5, xa.data))

    return Tensor(pooled @ wt.data, (xb, cb, wt), "bilinear_pool", back)


def _bilinear_pool_product(xb, cb, wt):
    """The product condition by condition, with W viewed as [h*w, m, d, k]."""
    b, h, w, d = xb.shape
    pixels, m, k = h * w, cb.shape[1], wt.shape[1]
    w4 = wt.data.reshape(pixels, m, d, k)
    xs = xb.data.reshape(b, pixels * d)
    c = cb.data

    def w_block(a):
        return w4[:, a].reshape(pixels * d, k)  # a view when d == 1

    # (condition, rows where it is non-zero) for every condition present; a
    # condition present in every row takes them as a slice, not a gather
    present = []
    for a in range(m):
        nz = np.flatnonzero(c[:, a])
        if nz.size:
            present.append((a, slice(None) if nz.size == b else nz))
    out_data = np.zeros((b, k))
    for a, r in present:
        out_data[r] += c[r, a, None] * (xs[r] @ w_block(a))

    def back(g, xa=xb, ca=cb, wa=wt):
        dx = np.zeros(xs.shape) if xa.wanted else None
        dw = np.zeros(w4.shape) if wa.wanted else None
        for a, r in present:
            ga = g[r] * c[r, a, None]
            if dx is not None:
                dx[r] += ga @ w_block(a).T
            if dw is not None:
                dw[:, a] = (xs[r].T @ ga).reshape(pixels, d, k)
        if dx is not None:
            _accum(xa, dx.reshape(xa.shape))
        if ca.wanted:
            dc = np.empty((b, m))
            for a in range(m):
                dc[:, a] = np.einsum("bk,bk->b", xs @ w_block(a), g)
            _accum(ca, dc)
        if dw is not None:
            _accum(wa, dw.reshape(wa.shape))

    return Tensor(out_data, (xb, cb, wt), "bilinear_pool", back)
