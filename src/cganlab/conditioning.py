"""Ways of injecting a condition vector into a network's data path.

Three constructions over an image x of shape (n, n, d) and a condition c of
length m:

* vector_concat: plain 1-D concatenation [z, c].
* spatial_replicate_concat: c is replicated across all n*n pixel positions
  and appended along the channel axis, giving (n, n, d+m).
* spatial_bilinear_pool: every pixel (a d-vector) is multiplied against every
  entry of c (an outer product), and the flattened products become the new
  channel axis, giving (n, n, d*m). Channel layout is condition-major:
  out[i, j, a*d + b] = x[i, j, b] * c[a].

All three accept a single sample (image rank 3, condition rank 1) or a batch
(image rank 4, condition rank 2) and are differentiable in both arguments.

The two spatial ops also take an optional `weight` of shape [h*w*C, k], C
being their output channel count. With it they return flatten(op(x, c)) @
weight, shape [b, k], computed from the factored algebra without building
the op's channels, and are differentiable in the weight too. Without it they
are the reference definitions above. Replicate-concat's weight gradient is a
tensor.TiedRows, which holds the condition rows' gradient once, not once per
pixel.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, TiedRows, _accum, concat_last, matmul

# Pooled inputs up to this many elements are built and multiplied: below it
# the per-condition loop's fixed cost per condition (row selection, a small
# product, a scatter) outweighs the m-fold saving in multiplications; on the
# mixture preset's 256-row batches the loop took twice as long.
POOL_BUILD_MAX = 1 << 15


def vector_concat(z, c) -> Tensor:
    """[z, c] for 1-D operands (or row-wise for a [b, k] and [b, m] batch)."""
    z, c = Tensor._coerce(z), Tensor._coerce(c)
    if z.ndim not in (1, 2) or c.ndim != z.ndim:
        raise DimensionError(f"vector_concat expects matching 1-D or 2-D operands, got {z.shape} and {c.shape}")
    return concat_last(z, c)


def _norm_spatial_pair(x, c):
    """Promote (image, condition) to batched rank; returns (x, c, was_single)."""
    x, c = Tensor._coerce(x), Tensor._coerce(c)
    if x.ndim == 3 and c.ndim == 1:
        return x.reshape((1,) + x.shape), c.reshape((1,) + c.shape), True
    if x.ndim == 4 and c.ndim == 2:
        if x.shape[0] != c.shape[0]:
            raise DimensionError(f"batch sizes disagree: image {x.shape} vs condition {c.shape}")
        return x, c, False
    raise DimensionError(
        f"expected image rank 3 with condition rank 1, or rank 4 with rank 2; got {x.shape} and {c.shape}")


def _weight_view(weight, layout):
    """The weight tensor and its view as layout + (k,); checks the row count."""
    wt = Tensor._coerce(weight)
    rows = int(np.prod(layout))
    if wt.ndim != 2 or wt.shape[0] != rows:
        raise DimensionError(f"weight of shape {wt.shape} does not fit a conditioned input "
                             f"of {rows} values per sample (pixels, channels: {layout})")
    return wt, wt.data.reshape(layout + (wt.shape[1],))


def spatial_replicate_concat(x, c, weight=None) -> Tensor:
    """Tile c over the spatial grid of x and append it along channels.

    With `weight`, returns flatten(out) @ weight as x @ W_image + c @ sum_p
    W_p,cond: every pixel sees the same c, so the condition rows of all
    pixels collapse into one [m, k] matrix. For the same reason the weight's
    gradient gives every pixel's condition rows the same c^T g; it arrives
    as a TiedRows holding that [m, k] block once.
    """
    xb, cb, single = _norm_spatial_pair(x, c)
    b, h, w, d = xb.shape
    m = cb.shape[1]
    if m == 0:
        raise DimensionError("condition vector must be non-empty")
    if weight is not None:
        out = _replicate_concat_product(xb, cb, *_weight_view(weight, (h * w, d + m)))
        return out.reshape(out.shape[1:]) if single else out
    tiled = np.broadcast_to(cb.data[:, None, None, :], (b, h, w, m))
    out_data = np.concatenate([xb.data, tiled], axis=3)

    def back(g, xa=xb, ca=cb, dd=d):
        _accum(xa, g[..., :dd])
        if ca.wanted:
            _accum(ca, g[..., dd:].sum(axis=(1, 2)))

    out = Tensor(out_data, (xb, cb), "replicate_concat", back)
    return out.reshape(out.shape[1:]) if single else out


def spatial_bilinear_pool(x, c, weight=None) -> Tensor:
    """Per-pixel outer product of the channel vector with c.

    Bilinear in (x, c): output channels are every product x[i,j,b]*c[a],
    stored condition-major so a one-hot c = e_a copies x into channel block a
    and zeroes the others.

    With `weight`, returns flatten(out) @ weight as sum_a c[:, a] * (x @
    W_a), W_a being the rows of condition block a, multiplying only the rows
    where c[:, a] is non-zero: a one-hot c costs one image-width product per
    row instead of m. A pooled input of at most POOL_BUILD_MAX elements is
    built and multiplied instead.
    """
    xb, cb, single = _norm_spatial_pair(x, c)
    b, h, w, d = xb.shape
    m = cb.shape[1]
    if m == 0:
        raise DimensionError("condition vector must be non-empty")
    if weight is not None:
        wt, w4 = _weight_view(weight, (h * w, m, d))
        if b * h * w * m * d > POOL_BUILD_MAX:
            out = _bilinear_pool_product(xb, cb, wt, w4)
        else:
            out = matmul(spatial_bilinear_pool(xb, cb).reshape((b, h * w * m * d)), wt)
        return out.reshape(out.shape[1:]) if single else out
    prod = np.einsum("bhwd,bm->bhwmd", xb.data, cb.data)
    out_data = prod.reshape(b, h, w, m * d)

    def back(g, xa=xb, ca=cb, bb=b, hh=h, ww=w, dd=d, mm=m):
        g5 = g.reshape(bb, hh, ww, mm, dd)
        if xa.wanted:
            _accum(xa, np.einsum("bhwmd,bm->bhwd", g5, ca.data))
        if ca.wanted:
            _accum(ca, np.einsum("bhwmd,bhwd->bm", g5, xa.data))

    out = Tensor(out_data, (xb, cb), "bilinear_pool", back)
    return out.reshape(out.shape[1:]) if single else out


def _replicate_concat_product(xb, cb, wt, w3):
    """flatten(replicate_concat(x, c)) @ W with W viewed as w3 [h*w, d+m, k]."""
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


def _bilinear_pool_product(xb, cb, wt, w4):
    """flatten(bilinear_pool(x, c)) @ W with W viewed as w4 [h*w, m, d, k]."""
    b, h, w, d = xb.shape
    pixels, m, k = h * w, cb.shape[1], w4.shape[3]
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
