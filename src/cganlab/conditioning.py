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
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, _accum, concat_last


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


def spatial_replicate_concat(x, c) -> Tensor:
    """Tile c over the spatial grid of x and append it along channels."""
    xb, cb, single = _norm_spatial_pair(x, c)
    b, h, w, d = xb.shape
    m = cb.shape[1]
    if m == 0:
        raise DimensionError("condition vector must be non-empty")
    tiled = np.broadcast_to(cb.data[:, None, None, :], (b, h, w, m))
    out_data = np.concatenate([xb.data, tiled], axis=3)

    def back(g, xa=xb, ca=cb, dd=d):
        _accum(xa, g[..., :dd])
        if ca.wanted:
            _accum(ca, g[..., dd:].sum(axis=(1, 2)))

    out = Tensor(out_data, (xb, cb), "replicate_concat", back)
    return out.reshape(out.shape[1:]) if single else out


def spatial_bilinear_pool(x, c) -> Tensor:
    """Per-pixel outer product of the channel vector with c.

    Bilinear in (x, c): output channels are every product x[i,j,b]*c[a],
    stored condition-major so a one-hot c = e_a copies x into channel block a
    and zeroes the others.
    """
    xb, cb, single = _norm_spatial_pair(x, c)
    b, h, w, d = xb.shape
    m = cb.shape[1]
    if m == 0:
        raise DimensionError("condition vector must be non-empty")
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
