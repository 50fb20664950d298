"""Gaussian Parzen-window log-likelihood estimation.

A kernel of bandwidth sigma is placed on every generated sample; the score
of a query point q against samples s_1..s_N in D dimensions is

    LL(q) = logsumexp_i(-|q - s_i|^2 / (2 sigma^2)) - log N - (D/2) log(2 pi sigma^2)

evaluated entirely in the log domain with max subtraction, so any finite
input is safe. Squared distances are |q|^2 + |s|^2 - 2 q.s, with q.s from
BLAS GEMM and the result clamped at 0. GEMM rounding depends on where a
sample sits in the matrix, so the samples are visited in a canonical order
(by norm, ties by contents); each query's distances are then sorted once,
before any bandwidth is applied, which fixes the reduction order. Together
they make the result exactly invariant to permutations of the sample set.
Samples are gathered in blocks of bounded size, so memory is bounded by the
distance matrix itself, never by a (queries, samples, dimension) difference
tensor.

Every bandwidth is scored by one kernel, _grid_lls, which sweeps the sorted
distances in blocks of query rows, each block through every grid sigma in
one reused buffer, in the formula's order of operations. Along a sorted row
k - m ascends, so the leading columns where every row of a block is below
UNDERFLOW, whose exp is exactly +0.0, are written as 0.0 without calling
exp; the sum still runs over the whole row. The distance blocks, the row
sorts and the sweep's row blocks are split over the CPUs with
tensor.split_rows. The generator's no-grad forward that draws the samples
is one forward unless BLAS is serial (tensor.BLAS_SERIAL) and its blocks of
GEN_BLOCK rows split over two or more workers (tensor.split_workers). Each
piece of work sees the same operands whichever thread runs it, so every LL
has the bits of the whole-matrix formula, whatever the blocks, threads or
CPUs; the samples have the bits of the whole-batch forward where BLAS gives
a block's rows the whole product's bits (see generate_samples).

The evaluation protocol mirrors the usual conditional setup: per condition,
fit the window to generator samples, pick sigma on validation data by grid
search, report the mean log-likelihood of the test data with its standard
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import ConfigError, ContractError, DataError, DimensionError
from .models import generator_forward, sample_noise
from .rng import RngStream
from .tensor import Tensor, no_grad, one_hot, split_rows, split_workers


def default_sigma_grid(n=20, lo=0.01, hi=1.0) -> np.ndarray:
    """Log-spaced bandwidths bracketing the [-1, 1] data scale."""
    return np.geomspace(lo, hi, n)


def check_sigma_grid(grid, error) -> np.ndarray:
    """grid as a float64 array; `error` unless it is non-empty, finite, strictly
    positive and strictly ascending. The one check of every bandwidth scored."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or not np.all((grid > 0) & np.isfinite(grid)):
        raise error(f"sigma grid must be non-empty, finite and strictly positive, got {grid}")
    if np.any(np.diff(grid) <= 0):
        raise error(f"sigma grid must be sorted ascending without duplicates, got {grid}")
    return grid


SIGMA_MODES = ("per_condition", "global")  # one bandwidth per condition, or one for all


@dataclass
class ParzenConfig:
    sigma_grid: np.ndarray = field(default_factory=default_sigma_grid)
    samples_per_condition: int = 2000
    sigma_mode: str = "per_condition"  # one of SIGMA_MODES

    def validate(self):
        check_sigma_grid(self.sigma_grid, ConfigError)
        if self.samples_per_condition < 1:
            raise ConfigError("samples_per_condition must be positive")
        if self.sigma_mode not in SIGMA_MODES:
            raise ConfigError(f"unknown sigma mode {self.sigma_mode!r}")


@dataclass
class ParzenRow:
    """One evaluated condition; numeric fields are None for missing rows."""

    condition: int
    sigma: float | None
    mean_ll: float | None
    stderr: float | None
    n_test: int
    n_samples: int
    note: str = ""


# Bytes of the samples gathered for one GEMM in _sq_dists, and of the
# distances in one block of query rows that the sigma sweep and the row sort
# take at a time. On one BLAS thread, 1 MiB of samples read 6.8 ms against
# 8.1 ms for 256 KiB at 30 queries x 2,000 samples x 784 dimensions, and
# 0.38-0.46 s against 0.58-0.60 s at 600 x 10,000 x 784; the sweep at the
# latter shape read 100 ms with 1 MiB blocks against 118 ms with 256 KiB on
# two CPUs.
DIST_BLOCK = 1024 * 1024

# Rows of generator output per no-grad forward in generate_samples when BLAS
# is serial and the blocks split. On OpenBLAS a GEMM of 4 or more rows gives
# each row the bits of the whole product at G's shapes; 1-3 rows do not, so
# a tail never stands alone. On two CPUs the mnist-eval benchmark
# (2000 samples, G 512,512) peaked at 114.7 MB RSS with one forward per
# thread's whole range, and at 101.7 MB with 256-row blocks, at the same
# 28.5 ms per condition.
GEN_BLOCK = 256

# Below this, k - m is left out of exp and taken as 0.0: numpy's exp of any
# float64 below -745.1332191019412 is exactly +0.0 (-745.1332191019411 is the
# first to give 5e-324), so a margin of about 5 keeps every bit. The skip
# leaves out 27-38% of the sweep's exp calls at the default grid; at 600
# queries x 10,000 samples x 784 dimensions (one BLAS thread, two CPUs) an
# eval read 0.54 s per condition with it against 0.66 s without.
UNDERFLOW = -750.0


def _canonical_order(samples: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """Sample indices by squared norm, rows of equal norm by their contents.

    The order depends only on the set of rows, never on where each row sits
    in `samples`. Only rows whose norm ties another's are lexsorted, so the
    cost is one argsort when norms are distinct.
    """
    order = np.argsort(sq_norms, kind="stable")
    ranked = sq_norms[order]
    tie = ranked[1:] == ranked[:-1]
    if tie.any():
        at = np.flatnonzero(np.concatenate([tie, [False]]) | np.concatenate([[False], tie]))
        tied = order[at]
        # lexsort's last key is the primary one: the norm keeps each run of
        # equal norms in place, the columns order the rows within it
        keys = np.vstack([samples[tied].T[::-1], ranked[at]])
        order[at] = tied[np.lexsort(keys)]
    return order


def _sq_dists(queries: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Squared distances [t, n], each row sorted descending: the canonical reduction order.

    d2 = |q|^2 + |s|^2 - 2 q.s, with q.s from one BLAS GEMM per block of
    samples, clamped at 0 where cancellation leaves a tiny negative. GEMM
    rounding depends on where a sample sits in its block, so the samples are
    visited in a canonical order (_canonical_order) and gathered into
    C-contiguous blocks of at most DIST_BLOCK bytes (one sample when a single
    row is larger): the same set of samples in any order, or in any array
    layout, gives the same bits. Memory beyond the [t, n] result is one
    gathered block per worker, and one block of sorted rows being reversed.

    The sample blocks, and then the rows' sorts, are cut into contiguous
    ranges on tensor.split_rows's threads. Each block is the same gather and
    GEMM call whichever thread makes it, writing its own columns of d2, and
    each row is sorted on its own, so the bits do not depend on the threads.
    """
    queries = np.ascontiguousarray(queries)
    samples = np.ascontiguousarray(samples)
    t, dim = queries.shape
    n = samples.shape[0]
    q_norms = np.einsum("td,td->t", queries, queries)[:, None]
    s_norms = np.einsum("nd,nd->n", samples, samples)
    order = _canonical_order(samples, s_norms)
    d2 = np.empty((t, n))
    split_rows(_dist_span, n, _query_rows(dim), queries, samples, order, q_norms, s_norms, d2)
    split_rows(_sort_span, t, _query_rows(n), d2)
    return d2


def _dist_span(ns, lo, hi, queries, samples, order, q_norms, s_norms, d2):
    """Fill d2's columns lo..hi-1 from the samples at order[lo:hi], ns samples per GEMM."""
    for b in range(lo, hi, ns):
        at = order[b:min(b + ns, hi)]
        out = d2[:, b:b + at.size]
        np.matmul(queries, samples[at].T, out=out)
        out *= -2.0
        out += q_norms
        out += s_norms[at]
        np.maximum(out, 0.0, out=out)


def _sort_span(rows, lo, hi, d2):
    """Sort d2's rows lo..hi-1 descending, in place, `rows` of them at a time."""
    for r in range(lo, hi, rows):
        block = d2[r:min(r + rows, hi)]
        block.sort(axis=1)
        block[:] = block[:, ::-1]  # numpy copies an overlapping source first


def _query_rows(n: int) -> int:
    """Rows of n floats in DIST_BLOCK bytes (one row when a single row is larger)."""
    return max(1, DIST_BLOCK // (8 * max(n, 1)))


def _grid_lls(d2: np.ndarray, grid, dim: int) -> np.ndarray:
    """LL of each query at each grid sigma, [len(grid), t], from _sq_dists's distances.

    For each sigma and each row, in this order:

        k = -d2 / (2 sigma^2)             ascending, because d2's rows descend
        m = k[-1]                         the row's largest k
        LL = (m + log(sum(exp(k - m)))) - log(n) - (dim / 2) log(2 pi sigma^2)

    The rows are swept in blocks of DIST_BLOCK bytes, every sigma through
    one reused buffer per block, and the blocks are cut into contiguous
    ranges on tensor.split_rows's threads. The leading columns where every
    row of a block has k - m < UNDERFLOW hold exactly 0.0 without a call to
    exp, which returns +0.0 there too. The sum still runs over the whole
    row, so pairwise summation groups the same elements, and every LL has
    the bits of the formula applied to the whole [t, n] matrix at once.
    """
    grid = [float(sigma) for sigma in grid]
    lls = np.empty((len(grid), d2.shape[0]))
    split_rows(_sweep_span, d2.shape[0], _query_rows(d2.shape[1]), d2, grid, dim, lls)
    return lls


def _sweep_span(rows, lo, hi, d2, grid, dim, lls):
    """_grid_lls for query rows lo..hi-1, `rows` of them at a time.

    Per block, each row's m and the underflow cut are found for every sigma
    at once. The buffer's head is zeroed only where an earlier sigma's exp
    left values, and the division, subtraction and exp run only over the
    columns after the cut. The log, the addition of m and the constants run
    over several sigmas at once; they are elementwise, so each LL gets the
    bits of the row-by-row formula.
    """
    n = d2.shape[1]
    buf = np.empty((min(rows, hi - lo), n))
    neg = -np.array([2.0 * sigma * sigma for sigma in grid])  # -d2 / (2 sigma^2) = d2 / neg
    for r in range(lo, hi, rows):
        block = d2[r:min(r + rows, hi)]
        k = buf[:block.shape[0]]
        m = block[:, -1] / neg[:, None]  # [sigma, row]: each row's largest k
        sums = lls[:, r:r + block.shape[0]]
        zeroed = 0  # leading columns of k known to hold 0.0
        for i, cut in enumerate(_underflow_cuts(block, neg, m)):
            if cut > zeroed:
                k[:, zeroed:cut] = 0.0
            zeroed = cut
            tail = k[:, cut:]
            np.divide(block[:, cut:], neg[i], out=tail)
            tail -= m[i][:, None]
            np.exp(tail, out=tail)
            k.sum(axis=1, out=sums[i])
        np.log(sums, out=sums)
        sums += m
    out = lls[:, lo:hi]
    out -= math.log(n)
    out -= np.array([0.5 * dim * math.log(2.0 * math.pi * sigma * sigma) for sigma in grid])[:, None]


def _underflow_cuts(block: np.ndarray, neg: np.ndarray, m: np.ndarray) -> list:
    """Per sigma, leading columns of block where every row's k - m is below UNDERFLOW.

    k = block / neg[i] ascends along each row, and in exact arithmetic
    k - m < UNDERFLOW where d2 exceeds the row's last, smallest, d2 by more
    than -UNDERFLOW * 2 sigma^2. One binary search per row finds that column
    for every sigma, with a margin of 1 against rounding. The computed k - m
    at each cut's last column is then checked, which covers the whole head,
    and a cut that fails the check becomes 0. A block with a NaN distance,
    which sorts to the front of its row, gets no cut.
    """
    n = block.shape[1]
    if n == 1 or np.isnan(block[:, 0]).any():
        return [0] * neg.size
    ascending = np.arange(n - 1, -1, -1)
    spans = (UNDERFLOW - 1.0) * neg
    within = np.max([np.searchsorted(row, row[-1] + spans, side="right", sorter=ascending)
                     for row in block], axis=0)
    cuts = n - within
    below = (block[:, np.maximum(cuts - 1, 0)] / neg - m.T < UNDERFLOW).all(axis=0)
    return np.where(below, cuts, 0).tolist()


def parzen_log_likelihood(samples, queries, sigma: float) -> np.ndarray:
    """Per-query log-likelihood under the sample-centered Gaussian window.

    The blocked sweep of _grid_lls with a one-sigma grid. All queries'
    distances are formed at once. The CLI's splits never give a condition
    more test than validation rows, so the [t, n] matrix is no larger than
    the one select_sigma builds.
    """
    samples = np.asarray(samples, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if samples.ndim != 2 or queries.ndim != 2:
        raise DimensionError(f"samples and queries must be 2-D, got {samples.shape} and {queries.shape}")
    if samples.shape[0] < 1:
        raise DataError("need at least one sample")
    if samples.shape[1] != queries.shape[1]:
        raise DimensionError(f"dimension mismatch: samples {samples.shape} vs queries {queries.shape}")
    grid = check_sigma_grid([sigma], DataError)
    return _grid_lls(_sq_dists(queries, samples), grid, samples.shape[1])[0]


def _sweep(lls) -> tuple:
    """Index of the grid sigma whose LL vector in `lls` has the highest mean.

    lls[i] holds the LLs of every query at grid[i]. Ties go to the smaller
    sigma. Returns (index, mean LL).
    """
    best_at, best_ll = None, -np.inf
    for at, ll in enumerate(lls):
        mean_ll = float(ll.mean())
        if mean_ll > best_ll:
            best_at, best_ll = at, mean_ll
    if best_at is None:
        raise ContractError("no sigma on the grid gives a finite mean log-likelihood")
    return best_at, best_ll


def select_sigma(samples, validation_queries, grid) -> tuple:
    """Grid sigma maximizing mean validation LL; ties go to the smaller sigma."""
    grid = check_sigma_grid(grid, DataError)
    validation_queries = np.asarray(validation_queries, dtype=np.float64)
    if validation_queries.shape[0] < 1:
        raise DataError("validation set is empty")
    samples = np.asarray(samples, dtype=np.float64)
    at, best_ll = _sweep(_grid_lls(_sq_dists(validation_queries, samples), grid,
                                   samples.shape[1]))
    return float(grid[at]), best_ll


def generate_samples(g_params, condition: int, count: int, stream: RngStream) -> np.ndarray:
    """Draw `count` generator outputs for a fixed condition, flattened to rows.

    The whole count is one no-grad generator_forward, whose own array is
    returned, unless BLAS is serial (tensor.BLAS_SERIAL) and blocks of
    GEN_BLOCK rows split over two or more workers (tensor.split_workers).
    Then each block, a shorter tail joining the block before it, is one
    forward, and the blocks are cut into ranges on tensor.split_rows's
    threads, each writing its rows of one [count, dim] array. A block's
    products are its rows of the whole batch's products, the first of them
    a GEMM of at least 4 rows. The OpenBLAS build this was tested on gives
    such a GEMM's rows the bits of the whole product's at G's shapes, so
    there the output is the same bits however it is cut; another BLAS may
    round a block otherwise.
    """
    m = g_params.meta["cond_dim"]
    k = g_params.meta["noise_dim"]
    if not 0 <= condition < m:
        raise ConfigError(f"condition index {condition} out of range 0..{m - 1}")
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    z = sample_noise(stream, count, k).data
    c = one_hot(np.full(count, condition), m)
    if not (tensor.BLAS_SERIAL and split_workers(count, GEN_BLOCK) >= 2):
        return _generate(z, c, g_params).reshape(count, -1)
    out = np.empty((count, int(np.prod(g_params.meta["image_shape"]))))
    split_rows(_generate_span, count, GEN_BLOCK, z, c, g_params, out)
    return out


def _generate(z, c, g_params) -> np.ndarray:
    """G(z, c)'s images, with no graph. Each call enters no_grad() itself: a
    pool thread does not inherit its caller's context."""
    with no_grad():
        return generator_forward(Tensor(z), Tensor(c), g_params).data


def _generate_span(rows, lo, hi, z, c, g_params, out):
    """Fill out's rows lo..hi-1 from G, `rows` at a time; a tail of fewer
    than `rows` rows joins the block before it."""
    r = lo
    while r < hi:
        stop = r + rows if hi - r >= 2 * rows else hi
        out[r:stop] = _generate(z[r:stop], c[r:stop], g_params).reshape(stop - r, -1)
        r = stop


def conditional_eval(g_params, valid, test, cfg: ParzenConfig, seed,
                     condition_map=None) -> list:
    """Per-condition Parzen report rows for a generator checkpoint.

    condition_map optionally remaps the condition fed to the generator
    (used by shuffled-condition controls); evaluation data is always the
    true condition's split.

    Conditions are evaluated one at a time: each one's samples are dropped
    before the next is generated. Global sigma mode keeps, per condition,
    only the validation and test LLs at every grid sigma, and pools them
    in condition order once all are done.
    """
    cfg.validate()
    m = g_params.meta["cond_dim"]
    if valid.cond_dim != m or test.cond_dim != m:
        raise DataError(f"dataset label width {test.cond_dim} != generator condition width {m}")
    root = RngStream(seed, ("parzen-eval",))
    valid_labels = valid.label_indices()
    test_labels = test.label_indices()
    grid = np.asarray(cfg.sigma_grid, dtype=np.float64)
    n_samples = int(cfg.samples_per_condition)

    rows = {}
    pooled = {}  # condition -> (validation LLs, test LLs) per grid sigma
    for cond in range(m):
        vq = valid.images[valid_labels == cond].reshape(-1, int(np.prod(valid.image_shape)))
        tq = test.images[test_labels == cond].reshape(-1, int(np.prod(test.image_shape)))
        if vq.shape[0] == 0 or tq.shape[0] == 0:
            missing = "validation" if vq.shape[0] == 0 else "test"
            rows[cond] = ParzenRow(cond, None, None, None, tq.shape[0], 0,
                                   note=f"condition {cond} missing from {missing} split")
            continue
        gen_cond = condition_map[cond] if condition_map is not None else cond
        samples = generate_samples(g_params, gen_cond, n_samples, root.split(f"cond-{cond}"))
        if cfg.sigma_mode == "global":
            dim = samples.shape[1]
            pooled[cond] = (_grid_lls(_sq_dists(vq, samples), grid, dim),
                            _grid_lls(_sq_dists(tq, samples), grid, dim))
        else:
            sigma, _ = select_sigma(samples, vq, grid)
            rows[cond] = _scored_row(cond, sigma, parzen_log_likelihood(samples, tq, sigma),
                                     grid, n_samples)
        del samples  # so the next condition's generator pass does not overlap it

    if cfg.sigma_mode == "global":
        if not pooled:
            raise DataError("no evaluable conditions for global sigma selection")
        at, _ = _sweep([np.concatenate([val[i] for val, _ in pooled.values()])
                        for i in range(grid.size)])
        for cond, (_, test_lls) in pooled.items():
            rows[cond] = _scored_row(cond, float(grid[at]), test_lls[at], grid, n_samples)
    return [rows[cond] for cond in range(m)]


def _scored_row(cond, sigma, lls, grid, n_samples) -> ParzenRow:
    """Report row from the test LLs; the note flags a sigma on the grid's edge."""
    mean_ll = float(lls.mean())
    stderr = float(lls.std(ddof=1) / math.sqrt(lls.shape[0])) if lls.shape[0] > 1 else 0.0
    lo, hi = float(grid[0]), float(grid[-1])
    note = ""
    if sigma in (lo, hi):
        note = (f"condition {cond}: sigma {sigma!r} is the "
                f"{'smallest' if sigma == lo else 'largest'} on the grid [{lo!r}, {hi!r}]; "
                f"the best bandwidth may lie outside it")
    return ParzenRow(cond, sigma, mean_ll, stderr, int(lls.shape[0]), n_samples, note)


# ----------------------------------------------------------------------
# report serialization


CSV_HEADER = "condition,sigma,mean_ll,stderr,n_test,n_samples"


def report_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        sigma = "" if r.sigma is None else repr(r.sigma)
        mean_ll = "" if r.mean_ll is None else repr(r.mean_ll)
        stderr = "" if r.stderr is None else repr(r.stderr)
        lines.append(f"{r.condition},{sigma},{mean_ll},{stderr},{r.n_test},{r.n_samples}")
    return "\n".join(lines) + "\n"


def format_table(model_rows: dict, label_names=None) -> str:
    """Aligned text table: one column per condition, one row per model."""
    conds = sorted({r.condition for rows in model_rows.values() for r in rows})
    if label_names is None:
        label_names = [str(c) for c in conds]
    name_w = max([len("model")] + [len(str(n)) for n in model_rows])
    col_w = max([7] + [len(str(label_names[c])) + 2 for c in conds])
    header = "model".ljust(name_w) + " |" + "".join(str(label_names[c]).rjust(col_w) for c in conds)
    sep = "-" * name_w + "-+" + "-" * (col_w * len(conds))
    lines = [header, sep]
    for model, rows in model_rows.items():
        by_cond = {r.condition: r for r in rows}
        cells = []
        for c in conds:
            r = by_cond.get(c)
            cells.append(("n/a" if r is None or r.mean_ll is None else f"{r.mean_ll:.1f}").rjust(col_w))
        lines.append(str(model).ljust(name_w) + " |" + "".join(cells))
    return "\n".join(lines) + "\n"
