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

The evaluation protocol mirrors the usual conditional setup: per condition,
fit the window to generator samples, pick sigma on validation data by grid
search, report the mean log-likelihood of the test data with its standard
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError, DimensionError
from .models import generator_forward, sample_noise
from .rng import RngStream
from .tensor import Tensor, no_grad, one_hot


def default_sigma_grid(n=20, lo=0.01, hi=1.0) -> np.ndarray:
    """Log-spaced bandwidths bracketing the [-1, 1] data scale."""
    return np.geomspace(lo, hi, n)


@dataclass
class ParzenConfig:
    sigma_grid: np.ndarray = field(default_factory=default_sigma_grid)
    samples_per_condition: int = 2000
    sigma_mode: str = "per_condition"  # or "global"

    def validate(self):
        grid = np.asarray(self.sigma_grid, dtype=np.float64)
        if grid.size == 0 or not np.all((grid > 0) & np.isfinite(grid)):
            raise ConfigError("sigma grid must be non-empty, finite and strictly positive")
        if np.any(np.diff(grid) <= 0):
            raise ConfigError("sigma grid must be sorted ascending without duplicates")
        if self.samples_per_condition < 1:
            raise ConfigError("samples_per_condition must be positive")
        if self.sigma_mode not in ("per_condition", "global"):
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


# Bytes of the samples gathered for one GEMM in _sq_dists. On one BLAS
# thread, 1 MiB read 6.8 ms against 8.1 ms for 256 KiB at 30 queries x 2,000
# samples x 784 dimensions, and 0.38-0.46 s against 0.58-0.60 s at
# 600 x 10,000 x 784.
DIST_BLOCK = 1024 * 1024


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
    gathered block.
    """
    queries = np.ascontiguousarray(queries)
    samples = np.ascontiguousarray(samples)
    t, dim = queries.shape
    n = samples.shape[0]
    q_norms = np.einsum("td,td->t", queries, queries)[:, None]
    s_norms = np.einsum("nd,nd->n", samples, samples)
    order = _canonical_order(samples, s_norms)
    ns = max(1, min(n, DIST_BLOCK // (8 * max(dim, 1))))
    d2 = np.empty((t, n))
    for b in range(0, n, ns):
        at = order[b:b + ns]
        out = d2[:, b:b + at.size]
        np.matmul(queries, samples[at].T, out=out)
        out *= -2.0
        out += q_norms
        out += s_norms[at]
        np.maximum(out, 0.0, out=out)
    d2.sort(axis=1)
    return d2[:, ::-1].copy()


def _ll_from_d2(d2: np.ndarray, sigma: float, n: int, dim: int) -> np.ndarray:
    k = -d2 / (2.0 * sigma * sigma)  # ascending per row, because d2 rows descend
    m = k[:, -1]
    body = m + np.log(np.exp(k - m[:, None]).sum(axis=1))
    return body - math.log(n) - 0.5 * dim * math.log(2.0 * math.pi * sigma * sigma)


def parzen_log_likelihood(samples, queries, sigma: float) -> np.ndarray:
    """Per-query log-likelihood under the sample-centered Gaussian window.

    All queries' distances are formed at once. The CLI's splits never give a
    condition more test than validation rows, so the [t, n] matrix is no
    larger than the one select_sigma builds.
    """
    samples = np.asarray(samples, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if samples.ndim != 2 or queries.ndim != 2:
        raise DimensionError(f"samples and queries must be 2-D, got {samples.shape} and {queries.shape}")
    if samples.shape[0] < 1:
        raise DataError("need at least one sample")
    if samples.shape[1] != queries.shape[1]:
        raise DimensionError(f"dimension mismatch: samples {samples.shape} vs queries {queries.shape}")
    if not sigma > 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    n, dim = samples.shape
    return _ll_from_d2(_sq_dists(queries, samples), sigma, n, dim)


def _grid_lls(queries, samples, grid) -> list:
    """Per-query LL of `queries` at every grid sigma; distances computed once."""
    d2 = _sq_dists(queries, samples)
    n, dim = samples.shape
    return [_ll_from_d2(d2, float(sigma), n, dim) for sigma in grid]


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
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0):
        raise DataError("sigma grid must be non-empty and strictly positive")
    validation_queries = np.asarray(validation_queries, dtype=np.float64)
    if validation_queries.shape[0] < 1:
        raise DataError("validation set is empty")
    samples = np.asarray(samples, dtype=np.float64)
    at, best_ll = _sweep(_grid_lls(validation_queries, samples, grid))
    return float(grid[at]), best_ll


def generate_samples(g_params, condition: int, count: int, stream: RngStream) -> np.ndarray:
    """Draw `count` generator outputs for a fixed condition, flattened to rows."""
    m = g_params.meta["cond_dim"]
    k = g_params.meta["noise_dim"]
    if not 0 <= condition < m:
        raise ConfigError(f"condition index {condition} out of range 0..{m - 1}")
    z = sample_noise(stream, count, k)
    with no_grad():
        imgs = generator_forward(z, Tensor(one_hot(np.full(count, condition), m)), g_params)
    return imgs.data.reshape(count, -1)


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
            pooled[cond] = (_grid_lls(vq, samples, grid), _grid_lls(tq, samples, grid))
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
