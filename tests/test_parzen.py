import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cganlab import parzen, tensor
from cganlab.data import mixture_3x2_spec, synth_mixture, split
from cganlab.errors import ConfigError, ContractError, DataError, DimensionError
from cganlab.models import NetworkSpec, build_generator, generator_forward
from cganlab.parzen import (ParzenConfig, conditional_eval, default_sigma_grid,
                            format_table, generate_samples, parzen_log_likelihood,
                            report_csv, select_sigma)
from cganlab.rng import RngStream
from cganlab.tensor import Tensor, one_hot
from conftest import parzen_ll

mpmath.mp.dps = 50


def direct_ll(samples, queries, sigma):
    """Extended-precision direct density summation."""
    out = []
    n, dim = samples.shape
    norm = (mpmath.mpf(2) * mpmath.pi * mpmath.mpf(sigma) ** 2) ** (mpmath.mpf(dim) / 2)
    for q in queries:
        total = mpmath.mpf(0)
        for s in samples:
            d2 = sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(q, s))
            total += mpmath.exp(-d2 / (2 * mpmath.mpf(sigma) ** 2))
        out.append(float(mpmath.log(total / n / norm)))
    return np.array(out)


# ----------------------------------------------------------------------
# estimator core


def test_kernel_peak_case():
    ll = parzen_log_likelihood(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)
    assert abs(ll[0] + math.log(2.0 * math.pi)) < 1e-12


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_kernel_peak_general_dimension(dim):
    ll = parzen_log_likelihood(np.zeros((1, dim)), np.zeros((1, dim)), 1.0)
    assert abs(ll[0] + 0.5 * dim * math.log(2.0 * math.pi)) < 1e-12


def test_two_sample_hand_case():
    samples = np.array([[-1.0], [1.0]])
    ll = parzen_log_likelihood(samples, np.array([[0.0]]), 1.0)
    assert abs(ll[0] - (-0.5 - 0.5 * math.log(2.0 * math.pi))) < 1e-12
    np.testing.assert_allclose(ll, direct_ll(samples, np.array([[0.0]]), 1.0), atol=1e-12)


def test_duplicating_samples_changes_nothing(rng):
    samples = rng.normal(size=(20, 3))
    queries = rng.normal(size=(7, 3))
    base = parzen_log_likelihood(samples, queries, 0.5)
    doubled = parzen_log_likelihood(np.concatenate([samples, samples]), queries, 0.5)
    np.testing.assert_allclose(doubled, base, atol=1e-12)


def test_permutation_invariance_is_exact(rng):
    samples = rng.normal(size=(40, 4))
    queries = rng.normal(size=(11, 4))
    base = parzen_log_likelihood(samples, queries, 0.3)
    perm = parzen_log_likelihood(samples[rng.permutation(40)], queries, 0.3)
    assert np.array_equal(base, perm)


def test_translation_invariance(rng):
    samples = rng.normal(size=(25, 2))
    queries = rng.normal(size=(9, 2))
    shift = rng.normal(size=2) * 10.0
    base = parzen_log_likelihood(samples, queries, 0.7)
    moved = parzen_log_likelihood(samples + shift, queries + shift, 0.7)
    np.testing.assert_allclose(moved, base, atol=1e-10)


def test_matches_extended_precision_on_random_instances(rng):
    for _ in range(10):
        n, t, dim = rng.integers(1, 50), rng.integers(1, 20), rng.integers(1, 10)
        samples = rng.normal(size=(n, dim))
        queries = rng.normal(size=(t, dim))
        sigma = float(rng.uniform(0.05, 2.0))
        got = parzen_log_likelihood(samples, queries, sigma)
        np.testing.assert_allclose(got, direct_ll(samples, queries, sigma), atol=1e-10)


def test_no_overflow_for_distant_queries():
    ll = parzen_log_likelihood(np.zeros((3, 2)), np.full((1, 2), 1e6), 0.01)
    assert np.isfinite(ll).all()


def test_density_normalizes_in_one_dimension(rng):
    samples = rng.normal(size=(6, 1))
    xs = np.linspace(-8.0, 8.0, 4001).reshape(-1, 1)
    ll = parzen_log_likelihood(samples, xs, 0.4)
    integral = np.trapezoid(np.exp(ll), xs[:, 0])
    assert abs(integral - 1.0) < 1e-3


# ----------------------------------------------------------------------
# the blocked sigma sweep


def descending(d2):
    return np.sort(d2, axis=1)[:, ::-1].copy()


def sweep_cases(rng):
    """name -> [t, n] distances with descending rows, as _sq_dists returns them."""
    last = rng.uniform(0.0, 1.0, (11, 1))
    ties = rng.integers(0, 4, (13, 70)) * 600.0
    ties[0] = 0.0
    ties[1, -5:] = 0.0
    huge = 1e300 * rng.uniform(0.5, 1.0, (6, 30))
    huge[3:, -1] = 1.0  # a finite m beside k of -inf
    return {
        "one row": descending(rng.uniform(0.0, 50.0, (1, 40))),
        "rows not a multiple of the block": descending(rng.uniform(0.0, 50.0, (37, 53))),
        "one sample": rng.uniform(0.0, 50.0, (9, 1)),
        "wide rows": descending(rng.uniform(0.0, 3000.0, (5, 300))),
        # every column but the last is over 750 * 2 sigma^2 beyond it, even at sigma 1
        "only the last column survives": descending(
            np.hstack([last + rng.uniform(2000.0, 4000.0, (11, 60)), last])),
        "exact zeros and ties": descending(ties),
        "near 1e300, where k overflows": descending(huge),
    }


def assert_same_bits(got, want):
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (got, want)


# the budget in rows' bytes: half a row makes every row larger than the
# budget, and None keeps the module's own
@pytest.mark.parametrize("case", list(sweep_cases(np.random.default_rng(0))))
@pytest.mark.parametrize("rows", [0.5, 1, 4, None])
@pytest.mark.parametrize("workers", [1, 2])
def test_blocked_sweep_matches_whole_matrix_formula(case, rows, workers, monkeypatch):
    d2 = sweep_cases(np.random.default_rng(0))[case]
    if rows is not None:
        monkeypatch.setattr(parzen, "DIST_BLOCK", int(rows * 8 * d2.shape[1]))
    monkeypatch.setattr(tensor, "WORKERS", workers)
    grid = default_sigma_grid()
    got = parzen._grid_lls(d2, grid, 7)
    assert got.shape == (grid.size, d2.shape[0])
    for i, sigma in enumerate(grid):
        assert_same_bits(got[i], parzen_ll(d2, sigma, 7))


def test_underflow_cut_leaves_exp_every_column_at_or_above_the_constant():
    """Whatever the data, no skipped column has a computed k - m at or above
    UNDERFLOW. Near 4e15, k's rounding outgrows the search's margin: d2 of
    4e15 + 0.5 is cut at sigma 0.01, yet its k - m rounds to 0."""
    cases = sweep_cases(np.random.default_rng(0))
    cases["k rounds past the margin"] = 4e15 + 0.5 * np.tile(np.arange(6.0)[::-1], (3, 1))
    neg = -2.0 * default_sigma_grid() ** 2
    for name, d2 in cases.items():
        m = d2[:, -1] / neg[:, None]
        for i, cut in enumerate(parzen._underflow_cuts(d2, neg, m)):
            assert (d2[:, :cut] / neg[i] - m[i][:, None] < parzen.UNDERFLOW).all(), (name, i)


def test_underflow_cut_takes_every_column_but_the_last():
    d2 = sweep_cases(np.random.default_rng(0))["only the last column survives"]
    neg = -2.0 * default_sigma_grid() ** 2
    m = d2[:, -1] / neg[:, None]
    assert parzen._underflow_cuts(d2, neg, m) == [d2.shape[1] - 1] * neg.size


def test_underflow_cut_is_zero_for_a_block_with_nan():
    d2 = descending(np.random.default_rng(1).uniform(0.0, 5000.0, (4, 30)))
    d2[2, :3] = np.nan  # where the sort puts NaN
    neg = -2.0 * default_sigma_grid() ** 2
    assert parzen._underflow_cuts(d2, neg, d2[:, -1] / neg[:, None]) == [0] * neg.size
    got = parzen._grid_lls(d2, default_sigma_grid(), 3)
    for i, sigma in enumerate(default_sigma_grid()):
        want = parzen_ll(d2, sigma, 3)
        assert np.isnan(got[i, 2]) and np.array_equal(got[i], want, equal_nan=True)


def test_exp_below_the_underflow_constant_is_exactly_zero():
    """The sweep writes 0.0 where exp would get an argument below UNDERFLOW;
    exp must give exactly +0.0 there, contiguous or strided."""
    edge = -745.1332191019412  # the largest argument whose exp is +0.0
    assert parzen.UNDERFLOW < edge and np.exp(edge) == 0.0
    x = np.array([parzen.UNDERFLOW, np.nextafter(parzen.UNDERFLOW, -np.inf), -751.5, -1e4,
                  -1e300, -np.inf] * 7)
    block = np.tile(x, (3, 1))
    for view in (x, x[::2], x[1::3], x[::-1], block[:, 1:], block.T):
        out = np.exp(view)
        assert (out == 0.0).all() and not np.signbit(out).any()
    tail = block[:, 2:]
    np.exp(tail, out=tail)  # in place over a row slice, as the sweep does
    assert (block[:, 2:] == 0.0).all() and not np.signbit(block[:, 2:]).any()


def whole_tensor_sq_dists(queries, samples):
    """The reference distances: one (t, n, d) difference tensor, sorted descending."""
    diff = queries[:, None, :] - samples[None, :, :]
    d2 = np.einsum("tnd,tnd->tn", diff, diff)
    return np.sort(d2, axis=1)[:, ::-1]


def assert_near_reference(got, queries, samples):
    """Entry-wise |got - reference| <= 1e-13 (|q|^2 + |s|^2 + 1), with the row's
    largest |s|^2, since sorting moves each distance away from its sample."""
    bound = 1e-13 * ((queries ** 2).sum(axis=1)[:, None] + (samples ** 2).sum(axis=1).max() + 1.0)
    err = np.abs(got - whole_tensor_sq_dists(queries, samples))
    assert (err <= bound).all(), float((err / bound).max())


# one sample row per block; blocks of 16 rows with a partial last block; one
# block of every sample; more than the whole difference tensor; and the
# module's own budget, which at 784 dimensions splits 400 samples into blocks
# of 167, 167 and 66 rows, where GEMM rounding depends on a row's block
def dist_budgets(queries, samples):
    dim = samples.shape[1]
    return (8 * dim, 16 * 8 * dim, 4 * samples.size * 8, 2 * queries.size * samples.size * 8,
            parzen.DIST_BLOCK)


@pytest.mark.parametrize("dim", [2, 64, 784])
def test_gemm_distances_match_einsum_and_ignore_sample_order(rng, monkeypatch, dim):
    queries = rng.normal(size=(9, dim))
    samples = rng.normal(size=(400, dim)) * 3.0
    samples[::45] = queries  # distance 0 up to rounding, which the clamp keeps >= 0
    for budget in dist_budgets(queries, samples):
        monkeypatch.setattr(parzen, "DIST_BLOCK", budget)
        got = parzen._sq_dists(queries, samples)
        assert (got >= 0.0).all()
        assert_near_reference(got, queries, samples)
        assert np.array_equal(parzen._sq_dists(queries, samples[::-1]), got), budget
        assert np.array_equal(parzen._sq_dists(queries, samples[rng.permutation(400)]), got), budget


@pytest.mark.parametrize("dim", [2, 64, 784])
def test_tied_norms_ignore_sample_order(rng, monkeypatch, dim):
    """Sign-flipped copies of a row, and their column-reversed copies, tie on
    the norm, so the canonical order rests on the rows' contents."""
    queries = rng.normal(size=(7, dim))
    base = rng.normal(size=(4, dim))
    signs = rng.choice([-1.0, 1.0], size=(100, dim))
    samples = (base[:, None, :] * signs[None]).reshape(-1, dim)
    samples[1::2] = samples[1::2, ::-1]
    norms = np.einsum("nd,nd->n", samples, samples)
    assert np.unique(norms).size <= 8
    for budget in dist_budgets(queries, samples):
        monkeypatch.setattr(parzen, "DIST_BLOCK", budget)
        got = parzen._sq_dists(queries, samples)
        assert_near_reference(got, queries, samples)
        for _ in range(2):
            shuffled = samples[rng.permutation(samples.shape[0])]
            assert np.array_equal(parzen._sq_dists(queries, shuffled), got), budget


def test_array_layout_never_changes_a_bit(rng):
    queries = rng.normal(size=(6, 64))
    samples = rng.normal(size=(90, 64))
    want = parzen._sq_dists(queries, samples)
    assert np.array_equal(parzen._sq_dists(np.asfortranarray(queries),
                                           np.asfortranarray(samples)), want)
    wide_q = np.zeros((12, 128))
    wide_q[::2, ::2] = queries
    wide_s = np.zeros((180, 128))
    wide_s[::2, ::2] = samples
    assert np.array_equal(parzen._sq_dists(wide_q[::2, ::2], wide_s[::2, ::2]), want)


def test_select_sigma_memory_is_bounded(rng):
    """30 x 2000 x 784 (the mnist-eval shape): the difference tensor alone
    would be 376 MB; the kernel needs the [t, n] distances plus one block of
    gathered samples."""
    samples = rng.uniform(-1.0, 1.0, size=(2000, 784))
    queries = rng.uniform(-1.0, 1.0, size=(30, 784))
    tracemalloc.start()
    try:
        select_sigma(samples, queries, default_sigma_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), sigma=st.floats(0.05, 3.0))
def test_permutation_property(seed, sigma):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(15, 2))
    queries = rng.normal(size=(5, 2))
    a = parzen_log_likelihood(samples, queries, sigma)
    b = parzen_log_likelihood(samples[::-1], queries, sigma)
    assert np.array_equal(a, b)


def test_input_contracts():
    with pytest.raises(DataError):
        parzen_log_likelihood(np.zeros((0, 2)), np.zeros((1, 2)), 1.0)
    with pytest.raises(DataError):
        parzen_log_likelihood(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
    with pytest.raises(DimensionError):
        parzen_log_likelihood(np.zeros((1, 2)), np.zeros((1, 3)), 1.0)


@pytest.mark.parametrize("sigma", [np.inf, np.nan, -np.inf, -1.0])
def test_likelihood_refuses_a_sigma_the_grid_check_refuses(sigma):
    with pytest.raises(DataError, match="sigma"):
        parzen_log_likelihood(np.zeros((1, 2)), np.zeros((1, 2)), sigma)


@pytest.mark.parametrize("grid", [[np.nan, 0.5], [0.5, np.inf], [0.5, 0.5, 0.2], [0.2, 0.5, 0.5],
                                  [0.5, 0.2], [0.0, 0.5], [-0.5], []])
def test_one_sigma_grid_check_for_selection_and_config(grid):
    """select_sigma refuses what ParzenConfig.validate refuses, each with its own error."""
    with pytest.raises(DataError, match="sigma grid"):
        select_sigma(np.zeros((2, 1)), np.zeros((1, 1)), grid)
    with pytest.raises(ConfigError, match="sigma grid"):
        ParzenConfig(sigma_grid=np.array(grid, dtype=np.float64)).validate()


# ----------------------------------------------------------------------
# bandwidth selection


def test_single_element_grid():
    sigma, _ = select_sigma(np.zeros((5, 1)), np.zeros((3, 1)), [0.25])
    assert sigma == 0.25


def test_validation_equal_to_samples_prefers_smallest_sigma(rng):
    samples = rng.normal(size=(50, 2))
    grid = default_sigma_grid()
    sigma, _ = select_sigma(samples, samples, grid)
    assert sigma == grid[0]


def test_gaussian_selection_is_interior_and_stable(rng):
    samples = rng.normal(size=(500, 1))
    valid = rng.normal(size=(400, 1))
    grid = np.geomspace(0.02, 3.0, 24)
    sigma, best = select_sigma(samples, valid, grid)
    idx = int(np.argmin(np.abs(grid - sigma)))
    assert 0 < idx < len(grid) - 1
    for j in (idx - 1, idx + 1):
        neighbor = float(parzen_log_likelihood(samples, valid, grid[j]).mean())
        assert best - neighbor < 0.1


def test_selection_tie_breaks_toward_smaller_sigma():
    # one faraway sample: every grid sigma floors the kernel sum identically
    samples = np.array([[1e5]])
    valid = np.zeros((2, 1))
    grid = np.array([0.5, 1.0])
    lls = [float(parzen_log_likelihood(samples, valid, s).mean()) for s in grid]
    sigma, _ = select_sigma(samples, valid, grid)
    if lls[0] == lls[1]:
        assert sigma == 0.5


def test_selection_input_contracts():
    with pytest.raises(DataError):
        select_sigma(np.zeros((2, 1)), np.zeros((1, 1)), [])
    with pytest.raises(DataError):
        select_sigma(np.zeros((2, 1)), np.zeros((0, 1)), [0.5])
    with pytest.raises(ContractError):  # no finite LL anywhere, e.g. NaN samples
        select_sigma(np.full((2, 1), np.nan), np.zeros((1, 1)), [0.5, 1.0])


# ----------------------------------------------------------------------
# conditional evaluation


@pytest.fixture(scope="module")
def tiny_setup():
    ds, oracle = synth_mixture(mixture_3x2_spec(), 120, seed=31)
    train_ds, valid_ds, test_ds = split(ds, (0.5, 0.25, 0.25), 31)
    g = build_generator(train_ds.image_shape, train_ds.cond_dim, 4,
                        NetworkSpec([8]), RngStream(3, ("g",)))
    return train_ds, valid_ds, test_ds, g


def test_generate_samples_match_a_graph_building_forward():
    g = build_generator((28, 28, 1), 10, 16, NetworkSpec([64, 64]), RngStream(5, ("g",)))
    got = generate_samples(g, 3, 500, RngStream(9, ("s",)))
    z = Tensor(RngStream(9, ("s",)).uniform(-1.0, 1.0, (500, 16)))
    want = generator_forward(z, Tensor(one_hot(np.full(500, 3), 10)), g)
    assert want.parents and np.array_equal(got, want.data.reshape(500, -1))


# counts around multiples of GEN_BLOCK (256): a tail of 1-255 rows, which
# joins the block before it, none, and counts under two blocks
POOLED_COUNTS = [1, 3, 4, 255, 256, 511, 512, 513, 1023, 1024, 1025, 2000, 2001]


def record_generate_calls(monkeypatch) -> list:
    """Make parzen's generator_forward record, per call, (rows, thread, whether
    a graph is built, the output's array)."""
    calls = []

    def recorded(z, c, params, forward=generator_forward):
        out = forward(z, c, params)
        calls.append((z.shape[0], threading.get_ident(), tensor._recording.get(), out.data))
        return out

    monkeypatch.setattr(parzen, "generator_forward", recorded)
    return calls


@pytest.mark.parametrize("count", POOLED_COUNTS)
def test_pooled_generate_samples_match_a_graph_building_forward(count, monkeypatch):
    """With BLAS serial and two workers, blocks of GEN_BLOCK rows, a short tail
    joined to the block before it, run on both threads without a graph and
    give the bytes of one whole-batch forward that builds one."""
    monkeypatch.setattr(tensor, "BLAS_SERIAL", True)
    monkeypatch.setattr(tensor, "WORKERS", 2)
    calls = record_generate_calls(monkeypatch)
    g = build_generator((28, 28, 1), 10, 16, NetworkSpec([64, 64]), RngStream(5, ("g",)))
    got = generate_samples(g, 3, count, RngStream(9, ("s",)))
    z = Tensor(RngStream(9, ("s",)).uniform(-1.0, 1.0, (count, 16)))
    want = generator_forward(z, Tensor(one_hot(np.full(count, 3), 10)), g)
    assert want.parents and got.tobytes() == want.data.reshape(count, -1).tobytes()
    blocks = [call[0] for call in calls]
    assert sum(blocks) == count and not any(call[2] for call in calls)
    assert blocks == [count] if count < 2 * parzen.GEN_BLOCK else (
        min(blocks) >= parzen.GEN_BLOCK and max(blocks) < 2 * parzen.GEN_BLOCK)
    if count > 3 * parzen.GEN_BLOCK:  # four blocks or more: one range per worker
        assert len({call[1] for call in calls}) == 2


@pytest.mark.parametrize("serial, workers", [(False, 2), (True, 1)])
def test_generate_samples_is_one_forward_unless_split(serial, workers, monkeypatch):
    """When BLAS has threads of its own, or there is one worker, the whole
    count is one forward, whose array is returned as it is."""
    monkeypatch.setattr(tensor, "BLAS_SERIAL", serial)
    monkeypatch.setattr(tensor, "WORKERS", workers)
    calls = record_generate_calls(monkeypatch)
    g = build_generator((1, 1, 2), 3, 4, NetworkSpec([8]), RngStream(5, ("g",)))
    samples = generate_samples(g, 1, 2001, RngStream(9, ("s",)))
    assert len(calls) == 1 and calls[0][0] == 2001 and np.shares_memory(samples, calls[0][3])


def generate_peak_and_output(pooled, monkeypatch) -> tuple:
    """Traced peak bytes of 2000 samples of a mnist-preset-sized G, and the samples,
    with BLAS taken as serial (the pooled blocks on two workers) or not (one forward)."""
    monkeypatch.setattr(tensor, "BLAS_SERIAL", pooled)
    monkeypatch.setattr(tensor, "WORKERS", 2)
    g = build_generator((28, 28, 1), 10, 64, NetworkSpec([512, 512]), RngStream(5, ("g",)))
    tracemalloc.start()
    try:
        out = generate_samples(g, 0, 2000, RngStream(9, ("s",)))
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_generate_samples_memory_is_bounded(monkeypatch):
    """Without a graph, each layer's activations are freed once the next
    layer has used them."""
    peak, out = generate_peak_and_output(False, monkeypatch)
    assert peak < 4 * out.nbytes, (peak, out.nbytes)


def test_pooled_generate_samples_memory_is_bounded(monkeypatch):
    """The same bound when the blocks run on two threads."""
    peak, out = generate_peak_and_output(True, monkeypatch)
    assert peak < 4 * out.nbytes, (peak, out.nbytes)


def test_conditional_eval_row_contract(tiny_setup):
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=50)
    rows = conditional_eval(g, valid_ds, test_ds, cfg, seed=5)
    assert [r.condition for r in rows] == [0, 1, 2]
    for r in rows:
        assert r.sigma in cfg.sigma_grid
        assert np.isfinite(r.mean_ll) and r.stderr >= 0.0
        assert r.n_samples == 50 and r.n_test == test_ds.labels[:, r.condition].sum()


def test_conditional_eval_is_deterministic(tiny_setup):
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=40)
    a = conditional_eval(g, valid_ds, test_ds, cfg, seed=6)
    b = conditional_eval(g, valid_ds, test_ds, cfg, seed=6)
    assert [(r.condition, r.sigma, r.mean_ll, r.stderr) for r in a] \
        == [(r.condition, r.sigma, r.mean_ll, r.stderr) for r in b]


def test_conditional_eval_matches_direct_summation_oracle(tiny_setup):
    """The reported statistic must equal an independent evaluation of the
    same generated sample set."""
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=30)
    rows = conditional_eval(g, valid_ds, test_ds, cfg, seed=11)
    root = RngStream(11, ("parzen-eval",))
    tl = test_ds.label_indices()
    for r in rows:
        samples = generate_samples(g, r.condition, 30, root.split(f"cond-{r.condition}"))
        tq = test_ds.images[tl == r.condition].reshape(-1, 2)
        want = float(direct_ll(samples, tq, r.sigma).mean())
        assert abs(r.mean_ll - want) < 1e-10


def test_conditional_eval_missing_condition_row(tiny_setup):
    _, valid_ds, test_ds, g = tiny_setup
    keep = test_ds.label_indices() != 1
    test_wo = test_ds.subset(np.nonzero(keep)[0])
    rows = conditional_eval(g, valid_ds, test_wo, ParzenConfig(samples_per_condition=20),
                            seed=2)
    missing = [r for r in rows if r.condition == 1]
    assert len(missing) == 1 and missing[0].mean_ll is None
    assert "missing" in missing[0].note


def test_conditional_eval_global_sigma_mode(tiny_setup):
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=30, sigma_mode="global")
    rows = conditional_eval(g, valid_ds, test_ds, cfg, seed=4)
    sigmas = {r.sigma for r in rows}
    assert len(sigmas) == 1
    # with one condition left to select on, pooling changes nothing
    only0 = valid_ds.subset(np.nonzero(valid_ds.label_indices() == 0)[0])
    pooled = conditional_eval(g, only0, test_ds, cfg, seed=4)
    cfg.sigma_mode = "per_condition"
    assert pooled == conditional_eval(g, only0, test_ds, cfg, seed=4)
    assert pooled[0].mean_ll is not None and pooled[1].mean_ll is None


@pytest.mark.parametrize("mode", ["per_condition", "global"])
def test_sigma_on_grid_edge_is_noted(tiny_setup, mode):
    _, valid_ds, test_ds, g = tiny_setup
    # every bandwidth far too small, so the best is the largest; then far too large
    for grid, end in ((np.geomspace(1e-6, 1e-5, 3), "largest"),
                      (np.geomspace(1e3, 1e4, 3), "smallest")):
        cfg = ParzenConfig(sigma_grid=grid, samples_per_condition=30, sigma_mode=mode)
        rows = conditional_eval(g, valid_ds, test_ds, cfg, seed=4)
        for r in rows:
            assert r.sigma == (grid[-1] if end == "largest" else grid[0])
            assert f"condition {r.condition}: sigma" in r.note and end in r.note


def test_interior_sigma_has_no_note(rng):
    samples = rng.normal(size=(500, 1))
    valid = rng.normal(size=(400, 1))
    grid = np.geomspace(0.02, 3.0, 24)
    sigma, _ = select_sigma(samples, valid, grid)
    row = parzen._scored_row(0, sigma, parzen_log_likelihood(samples, valid, sigma), grid, 500)
    assert row.note == "" and row.n_test == 400


def test_global_mode_matches_pooled_selection(tiny_setup):
    """Global mode pools per-condition LLs; selecting on the pooled sample
    sets directly must pick the same sigma and score the same rows."""
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=30, sigma_mode="global")
    rows = conditional_eval(g, valid_ds, test_ds, cfg, seed=4)
    root = RngStream(4, ("parzen-eval",))
    vl, tl = valid_ds.label_indices(), test_ds.label_indices()
    grid = cfg.sigma_grid
    samples = [generate_samples(g, c, 30, root.split(f"cond-{c}")) for c in range(3)]
    pooled = []
    for sigma in grid:
        lls = [parzen_log_likelihood(samples[c], valid_ds.images[vl == c].reshape(-1, 2), sigma)
               for c in range(3)]
        pooled.append(float(np.concatenate(lls).mean()))
    want = float(grid[int(np.argmax(pooled))])
    for r in rows:
        assert r.sigma == want
        tq = test_ds.images[tl == r.condition].reshape(-1, 2)
        lls = parzen_log_likelihood(samples[r.condition], tq, want)
        assert r.mean_ll == float(lls.mean())


def record_parzen_spans(monkeypatch) -> dict:
    """Make the Parzen span functions record (lo, hi) of each row range they run, by name."""
    calls = {}
    for name in ("_dist_span", "_sort_span", "_sweep_span"):
        def recorded(rows, lo, hi, *args, span=getattr(parzen, name), name=name):
            calls.setdefault(name, []).append((lo, hi))
            span(rows, lo, hi, *args)

        monkeypatch.setattr(parzen, name, recorded)
    return calls


@pytest.mark.parametrize("mode", ["per_condition", "global"])
def test_conditional_eval_rows_do_not_depend_on_the_workers(tiny_setup, monkeypatch, mode):
    """With 4 samples per distance block and one query row per sweep block,
    the distances, sorts and sweeps all split over 2 and 4 workers, yet
    every row keeps the bits of one worker's. A short switch interval makes
    the threads interleave as often as they can."""
    _, valid_ds, test_ds, g = tiny_setup
    monkeypatch.setattr(parzen, "DIST_BLOCK", 4 * 2 * 8)
    calls = record_parzen_spans(monkeypatch)
    cfg = ParzenConfig(samples_per_condition=30, sigma_mode=mode)
    rows = {}
    interval = sys.getswitchinterval()
    for workers in (1, 2, 4):
        monkeypatch.setattr(tensor, "WORKERS", workers)
        monkeypatch.setattr(tensor, "_pool", None)  # a pool of workers - 1 threads
        calls.clear()
        sys.setswitchinterval(1e-6)
        try:
            rows[workers] = conditional_eval(g, valid_ds, test_ds, cfg, seed=4)
        finally:
            sys.setswitchinterval(interval)
            if tensor._pool is not None:
                tensor._pool.shutdown()
        assert sorted(calls) == ["_dist_span", "_sort_span", "_sweep_span"]
        for ranges in calls.values():  # each call's ranges start at row 0
            assert len(ranges) == workers * sum(lo == 0 for lo, _ in ranges)
    assert rows[2] == rows[1] and rows[4] == rows[1]


def test_condition_map_changes_samples_not_rows(tiny_setup):
    _, valid_ds, test_ds, g = tiny_setup
    cfg = ParzenConfig(samples_per_condition=30)
    straight = conditional_eval(g, valid_ds, test_ds, cfg, seed=8)
    mapped = conditional_eval(g, valid_ds, test_ds, cfg, seed=8,
                              condition_map={0: 0, 1: 1, 2: 2})
    assert [(r.condition, r.mean_ll) for r in straight] \
        == [(r.condition, r.mean_ll) for r in mapped]


# ----------------------------------------------------------------------
# report serialization


def _rows():
    from cganlab.parzen import ParzenRow
    return [ParzenRow(0, 0.1, 124.71, 1.5, 300, 2000),
            ParzenRow(1, 0.2, -10.64, 2.0, 300, 2000),
            ParzenRow(2, None, None, None, 0, 0, note="missing")]


def test_report_csv_layout():
    text = report_csv(_rows())
    lines = text.strip().split("\n")
    assert lines[0] == "condition,sigma,mean_ll,stderr,n_test,n_samples"
    assert lines[1] == "0,0.1,124.71,1.5,300,2000"
    assert lines[3] == "2,,,,0,0"


def test_table_layout():
    table = format_table({"sbp": _rows()}, ["0", "1", "2"])
    lines = table.strip().split("\n")
    assert lines[0].split("|")[1].split() == ["0", "1", "2"]
    assert lines[2].startswith("sbp")
    assert "124.7" in lines[2] and "-10.6" in lines[2] and "n/a" in lines[2]
