"""End-to-end acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its measured
numbers so a plain `pytest -s tests/test_acceptance.py` reads as a report.
Budgets are wall-clock on one CPU core.
"""

import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from cganlab.cli import main as cli_main
from cganlab.conditioning import (spatial_bilinear_pool, spatial_replicate_concat,
                                  vector_concat)
from cganlab.data import load_cifar10_binary, load_idx
from cganlab.errors import ParseError
from cganlab.models import (NetworkSpec, Variant, approximator_forward,
                            build_approximator, build_discriminator, build_generator,
                            discriminator_forward, generator_forward,
                            pretrain_approximator)
from cganlab.parzen import (ParzenConfig, conditional_eval, default_sigma_grid,
                            generate_samples, parzen_log_likelihood, select_sigma)
from cganlab.rng import RngStream
from cganlab.tensor import Tensor, activation, leaky_relu, matmul, softmax_cross_entropy
from cganlab.training import TrainConfig, train
from conftest import assert_grads_match, bilinear_pool, projection
from fuzzing import cifar_fuzz_cases, idx_fuzz_cases

mpmath.mp.dps = 50

PRESET_SEED = 3
MIX_TRAIN = dict(total_steps=5000, batch_size=256, lr=1.5e-3, seed=PRESET_SEED,
                 noise_dim=8, g_hidden=[64, 64], d_hidden=[64, 64])
SHUFFLE = {0: 1, 1: 2, 2: 0}


def report(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def mixture(mixture_data):
    train_ds, valid_ds, test_ds, oracle = mixture_data
    return train_ds, valid_ds, test_ds, oracle


def eval_stat(samples_by_cond, valid_ds, test_ds):
    """The reporting statistic: sigma from validation, mean LL on test."""
    grid = default_sigma_grid()
    vl, tl = valid_ds.label_indices(), test_ds.label_indices()
    dim = int(np.prod(valid_ds.image_shape))
    out = {}
    for cond, samples in samples_by_cond.items():
        vq = valid_ds.images[vl == cond].reshape(-1, dim)
        tq = test_ds.images[tl == cond].reshape(-1, dim)
        sigma, _ = select_sigma(samples, vq, grid)
        out[cond] = float(parzen_log_likelihood(samples, tq, sigma).mean())
    return out


@pytest.fixture(scope="module")
def oracle_stat(mixture):
    train_ds, valid_ds, test_ds, oracle = mixture
    root = RngStream(123, ("oracle-baseline",))
    samples = {c: oracle.sample(c, 2000, root.split(f"c{c}")) for c in range(3)}
    return eval_stat(samples, valid_ds, test_ds)


@pytest.fixture(scope="module")
def trained_variants(mixture):
    """All four variants trained under the seeded mixture preset."""
    train_ds, valid_ds, _, _ = mixture
    q = None
    models = {}
    elapsed = {}
    for variant in ("cgan", "fcgan", "sbp", "irgan"):
        kw = dict(MIX_TRAIN)
        if variant == "irgan":
            if q is None:
                q, _ = pretrain_approximator(
                    train_ds, valid_ds, NetworkSpec([32], head="softmax"), 1500,
                    RngStream(1, ("qmix",)),
                    hyper={"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8})
            kw["lam"] = 2.0
        t0 = time.monotonic()
        g, _, _ = train(TrainConfig(variant=variant, **kw), train_ds,
                        q_params=(q if variant == "irgan" else None))
        elapsed[variant] = time.monotonic() - t0
        models[variant] = g
    return models, elapsed


@pytest.fixture(scope="module")
def digits(digits_data):
    return digits_data


# ----------------------------------------------------------------------
# A1: gradient suite


def test_a1_gradient_suite(rng):
    t0 = time.monotonic()
    checks = 0

    def fd(build, *arrays):
        nonlocal checks
        assert_grads_match(build, *arrays, rtol=1e-4, atol=1e-6)
        checks += 1

    for _ in range(20):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        fd(lambda x, y: projection(w)(matmul(x, y)), a, b)

        bias = rng.normal(size=5)
        # x + bias stays away from leaky_relu's kink
        x = rng.normal(size=(2, 5)) + 0.3 * np.sign(rng.normal(size=(2, 5)))
        wx = rng.normal(size=(2, 5))
        fd(lambda t, bb: projection(wx)(leaky_relu(t, bb)), x - bias, bias)
        for kind in ("sigmoid", "tanh"):
            fd(lambda t, k=kind: projection(wx)(activation(t, k)), x)

        logits = rng.normal(size=(3, 4))
        target = np.zeros((3, 4))
        target[np.arange(3), rng.integers(0, 4, 3)] = 1.0
        fd(lambda t: softmax_cross_entropy(t, target), logits)

        z, c = rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
        wz = rng.normal(size=(2, 7))
        fd(lambda zz, cc: projection(wz)(vector_concat(zz, cc)), z, c)

        # the ops as D's first layer calls them: a batch and the weight
        img = rng.normal(size=(2, 2, 2, 2))
        cc2 = rng.normal(size=(2, 3))
        w_out = rng.normal(size=(2, 4))
        w_rc = rng.normal(size=(2 * 2 * 5, 4))
        fd(lambda xx, ci, ww: projection(w_out)(spatial_replicate_concat(xx, ci, ww)),
           img, cc2, w_rc)
        w_bp = rng.normal(size=(2 * 2 * 6, 4))
        fd(lambda xx, ci, ww: projection(w_out)(spatial_bilinear_pool(xx, ci, ww)),
           img, cc2, w_bp)

    # two hidden layers, so a later layer's matmul -> leaky_relu, and fcgan's
    # concatenation after every hidden layer, are checked too
    img_shape, m, k = (2, 2, 1), 2, 3
    spec = NetworkSpec([4, 3])
    for i in range(20):
        g = build_generator(img_shape, m, k, spec, RngStream(i, ("a1g",)))
        z = rng.uniform(-1, 1, (1, k))
        c = rng.uniform(0.1, 1.0, (1, m))
        wg = rng.normal(size=(1,) + img_shape)
        fd(lambda zz, cc: projection(wg)(generator_forward(zz, cc, g)), z, c)

        x = rng.uniform(-1, 1, (1,) + img_shape)
        for variant in Variant:
            d = build_discriminator(img_shape, m, spec, variant, RngStream(i, ("a1d", variant.value)))
            if variant is Variant.IRGAN:
                fd(lambda xx, dd=d: discriminator_forward(xx, None, dd).sum(), x)
            else:
                fd(lambda xx, cc, dd=d: discriminator_forward(xx, cc, dd).sum(), x, c)

        q = build_approximator(img_shape, m, spec, RngStream(i, ("a1q",)))
        wq = rng.normal(size=(1, m))
        fd(lambda xx: (approximator_forward(xx, q) * Tensor(wq)).sum(), x)

    elapsed = time.monotonic() - t0
    report("A1 gradient suite", elapsed < 60.0,
           f"{checks} finite-difference checks, rtol 1e-4, in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# A2: bilinear pooling algebra


def test_a2_sbp_algebra(rng):
    t0 = time.monotonic()
    for _ in range(1000):
        n, d, m = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 6)
        x = rng.normal(size=(n, n, d))
        a = int(rng.integers(0, m))
        e = np.zeros(m)
        e[a] = 1.0
        out = bilinear_pool(Tensor(x), Tensor(e)).data.reshape(n, n, m, d)
        assert np.array_equal(out[:, :, a, :], x)
        mask = np.ones(m, dtype=bool)
        mask[a] = False
        assert np.all(out[:, :, mask, :] == 0.0)

        c1, c2 = rng.normal(size=m), rng.normal(size=m)
        al, be = float(rng.normal()), float(rng.normal())
        combo = bilinear_pool(Tensor(x), Tensor(al * c1 + be * c2)).data
        parts = (al * bilinear_pool(Tensor(x), Tensor(c1)).data
                 + be * bilinear_pool(Tensor(x), Tensor(c2)).data)
        assert np.max(np.abs(combo - parts)) < 1e-12

    for _ in range(50):
        n, d, m = rng.integers(1, 7), rng.integers(1, 6), rng.integers(1, 9)
        out = bilinear_pool(Tensor(np.ones((n, n, d))), Tensor(np.ones(m)))
        assert out.shape == (n, n, d * m)

    elapsed = time.monotonic() - t0
    report("A2 bilinear pooling algebra", elapsed < 10.0,
           f"1000 one-hot/bilinearity draws + 50 shape combos in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# A3: parzen oracle equivalence


def direct_ll_mp(samples, queries, sigma):
    n, dim = samples.shape
    norm = (2 * mpmath.pi * mpmath.mpf(sigma) ** 2) ** (mpmath.mpf(dim) / 2)
    out = []
    for qv in queries:
        total = mpmath.mpf(0)
        for s in samples:
            d2 = sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2 for a, b in zip(qv, s))
            total += mpmath.exp(-d2 / (2 * mpmath.mpf(sigma) ** 2))
        out.append(float(mpmath.log(total / n / norm)))
    return np.array(out)


def test_a3_parzen_oracle_equivalence(rng):
    t0 = time.monotonic()
    for dim in (1, 2, 5, 10):
        ll = parzen_log_likelihood(np.zeros((1, dim)), np.zeros((1, dim)), 1.0)
        assert abs(ll[0] + 0.5 * dim * np.log(2.0 * np.pi)) < 1e-12
    worst = 0.0
    for _ in range(100):
        n, t, dim = rng.integers(1, 51), rng.integers(1, 51), rng.integers(1, 11)
        samples = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0)
        queries = rng.normal(size=(t, dim))
        sigma = float(rng.uniform(0.05, 2.0))
        got = parzen_log_likelihood(samples, queries, sigma)
        want = direct_ll_mp(samples, queries, sigma)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.monotonic() - t0
    report("A3 parzen oracle equivalence",
           worst < 1e-10 and elapsed < 10.0,
           f"100 instances, worst |delta|={worst:.2e}, in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# A4: end-to-end conditional fit on the synthetic mixture


def test_a4_conditional_fit(mixture, oracle_stat, trained_variants):
    train_ds, valid_ds, test_ds, _ = mixture
    models, elapsed = trained_variants
    cfg = ParzenConfig(samples_per_condition=2000)
    rows = conditional_eval(models["sbp"], valid_ds, test_ds, cfg, seed=99)
    gen = {r.condition: r.mean_ll for r in rows}
    deltas = {c: abs(gen[c] - oracle_stat[c]) for c in gen}
    ok = all(v <= 1.0 for v in deltas.values()) and elapsed["sbp"] < 600.0
    report("A4 conditional fit vs oracle sampler", ok,
           "per-condition |gen-oracle| nats: "
           + ", ".join(f"{c}: {v:.2f}" for c, v in sorted(deltas.items()))
           + f"; sbp training {elapsed['sbp']:.0f}s")


# ----------------------------------------------------------------------
# A5: conditioning beats a shuffled control for every variant


def test_a5_conditioning_matters(mixture, trained_variants):
    _, valid_ds, test_ds, _ = mixture
    models, elapsed = trained_variants
    cfg = ParzenConfig(samples_per_condition=2000)
    details = []
    ok = True
    for variant, g in models.items():
        straight = {r.condition: r.mean_ll
                    for r in conditional_eval(g, valid_ds, test_ds, cfg, seed=99)}
        shuffled = {r.condition: r.mean_ll
                    for r in conditional_eval(g, valid_ds, test_ds, cfg, seed=99,
                                              condition_map=SHUFFLE)}
        margin = min(straight[c] - shuffled[c] for c in straight)
        details.append(f"{variant}: {margin:+.2f}")
        ok = ok and margin >= 1.0 and elapsed[variant] < 600.0
    report("A5 conditioning beats shuffled control", ok,
           "worst per-variant margin nats: " + ", ".join(details))


# ----------------------------------------------------------------------
# A6: information-regularization mechanism


def test_a6_irgan_mechanism(digits):
    t0 = time.monotonic()
    train_ds, valid_ds, test_ds = digits
    q, hist = pretrain_approximator(
        train_ds, valid_ds, NetworkSpec([64], head="softmax"), 2000,
        RngStream(11, ("q",)),
        hyper={"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8})
    from cganlab.models import classifier_accuracy
    held_out = classifier_accuracy(q, test_ds.images, test_ds.labels)

    lam = 2.0
    cfg = TrainConfig(variant="irgan", total_steps=3000, batch_size=64, lr=5e-4,
                      seed=11, noise_dim=16, g_hidden=[128, 128], d_hidden=[128],
                      lam=lam)
    g, _, log = train(cfg, train_ds, q_params=q)
    rg = np.array([r["r_g"] for r in log.rows]) / lam
    first, last = float(rg[:200].mean()), float(rg[-200:].mean())
    fractions = []
    for cond in range(3):
        flat = generate_samples(g, cond, 500, RngStream(77, ("a6", f"c{cond}")))
        probs = approximator_forward(Tensor(flat.reshape(-1, 8, 8, 1)), q)
        fractions.append(float(np.mean(probs.data.argmax(axis=1) == cond)))
    elapsed = time.monotonic() - t0
    ok = (held_out >= 0.95 and min(fractions) >= 0.80 and last < first
          and elapsed < 1200.0)
    report("A6 information-regularization mechanism", ok,
           f"Q held-out acc {held_out:.3f}, classified-as-requested "
           f"{min(fractions):.2f}..{max(fractions):.2f}, "
           f"R(G)/lambda {first:.3f}->{last:.3f}, in {elapsed:.0f}s")


# ----------------------------------------------------------------------
# A7: determinism of a preset training run and an evaluation run


def strip_wall_column(csv_text):
    return [",".join(line.split(",")[:4]) for line in csv_text.strip().splitlines()]


def test_a7_determinism(tmp_path):
    runner = CliRunner()
    train_args = ["train", "--variant", "sbp", "--dataset", "mixture-3x2",
                  "--steps", "40", "--seed", str(PRESET_SEED)]
    for sub in ("t1", "t2"):
        res = runner.invoke(cli_main, train_args + ["--out", str(tmp_path / sub)],
                            catch_exceptions=False)
        assert res.exit_code == 0
    ck_same = ((tmp_path / "t1" / "g.ckpt").read_bytes()
               == (tmp_path / "t2" / "g.ckpt").read_bytes()
               and (tmp_path / "t1" / "d.ckpt").read_bytes()
               == (tmp_path / "t2" / "d.ckpt").read_bytes())
    # wall_ms is physical measurement; every recorded quantity must match
    log_same = (strip_wall_column((tmp_path / "t1" / "log.csv").read_text())
                == strip_wall_column((tmp_path / "t2" / "log.csv").read_text()))

    eval_args = ["eval", "--g-checkpoint", str(tmp_path / "t1" / "g.ckpt"),
                 "--dataset", "mixture-3x2", "--seed", "21",
                 "--samples-per-condition", "300"]
    for sub in ("e1", "e2"):
        res = runner.invoke(cli_main, eval_args + ["--out", str(tmp_path / sub)],
                            catch_exceptions=False)
        assert res.exit_code == 0
    rep_same = ((tmp_path / "e1" / "report.csv").read_bytes()
                == (tmp_path / "e2" / "report.csv").read_bytes()
                and (tmp_path / "e1" / "table.txt").read_bytes()
                == (tmp_path / "e2" / "table.txt").read_bytes())
    report("A7 determinism", ck_same and log_same and rep_same,
           f"checkpoints identical: {ck_same}, logs identical (wall_ms aside): "
           f"{log_same}, reports identical: {rep_same}")


# ----------------------------------------------------------------------
# A8: parser fuzzing


def test_a8_parser_fuzzing(tmp_path):
    t0 = time.monotonic()
    rejected = 0
    for name, img, lab in idx_fuzz_cases(100):
        (tmp_path / "img").write_bytes(img)
        (tmp_path / "lab").write_bytes(lab)
        try:
            load_idx(tmp_path / "img", tmp_path / "lab")
        except ParseError as e:
            assert str(e), name
            rejected += 1
    for name, blob in cifar_fuzz_cases(100):
        (tmp_path / "c.bin").write_bytes(blob)
        try:
            load_cifar10_binary(tmp_path / "c.bin")
        except ParseError as e:
            assert str(e), name
            rejected += 1
    elapsed = time.monotonic() - t0
    report("A8 parser fuzzing", rejected == 200 and elapsed < 10.0,
           f"{rejected}/200 mutated files rejected with diagnostics in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# A9: report format (golden file)
#
# The golden file is produced by exactly this recipe; regenerate with
#   python tests/make_golden.py


def test_a9_report_format(tmp_path):
    runner = CliRunner()
    for variant in ("sbp", "cgan"):
        res = runner.invoke(cli_main, ["train", "--variant", variant, "--dataset",
                                       "mixture-3x2", "--steps", "0", "--seed", "1",
                                       "--out", str(tmp_path / variant)],
                            catch_exceptions=False)
        assert res.exit_code == 0
    res = runner.invoke(cli_main, ["eval",
                                   "--g-checkpoint", str(tmp_path / "sbp" / "g.ckpt"),
                                   "--g-checkpoint", str(tmp_path / "cgan" / "g.ckpt"),
                                   "--dataset", "mixture-3x2", "--seed", "2",
                                   "--samples-per-condition", "200",
                                   "--out", str(tmp_path / "ev")],
                        catch_exceptions=False)
    assert res.exit_code == 0
    table = (tmp_path / "ev" / "table.txt").read_text()
    lines = table.splitlines()
    structural = (lines[0].split("|")[1].split() == ["0", "1", "2"]
                  and lines[2].startswith("sbp") and lines[3].startswith("cgan")
                  and len(lines) == 4)
    golden_path = Path(__file__).parent / "data" / "eval_table_golden.txt"
    golden = golden_path.read_text()
    report("A9 report format", structural and table == golden,
           f"structure ok: {structural}, matches golden file: {table == golden}")
