"""Runs one benchmark workload in a fresh process and writes its raw result.

run.py starts this file with PYTHONPATH pointing at the checkout's src/,
BLAS pinned to one thread and TMPDIR inside the checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Every workload is a closed loop: one operation at a time, the next one
starting when the previous one has returned. The seed only shapes the
generated inputs; sizes are fixed, so every seed does the same work.

With --trace 0 the whole time budget runs untraced and the end-to-end
metrics are computed. With --trace 1 the budget is split: an untraced pass,
then the same pass again from the same inputs with spans.install() active.
The two passes must leave identical bytes (parameter/Adam digests,
checkpoint files); the traced pass gives the per-layer metrics, and the
difference between the passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import click
import numpy as np

import spans
from cganlab import cli, data, models, parzen, training
from cganlab.checkpoint import load_model, save_model
from cganlab.errors import CganlabError
from cganlab.models import NetworkSpec
from cganlab.rng import RngStream
from cganlab.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
# set up at least SETUP_MIN times, and more while the total stays under
# SETUP_FILL_S, so that cheap set-ups still give a steady median
SETUP_MIN, SETUP_MAX, SETUP_FILL_S = 3, 10, 1.0
PROBES = 12  # fresh interpreters per start-up probe
CLI_TIMEOUT_S = 120
VARIANTS = ("cgan", "fcgan", "sbp", "irgan")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, n=1, failed=0, why=None):
        self.attempted += n
        self.failed += failed
        if why:
            self.errors.append(why)


def median_of_kinds(ms: dict) -> float:
    """Mean over operation kinds of each kind's median time."""
    return statistics.fmean(statistics.median(v) for v in ms.values() if v)


def tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). Below eleven samples no such
    percentile exists and the maximum is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def sha256_params(*nets) -> str:
    h = hashlib.sha256()
    for net in nets:
        for name, arr in sorted(net.snapshot().items()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def mnist_like(stream: RngStream, count: int, conds: int = 10) -> data.LabeledDataset:
    """28x28x1 images on the uint8 lattice, conditions balanced.

    Each condition has a seeded blocky prototype; an image is its prototype
    plus Gaussian pixel noise.
    """
    protos = np.kron(stream.split("protos").uniform(0.0, 255.0, (conds, 7, 7)), np.ones((4, 4)))
    labels = stream.split("order").permutation(np.arange(count) % conds)
    noisy = protos[labels] + stream.split("noise").normal(0.0, 40.0, (count, 28, 28))
    raw = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return data.LabeledDataset(data.scale_pixels(raw)[..., None], np.eye(conds)[labels],
                               {"name": "mnist-like"})


# ----------------------------------------------------------------------
# training workloads


class TrainWorkload:
    """All four variants trained in interleaved chunks of `chunk` steps.

    A chunk is one train() call resuming from the previous chunk, so every
    variant sees the same machine drift. The chunk divides the epoch, which
    makes per-step counts of RngStream constructions exact.
    """

    def __init__(self, seed, work, *, chunk, cfg, q_hidden, q_steps):
        self.seed, self.work, self.chunk = seed, work, chunk
        self.cfg, self.q_hidden, self.q_steps = cfg, q_hidden, q_steps

    def make_data(self):
        raise NotImplementedError

    def setup(self):
        train_ds, valid_ds = self.make_data()
        hyper = {"lr": self.cfg["lr"], "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}
        q, _ = models.pretrain_approximator(
            train_ds, valid_ds, NetworkSpec(self.q_hidden, head="softmax"), self.q_steps,
            RngStream(self.seed, ("pretrain-q",)), batch_size=self.cfg["batch_size"], hyper=hyper)
        state = {"train": train_ds, "q": q}
        state["nets"] = self.build(state)
        return state

    def build(self, state):
        nets = {}
        for v in VARIANTS:
            cfg = TrainConfig(variant=v, total_steps=0, seed=self.seed,
                              lam=self.cfg["irgan_lam"] if v == "irgan" else 0.0,
                              **{k: x for k, x in self.cfg.items() if k != "irgan_lam"})
            g, d = training.build_models(cfg, state["train"].image_shape,
                                         state["train"].cond_dim,
                                         RngStream(cfg.seed, ("train", v)))
            nets[v] = (cfg, g, d)
        return nets

    def run(self, state, seconds, tally, traced, between=lambda: None):
        nets = state.pop("nets", None) or self.build(state)
        ms = {v: [] for v in VARIANTS}
        digests = {}
        t0 = time.perf_counter()
        rounds = 0
        while True:
            r0 = time.perf_counter()
            for v in VARIANTS:
                cfg, g, d = nets[v]
                start = rounds * self.chunk
                cfg.total_steps = start + self.chunk
                stamps, bad = [time.perf_counter()], []

                def progress(rec, stamps=stamps, bad=bad, start=start):
                    stamps.append(time.perf_counter())
                    step = start + len(stamps) - 2
                    if rec["step"] != step or not all(
                            math.isfinite(rec[k]) and rec[k] > 0 for k in ("d_loss", "g_loss")):
                        bad.append(step)

                try:
                    training.train(cfg, state["train"], q_params=state["q"] if v == "irgan" else None,
                                   g=g, d=d, start_step=start, progress=progress)
                except CganlabError as e:
                    tally.add(self.chunk, self.chunk - (len(stamps) - 1) + len(bad), f"{v}: {e}")
                    return ms, {"rounds": rounds, "digests": digests}
                tally.add(self.chunk, len(bad), f"{v}: bad loss or step at {bad}" if bad else None)
                ms[v] += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
            rounds += 1
            if rounds == 1:
                digests = {v: sha256_params(g, d) for v, (_, g, d) in nets.items()}
            between()
            now = time.perf_counter()
            if now - t0 + (now - r0) > seconds:
                return ms, {"rounds": rounds, "steps_per_variant": rounds * self.chunk,
                            "digests": digests}

    def compare(self, untraced, traced, tally):
        for v in VARIANTS:
            same = untraced["digests"].get(v) == traced["digests"].get(v)
            tally.add(1, 0 if same else 1,
                      None if same else f"{v}: traced and untraced digests differ")


class MixtureTrain(TrainWorkload):
    def __init__(self, seed, work):
        # the CLI's mixture-3x2 preset; chunk 16 is one epoch of 4200 rows
        super().__init__(seed, work, chunk=16, q_hidden=[32], q_steps=1500, cfg={
            "batch_size": 256, "lr": 1.5e-3, "noise_dim": 8, "g_hidden": [64, 64],
            "d_hidden": [64, 64], "irgan_lam": 2.0})

    def make_data(self):
        train_ds, valid_ds, _, _ = data.mixture_3x2(self.seed)
        return train_ds, valid_ds


class MnistTrain(TrainWorkload):
    def __init__(self, seed, work):
        # the CLI's mnist preset shape (irgan lambda defaults to 1.0 there);
        # 1280 rows make 20 batches, so 2-step chunks never cross an epoch
        super().__init__(seed, work, chunk=2, q_hidden=[256], q_steps=100, cfg={
            "batch_size": 64, "lr": 2e-4, "noise_dim": 64, "g_hidden": [512, 512],
            "d_hidden": [512, 512], "irgan_lam": 1.0})

    def make_data(self):
        stream = RngStream(self.seed, ("perfbench", "mnist-train"))
        return mnist_like(stream.split("train"), 1280), mnist_like(stream.split("valid"), 200)


# ----------------------------------------------------------------------
# Parzen evaluation


class MnistEval:
    """conditional_eval with per-condition sigma on an MNIST-shaped generator."""

    CONDS = 10
    ROWS = 300  # 30 validation and 30 test rows per condition

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self):
        stream = RngStream(self.seed, ("perfbench", "mnist-eval"))
        valid = mnist_like(stream.split("valid"), self.ROWS, self.CONDS)
        test = mnist_like(stream.split("test"), self.ROWS, self.CONDS)
        g = models.build_generator((28, 28, 1), self.CONDS, 64, NetworkSpec([512, 512]),
                                   stream.split("init-g"))
        path = self.work / "g.ckpt"
        save_model(path, g)
        g, _ = load_model(path)
        return {"g": g, "valid": valid, "test": test}

    def run(self, state, seconds, tally, traced, between=lambda: None):
        cfg = parzen.ParzenConfig()
        grid = set(float(s) for s in cfg.sigma_grid)
        ms, mean_ll = {"eval": []}, None
        t0 = time.perf_counter()
        while True:
            e0 = time.perf_counter()
            try:
                rows = parzen.conditional_eval(state["g"], state["valid"], state["test"], cfg, self.seed)
            except CganlabError as e:
                tally.add(1, 1, f"eval: {e}")
                break
            ms["eval"].append((time.perf_counter() - e0) * 1e3 / self.CONDS)
            why = self.check(rows, grid, cfg)
            if why is None and mean_ll is None:
                why = self.check_lse(state, rows, cfg)
            tally.add(1, why is not None, why)
            if mean_ll is None:
                mean_ll = [r.mean_ll for r in rows]
            between()
            now = time.perf_counter()
            if now - t0 + (now - e0) > seconds:
                break
        return ms, {"evals": len(ms["eval"]), "mean_ll": mean_ll}

    def check(self, rows, grid, cfg):
        if len(rows) != self.CONDS:
            return f"eval returned {len(rows)} rows"
        for r in rows:
            if r.mean_ll is None or not math.isfinite(r.mean_ll) or r.sigma not in grid \
                    or r.n_test != self.ROWS // self.CONDS \
                    or r.n_samples != cfg.samples_per_condition:
                return f"eval row {r} is not a finite estimate on the sigma grid"
        return None

    def check_lse(self, state, rows, cfg):
        """Recompute one condition's mean test LL with a plain log-sum-exp."""
        cond = self.seed % self.CONDS
        samples = parzen.generate_samples(state["g"], cond, cfg.samples_per_condition,
                                          RngStream(self.seed, ("parzen-eval",)).split(f"cond-{cond}"))
        test = state["test"]
        queries = test.images[test.label_indices() == cond].reshape(-1, samples.shape[1])
        n, dim = samples.shape
        sigma = rows[cond].sigma
        lls = []
        for q in queries:
            k = -((samples - q) ** 2).sum(axis=1) / (2.0 * sigma * sigma)
            top = k.max()
            lls.append(top + math.log(np.exp(k - top).sum()) - math.log(n)
                       - 0.5 * dim * math.log(2.0 * math.pi * sigma * sigma))
        ref = math.fsum(lls) / len(lls)
        if abs(ref - rows[cond].mean_ll) > 1e-9 * abs(ref):
            return f"condition {cond}: mean_ll {rows[cond].mean_ll!r} != reference {ref!r}"
        return None

    def compare(self, untraced, traced, tally):
        same = untraced["mean_ll"] == traced["mean_ll"]
        tally.add(1, 0 if same else 1, None if same else "traced and untraced mean_ll differ")


# ----------------------------------------------------------------------
# the command line, end to end


ARTIFACTS = {"pretrain-q": ("checkpoint",), "train": ("g_checkpoint", "d_checkpoint", "log"),
             "eval": ("table",), "sample": ("samples", "grid")}
DIGITS = "tiny-digits-3"


class DigitsCli:
    """One CLI session per loop: pretrain-q, train sbp and irgan, eval, sample.

    Untraced, each command is a fresh `python -m cganlab.cli` process. Traced,
    the same commands run in-process through cli.main(standalone_mode=False).
    """

    def __init__(self, seed, work):
        self.seed, self.work = seed, work

    def setup(self):
        # the CLI renders the dataset itself; the reference checksum checks
        # that every command's manifest records the same data
        return {"checksum": cli.load_dataset(DIGITS)["checksum"]}

    def session(self, d: Path):
        s = str(self.seed)
        ds = ["--dataset", DIGITS, "--seed", s]
        return [
            ("pretrain-q", ["pretrain-q", *ds, "--steps", "200", "--out", str(d / "q")]),
            ("train", ["train", "--variant", "sbp", *ds, "--steps", "50", "--out", str(d / "sbp")]),
            ("train", ["train", "--variant", "irgan", *ds, "--steps", "50",
                       "--q-checkpoint", str(d / "q" / "q.ckpt"), "--out", str(d / "irgan")]),
            ("eval", ["eval", "--g-checkpoint", str(d / "sbp" / "g.ckpt"), "--g-checkpoint",
                      str(d / "irgan" / "g.ckpt"), *ds, "--out", str(d / "eval")]),
            ("sample", ["sample", "--g-checkpoint", str(d / "sbp" / "g.ckpt"), "--condition",
                        str(self.seed % 3), "--count", "16", "--seed", s, "--out", str(d / "sample")]),
        ]

    def run(self, state, seconds, tally, traced, between=lambda: None):
        ms = {kind: [] for kind in ARTIFACTS}
        info = {"sessions": 0}
        t0 = time.perf_counter()
        while True:
            s0 = time.perf_counter()
            d = self.work / f"{'traced' if traced else 'untraced'}-{info['sessions']}"
            for kind, args in self.session(d):
                took, code, out = (in_process if traced else fresh_process)(args)
                why = self.check(kind, code, out, Path(args[-1]), state["checksum"])
                tally.add(1, why is not None, why and f"{args[0]}: {why}")
                if why is not None:
                    return ms, info
                ms[kind].append(took)
                between()
                if kind == "eval" and "mean_ll" not in info:
                    info["mean_ll"] = json.loads(out)["mean_ll"]
            if info["sessions"] == 0:
                info["digests"] = {p: sha256_file(d / p) for p in (
                    "q/q.ckpt", "sbp/g.ckpt", "sbp/d.ckpt", "irgan/g.ckpt", "irgan/d.ckpt")}
            info["sessions"] += 1
            now = time.perf_counter()
            if now - t0 + (now - s0) > seconds:
                return ms, info

    @staticmethod
    def check(kind, code, out, out_dir, checksum):
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if len(lines) != 1:
            return f"expected one stdout line, got {len(lines)}"
        try:
            summary = json.loads(lines[0])
        except ValueError:
            return "stdout line is not JSON"
        missing = [k for k in ARTIFACTS[kind] if not Path(str(summary.get(k))).is_file()]
        if missing:
            return f"artifacts {missing} not written"
        manifest = out_dir / "manifest.json"
        if not manifest.is_file():
            return "no manifest.json written"
        if kind != "sample" and json.loads(manifest.read_text())["dataset"]["checksum"] != checksum:
            return "manifest records another dataset checksum"
        return None

    def compare(self, untraced, traced, tally):
        same = untraced.get("digests") == traced.get("digests")
        tally.add(1, 0 if same else 1, None if same else "traced and untraced checkpoints differ")


def fresh_process(args):
    t0 = time.perf_counter()
    try:
        r = subprocess.run([sys.executable, "-m", "cganlab.cli", *args], capture_output=True,
                           text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (time.perf_counter() - t0) * 1e3, "timeout", ""
    return (time.perf_counter() - t0) * 1e3, r.returncode, r.stdout


def in_process(args):
    out = io.StringIO()
    code = 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(args, standalone_mode=False)
    except SystemExit as e:  # friendly_errors maps typed errors to exit codes
        code = e.code or 0
    except click.ClickException as e:
        code = e.exit_code
    except Exception:  # an operation that raises counts as failed; keep going
        code = "raised " + traceback.format_exc(limit=-3)
    return (time.perf_counter() - t0) * 1e3, code, out.getvalue()


# ----------------------------------------------------------------------


WORKLOADS = {"mixture-train": MixtureTrain, "mnist-train": MnistTrain,
             "mnist-eval": MnistEval, "digits-cli": DigitsCli}

PROBE_SCRIPTS = {
    # `cganlab --version`, timed from outside
    "cli_start": ["-m", "cganlab.cli", "--version"],
    # `import cganlab.cli`, timed inside a fresh interpreter
    "import": ["-c", "import time; t = time.perf_counter(); import cganlab.cli; "
                     "print(time.perf_counter() - t)"],
}


class Probes:
    """PROBES fresh-interpreter start-ups, spread over a measured window.

    Contention on a shared machine shifts within seconds, so probes taken
    back to back would all see one state. due() runs the probes whose time
    has come and is called between operations; finish() runs the rest.
    """

    def __init__(self, kind, tally, seconds):
        self.kind, self.tally = kind, tally
        self.interval = seconds / PROBES
        self.t0 = time.perf_counter()
        self.times = []

    def due(self):
        while len(self.times) < min(PROBES, (time.perf_counter() - self.t0) // self.interval):
            self.times.append(self.one())

    def finish(self) -> list:
        while len(self.times) < PROBES:
            self.times.append(self.one())
        return self.times

    def one(self) -> float:
        t0 = time.perf_counter()
        r = subprocess.run([sys.executable, *PROBE_SCRIPTS[self.kind]], capture_output=True,
                           text=True, timeout=CLI_TIMEOUT_S)
        took = time.perf_counter() - t0
        if self.kind == "cli_start":
            ok = r.returncode == 0 and "version" in r.stdout
        else:
            ok = r.returncode == 0 and r.stdout.strip()
            took = float(r.stdout) if ok else math.nan
        self.tally.add(1, not ok, None if ok else f"{self.kind} probe: exit {r.returncode}")
        return took


def fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "cganlab").glob("*.py")):
        src.update(p.name.encode())
        src.update(p.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "source_sha256": src.hexdigest()}


def git_commit():
    """HEAD of the checkout when it is itself a git repository, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its children (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    work = Path(a.out).parent
    wl = WORKLOADS[a.workload](a.seed, work)
    tally = Tally()
    setup_s, state = [], None
    while len(setup_s) < SETUP_MIN or (len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_FILL_S):
        state = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - t0)
    info = {"fingerprint": fingerprint(), "setup_s": setup_s}
    if not a.trace:
        probes = Probes("cli_start", tally, a.seconds)
        ms, info["run"] = wl.run(state, a.seconds, tally, traced=False, between=probes.due)
        starts = probes.finish()
        raw = {"ms": ms, "cli_start_s": starts}
        metrics = {"setup_s": statistics.median(setup_s), "op_ms": median_of_kinds(ms),
                   "peak_rss_mb": peak_rss_mb(), "cli_start_s": statistics.median(starts)}
        # the tail is reported, not gated: on a shared machine its run-to-run
        # spread (IQR/median 0.15-0.28) exceeds the largest allowed bound, 0.25
        value, pct, n = tail([x for v in ms.values() for x in v])
        info["op_ms.tail"] = {"value": value, "percentile": pct, "samples": n}
        info["median_ms"] = {k: statistics.median(v) for k, v in ms.items()}
        info["samples"] = {k: len(v) for k, v in ms.items()}
    else:
        ms0, untraced = wl.run(state, a.seconds / 2, tally, traced=False)
        with spans.install(spans.Tracer()) as tracer:
            ms1, traced = wl.run(state, a.seconds / 2, tally, traced=True)
        wl.compare(untraced, traced, tally)
        tracer.write(work / "spans.json")
        metrics = spans.layer_metrics(tracer)
        raw = {"ms": {"untraced": ms0, "traced": ms1}, "import_s": Probes("import", tally, 0.0).finish()}
        metrics["cli.import_s"] = statistics.median(raw["import_s"])
        for v in VARIANTS:  # untraced, so comparable with op_ms; 0 without a step loop
            metrics[f"training.step_ms.{v}"] = statistics.median(ms0[v]) if ms0.get(v) else 0.0
        metrics["trace.overhead_pct"] = 100.0 * (median_of_kinds(ms1) / median_of_kinds(ms0) - 1.0)
        info["run"] = {"untraced": untraced, "traced": traced}
        info["overhead_pct"] = {k: 100.0 * (statistics.median(ms1[k]) / statistics.median(ms0[k]) - 1.0)
                                for k in ms0 if ms0[k] and ms1[k]}
        info["spans"] = tracer.summary()
    info["failed_frac"] = {"failed": tally.failed, "attempted": tally.attempted,
                           "value": tally.failed / tally.attempted}
    info["errors"] = tally.errors[:20]
    with open(a.out, "w") as f:
        json.dump({"attempted": tally.attempted, "failed": tally.failed,
                   "metrics": metrics, "info": info, "raw": raw}, f)


if __name__ == "__main__":
    main()
