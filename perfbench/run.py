"""cganlab benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are declared in BENCHMARK.json. This script runs
the workload in a fresh worker process (perfbench/worker.py) with BLAS
pinned to one thread and every file it writes under .perfbench_work/, then
checks the worker's metrics against BENCHMARK.json: every metric named there
for the mode (end_to_end with --trace 0, per_layer with --trace 1) must be
present with a finite value, and no other. It prints one informational JSON
line ({"info": ...}: build fingerprint, digests, tail percentile, failure
reasons, tracing overhead) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.

It exits non-zero without a result line when the checkout has no cganlab
sources, the worker fails or overruns, or the schema check fails.

End-to-end metrics (--trace 0), the same on every workload:

  setup_s      median time of one set-up (inputs, models, Q, checkpoints),
               repeated at least three times per run
  op_ms        mean over the workload's operation kinds of each kind's median
               wall time; a kind is a variant's train step (timed between
               successive progress callbacks) on mixture-train and
               mnist-train, one condition of conditional_eval on mnist-eval,
               and one CLI subcommand on digits-cli
  peak_rss_mb  ru_maxrss of the worker process or its largest child
  cli_start_s  median wall time of `python -m cganlab.cli --version` over
               fresh interpreters spread across the run

The info line also carries the tail (highest percentile with at least ten
samples beyond it, with its percentile and sample count), the per-kind
medians, and failed_frac with its base. Per-layer metrics (--trace 1) and
the end-to-end metric each is expected to move are listed in
perfbench/predictions.json. `python3 perfbench/selftest.py` checks the
output schema of every workload in both modes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEADLINE_S = 170  # the whole run must end within 180 s


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_metrics(spec, metrics, trace) -> list:
    """Problems with the worker's metrics against the declared schema."""
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    problems = [f"missing metric {n}" for n in declared if n not in metrics]
    problems += [f"undeclared metric {n}" for n in metrics if n not in declared]
    for name, value in metrics.items():
        if name in declared and not (isinstance(value, (int, float)) and not isinstance(value, bool)
                                     and math.isfinite(value)):
            problems.append(f"metric {name} has no finite value: {value!r}")
        if name in declared and not declared[name].get("unit"):
            problems.append(f"metric {name} declares no unit")
    return problems


def run_worker(args, work: Path, out: Path, started: float) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(work / "tmp")
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    # own session, so that an overrun or a SIGTERM kills the worker's CLI
    # children too
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker overran {DEADLINE_S} s and was killed", file=sys.stderr)
        return -1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main() -> int:
    started = time.monotonic()
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cganlab" / "__init__.py").is_file():
        print(f"perfbench: no cganlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    out = work / "result.json"
    code = run_worker(args, work, out, started)
    if code != 0:
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return 1
    with open(out) as f:
        result = json.load(f)
    problems = check_metrics(spec, result["metrics"], args.trace)
    if problems:
        print("perfbench: schema check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"info": result["info"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
