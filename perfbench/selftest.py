"""Schema self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seconds S]

Checks the following, and exits 1 listing every problem found:

* BENCHMARK.json has exactly its six top-level keys, and
  perfbench/predictions.json predicts every per_layer metric (and nothing
  else) in terms of declared end-to-end metrics and workloads;
* for each workload, a short run in each mode prints a last line with
  exactly correct/attempted/failed/metrics, correct is true, and every
  metric declared for the mode is there with its declared unit;
* the exact per-layer counts repeat between two traced runs with
  different seeds;
* in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Everything it writes stays under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("tensor.nodes_per_step", "rng.streams_per_step", "conditioning.out_mb_per_step",
         "models.d_layer0_mflop_per_step", "parzen.dist_mb", "checkpoint.mb_written")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_static(spec) -> list:
    problems = []
    if set(spec) != TOP_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(TOP_KEYS)}")
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    layers = {m["name"] for m in spec["per_layer"]}
    if "setup_s" not in e2e:
        problems.append("no setup_s end-to-end metric")
    with open(ROOT / "perfbench" / "predictions.json") as f:
        predictions = json.load(f)["predictions"]
    if set(predictions) != layers:
        problems.append(f"predictions differ from per_layer metrics: "
                        f"{sorted(set(predictions) ^ layers)}")
    for name, p in predictions.items():
        unknown = (set(p["moves"]) - e2e) | (set(p["workloads"]) | set(p.get("unchanged", ()))) - workloads
        if unknown:
            problems.append(f"prediction for {name} names undeclared {sorted(unknown)}")
    return problems


def run(cwd, workload, seed, seconds, trace):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=300)
    return r.returncode, r.stdout, r.stderr


def check_run(spec, workload, seed, seconds, trace):
    """Returns (problems, metric values) of one run."""
    code, out, err = run(ROOT, workload, seed, seconds, trace)
    where = f"{workload} trace={trace} seed={seed}"
    if code != 0:
        return [f"{where}: exit {code}: {err[-500:]}"], {}
    result = json.loads(out.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not correct: {out.splitlines()[-2][:2000]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {m['name']} is {got}, expected unit {m['unit']}")
    if len(metrics) != len(declared):
        problems.append(f"{where}: {len(metrics)} metrics printed, {len(declared)} declared")
    return problems, {k: v.get("value") for k, v in metrics.items()}


def check_bare() -> list:
    """run.py must refuse to report from a tree without the program."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run(bare, "mixture-train", 1, 1, 0)
    shutil.rmtree(bare)
    if code == 0 or '"metrics"' in out:
        return [f"bare tree: exit {code}, stdout {out[-300:]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="Schema self-test of the benchmark.")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=float, default=1.0)
    a = ap.parse_args()
    problems = check_static(spec) + check_bare()
    for workload in a.workload or names:
        p, _ = check_run(spec, workload, 1, a.seconds, 0)
        problems += p
        p1, first = check_run(spec, workload, 1, a.seconds, 1)
        p2, second = check_run(spec, workload, 2, a.seconds, 1)
        problems += p1 + p2
        for name in EXACT:
            if first.get(name) != second.get(name):
                problems.append(f"{workload}: exact count {name} differs: "
                                f"{first.get(name)!r} vs {second.get(name)!r}")
        print(f"selftest: {workload} done, {len(problems)} problems so far", file=sys.stderr)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
