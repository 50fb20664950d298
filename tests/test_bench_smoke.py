"""Quick mode of the benchmark: mnist-eval and mnist-train for two seconds each.

A smoke test of the result schema only, not a timing gate. Each workload's
own checks count as failed operations. For mnist-eval: every row is a finite
estimate on the sigma grid, and one condition's mean test log-likelihood
matches an independent plain log-sum-exp to 1e-9 relative. For mnist-train:
every step of every variant logs finite positive losses at the expected step.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_quick(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2 and "info" in json.loads(lines[0])
    result = json.loads(lines[1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "op_ms", "peak_rss_mb", "cli_start_s"}


def test_mnist_eval_quick_mode_is_correct():
    run_quick("mnist-eval")


def test_mnist_train_quick_mode_is_correct():
    run_quick("mnist-train")
