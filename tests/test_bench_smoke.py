"""Quick mode of the benchmark: the mnist-eval workload for two seconds.

A smoke test of the result schema only, not a timing gate. The workload's
own checks count as failed operations: every row is a finite estimate on the
sigma grid, and one condition's mean test log-likelihood matches an
independent plain log-sum-exp to 1e-9 relative.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mnist_eval_quick_mode_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mnist-eval", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2 and "info" in json.loads(lines[0])
    result = json.loads(lines[1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "op_ms", "peak_rss_mb", "cli_start_s"}
