"""The benchmark's traced round runs against the current program.

Its per-layer metrics read the optimizers' option defaults and the pass
counts of their outer runs, so a change to the program can break
`perfbench/run.py --trace 1` while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep_m_near", "sweep_m_far"])
def test_traced_bench_round_runs_and_counts_outer_passes(workload):
    # writes its record to the git-ignored perfbench/out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["failed"] == 0
    assert res["metrics"]["gai.outer_iterations"]["value"] > 0
    assert res["metrics"]["nsp.outer_iterations"]["value"] > 0
