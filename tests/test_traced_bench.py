"""The benchmark's rounds run against the current program.

The traced round's per-layer metrics read the optimizers' option defaults
and the pass counts of their outer runs, and the untraced round reports the
end-to-end metrics that BENCHMARK.json declares, so a change to the program
can break `perfbench/run.py` while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench(workload, trace):
    # writes its record to the git-ignored perfbench/out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["failed"] == 0
    return res["metrics"]


# Per-layer metrics that may read 0 on working code: the cap hits count
# faults, and `nsp.dual_qcqp_solve` is a placeholder that nothing calls, kept
# only so the tracer's lookup resolves, so `nsp.qcqp_solves` always reads 0.
MAY_READ_ZERO = {"gai.phase_cap_hits", "gai.outer_cap_hits", "nsp.outer_cap_hits", "nsp.qcqp_solves"}


@pytest.mark.parametrize("workload", ["sweep_m_near", "sweep_m_far"])
def test_traced_bench_round_runs_and_counts_outer_passes(workload):
    metrics = _bench(workload, trace=1)
    assert metrics["gai.outer_iterations"]["value"] > 0
    assert metrics["nsp.outer_iterations"]["value"] > 0
    # every other per-layer time and count is fed by a traced name, so a
    # change that stops calling one fails here instead of zeroing a metric
    zero = {name for name, m in metrics.items() if name not in MAY_READ_ZERO and not m["value"] > 0}
    assert not zero, sorted(zero)


@pytest.mark.parametrize("workload", ["sweep_m_near", "sweep_m_far"])
def test_untraced_bench_round_reports_the_declared_end_to_end_metrics(workload):
    metrics = _bench(workload, trace=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
