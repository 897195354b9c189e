"""How a run folds its calls into metrics, and the workloads it declares."""

import json
import math
from pathlib import Path

import worker
import workloads


def _round(times: dict) -> dict:
    return {"records": [{"point": p, "scheme": k, "times": t} for (p, k), t in times.items()]}


def test_each_solve_takes_its_median_over_every_call_of_the_run():
    rounds = [
        _round({("M=10", "gai"): [1.0, 5.0, 2.0], ("M=10", "nsp"): [4.0]}),
        _round({("M=10", "gai"): [3.0, 9.0, 2.5], ("M=10", "nsp"): [6.0]}),
    ]
    # gai: median of 1, 5, 2, 3, 9, 2.5 is 2.75; nsp: median of 4, 6 is 5
    assert worker._sum_median_time(rounds, "gai") == 2.75
    assert worker._sum_median_time(rounds, "nsp") == 5.0
    assert worker._sum_median_time(rounds) == 7.75


def test_calibration_pass_times_fixed_work():
    first, second = worker.calibrate(), worker.calibrate()
    assert all(math.isfinite(t) and t > 0.0 for t in (first, second))
    inputs = worker._CAL_INPUTS
    worker.calibrate()
    assert worker._CAL_INPUTS is inputs


def test_workloads_match_benchmark_json_and_repeat_only_their_schemes():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    for name in workloads.NAMES:
        for point in workloads.points(name):
            assert set(point.repeats) <= set(point.schemes)
