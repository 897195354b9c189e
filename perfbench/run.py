"""Benchmark of the paper's surface-size experiments.

    python3 perfbench/run.py --workload sweep_m_near --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in fresh processes with
BLAS pinned to one thread: several short ones time the set-up, then one
runs whole rounds of the workload's solves for at least `--seconds` and
checks every output.  Times are scaled to a reference host speed by a
fixed calibration pass timed in the same processes (README, "Host
speed").  With `--trace 0` the end-to-end metrics are printed, with
`--trace 1` the per-layer ones; the last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  A per-run record
(machine, every solve, every failure) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CAL_REF_S, OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5        # set-up processes; setup_s is their median
RUN_LIMIT_S = 175.0   # a run that takes longer is stopped and fails
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for a benchmark process: one BLAS thread, set before numpy loads."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run raises here, so subprocess.run kills and waits for its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "irsdm").is_dir():
        print(f"no irsdm package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_s = None
        if not args.trace:
            setups = [run_worker(["setup", "--workload", args.workload], deadline)
                      for _ in range(SETUP_RUNS)]
            setup_s = statistics.median(r["setup_s"] * CAL_REF_S / r["cal_s"] for r in setups)
        res = run_worker(["measure", "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = setup_s
        res["setup_runs"] = setups
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    res["workload"], res["seed"], res["seconds"], res["trace"] = (
        args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(res, indent=1))

    m = res["machine"]
    print(f"workload {args.workload}, seed {args.seed}, rounds {res['rounds']}, "
          f"{m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, openblas {m['numpy_openblas']}, {m['process_threads']} thread(s)")
    for rec in res["records"]:
        print(f"  {rec['point']:>10} {rec['scheme']:<13} {rec['wall_s']:9.3f} s  "
              f"sr {rec.get('sr', float('nan')):.10f}  iterations {rec.get('iterations', '-')}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        cal = statistics.median(res["cal_s"])
        print(f"times above are scaled by {CAL_REF_S * 1e3:g} ms / {cal * 1e3:.2f} ms, the reference "
              f"and this run's median calibration pass; unscaled: "
              + ", ".join(f"{k} = {v:.6g} s" for k, v in res["raw_s"].items()))
    print(f"solves attempted {res['attempted']}, failed {res['failed']}")
    for line in sorted(set(res["failures"])):
        print(f"  failed: {line}")
    for line in res["problems"]:
        print(f"  problem: {line}")
    print(f"record written to {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
