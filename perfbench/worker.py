"""One benchmark process: times the set-up, or runs and checks a workload's solves.

    python3 perfbench/worker.py setup --workload NAME
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1

`run.py` starts each in a fresh process with BLAS pinned to one thread and
`src` on the path.  Each prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SOLVE_SPAN = "solve."  # prefix of the benchmark's own span around each solve
OUT_DIR = Path(__file__).resolve().parent / "out"
# Median time of one `calibrate()` pass on the reference host (README,
# "Host speed"); a time measured while calibrate() took c seconds is
# reported as time * CAL_REF_S / c.
CAL_REF_S = 0.026
_CAL_INPUTS = None


def calibrate() -> float:
    """Time one pass of fixed numpy work that does not touch irsdm.

    The pass mixes what the solves spend their time on: small Hermitian
    eigenproblems, pseudo-inverses of Gram matrices, and short numpy calls
    driven from Python.  Its inputs never change, so its time follows the
    speed the host gives this process.
    """
    global _CAL_INPUTS
    import numpy as np

    if _CAL_INPUTS is None:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
        g = rng.standard_normal((84, 84)) + 1j * rng.standard_normal((84, 84))
        b = rng.standard_normal((4, 80)) + 1j * rng.standard_normal((4, 80))
        _CAL_INPUTS = (a + a.conj().T, g @ g.conj().T, b, np.exp(1j * rng.uniform(0.0, 6.0, 80)))
    a, g, b, x = _CAL_INPUTS
    t0 = time.perf_counter()
    for _ in range(8):
        np.linalg.eigvalsh(a)
    for _ in range(4):
        np.linalg.pinv(g, hermitian=True)
    for _ in range(600):
        y = b @ (x * a[0])
        x = np.exp(1j * np.angle(x + 1e-3 * float(np.vdot(y, y).real)))
    return time.perf_counter() - t0


def setup(workload: str) -> dict:
    """Import irsdm and build every channel set of the workload; time both,
    then time the calibration pass in the same process."""
    t0 = time.perf_counter()
    import irsdm.model as model
    import workloads

    for p in workloads.points(workload):
        model.build_channels(p.cfg, model.build_geometry(p.cfg))
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "cal_s": statistics.median(calibrate() for _ in range(7))}


def machine() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str:
        try:
            return str(mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    os_threads = None
    try:
        with open("/proc/self/status") as fh:
            os_threads = next((int(ln.split()[1]) for ln in fh if ln.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "process_threads": os_threads,  # 1 when BLAS started no worker threads
    }


class Round:
    """Runs every solve of a workload, timing each call and checking its output.

    A solve that a point repeats is called that many times per round; it
    counts as one attempt per round, and it fails if any call fails.  Each
    folded record keeps the times of all its calls.  An untraced round runs
    the calibration pass before every call.
    """

    def __init__(self, workload: str, repeat: bool = True):
        import irsdm.model as model
        import workloads
        from irsdm.bench import Scheme

        self.model = model
        self.cal_s: list[float] = []
        self.points = workloads.points(workload)
        self.solves = [(i, Scheme(kind)) for i, p in enumerate(self.points) for kind in p.schemes
                       for _ in range(p.repeats.get(kind, 1) if repeat else 1)]

    def run(self, order: list[int], tracer=None) -> dict:
        import checks
        from irsdm import bench

        build = self.model.build_channels  # looked up now, so a traced round sees the wrapper
        channels = [build(p.cfg, self.model.build_geometry(p.cfg)) for p in self.points]
        records = [None] * len(self.solves)
        for k in order:
            i, scheme = self.solves[k]
            point = self.points[i]
            rec = {"point": point.label, "scheme": scheme.kind, "failed": [], "problems": []}
            if tracer is None:
                self.cal_s.append(calibrate())
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    sol = bench.run_scheme(scheme, point.cfg, channels[i])
                else:
                    sol = tracer.span(bench.run_scheme, SOLVE_SPAN + scheme.kind, scheme, point.cfg, channels[i])
            except Exception as exc:  # a solve that raises fails alone; the round goes on
                rec["wall_s"] = time.perf_counter() - t0
                rec["failed"].append(f"raised {type(exc).__name__}: {exc}")
                rec["traceback"] = traceback.format_exc()
                records[k] = rec
                continue
            rec["wall_s"] = time.perf_counter() - t0
            rec.update(sr=sol.sr, iterations=sol.iterations, converged=sol.converged)
            rec["problems"] = checks.check_solution(point.cfg, channels[i], scheme.kind, sol, scheme.active_stream)
            if rec["problems"]:
                rec["failed"].append("output check: " + "; ".join(rec["problems"]))
            if not sol.converged:
                trace = sol.rs_trace
                gain = float(trace[-1] - trace[-2]) if len(trace) > 1 else float("nan")
                rec["failed"].append(
                    f"not converged: stopped after {sol.iterations} outer passes "
                    f"with the rate still rising {gain:.3g} bits per pass"
                )
            records[k] = rec
        solves, problems = {}, []
        for rec in records:
            solves.setdefault((rec["point"], rec["scheme"]), []).append(rec)
        folded = []
        for (label, kind), calls in solves.items():
            if len({c.get("sr") for c in calls}) > 1:
                problems.append(f"{label} {kind}: repeated calls gave different rates")
            folded.append(dict(
                calls[0], calls=len(calls),
                times=[c["wall_s"] for c in calls],
                wall_s=statistics.median(c["wall_s"] for c in calls),
                failed=list(dict.fromkeys(f for c in calls for f in c["failed"])),
                problems=list(dict.fromkeys(p for c in calls for p in c["problems"])),
            ))
        no_irs = {r["point"]: r["sr"] for r in folded if r["scheme"] == "no_irs" and "sr" in r}
        return {"records": folded, "problems": problems + checks.check_same_rate(no_irs)}


def _sum_time(records, kind=None) -> float:
    return sum(r["wall_s"] for r in records if kind is None or r["scheme"] == kind)


def _sum_median_time(rounds, kind=None) -> float:
    """Sum over solves of each solve's median time over every call in the run."""
    times: dict[tuple[str, str], list[float]] = {}
    for rd in rounds:
        for r in rd["records"]:
            if kind is None or r["scheme"] == kind:
                times.setdefault((r["point"], r["scheme"]), []).extend(r["times"])
    return sum(statistics.median(t) for t in times.values())


def _mean_sr(records, kind: str) -> float:
    srs = [r["sr"] for r in records if r["scheme"] == kind and "sr" in r]
    return sum(srs) / len(srs) if srs else float("nan")


def layer_metrics(spans: dict, outer: list, wall_s: float, span_cost_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round that took `wall_s` in its solves."""
    import numpy as np
    from irsdm.gai import GaOptions
    from irsdm.nsp import NspOptions

    import tracing

    table = tracing.span_table(spans)

    def s(name):
        return table.get(name, {}).get("s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    steps = calls("gai.gradient")
    ls_trials = calls("gai.ratio") - calls("gai.phase_block")
    per_block = tracing.children_per_span(spans, "gai.phase_block", "gai.gradient")
    names = list(spans["names"])
    outer_stats = {}
    for prefix, cap in (("gai", GaOptions().max_outer), ("nsp", NspOptions().max_outer)):
        # the gai and nsp schemes' own outer runs, not the baselines built on run_gai
        solve_id = names.index(SOLVE_SPAN + prefix) if SOLVE_SPAN + prefix in names else -1
        mine = [(it, conv) for idx, it, conv in outer
                if spans["parent"][idx] >= 0 and spans["name_id"][spans["parent"][idx]] == solve_id]
        outer_stats[prefix] = (sum(it for it, _ in mine), sum(1 for it, conv in mine if not conv and it >= cap))
    thetas = calls("nsp.theta_block")
    return {
        "model.build_channels.s": s("model.build_channels"),
        "rates.derived_model.s": s("rates.derived_model"),
        "rates.derived_model.calls": calls("rates.derived_model"),
        "rates.an_projector.s": s("rates.an_projector"),
        "rates.an_projector.calls": calls("rates.an_projector"),
        "rates.secrecy_rate.s": s("rates.secrecy_rate"),
        "gai.phase_block.s": s("gai.phase_block"),
        "gai.phase_block.calls": calls("gai.phase_block"),
        "gai.phase_problem_init.s": s("gai.phase_problem_init"),
        "gai.gradient.s": s("gai.gradient"),
        "gai.ratio.s": s("gai.ratio"),
        "gai.ga_steps": steps,
        "gai.ls_trials": ls_trials,
        "gai.ls_trials_per_step": ls_trials / steps if steps else 0.0,
        "gai.phase_cap_hits": int(np.sum(per_block >= GaOptions().max_ga_iters)),
        "gai.update_v.s": s("gai.update_v"),
        "gai.update_v.calls": calls("gai.update_v"),
        "gai.initial_beamformers.s": s("gai.initial_beamformers"),
        "gai.outer_iterations": outer_stats["gai"][0],
        "gai.outer_cap_hits": outer_stats["gai"][1],
        "nsp.theta_block.s": s("nsp.theta_block"),
        "nsp.theta_block.calls": thetas,
        "nsp.theta_star.s": s("nsp.theta_star"),
        "nsp.mu_evals": calls("nsp.theta_star"),
        "nsp.mu_evals_per_block": calls("nsp.theta_star") / thetas if thetas else 0.0,
        "nsp.w1_block.s": s("nsp.w1_block"),
        "nsp.w2_block.s": s("nsp.w2_block"),
        "nsp.qcqp_solves": calls("nsp.qcqp"),
        "nsp.stream_blocks.s": s("nsp.stream_blocks"),
        "nsp.phase_blocks.s": s("nsp.phase_blocks"),
        "nsp.ns_projectors.s": s("nsp.ns_projectors"),
        "nsp.outer_iterations": outer_stats["nsp"][0],
        "nsp.outer_cap_hits": outer_stats["nsp"][1],
        "bench.random_phase.s": s(SOLVE_SPAN + "random_phase"),
        "bench.random_phase.draws": int(tracing.children_per_span(
            spans, SOLVE_SPAN + "random_phase", "gai.run").sum()),
        "bench.single_cbs.s": s(SOLVE_SPAN + "single_cbs"),
        "bench.no_irs.s": s(SOLVE_SPAN + "no_irs"),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans["name_id"]),
        "trace.overhead_s": len(spans["name_id"]) * span_cost_s,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole rounds of the workload's solves until `seconds` have passed.

    Untraced, a solve's time is its median over all its calls in the run,
    and each time metric sums those medians, scaled to the reference host
    speed by the run's median calibration pass.  With `trace` each round
    runs under its own tracer, and the per-layer metrics are the median
    over rounds.
    """
    import tracing

    rnd = Round(workload, repeat=not trace)  # a traced round calls each solve once
    rng = random.Random(seed)
    rounds, tracers = [], []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        order = rng.sample(range(len(rnd.solves)), len(rnd.solves))
        if not trace:
            rounds.append(rnd.run(order))
            continue
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.append(rnd.run(order, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    problems = [p for rd in rounds for p in rd["problems"]]
    first = rounds[0]["records"]
    for rd in rounds[1:]:
        for a, b in zip(first, rd["records"]):
            if a.get("sr") != b.get("sr"):
                problems.append(f"{a['point']} {a['scheme']}: sr {b.get('sr')!r} differs from "
                                f"the first round's {a.get('sr')!r}")
    records = [r for rd in rounds for r in rd["records"]]
    failures = [f"{r['point']} {r['scheme']}: {reason}" for r in records for reason in r["failed"]]
    correct = not problems and not any(r["problems"] for r in records)

    span_summary, raw = None, None
    if trace:
        import numpy as np

        cost = tracing.span_cost()
        per_round = [layer_metrics(t.arrays(), t.outer, _sum_time(rd["records"]), cost)
                     for t, rd in zip(tracers, rounds)]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        spans = tracers[-1].arrays()
        OUT_DIR.mkdir(exist_ok=True)
        np.savez_compressed(OUT_DIR / f"{workload}-seed{seed}-spans.npz", **spans)
        span_summary = tracing.span_table(spans)
    else:
        raw = {
            "wall_s": _sum_median_time(rounds),
            "gai_s": _sum_median_time(rounds, "gai"),
            "nsp_s": _sum_median_time(rounds, "nsp"),
        }
        speed = CAL_REF_S / statistics.median(rnd.cal_s)
        metrics = {
            **{name: value * speed for name, value in raw.items()},
            "sr_gai_bits": _mean_sr(first, "gai"),
            "sr_nsp_bits": _mean_sr(first, "nsp"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": metrics,
        "rounds": len(rounds),
        "problems": problems,
        "failures": failures,
        "records": first,
        "spans": span_summary,
        "raw_s": raw,
        "cal_s": rnd.cal_s,
        "machine": machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        out = setup(args.workload)
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
