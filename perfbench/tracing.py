"""Spans recorded from outside the program, around the public functions of each layer.

`Tracer.install()` replaces each listed function in every module namespace
that looks it up (and `PhaseProblem`'s methods on the class) by a wrapper
that records one span: name, start, end and the span that was open when it
began.  Spans live in flat arrays while the run goes and are written out
once at the end; self times and counts are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each, so every call site is seen.
FUNCTIONS = (
    ("irsdm.model", "build_channels", "model.build_channels"),
    ("irsdm.rates", "an_projector", "rates.an_projector"),
    ("irsdm.nsp", "an_projector", "rates.an_projector"),
    ("irsdm.gai", "derived_model", "rates.derived_model"),
    ("irsdm.nsp", "derived_model", "rates.derived_model"),
    ("irsdm.bench", "derived_model", "rates.derived_model"),
    ("irsdm.gai", "secrecy_rate", "rates.secrecy_rate"),
    ("irsdm.nsp", "secrecy_rate", "rates.secrecy_rate"),
    ("irsdm.gai", "initial_beamformers", "gai.initial_beamformers"),
    ("irsdm.gai", "update_v1", "gai.update_v"),
    ("irsdm.gai", "update_v2", "gai.update_v"),
    ("irsdm.gai", "ga_optimize_theta", "gai.phase_block"),
    ("irsdm.bench", "run_gai", "gai.run"),
    ("irsdm.nsp", "ns_projectors", "nsp.ns_projectors"),
    ("irsdm.nsp", "stream_blocks", "nsp.stream_blocks"),
    ("irsdm.nsp", "update_w1", "nsp.w1_block"),
    ("irsdm.nsp", "update_w2", "nsp.w2_block"),
    ("irsdm.nsp", "dual_qcqp_solve", "nsp.qcqp"),
    ("irsdm.nsp", "phase_blocks", "nsp.phase_blocks"),
    ("irsdm.nsp", "update_theta_nsp", "nsp.theta_block"),
    ("irsdm.nsp", "theta_star_of_mu", "nsp.theta_star"),
    ("irsdm.bench", "run_nsp", "nsp.run"),
)
METHODS = (
    ("irsdm.gai", "PhaseProblem", "__init__", "gai.phase_problem_init"),
    ("irsdm.gai", "PhaseProblem", "ratio", "gai.ratio"),
    ("irsdm.gai", "PhaseProblem", "gradient", "gai.gradient"),
)
# Outer runs whose returned iteration count and converged flag are kept.
OUTER_RUNS = ("gai.run", "nsp.run")


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.outer: list[tuple[int, int, bool]] = []  # (span index, iterations, converged) per outer run
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        keep_outer = name in OUTER_RUNS
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if keep_outer:
                self.outer.append((idx, int(out.iterations_used), bool(out.converged)))
            return out

        return traced

    def span(self, fn, name: str, *args, **kwargs):
        """Call fn under a span of the given name (for the benchmark's own boundaries)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self) -> None:
        for mod_name, attr, name in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            self._swap(mod, attr, self.wrap(getattr(mod, attr), name))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            self._swap(cls, attr, self.wrap(cls.__dict__[attr], name))

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def span_table(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time (self plus children) and self time, seconds.

    Total time sums only the outermost span of each name, so a name nested
    in itself is not counted twice.
    """
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    table = {}
    for nid, name in enumerate(spans["names"]):
        idx = np.flatnonzero(name_id == nid)
        # spans are stored in start order; one that starts before an
        # earlier same-name span has ended is nested inside it
        ends = spans["end"][idx]
        prior_end = np.concatenate([[-np.inf], np.maximum.accumulate(ends)[:-1]])
        outermost = spans["start"][idx] >= prior_end
        table[str(name)] = {
            "calls": int(idx.size),
            "s": float(dur[idx][outermost].sum()),
            "self_s": float(self_time[idx].sum()),
        }
    return table


def children_per_span(spans: dict[str, np.ndarray], parent_name: str, child_name: str) -> np.ndarray:
    """Number of direct `child_name` children under each `parent_name` span."""
    names = list(spans["names"])
    if parent_name not in names or child_name not in names:
        return np.zeros(0, dtype=int)
    pid, cid = names.index(parent_name), names.index(child_name)
    parents = np.flatnonzero(spans["name_id"] == pid)
    kids = spans["parent"][spans["name_id"] == cid]
    counts = np.zeros(len(spans["name_id"]), dtype=int)
    np.add.at(counts, kids[kids >= 0], 1)
    return counts[parents]


def span_cost(calls: int = 20000, batches: int = 7) -> float:
    """Seconds one span adds to a call: a wrapped no-op against a bare one, median of batches."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    costs = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
