"""Span recording and the figures derived from spans."""

import numpy as np

import tracing
from irsdm import bench, gai, nsp, rates
from irsdm.bench import Scheme, run_scheme
from irsdm.model import SystemConfig, build_channels, build_geometry


def test_span_table_self_time_and_nesting():
    # a(0..10) holds b(1..4) which holds a(2..3); c(5..9) is a second child of the outer a
    spans = {
        "names": np.array(["a", "b", "c"]),
        "name_id": np.array([0, 1, 0, 2]),
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
    }
    table = tracing.span_table(spans)
    assert table["a"] == {"calls": 2, "s": 10.0, "self_s": (10.0 - 3.0 - 4.0) + 1.0}
    assert table["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert table["c"] == {"calls": 1, "s": 4.0, "self_s": 4.0}
    assert list(tracing.children_per_span(spans, "a", "b")) == [1, 0]


def test_traced_solve_matches_untraced_and_restores_functions():
    cfg = SystemConfig(N=8, M=6, K=2)
    ch = build_channels(cfg, build_geometry(cfg))
    originals = (rates.an_projector, nsp.an_projector, gai.derived_model, bench.run_gai,
                 gai.PhaseProblem.__dict__["ratio"])
    plain = {k: run_scheme(Scheme(k, draws=2), cfg, ch).sr for k in ("gai", "nsp", "random_phase")}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {k: tracer.span(run_scheme, "solve." + k, Scheme(k, draws=2), cfg, ch).sr
                  for k in ("gai", "nsp", "random_phase")}
    finally:
        tracer.uninstall()
    assert traced == plain
    assert originals == (rates.an_projector, nsp.an_projector, gai.derived_model, bench.run_gai,
                         gai.PhaseProblem.__dict__["ratio"])
    table = tracing.span_table(tracer.arrays())
    assert table["gai.run"]["calls"] == 2 + 1  # two random-phase draws and the gai solve
    assert table["nsp.run"]["calls"] == 1
    assert table["gai.ratio"]["calls"] > table["gai.gradient"]["calls"] > 0
    assert table["rates.an_projector"]["calls"] > 0
    assert len(tracer.outer) == 4
