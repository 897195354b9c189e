"""Benchmark scheme and experiment checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsdm.bench import (
    AN_SHARE_SINGLE,
    SCHEME_KINDS,
    Scheme,
    convergence_trace,
    run_scheme,
    sweep_sr_vs_m,
    sweep_sr_vs_position,
)
from irsdm.gai import Solution, run_gai
from irsdm.model import SystemConfig, build_channels, build_geometry, parallel_irs_angle
from irsdm.nsp import NspOptions, run_nsp


def _channels(cfg):
    return build_channels(cfg, build_geometry(cfg))


# ---------------------------------------------------------------- scheme object


def test_scheme_rejects_unknown_kind():
    with pytest.raises(ValueError, match="zigzag"):
        Scheme(kind="zigzag")


def test_scheme_rejects_bad_knobs():
    with pytest.raises(ValueError, match="active_stream"):
        Scheme(kind="single_cbs", active_stream=3)
    with pytest.raises(ValueError, match="draws"):
        Scheme(kind="random_phase", draws=0)


@pytest.mark.parametrize("make", [
    lambda: Scheme("random_phase", draws=True),
    lambda: Scheme("single_cbs", active_stream=True),
    lambda: NspOptions(max_outer=0),
], ids=["draws=True", "active_stream=True", "nsp max_outer=0"])
def test_knobs_reject_bools_and_non_positive_counts(make):
    with pytest.raises(ValueError, match="draws|active_stream|max_outer"):
        make()


@pytest.mark.parametrize("kind", ["gai", "no_irs", "random_phase", "single_cbs"])
def test_schemes_run_with_one_antenna(kind):
    # SystemConfig accepts N = 1; the initial beamformers used to index a
    # second canonical direction that does not exist
    cfg = SystemConfig(N=1, M=4, K=1)
    sol = run_scheme(Scheme(kind, draws=3), cfg, build_channels(cfg, build_geometry(cfg)))
    assert sol.converged
    assert np.all(np.diff(sol.rs_trace) >= -1e-9)
    assert sol.v1.shape == (1,)


# ---------------------------------------------------------------- run record


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_every_scheme_returns_the_optimizers_run_record(kind):
    cfg = SystemConfig(M=8)
    ch = _channels(cfg)
    sol = run_scheme(Scheme(kind, draws=3), cfg, ch)
    assert isinstance(sol, Solution)
    assert sol.iterations_used == sol.iterations
    direct = {"gai": run_gai, "nsp": run_nsp}.get(kind)
    if direct is not None:
        # the scheme hands the optimizer's record on unchanged
        ref = direct(cfg, ch)
        for field in dataclasses.fields(Solution):
            assert np.array_equal(getattr(sol, field.name), getattr(ref, field.name)), field.name


# ---------------------------------------------------------------- rate traces


@pytest.mark.parametrize("kind, cfg", [
    ("nsp", SystemConfig(N=25, M=64, K=6, ps_dbm=88.50555473837102, d_AI=144.3327520991369,
                         d_AB=15.263560354274148, d_AE=27.955158417738353, theta_AI=3.126495624033784,
                         theta_AB=1.1692675619785569, theta_AE=2.3079139926784635)),
    ("gai", SystemConfig(N=32, M=80, K=8, ps_dbm=86.0)),
    ("nsp", SystemConfig(d_AB=50.0, M=10, ps_dbm=90.0)),
], ids=["nsp-random-drop", "gai-N32-M80-K8", "nsp-d50-M10"])
def test_traces_never_decrease_at_high_transmit_power(kind, cfg):
    # without the undo in `gai.alternate`, rounding in the block solves
    # lowers these traces by 8.0e-6, 3.96e-7 and 6.9e-8 bits in one pass;
    # the undone pass still counts and ends the run
    sol = run_scheme(Scheme(kind), cfg, _channels(cfg))
    assert np.all(np.diff(sol.rs_trace) >= 0)
    assert sol.converged
    assert len(sol.rs_trace) == sol.iterations + 1


@st.composite
def _drops(draw):
    """SystemConfig over sizes, distances and ps up to 90 dBm, with three
    distinct angles from Alice so that no two nodes coincide."""
    first = draw(st.floats(0.05, 1.0))
    gaps = draw(st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)))
    angles = draw(st.permutations([first, first + gaps[0], first + gaps[0] + gaps[1]]))
    dist = st.floats(5.0, 300.0)
    return SystemConfig(
        N=draw(st.integers(2, 32)), M=draw(st.integers(1, 120)), K=draw(st.integers(1, 8)),
        ps_dbm=draw(st.floats(0.0, 90.0)), d_AI=draw(dist), d_AB=draw(dist), d_AE=draw(dist),
        theta_AI=angles[0], theta_AB=angles[1], theta_AE=angles[2],
    )


@settings(max_examples=30, deadline=None)
@given(cfg=_drops())
def test_every_scheme_runs_with_a_non_decreasing_trace(cfg):
    # convergence is not asserted: some drops stop at the outer-pass cap
    ch = _channels(cfg)
    for kind in ("gai", "nsp", "no_irs", "single_cbs"):
        if kind == "nsp" and cfg.N == 2:
            # Bob's and Eve's direct channels fill both antennas' directions
            with pytest.raises(ValueError, match="P1 null space is empty"):
                run_scheme(Scheme(kind), cfg, ch)
            continue
        sol = run_scheme(Scheme(kind), cfg, ch)
        assert np.all(np.diff(sol.rs_trace) >= 0), kind


# ---------------------------------------------------------------- single runs


def test_no_irs_scheme_independent_of_surface_size():
    srs = []
    for m in (4, 40):
        cfg = SystemConfig(M=m)
        sol = run_scheme(Scheme(kind="no_irs"), cfg, _channels(cfg))
        srs.append(sol.sr)
    assert srs[0] == pytest.approx(srs[1], abs=1e-9)


def test_random_phase_reproducible_and_seed_sensitive():
    cfg = SystemConfig(M=6)
    scheme = Scheme(kind="random_phase", draws=4)
    a = run_scheme(scheme, cfg, _channels(cfg))
    b = run_scheme(scheme, cfg, _channels(cfg))
    assert np.array_equal(a.per_draw, b.per_draw)
    assert a.sr == b.sr
    cfg2 = SystemConfig(M=6, seed=7)
    c = run_scheme(scheme, cfg2, _channels(cfg2))
    assert not np.array_equal(a.per_draw, c.per_draw)


def test_random_phase_reports_mean_over_draws():
    cfg = SystemConfig(M=6)
    sol = run_scheme(Scheme(kind="random_phase", draws=5), cfg, _channels(cfg))
    assert sol.per_draw.shape == (5,)
    assert sol.sr == pytest.approx(float(sol.per_draw.mean()), abs=1e-12)
    # the kept precoders belong to the best draw
    assert float(sol.rs_trace[-1]) == pytest.approx(float(sol.per_draw.max()), abs=1e-12)


@pytest.mark.parametrize("d_ab", [50.0, 300.0])
def test_random_phase_shares_one_model_without_changing_a_draw(d_ab):
    # every draw runs on a model of the call's one set of channel terms,
    # moved to its phases, and gives the rate of a run that forms its own
    cfg = SystemConfig(M=6, d_AB=d_ab)
    ch = _channels(cfg)
    sol = run_scheme(Scheme(kind="random_phase", draws=5), cfg, ch)
    rng = np.random.default_rng(cfg.seed)
    alone = [run_gai(cfg, ch, fixed_theta=np.exp(2j * np.pi * rng.random(cfg.M))).sr for _ in range(5)]
    assert np.array_equal(sol.per_draw, alone)


# the bench's six points (`perfbench/workloads.py`): (d_AB, M) -> gai's and
# nsp's secrecy rates and pass counts, as the optimizers gave them when the
# bench was last re-measured; their means are the bench's sr_gai_bits and
# sr_nsp_bits (21.707788256598963 and 21.54519282039872 at 50 m,
# 9.2433932111609 and 8.170854360900194 at 300 m).  gai's rates at 50 m,
# M = 50/200 and 300 m, M = 30/80 sit on shallow ridges, where the point
# the alternation stops at depends on the rounding of its beamformer steps
# (CHANGES.md gives their limits at epsilon = 1e-9).
BENCH_SOLVES = {
    (50.0, 10): (16.61066588144423, 4, 16.446399598364714, 2),
    (50.0, 50): (22.23672629985158, 3, 22.074675275625125, 2),
    (50.0, 200): (26.27597258850109, 3, 26.114503587206322, 2),
    (300.0, 10): (8.160979702843214, 5, 6.999419953685313, 2),
    (300.0, 30): (8.88714441373783, 5, 7.7691566678822825, 2),
    (300.0, 80): (10.682055516901654, 4, 9.743986461132986, 2),
}


@pytest.mark.parametrize("point", list(BENCH_SOLVES), ids=lambda p: f"d_AB={p[0]:g} M={p[1]}")
def test_bench_points_keep_their_rates_and_pass_counts(point):
    # a change that moves a bench rate by more than 1e-9 bits says why
    d_ab, m = point
    cfg = dataclasses.replace(SystemConfig(), d_AB=d_ab, M=m, seed=0)
    ch = _channels(cfg)
    gai_sr, gai_passes, nsp_sr, nsp_passes = BENCH_SOLVES[point]
    gai, nsp = run_gai(cfg, ch), run_nsp(cfg, ch)
    assert gai.sr == pytest.approx(gai_sr, rel=0.0, abs=1e-9)
    assert gai.iterations == gai_passes
    assert nsp.sr == pytest.approx(nsp_sr, rel=0.0, abs=1e-9)
    assert nsp.iterations == nsp_passes


# the same pins, seed 0, on the placement line (M = 80, the surface at
# d_AI on the line parallel to Bob-Eve) and at the headline points (d_AB =
# 50 m at high power): SystemConfig overrides -> gai's and nsp's secrecy
# rates and pass counts
_LINE = {"M": 80, "theta_AI": parallel_irs_angle(SystemConfig())}
LINE_AND_HEADLINE_SOLVES = [
    ({**_LINE, "d_AI": 20.0}, (13.45390649983, 4, 11.54165641082386, 2)),
    ({**_LINE, "d_AI": 50.0}, (14.999159552283412, 7, 13.483889861752356, 2)),
    ({**_LINE, "d_AI": 100.0}, (21.73392400161569, 3, 20.265367959989213, 2)),
    ({"d_AB": 50.0, "M": 1000, "ps_dbm": 90.0}, (70.78262410605197, 3, 70.62065192055876, 2)),
    ({"d_AB": 50.0, "M": 4000, "ps_dbm": 90.0}, (74.78262300911379, 3, 74.62065192358594, 2)),
    ({"d_AB": 50.0, "M": 1000, "ps_dbm": 110.0}, (84.07033647387235, 3, 83.90836429631918, 2)),
]


@pytest.mark.parametrize("overrides, pins", LINE_AND_HEADLINE_SOLVES, ids=[
    " ".join(f"{k}={v:g}" for k, v in overrides.items() if k != "theta_AI") for overrides, _ in LINE_AND_HEADLINE_SOLVES])
def test_placement_and_headline_points_keep_their_rates_and_pass_counts(overrides, pins):
    # a change that moves one of these rates by more than 1e-9 bits says why
    cfg = dataclasses.replace(SystemConfig(), seed=0, **overrides)
    ch = _channels(cfg)
    for sol, (sr, passes) in zip((run_gai(cfg, ch), run_nsp(cfg, ch)), (pins[:2], pins[2:])):
        assert sol.sr == pytest.approx(sr, rel=0.0, abs=1e-9)
        assert sol.iterations == passes


# the baselines at the same points, seed 0: (secrecy rate, passes) of
# single_cbs, no_irs and random_phase (50 draws: the mean rate and the
# rounded mean pass count)
BASELINE_SOLVES = {
    (50.0, 10): (13.270433601141347, 5, 13.132272627447923, 3, 13.202877077799531, 4),
    (50.0, 50): (15.125015877918683, 3, 13.132272627447923, 3, 13.309371498142685, 4),
    (50.0, 200): (18.656755281800166, 4, 13.132272627447923, 3, 13.633715622450131, 4),
    (300.0, 10): (8.160937078499865, 4, 7.967704252766152, 3, 7.951430248812166, 3),
    (300.0, 30): (8.88805957185122, 5, 7.967704252766152, 3, 7.948064216256792, 3),
    (300.0, 80): (10.681925364478, 4, 7.967704252766152, 3, 7.947563513989311, 3),
}


@pytest.mark.parametrize("point", list(BASELINE_SOLVES), ids=lambda p: f"d_AB={p[0]:g} M={p[1]}")
def test_bench_points_keep_their_baseline_rates_and_pass_counts(point):
    # a change that moves a baseline's bench rate by more than 1e-9 bits says why
    d_ab, m = point
    cfg = dataclasses.replace(SystemConfig(), d_AB=d_ab, M=m, seed=0)
    ch = _channels(cfg)
    pins = BASELINE_SOLVES[point]
    for i, kind in enumerate(("single_cbs", "no_irs", "random_phase")):
        sol = run_scheme(Scheme(kind), cfg, ch)
        assert sol.sr == pytest.approx(pins[2 * i], rel=0.0, abs=1e-9), kind
        assert sol.iterations == pins[2 * i + 1], kind


def test_optimized_schemes_dominate_baselines():
    cfg = SystemConfig(M=10)
    ch = _channels(cfg)
    gai = run_scheme(Scheme(kind="gai"), cfg, ch)
    nsp = run_scheme(Scheme(kind="nsp"), cfg, ch)
    no_irs = run_scheme(Scheme(kind="no_irs"), cfg, ch)
    rand = run_scheme(Scheme(kind="random_phase", draws=5), cfg, ch)
    assert gai.sr >= nsp.sr - 1e-6
    assert gai.sr >= no_irs.sr - 1e-9
    assert gai.sr >= rand.sr - 1e-9


def test_single_stream_scheme_runs_both_streams():
    cfg = SystemConfig(M=8)
    ch = _channels(cfg)
    for stream in (1, 2):
        sol = run_scheme(Scheme(kind="single_cbs", active_stream=stream), cfg, ch)
        assert np.all(np.diff(sol.rs_trace) >= -1e-9)
        assert sol.sr > 0
    assert AN_SHARE_SINGLE == pytest.approx(0.2)


def test_dual_stream_gain_rises_with_transmit_power():
    # the abstract's high-SNR claim: the gai over single_cbs ratio at M = 50
    # on the 50 m link grows with power (1.470 at 30 dBm, 1.771 at 90 dBm;
    # README, criterion 9), slowly, as [log(1+x) + log(1+y)] / log(1+x+y) does
    ratios = []
    for ps in (30.0, 40.0, 50.0, 60.0, 70.0, 90.0):
        cfg = SystemConfig(M=50, d_AB=50.0, ps_dbm=ps)
        ch = _channels(cfg)
        ratios.append(run_scheme(Scheme(kind="gai"), cfg, ch).sr
                      / run_scheme(Scheme(kind="single_cbs"), cfg, ch).sr)
    assert np.all(np.diff(ratios) > 0), ratios
    assert ratios[0] > 1.0


# ---------------------------------------------------------------- experiments


def test_sweep_m_shape_and_growth():
    cfg = SystemConfig()
    schemes = [Scheme(kind="gai"), Scheme(kind="no_irs")]
    res = sweep_sr_vs_m(cfg, [6, 12], schemes)
    assert res.experiment == "sweep_m"
    assert res.axis_name == "M"
    assert res.axis_values == [6.0, 12.0]
    assert set(res.series) == {"gai", "no_irs"}
    assert all(len(v) == 2 for v in res.series.values())
    assert all(len(v) == 2 for v in res.iterations.values())
    # more elements never hurt the optimized surface
    assert res.series["gai"][1] >= res.series["gai"][0] - 1e-9
    # the surface-free baseline does not move with M
    assert res.series["no_irs"][0] == pytest.approx(res.series["no_irs"][1], abs=1e-9)


def test_sweep_position_pins_the_parallel_line():
    cfg = SystemConfig(M=8)
    res = sweep_sr_vs_position(cfg, [20.0, 60.0], [Scheme(kind="gai")])
    assert res.experiment == "sweep_position"
    assert res.axis_name == "d_AI"
    assert res.axis_values == [20.0, 60.0]
    assert len(res.series["gai"]) == 2
    assert all(np.isfinite(res.series["gai"]))
    # the pinned angle must match the geometry helper
    assert 0.0 < parallel_irs_angle(cfg) < np.pi


def test_convergence_trace_pads_to_common_depth():
    cfg = SystemConfig()
    res = convergence_trace(cfg, [6, 12], [Scheme(kind="gai"), Scheme(kind="nsp")])
    assert set(res.series) == {"gai_M6", "gai_M12", "nsp_M6", "nsp_M12"}
    depth = len(res.axis_values)
    assert res.axis_values == [float(i) for i in range(depth)]
    for label, trace in res.series.items():
        assert len(trace) == depth
        assert np.all(np.diff(trace) >= -1e-9)


def test_convergence_trace_rejects_non_optimizers():
    cfg = SystemConfig()
    with pytest.raises(ValueError, match="optimizers"):
        convergence_trace(cfg, [6], [Scheme(kind="no_irs")])


def test_convergence_trace_rejects_a_repeated_m():
    # both runs at M = 10 would share the label gai_M10, and one used to be dropped
    with pytest.raises(ValueError, match="repeated M"):
        convergence_trace(SystemConfig(), [10, 10], [Scheme(kind="gai")])


def test_sweep_errors_name_the_point_and_the_scheme():
    # one antenna leaves nsp's stream-1 null space empty
    with pytest.raises(ValueError, match="converge at M=4, scheme nsp: P1 null space is empty") as info:
        convergence_trace(SystemConfig(N=1), [4], [Scheme("gai"), Scheme("nsp")])
    assert "P1 null space is empty" in str(info.value.__cause__)
