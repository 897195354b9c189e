"""The benchmark's output checks: the rebuild agrees with irsdm.rates, and every check fires."""

from dataclasses import replace

import numpy as np
import pytest

import checks
from irsdm import rates
from irsdm.bench import Scheme, run_scheme
from irsdm.model import ChannelSet, SystemConfig, build_channels, build_geometry

SMALL = SystemConfig(N=8, M=6, K=2, d_AB=50.0)


def _channels(cfg):
    return build_channels(cfg, build_geometry(cfg))


def _random_channels(rng, cfg):
    def cn(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    n, m, k = cfg.N, cfg.M, cfg.K
    return ChannelSet(
        H_AI=cn(m, n), H_AB=cn(n, k), H_AE=cn(n, k), H_IB=cn(m, k), H_IE=cn(m, k),
        g_AB=1e-6, g_AE=2e-6, g_AIB=3e-9, g_AIE=1e-9,
    )


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("random_channels", [False, True])
@pytest.mark.parametrize("kind", ["gai", "no_irs", "single_cbs"])
def test_rebuild_matches_irsdm_rates_on_random_precoders(kind, random_channels):
    rng = np.random.default_rng(7)
    for trial in range(10):
        cfg = SystemConfig(N=8, M=int(rng.integers(2, 5)), K=2, d_AB=float(rng.uniform(20, 300)))
        ch = _random_channels(rng, cfg) if random_channels else _channels(cfg)
        v1, v2 = _unit(rng, cfg.N), _unit(rng, cfg.N)
        theta = np.exp(2j * np.pi * rng.random(cfg.M))
        cfg_prog = replace(cfg, beta1=0.0, beta2=0.8) if kind == "single_cbs" else cfg
        prec = rates.Precoders(v1=v1, v2=v2, theta=theta)
        dm = rates.derived_model(cfg_prog, ch, prec, include_irs=kind != "no_irs")
        r_b, r_e = checks.rebuild_rates(cfg, ch, v1, v2, theta, kind)
        assert r_b == pytest.approx(rates.rate_bob(dm, prec), abs=1e-9)
        assert r_e == pytest.approx(rates.rate_eve(dm, prec), abs=1e-9)
        assert r_e > 1e-6  # the comparison is not between two zeros


@pytest.fixture(scope="module")
def solutions():
    ch = _channels(SMALL)
    return ch, {kind: run_scheme(Scheme(kind, draws=4), SMALL, ch)
                for kind in ("gai", "nsp", "no_irs", "random_phase", "single_cbs")}


@pytest.mark.parametrize("kind", ["gai", "nsp", "no_irs", "random_phase", "single_cbs"])
def test_clean_solutions_pass(solutions, kind):
    ch, sols = solutions
    assert checks.check_solution(SMALL, ch, kind, sols[kind]) == []


def _corrupt(sol, what):
    if what == "v1 norm":
        return replace(sol, v1=sol.v1 * 1.001)
    if what == "theta modulus":
        theta = sol.theta.copy()
        theta[0] *= 1.01
        return replace(sol, theta=theta)
    if what == "p_an leaks into H_AI":
        return replace(sol, p_an=np.eye(len(sol.v1)))
    if what == "p_an differs":
        return replace(sol, p_an=0.5 * sol.p_an)
    if what == "trace drops":
        trace = sol.rs_trace.copy()
        trace[0] = trace[-1] + 1.0
        return replace(sol, rs_trace=trace)
    if what == "differs from the rebuild":
        return replace(sol, sr=sol.sr + 1e-7, rs_trace=np.append(sol.rs_trace[:-1], sol.sr + 1e-7))
    if what == "last entry of the rate trace":
        return replace(sol, rs_trace=np.append(sol.rs_trace[:-1], sol.sr + 1e-3))
    if what == "iterations reported":
        return replace(sol, iterations=sol.iterations + 1)
    raise AssertionError(what)


@pytest.mark.parametrize("what", [
    "v1 norm", "theta modulus", "p_an leaks into H_AI", "p_an differs", "trace drops",
    "differs from the rebuild", "last entry of the rate trace", "iterations reported",
])
def test_each_check_fires_on_a_corrupted_solution(solutions, what):
    ch, sols = solutions
    problems = checks.check_solution(SMALL, ch, "gai", _corrupt(sols["gai"], what))
    assert any(what in p for p in problems), problems


@pytest.mark.parametrize("vec, label", [("v1", "H_AB^H"), ("v1", "H_AE^H"), ("v2", "H_AI"), ("v2", "H_AE^H")])
def test_nsp_orthogonality_check_fires(solutions, vec, label):
    ch, sols = solutions
    sol = sols["nsp"]
    rows = {"H_AB^H": ch.H_AB.conj().T, "H_AE^H": ch.H_AE.conj().T, "H_AI": ch.H_AI}[label]
    v = getattr(sol, vec) + 1e-3 * rows[0].conj() / np.linalg.norm(rows[0])
    problems = checks.check_solution(SMALL, ch, "nsp", replace(sol, **{vec: v / np.linalg.norm(v)}))
    assert any(f"{vec} is not orthogonal to {label}" in p for p in problems), problems


def test_random_phase_checks_fire(solutions):
    ch, sols = solutions
    sol = sols["random_phase"]
    per_draw = sol.per_draw.copy()
    per_draw[int(np.argmax(per_draw))] += 1e-7
    problems = checks.check_solution(SMALL, ch, "random_phase", replace(sol, per_draw=per_draw))
    assert any("best draw's rate differs" in p for p in problems), problems
    assert any("mean over draws" in p for p in problems), problems


def test_same_rate_check():
    assert checks.check_same_rate({"M=10": 7.5, "M=80": 7.5}) == []
    assert checks.check_same_rate({"M=10": 7.5}) == []
    problems = checks.check_same_rate({"M=10": 7.5, "M=80": 7.5 + 1e-7})
    assert problems and "changes with the surface size" in problems[0]
