"""Null-space optimizer checks: projectors, QCQP dual, block steps, full runs."""

import math

import numpy as np
import pytest
import scipy.linalg

from irsdm.model import SystemConfig, build_channels, build_geometry
from irsdm.nsp import (
    NspBlocks,
    dual_qcqp_solve,
    fractional_blocks_w1,
    ns_projectors,
    phase_blocks,
    phi_star,
    quadratic_block_w2,
    run_nsp,
    stream_blocks,
    theta_star_of_mu,
    update_theta_nsp,
    update_w1,
    update_w2,
)
from irsdm.rates import Precoders, derived_model, eve_noise_solver, rate_bob, rate_eve


def _setup(cfg=None):
    cfg = cfg or SystemConfig()
    ch = build_channels(cfg, build_geometry(cfg))
    return cfg, ch


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _shell_point(rng, p):
    # random vector scaled so its projection has unit norm
    w = rng.normal(size=p.shape[0]) + 1j * rng.normal(size=p.shape[0])
    return w / np.linalg.norm(p @ w)


def _range_basis(p):
    evals, evecs = np.linalg.eigh(p)
    return evecs[:, evals > 0.5]


def _quad(a, w):
    return float(np.real(w.conj() @ a @ w))


# ---------------------------------------------------------------- projectors


def test_projectors_annihilate_their_channels():
    cfg, ch = _setup()
    p1, p2 = ns_projectors(ch)
    assert np.linalg.norm(ch.H_AB.conj().T @ p1) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ p1) < 1e-8
    assert np.linalg.norm(ch.H_AI @ p2) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ p2) < 1e-8


def test_projectors_idempotent_hermitian_with_expected_rank():
    cfg, ch = _setup()
    p1, p2 = ns_projectors(ch)
    for p in (p1, p2):
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-12
    # each constraint stack is a pair of rank-one channels
    r1 = np.linalg.matrix_rank(np.vstack([ch.H_AB.conj().T, ch.H_AE.conj().T]))
    r2 = np.linalg.matrix_rank(np.vstack([ch.H_AI, ch.H_AE.conj().T]))
    assert np.trace(p1).real == pytest.approx(cfg.N - r1, abs=1e-8)
    assert np.trace(p2).real == pytest.approx(cfg.N - r2, abs=1e-8)


def test_projectors_reject_when_constraints_fill_the_array():
    cfg = SystemConfig(N=2, M=4, K=2)
    ch = build_channels(cfg, build_geometry(cfg))
    with pytest.raises(ValueError, match="null space"):
        ns_projectors(ch)


# ---------------------------------------------------------------- QCQP dual


def test_dual_qcqp_identity_interior_and_boundary():
    n = 5
    eye = np.eye(n, dtype=complex)
    rng = np.random.default_rng(0)
    small = 0.3 * _unit(rng, n)
    w = dual_qcqp_solve(eye, small, eye)
    assert np.linalg.norm(w - small) < 1e-6
    big = 4.0 * _unit(rng, n)
    w = dual_qcqp_solve(eye, big, eye)
    assert np.linalg.norm(w - big / np.linalg.norm(big)) < 1e-6


def test_dual_qcqp_kkt_and_sampling_oracle():
    rng = np.random.default_rng(1)
    n = 6
    for trial in range(10):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g @ g.conj().T + 0.5 * np.eye(n)
        u, _ = np.linalg.qr(rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3)))
        q = u @ u.conj().T
        b = 2.0 * _unit(rng, n)
        w = dual_qcqp_solve(a, b, q)

        def obj(x):
            return 2 * np.real(b.conj() @ x) - _quad(a, x)

        assert _quad(q, w) <= 1.0 + 1e-6
        # stationarity: b - A w must be a nonnegative multiple of Q w
        resid = b - a @ w
        qw = q @ w
        if np.linalg.norm(qw) > 1e-9:
            lam = (qw.conj() @ resid) / (qw.conj() @ qw)
            assert lam.real > -1e-6
            assert abs(lam.imag) < 1e-6 * (1 + abs(lam))
            assert np.linalg.norm(resid - lam.real * qw) < 1e-5
        for _ in range(200):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = _quad(q, x)
            if c > 1.0:
                x = x / math.sqrt(c)
            assert obj(w) >= obj(x) - 1e-6


def test_dual_qcqp_rejects_runaway_multiplier():
    # a huge drive needs a multiplier beyond the bracketing cap
    b = np.array([1e13, 0.0], dtype=complex)
    with pytest.raises(RuntimeError, match="bracketing cap"):
        dual_qcqp_solve(np.eye(2, dtype=complex), b, np.eye(2, dtype=complex))


# ---------------------------------------------------------------- stream blocks


def test_stream_blocks_match_effective_channels():
    cfg, ch = _setup()
    rng = np.random.default_rng(2)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    blocks = stream_blocks(cfg, ch, p1, p2, theta)
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta)
    dm = derived_model(cfg, ch, prec)
    assert np.linalg.norm(blocks.A1 @ w1 - dm.H_B1 @ prec.v1) < 1e-8
    assert np.linalg.norm(blocks.A2 @ w2 - dm.H_B2 @ prec.v2) < 1e-8
    assert np.linalg.norm(blocks.A3 @ w1 - dm.H_E1 @ prec.v1) < 1e-8
    # stream 2 is invisible to Eve by construction
    assert np.linalg.norm(dm.H_E2 @ prec.v2) < 1e-8
    assert np.linalg.norm(blocks.B - dm.B) < 1e-8


# ---------------------------------------------------------------- w1 and w2 steps


def _default_blocks(seed=3):
    cfg, ch = _setup()
    rng = np.random.default_rng(seed)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    return cfg, ch, rng, stream_blocks(cfg, ch, p1, p2, theta)


def test_update_w1_raises_quotient_and_meets_residual():
    cfg, ch, rng, blocks = _default_blocks()
    for _ in range(5):
        w1 = _shell_point(rng, blocks.P1)
        w2 = _shell_point(rng, blocks.P2)
        a_til, b_til = fractional_blocks_w1(blocks, w2)
        q0 = _quad(a_til, w1) / _quad(b_til, w1)
        w, nu = update_w1(blocks, w1, w2)
        q1 = _quad(a_til, w) / _quad(b_til, w)
        assert q1 >= q0 - 1e-9
        assert q1 == pytest.approx(nu, abs=1e-6)
        assert _quad(blocks.P1, w) == pytest.approx(1.0, abs=1e-6)


def test_update_w1_zero_eve_matches_subspace_eigenvalue():
    # with Eve's block silenced the quotient is a plain Rayleigh quotient on
    # the protected subspace; boost stream 1 so the top eigenvalue is well
    # separated from the projector's unit cluster
    cfg, ch, rng, blocks = _default_blocks(seed=4)
    quiet = NspBlocks(
        P1=blocks.P1, P2=blocks.P2, A1=100.0 * blocks.A1, A2=blocks.A2,
        A3=np.zeros_like(blocks.A3), B=blocks.B,
    )
    w1 = _shell_point(rng, blocks.P1)
    w2 = _shell_point(rng, blocks.P2)
    w, nu = update_w1(quiet, w1, w2)
    a_til, b_til = fractional_blocks_w1(quiet, w2)
    basis = _range_basis(quiet.P1)
    lam_star = scipy.linalg.eigvalsh(basis.conj().T @ a_til @ basis)[-1]
    assert nu <= lam_star + 1e-8
    assert nu == pytest.approx(lam_star, rel=1e-6)


def test_update_w1_upper_bound_certificate_weak_coupling():
    # even on a nearly flat spectrum the quotient never exceeds the
    # subspace eigenvalue bound
    cfg, ch, rng, blocks = _default_blocks(seed=4)
    quiet = NspBlocks(
        P1=blocks.P1, P2=blocks.P2, A1=blocks.A1, A2=blocks.A2,
        A3=np.zeros_like(blocks.A3), B=blocks.B,
    )
    w1 = _shell_point(rng, blocks.P1)
    w2 = _shell_point(rng, blocks.P2)
    w, nu = update_w1(quiet, w1, w2)
    a_til, _ = fractional_blocks_w1(quiet, w2)
    basis = _range_basis(quiet.P1)
    lam_star = scipy.linalg.eigvalsh(basis.conj().T @ a_til @ basis)[-1]
    assert nu <= lam_star + 1e-8
    assert nu == pytest.approx(lam_star, rel=1e-4)


def test_update_w2_matches_subspace_eigenvalue():
    cfg, ch, rng, blocks = _default_blocks(seed=5)
    for _ in range(5):
        w1 = _shell_point(rng, blocks.P1)
        w2 = _shell_point(rng, blocks.P2)
        a_til = quadratic_block_w2(blocks, w1)
        obj0 = _quad(a_til, w2)
        w = update_w2(blocks, w1, w2)
        obj1 = _quad(a_til, w)
        basis = _range_basis(blocks.P2)
        lam_star = scipy.linalg.eigvalsh(basis.conj().T @ a_til @ basis)[-1]
        assert obj1 >= obj0 - 1e-9
        assert obj1 <= lam_star + 1e-8
        assert obj1 == pytest.approx(lam_star, rel=1e-6)


# ---------------------------------------------------------------- phase step


def _phase_setup(seed=6):
    cfg, ch = _setup()
    rng = np.random.default_rng(seed)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    blocks = stream_blocks(cfg, ch, p1, p2, theta)
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    tt_b, bt_e = phase_blocks(cfg, ch, blocks, w1, w2)
    return cfg, ch, rng, p1, p2, w1, w2, theta, tt_b, bt_e


def test_phase_blocks_reproduce_rates_on_the_shell():
    cfg, ch, rng, p1, p2, w1, w2, theta, tt_b, bt_e = _phase_setup()
    prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta)
    dm = derived_model(cfg, ch, prec)
    t2 = dm.H_B2 @ prec.v2
    cov2 = np.eye(cfg.K) + np.outer(t2, t2.conj())
    det2 = np.linalg.det(cov2).real
    rb = math.log2(det2 * _quad(tt_b, theta))
    re = math.log2(_quad(bt_e, theta))
    assert rb == pytest.approx(rate_bob(dm, prec), abs=1e-9)
    assert re == pytest.approx(rate_eve(dm, prec), abs=1e-9)


def test_theta_star_descends_the_shifted_quadratic():
    cfg, ch, rng, p1, p2, w1, w2, theta, tt_b, bt_e = _phase_setup(seed=7)
    for mu in (0.0, 0.5, 1.0, 2.0):
        psi = bt_e - mu * tt_b
        psi = 0.5 * (psi + psi.conj().T)
        star = theta_star_of_mu(tt_b, bt_e, mu, theta)
        assert np.allclose(np.abs(star), 1.0, atol=1e-12)
        assert _quad(psi, star) <= _quad(psi, theta) + 1e-12


def test_theta_star_flat_spectrum_returns_previous():
    m = 6
    tt_b = np.eye(m, dtype=complex)
    bt_e = np.eye(m, dtype=complex)
    theta = np.exp(1j * np.linspace(0.1, 2.2, m))
    star = theta_star_of_mu(tt_b, bt_e, 1.0, theta)
    assert np.array_equal(star, theta)


def test_phi_star_signs_bracket_the_root():
    cfg, ch, rng, p1, p2, w1, w2, theta, tt_b, bt_e = _phase_setup(seed=8)
    q_prev = _quad(bt_e, theta) / _quad(tt_b, theta)
    assert phi_star(tt_b, bt_e, 0.0, theta) > 0
    assert phi_star(tt_b, bt_e, q_prev, theta) <= 1e-12


def test_update_theta_never_worsens_and_tracks_mu_grid():
    cfg, ch, rng, p1, p2, w1, w2, theta, tt_b, bt_e = _phase_setup(seed=9)

    def quotient(t):
        return _quad(bt_e, t) / _quad(tt_b, t)

    q_prev = quotient(theta)
    star = update_theta_nsp(tt_b, bt_e, theta)
    q_star = quotient(star)
    assert q_star <= q_prev + 1e-12
    best = q_prev
    for mu in np.linspace(0.0, q_prev, 160):
        best = min(best, quotient(theta_star_of_mu(tt_b, bt_e, mu, theta)))
    assert q_star <= best + 1e-3


# ---------------------------------------------------------------- full runs


def test_run_nsp_constraints_hold_at_solution():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    v1, v2 = state.prec.v1, state.prec.v2
    assert np.linalg.norm(ch.H_AB.conj().T @ v1) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ v1) < 1e-8
    assert np.linalg.norm(ch.H_AI @ v2) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ v2) < 1e-8
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(np.abs(state.prec.theta), 1.0, atol=1e-9)


def test_run_nsp_trace_monotone_and_converges():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    assert np.all(np.diff(state.rs_trace) >= -1e-9)
    assert state.converged
    assert state.iterations_used <= 10
    assert state.rs_trace[-1] > 0


def test_run_nsp_eve_rate_comes_from_stream_one_only():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    dm = derived_model(cfg, ch, state.prec)
    s1 = dm.H_E1 @ state.prec.v1
    solve = eve_noise_solver(dm.B)
    direct = math.log2(1.0 + np.real(s1.conj() @ solve(s1)))
    assert rate_eve(dm, state.prec) == pytest.approx(direct, abs=1e-9)


def test_run_nsp_never_beats_unconstrained_search():
    from irsdm.gai import run_gai

    cfg, ch = _setup(SystemConfig(M=10))
    nsp = run_nsp(cfg, ch)
    gai = run_gai(cfg, ch)
    assert gai.rs_trace[-1] >= nsp.rs_trace[-1] - 1e-6


def test_run_nsp_single_stream_budgets():
    cfg = SystemConfig(M=8, beta1=0.0, beta2=0.8)
    ch = build_channels(cfg, build_geometry(cfg))
    state = run_nsp(cfg, ch)
    assert np.all(np.diff(state.rs_trace) >= -1e-9)
    assert np.allclose(state.prec.theta, np.ones(cfg.M))
    assert state.rs_trace[-1] > 0

    cfg = SystemConfig(M=8, beta1=0.8, beta2=0.0)
    ch = build_channels(cfg, build_geometry(cfg))
    state = run_nsp(cfg, ch)
    assert np.all(np.diff(state.rs_trace) >= -1e-9)
    assert state.rs_trace[-1] >= 0
