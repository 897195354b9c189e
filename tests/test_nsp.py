"""Null-space optimizer checks: projectors, block steps, full runs."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsdm import nsp
from irsdm.bench import parallel_irs_angle
from irsdm.model import SystemConfig, build_channels, build_geometry
from irsdm.nsp import (
    ns_projectors,
    phase_blocks,
    run_nsp,
    stream_blocks,
    theta_star_of_mu,
    update_theta_nsp,
    update_w1,
    update_w2,
)
from irsdm.rates import Precoders, beam_quotient, derived_model, phase_maps, rate_bob, rate_eve


def _setup(cfg=None):
    cfg = cfg or SystemConfig()
    ch = build_channels(cfg, build_geometry(cfg))
    return cfg, ch


def _shell_point(rng, p):
    # random vector scaled so its projection has unit norm
    w = rng.normal(size=p.shape[0]) + 1j * rng.normal(size=p.shape[0])
    return w / np.linalg.norm(p @ w)


def _range_basis(p):
    evals, evecs = np.linalg.eigh(p)
    return evecs[:, evals > 0.5]


def _quad(a, w):
    return float(np.real(w.conj() @ a @ w))


def _eve_noise(dm):
    """Eve's AN-plus-noise covariance B from the model's whitener, W^H W = B^-1."""
    return np.linalg.inv(dm.W.conj().T @ dm.W)


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


# ---------------------------------------------------------------- stream blocks


def test_stream_blocks_match_effective_channels():
    cfg, ch = _setup()
    rng = np.random.default_rng(2)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta)
    dm = derived_model(cfg, ch, prec)
    k = cfg.K
    c1, c2 = dm.scales
    t1, t2, t3 = c1 * (dm.H_B @ prec.v1), c2 * (dm.H_B @ prec.v2), c1 * (dm.H_E @ prec.v1)
    # stream 1 reaches both receivers via the surface only, stream 2 Bob
    # directly only; Eve's maps are whitened by W
    u_b, c_b, u_e, _ = phase_maps(dm)
    assert np.linalg.norm(t1 - u_b[:k] @ theta) < 1e-8
    assert np.linalg.norm(dm.W @ t3 - u_e[:k] @ theta) < 1e-8
    assert np.linalg.norm(t2 - c_b[k:]) < 1e-8
    # stream 2 is invisible to Eve by construction
    assert np.linalg.norm(c2 * (dm.H_E @ prec.v2)) < 1e-8

    def snr(t, noise):
        return 1.0 + _quad(np.linalg.inv(noise), t)

    # the blocks are r x r pencils in the coordinates of range(P)'s basis q:
    # x = q^H w gives q x = P w
    q1, q2 = _range_basis(p1), _range_basis(p2)
    x1, x2 = q1.conj().T @ w1, q2.conj().T @ w2
    num1, den1 = stream_blocks(dm, 0, q1)
    num2, den2 = stream_blocks(dm, 1, q2)
    assert _quad(num1, x1) == pytest.approx(snr(t1, np.eye(cfg.K) + np.outer(t2, t2.conj())), rel=1e-9)
    assert _quad(den1, x1) == pytest.approx(snr(t3, _eve_noise(dm)), rel=1e-9)
    assert _quad(num2, x2) == pytest.approx(snr(t2, np.eye(cfg.K) + np.outer(t1, t1.conj())), rel=1e-9)
    assert np.linalg.norm(den2 - np.eye(q2.shape[1])) < 1e-8


# ---------------------------------------------------------------- w1 and w2 steps


def _default_blocks(seed=3):
    cfg, ch = _setup()
    rng = np.random.default_rng(seed)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))

    def blocks(w1, w2, stream):
        """stream_blocks at v1 = p1 w1, v2 = p2 w2 and the fixed phases, in
        the coordinates of range(P)'s orthonormal basis."""
        prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta)
        return stream_blocks(derived_model(cfg, ch, prec), stream, _range_basis((p1, p2)[stream]))

    return rng, p1, p2, blocks


def test_update_w1_raises_quotient_and_meets_residual():
    rng, p1, p2, blocks = _default_blocks()
    for _ in range(5):
        w1 = _shell_point(rng, p1)
        w2 = _shell_point(rng, p2)
        a_til, b_til = blocks(w1, w2, 0)
        basis = _range_basis(p1)
        x1 = basis.conj().T @ w1  # w1's coordinates: basis x1 = p1 w1
        q0 = _quad(a_til, x1) / _quad(b_til, x1)
        v = update_w1(a_til, b_til, basis)
        x = basis.conj().T @ v
        q1 = _quad(a_til, x) / _quad(b_til, x)
        assert q1 >= q0 - 1e-9
        assert _quad(p1, v) == pytest.approx(1.0, abs=1e-6)


def test_update_w1_zero_eve_matches_subspace_eigenvalue():
    # with Eve's block silenced the quotient is a plain Rayleigh quotient on
    # the protected subspace; boost stream 1 so the top eigenvalue is well
    # separated from the projector's unit cluster
    rng, p1, p2, blocks = _default_blocks(seed=4)
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    num, _ = blocks(w1, w2, 0)
    eye = np.eye(num.shape[0])  # range(P) in its own coordinates
    a_til = eye + 1e4 * (num - eye)
    basis = _range_basis(p1)
    nu = _quad(a_til, basis.conj().T @ update_w1(a_til, eye, basis))
    lam_star = scipy.linalg.eigvalsh(a_til)[-1]
    assert nu <= lam_star + 1e-8
    assert nu == pytest.approx(lam_star, rel=1e-6)


def test_update_w1_upper_bound_certificate_weak_coupling():
    # even on a nearly flat spectrum the quotient never exceeds the
    # subspace eigenvalue bound
    rng, p1, p2, blocks = _default_blocks(seed=4)
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    a_til, _ = blocks(w1, w2, 0)
    basis = _range_basis(p1)
    nu = _quad(a_til, basis.conj().T @ update_w1(a_til, np.eye(a_til.shape[0]), basis))
    lam_star = scipy.linalg.eigvalsh(a_til)[-1]
    assert nu <= lam_star + 1e-8
    assert nu == pytest.approx(lam_star, rel=1e-4)


def test_update_w2_matches_subspace_eigenvalue():
    rng, p1, p2, blocks = _default_blocks(seed=5)
    for _ in range(5):
        w1 = _shell_point(rng, p1)
        w2 = _shell_point(rng, p2)
        a_til, b_til = blocks(w1, w2, 1)
        basis = _range_basis(p2)
        obj0 = _quad(a_til, basis.conj().T @ w2)
        v = update_w2(a_til, b_til, basis)
        obj1 = _quad(a_til, basis.conj().T @ v)
        lam_star = scipy.linalg.eigvalsh(a_til)[-1]
        assert obj1 >= obj0 - 1e-9
        assert obj1 <= lam_star + 1e-8
        assert obj1 == pytest.approx(lam_star, rel=1e-6)


def _full_rank_channels(rng, cfg):
    """Gaussian channels of the config's shapes and path gains: every
    constraint stack of `ns_projectors` has full row rank."""
    def gauss(*shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)

    los = build_channels(cfg, build_geometry(cfg))
    n, m, k = cfg.N, cfg.M, cfg.K
    return replace(los, H_AI=gauss(m, n), H_AB=gauss(n, k), H_AE=gauss(n, k),
                   H_IB=gauss(m, k), H_IE=gauss(m, k))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), los=st.booleans(), m=st.integers(1, 12),
       k=st.integers(1, 3), spare=st.integers(1, 4),
       d_ab=st.floats(20.0, 300.0), d_ae=st.floats(20.0, 300.0))
def test_w_blocks_reach_the_top_eigenvalue_on_range_p(seed, los, m, k, spare, d_ab, d_ae):
    # stream 1 is constrained by 2K rows, stream 2 by M + K (2 each on
    # line-of-sight links); N exceeds both by `spare`.  Each block is the
    # r x r pencil in the coordinates of range(P)'s orthonormal basis
    rng = np.random.default_rng(seed)
    n = (2 if los else max(2 * k, m + k)) + spare
    cfg = SystemConfig(N=n, M=m, K=k, d_AB=d_ab, d_AE=d_ae)
    ch = build_channels(cfg, build_geometry(cfg)) if los else _full_rank_channels(rng, cfg)
    p1, p2 = ns_projectors(ch)
    w1, w2 = _shell_point(rng, p1), _shell_point(rng, p2)
    prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=np.exp(2j * math.pi * rng.random(m)))
    dm = derived_model(cfg, ch, prec)
    for stream, p in ((0, p1), (1, p2)):
        basis = _range_basis(p)
        num, den = stream_blocks(dm, stream, basis)
        # the full N x N pencil compressed to range(P)'s coordinates
        for block, full in zip((num, den), beam_quotient(dm, stream, np.eye(n))):
            assert np.linalg.norm(block - basis.conj().T @ full @ basis) <= 1e-12 * np.linalg.norm(full)
        lam_star = scipy.linalg.eigvalsh(num, den)[-1]
        v = (update_w1, update_w2)[stream](num, den, basis)
        x = basis.conj().T @ v
        assert _quad(num, x) / _quad(den, x) == pytest.approx(lam_star, rel=1e-10)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(p @ v - v) < 1e-10


# ---------------------------------------------------------------- phase step


def _phase_setup(seed=6):
    cfg, ch = _setup()
    rng = np.random.default_rng(seed)
    p1, p2 = ns_projectors(ch)
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    w1 = _shell_point(rng, p1)
    w2 = _shell_point(rng, p2)
    dm = derived_model(cfg, ch, Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta))
    f_b, f_e = phase_blocks(dm)
    return cfg, ch, rng, p1, p2, w1, w2, theta, f_b, f_e


def _forms(f_b, f_e):
    """The phase quotient's M x M forms I/M + F F^H of the factors, for oracles."""
    eye = np.eye(f_b.shape[0]) / f_b.shape[0]
    return eye + f_b @ f_b.conj().T, eye + f_e @ f_e.conj().T


def test_phase_blocks_reproduce_rates_on_the_shell():
    cfg, ch, rng, p1, p2, w1, w2, theta, f_b, f_e = _phase_setup()
    tt_b, bt_e = _forms(f_b, f_e)
    prec = Precoders(v1=p1 @ w1, v2=p2 @ w2, theta=theta)
    dm = derived_model(cfg, ch, prec)
    t2 = dm.scales[1] * (dm.H_B @ prec.v2)
    cov2 = np.eye(cfg.K) + np.outer(t2, t2.conj())
    det2 = np.linalg.det(cov2).real
    rb = math.log2(det2 * _quad(tt_b, theta))
    re = math.log2(_quad(bt_e, theta))
    assert rb == pytest.approx(rate_bob(dm, prec), abs=1e-9)
    assert re == pytest.approx(rate_eve(dm, prec), abs=1e-9)


def test_theta_star_descends_the_shifted_quadratic():
    cfg, ch, rng, p1, p2, w1, w2, theta, f_b, f_e = _phase_setup(seed=7)
    tt_b, bt_e = _forms(f_b, f_e)
    for mu in (0.0, 0.5, 1.0, 2.0):
        psi = bt_e - mu * tt_b
        psi = 0.5 * (psi + psi.conj().T)
        star = theta_star_of_mu(f_b, f_e, mu, theta)
        assert np.allclose(np.abs(star), 1.0, atol=1e-12)
        assert _quad(psi, star) <= _quad(psi, theta) + 1e-12


def test_theta_star_flat_spectrum_returns_previous():
    # both forms are the identity: I/M plus sqrt(1 - 1/M) I times its adjoint
    m = 6
    f_b = math.sqrt(1.0 - 1.0 / m) * np.eye(m, dtype=complex)
    f_e = math.sqrt(1.0 - 1.0 / m) * np.eye(m, dtype=complex)
    theta = np.exp(1j * np.linspace(0.1, 2.2, m))
    star = theta_star_of_mu(f_b, f_e, 1.0, theta)
    assert np.array_equal(star, theta)


def test_phi_star_signs_bracket_the_root():
    # phi*(mu) = min theta^H (BtE - mu TtB) theta over the unit-modulus shell,
    # taken at theta_star_of_mu's minimizer
    cfg, ch, rng, p1, p2, w1, w2, theta, f_b, f_e = _phase_setup(seed=8)
    tt_b, bt_e = _forms(f_b, f_e)
    q_prev = _quad(bt_e, theta) / _quad(tt_b, theta)

    def phi_star(mu):
        return _quad(bt_e - mu * tt_b, theta_star_of_mu(f_b, f_e, mu, theta))

    assert phi_star(0.0) > 0
    assert phi_star(q_prev) <= 1e-12


def test_update_theta_never_worsens_and_tracks_mu_grid():
    cfg, ch, rng, p1, p2, w1, w2, theta, f_b, f_e = _phase_setup(seed=9)
    tt_b, bt_e = _forms(f_b, f_e)

    def quotient(t):
        return _quad(bt_e, t) / _quad(tt_b, t)

    q_prev = quotient(theta)
    star = update_theta_nsp(f_b, f_e, theta)
    q_star = quotient(star)
    assert q_star <= q_prev + 1e-12
    best = q_prev
    for mu in np.linspace(0.0, q_prev, 160):
        best = min(best, quotient(theta_star_of_mu(f_b, f_e, mu, theta)))
    assert q_star <= best + 1e-3


def _los_factors(m, u_s, u_b, u_e, g_b, g_e):
    """One M x 1 factor per side, as on line-of-sight links: the surface's
    incoming steering vector times Bob's or Eve's outgoing one, scaled so
    that its form adds g times I/M on the diagonal."""
    idx = np.arange(m)
    a_s = np.exp(1j * math.pi * u_s * idx)
    t_b = a_s * np.exp(1j * math.pi * u_b * idx)
    t_e = a_s * np.exp(1j * math.pi * u_e * idx)
    return math.sqrt(g_b / m) * t_b[:, None], math.sqrt(g_e / m) * t_e[:, None]


def _los_forms(m, u_s, u_b, u_e, g_b, g_e):
    """The forms of `_los_factors`, built on their own: I/M plus one
    rank-one term per side, with an excess of g times I/M on the diagonal."""
    idx = np.arange(m)
    a_s = np.exp(1j * math.pi * u_s * idx)
    t_b = a_s * np.exp(1j * math.pi * u_b * idx)
    t_e = a_s * np.exp(1j * math.pi * u_e * idx)
    eye = np.eye(m) / m
    return eye + (g_b / m) * np.outer(t_b, t_b.conj()), eye + (g_e / m) * np.outer(t_e, t_e.conj())


def _dinkelbach_descent(f_b, f_e, theta):
    """Quotient reached by `theta_star_of_mu` at successive levels from theta."""
    tt_b, bt_e = _forms(f_b, f_e)
    q = _quad(bt_e, theta) / _quad(tt_b, theta)
    for _ in range(200):
        cand = theta_star_of_mu(f_b, f_e, q, theta)
        q_cand = _quad(bt_e, cand) / _quad(tt_b, cand)
        if not q_cand < q:
            break
        theta, q = cand, q_cand
    return q


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 60),
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       log_g=st.tuples(st.floats(-3.0, 1.0), st.floats(-3.0, 1.0)))
@example(seed=1, m=40, u=(0.3, -0.2, 0.5), log_g=(-9.0, -9.0))  # weak surface
@example(seed=2, m=30, u=(0.1, 0.4, 0.4), log_g=(-1.0, 0.0))    # Bob and Eve aligned
@example(seed=3, m=20, u=(0.2, -0.3, 0.6), log_g=(0.0, -12.0))  # Eve's excess at 1e-12 of I/M
@example(seed=4, m=20, u=(0.2, -0.3, 0.6), log_g=(-12.0, 0.5))  # Bob's excess at 1e-12 of I/M
@example(seed=5, m=20, u=(0.2, -0.3, 0.6), log_g=(-12.0, -12.0))  # no excess at all
@example(seed=6, m=1, u=(0.2, -0.3, 0.6), log_g=(0.0, 0.0))     # one element: a common rotation
def test_update_theta_matches_multistart_descent(seed, m, u, log_g):
    # the step never worsens the incumbent; where the surface resolves Bob
    # from Eve it is also as good as the best of several random-start
    # Dinkelbach descents
    f_b, f_e = _los_factors(m, *u, 10.0 ** log_g[0], 10.0 ** log_g[1])
    tt_b, bt_e = _los_forms(m, *u, 10.0 ** log_g[0], 10.0 ** log_g[1])
    rng = np.random.default_rng(seed)
    starts = np.exp(2j * math.pi * rng.random((4, m)))
    theta_prev = starts[0]
    q_prev = _quad(bt_e, theta_prev) / _quad(tt_b, theta_prev)
    star = update_theta_nsp(f_b, f_e, theta_prev)
    q_star = _quad(bt_e, star) / _quad(tt_b, star)
    assert np.allclose(np.abs(star), 1.0, atol=1e-12)
    assert q_star <= q_prev
    # angular distance in u = cos(angle), which the steering vectors wrap mod 2;
    # 2 / M is the first null of the surface's beam
    if abs((u[1] - u[2] + 1.0) % 2.0 - 1.0) >= 2.0 / m:
        oracle = min(_dinkelbach_descent(f_b, f_e, t) for t in starts)
        assert q_star <= oracle * (1.0 + 1e-9)


def test_update_theta_returns_an_unbeaten_incumbent_itself():
    # an unmoved step hands back the incumbent object, which the
    # alternation's extrapolated step reads as phases the pass did not move
    for m in (12, 1):  # a converged step; one element, where no phase moves the quotient
        f_b, f_e = _los_factors(m, 0.2, 0.3, -0.4, 0.5, 0.5)
        theta_prev = update_theta_nsp(f_b, f_e, np.ones(m, dtype=complex))
        assert update_theta_nsp(f_b, f_e, theta_prev) is theta_prev


def test_update_theta_rejects_a_span_above_two():
    m = 12
    rng = np.random.default_rng(10)
    f_b, f_e = _los_factors(m, 0.2, 0.3, -0.4, 0.5, 0.5)
    extra = np.exp(2j * math.pi * rng.random(m))
    f_b = np.hstack([f_b, math.sqrt(0.1) * extra[:, None]])
    with pytest.raises(ValueError, match="span 3 dimensions"):
        update_theta_nsp(f_b, f_e, np.ones(m, dtype=complex))


def _level_factors(f_b, f_e, mu):
    """F = [F_e, F_b] and the diagonal of D = diag(1, -mu): the level
    objective theta^H (BtE - mu TtB) theta is 1 - mu + theta^H F D F^H theta
    on the shell."""
    return np.hstack([f_e, f_b]), np.concatenate([np.ones(f_e.shape[1]), np.full(f_b.shape[1], -mu)])


def _level_value(f_b, f_e, mu, theta):
    """v(theta) = theta^H F D F^H theta of `_level_factors`."""
    f, d = _level_factors(f_b, f_e, mu)
    return float(d @ np.abs(f.conj().T @ theta) ** 2)


def _plain_rounding(f_b, f_e, mu, theta):
    """One majorize-minimize rounding, the phases of (lam I - F D F^H) theta,
    lam the top eigenvalue of the M x M F D F^H, formed here as an oracle."""
    f, d = _level_factors(f_b, f_e, mu)
    fdf = (f * d) @ f.conj().T
    lam = np.linalg.eigvalsh(0.5 * (fdf + fdf.conj().T)).max()
    z = lam * theta - fdf @ theta
    return np.where(np.abs(z) > 0, z / np.maximum(np.abs(z), 1e-300), theta)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60), k=st.integers(0, 3),
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       log_g=st.tuples(st.floats(-3.0, 1.0), st.floats(-3.0, 1.0)),
       level=st.floats(0.0, 1.0))
@example(seed=0, m=20, k=0, u=(0.2, -0.3, 0.6), log_g=(1.0, 1.0), level=1.0)  # mu at the quotient
@example(seed=1, m=30, k=2, u=(0.0, 0.0, 0.0), log_g=(1.0, -3.0), level=0.0)  # mu = 0
@example(seed=0, m=6, k=0, u=(0.0, 0.0, 1.0), log_g=(-3.0, 0.0), level=1.0)   # runs out the cap
def test_theta_star_is_a_fixed_point_of_the_rounding(seed, m, k, u, log_g, level):
    # k = 0 takes the line-of-sight factors of `_los_factors`, k >= 1 random
    # M x k factors with the same excess g over I/M; mu lies between 0 and
    # the quotient at theta_prev.  The extrapolated cycles stop where one
    # more plain rounding gains less than MM_TOL, unless they run out the
    # MAX_MM_ITERS roundings first: mu times Bob's excess far below Eve's
    # can need thousands (FOUND in CHANGES.md)
    g_b, g_e = 10.0 ** log_g[0], 10.0 ** log_g[1]
    rng = np.random.default_rng(seed)
    if k == 0:
        f_b, f_e = _los_factors(m, *u, g_b, g_e)
    else:
        f_b, f_e = (math.sqrt(g / (m * k)) * (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))
                    for g in (g_b, g_e))
    tt_b, bt_e = _forms(f_b, f_e)
    theta_prev = np.exp(2j * math.pi * rng.random(m))
    mu = level * _quad(bt_e, theta_prev) / _quad(tt_b, theta_prev)
    with mock.patch.object(nsp, "_project_phases", wraps=nsp._project_phases) as project:
        star = theta_star_of_mu(f_b, f_e, mu, theta_prev)
    assert np.allclose(np.abs(star), 1.0, atol=1e-12)
    v_star = _level_value(f_b, f_e, mu, star)
    assert v_star <= _level_value(f_b, f_e, mu, theta_prev)
    # each rounding makes one projection and each extrapolated point one more,
    # so fewer projections than the cap means the call stopped on MM_TOL
    if project.call_count < nsp.MAX_MM_ITERS:
        assert v_star - _level_value(f_b, f_e, mu, _plain_rounding(f_b, f_e, mu, star)) < nsp.MM_TOL


# ---------------------------------------------------------------- full runs


def test_run_nsp_constraints_hold_at_solution():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    v1, v2 = state.v1, state.v2
    assert np.linalg.norm(ch.H_AB.conj().T @ v1) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ v1) < 1e-8
    assert np.linalg.norm(ch.H_AI @ v2) < 1e-8
    assert np.linalg.norm(ch.H_AE.conj().T @ v2) < 1e-8
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(np.abs(state.theta), 1.0, atol=1e-9)


def test_run_nsp_trace_monotone_and_converges():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    assert np.all(np.diff(state.rs_trace) >= -1e-9)
    assert state.converged
    assert state.iterations <= 10
    assert state.rs_trace[-1] > 0


def test_run_nsp_eve_rate_comes_from_stream_one_only():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    prec = Precoders(v1=state.v1, v2=state.v2, theta=state.theta)
    dm = derived_model(cfg, ch, prec)
    t1 = dm.scales[0] * (dm.H_E @ state.v1)
    s1 = np.linalg.solve(np.linalg.cholesky(_eve_noise(dm)), t1)  # L^-1 t, B = L L^H
    direct = math.log2(1.0 + np.vdot(s1, s1).real)
    assert rate_eve(dm, prec) == pytest.approx(direct, abs=1e-9)


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
    assert np.allclose(state.theta, np.ones(cfg.M))
    assert state.rs_trace[-1] > 0

    cfg = SystemConfig(M=8, beta1=0.8, beta2=0.0)
    ch = build_channels(cfg, build_geometry(cfg))
    state = run_nsp(cfg, ch)
    assert np.all(np.diff(state.rs_trace) >= -1e-9)
    assert state.rs_trace[-1] >= 0


@pytest.mark.parametrize("d_ab, m, ps_dbm, rate", [
    (50.0, 200, 60.0, 46.042),
    (300.0, 200, 65.0, 32.876),
    (50.0, 50, 70.0, 48.645),
    (50.0, 10, 90.0, 56.206),
])
def test_run_nsp_runs_at_high_transmit_power(d_ab, m, ps_dbm, rate):
    # Eve's excess over I/M reaches 1e5 here; a step that factors M x M
    # forms can keep rounding noise as extra span directions and raise
    # "phase forms span k dimensions beyond I/M", one that takes its
    # factors from the rate model cannot
    cfg = SystemConfig(d_AB=d_ab, M=m, ps_dbm=ps_dbm)
    state = run_nsp(cfg, build_channels(cfg, build_geometry(cfg)))
    assert state.converged and state.iterations == 2
    assert state.rs_trace[-1] == pytest.approx(rate, abs=1e-3)


@pytest.fixture
def theta_star_calls(monkeypatch):
    """List that gains one entry per theta_star_of_mu call inside nsp: the
    number of phase projections it makes, its roundings plus its
    extrapolated points."""
    calls = []
    project = nsp._project_phases

    def counted_projection(*args):
        calls[-1] += 1
        return project(*args)

    def counted(*args):
        calls.append(0)
        return theta_star_of_mu(*args)

    monkeypatch.setattr(nsp, "_project_phases", counted_projection)
    monkeypatch.setattr(nsp, "theta_star_of_mu", counted)
    return calls


@pytest.mark.parametrize("overrides", [
    {"d_AB": 300.0},
    {"d_AI": 50.0, "theta_AI": parallel_irs_angle(SystemConfig())},  # on the placement line
], ids=["d_AB=300", "d_AI=50"])
def test_run_nsp_converges_at_m80_with_two_levels_per_phase_block(overrides, theta_star_calls):
    # the bisection on the quotient level stopped both at the 50-pass cap,
    # with about 20 levels per phase block
    cfg = SystemConfig(M=80, **overrides)
    state = run_nsp(cfg, build_channels(cfg, build_geometry(cfg)))
    assert state.converged
    # one phase block per pass plus the pre-alignment
    assert len(theta_star_calls) <= 2 * (state.iterations + 1)


@pytest.mark.parametrize("overrides", [
    *({"d_AB": d_ab, "M": m} for d_ab, ms in ((50.0, (10, 50, 200)), (300.0, (10, 30, 80))) for m in ms),
    *({"M": 80, "d_AI": d_ai, "theta_AI": parallel_irs_angle(SystemConfig())} for d_ai in (20.0, 50.0, 100.0)),
], ids=lambda o: " ".join(f"{k}={v:g}" for k, v in o.items() if k != "theta_AI"))
def test_theta_star_stays_below_its_rounding_cap(overrides, theta_star_calls):
    # the bench's six sweep points and the placement line at M = 80; with
    # plain roundings five calls on the bench points ran out the 500-rounding
    # cap, still lowering the level objective by more than MM_TOL
    cfg = SystemConfig(**overrides)
    run_nsp(cfg, build_channels(cfg, build_geometry(cfg)))
    assert theta_star_calls and max(theta_star_calls) < nsp.MAX_MM_ITERS
