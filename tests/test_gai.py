"""Alternating-optimizer checks: eigen steps, phase gradient, full runs."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsdm import gai, nsp
from irsdm.bench import Scheme, run_scheme
from irsdm.gai import (
    GaOptions,
    PhaseProblem,
    ga_optimize_theta,
    initial_beamformers,
    rayleigh_ritz_max,
    run_gai,
    update_v1,
    update_v2,
)
from irsdm.model import ChannelSet, SystemConfig, build_channels, build_geometry, parallel_irs_angle
from irsdm.rates import DerivedModel, Precoders, derived_model, rate_bob, rate_eve, rate_gap


def _setup(cfg=None):
    cfg = cfg or SystemConfig()
    ch = build_channels(cfg, build_geometry(cfg))
    return cfg, ch


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_prec(cfg, rng):
    return Precoders(
        v1=_unit(rng, cfg.N),
        v2=_unit(rng, cfg.N),
        theta=np.exp(2j * math.pi * rng.random(cfg.M)),
    )


def _random_hpd(rng, n, shift=0.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + (1.0 + shift) * np.eye(n)


def _stream_channels(dm):
    """Each stream's channel to Bob and to Eve, scaled by its amplitude
    over the noise: (c1 H_B, c2 H_B) and (c1 H_E, c2 H_E)."""
    c1, c2 = dm.scales
    return (c1 * dm.H_B, c2 * dm.H_B), (c1 * dm.H_E, c2 * dm.H_E)


def _eve_noise(dm):
    """Eve's AN-plus-noise covariance B from the model's whitener, W^H W = B^-1."""
    return np.linalg.inv(dm.W.conj().T @ dm.W)


# ---------------------------------------------------------------- eigen steps


def test_rayleigh_ritz_identity_denominator():
    rng = np.random.default_rng(0)
    a = _random_hpd(rng, 6)
    v = rayleigh_ritz_max(a, np.eye(6, dtype=complex))
    evals, evecs = np.linalg.eigh(a)
    lead = evecs[:, -1]
    assert abs(abs(lead.conj() @ v) - 1.0) < 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_rayleigh_ritz_beats_random_sampling():
    # oracle: the achieved quotient dominates 20000 random unit vectors
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = _random_hpd(rng, 5)
        b = _random_hpd(rng, 5)
        v = rayleigh_ritz_max(a, b)
        q_star = (v.conj() @ a @ v).real / (v.conj() @ b @ v).real
        samples = rng.normal(size=(20000, 5)) + 1j * rng.normal(size=(20000, 5))
        num = np.einsum("si,ij,sj->s", samples.conj(), a, samples).real
        den = np.einsum("si,ij,sj->s", samples.conj(), b, samples).real
        assert q_star >= np.max(num / den) - 1e-9


def test_rayleigh_ritz_quotient_equals_principal_eigenvalue():
    import scipy.linalg

    rng = np.random.default_rng(2)
    a = _random_hpd(rng, 7)
    b = _random_hpd(rng, 7)
    v = rayleigh_ritz_max(a, b)
    q = (v.conj() @ a @ v).real / (v.conj() @ b @ v).real
    assert q == pytest.approx(scipy.linalg.eigvalsh(a, b)[-1], rel=1e-10)


def test_rayleigh_ritz_rejects_singular_denominator():
    a = np.eye(4, dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError, match="singular"):
        rayleigh_ritz_max(a, b)


def test_rayleigh_ritz_rejects_non_finite_entries():
    rng = np.random.default_rng(4)
    a, b = _random_hpd(rng, 4), _random_hpd(rng, 4)
    for bad in (a, b):
        for value, (i, j) in ((np.nan, (0, 0)), (np.inf, (0, 3)), (np.nan, (3, 0))):
            saved = bad[i, j]
            bad[i, j] = value
            with pytest.raises(ValueError, match="non-finite"):
                rayleigh_ritz_max(a, b)
            bad[i, j] = saved


@pytest.mark.parametrize("seed", range(20))
def test_rayleigh_ritz_matches_scipy_generalized_eigh(seed):
    # oracle: LAPACK's Hermitian-definite solver (hegv), on plain random
    # pencils and on pencils shaped like the beamformer blocks at high
    # transmit power: up to 90 dBm the numerator reaches 4e8 over a unit
    # noise floor while the denominator's condition number stays below 300
    import scipy.linalg

    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 9))

    def spike(low, high):
        u = _unit(rng, n)
        return 10.0 ** rng.uniform(low, high) * np.outer(u, u.conj())

    if seed % 2:
        a, b = _random_hpd(rng, n), _random_hpd(rng, n)
    else:
        a = np.eye(n) + spike(2, 8) + spike(0, 6)
        b = np.eye(n) + spike(0, 2.5)
    a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
    v = rayleigh_ritz_max(a, b)
    q = (v.conj() @ a @ v).real / (v.conj() @ b @ v).real
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert q == pytest.approx(scipy.linalg.eigh(a, b, eigvals_only=True)[-1], rel=1e-10)


def test_update_v1_never_reduces_rate_gap():
    cfg, ch = _setup()
    rng = np.random.default_rng(3)
    for _ in range(10):
        prec = _random_prec(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        gap0 = rate_bob(dm, prec) - rate_eve(dm, prec)
        new = Precoders(v1=update_v1(dm), v2=prec.v2, theta=prec.theta)
        dm_new = derived_model(cfg, ch, new)
        gap1 = rate_bob(dm_new, new) - rate_eve(dm_new, new)
        assert gap1 >= gap0 - 1e-9


def test_update_v2_never_reduces_rate_gap():
    cfg, ch = _setup()
    rng = np.random.default_rng(4)
    for _ in range(10):
        prec = _random_prec(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        gap0 = rate_bob(dm, prec) - rate_eve(dm, prec)
        new = Precoders(v1=prec.v1, v2=update_v2(dm), theta=prec.theta)
        dm_new = derived_model(cfg, ch, new)
        gap1 = rate_bob(dm_new, new) - rate_eve(dm_new, new)
        assert gap1 >= gap0 - 1e-9


def test_update_v1_zero_eve_reduces_to_bob_snr_maximizer():
    # with Eve's channel effectively removed the step maximizes Bob's quotient
    cfg, ch = _setup(SystemConfig(N=6, M=4, K=2))
    rng = np.random.default_rng(5)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    # a zero whitener zeroes Eve's channel G_E = W H_E
    zeroed = DerivedModel(replace(dm.terms, W=np.zeros_like(dm.W)), prec)
    v1 = update_v1(zeroed)
    (h_b1, h_b2), _ = _stream_channels(dm)
    t2 = h_b2 @ prec.v2
    cov = np.eye(cfg.K) + np.outer(t2, t2.conj())
    mat = h_b1.conj().T @ np.linalg.solve(cov, h_b1)
    evals, evecs = np.linalg.eigh(mat)
    assert abs(abs(evecs[:, -1].conj() @ v1) - 1.0) < 1e-8


def _full_pencil(dm, stream):
    """The stream's beamformer pencil on all N directions, transcribed with
    explicit inverses: I + H^H cov^-1 H on each side, the other stream
    folded into Bob's unit noise and into Eve's B."""
    h_b, h_e = _stream_channels(dm)
    other = (dm.prec.v1, dm.prec.v2)[1 - stream]
    tb, te = h_b[1 - stream] @ other, h_e[1 - stream] @ other
    eye_n, eye_k = np.eye(dm.H_B.shape[1]), np.eye(dm.H_B.shape[0])
    num = eye_n + h_b[stream].conj().T @ np.linalg.inv(eye_k + np.outer(tb, tb.conj())) @ h_b[stream]
    den = eye_n + h_e[stream].conj().T @ np.linalg.inv(_eve_noise(dm) + np.outer(te, te.conj())) @ h_e[stream]
    return 0.5 * (num + num.conj().T), 0.5 * (den + den.conj().T)


def _oracle_channels(rng, n, m, k, kind):
    """A config and channel set: line-of-sight from a random drop, or random
    full-rank at unit scale.

    The line-of-sight drops transmit at 0 dBm, which keeps every pencil
    below a norm of about 1e5 even with Eve 100 times stronger than Bob.  An
    N x N solve resolves an eigenvalue near 1 only to about eps times the
    norm of its pencil, so at 30 dBm the oracle's own rounding reaches 1e-10.
    """
    if kind == "los":
        cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=0.0, d_AB=float(rng.uniform(20, 300)),
                           d_AE=float(rng.uniform(20, 300)), theta_AB=float(rng.uniform(0, math.pi)),
                           theta_AE=float(rng.uniform(0, math.pi)))
        return cfg, build_channels(cfg, build_geometry(cfg))

    def cmat(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=0.0, sigma2_dbm=0.0)
    ch = ChannelSet(H_AI=cmat(m, n), H_AB=cmat(n, k), H_AE=cmat(n, k), H_IB=cmat(m, k),
                    H_IE=cmat(m, k), g_AB=1.0, g_AE=1.0, g_AIB=1.0 / m, g_AIE=1.0 / m)
    return cfg, ch


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 32), m=st.integers(1, 60),
       k=st.integers(1, 8), kind=st.sampled_from(["los", "random"]), eve_gain=st.sampled_from([0.0, 2.0, 100.0]),
       betas=st.sampled_from([(0.4, 0.4), (0.0, 0.8), (0.8, 0.0)]))
def test_compressed_beam_steps_reach_the_full_pencil_maximum(seed, n, m, k, kind, eve_gain, betas):
    # update_v1/update_v2 solve the pencil in the model's channel basis Q; their
    # beamformer's quotient is the top generalized eigenvalue of the full
    # N x N pencil.  With eve_gain > 0 Eve hears Bob's channels eve_gain
    # times stronger, so she beats him in every direction of the row space
    # and the maximum, 1, lies outside it when the row space misses some.
    import scipy.linalg

    rng = np.random.default_rng(seed)
    cfg, ch = _oracle_channels(rng, n, m, k, kind)
    cfg = replace(cfg, beta1=betas[0], beta2=betas[1])
    if eve_gain:
        ch = replace(ch, H_AE=ch.H_AB, H_IE=ch.H_IB, g_AE=eve_gain * ch.g_AB, g_AIE=eve_gain * ch.g_AIB)
    dm = derived_model(cfg, ch, _random_prec(cfg, rng))
    for stream, update in enumerate((update_v1, update_v2)):
        v = update(dm)
        num, den = _full_pencil(dm, stream)
        top = scipy.linalg.eigh(num, den, eigvals_only=True)[-1]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(v, num @ v).real / np.vdot(v, den @ v).real == pytest.approx(top, rel=1e-10)
        if eve_gain:
            assert top <= 1.0 + 1e-9


@pytest.mark.parametrize("weak", [1e-6, 1e-7])
def test_beam_step_keeps_weak_directions_of_the_row_space(weak):
    # Antenna 1 of each receiver hears the surface path along e_1; antenna 2
    # a direct path, Bob's along e_2 at weak times the surface path and Eve's
    # along e_3 at ten times Bob's.  The maximum lies in e_1/e_2 above 1, so
    # a rank cut that dropped e_2 and e_3 as noise, keeping one of them as
    # the direction outside, would miss it.
    import scipy.linalg

    n = 4
    e = np.eye(n, dtype=complex)
    direct = np.zeros((n, 2), dtype=complex)
    direct[:, 1] = weak * e[1]
    ch = ChannelSet(H_AI=e[:1], H_AB=direct, H_AE=10.0 * direct[[0, 2, 1, 3]],
                    H_IB=np.array([[1.0, 0.0]], dtype=complex), H_IE=np.array([[1.0, 0.0]], dtype=complex),
                    g_AB=1.0, g_AE=1.0, g_AIB=1.0, g_AIE=1.0)
    cfg = SystemConfig(N=n, M=1, K=2, ps_dbm=0.0, sigma2_dbm=-80.0, beta1=0.8, beta2=0.0)
    dm = derived_model(cfg, ch, Precoders(v1=e[0], v2=e[0], theta=np.ones(1, dtype=complex)))
    v = update_v1(dm)
    num, den = _full_pencil(dm, 0)
    top = scipy.linalg.eigh(num, den, eigvals_only=True)[-1]
    assert top > 1.0 + 1e-7
    assert np.vdot(v, num @ v).real / np.vdot(v, den @ v).real == pytest.approx(top, rel=1e-10)


def _bloch_grid(n_angles, n_phases):
    # unit vectors in C^2 up to a global phase
    angles = np.linspace(0, math.pi / 2, n_angles)
    phases = np.linspace(0, 2 * math.pi, n_phases, endpoint=False)
    aa, pp = np.meshgrid(angles, phases, indexing="ij")
    return np.stack(
        [np.cos(aa).ravel(), np.sin(aa).ravel() * np.exp(1j * pp.ravel())], axis=1
    )


def test_update_v1_grid_oracle_two_antennas():
    # N = 2, K = 1: every rate collapses to scalar arithmetic on the
    # effective rows, so a dense Bloch grid over v1 scores in one pass
    cfg, ch = _setup(SystemConfig(N=2, M=2, K=1))
    rng = np.random.default_rng(6)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    v1 = update_v1(dm)
    new = Precoders(v1=v1, v2=prec.v2, theta=prec.theta)
    dm_new = derived_model(cfg, ch, new)
    best = rate_bob(dm_new, new) - rate_eve(dm_new, new)
    cand = _bloch_grid(181, 360)
    bs = _eve_noise(dm)[0, 0].real
    (h_b1, h_b2), (h_e1, h_e2) = _stream_channels(dm)
    gain = np.abs(cand @ h_b1[0]) ** 2
    leak = np.abs(cand @ h_e1[0]) ** 2
    const_b = np.abs(h_b2 @ prec.v2)[0] ** 2
    const_e = np.abs(h_e2 @ prec.v2)[0] ** 2
    gaps = np.log2(1 + gain + const_b) - np.log2(1 + (leak + const_e) / bs)
    assert best >= gaps.max() - 1e-6


# ---------------------------------------------------------------- phase objective


def test_phase_objective_matches_rate_gap():
    cfg, ch = _setup()
    rng = np.random.default_rng(7)
    for _ in range(20):
        prec = _random_prec(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        pp = PhaseProblem(dm)
        f, g = pp.factors(prec.theta)
        gap = rate_bob(dm, prec) - rate_eve(dm, prec)
        assert math.log2(pp.ratio(prec.theta)) == pytest.approx(gap, abs=1e-9)
        assert f > 0 and g > 0


def test_phase_objective_single_stream():
    cfg = SystemConfig(beta1=0.0, beta2=0.8)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(8)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    ratio = PhaseProblem(dm).ratio(prec.theta)
    gap = rate_bob(dm, prec) - rate_eve(dm, prec)
    assert math.log2(ratio) == pytest.approx(gap, abs=1e-9)


class _MapsProblem(PhaseProblem):
    """The phase problem of stacked phase maps given directly rather than
    formed from a rate model (`rates.phase_maps`): from each stream's
    reflected map T (K, M) and direct part h (K,), stream 1 first, Bob's as
    they are and Eve's whitened by w."""

    def __init__(self, t_b, h_b, t_e, h_e, w):
        self.u_b, self.c_b = np.vstack(t_b), np.concatenate(h_b)
        self.u_e, self.c_e = np.vstack([w @ t for t in t_e]), np.concatenate([w @ h for h in h_e])


def random_phase_instance(rng, k, m):
    """Random O(1)-scaled affine-stream blocks for scale-free gradient checks."""

    def cmat(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2 * m)

    r = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    b = np.eye(k, dtype=complex) + r @ r.conj().T / k
    t_b1, t_b2, h_b1, h_b2 = cmat(k, m), cmat(k, m), cmat(k), cmat(k)
    t_e1, t_e2, h_e1, h_e2 = cmat(k, m), cmat(k, m), cmat(k), cmat(k)
    w = np.linalg.inv(np.linalg.cholesky(b))  # W^H W = B^-1
    return _MapsProblem((t_b1, t_b2), (h_b1, h_b2), (t_e1, t_e2), (h_e1, h_e2), w)


def test_phase_gradient_matches_finite_differences():
    # central differences on Re/Im of each coordinate must reproduce
    # 2*Re / 2*Im of the conjugate gradient
    m, k = 8, 2
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(20):
        pp = random_phase_instance(rng, k, m)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, m))
        grad = pp.gradient(theta)
        for i in range(m):
            for direction, part in ((1.0, "re"), (1j, "im")):
                tp = theta.copy()
                tm = theta.copy()
                tp[i] += direction * h
                tm[i] -= direction * h
                fd = (pp.ratio(tp) - pp.ratio(tm)) / (2 * h)
                comp = 2 * (grad[i].real if part == "re" else grad[i].imag)
                assert fd == pytest.approx(comp, rel=1e-5, abs=1e-8)


def test_phase_gradient_zero_when_surface_silent():
    # all T blocks zero: the objective is constant in theta
    cfg, ch = _setup()
    rng = np.random.default_rng(10)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec, include_irs=False)
    grad = PhaseProblem(dm).gradient(prec.theta)
    assert np.linalg.norm(grad) == 0.0


def test_phase_gradient_single_element_scalar_case():
    # M = 1 reduces the finite-difference check to a scalar derivative
    cfg = SystemConfig(N=3, M=1, K=1)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(11)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    pp = PhaseProblem(dm)
    grad = pp.gradient(prec.theta)
    h = 1e-6
    tp = prec.theta + h
    tm = prec.theta - h
    fd = (pp.ratio(tp) - pp.ratio(tm)) / (2 * h)
    assert fd == pytest.approx(2 * grad[0].real, rel=1e-5)


# ---------------------------------------------------------------- gradient ascent


def test_ga_monotone_and_improves():
    cfg, ch = _setup()
    rng = np.random.default_rng(12)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    pp = PhaseProblem(dm)
    theta0 = prec.theta
    theta = ga_optimize_theta(pp, theta0, GaOptions(), cfg.epsilon)
    assert np.allclose(np.abs(theta), 1.0, atol=1e-12)
    assert pp.ratio(theta) >= pp.ratio(theta0) - 1e-12


def test_ga_stationary_at_optimum_returns_input():
    # build a dm whose objective is constant, so no step can be accepted
    cfg, ch = _setup()
    rng = np.random.default_rng(13)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec, include_irs=False)
    pp = PhaseProblem(dm)
    theta = ga_optimize_theta(pp, prec.theta, GaOptions(), cfg.epsilon)
    assert np.array_equal(theta, prec.theta)


def test_ga_two_element_grid_oracle():
    # M = 2: compare against a dense grid over both phases
    cfg = SystemConfig(N=4, M=2, K=2)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(14)
    prec = _random_prec(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    pp = PhaseProblem(dm)
    theta = ga_optimize_theta(pp, prec.theta, GaOptions(max_ga_iters=300), 1e-9)
    achieved = pp.ratio(theta)
    grid = np.linspace(0, 2 * math.pi, 240, endpoint=False)
    best = 0.0
    for p1 in grid:
        cand = np.exp(1j * np.stack([np.full_like(grid, p1), grid]))
        vals = [pp.ratio(cand[:, i]) for i in range(grid.size)]
        best = max(best, max(vals))
    assert achieved >= 0.98 * best


# how far, in bits, the phase block may end below the best of four long
# random-start ascents on a line-of-sight problem whose surface resolves Bob
# from Eve: the search grid can step over a narrow peak of the ratio
SPAN_TOL_BITS = 2e-3


def _steer(n, u):
    return np.exp(1j * math.pi * u * np.arange(n))


def _los_phase_problem(rng, m, k, u, log_g):
    """Phase problem of line-of-sight links: each receiver sees the surface
    and Alice along one steering vector each, so every stream's surface map
    is (its K-side steering) x (the surface's incoming steering times its
    outgoing one to that receiver), rank one per side and two in all.

    u holds seven direction cosines: into the surface, surface to Bob and to
    Eve, then at Bob from the surface and from Alice, and the same at Eve.
    log_g holds log10 of Bob's surface and direct gains, Eve's two, and the
    artificial noise that Eve receives along her direct path."""
    u_s, u_sb, u_se, u_bs, u_bd, u_es, u_ed = u
    g_bs, g_bd, g_es, g_ed, g_an = (10.0 ** x for x in log_g)
    b = np.eye(k, dtype=complex) + g_an * np.outer(_steer(k, u_ed), _steer(k, u_ed).conj())
    maps = []
    for g_s, g_d, a_s, a_d, u_out in ((g_bs, g_bd, u_bs, u_bd, u_sb), (g_es, g_ed, u_es, u_ed, u_se)):
        row = _steer(m, u_s) * _steer(m, u_out).conj()
        maps.append([math.sqrt(g_s / m) * z * np.outer(_steer(k, a_s), row)
                     for z in (rng.standard_normal((2, 2)) @ [1.0, 1j]) / math.sqrt(2)])
        maps.append([math.sqrt(g_d) * z * _steer(k, a_d)
                     for z in (rng.standard_normal((2, 2)) @ [1.0, 1j]) / math.sqrt(2)])
    return _MapsProblem(*maps, np.linalg.inv(np.linalg.cholesky(b)))  # W^H W = B^-1


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 60), k=st.integers(1, 4),
       u=st.tuples(*[st.floats(-1.0, 1.0)] * 7),
       log_g=st.tuples(*[st.floats(-2.0, 2.0)] * 5))
@example(seed=1, m=80, k=4, u=(0.5, 0.2, -0.3, 0.1, 0.15, -0.6, 0.4), log_g=(1.0, 1.0, 1.5, 1.0, 0.5))
@example(seed=2, m=30, k=2, u=(0.1, 0.4, 0.4, 0.2, 0.2, 0.5, 0.5), log_g=(0.0, 0.5, 0.0, 0.5, 0.0))  # Bob and Eve aligned
@example(seed=3, m=20, k=4, u=(0.2, -0.3, 0.6, 0.1, 0.3, -0.2, 0.7), log_g=(-12.0, 0.0, -12.0, 0.0, 0.0))  # surface far weaker than the direct paths
def test_phase_block_matches_multistart_ascent_on_line_of_sight_links(seed, m, k, u, log_g):
    # the block never ends below its start; where the surface resolves Bob
    # from Eve it also lands within SPAN_TOL_BITS of the best of four
    # random-start ascents run to a 1e-13 bit step gain
    rng = np.random.default_rng(seed)
    pp = _los_phase_problem(rng, m, k, u, log_g)
    starts = np.exp(2j * math.pi * rng.random((4, m)))
    theta = ga_optimize_theta(pp, starts[0], GaOptions(), gai.GA_TOL)
    assert np.allclose(np.abs(theta), 1.0, atol=1e-12)
    assert pp.ratio(theta) >= pp.ratio(starts[0])
    # angular distance in u = cos(angle), which the steering vectors wrap mod 2;
    # 2 / M is the first null of the surface's beam
    if abs((u[1] - u[2] + 1.0) % 2.0 - 1.0) >= 2.0 / m:
        oracle = max(pp.ratio(gai._ascend(pp, t, GaOptions(max_ga_iters=1000), 1e-13, gai.SpanMemo())) for t in starts)
        assert math.log2(oracle / pp.ratio(theta)) <= SPAN_TOL_BITS


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect (ROADMAP item 14): the block ends at ratio 1.8274 and the four-start oracle "
    "reaches 2.2760, 0.317 bits short against SPAN_TOL_BITS = 0.002"))
def test_phase_block_matches_multistart_ascent_on_the_tie_example():
    # W's rows 1 and 3 are equal, so the span start gives both one phase and
    # the ascent keeps them equal.  Hypothesis has not drawn this example for
    # the test above, which runs derandomized, so it is run here on its own.
    test_phase_block_matches_multistart_ascent_on_line_of_sight_links.hypothesis.inner_test(
        seed=0, m=3, k=1, u=(0, 0, 1, 0, 0, 0, 0), log_g=(0, 0, 1, 0, 0))


def test_phase_block_is_the_plain_ascent_above_a_rank_two_span():
    # random full-rank streams span min(4K, M) dimensions: no search runs
    rng = np.random.default_rng(17)
    for m in (3, 8, 20):
        pp = random_phase_instance(rng, 2, m)
        theta0 = np.exp(2j * math.pi * rng.random(m))
        ascent = gai._ascend(pp, theta0, GaOptions(), gai.GA_TOL, gai.SpanMemo())
        assert np.array_equal(ga_optimize_theta(pp, theta0, GaOptions(), gai.GA_TOL), ascent)
        assert not np.array_equal(ascent, theta0)


def test_span_search_is_chunk_invariant(monkeypatch):
    # rows 1 and 4 of W are zero, so W a vanishes there for every a; the
    # score's unique minimizer sits on the grid, rotated by phi
    rng = np.random.default_rng(21)
    basis = np.zeros((6, 2), dtype=complex)
    basis[[0, 2, 3, 5]] = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
    counts = (6, 12, 8)
    psi, chi, phi = 3.5 * (0.5 * math.pi / 6), 5 * (2 * math.pi / 12), 3 * (2 * math.pi / 8)
    z = basis @ np.array([math.cos(psi), math.sin(psi) * np.exp(1j * chi)])
    pattern = np.where(np.abs(z) > 0, z / np.maximum(np.abs(z), 1e-300), 1.0)
    s_star = np.exp(1j * phi) * (basis.conj().T @ pattern)

    def score(s, rot):
        diff = np.exp(1j * rot)[:, None, :] * s[..., None] - s_star[:, None, None, None]
        return np.sum(np.abs(diff) ** 2, axis=0).reshape(s.shape[1], -1)

    for name, value in (("GRID", counts[:2]), ("STARTS", 2), ("ROUNDS", 3), ("HALF_WIDTH", 2),
                        ("SHRINK", 3.0)):
        monkeypatch.setattr(gai, f"SEARCH_{name}", value)
    found = []
    for chunk in (1, 2 ** 20):
        monkeypatch.setattr(gai, "SEARCH_CHUNK", chunk)
        found.append(gai.SpanMemo(basis).search(score, counts[2]))
    (p_small, at_small), (p_large, at_large) = found
    assert np.array_equal(p_small, p_large) and np.array_equal(at_small, at_large)
    assert np.allclose(at_small, [psi, chi, phi], atol=1e-12)
    assert np.allclose(p_small, pattern, atol=1e-12)
    assert np.array_equal(p_small[[1, 4]], np.ones(2))  # phase 0 where W a vanishes


@pytest.mark.parametrize("cols", [1, 3])
def test_span_search_needs_a_two_column_basis(cols):
    # the patterns exp(j arg(W a)) are defined on a two-dimensional span only
    rng = np.random.default_rng(cols)
    basis = np.linalg.qr(rng.normal(size=(8, cols)) + 1j * rng.normal(size=(8, cols)))[0]
    with pytest.raises(ValueError, match="M x 2"):
        gai.SpanMemo(basis).search(lambda s: np.zeros(s.shape[1:]))


def _search_basis(seed, free_rows, zero_rows, vanishing, cell):
    """An M x 2 orthonormal basis with zero_rows zero rows and, if vanishing,
    a row where W a is exactly zero at the grid point (psi cell, chi = 0);
    with the psi array of the full grid, that point's index and the rng."""
    rng = np.random.default_rng(seed)
    n_psi, n_chi = gai.SEARCH_GRID
    psi_grid = np.repeat((np.arange(n_psi) + 0.5) * (0.5 * math.pi / n_psi), n_chi)
    point = cell * n_chi  # (psi_cell, chi = 0), a point of the first, full grid
    rows = [np.zeros((zero_rows, 2), dtype=complex)]
    gram = np.eye(2)
    if vanishing:
        # cos psi w0 + sin psi w1 is exactly zero on this row: both products
        # are sin * cos scaled by a power of two; the cos and sin are those
        # of the search's own grid array
        row = 0.5 * np.array([[np.sin(psi_grid)[point], -np.cos(psi_grid)[point]]])
        rows.append(row.astype(complex))
        gram = gram - row.T @ row
    free = np.linalg.qr(rng.normal(size=(free_rows, 2)) + 1j * rng.normal(size=(free_rows, 2)))[0]
    rows.append(free @ np.linalg.cholesky(gram).T)  # completes W^H W = I
    basis = np.vstack(rows)[rng.permutation(zero_rows + vanishing + free_rows)]
    assert np.allclose(basis.conj().T @ basis, np.eye(2), atol=1e-14)
    return basis, psi_grid, point, rng


@given(seed=st.integers(0, 2**32 - 1), free_rows=st.integers(2, 40), zero_rows=st.integers(0, 3),
       vanishing=st.booleans(), cell=st.integers(0, gai.SEARCH_GRID[0] - 1))
@example(seed=0, free_rows=2, zero_rows=3, vanishing=True, cell=0)
def test_span_coordinates_match_the_formed_patterns(seed, free_rows, zero_rows, vanishing, cell):
    # oracle: at every scored (psi, chi), the s the score receives equals W^H
    # of the pattern formed entry by entry, phase-0 entries included
    basis, psi_grid, point, _ = _search_basis(seed, free_rows, zero_rows, vanishing, cell)
    # the score is lowest at the grid point of the vanishing row, so that
    # point starts a refinement and every round's patch holds it too
    target = basis.conj().T @ gai._span_candidates(basis, psi_grid[point:point + 1], np.zeros(1))

    grids, scored = [], []
    coordinates = gai.SpanMemo.coordinates

    def recording(memo, psi, chi):
        grids.append((psi, chi))
        return coordinates(memo, psi, chi)

    def score(s):
        scored.append(s.copy())
        return np.sum(np.abs(s - target[:, None]) ** 2, axis=0)

    with mock.patch.object(gai.SpanMemo, "coordinates", recording):
        gai.SpanMemo(basis).search(score)
    # one scorer call per product-grid batch: the full grid, then each round
    assert len(grids) == len(scored) == 1 + gai.SEARCH_ROUNDS
    for (psi, chi), s in zip(grids, scored):
        assert s.shape == (2, psi.shape[0], psi.shape[1] * chi.shape[1])
        for p, c, s_row in zip(psi, chi, s.transpose(1, 0, 2)):
            p, c = np.repeat(p, c.size), np.tile(c, psi.shape[1])
            formed = basis.conj().T @ gai._span_candidates(basis, p, c)
            assert np.all(np.abs(s_row - formed) <= 1e-12 * np.linalg.norm(formed, axis=0))
    if vanishing:
        psi, chi = grids[0]
        psi, chi = np.repeat(psi[0], chi.shape[1]), np.tile(chi[0], psi.shape[1])
        assert np.array_equal(psi, psi_grid) and chi[point] == 0.0
        at = np.flatnonzero(basis[:, 0] == 0.5 * np.sin(psi_grid)[point])
        assert np.array_equal(gai._span_candidates(basis, psi, chi)[at, point], np.ones(at.size))


def _span_coordinates_stacked(basis, psi, chi):
    """`gai._span_coordinates` in its earlier form, the oracle of its
    rewrite: near entries from np.nonzero of each chunk's mask, trig and s
    from np.stack."""
    cross = basis[:, 0].conj() * basis[:, 1]
    table = np.column_stack([np.abs(basis) ** 2, cross.real, cross.imag])
    floor = 1e-3 * (table[:, 0] + table[:, 1])
    cos, sin = np.cos(psi), np.sin(psi)
    q = sin * np.exp(1j * chi)
    trig = np.stack([cos * cos, sin * sin, 2.0 * cos * q.real, -2.0 * cos * q.imag], axis=-1)
    sums, near_at = np.empty(trig.shape), []
    width = min(psi.shape[1], max(1, gai.SEARCH_CHUNK // basis.shape[0]))
    height = max(1, gai.SEARCH_CHUNK // (width * basis.shape[0]))
    for top in range(0, psi.shape[0], height):
        for lo in range(0, psi.shape[1], width):
            part = np.s_[top:top + height, lo:lo + width]
            mag2 = trig[part] @ table.T
            near = mag2 <= floor
            np.copyto(mag2, np.inf, where=near)
            np.matmul(1.0 / np.sqrt(mag2), table, out=sums[part])
            if near.any():
                row, col, entry = np.nonzero(near)
                near_at.append((row + top, col + lo, entry))
    p = sums[..., 2] + 1j * sums[..., 3]
    s = np.stack([cos * sums[..., 0] + q * p, cos * p.conj() + q * sums[..., 1]])
    if near_at:
        row, col, entry = (np.concatenate(x) for x in zip(*near_at))
        z = basis[entry, 0] * cos[row, col] + basis[entry, 1] * q[row, col]
        np.add.at(s, (slice(None), row, col), basis[entry].conj().T * gai._project_phases(z, 1.0))
    return s


def _coordinates_stacked(basis, psi, chi):
    """A cold `SpanMemo.coordinates` in its earlier form, the grids stacked
    with np.stack, on the earlier `_span_coordinates`."""
    keys = [(p.tobytes(), c.tobytes()) for p, c in zip(psi, chi)]
    new = {key: i for i, key in enumerate(keys)}
    rows = list(new.values())
    n_psi, n_chi = psi.shape[1], chi.shape[1]
    s = _span_coordinates_stacked(basis, np.repeat(psi[rows], n_chi, axis=1), np.tile(chi[rows], n_psi))
    formed = {key: s[:, i].copy() for i, key in enumerate(new)}
    return np.stack([formed[key] for key in keys], axis=1)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 240), grids=st.integers(1, 8),
       n_psi=st.integers(1, 24), n_chi=st.integers(1, 48), repeat=st.booleans(),
       chunk=st.sampled_from([1, 7, 300, gai.SEARCH_CHUNK]))
@example(seed=0, m=1, grids=1, n_psi=1, n_chi=1, repeat=False, chunk=gai.SEARCH_CHUNK)
@example(seed=1, m=200, grids=1, n_psi=24, n_chi=48, repeat=False, chunk=gai.SEARCH_CHUNK)
@example(seed=2, m=12, grids=8, n_psi=7, n_chi=7, repeat=True, chunk=gai.SEARCH_CHUNK)
def test_span_coordinates_match_their_stacked_form(seed, m, grids, n_psi, n_chi, repeat, chunk):
    # a cold memo's coordinates, near entries and all, equal the earlier
    # form's to the bit in a C-contiguous (2, S, n) array.  Rows of the
    # basis with a zero entry, or zero, meet angles of 0 and pi / 2, where
    # W a vanishes or nearly does
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    basis[rng.random((m, 2)) < 0.1] = 0.0
    psi = 0.5 * math.pi * rng.random((grids, n_psi))
    psi[rng.random(psi.shape) < 0.1] = rng.choice([0.0, 0.5 * math.pi])
    chi = 2.0 * math.pi * rng.random((grids, n_chi))
    chi[rng.random(chi.shape) < 0.1] = 0.0
    if repeat:  # grids met twice in one call, as starts that share a point are
        psi[-1], chi[-1] = psi[0], chi[0]
    with mock.patch.object(gai, "SEARCH_CHUNK", chunk):
        got = gai.SpanMemo(basis).coordinates(psi, chi)
        want = _coordinates_stacked(basis, psi, chi)
    assert got.flags.c_contiguous and got.shape == want.shape == (2, grids, n_psi * n_chi)
    assert got.tobytes() == want.tobytes()


def _warm_scorer(w, seen):
    """A search score built from the weights w, recording the coordinates
    it is handed in seen; with a rotation axis, as in GAI's step."""
    def score(s, *phi):
        seen.append(s.copy())
        value = np.abs(np.tensordot(w, s, axes=1) + 0.3)
        if phi:
            value = np.abs(np.exp(1j * phi[0])[:, None, :] * value[..., None] + w[0])
        return -value.reshape(s.shape[1], -1)
    return score


def _full_grid(s):
    return s.shape[1:] == (1, np.prod(gai.SEARCH_GRID))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), free_rows=st.integers(2, 40), zero_rows=st.integers(0, 3),
       vanishing=st.booleans(), cell=st.integers(0, gai.SEARCH_GRID[0] - 1),
       rotations=st.sampled_from([(), (gai.SEARCH_ROTATIONS,)]))
@example(seed=0, free_rows=2, zero_rows=3, vanishing=True, cell=0, rotations=())
@example(seed=1, free_rows=5, zero_rows=1, vanishing=True, cell=3, rotations=(gai.SEARCH_ROTATIONS,))
def test_a_warm_memo_searches_as_a_cold_search(seed, free_rows, zero_rows, vanishing, cell, rotations):
    # earlier searches on the same basis, with other scores, fill the memo
    # and keep the cells of the first one's grid; a search that reads it
    # sees the coordinates a cold memo forms, to the bit, scores no full
    # grid and refines from the kept cells; once the cells are dropped it
    # searches exactly as a cold search
    basis, _, _, rng = _search_basis(seed, free_rows, zero_rows, vanishing, cell)
    weights = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    memo = gai.SpanMemo(basis)
    first = []
    memo.search(_warm_scorer(weights[1], first), *rotations)
    assert _full_grid(first[0])
    counts, kept = memo.kept
    assert counts == gai.SEARCH_GRID + rotations and kept.shape == (gai.SEARCH_STARTS, len(counts))
    memo.search(_warm_scorer(weights[2], []), *rotations)
    assert memo.kept[1] is kept  # a tracked search keeps the grid's cells
    warm_seen, formed, grids = [], [], []
    closed_form, coordinates = gai._span_coordinates, gai.SpanMemo.coordinates

    def recording(basis_, psi, chi):
        formed.append(psi.size)
        return closed_form(basis_, psi, chi)

    def reading(memo_, psi, chi):
        grids.append((psi, chi))
        return coordinates(memo_, psi, chi)

    with mock.patch.object(gai, "_span_coordinates", recording), \
            mock.patch.object(gai.SpanMemo, "coordinates", reading):
        memo.search(_warm_scorer(weights[0], warm_seen), *rotations)
    assert sum(formed) < np.prod(gai.SEARCH_GRID)  # no grid formed again
    assert len(warm_seen) == gai.SEARCH_ROUNDS and not any(map(_full_grid, warm_seen))
    for (psi, chi), s in zip(grids, warm_seen):
        assert np.array_equal(s, gai.SpanMemo(basis).coordinates(psi, chi))
    # each start's first patch holds its kept cell at its centre
    centre = gai.SEARCH_HALF_WIDTH
    assert np.array_equal(grids[0][0][:, centre], kept[:, 0])
    assert np.array_equal(grids[0][1][:, centre], kept[:, 1])

    memo.kept = None
    cold_seen, warm_seen = [], []
    warm = memo.search(_warm_scorer(weights[0], warm_seen), *rotations)
    cold = gai.SpanMemo(basis).search(_warm_scorer(weights[0], cold_seen), *rotations)
    assert np.array_equal(warm[0], cold[0]) and np.array_equal(warm[1], cold[1])
    assert len(warm_seen) == len(cold_seen) == 1 + gai.SEARCH_ROUNDS
    assert all(np.array_equal(a, b) for a, b in zip(warm_seen, cold_seen))


@pytest.mark.parametrize("rotations", [(), (gai.SEARCH_ROTATIONS,)])
def test_a_search_leaves_the_kept_cells_as_the_full_grid_picked(rotations):
    # each round moves the starts' cells in place, on a copy: the kept
    # cells, cold and after every warm search, are still points of the
    # full grid, unmoved, and the same array
    basis, _, _, rng = _search_basis(3, 20, 1, True, 5)
    weights = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    memo = gai.SpanMemo(basis)
    memo.search(_warm_scorer(weights[0], []), *rotations)
    counts, kept = memo.kept
    picked = kept.copy()
    steps = [0.5 * math.pi / counts[0]] + [2.0 * math.pi / n for n in counts[1:]]
    on_grid = [(np.arange(counts[0]) + 0.5) * steps[0]] + [np.arange(n) * h for n, h in zip(counts[1:], steps[1:])]
    assert all(np.isin(kept[:, d], axis).all() for d, axis in enumerate(on_grid))
    moved = 0
    for w in weights[1:]:
        _, at = memo.search(_warm_scorer(w, []), *rotations)
        moved += not any(np.array_equal(at, cell) for cell in kept)
        assert memo.kept[1] is kept and np.array_equal(kept, picked)
    assert moved  # the searches did move their best points off the kept cells


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), free_rows=st.integers(2, 40), zero_rows=st.integers(0, 3),
       rotations=st.sampled_from([(), (gai.SEARCH_ROTATIONS,)]))
def test_a_tracked_search_ends_no_worse_than_its_best_kept_cell(seed, free_rows, zero_rows, rotations):
    # the kept cells come from one score and the tracked search runs
    # another; under the second, the point it returns scores at most the
    # lowest score of a kept cell, each scored alone (up to the 1e-12
    # rounding of coordinates formed in other grids)
    basis, _, _, rng = _search_basis(seed, free_rows, zero_rows, False, 0)
    weights = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    memo = gai.SpanMemo(basis)
    memo.search(_warm_scorer(weights[0], []), *rotations)
    score = _warm_scorer(weights[1], [])
    _, at = memo.search(score, *rotations)

    def alone(point):
        s = gai.SpanMemo(basis).coordinates(point[None, :1], point[None, 1:2])
        return score(s, *(point[None, 2 + i:3 + i] for i in range(len(rotations))))[0, 0]

    cells = min(alone(cell) for cell in memo.kept[1])
    assert alone(at) <= cells + 1e-12 * max(1.0, abs(cells))


def test_a_search_over_another_grid_shape_scores_its_full_grid():
    # the kept cells belong to one grid shape: a search with or without
    # GAI's rotation axis, after one of the other shape, scores its own grid
    basis, _, _, rng = _search_basis(9, 12, 1, False, 0)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    memo = gai.SpanMemo(basis)
    rotate = (gai.SEARCH_ROTATIONS,)
    for rotations, full in ((rotate, True), ((), True), ((), False), (rotate, True), (rotate, False)):
        seen = []
        memo.search(_warm_scorer(w, seen), *rotations)
        assert _full_grid(seen[0]) == full and len(seen) == full + gai.SEARCH_ROUNDS
        assert memo.kept[0] == gai.SEARCH_GRID + rotations


def test_span_memo_keeps_its_basis_only_for_parts_that_span_it():
    rng = np.random.default_rng(5)
    w = np.linalg.qr(rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)))[0]

    def inside(k):
        return w @ (rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k)))

    memo = gai.SpanMemo()
    basis = memo.basis_of(inside(3), inside(3))
    memo.formed["grid"], memo.kept = "coordinates", "cells"
    # parts in the kept span, at any scale: the same basis and memo, kept
    # cells included
    assert memo.basis_of(inside(2), 1e6 * inside(1)) is basis and memo.formed and memo.kept == "cells"
    # parts along one direction of it, or a part 1e-8 outside it: the parts'
    # own basis, as a fresh memo takes it, and an empty memo without cells
    outside = inside(2) + 1e-8 * np.linalg.norm(inside(2)) * rng.normal(size=(12, 2))
    direction = inside(1)
    for parts in ((direction, 2.0 * direction), (inside(2), inside(2)), (inside(2), outside)):
        memo.formed["grid"], memo.kept = "coordinates", "cells"
        found = memo.basis_of(*parts)
        assert found.shape == gai.SpanMemo().basis_of(*parts).shape and not memo.formed
        assert memo.kept is None
    assert found is not basis and found is memo.basis


def test_a_run_searches_one_basis_and_forms_each_grid_once(monkeypatch):
    # default line-of-sight scenario: each run takes one span basis, and no
    # product grid of (psi, chi) points, the full grid or a start's patch,
    # is formed twice in it; a second call on the same channels starts over
    cfg, ch = _setup()
    bases, blocks, steps = [], [], []
    column_basis, closed_form, search = gai._column_basis, gai._span_coordinates, gai.SpanMemo.search

    def counting_basis(cols):
        bases.append(cols.shape)
        return column_basis(cols)

    def recording(basis, psi, chi):
        blocks.extend((p.tobytes(), c.tobytes()) for p, c in zip(psi, chi))
        return closed_form(basis, psi, chi)

    def counting_search(memo, *args):
        steps.append((memo, memo.basis))
        return search(memo, *args)

    monkeypatch.setattr(gai, "_column_basis", counting_basis)
    monkeypatch.setattr(gai, "_span_coordinates", recording)
    monkeypatch.setattr(gai.SpanMemo, "search", counting_search)
    grid = np.prod(gai.SEARCH_GRID)
    for kind in ("gai", "nsp", "gai"):
        bases.clear(), blocks.clear(), steps.clear()
        run_scheme(Scheme(kind), cfg, ch)
        memo, basis = steps[0]
        assert len(steps) >= 3 and all(m is memo and b is basis for m, b in steps)
        assert len(bases) == 1
        assert len(blocks) == len(set(blocks))
        assert sum(len(b[0]) == 8 * grid for b in blocks) == 1  # the full grid, formed in this run

    # channels that are not line of sight: every phase step takes its own basis
    rng = np.random.default_rng(3)
    cfg = SystemConfig(M=20, K=2, N=8, ps_dbm=0.0, sigma2_dbm=0.0)
    gauss = lambda *shape: (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)
    ch = ChannelSet(H_AI=gauss(20, 8), H_AB=gauss(8, 2), H_AE=gauss(8, 2), H_IB=gauss(20, 2),
                    H_IE=gauss(20, 2), g_AB=1.0, g_AE=1.0, g_AIB=1.0, g_AIE=1.0)
    phase_steps = []
    block = gai.ga_optimize_theta
    monkeypatch.setattr(gai, "ga_optimize_theta", lambda *args: phase_steps.append(1) or block(*args))
    bases.clear(), blocks.clear()
    run_gai(cfg, ch)
    assert len(phase_steps) >= 2 and len(bases) == len(phase_steps)
    assert not blocks


@given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 0.5 + 2 ** -52, 1.0, 3.0, np.inf, np.nan])
                | st.floats(-1e3, 1e3), max_size=40),
       st.integers(1, 12))
@example([1.0] * 9, gai.SEARCH_STARTS)
@example([2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], gai.SEARCH_STARTS)
@example([np.nan] * 3 + [1.0] * 6, gai.SEARCH_STARTS)
def test_lowest_matches_a_stable_full_sort(values, count):
    # the search starts: same indices, in the same order, with repeated
    # values, NaN and sizes at or below the count
    values = np.array(values, dtype=float)
    expected = np.argsort(values, kind="stable")[:count]
    assert np.array_equal(gai.lowest(values, count), expected)


@pytest.mark.parametrize("kind, overrides, max_passes", [
    ("gai", {"d_AB": 300.0}, 10),
    ("single_cbs", {"d_AB": 300.0}, 10),
    # on the placement line, just past Eve's drop
    ("gai", {"d_AI": 47.5, "theta_AI": parallel_irs_angle(SystemConfig())}, 7),
    ("gai", {"d_AI": 50.0, "theta_AI": parallel_irs_angle(SystemConfig())}, 7),
    ("gai", {"d_AI": 55.0, "theta_AI": parallel_irs_angle(SystemConfig())}, 10),
    ("gai", {"d_AI": 57.5, "theta_AI": parallel_irs_angle(SystemConfig())}, 15),
], ids=["d_AB=300 gai", "d_AB=300 single_cbs", "d_AI=47.5 placement", "d_AI=50 placement",
        "d_AI=55 placement", "d_AI=57.5 placement"])
def test_run_gai_converges_at_m80(kind, overrides, max_passes):
    # with an ascent-only phase block both d_AB = 300 m solves stopped at the
    # 50-pass cap, and the d_AI = 50 m placement solve took 38 passes and
    # about 19 s.  On the placement line the beamformer and phase blocks,
    # each at its own optimum, creep along a ridge: the plain alternation
    # took 29/34/41/39 passes at d_AI = 47.5/50/55/57.5 m, and the
    # extrapolated step cuts the climb to the bounds here
    cfg = SystemConfig(M=80, **overrides)
    sol = run_scheme(Scheme(kind), cfg, build_channels(cfg, build_geometry(cfg)))
    assert sol.converged
    assert sol.iterations <= max_passes
    assert np.all(np.diff(sol.rs_trace) >= -1e-9)


@pytest.mark.parametrize("overrides", [
    {"d_AB": 50.0, "M": 10}, {"d_AB": 50.0, "M": 50}, {"d_AB": 50.0, "M": 200},
    {"d_AB": 300.0, "M": 10}, {"d_AB": 300.0, "M": 30}, {"d_AB": 300.0, "M": 80},
    {"d_AB": 50.0, "M": 2000, "ps_dbm": 90.0}, {"d_AB": 50.0, "M": 4000, "ps_dbm": 90.0},
    {"d_AB": 50.0, "M": 1000, "ps_dbm": 110.0},
    {"d_AB": 300.0, "M": 1000, "ps_dbm": 100.0, "beta1": 0.0, "beta2": 0.8},
], ids=lambda o: " ".join(f"{k}={v:g}" for k, v in o.items()))
def test_run_gai_ends_at_a_stationary_phase_vector(overrides):
    # no step theta exp(j 2^-k d) along the unit tangent gradient d, at any
    # length from 1 down to 2^-60, raises the final phase ratio by more than
    # 1e-5 bits: the six bench points, the headline points at 90 dBm, and
    # high-power points where a phase block that gave up on its line search
    # after a fixed number of halvings left 0.19 to 2.84 bits
    cfg, ch = _setup(SystemConfig(**overrides))
    sol = run_gai(cfg, ch)
    pp = PhaseProblem(derived_model(cfg, ch, Precoders(v1=sol.v1, v2=sol.v2, theta=sol.theta)))
    d = np.imag(sol.theta.conj() * pp.gradient(sol.theta))
    d /= np.linalg.norm(d)
    f0 = pp.ratio(sol.theta)
    gain = max(math.log2(pp.ratio(sol.theta * np.exp(1j * 2.0 ** -k * d)) / f0) for k in range(61))
    assert gain <= 1e-5


# ---------------------------------------------------------------- full runs


def test_run_gai_trace_monotone_and_converges():
    cfg, ch = _setup(SystemConfig(M=10))
    state = run_gai(cfg, ch)
    diffs = np.diff(state.rs_trace)
    assert np.all(diffs >= -1e-9)
    assert state.converged
    assert state.iterations <= 10
    assert np.allclose(np.abs(state.theta), 1.0, atol=1e-9)
    assert np.linalg.norm(state.v1) == pytest.approx(1.0, abs=1e-9)


def test_run_gai_beats_initial_point():
    cfg, ch = _setup(SystemConfig(M=20))
    state = run_gai(cfg, ch)
    assert state.rs_trace[-1] >= state.rs_trace[0]
    assert state.rs_trace[-1] > 0


def test_run_gai_single_stream_budgets():
    for beta1, beta2 in ((0.0, 0.8), (0.8, 0.0)):
        cfg = SystemConfig(M=8, beta1=beta1, beta2=beta2)
        ch = build_channels(cfg, build_geometry(cfg))
        state = run_gai(cfg, ch)
        assert np.all(np.diff(state.rs_trace) >= -1e-9)
        assert state.rs_trace[-1] > 0


def test_run_gai_no_irs_mode_ignores_theta():
    cfg, ch = _setup(SystemConfig(M=12))
    ch = replace(ch, g_AIB=0.0, g_AIE=0.0)
    a = run_gai(cfg, ch, fixed_theta=np.ones(cfg.M))
    b = run_gai(cfg, ch, fixed_theta=np.exp(1j * np.linspace(0, 3, cfg.M)))
    assert a.rs_trace[-1] == pytest.approx(b.rs_trace[-1], abs=1e-9)


def test_run_gai_fixed_theta_keeps_theta():
    cfg, ch = _setup(SystemConfig(M=6))
    theta0 = np.exp(1j * np.linspace(0.3, 2.9, cfg.M))
    state = run_gai(cfg, ch, fixed_theta=theta0)
    assert np.allclose(state.theta, theta0)


def _climbing_drop(seed, m, ps_dbm, fading, epsilon):
    """A drop of the three nodes and the surface drawn from seed, with M = m,
    and its channels: line of sight, or, when fading, Rayleigh channels at
    the same path gains with K = 1 and N = M + 3, so that nsp keeps two
    directions for stream 2 and its alternation climbs for many passes (on
    line-of-sight links every nsp solve stops at pass 2)."""
    rng = np.random.default_rng(seed)
    angles = rng.permutation(np.sort(rng.uniform(0.08, math.pi - 0.08, size=3)))
    k = 1 if fading else int(rng.integers(1, 9))
    n = m + 3 if fading else int(rng.integers(3, 33))
    d_ai, d_ab, d_ae = rng.uniform(5.0, 300.0, size=3)
    cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=ps_dbm, epsilon=epsilon, d_AI=d_ai, d_AB=d_ab, d_AE=d_ae,
                       theta_AI=angles[0], theta_AB=angles[1], theta_AE=angles[2])
    ch = build_channels(cfg, build_geometry(cfg))
    if fading:
        def gauss(*shape):
            return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2.0)
        ch = replace(ch, H_AI=gauss(m, n), H_AB=gauss(n, 1), H_AE=gauss(n, 1), H_IB=gauss(m, 1), H_IE=gauss(m, 1))
    return cfg, ch


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 40), ps_dbm=st.floats(0.0, 90.0),
       fading=st.booleans(), epsilon=st.sampled_from([1e-4, 1e-9]))
# drops where gai keeps an extrapolated step on line-of-sight links, and
# where gai and nsp keep one on fading links
@example(seed=5040, m=39, ps_dbm=26.85611007151881, fading=False, epsilon=1e-4)
@example(seed=40712, m=20, ps_dbm=14.37650231733707, fading=True, epsilon=1e-9)
def test_an_extrapolated_step_keeps_only_points_that_raise_the_gap(seed, m, ps_dbm, fading, epsilon):
    # every kept trial point of `alternate`, in one row (gai, single_cbs,
    # nsp) and in each row of the fixed-phase stack, raised the gap above
    # the plain pass's, by its own model's rate gap; every trace is
    # non-decreasing; and nsp's beamformers, extrapolated ones included,
    # stay in their null spaces
    cfg, ch = _climbing_drop(seed, m, ps_dbm, fading, epsilon)
    accepted = []
    extrapolate = gai._extrapolate

    def checked(dm_prev, dm, gap, rows):
        best, out = extrapolate(dm_prev, dm, gap, rows)
        moved = ~np.all([np.all(getattr(best.prec, key) == getattr(dm.prec, key), axis=-1)
                         for key in ("v1", "v2", "theta")], axis=0)
        assert np.all(rows | ~moved)
        assert np.all(np.asarray(out)[moved] > np.asarray(gap)[moved])
        assert np.array_equal(np.asarray(out)[~moved], np.asarray(gap)[~moved])
        assert np.array_equal(np.asarray(rate_gap(best))[rows], np.asarray(out)[rows])
        if np.ndim(rows) == 0 and moved:
            accepted.append(best.prec)
        return best, out

    with mock.patch.object(gai, "_extrapolate", checked):
        thetas = np.exp(2j * math.pi * np.random.default_rng(seed).random((4, m)))
        for run in gai.fixed_phase_runs(cfg, ch, thetas, GaOptions().max_outer):
            assert np.all(np.diff(run.rs_trace) >= 0)
        for kind in ("gai", "single_cbs", "nsp"):
            accepted.clear()
            sol = run_scheme(Scheme(kind), cfg, ch)
            assert np.all(np.diff(sol.rs_trace) >= 0), kind
    # nsp ran last: its kept trial points and its solution
    h1 = np.vstack([ch.H_AB.conj().T, ch.H_AE.conj().T])
    h2 = np.vstack([ch.H_AI, ch.H_AE.conj().T])
    for prec in accepted + [sol]:
        assert np.linalg.norm(h1 @ prec.v1) <= 1e-8 * np.linalg.norm(h1, 2)
        assert np.linalg.norm(h2 @ prec.v2) <= 1e-8 * np.linalg.norm(h2, 2)


def test_the_extrapolation_examples_keep_a_step(monkeypatch):
    # the property's examples keep their cases: (kept steps, steps tried)
    # per scheme, so the accepting path always runs
    kept = []
    extrapolate = gai._extrapolate

    def counted(dm_prev, dm, gap, rows):
        out = extrapolate(dm_prev, dm, gap, rows)
        if rows:  # a pass that does not stop tries the step
            kept.append(out[0] is not dm)
        return out

    monkeypatch.setattr(gai, "_extrapolate", counted)
    cases = {(5040, 39, 26.85611007151881, False, 1e-4): {"gai": (4, 7), "nsp": (0, 0)},
             (40712, 20, 14.37650231733707, True, 1e-9): {"gai": (0, 7), "nsp": (5, 7)}}
    for drop, counts in cases.items():
        cfg, ch = _climbing_drop(*drop)
        for kind, count in counts.items():
            kept.clear()
            run_scheme(Scheme(kind), cfg, ch)
            assert (sum(kept), len(kept)) == count, (drop, kind)


def _fixed_phase_case(seed, d, m, k, n, betas, ps_dbm, d_ab, epsilon):
    cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=ps_dbm, beta1=betas[0], beta2=betas[1], d_AB=d_ab,
                       epsilon=epsilon)
    thetas = np.exp(2j * math.pi * np.random.default_rng(seed).random((d, m)))
    return cfg, build_channels(cfg, build_geometry(cfg)), thetas


def _same_run(a, b):
    return (a.sr == b.sr and a.iterations == b.iterations and a.converged == b.converged
            and all(np.array_equal(getattr(a, key), getattr(b, key)) for key in ("v1", "v2", "theta", "rs_trace")))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), d=st.integers(1, 8), m=st.integers(1, 40),
       k=st.sampled_from([1, 2, 4]), n=st.sampled_from([1, 2, 16]),
       betas=st.sampled_from([(0.4, 0.4), (0.0, 0.8), (0.8, 0.0)]), ps_dbm=st.floats(0.0, 90.0),
       d_ab=st.sampled_from([50.0, 300.0]), epsilon=st.sampled_from([1e-4, 1e-2, 0.1]))
# draws that stop at pass 1 beside ones that climb for 8 passes, or that
# stop at the 50-pass cap; draws whose last pass is undone beside ones that
# go on; and draws that climb for 23 and 33 passes, where an extrapolated
# step that one draw keeps is dropped by another in the same pass
@example(seed=746, d=8, m=12, k=2, n=2, betas=(0.4, 0.4), ps_dbm=73.95392765371376, d_ab=50.0, epsilon=0.1)
@example(seed=342, d=8, m=29, k=4, n=2, betas=(0.4, 0.4), ps_dbm=82.7269539307869, d_ab=50.0, epsilon=1e-4)
@example(seed=744, d=8, m=9, k=1, n=2, betas=(0.4, 0.4), ps_dbm=50.550734592554996, d_ab=50.0, epsilon=1e-4)
@example(seed=24122, d=8, m=3, k=2, n=2, betas=(0.4, 0.4), ps_dbm=76.73695546325911, d_ab=50.0, epsilon=0.01)
def test_a_phase_stack_runs_each_draw_as_its_own_run(seed, d, m, k, n, betas, ps_dbm, d_ab, epsilon):
    # each row of the stacked alternation is the row's own fixed-phase run
    # to the bit, and permuting the rows permutes the runs: no row depends
    # on its neighbours or on which of them are still climbing
    cfg, ch, thetas = _fixed_phase_case(seed, d, m, k, n, betas, ps_dbm, d_ab, epsilon)
    runs = gai.fixed_phase_runs(cfg, ch, thetas, GaOptions().max_outer)
    assert len(runs) == d
    for theta, run in zip(thetas, runs):
        assert _same_run(run, run_gai(cfg, ch, fixed_theta=theta))
    perm = np.random.default_rng(seed + 1).permutation(d)
    for i, run in zip(perm, gai.fixed_phase_runs(cfg, ch, thetas[perm], GaOptions().max_outer)):
        assert _same_run(run, runs[i])
    folded = run_gai(cfg, ch, fixed_theta=thetas)
    assert np.array_equal(folded.per_draw, [r.sr for r in runs])
    assert folded.sr == float(np.mean(folded.per_draw))
    assert folded.converged == all(r.converged for r in runs)


def test_the_stack_examples_reach_their_cases(monkeypatch):
    # the property's examples keep the cases they are there for
    cap = GaOptions().max_outer
    cases = {746: [2, 2, 8, 2, 2, 2, 2, 1], 342: [2, 2, 2, 2, 2, 1, 2, cap], 24122: [23, 2, 2, 2, 2, 2, 2, 33]}
    kept = []
    extrapolate = gai._extrapolate

    def counted(dm_prev, dm, gap, rows):
        out = extrapolate(dm_prev, dm, gap, rows)
        if rows.any():  # some draw's pass does not stop and tries the step
            kept.append((out[1] > gap)[rows])
        return out

    monkeypatch.setattr(gai, "_extrapolate", counted)
    for seed, m, k, ps, eps in ((746, 12, 2, 73.95392765371376, 0.1), (342, 29, 4, 82.7269539307869, 1e-4),
                                (24122, 3, 2, 76.73695546325911, 0.01)):
        kept.clear()
        runs = gai.fixed_phase_runs(*_fixed_phase_case(seed, 8, m, k, 2, (0.4, 0.4), ps, 50.0, eps), cap)
        assert [r.iterations for r in runs] == cases[seed]
        assert runs[-1].converged == (seed != 342)
    assert any(step.any() and not step.all() for step in kept)
    undone = []
    settle = gai._settle

    def counted(gap, gap_new, epsilon):
        out = settle(gap, gap_new, epsilon)
        undone.append(np.asarray(out[0]).copy())
        return out

    monkeypatch.setattr(gai, "_settle", counted)
    gai.fixed_phase_runs(*_fixed_phase_case(744, 8, 9, 1, 2, (0.4, 0.4), 50.550734592554996, 50.0, 1e-4), cap)
    assert any(u.any() and not u.all() for u in undone)


@pytest.mark.parametrize("spoil, message", [
    (lambda thetas: thetas * np.where(np.arange(len(thetas)) == 2, 1.5, 1.0)[:, None], "unit modulus"),
    (lambda thetas: np.where(np.arange(len(thetas))[:, None] == 1, np.nan, thetas), "unit modulus"),
], ids=["one row off the circle", "one row NaN"])
def test_a_phase_stack_checks_every_row(spoil, message):
    cfg, ch = _setup(SystemConfig(M=6))
    thetas = spoil(np.exp(2j * math.pi * np.random.default_rng(0).random((4, cfg.M))))
    with pytest.raises(ValueError, match=message):
        run_gai(cfg, ch, fixed_theta=thetas)


def test_a_phase_stack_checks_each_rows_pencils(monkeypatch):
    # a row whose denominator turns singular, or whose pencil turns
    # non-finite, fails the stack as it fails its own run
    cfg, ch = _setup(SystemConfig(M=6))
    thetas = np.exp(2j * math.pi * np.random.default_rng(0).random((4, cfg.M)))
    solve = gai.rayleigh_ritz_max
    for value, message in ((0.0, "numerically singular"), (np.inf, "non-finite")):
        def spoiled(num, den, value=value):
            den = den.copy()
            den[-1] = 0.0
            den[-1, 0, 0] = value
            return solve(num, den)
        monkeypatch.setattr(gai, "rayleigh_ritz_max", spoiled)
        with pytest.raises(ValueError, match=message):
            run_gai(cfg, ch, fixed_theta=thetas)


@pytest.mark.parametrize("d_ab", [50.0, 300.0])
def test_dead_elements_neither_stall_a_run_nor_move_its_rate(d_ab):
    # elements 3 and 11 receive nothing from Alice, so no rate reads their
    # phases, the span basis has zero rows there and every searched pattern
    # takes phase 0 on them
    cfg = SystemConfig(d_AB=d_ab)
    _, ch = _setup(cfg)
    dead = [3, 11]
    h_ai = ch.H_AI.copy()
    h_ai[dead] = 0.0
    ch = replace(ch, H_AI=h_ai)
    for run in (run_gai, nsp.run_nsp):
        sol = run(cfg, ch)
        assert np.isfinite(sol.sr) and sol.converged
        assert np.allclose(np.abs(sol.theta), 1.0, atol=1e-12)
        rotated = sol.theta.copy()
        rotated[dead] *= np.exp(1j * np.array([0.7, 2.9]))
        gaps = [rate_gap(derived_model(cfg, ch, Precoders(v1=sol.v1, v2=sol.v2, theta=t)))
                for t in (sol.theta, rotated)]
        assert gaps[0] == gaps[1]


@pytest.mark.parametrize("bad, message", [
    (lambda w: np.full_like(w, np.nan), r"v1 must have unit norm, got nan"),
    (lambda w: 2.0 * w, r"v1 must have unit norm, got (1\.99|2\.0)"),
    # rows, not columns: np.matvec rejects a solve of the wrong width itself
    (lambda w: np.stack([w, w]) / math.sqrt(2.0), r"v1 must be a vector"),
], ids=["nan", "norm 2", "matrix"])
def test_a_beamformer_step_checks_the_beamformer_it_replaced(monkeypatch, bad, message):
    # the step skips the scan of theta, which it keeps, but not the checks
    # of its own result
    cfg, ch = _setup(SystemConfig(M=6))
    solve = gai.rayleigh_ritz_max
    monkeypatch.setattr(gai, "rayleigh_ritz_max", lambda a, b: bad(solve(a, b)))
    with pytest.raises(ValueError, match=message):
        run_gai(cfg, ch, fixed_theta=np.exp(1j * np.linspace(0.3, 2.9, cfg.M)))


def test_replacing_a_beamformer_checks_its_size_and_keeps_the_rest():
    rng = np.random.default_rng(3)
    prec = _random_prec(SystemConfig(), rng)
    with pytest.raises(ValueError, match=r"v2 must have the 16 entries of v1, got 17"):
        prec.with_beamformer("v2", _unit(rng, 17))
    v = _unit(rng, 16)
    new = prec.with_beamformer("v1", v)
    assert (new.v1, new.v2, new.theta) == (v, prec.v2, prec.theta)
    assert (prec.v1 is not v) and isinstance(new, Precoders)


def _pareto_front(gain, leak):
    # keep only candidates not dominated in (higher gain, lower leak)
    order = np.argsort(-gain)
    g, l = gain[order], leak[order]
    lead = np.concatenate(([np.inf], np.minimum.accumulate(l)[:-1]))
    keep = l < lead
    return g[keep], l[keep]


def test_run_gai_tiny_instance_near_brute_force():
    # N = 2, M = 2, K = 1: joint brute force over (v1, v2, theta).  The rate
    # gap is (1 + a1 + a2) / (1 + (e1 + e2) / Bs) in the per-stream gains and
    # leakages, which is increasing in each gain and decreasing in each
    # leakage, so the best beamformer pair lies on the per-stream Pareto
    # frontiers and the pairwise search stays tiny.  The carrier is pinned to
    # a value where alternating ascent is not trapped below the joint
    # optimum (block-coordinate methods carry no global guarantee).
    cfg = SystemConfig(N=2, M=2, K=1, epsilon=1e-6, carrier_hz=5.0e8)
    ch = build_channels(cfg, build_geometry(cfg))
    state = run_gai(cfg, ch, GaOptions(max_outer=200, max_ga_iters=200))
    cand = _bloch_grid(25, 48)
    unit = np.array([1.0 + 0j, 0.0])
    thetas = np.linspace(0, 2 * math.pi, 61, endpoint=False)
    best = 1.0
    for t1 in thetas:
        for t2 in thetas:
            theta = np.exp(1j * np.array([t1, t2]))
            dm = derived_model(cfg, ch, Precoders(v1=unit, v2=unit, theta=theta))
            bs = _eve_noise(dm)[0, 0].real
            (h_b1, h_b2), (h_e1, h_e2) = _stream_channels(dm)
            g1, l1 = _pareto_front(
                np.abs(cand @ h_b1[0]) ** 2, np.abs(cand @ h_e1[0]) ** 2
            )
            g2, l2 = _pareto_front(
                np.abs(cand @ h_b2[0]) ** 2, np.abs(cand @ h_e2[0]) ** 2
            )
            num = 1.0 + g1[:, None] + g2[None, :]
            den = 1.0 + (l1[:, None] + l2[None, :]) / bs
            best = max(best, float((num / den).max()))
    best_sr = math.log2(best)
    assert state.rs_trace[-1] >= best_sr - 0.05 * abs(best_sr)


def _model_at_ones(cfg, ch):
    e1 = np.eye(cfg.N, dtype=complex)[0]
    return derived_model(cfg, ch, Precoders(v1=e1, v2=e1, theta=np.ones(cfg.M, dtype=complex)))


def test_initial_beamformers_unit_norm_and_orthogonal():
    cfg, ch = _setup()
    v1, v2 = initial_beamformers(_model_at_ones(cfg, ch))
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)
    assert abs(v1.conj() @ v2) < 1e-8


def test_initial_beamformers_single_antenna_shares_the_direction():
    cfg, ch = _setup(SystemConfig(N=1, M=4, K=1))
    v1, v2 = initial_beamformers(_model_at_ones(cfg, ch))
    assert v1.shape == (1,) and np.array_equal(v1, v2)
    assert abs(v1[0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("knobs", [{"max_outer": 0}, {"max_ga_iters": -3}, {"max_outer": True}],
                         ids=["max_outer=0", "max_ga_iters=-3", "max_outer=True"])
def test_ga_options_reject_bad_counts(knobs):
    with pytest.raises(ValueError, match=next(iter(knobs))):
        GaOptions(**knobs)
