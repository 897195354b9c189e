"""Rate evaluation checks against independently scripted oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import null_space

from irsdm import nsp, rates
from irsdm.bench import Scheme, run_scheme
from irsdm.gai import run_gai
from irsdm.model import SystemConfig, build_channels, build_geometry, dbm_to_watts
from irsdm.nsp import run_nsp
from irsdm.rates import (
    Precoders,
    an_projector,
    derived_model,
    rate_bob,
    rate_eve,
    secrecy_rate,
)


def _random_precoders(cfg, rng) -> Precoders:
    def unit(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    return Precoders(v1=unit(cfg.N), v2=unit(cfg.N), theta=theta)


def _setup(cfg=None, seed=0):
    cfg = cfg or SystemConfig()
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(seed)
    return cfg, ch, rng


# ---------------------------------------------------------------- projector


def test_an_projector_annihilates_surface_and_bob():
    cfg, ch, _ = _setup()
    p = an_projector(ch.H_AI, ch.H_AB)
    assert np.linalg.norm(ch.H_AI @ p) < 1e-8
    assert np.linalg.norm(ch.H_AB.conj().T @ p) < 1e-8


def test_an_projector_idempotent_hermitian():
    cfg, ch, _ = _setup()
    p = an_projector(ch.H_AI, ch.H_AB)
    assert np.linalg.norm(p @ p - p) < 1e-10
    assert np.linalg.norm(p - p.conj().T) < 1e-12


def test_an_projector_rank_against_null_space_oracle():
    # oracle: SVD null-space basis of the stacked matrix, computed by scipy
    cfg, ch, _ = _setup()
    h_cm = np.vstack([ch.H_AI, ch.H_AB.conj().T])
    basis = null_space(h_cm)
    p = an_projector(ch.H_AI, ch.H_AB)
    rank = int(round(np.trace(p).real))
    assert rank == basis.shape[1]
    assert rank == cfg.N - np.linalg.matrix_rank(h_cm)
    # the projector reproduces projection onto that basis
    assert np.linalg.norm(p - basis @ basis.conj().T) < 1e-9


def test_an_projector_random_rectangles():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 4))
        h_ai = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        h_ab = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        p = an_projector(h_ai, h_ab)
        assert np.linalg.norm(h_ai @ p) < 1e-8
        assert np.linalg.norm(h_ab.conj().T @ p) < 1e-8
        assert np.linalg.norm(p @ p - p) < 1e-9


def test_an_projector_zero_channels_gives_identity():
    p = an_projector(np.zeros((3, 5)), np.zeros((5, 2)))
    assert np.allclose(p, np.eye(5))


@pytest.fixture
def projector_calls(monkeypatch):
    """List that gains one entry per an_projector call, wherever it is looked up."""
    calls = []

    def counted(*args):
        calls.append(args)
        return an_projector(*args)

    monkeypatch.setattr(rates, "an_projector", counted)
    monkeypatch.setattr(nsp, "an_projector", counted)
    return calls


def test_run_gai_forms_an_projector_once(projector_calls):
    cfg, ch, _ = _setup()
    state = run_gai(cfg, ch)
    assert state.iterations_used > 1
    assert len(projector_calls) == 1


def test_random_phase_forms_an_projector_once_per_draw(projector_calls):
    # one per draw's run, plus one for the reported solution
    cfg, ch, _ = _setup(SystemConfig(M=8))
    run_scheme(Scheme("random_phase", draws=3), cfg, ch)
    assert len(projector_calls) <= 3 + 1


def test_run_nsp_forms_an_projector_at_most_twice(projector_calls):
    # once for the stream blocks and once for the rate model, not once per pass
    cfg, ch, _ = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    assert state.iterations_used > 1
    assert len(projector_calls) <= 2


# ---------------------------------------------------------------- derived model


def test_phase_linearization_identity():
    # H_X v = T_X theta + h_X for all four streams, over many random draws
    cfg, ch, rng = _setup()
    for _ in range(1000):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        assert np.allclose(dm.H_B1 @ prec.v1, dm.T_B1 @ prec.theta + dm.h_B1, atol=1e-10)
        assert np.allclose(dm.H_B2 @ prec.v2, dm.T_B2 @ prec.theta + dm.h_B2, atol=1e-10)
        assert np.allclose(dm.H_E1 @ prec.v1, dm.T_E1 @ prec.theta + dm.h_E1, atol=1e-10)
        assert np.allclose(dm.H_E2 @ prec.v2, dm.T_E2 @ prec.theta + dm.h_E2, atol=1e-10)


def test_noise_covariance_properties():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    evals = np.linalg.eigvalsh(dm.B)
    assert evals[0] >= 1.0 - 1e-9  # B - I is PSD
    assert np.linalg.norm(dm.B - dm.B.conj().T) < 1e-12
    # with the whole budget on the streams there is no AN left
    cfg_no_an = SystemConfig(beta1=0.5, beta2=0.5)
    dm2 = derived_model(cfg_no_an, ch, prec)
    assert np.allclose(dm2.B, np.eye(cfg.K))


def test_effective_channel_scaling():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    sigma = math.sqrt(dbm_to_watts(cfg.sigma2_dbm))
    c1 = math.sqrt(cfg.beta1 * dbm_to_watts(cfg.ps_dbm)) / sigma
    assert np.allclose(dm.H_B1, c1 * dm.H_B)
    assert np.allclose(dm.H_E1, c1 * dm.H_E)


# ---------------------------------------------------------------- rates


def _oracle_rates(cfg, ch, prec):
    """Straight transcription of the rate definitions, kept independent of the
    library internals: composite channels, generic determinants, explicit
    matrix inverses."""
    ps = dbm_to_watts(cfg.ps_dbm)
    sig2 = dbm_to_watts(cfg.sigma2_dbm)
    theta_mat = np.diag(prec.theta)
    h_b = np.sqrt(ch.g_AIB) * ch.H_IB.conj().T @ theta_mat @ ch.H_AI \
        + np.sqrt(ch.g_AB) * ch.H_AB.conj().T
    h_e = np.sqrt(ch.g_AIE) * ch.H_IE.conj().T @ theta_mat @ ch.H_AI \
        + np.sqrt(ch.g_AE) * ch.H_AE.conj().T
    k = cfg.K
    eye = np.eye(k)
    s_b = (cfg.beta1 * ps / sig2) * np.outer(h_b @ prec.v1, (h_b @ prec.v1).conj()) \
        + (cfg.beta2 * ps / sig2) * np.outer(h_b @ prec.v2, (h_b @ prec.v2).conj())
    r_b = np.log2(np.linalg.det(eye + s_b).real)
    h_cm = np.vstack([ch.H_AI, ch.H_AB.conj().T])
    p_an = np.eye(cfg.N) - np.linalg.pinv(h_cm) @ h_cm
    beta3 = 1 - cfg.beta1 - cfg.beta2
    b = eye + (beta3 * ps * ch.g_AE / sig2) * ch.H_AE.conj().T @ p_an @ p_an.conj().T @ ch.H_AE
    s_e = (cfg.beta1 * ps / sig2) * np.outer(h_e @ prec.v1, (h_e @ prec.v1).conj()) \
        + (cfg.beta2 * ps / sig2) * np.outer(h_e @ prec.v2, (h_e @ prec.v2).conj())
    r_e = np.log2(np.linalg.det(eye + s_e @ np.linalg.inv(b)).real)
    return r_b, r_e, max(0.0, r_b - r_e)


def test_rates_match_transcription_oracle():
    cfg, ch, rng = _setup()
    for _ in range(20):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        rb_o, re_o, rs_o = _oracle_rates(cfg, ch, prec)
        assert rate_bob(dm, prec) == pytest.approx(rb_o, abs=1e-9)
        assert rate_eve(dm, prec) == pytest.approx(re_o, abs=1e-9)
        assert secrecy_rate(dm, prec) == pytest.approx(rs_o, abs=1e-9)


def test_rate_bob_scalar_oracle_single_antenna():
    # K = 1 collapses the determinant to 1 + SNR1 + SNR2
    cfg = SystemConfig(K=1, N=4, M=6)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(5)
    for _ in range(10):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        snr = abs(dm.H_B1 @ prec.v1) ** 2 + abs(dm.H_B2 @ prec.v2) ** 2
        assert rate_bob(dm, prec) == pytest.approx(math.log2(1 + float(snr[0])), rel=1e-12)


def test_rate_bob_determinant_lemma_split():
    # det(I + t1 t1^H + t2 t2^H) expanded stream by stream
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    t1 = dm.H_B1 @ prec.v1
    t2 = dm.H_B2 @ prec.v2
    c2 = np.eye(cfg.K) + np.outer(t2, t2.conj())
    split = np.log2(np.linalg.det(c2).real) \
        + np.log2(1 + (t1.conj() @ np.linalg.solve(c2, t1)).real)
    assert rate_bob(dm, prec) == pytest.approx(split, abs=1e-10)


def test_rates_invariant_to_beamformer_phase():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    rotated = Precoders(
        v1=prec.v1 * np.exp(1j * 0.77),
        v2=prec.v2 * np.exp(-1j * 1.3),
        theta=prec.theta,
    )
    dm_rot = derived_model(cfg, ch, rotated)
    assert rate_bob(dm_rot, rotated) == pytest.approx(rate_bob(dm, prec), abs=1e-10)
    assert rate_eve(dm_rot, rotated) == pytest.approx(rate_eve(dm, prec), abs=1e-10)


def test_artificial_noise_never_helps_eve():
    # Eve's rate with the AN covariance is at most her AN-free rate
    cfg, ch, rng = _setup()
    for _ in range(10):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        t1 = dm.H_E1 @ prec.v1
        t2 = dm.H_E2 @ prec.v2
        s_e = np.outer(t1, t1.conj()) + np.outer(t2, t2.conj())
        no_an = np.log2(np.linalg.det(np.eye(cfg.K) + s_e).real)
        assert rate_eve(dm, prec) <= no_an + 1e-9


def test_rate_eve_zero_when_streams_off():
    cfg = SystemConfig(beta1=0.0, beta2=0.0)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(2)
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    assert rate_bob(dm, prec) == pytest.approx(0.0, abs=1e-12)
    assert rate_eve(dm, prec) == pytest.approx(0.0, abs=1e-12)
    assert secrecy_rate(dm, prec) == 0.0


def test_secrecy_rate_non_negative():
    cfg, ch, rng = _setup()
    for _ in range(50):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        assert secrecy_rate(dm, prec) >= 0.0


def test_precoders_validation():
    cfg = SystemConfig()
    good = np.ones(cfg.N) / math.sqrt(cfg.N)
    theta = np.ones(cfg.M, dtype=complex)
    with pytest.raises(ValueError, match="v1"):
        Precoders(v1=2 * good, v2=good, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        Precoders(v1=good, v2=good, theta=0.5 * theta)


def test_no_irs_variant_drops_reflected_terms():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec, include_irs=False)
    assert np.allclose(dm.H_B, np.sqrt(ch.g_AB) * ch.H_AB.conj().T)
    assert np.allclose(dm.T_B1, 0)
    assert np.allclose(dm.T_E2, 0)
    # direct-only rate no longer depends on theta
    other = Precoders(v1=prec.v1, v2=prec.v2, theta=-prec.theta)
    dm2 = derived_model(cfg, ch, other, include_irs=False)
    assert rate_bob(dm2, other) == pytest.approx(rate_bob(dm, prec), abs=1e-12)
