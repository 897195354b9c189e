"""Rate evaluation checks against independently scripted oracles."""

import copy
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from irsdm import bench, gai, nsp, rates
from irsdm.bench import Scheme, run_scheme
from irsdm.gai import run_gai
from irsdm.model import ChannelSet, SystemConfig, build_channels, build_geometry, dbm_to_watts
from irsdm.nsp import run_nsp
from irsdm.rates import (
    PhaseProblem,
    Precoders,
    an_projector,
    derived_model,
    rate_bob,
    rate_eve,
    rate_gap,
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
    assert state.iterations > 1
    assert len(projector_calls) == 1


def test_gai_scheme_forms_an_projector_once(projector_calls):
    # the reported solution takes P_AN from the run's own rate model
    cfg, ch, _ = _setup()
    sol = run_scheme(Scheme("gai"), cfg, ch)
    assert len(projector_calls) == 1
    assert np.array_equal(sol.p_an, an_projector(ch.H_AI, ch.H_AB))


def test_random_phase_forms_an_projector_once_per_call(projector_calls):
    # its draws share one rate model
    cfg, ch, _ = _setup(SystemConfig(M=8))
    run_scheme(Scheme("random_phase", draws=3), cfg, ch)
    assert len(projector_calls) == 1


def test_run_nsp_forms_an_projector_once(projector_calls):
    # once for the rate model, not once per pass
    cfg, ch, _ = _setup(SystemConfig(M=10))
    state = run_nsp(cfg, ch)
    assert state.iterations > 1
    assert len(projector_calls) == 1


@pytest.fixture
def model_calls(monkeypatch):
    """List that gains one entry per `derived_model` call of either optimizer
    or of the random-phase baseline."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return derived_model(*args, **kwargs)

    monkeypatch.setattr(gai, "derived_model", counted)
    monkeypatch.setattr(nsp, "derived_model", counted)
    monkeypatch.setattr(bench, "derived_model", counted)
    return calls


def test_each_run_forms_one_rate_model(model_calls):
    # every later model is the first one moved on by beamformer and phase
    # moves (`DerivedModel.with_beamformer`, `DerivedModel.with_theta`)
    cfg, ch, rng = _setup()
    state = run_gai(cfg, ch)
    assert state.iterations > 1
    assert len(model_calls) == 1
    state = run_nsp(cfg, ch)  # its phase pre-alignment included
    assert state.iterations > 1
    assert len(model_calls) == 2
    state = run_gai(cfg, ch, fixed_theta=np.exp(2j * math.pi * rng.random(cfg.M)))
    assert state.iterations > 1
    assert len(model_calls) == 3
    run_scheme(Scheme("random_phase", draws=3), cfg, ch)  # one channel-terms model for all draws
    assert len(model_calls) == 4


@pytest.fixture
def formed(monkeypatch):
    """Counts of the composite channels, the channel basis and the phase
    maps that the rate model and its readers form
    (`rates.composite_channels`, `rates.channel_basis`, and
    `rates.phase_maps` in `rates.PhaseProblem` and `nsp.phase_blocks`)."""
    counts = {"composite_channels": 0, "channel_basis": 0, "phase_maps": 0}

    def counter(name):
        fn = getattr(rates, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(rates, name, counter(name))
    monkeypatch.setattr(nsp, "phase_maps", rates.phase_maps)
    return counts


def test_fixed_phase_runs_form_the_channels_once_and_no_phase_maps(formed):
    # the fixed phases' theta terms serve every pass, so a run forms its
    # composite channels once; the channel basis is formed once per rate
    # model, and nothing reads the phase maps.  random_phase runs its draws
    # as one stack on one model: one broadcast product forms every draw's
    # composite channels, and the model's own theta terms, which no pass
    # reads, form none
    cfg, ch, rng = _setup()
    state = run_gai(cfg, ch, fixed_theta=np.exp(2j * math.pi * rng.random(cfg.M)))
    assert state.iterations > 1
    assert formed == {"composite_channels": 1, "channel_basis": 1, "phase_maps": 0}
    run_scheme(Scheme("random_phase", draws=3), cfg, ch)
    assert formed == {"composite_channels": 1 + 1, "channel_basis": 1 + 1, "phase_maps": 0}
    run_scheme(Scheme("no_irs"), cfg, ch)
    assert formed == {"composite_channels": 1 + 1 + 1, "channel_basis": 1 + 1 + 1, "phase_maps": 0}


def test_optimizers_form_the_channels_and_phase_maps_once_per_phase_step(formed):
    cfg, ch, _ = _setup()
    state = run_gai(cfg, ch)
    assert state.iterations > 1
    passes = state.iterations
    # the channel basis is formed with the run's one rate model, not per theta
    assert formed == {"composite_channels": 1 + passes, "channel_basis": 1, "phase_maps": passes}
    formed.update(composite_channels=0, channel_basis=0, phase_maps=0)
    # nsp adds one phase step before the alternation; its beamformer steps
    # solve in range(P), so it never forms the channel basis.  That first step reads
    # only the phase maps, so the theta terms of the run's first model, at
    # the all-ones phases, never form their composite channels
    state = run_nsp(cfg, ch)
    assert state.iterations > 1
    steps = 1 + state.iterations
    assert formed == {"composite_channels": steps, "channel_basis": 0, "phase_maps": steps}


def _an_image(cfg, ch):
    """The AN's image at Eve, A = sqrt(beta3 ps g_AE) / sigma H_AE^H P_AN:
    B = I + A A^H."""
    scale = math.sqrt(cfg.beta3 * cfg.ps_watts * ch.g_AE) / cfg.sigma_watts_sqrt
    return scale * ch.H_AE.conj().T @ an_projector(ch.H_AI, ch.H_AB)


@pytest.fixture
def factorizations(monkeypatch):
    """Counts of numpy's SVDs of the AN image at Eve of the default
    config's channels (K x N, K = 4 and N = 16), and of its Cholesky
    factorizations and solves of K x K matrices (against N = 16 and M >= 10)."""
    cfg, ch, _ = _setup()
    a = _an_image(cfg, ch)
    counts = {"svd of A": 0, "cholesky": 0, "solve": 0}
    svd, cholesky, solve = np.linalg.svd, np.linalg.cholesky, np.linalg.solve

    def counted_svd(x, *args, **kwargs):
        if x.shape == a.shape and np.allclose(x, a, rtol=1e-12, atol=0.0):
            counts["svd of A"] += 1
        return svd(x, *args, **kwargs)

    def counter(name, fn):
        def counted(x, *args):
            if x.shape == (cfg.K,) * 2:
                counts[name] += 1
            return fn(x, *args)

        return counted

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "cholesky", counter("cholesky", cholesky))
    monkeypatch.setattr(np.linalg, "solve", counter("solve", solve))
    return counts


def test_fixed_phase_passes_factor_nothing(factorizations):
    # B and its whitener W come from one SVD of A per rate model, and Eve's
    # stream channels are whitened by a product with W once per theta; the
    # beamformer steps and each pass's rates then run on rank-one
    # downdates and 2 x 2 determinants, with no K x K factorization or solve
    cfg, ch, rng = _setup()
    state = run_gai(cfg, ch, fixed_theta=np.exp(2j * math.pi * rng.random(cfg.M)))
    assert state.iterations > 1
    assert factorizations == {"svd of A": 1, "cholesky": 0, "solve": 0}
    run_scheme(Scheme("random_phase", draws=3), cfg, ch)  # one model, three thetas
    assert factorizations == {"svd of A": 1 + 1, "cholesky": 0, "solve": 0}
    run_scheme(Scheme("no_irs"), cfg, ch)
    assert factorizations == {"svd of A": 1 + 1 + 1, "cholesky": 0, "solve": 0}


def test_optimizers_factor_b_once_per_run(factorizations):
    # the phase steps whiten Eve's maps with the model's W too, and nsp's
    # Bob-side stream-2 noise is whitened in a rank-one closed form
    cfg, ch, _ = _setup()
    state = run_gai(cfg, ch)
    assert state.iterations > 1
    assert factorizations == {"svd of A": 1, "cholesky": 0, "solve": 0}
    factorizations.update({"svd of A": 0})
    state = run_nsp(cfg, ch)
    assert state.iterations > 1
    assert factorizations == {"svd of A": 1, "cholesky": 0, "solve": 0}


# ---------------------------------------------------------------- derived model


def _scaled_streams(dm, prec):
    """Each side's two received streams, c_i H_B v_i at Bob and c_i G_E v_i
    (whitened) at Eve, c_i the stream's amplitude over the noise."""
    c1, c2 = dm.scales
    return {side: (c1 * (h @ prec.v1), c2 * (h @ prec.v2)) for side, h in (("B", dm.H_B), ("E", dm.G_E))}


def _eve_streams(dm, prec):
    """Eve's two received streams before whitening, c_i H_E v_i."""
    c1, c2 = dm.scales
    return c1 * (dm.H_E @ prec.v1), c2 * (dm.H_E @ prec.v2)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(1, 16), m=st.integers(1, 40),
       ps_dbm=st.floats(0.0, 90.0), betas=st.sampled_from([(0.4, 0.4), (0.0, 0.8), (0.8, 0.0)]),
       include_irs=st.booleans())
@example(seed=0, k=4, n=16, m=40, ps_dbm=90.0, betas=(0.0, 0.8), include_irs=True)  # single_cbs: no stream 1
@example(seed=1, k=2, n=3, m=7, ps_dbm=30.0, betas=(0.4, 0.4), include_irs=False)  # no_irs: no surface
def test_phase_linearization_identity(seed, k, n, m, ps_dbm, betas, include_irs):
    # each side's stacked phase map t = U theta + c holds stream i in its
    # i-th block of K rows: c_i H_B v_i at Bob and c_i G_E v_i at Eve, to
    # 1e-10 of the two parts' size; a zero-power stream and zeroed surface
    # gains give exact zeros
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=k, N=n, M=m, ps_dbm=ps_dbm, beta1=betas[0], beta2=betas[1],
                       d_AB=float(rng.uniform(20, 300)), d_AE=float(rng.uniform(20, 300)),
                       theta_AB=float(rng.uniform(0, math.pi)), theta_AE=float(rng.uniform(0, math.pi)))
    ch = build_channels(cfg, build_geometry(cfg))
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec, include_irs=include_irs)
    maps = rates.phase_maps(dm)
    for (u, c), streams in zip((maps[:2], maps[2:]), _scaled_streams(dm, prec).values()):
        assert u.shape == (2 * k, m) and c.shape == (2 * k,)
        if not include_irs:
            assert not u.any()
        for rows, ref in zip((slice(0, k), slice(k, None)), streams):
            reflected = u[rows] @ prec.theta
            scale = np.linalg.norm(reflected) + np.linalg.norm(c[rows])
            assert np.linalg.norm(reflected + c[rows] - ref) <= 1e-10 * scale
        if betas[0] == 0.0:
            assert not u[:k].any() and not c[:k].any()


def test_noise_covariance_properties():
    # B = (W^H W)^-1 is I + A A^H for the AN's image A at Eve
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    b = np.linalg.inv(dm.W.conj().T @ dm.W)
    a = _an_image(cfg, ch)
    assert np.allclose(b, np.eye(cfg.K) + a @ a.conj().T, rtol=0.0, atol=1e-12 * np.linalg.norm(b, 2))
    evals = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    assert evals[0] >= 1.0 - 1e-9  # B - I is PSD
    assert np.linalg.norm(b - b.conj().T) < 1e-12 * np.linalg.norm(b, 2)
    # with the whole budget on the streams there is no AN left
    cfg_no_an = SystemConfig(beta1=0.5, beta2=0.5)
    dm2 = derived_model(cfg_no_an, ch, prec)
    assert np.array_equal(dm2.W, np.eye(cfg.K))


def test_effective_channel_scaling():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    sigma = math.sqrt(dbm_to_watts(cfg.sigma2_dbm))
    c1, c2 = (math.sqrt(beta * dbm_to_watts(cfg.ps_dbm)) / sigma for beta in (cfg.beta1, cfg.beta2))
    assert dm.scales == pytest.approx((c1, c2), rel=1e-12)
    assert np.allclose(dm.G_E, dm.W @ dm.H_E)


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
        assert secrecy_rate(dm) == pytest.approx(rs_o, abs=1e-9)


def test_rate_bob_scalar_oracle_single_antenna():
    # K = 1 collapses the determinant to 1 + SNR1 + SNR2
    cfg = SystemConfig(K=1, N=4, M=6)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(5)
    for _ in range(10):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        t1, t2 = _scaled_streams(dm, prec)["B"]
        snr = abs(t1) ** 2 + abs(t2) ** 2
        assert rate_bob(dm, prec) == pytest.approx(math.log2(1 + float(snr[0])), rel=1e-12)


def test_rate_bob_determinant_lemma_split():
    # det(I + t1 t1^H + t2 t2^H) expanded stream by stream
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    t1, t2 = _scaled_streams(dm, prec)["B"]
    c2 = np.eye(cfg.K) + np.outer(t2, t2.conj())
    split = np.log2(np.linalg.det(c2).real) \
        + np.log2(1 + (t1.conj() @ np.linalg.solve(c2, t1)).real)
    assert rate_bob(dm, prec) == pytest.approx(split, abs=1e-10)


def _log2det_exact(base, streams):
    """log2 det(base + sum t t^H), formed and evaluated in 50-digit
    arithmetic from the float64 entries of base and the streams."""
    with mpmath.workdps(50):
        a = mpmath.matrix(base.tolist())
        for t in streams:
            col = mpmath.matrix(t.tolist())
            a += col * col.H
        return float(mpmath.log(mpmath.re(mpmath.det(a)), 2))


def _eve_rate_exact(a, streams):
    """Eve's rate log2 det(B + sum t t^H) - log2 det B for her unwhitened
    streams t, with B = I + A A^H formed from the AN's image A in 50-digit
    arithmetic, so that it holds none of the rounding of a float64 B."""
    with mpmath.workdps(50):
        a_mp = mpmath.matrix(a.tolist())
        b = mpmath.eye(a.shape[0]) + a_mp * a_mp.H
        s = b.copy()
        for t in streams:
            col = mpmath.matrix(t.tolist())
            s += col * col.H
        return float(mpmath.log(mpmath.re(mpmath.det(s)) / mpmath.re(mpmath.det(b)), 2))


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), ps_dbm=st.floats(0.0, 90.0),
       tilt=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1.0]),
       betas=st.sampled_from([(0.4, 0.4), (0.5, 0.5), (0.8, 0.0), (0.0, 0.8)]))
@example(seed=0, k=4, ps_dbm=90.0, tilt=1e-8, betas=(0.5, 0.5))
@example(seed=1, k=2, ps_dbm=90.0, tilt=1e-8, betas=(0.4, 0.4))
def test_rates_match_exact_log_det_oracle(seed, k, ps_dbm, tilt, betas):
    # rate_bob / rate_eve read the streams' 2 x 2 determinant; the oracle is
    # log det(I + S) and log det(B + S) - log det B on K x K matrices.  At
    # 90 dBm with the streams within tilt of collinear, a11 a22 - |a12|^2
    # (and a float64 slogdet of I + S) lose about eps |t|^2 relative: up to
    # 1e-5 bits.  Eve's B = I + A A^H is formed from the AN's image A in
    # 50 digits; with no AN (betas (0.5, 0.5)) B = I.
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=k, N=int(rng.integers(1, 17)), M=int(rng.integers(1, 41)), ps_dbm=ps_dbm,
                       beta1=betas[0], beta2=betas[1], d_AB=float(rng.uniform(20, 300)),
                       d_AE=float(rng.uniform(20, 300)), theta_AB=float(rng.uniform(0, math.pi)),
                       theta_AE=float(rng.uniform(0, math.pi)))
    ch = build_channels(cfg, build_geometry(cfg))

    def unit(v):
        return v / np.linalg.norm(v)

    def draw():
        return rng.standard_normal(cfg.N) + 1j * rng.standard_normal(cfg.N)

    v1 = unit(draw())
    prec = Precoders(v1=v1, v2=unit(v1 + tilt * draw()), theta=np.exp(2j * math.pi * rng.random(cfg.M)))
    dm = derived_model(cfg, ch, prec)
    bob = _log2det_exact(np.eye(k), _scaled_streams(dm, prec)["B"])
    eve = _eve_rate_exact(_an_image(cfg, ch), _eve_streams(dm, prec))
    assert rate_bob(dm, prec) == pytest.approx(bob, abs=1e-9)
    assert rate_eve(dm, prec) == pytest.approx(eve, abs=1e-10)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), n=st.integers(1, 16), ps_dbm=st.floats(60.0, 90.0),
       betas=st.sampled_from([(0.4, 0.4), (0.1, 0.1), (0.02, 0.08), (0.5, 0.5), (0.8, 0.0)]))
@example(seed=0, k=2, n=5, ps_dbm=60.0, betas=(0.02, 0.08))  # 1.7e-10 bits off from a factor of the stored B
@example(seed=0, k=4, n=2, ps_dbm=90.0, betas=(0.1, 0.1))  # K > N: B has K - N unit eigenvalues
@example(seed=0, k=3, n=8, ps_dbm=90.0, betas=(0.5, 0.5))  # no AN: B = W = I
def test_rate_eve_matches_a_log_det_built_from_the_an_image(seed, k, n, ps_dbm, betas):
    # B = I + A A^H for the AN's image A at Eve; the oracle forms B from A
    # in 50-digit arithmetic, so it holds none of the float64 rounding of a
    # stored B, which at 60-90 dBm reaches ||B|| ~ 1e9 and moved a rate
    # taken from a factor of the formed B by up to 5.5e-7 bits
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=k, N=n, M=int(rng.integers(1, 41)), ps_dbm=ps_dbm, beta1=betas[0], beta2=betas[1],
                       d_AB=float(rng.uniform(20, 300)), d_AE=float(rng.uniform(20, 300)),
                       theta_AB=float(rng.uniform(0, math.pi)), theta_AE=float(rng.uniform(0, math.pi)))
    ch = build_channels(cfg, build_geometry(cfg))
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    eve = _eve_rate_exact(_an_image(cfg, ch), _eve_streams(dm, prec))
    assert rate_eve(dm, prec) == pytest.approx(eve, abs=1e-10)


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
        t1, t2 = _eve_streams(dm, prec)
        s_e = np.outer(t1, t1.conj()) + np.outer(t2, t2.conj())
        no_an = np.log2(np.linalg.det(np.eye(cfg.K) + s_e).real)
        assert rate_eve(dm, prec) <= no_an + 1e-9


def test_rates_reject_precoders_at_other_phases():
    # the model's channels are those of its own theta; precoders at another
    # theta used to be scored at the model's phases without a word
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    same = replace(prec, theta=prec.theta.copy())  # equal phases in another array
    assert rate_bob(dm, same) == rate_bob(dm, prec)
    assert rate_eve(dm, same) == rate_eve(dm, prec)
    other = replace(prec, theta=-prec.theta)
    for rate in (rate_bob, rate_eve):
        with pytest.raises(ValueError, match="theta"):
            rate(dm, other)


def test_rate_eve_zero_when_streams_off():
    cfg = SystemConfig(beta1=0.0, beta2=0.0)
    ch = build_channels(cfg, build_geometry(cfg))
    rng = np.random.default_rng(2)
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    assert rate_bob(dm, prec) == pytest.approx(0.0, abs=1e-12)
    assert rate_eve(dm, prec) == pytest.approx(0.0, abs=1e-12)
    assert secrecy_rate(dm) == 0.0


def test_secrecy_rate_non_negative():
    cfg, ch, rng = _setup()
    for _ in range(50):
        prec = _random_precoders(cfg, rng)
        dm = derived_model(cfg, ch, prec)
        assert secrecy_rate(dm) >= 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_the_whitener_rejects_a_non_finite_an_image(value):
    # numpy's SVD raises LinAlgError on a NaN and passes an inf on as NaN
    # singular values; the check also runs before the no-AN shortcut, so an
    # image that is zero but for one such entry is rejected too
    a = np.array([[2.0, 0.5j, 0.0], [-0.5j, 3.0, 1.0]])
    for i, j in ((0, 0), (0, 2), (1, 1)):
        bad = a.copy()
        bad[i, j] = value
        with pytest.raises(ValueError, match="non-finite"):
            rates.eve_whitener(bad)
    zero = np.zeros((2, 3), dtype=complex)
    zero[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        rates.eve_whitener(zero)


@pytest.mark.parametrize("field", ["H_B", "G_E"])
# the planted NaN reaches the 2 x 2 determinant's division before the check
@pytest.mark.filterwarnings("ignore:invalid value encountered in scalar divide:RuntimeWarning")
def test_a_nan_in_the_model_raises_instead_of_giving_a_nan_rate(field):
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec)
    getattr(dm, field)[-1, 0] = np.nan  # the fresh model's own theta terms
    with pytest.raises(ValueError, match="non-finite"):
        secrecy_rate(dm)


def test_precoders_validation():
    cfg = SystemConfig()
    good = np.ones(cfg.N) / math.sqrt(cfg.N)
    theta = np.ones(cfg.M, dtype=complex)
    with pytest.raises(ValueError, match="v1"):
        Precoders(v1=2 * good, v2=good, theta=theta)
    with pytest.raises(ValueError, match="theta"):
        Precoders(v1=good, v2=good, theta=0.5 * theta)


def test_precoders_reject_empty_and_mismatched_vectors():
    v = np.ones(4) / 2.0
    with pytest.raises(ValueError, match=r"theta must be a vector with at least one entry"):
        Precoders(v1=v, v2=v, theta=np.ones(0))
    with pytest.raises(ValueError, match=r"v1 must be a vector"):
        Precoders(v1=np.eye(2) / math.sqrt(2), v2=v, theta=np.ones(2))
    with pytest.raises(ValueError, match=r"v2 must have the 4 entries of v1, got 5"):
        Precoders(v1=v, v2=np.ones(5) / math.sqrt(5), theta=np.ones(2))


@pytest.mark.parametrize("key", ["v1", "v2", "theta"])
def test_rate_model_rejects_precoders_of_another_size(key):
    # a beamformer of N + 1 entries used to build a model and fail later in a matmul
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    n = cfg.M if key == "theta" else cfg.N
    fields = dict(v1=prec.v1, v2=prec.v2, theta=prec.theta)
    fields[key] = np.ones(n + 1) / (1.0 if key == "theta" else math.sqrt(n + 1))
    if key != "theta":  # v1 and v2 share one length
        fields["v1"] = fields["v2"] = fields[key]
    dim = "M" if key == "theta" else "N"
    with pytest.raises(ValueError, match=rf"has {n + 1} entries; expected {dim} = {n}"):
        derived_model(cfg, ch, Precoders(**fields))


def test_run_gai_rejects_fixed_phases_of_another_size():
    # used to fail with numpy's broadcast error
    cfg, ch, _ = _setup()
    with pytest.raises(ValueError, match=rf"fixed_theta has shape \({cfg.M - 1},\); expected \({cfg.M},\)"):
        run_gai(cfg, ch, fixed_theta=np.ones(cfg.M - 1))


@pytest.mark.parametrize("key", ["v1", "v2", "theta"])
def test_precoders_reject_nan(key):
    # a NaN entry fails the checks at construction, not later in the rate model
    cfg = SystemConfig()
    fields = dict(v1=np.ones(cfg.N) / math.sqrt(cfg.N), v2=np.ones(cfg.N) / math.sqrt(cfg.N),
                  theta=np.ones(cfg.M, dtype=complex))
    fields[key] = fields[key].copy()
    fields[key][1] = np.nan
    with pytest.raises(ValueError, match=key):
        Precoders(**fields)


def test_no_irs_variant_drops_reflected_terms():
    cfg, ch, rng = _setup()
    prec = _random_precoders(cfg, rng)
    dm = derived_model(cfg, ch, prec, include_irs=False)
    assert np.allclose(dm.H_B, np.sqrt(ch.g_AB) * ch.H_AB.conj().T)
    u_b, _, u_e, _ = rates.phase_maps(dm)
    assert np.allclose(u_b, 0)
    assert np.allclose(u_e, 0)
    # direct-only rate no longer depends on theta
    other = Precoders(v1=prec.v1, v2=prec.v2, theta=-prec.theta)
    dm2 = derived_model(cfg, ch, other, include_irs=False)
    assert rate_bob(dm2, other) == pytest.approx(rate_bob(dm, prec), abs=1e-12)


# ---------------------------------------------------------------- phase objective


def _random_channels(seed, n, m, k, betas, precoders=None):
    """Random full-rank unit-scale channels with their config, precoders and
    the generator that drew them.

    precoders(ch, rng) picks (v1, v2); by default two random unit vectors.
    """
    rng = np.random.default_rng(seed)

    def cmat(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=0.0, sigma2_dbm=0.0, beta1=betas[0], beta2=betas[1])
    # surface gains 1/M keep each reflected stream at unit scale for any M
    ch = ChannelSet(
        H_AI=cmat(m, n), H_AB=cmat(n, k), H_AE=cmat(n, k), H_IB=cmat(m, k), H_IE=cmat(m, k),
        g_AB=1.0, g_AE=1.0, g_AIB=1.0 / m, g_AIE=1.0 / m,
    )
    v1, v2 = (cmat(n), cmat(n)) if precoders is None else precoders(ch, rng)
    prec = Precoders(
        v1=v1 / np.linalg.norm(v1),
        v2=v2 / np.linalg.norm(v2),
        theta=np.exp(2j * math.pi * rng.random(m)),
    )
    return cfg, ch, prec, rng


def _random_channel_model(seed, n, m, k, betas, precoders=None):
    """`_random_channels` pushed through derived_model."""
    cfg, ch, prec, _ = _random_channels(seed, n, m, k, betas, precoders)
    return derived_model(cfg, ch, prec), prec


_BETAS = st.sampled_from([(0.4, 0.4), (0.0, 0.8), (0.8, 0.0)])


def _model_terms(dm):
    """Every term of a model, Q's products and the phase maps included, as bytes."""
    names = ("P_AN", "W", "scales", "H_B", "H_E", "G_E", "Q")
    terms = [np.asarray(getattr(dm, name)) for name in names] + list(dm.Q_products) + list(rates.phase_maps(dm))
    return [(t.shape, t.tobytes()) for t in terms]


def _unit(rng, shape):
    """Random complex vectors of unit norm along the last axis."""
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _formed(dm):
    """The theta terms a model has formed so far, by cached name."""
    return {name: vars(dm)[name] for name in ("_channels", "Q_products") if name in vars(dm)}


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 24),
       k=st.integers(1, 4), betas=_BETAS, include_irs=st.booleans(), d=st.one_of(st.none(), st.integers(1, 4)),
       moves=st.lists(st.sampled_from(["v1", "v2", "theta", "read", "rows", "where"]), min_size=1, max_size=8))
# a model without the surface stays without it after a phase move
@example(seed=0, n=4, m=6, k=2, betas=(0.4, 0.4), include_irs=False, d=None, moves=["theta"])
@example(seed=1, n=3, m=5, k=2, betas=(0.4, 0.4), include_irs=True, d=4,
         moves=["read", "v1", "where", "rows", "theta", "rows", "where", "v2"])
def test_reused_model_equals_a_fresh_one(seed, n, m, k, betas, include_irs, d, moves):
    # every model of a run of beamformer moves, phase moves, row slices and
    # row picks, with every term read ("read") between some of them, is
    # at each of its rows (one, or d of a stack) the fresh one-row model at
    # the row's precoders, to the bit.  A beamformer move, a slice and a
    # pick carry the theta terms already formed (a slice slices them), a
    # phase move starts with none, and every move keeps the channel terms
    cfg, ch, prec, rng = _random_channels(seed, n, m, k, betas)
    if d is not None:
        prec = Precoders(v1=_unit(rng, (d, n)), v2=_unit(rng, (d, n)),
                         theta=np.exp(2j * math.pi * rng.random((d, m))))
    dm = derived_model(cfg, ch, prec, include_irs=include_irs)
    for move in moves:
        rows = np.shape(dm.prec.theta)[:-1]
        formed = _formed(dm)
        if move == "read":
            dm.Q_products
            continue
        if move == "theta":
            new = dm.with_theta(np.exp(2j * math.pi * rng.random(rows + (m,))))
            assert _formed(new) == {}
        elif move in ("v1", "v2"):
            new = dm.with_beamformer(move, _unit(rng, rows + (n,)))
            assert _formed(new).keys() == formed.keys()
            assert all(_formed(new)[name] is x for name, x in formed.items())
        elif move == "rows":
            if d is None:
                continue
            keep = rng.random(rows) < 0.5
            keep[rng.integers(rows[0])] = True
            new = dm.rows(keep)
            assert _formed(new).keys() == formed.keys()
            for name, x in formed.items():
                assert all(np.array_equal(a, b[keep]) for a, b in zip(_formed(new)[name], x))
        else:  # "where": some rows take the other model's v1, at the same phases
            keep = rng.random(rows) < 0.5 if rows else np.bool_(rng.random() < 0.5)
            other = dm.with_beamformer("v1", _unit(rng, rows + (n,)))
            new = other.where(keep, dm)
            assert all(_formed(new)[name] is x for name, x in formed.items())
            picked = np.where(np.asarray(keep)[..., None], other.prec.v1, dm.prec.v1)
            assert np.array_equal(new.prec.v1, picked) and np.array_equal(new.prec.v2, dm.prec.v2)
        assert new.terms is dm.terms
        # read on a copy, so that the model goes on with only what it formed
        probe = copy.copy(new)
        probe.Q_products
        gaps = rate_gap(probe)
        for i in ([None] if d is None else range(np.shape(new.prec.theta)[0])):
            one = probe if i is None else probe.rows(i)  # an integer row: a one-row model
            fresh = derived_model(cfg, ch, one.prec, include_irs=include_irs)
            assert _model_terms(one) == _model_terms(fresh)
            assert rate_gap(one) == rate_gap(fresh) == (gaps if i is None else gaps[i])
            if not include_irs:
                u_b, _, u_e, _ = rates.phase_maps(one)
                assert not u_b.any() and not u_e.any()
        dm = new


def _basis_case(seed, n, m, k, kind):
    """A config, channel set and precoders: line-of-sight from a random drop,
    random full-rank, random with both surface gains zeroed, or random with
    direct paths at 1e-6 of the surface path."""
    cfg, ch, prec, rng = _random_channels(seed, n, m, k, (0.4, 0.4))
    if kind == "los":
        cfg = SystemConfig(N=n, M=m, K=k, ps_dbm=0.0, d_AB=float(rng.uniform(20, 300)),
                           d_AE=float(rng.uniform(20, 300)), theta_AB=float(rng.uniform(0, math.pi)))
        ch = build_channels(cfg, build_geometry(cfg))
    elif kind == "no surface":
        ch = replace(ch, g_AIB=0.0, g_AIE=0.0)
    elif kind == "weak direct":
        ch = replace(ch, H_AB=1e-6 * ch.H_AB, H_AE=1e-6 * ch.H_AE)
    return cfg, ch, prec, rng


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 24), k=st.integers(1, 4),
       kind=st.sampled_from(["los", "random", "no surface", "weak direct"]))
def test_channel_basis_spans_the_composite_rows_plus_one_direction_outside(seed, n, m, k, kind):
    # the model's channel basis Q is orthonormal and spans the rows of both
    # composite channels at any phases; it has one more column, orthogonal
    # to all three of Alice's channels, exactly when their rank is below N
    cfg, ch, prec, rng = _basis_case(seed, n, m, k, kind)
    dm = derived_model(cfg, ch, prec)
    q = dm.Q
    parts = [ch.H_AB, ch.H_AE, ch.H_AI.conj().T]
    rank = np.linalg.matrix_rank(np.hstack([x / np.linalg.norm(x) for x in parts]))
    assert q.shape == (n, min(rank + 1, n))
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), rtol=0.0, atol=1e-12)
    if rank < n:
        for x in parts:
            assert np.linalg.norm(x.conj().T @ q[:, -1]) <= 1e-12 * np.linalg.norm(x)
    span = q[:, :rank]
    for _ in range(3):
        moved = dm.with_theta(np.exp(2j * math.pi * rng.random(m)))
        for h in (moved.H_B, moved.H_E):
            assert np.linalg.norm(h - h @ span @ span.conj().T) <= 1e-12 * np.linalg.norm(h)


def test_theta_terms_reject_a_phase_vector_off_the_unit_circle_or_of_the_wrong_size():
    # a phase move checks the new phases against the model's, and a fresh
    # model checks their size against cfg.M
    cfg, ch, rng = _setup()
    e1 = np.eye(cfg.N, dtype=complex)[0]
    model = derived_model(cfg, ch, Precoders(v1=e1, v2=e1, theta=np.ones(cfg.M, dtype=complex)))
    theta = np.exp(2j * math.pi * rng.random(cfg.M))
    theta[5] *= 1.01
    with pytest.raises(ValueError, match="unit modulus"):
        model.with_theta(theta)
    with pytest.raises(ValueError, match="unit modulus"):
        derived_model(cfg, ch, Precoders(v1=e1, v2=e1, theta=theta))
    with pytest.raises(ValueError, match=rf"theta has shape \({cfg.M + 1},\); expected \({cfg.M},\)"):
        model.with_theta(np.ones(cfg.M + 1, dtype=complex))
    with pytest.raises(ValueError, match=rf"theta has shape \(2, {cfg.M}\); expected \({cfg.M},\)"):
        model.with_theta(np.ones((2, cfg.M), dtype=complex))
    with pytest.raises(ValueError, match=rf"theta has {cfg.M + 1} entries; expected M = {cfg.M}"):
        derived_model(cfg, ch, Precoders(v1=e1, v2=e1, theta=np.ones(cfg.M + 1, dtype=complex)))


@pytest.fixture
def checks(monkeypatch):
    """Counts of the unit-modulus checks of phases and the unit-norm checks
    of beamformers (`rates._check_unit_modulus`, `rates._check_beamformer`)."""
    counts = {"_check_unit_modulus": 0, "_check_beamformer": 0}

    def counter(name):
        fn = getattr(rates, name)

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(rates, name, counter(name))
    return counts


def _taken(checks):
    """The counts so far, (theta checks, beamformer checks), reset after."""
    seen = (checks["_check_unit_modulus"], checks["_check_beamformer"])
    checks.update(_check_unit_modulus=0, _check_beamformer=0)
    return seen


def test_each_value_is_checked_once_where_it_is_made(checks, monkeypatch):
    # precoders check their phases and both beamformers once; a fresh
    # model checks only their sizes, a phase move only the new phases, a
    # beamformer move only the new beamformer, and a row slice or pick
    # nothing, on one row and on a stack alike
    cfg, ch, rng = _setup()
    for rows in ((), (3,)):
        prec = Precoders(v1=_unit(rng, rows + (cfg.N,)), v2=_unit(rng, rows + (cfg.N,)),
                         theta=np.exp(2j * math.pi * rng.random(rows + (cfg.M,))))
        assert _taken(checks) == (1, 2)
        dm = derived_model(cfg, ch, prec)
        assert _taken(checks) == (0, 0)
        dm = dm.with_theta(np.exp(2j * math.pi * rng.random(rows + (cfg.M,))))
        assert _taken(checks) == (1, 0)
        other = dm.with_beamformer("v1", _unit(rng, rows + (cfg.N,)))
        assert _taken(checks) == (0, 1)
        keep = np.array([True, False, True]) if rows else np.bool_(False)
        other.where(keep, dm)
        if rows:
            dm.rows(keep)
        assert _taken(checks) == (0, 0)
    # a whole run: one check of theta per fresh model and per phase move,
    # one beamformer check per beamformer move, beside its first precoders'
    moves = {"with_theta": 0, "with_beamformer": 0}
    for name in moves:
        def counted(dm, *args, _move=getattr(rates.DerivedModel, name), _name=name):
            moves[_name] += 1
            return _move(dm, *args)

        monkeypatch.setattr(rates.DerivedModel, name, counted)
    for run in (run_gai, run_nsp):
        moves.update(with_theta=0, with_beamformer=0)
        assert run(cfg, ch).iterations > 1
        assert moves["with_theta"] > 1
        assert _taken(checks) == (1 + moves["with_theta"], 2 + moves["with_beamformer"])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 24),
       k=st.integers(1, 4), betas=_BETAS)
def test_phase_problem_matches_rate_gap_and_finite_differences(seed, n, m, k, betas):
    dm, prec = _random_channel_model(seed, n, m, k, betas)
    pp = PhaseProblem(dm)
    theta = prec.theta
    assert math.log2(pp.ratio(theta)) == pytest.approx(rate_bob(dm, prec) - rate_eve(dm, prec), abs=1e-9)
    # the span scorer at rotated points e^{j phi} W s, from the 2 x 2 forms of
    # U W alone: W holds theta, so s = (1, 0) is theta itself, and two random
    # s reach every weight of the forms
    rng = np.random.default_rng([seed, 2])
    basis = np.column_stack([theta, rng.standard_normal(m) + 1j * rng.standard_normal(m)])
    s = np.column_stack([[1.0, 0.0], rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
    phi = np.array([0.0, 1.0, 2.5, -2.0])
    batch = pp.span_ratio(basis)(s, phi)
    points = [[pp.ratio(np.exp(1j * p) * (basis @ s[:, i])) for p in phi] for i in range(3)]
    assert batch == pytest.approx(np.array(points), rel=1e-9)
    grad = pp.gradient(theta)
    h = 1e-6
    for i in range(m):
        for step, ana in ((h, 2.0 * grad[i].real), (1j * h, 2.0 * grad[i].imag)):
            e = np.zeros(m, dtype=complex)
            e[i] = step
            fd = (pp.ratio(theta + e) - pp.ratio(theta - e)) / (2.0 * h)
            assert fd == pytest.approx(ana, rel=1e-5, abs=1e-8)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 200), k=st.integers(1, 4),
       ps_dbm=st.sampled_from([30.0, 60.0, 90.0]), d_ab=st.floats(20.0, 300.0),
       beta1=st.floats(0.05, 0.95), share2=st.floats(0.0, 1.0))
@example(seed=0, m=200, k=4, ps_dbm=90.0, d_ab=50.0, beta1=0.4, share2=2.0 / 3.0)
def test_span_ratio_matches_the_ratio_of_the_rotated_patterns(seed, m, k, ps_dbm, d_ab, beta1, share2):
    # GAI's pattern scorer (`PhaseProblem.span_ratio`, 2 x 2 forms of the
    # span coordinates) at random (psi, chi, phi) is the exact ratio at
    # e^{j phi} times the pattern of (psi, chi), on line-of-sight drops.
    # Each side's f0 = al1 al2 + h - |ga|^2 cancels at high SNR, as it did
    # when the entries were K-sums of the streams, and a form's value from
    # the moments is off by about eps |A_i|^2 |s|^2: so beyond 30 dBm the
    # allowance is 32 eps times the sum over sides of (1 + |c1|^2 + |A1|^2
    # |s|^2)(1 + |c2|^2 + |A2|^2 |s|^2) / factor, A_i = U_i W.  Over 3000
    # random drops the K-sum form used up to 5.3 / 32 of it and this one 4.8.
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(M=m, K=k, N=int(rng.integers(2, 17)), ps_dbm=ps_dbm, beta1=beta1,
                       beta2=share2 * (1.0 - beta1), d_AB=d_ab, d_AI=float(rng.uniform(5, 100)),
                       d_AE=float(rng.uniform(20, 300)), theta_AI=float(rng.uniform(0, math.pi)),
                       theta_AB=float(rng.uniform(0, math.pi)), theta_AE=float(rng.uniform(0, math.pi)))
    ch = build_channels(cfg, build_geometry(cfg))
    prec = _random_precoders(cfg, rng)
    pp = PhaseProblem(derived_model(cfg, ch, prec))
    basis = gai.SpanMemo().basis_of(pp.u_b.conj().T, pp.u_e.conj().T)
    assume(basis.shape[1] == 2)  # one dimension when Bob and Eve lie on one line from the surface
    n = 32
    psi, chi, phi = rng.random(n) * math.pi / 2, rng.random(n) * 2 * math.pi, rng.random(n) * 2 * math.pi
    patterns = gai._span_candidates(basis, psi, chi)
    s = basis.conj().T @ patterns
    scored = pp.span_ratio(basis)(s[:, :, None], phi[:, None])[:, 0, 0]
    rotated = [np.exp(1j * p) * patterns[:, i] for i, p in enumerate(phi)]
    err = np.abs(scored / [pp.ratio(t) for t in rotated] - 1.0)
    if ps_dbm == 30.0:
        assert err.max() <= 1e-9
    size = np.sum(np.abs(s) ** 2, axis=0)
    factors = np.array([pp.factors(t) for t in rotated]).T
    scale = 0.0
    for (u, c), factor in zip(((pp.u_b, pp.c_b), (pp.u_e, pp.c_e)), factors):
        uw = u @ basis
        al1, al2 = (1.0 + np.vdot(c[h], c[h]).real + np.linalg.norm(uw[h]) ** 2 * size
                    for h in (slice(0, k), slice(k, None)))
        scale = scale + al1 * al2 / factor
    assert np.all(err <= 32 * np.finfo(float).eps * scale), (err / (np.finfo(float).eps * scale)).max()


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 24), k=st.integers(1, 4),
       extra=st.integers(0, 2), betas=_BETAS)
def test_nsp_phase_blocks_reproduce_phase_problem_ratio(seed, m, k, extra, betas):
    # enough antennas for both protected subspaces of nsp to exist
    n = max(m + k, 2 * k) + 1 + extra

    def nsp_precoders(ch, rng):
        p1, p2 = nsp.ns_projectors(ch)
        return (p @ (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for p in (p1, p2))

    dm, prec = _random_channel_model(seed, n, m, k, betas, nsp_precoders)
    f_b, f_e = nsp.phase_blocks(dm)
    theta = prec.theta
    h_b2 = rates.phase_maps(dm)[1][k:]  # stream 2's direct part at Bob
    det2 = 1.0 + np.vdot(h_b2, h_b2).real
    # theta^H (I/M + F F^H) theta = 1 + |F^H theta|^2 at unit modulus
    quotient = (det2 * (1.0 + np.linalg.norm(f_b.conj().T @ theta) ** 2)
                / (1.0 + np.linalg.norm(f_e.conj().T @ theta) ** 2))
    assert quotient == pytest.approx(PhaseProblem(dm).ratio(theta), rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 24),
       k=st.integers(1, 4), betas=_BETAS, stream=st.integers(0, 1), null_space=st.booleans())
def test_beam_quotient_tracks_rate_gap(seed, n, m, k, betas, stream, null_space):
    # with the other stream and theta fixed, log2 of the quotient is the rate
    # gap up to a constant: in the full space and in the model's channel basis Q
    # (rates.beam_quotient) and, at nsp's null-space points, in an
    # orthonormal basis of range(P) (nsp.stream_blocks)
    if null_space:
        n += max(m + k, 2 * k)  # room for both protected subspaces
        projectors = []

        def nsp_precoders(ch, rng):
            projectors.extend(nsp.ns_projectors(ch))
            return (p @ (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for p in projectors)

        dm, prec = _random_channel_model(seed, n, m, k, betas, nsp_precoders)
        q = nsp.range_basis(projectors[stream])
        cases = [(q, nsp.stream_blocks(dm, stream, q))]
    else:
        # the full pencil, and the one compressed to the model's channel basis;
        # by default, from the model's cached products with Q, the same to the bit
        dm, prec = _random_channel_model(seed, n, m, k, betas)
        cases = [(basis, rates.beam_quotient(dm, stream, basis)) for basis in (np.eye(n), dm.Q)]
        cached = rates.beam_quotient(dm, stream)
        assert all(np.array_equal(a, b) for a, b in zip(cached, cases[1][1]))
    rng = np.random.default_rng([seed, 1])  # a stream apart from the channels' draws
    for basis, (num, den) in cases:
        quotients, gaps = [], []
        for _ in range(2):
            w = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
            v = basis @ w
            quotients.append(np.vdot(w, num @ w).real / np.vdot(w, den @ w).real)
            gaps.append(rate_gap(dm.with_beamformer(("v1", "v2")[stream], v / np.linalg.norm(v))))
        assert math.log2(quotients[0] / quotients[1]) == pytest.approx(gaps[0] - gaps[1], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), d=st.integers(1, 8), k=st.integers(1, 8), r=st.integers(1, 16),
       log_scale=st.floats(-3.0, 5.0), silent=st.integers(0, 8))
def test_stacked_kernels_equal_their_slices(seed, d, k, r, log_scale, silent):
    # the kernels of the fixed-phase stack (`gai.fixed_phase_runs`) read a
    # stack of D slices on a leading axis, and each slice's output equals
    # the kernel's own call on it to the bit; row `silent` (if any) carries
    # a zero other-stream t, the n = 0 case
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return 10.0 ** log_scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    h, t, t2 = draw(d, k, r), draw(d, k), draw(d, k)
    if silent < d:
        t[silent] = 0.0
    gram = np.eye(r) + draw(r, r) @ draw(r, r).conj().T * 1e-2
    a = draw(d, r, r)
    b = a @ a.conj().mT + np.eye(r)
    a = a + a.conj().mT
    checks = [
        (rates._downdated_gram(gram, h, t), [rates._downdated_gram(gram, h[i], t[i]) for i in range(d)]),
        (rates._herm(a), [rates._herm(a[i]) for i in range(d)]),
        (rates._det2(t, t2), [rates._det2(t[i], t2[i]) for i in range(d)]),
        (rates.unit_rows(t2), [rates.unit_rows(t2[i]) for i in range(d)]),
        (gai.rayleigh_ritz_max(a, b), [gai.rayleigh_ritz_max(a[i], b[i]) for i in range(d)]),
    ]
    for stacked, slices in checks:
        assert np.array_equal(stacked, np.array(slices))
    # one vector's norm is np.linalg.norm's, and a zero t leaves gram + h^H h
    assert np.array_equal(rates.unit_rows(t2[0]), t2[0] / np.linalg.norm(t2[0]))
    zero = np.zeros(k, dtype=complex)
    assert np.array_equal(rates._downdated_gram(gram, h[0], zero), gram + h[0].conj().T @ h[0])
    assert rates._det2(zero, t2[0]) == 1.0 + np.vdot(t2[0], t2[0]).real


def test_run_gai_rejects_a_phase_stack_of_another_shape():
    cfg, ch, _ = _setup()
    for shape in ((3, cfg.M - 1), (2, 3, cfg.M), (0, cfg.M), ()):
        with pytest.raises(ValueError, match=r"fixed_theta has shape .*; expected \(\d+,\) or \(D, \d+\)"):
            run_gai(cfg, ch, fixed_theta=np.ones(shape, dtype=complex))


# The span search's kernels against their earlier forms, kept here as
# oracles: each stacked its pieces with np.stack.  The rewrites must give
# the same C-contiguous array, to the bit.


def _bitwise_same(got, want):
    return (got.flags.c_contiguous and got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _span_moments_stacked(s):
    x = s[0].conj() * s[1]
    mag2 = s.real ** 2 + s.imag ** 2
    return np.stack([mag2[0], mag2[1], x.real, x.imag])


def _series_columns_stacked(al1, al2, h, ga, be1, be2, de, ep):
    f0 = al1 * al2 + h - (ga.real ** 2 + ga.imag ** 2)
    f1 = al1 * be2 + al2 * be1 - de * ga.conj() - ga * ep
    f2 = be1 * be2 - de * ep
    return np.stack([f0, f1.real, f1.imag, f2.real, f2.imag], axis=-1)


def _rotation_table_stacked(phi):
    return np.stack([np.ones_like(phi), 2.0 * np.cos(phi), -2.0 * np.sin(phi),
                     2.0 * np.cos(2.0 * phi), -2.0 * np.sin(2.0 * phi)], axis=-2)


@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 3), max_size=2),
       n=st.integers(1, 1152), log_scale=st.floats(-6, 6))
@example(seed=0, lead=[], n=1, log_scale=0.0)
@example(seed=1, lead=[3, 2], n=1152, log_scale=5.0)
def test_the_span_kernels_match_their_stacked_forms(seed, lead, n, log_scale):
    rng = np.random.default_rng(seed)

    def draw(*shape, real=False):
        x = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x = 10.0 ** log_scale * x
        x.flat[rng.random(x.size) < 0.05] = 0.0  # some silent entries
        return x

    shape = (*lead, n)
    s = draw(2, *shape)
    assert _bitwise_same(rates.span_moments(s), _span_moments_stacked(s))
    columns = [draw(*shape, real=True) for _ in range(3)] + [draw(*shape) for _ in range(5)]
    assert _bitwise_same(rates._series_columns(*columns), _series_columns_stacked(*columns))
    phi = 2.0 * math.pi * rng.random(shape)
    assert _bitwise_same(rates.rotation_table(phi), _rotation_table_stacked(phi))
