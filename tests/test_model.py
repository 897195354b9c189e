"""Geometry, steering and path-loss checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from irsdm.model import (
    DEFAULT_THETA_AB,
    DEFAULT_THETA_AE,
    ChannelSet,
    SystemConfig,
    build_channels,
    build_geometry,
    dbm_to_watts,
    parallel_irs_angle,
    path_loss,
    steering_vector,
    C_LIGHT,
)


def test_dbm_to_watts_anchors():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-40.0) == pytest.approx(1e-7, rel=1e-12)


def test_steering_vector_basics():
    # broadside: cos(pi/2) = 0 gives the all-ones vector
    v = steering_vector(8, math.pi / 2)
    assert np.allclose(v, np.ones(8))
    # endfire with half-wavelength spacing alternates sign
    v = steering_vector(4, 0.0)
    assert np.allclose(v, [1, -1, 1, -1])
    assert np.allclose(np.abs(steering_vector(16, 1.234)), 1.0)


def test_steering_vector_norm_and_phase_progression():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(0, math.pi, 25):
        n = int(rng.integers(1, 33))
        v = steering_vector(n, theta)
        assert np.linalg.norm(v) ** 2 == pytest.approx(n, rel=1e-12)
        if n > 1:
            steps = np.angle(v[1:] * v[:-1].conj())
            expected = -2 * math.pi * 0.5 * math.cos(theta)
            wrapped = (expected + math.pi) % (2 * math.pi) - math.pi
            assert np.allclose(steps, wrapped, atol=1e-9)


def test_steering_vector_rejects_empty_array():
    with pytest.raises(ValueError):
        steering_vector(0, 1.0)


def test_path_loss_independent_formula():
    # oracle: (lambda / (4 pi d))^2 with lambda = c / f
    for d, f in [(100.0, 3e9), (10.0, 5e8), (291.0, 2.4e9), (1.0, 1e8)]:
        lam = C_LIGHT / f
        assert path_loss(d, f) == pytest.approx((lam / (4 * math.pi * d)) ** 2, rel=1e-12)


def test_path_loss_quarter_on_double_distance():
    assert path_loss(200.0, 3e9) == pytest.approx(path_loss(100.0, 3e9) / 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        path_loss(0.0, 3e9)
    with pytest.raises(ValueError):
        path_loss(10.0, -1.0)


def test_config_validation_names_offending_key():
    with pytest.raises(ValueError, match="beta1"):
        SystemConfig(beta1=-0.1)
    with pytest.raises(ValueError, match="beta1 \\+ beta2"):
        SystemConfig(beta1=0.6, beta2=0.6)
    with pytest.raises(ValueError, match="theta_AB"):
        SystemConfig(theta_AB=3.5)
    with pytest.raises(ValueError, match="d_AE"):
        SystemConfig(d_AE=0.0)
    with pytest.raises(ValueError, match="N"):
        SystemConfig(N=0)
    with pytest.raises(ValueError, match="M"):
        SystemConfig(M=-3)


@pytest.mark.parametrize("bad", [
    {"ps_dbm": math.nan},
    {"ps_dbm": math.inf},
    {"sigma2_dbm": math.inf},
    {"d_AB": math.inf},
    {"carrier_hz": math.inf},
    {"epsilon": math.inf},
    {"N": True},
    {"seed": False},
    {"seed": -1},
])
def test_config_rejects_non_finite_and_bool_values(bad):
    (key,) = bad
    with pytest.raises(ValueError, match=key):
        SystemConfig(**bad)


def test_geometry_reconstructed_distances():
    cfg = SystemConfig()
    geo = build_geometry(cfg)
    assert np.linalg.norm(geo.irs - geo.alice) == pytest.approx(cfg.d_AI, rel=1e-12)
    assert np.linalg.norm(geo.bob - geo.alice) == pytest.approx(cfg.d_AB, rel=1e-12)
    assert np.linalg.norm(geo.eve - geo.alice) == pytest.approx(cfg.d_AE, rel=1e-12)
    assert np.linalg.norm(geo.bob - geo.irs) == pytest.approx(geo.d_ib, rel=1e-12)
    assert np.linalg.norm(geo.eve - geo.irs) == pytest.approx(geo.d_ie, rel=1e-12)


def test_geometry_bob_eve_distance_law_of_cosines():
    # oracle: the Bob-Eve separation from the triangle at Alice
    cfg = SystemConfig()
    geo = build_geometry(cfg)
    gamma = cfg.theta_AE - cfg.theta_AB
    d_be = math.sqrt(cfg.d_AB ** 2 + cfg.d_AE ** 2 - 2 * cfg.d_AB * cfg.d_AE * math.cos(gamma))
    assert np.linalg.norm(geo.bob - geo.eve) == pytest.approx(d_be, rel=1e-12)


def test_geometry_angles_in_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cfg = SystemConfig(
            d_AI=float(rng.uniform(1, 150)),
            d_AB=float(rng.uniform(1, 300)),
            d_AE=float(rng.uniform(1, 200)),
            theta_AI=float(rng.uniform(0, math.pi - 1e-6)),
            theta_AB=float(rng.uniform(0, math.pi - 1e-6)),
            theta_AE=float(rng.uniform(0, math.pi - 1e-6)),
        )
        geo = build_geometry(cfg)
        for ang in (geo.theta_ib, geo.theta_ie):
            assert 0 <= ang <= math.pi


def test_surface_side_steering_follows_true_direction():
    # oracle: along a half-wavelength ULA on the x axis, the phase step
    # between neighbouring elements is -pi * u_x, where u is the unit vector
    # from the surface to the node in Cartesian coordinates.  At 130 m down
    # the parallel line both receivers lie below the surface, which is where
    # an angle fold that flips the cosine would show.
    base = SystemConfig()
    cfg = replace(base, M=8, d_AI=130.0, theta_AI=parallel_irs_angle(base))
    geo = build_geometry(cfg)
    ch = build_channels(cfg, geo)
    for node, h in ((geo.bob, ch.H_IB), (geo.eve, ch.H_IE)):
        assert node[1] < geo.irs[1]
        u = (node - geo.irs) / np.linalg.norm(node - geo.irs)
        steps = np.angle(h[1:, 0] * h[:-1, 0].conj())
        err = np.angle(np.exp(1j * (steps + math.pi * u[0])))  # wrapped
        assert np.abs(err).max() < 1e-9


def test_geometry_rejects_coincident_nodes():
    cfg = SystemConfig(d_AI=50.0, theta_AI=math.pi / 3)  # surface placed on Eve
    with pytest.raises(ValueError, match="Eve"):
        build_geometry(cfg)


def test_parallel_line_drop_matches_reported_values():
    # the default receiver drop gives a surface line at 50 degrees and
    # closest-approach distances 49.2 m (Eve) and 99.6 m (Bob)
    cfg = SystemConfig()
    theta_line = parallel_irs_angle(cfg)
    assert theta_line == pytest.approx(5 * math.pi / 18, abs=2e-3)
    # the points of the line nearest the receivers: their projections onto it
    _, bob, eve = _receivers(cfg.d_AB, cfg.d_AE, cfg.theta_AB, cfg.theta_AE)
    u = np.array([math.cos(theta_line), math.sin(theta_line)])
    d_eve, d_bob = float(eve @ u), float(bob @ u)
    assert d_eve == pytest.approx(49.2, abs=0.1)
    assert d_bob == pytest.approx(99.6, abs=0.1)


def test_parallel_line_rejects_coincident_receivers():
    # Bob and Eve at one point leave no line to be parallel to; this used to
    # divide by their zero distance
    cfg = SystemConfig(d_AE=100.0, theta_AE=SystemConfig().theta_AB)
    with pytest.raises(ValueError, match="Bob and Eve coincide"):
        parallel_irs_angle(cfg)


def test_parallel_line_survives_near_coincident_receivers():
    # Eve 10 um from Bob: a law-of-cosines distance loses its digits here,
    # and an asin of the law of sines then leaves its domain
    base = SystemConfig()
    cfg = replace(base, d_AE=base.d_AB, theta_AE=base.theta_AB + 1e-7)
    try:
        theta_line = parallel_irs_angle(cfg)
    except ValueError as err:
        assert "Bob and Eve coincide" in str(err)
        return
    assert 0.0 <= theta_line < math.pi
    replace(cfg, theta_AI=theta_line)  # a valid surface angle
    # both receivers sit 100 m from Alice, so their segment is tangent there
    assert abs(math.cos(theta_line - base.theta_AB)) < 1e-6


_ANGLE = st.floats(0.01, math.pi - 0.01)
_DIST = st.floats(5.0, 300.0)
_DROP = dict(d_ab=_DIST, d_ae=_DIST, theta_ab=_ANGLE, theta_ae=_ANGLE)


def _receivers(d_ab, d_ae, theta_ab, theta_ae):
    cfg = SystemConfig(d_AB=d_ab, d_AE=d_ae, theta_AB=theta_ab, theta_AE=theta_ae)
    bob = d_ab * np.array([math.cos(theta_ab), math.sin(theta_ab)])
    eve = d_ae * np.array([math.cos(theta_ae), math.sin(theta_ae)])
    return cfg, bob, eve


@given(**_DROP)
@example(d_ab=100.0, d_ae=50.0, theta_ab=DEFAULT_THETA_AB, theta_ae=DEFAULT_THETA_AE)  # default drop
@example(d_ab=81.7, d_ae=252.8, theta_ab=2.672, theta_ae=1.861)  # acute-angle pick leaves [0, pi)
@example(d_ab=100.0, d_ae=155.73641900454572, theta_ab=1.2, theta_ae=2.5)  # folds to pi in rounding
def test_parallel_line_is_parallel_to_bob_eve_segment(d_ab, d_ae, theta_ab, theta_ae):
    cfg, bob, eve = _receivers(d_ab, d_ae, theta_ab, theta_ae)
    seg = bob - eve
    if np.linalg.norm(seg) < 1e-9:
        with pytest.raises(ValueError, match="Bob and Eve coincide"):
            parallel_irs_angle(cfg)
        return
    theta_line = parallel_irs_angle(cfg)
    assert 0.0 <= theta_line < math.pi
    replace(cfg, theta_AI=theta_line)  # a valid surface angle
    # the line's unit direction has no component across the segment
    cross = math.cos(theta_line) * seg[1] - math.sin(theta_line) * seg[0]
    assert abs(cross) <= 1e-12 * np.linalg.norm(seg)


def _default_channels() -> tuple[SystemConfig, ChannelSet]:
    cfg = SystemConfig()
    return cfg, build_channels(cfg, build_geometry(cfg))


def test_channels_shapes_and_rank_one():
    cfg, ch = _default_channels()
    assert ch.H_AI.shape == (cfg.M, cfg.N)
    assert ch.H_AB.shape == (cfg.N, cfg.K)
    assert ch.H_AE.shape == (cfg.N, cfg.K)
    assert ch.H_IB.shape == (cfg.M, cfg.K)
    assert ch.H_IE.shape == (cfg.M, cfg.K)
    for h in (ch.H_AI, ch.H_AB, ch.H_AE, ch.H_IB, ch.H_IE):
        svals = np.linalg.svd(h, compute_uv=False)
        assert svals[1] < 1e-12 * svals[0]
        assert np.allclose(np.abs(h), 1.0)  # unit-modulus LOS entries


def test_channels_frobenius_norms():
    cfg, ch = _default_channels()
    assert np.linalg.norm(ch.H_AI, "fro") ** 2 == pytest.approx(cfg.M * cfg.N, rel=1e-12)
    assert np.linalg.norm(ch.H_AB, "fro") ** 2 == pytest.approx(cfg.N * cfg.K, rel=1e-12)
    assert np.linalg.norm(ch.H_IE, "fro") ** 2 == pytest.approx(cfg.M * cfg.K, rel=1e-12)


def test_channels_deterministic():
    cfg = SystemConfig()
    a = build_channels(cfg, build_geometry(cfg))
    b = build_channels(cfg, build_geometry(cfg))
    assert np.array_equal(a.H_AI, b.H_AI)
    assert np.array_equal(a.H_IE, b.H_IE)
    assert a.g_AIB == b.g_AIB


def test_cascaded_gain_is_product_of_segments():
    cfg, ch = _default_channels()
    geo = build_geometry(cfg)
    f = cfg.carrier_hz
    assert ch.g_AIB == pytest.approx(path_loss(cfg.d_AI, f) * path_loss(geo.d_ib, f), rel=1e-12)
    assert ch.g_AIE == pytest.approx(path_loss(cfg.d_AI, f) * path_loss(geo.d_ie, f), rel=1e-12)
    for g in (ch.g_AB, ch.g_AE, ch.g_AIB, ch.g_AIE):
        assert 0 < g <= 1


def test_path_gains_shrink_with_distance():
    cfg = SystemConfig()
    far = SystemConfig(d_AB=300.0)
    ch_near = build_channels(cfg, build_geometry(cfg))
    ch_far = build_channels(far, build_geometry(far))
    assert ch_far.g_AB < ch_near.g_AB
