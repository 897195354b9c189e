"""System model: node placement, steering vectors, path loss, LOS channels.

Alice (N-antenna ULA) serves Bob (K antennas) while Eve (K antennas)
eavesdrops; an M-element reflecting surface assists the link.  All arrays
are laid out along the global x axis, Alice sits at the origin, and every
node is placed in the upper half plane by a (distance, angle) pair.  Angles
from Alice are measured against the x axis in [0, pi).  Links that leave
the surface may point into the lower half plane; their angles lie in
[0, pi] and keep the cosine of the true direction, which is all an
x-axis array responds to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

C_LIGHT = 299_792_458.0  # m/s

# Angles of the default drop, kept as exact multiples of pi.
DEFAULT_THETA_AI = math.pi / 6
DEFAULT_THETA_AB = 11 * math.pi / 36
DEFAULT_THETA_AE = math.pi / 3


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** (p_dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters. Distances in metres, angles in radians."""

    N: int = 16                        # transmit antennas at Alice
    M: int = 20                        # reflecting elements
    K: int = 4                         # receive antennas at Bob and at Eve
    ps_dbm: float = 30.0               # total transmit power
    sigma2_dbm: float = -40.0          # per-antenna noise power
    beta1: float = 0.4                 # power share of stream 1
    beta2: float = 0.4                 # power share of stream 2; AN gets the rest
    carrier_hz: float = 1.0e8          # carrier frequency
    d_AI: float = 10.0                 # Alice - surface
    d_AB: float = 100.0                # Alice - Bob
    d_AE: float = 50.0                 # Alice - Eve
    theta_AI: float = DEFAULT_THETA_AI
    theta_AB: float = DEFAULT_THETA_AB
    theta_AE: float = DEFAULT_THETA_AE
    epsilon: float = 1e-4              # per-iteration rate gain below which loops stop
    seed: int = 0                      # RNG seed for randomized benchmarks

    def __post_init__(self) -> None:
        for f in fields(self):
            val = getattr(self, f.name)
            # bool is an int subclass, but N=True is a mistake, not a size
            if f.type == "int" and (isinstance(val, bool) or not isinstance(val, int)):
                raise ValueError(f"{f.name} must be an integer, got {val!r}")
            if f.type == "float" and not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val!r}")
        for key in ("N", "M", "K"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be a positive integer, got {getattr(self, key)!r}")
        for key in ("d_AI", "d_AB", "d_AE", "carrier_hz", "epsilon"):
            val = getattr(self, key)
            if not val > 0:
                raise ValueError(f"{key} must be positive, got {val!r}")
        for key in ("theta_AI", "theta_AB", "theta_AE"):
            val = getattr(self, key)
            if not 0 <= val < math.pi:
                raise ValueError(f"{key} must lie in [0, pi), got {val!r}")
        if not 0 <= self.beta1:
            raise ValueError(f"beta1 must be non-negative, got {self.beta1!r}")
        if not 0 <= self.beta2:
            raise ValueError(f"beta2 must be non-negative, got {self.beta2!r}")
        if not self.beta1 + self.beta2 < 1 + 1e-12:
            raise ValueError(
                f"beta1 + beta2 must not exceed 1, got {self.beta1 + self.beta2!r}"
            )

    @property
    def beta3(self) -> float:
        """Power share left for artificial noise."""
        return max(0.0, 1.0 - self.beta1 - self.beta2)

    @property
    def ps_watts(self) -> float:
        return dbm_to_watts(self.ps_dbm)

    @property
    def sigma_watts_sqrt(self) -> float:
        """Noise standard deviation (sqrt of the noise power in watts)."""
        return math.sqrt(dbm_to_watts(self.sigma2_dbm))

    @property
    def wavelength_m(self) -> float:
        return C_LIGHT / self.carrier_hz


@dataclass(frozen=True, eq=False)
class Geometry:
    """Node positions plus per-link (distance, angle) pairs.

    theta_ib and theta_ie are the angles of the surface->Bob and
    surface->Eve directions against the x axis, folded into [0, pi] with
    their cosines kept.
    """

    alice: np.ndarray  # (2,) position, metres
    irs: np.ndarray
    bob: np.ndarray
    eve: np.ndarray
    d_ai: float
    theta_ai: float
    d_ab: float
    theta_ab: float
    d_ae: float
    theta_ae: float
    d_ib: float
    theta_ib: float
    d_ie: float
    theta_ie: float
    d_v: float  # distance from Eve's line to the surface line in the parallel drop


def _place(d: float, theta: float) -> np.ndarray:
    return np.array([d * math.cos(theta), d * math.sin(theta)])


def _segment(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Length of the segment p->q and the angle of its direction in [0, pi].

    A ULA along the x axis responds only to the cosine of the direction, so
    the angle is reduced by reflection about the x axis (abs of atan2), which
    keeps the cosine.  Reducing modulo pi instead would add pi, and so flip
    the cosine, whenever q lies below p.
    """
    delta = q - p
    d = float(np.hypot(delta[0], delta[1]))
    ang = abs(math.atan2(delta[1], delta[0]))
    return d, ang


def build_geometry(cfg: SystemConfig) -> Geometry:
    """Place the four nodes and derive the reflector-side link parameters."""
    alice = np.zeros(2)
    irs = _place(cfg.d_AI, cfg.theta_AI)
    bob = _place(cfg.d_AB, cfg.theta_AB)
    eve = _place(cfg.d_AE, cfg.theta_AE)
    d_ib, theta_ib = _segment(irs, bob)
    d_ie, theta_ie = _segment(irs, eve)
    if d_ib < 1e-9:
        raise ValueError("degenerate geometry: surface and Bob coincide")
    if d_ie < 1e-9:
        raise ValueError("degenerate geometry: surface and Eve coincide")
    d_v = cfg.d_AE * math.sin(cfg.theta_AE - cfg.theta_AI)
    return Geometry(
        alice=alice, irs=irs, bob=bob, eve=eve,
        d_ai=cfg.d_AI, theta_ai=cfg.theta_AI,
        d_ab=cfg.d_AB, theta_ab=cfg.theta_AB,
        d_ae=cfg.d_AE, theta_ae=cfg.theta_AE,
        d_ib=d_ib, theta_ib=theta_ib,
        d_ie=d_ie, theta_ie=theta_ie,
        d_v=d_v,
    )


def parallel_irs_angle(cfg: SystemConfig) -> float:
    """Angle of the line through Alice parallel to the Bob-Eve line.

    Sliding the surface along this line keeps it at a constant offset from
    both receivers, which is the drop used by the placement sweep.
    """
    theta_bae = cfg.theta_AE - cfg.theta_AB
    d_be = math.sqrt(
        cfg.d_AB ** 2 + cfg.d_AE ** 2
        - 2.0 * cfg.d_AB * cfg.d_AE * math.cos(theta_bae)
    )
    return cfg.theta_AB - math.asin(cfg.d_AE / d_be * math.sin(theta_bae))


def irs_line_landmarks(cfg: SystemConfig, theta_ai: float) -> tuple[float, float]:
    """Distances along the surface line of the points nearest Eve and Bob.

    Returns (d_near_eve, d_near_bob): the surface sits right above Eve /
    Bob when its distance from Alice along the line hits these values.
    """
    dv_e = cfg.d_AE * math.sin(cfg.theta_AE - theta_ai)
    dv_b = cfg.d_AB * math.sin(cfg.theta_AB - theta_ai)
    d_near_eve = math.sqrt(cfg.d_AE ** 2 - dv_e ** 2)
    d_near_bob = math.sqrt(cfg.d_AB ** 2 - dv_b ** 2)
    return d_near_eve, d_near_bob


def steering_vector(n: int, theta: float, spacing_over_lambda: float = 0.5) -> np.ndarray:
    """ULA steering vector with element i carrying phase -2*pi*i*d*cos(theta)/lambda."""
    if n < 1:
        raise ValueError(f"array size must be at least 1, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * math.pi * idx * spacing_over_lambda * math.cos(theta))


def path_loss(d_m: float, f_hz: float) -> float:
    """Free-space power gain (c / (4 pi d f))^2 over a d-metre link."""
    if d_m <= 0:
        raise ValueError(f"distance must be positive, got {d_m!r}")
    if f_hz <= 0:
        raise ValueError(f"frequency must be positive, got {f_hz!r}")
    return (C_LIGHT / (4.0 * math.pi * d_m * f_hz)) ** 2


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """LOS channel matrices plus the per-path power gains.

    Shapes follow the transmit-side convention: H_AI is (M, N) and acts on
    Alice's signal directly, while H_AB/H_AE are (N, K) and enter the model
    through their conjugate transposes; H_IB/H_IE are (M, K) likewise.
    """

    H_AI: np.ndarray
    H_AB: np.ndarray
    H_AE: np.ndarray
    H_IB: np.ndarray
    H_IE: np.ndarray
    g_AB: float
    g_AE: float
    g_AIB: float  # cascaded gain Alice -> surface -> Bob
    g_AIE: float


def build_channels(cfg: SystemConfig, geo: Geometry) -> ChannelSet:
    """Rank-one LOS channels: outer products of the two end-point steering vectors."""
    a_n_ai = steering_vector(cfg.N, geo.theta_ai)
    a_m_ai = steering_vector(cfg.M, geo.theta_ai)
    a_n_ab = steering_vector(cfg.N, geo.theta_ab)
    a_k_ab = steering_vector(cfg.K, geo.theta_ab)
    a_n_ae = steering_vector(cfg.N, geo.theta_ae)
    a_k_ae = steering_vector(cfg.K, geo.theta_ae)
    a_m_ib = steering_vector(cfg.M, geo.theta_ib)
    a_k_ib = steering_vector(cfg.K, geo.theta_ib)
    a_m_ie = steering_vector(cfg.M, geo.theta_ie)
    a_k_ie = steering_vector(cfg.K, geo.theta_ie)
    f = cfg.carrier_hz
    # Cascaded reflector gain is the product of the two segment losses.
    g_ai = path_loss(geo.d_ai, f)
    return ChannelSet(
        H_AI=np.outer(a_m_ai, a_n_ai.conj()),
        H_AB=np.outer(a_n_ab, a_k_ab.conj()),
        H_AE=np.outer(a_n_ae, a_k_ae.conj()),
        H_IB=np.outer(a_m_ib, a_k_ib.conj()),
        H_IE=np.outer(a_m_ie, a_k_ie.conj()),
        g_AB=path_loss(geo.d_ab, f),
        g_AE=path_loss(geo.d_ae, f),
        g_AIB=g_ai * path_loss(geo.d_ib, f),
        g_AIE=g_ai * path_loss(geo.d_ie, f),
    )
