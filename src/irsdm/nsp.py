"""Null-space-projection optimizer for the two-stream wiretap link.

Stream 1 is forced into the null space of the direct Bob and Eve channels,
so it reaches Bob only via the surface; stream 2 is forced into the null
space of the surface and Eve channels, so it rides the direct path and stays
invisible to Eve.  With the cross terms removed, the three blocks become a
quadratic fractional program in w1 (solved by Dinkelbach's method with a
linearized inner step), a plain quadratic maximization in w2 (power-like
ascent), and a unit-modulus fractional program in theta (bisection over the
parametric level combined with a majorize-minimize phase rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    Precoders,
    _herm,
    an_projector,
    derived_model,
    eve_covariance,
    null_projector,
    refresh_model,
    secrecy_rate,
    unclipped_gap,
    whiten,
)


MAX_DINKELBACH = 100
DINKELBACH_TOL = 1e-8    # |num - nu * den| at the root
MAX_TAYLOR = 200         # linearized ascent steps per Dinkelbach level
MAX_POWER_ITERS = 200    # w2 ascent steps
POWER_TOL = 1e-8         # stop when the w2 objective gain drops below this
MAX_MM_ITERS = 500       # phase roundings per mu evaluation
MM_TOL = 1e-9            # stop when the surrogate decrease drops below this
PHI_TOL = 1e-6           # |phi*(mu)| accepted as the root
WIDTH_TOL = 1e-9         # mu bisection interval width floor
MAX_BISECT = 200
QCQP_RIDGE = 1e-10
QCQP_TOL = 1e-8
QCQP_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class NspOptions:
    max_outer: int = 50


@dataclass
class NspState:
    w1: np.ndarray
    w2: np.ndarray
    prec: Precoders
    rs_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations_used: int = 0
    converged: bool = False


@dataclass(frozen=True, eq=False)
class NspBlocks:
    """Per-phase working matrices: projectors and the three effective streams."""

    P1: np.ndarray   # (N, N) projector annihilating Bob's and Eve's direct channels
    P2: np.ndarray   # (N, N) projector annihilating the surface and Eve channels
    A1: np.ndarray   # (K, N) stream 1 to Bob, via the surface only
    A2: np.ndarray   # (K, N) stream 2 to Bob, direct only
    A3: np.ndarray   # (K, N) stream 1 to Eve, via the surface only
    B: np.ndarray    # (K, K) Eve's AN-plus-noise covariance


def ns_projectors(ch: ChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """Projectors defining the two protected signal spaces.

    Raises if either stacked channel has full row rank N, since then no
    direction survives the projection.
    """
    h1 = np.vstack([ch.H_AB.conj().T, ch.H_AE.conj().T])
    h2 = np.vstack([ch.H_AI, ch.H_AE.conj().T])
    p1 = null_projector(h1)
    p2 = null_projector(h2)
    for name, p in (("P1", p1), ("P2", p2)):
        if np.trace(p).real < 0.5:
            raise ValueError(f"{name} null space is empty; need fewer constraints than antennas")
    return p1, p2


def stream_blocks(
    cfg: SystemConfig,
    ch: ChannelSet,
    p1: np.ndarray,
    p2: np.ndarray,
    theta: np.ndarray,
) -> NspBlocks:
    """Effective per-stream channels at the current phases."""
    a1, a3 = _surface_streams(cfg, ch, p1, theta)
    a2 = (np.sqrt(cfg.beta2 * cfg.ps_watts * ch.g_AB) / cfg.sigma_watts_sqrt) * (ch.H_AB.conj().T @ p2)
    b = eve_covariance(cfg, ch, an_projector(ch.H_AI, ch.H_AB))
    return NspBlocks(P1=p1, P2=p2, A1=a1, A2=a2, A3=a3, B=b)


def _surface_streams(cfg: SystemConfig, ch: ChannelSet, p1: np.ndarray,
                     theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stream 1 to Bob and to Eve (A1, A3), the only blocks that depend on theta."""
    sigma = cfg.sigma_watts_sqrt
    ps = cfg.ps_watts
    refl = (ch.H_IB.conj().T * theta[None, :]) @ ch.H_AI
    refl_e = (ch.H_IE.conj().T * theta[None, :]) @ ch.H_AI
    a1 = (np.sqrt(cfg.beta1 * ps * ch.g_AIB) / sigma) * (refl @ p1)
    a3 = (np.sqrt(cfg.beta1 * ps * ch.g_AIE) / sigma) * (refl_e @ p1)
    return a1, a3


def _quad(a: np.ndarray, w: np.ndarray) -> float:
    return float(np.real(w.conj() @ (a @ w)))


def dual_qcqp_solve(a_hat: np.ndarray, bvec: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Maximize 2 Re(b^H w) - w^H A w subject to w^H Q w <= 1.

    A must be Hermitian PSD and Q a Hermitian projector.  The KKT system
    gives w(lam) = (A + lam Q + ridge I)^-1 b with the multiplier found by
    bisection on the constraint value, which decreases monotonically in lam.
    """
    n = bvec.shape[0]
    eye = np.eye(n, dtype=complex)

    def w_of(lam: float) -> np.ndarray:
        return np.linalg.solve(a_hat + lam * q + QCQP_RIDGE * eye, bvec)

    w = w_of(0.0)
    if _quad(q, w) <= 1.0 + QCQP_TOL:
        return w
    lo, hi = 0.0, 1.0
    while _quad(q, w_of(hi)) > 1.0:
        hi *= 2.0
        if hi > QCQP_LAMBDA_MAX:
            raise RuntimeError("constraint multiplier exceeded the bracketing cap")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = w_of(mid)
        c = _quad(q, w)
        if abs(c - 1.0) < QCQP_TOL:
            return w
        if c > 1.0:
            lo = mid
        else:
            hi = mid
    return w_of(hi)


def fractional_blocks_w1(blocks: NspBlocks, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator matrices of the w1 rate-gap quotient."""
    n = blocks.P1.shape[0]
    k = blocks.B.shape[0]
    pp = blocks.P1.conj().T @ blocks.P1
    t2 = blocks.A2 @ w2
    cov = np.eye(k, dtype=complex) + np.outer(t2, t2.conj())
    a_til = pp + blocks.A1.conj().T @ np.linalg.solve(cov, blocks.A1)
    a3 = whiten(blocks.B, blocks.A3)
    return _herm(a_til), _herm(pp + a3.conj().T @ a3)


def quadratic_block_w2(blocks: NspBlocks, w1: np.ndarray) -> np.ndarray:
    """Quadratic form maximized by the w2 step (Eve never sees stream 2)."""
    k = blocks.B.shape[0]
    pp = blocks.P2.conj().T @ blocks.P2
    t1 = blocks.A1 @ w1
    cov = np.eye(k, dtype=complex) + np.outer(t1, t1.conj())
    return _herm(pp + blocks.A2.conj().T @ np.linalg.solve(cov, blocks.A2))


def _feasible_basis_vector(p: np.ndarray) -> np.ndarray:
    """First canonical basis vector with a usable projection, rescaled to the shell."""
    n = p.shape[0]
    for i in range(n):
        nrm = np.linalg.norm(p[:, i])
        if nrm > 1e-8:
            w = np.zeros(n, dtype=complex)
            w[i] = 1.0 / nrm
            return w
    raise ValueError("projector is numerically zero")


def update_w1(
    blocks: NspBlocks,
    w1: np.ndarray,
    w2: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Dinkelbach ascent on the w1 quotient; returns (w1, achieved level nu).

    The inner subproblem replaces the numerator quadratic by its tangent
    minorant at the incumbent, which turns each step into the dual-bisection
    QCQP; both loops can only raise the quotient.
    """
    a_til, b_til = fractional_blocks_w1(blocks, w2)
    pp = _herm(blocks.P1.conj().T @ blocks.P1)
    w = w1 / math.sqrt(max(_quad(pp, w1), np.finfo(float).tiny))
    num, den = _quad(a_til, w), _quad(b_til, w)
    if num < 1e-300:
        return _feasible_basis_vector(blocks.P1), 0.0
    nu = num / den
    for _ in range(MAX_DINKELBACH):
        cur = w
        level = _quad(a_til, cur) - nu * _quad(b_til, cur)
        for _ in range(MAX_TAYLOR):
            cand = dual_qcqp_solve(nu * b_til, a_til @ cur, pp)
            cand_level = _quad(a_til, cand) - nu * _quad(b_til, cand)
            if not cand_level > level:
                break
            gain = cand_level - level
            cur, level = cand, cand_level
            if gain < DINKELBACH_TOL:
                break
        w = cur
        num, den = _quad(a_til, w), _quad(b_til, w)
        resid = num - nu * den
        if abs(resid) < DINKELBACH_TOL:
            break
        nu = num / den
    w = w / math.sqrt(_quad(pp, w))
    return w, nu


def update_w2(
    blocks: NspBlocks,
    w1: np.ndarray,
    w2: np.ndarray,
) -> np.ndarray:
    """Ascent on the stream-2 quadratic over the projected unit shell."""
    a_til = quadratic_block_w2(blocks, w1)
    pp = _herm(blocks.P2.conj().T @ blocks.P2)
    w = w2 / math.sqrt(max(_quad(pp, w2), np.finfo(float).tiny))
    obj = _quad(a_til, w)
    for _ in range(MAX_POWER_ITERS):
        cand = dual_qcqp_solve(np.zeros_like(a_til), a_til @ w, pp)
        cand_obj = _quad(a_til, cand)
        if cand_obj > obj:
            w, gain = cand, cand_obj - obj
            obj = cand_obj
        else:
            break
        if gain < POWER_TOL:
            break
    return w / math.sqrt(_quad(pp, w))


def phase_blocks(dm: DerivedModel) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms of the phase quotient: Bob's numerator and Eve's denominator.

    Read from the stream-1 maps of the rate model at the current
    beamformers, with stream 2 folded into Bob's noise and Eve's rows
    whitened as in `rates.PhaseProblem`.  Both absorb the unit-modulus budget
    theta^H theta = M through an I/M term, so theta^H T~ theta reproduces
    1 + SNR exactly on the shell.
    """
    k, m = dm.T_B1.shape
    cov2 = np.eye(k, dtype=complex) + np.outer(dm.h_B2, dm.h_B2.conj())
    tt_b = np.eye(m) / m + dm.T_B1.conj().T @ np.linalg.solve(cov2, dm.T_B1)
    t_e1 = whiten(dm.B, dm.T_E1)
    bt_e = np.eye(m) / m + t_e1.conj().T @ t_e1
    return _herm(tt_b), _herm(bt_e)


def theta_star_of_mu(
    tt_b: np.ndarray,
    bt_e: np.ndarray,
    mu: float,
    theta_prev: np.ndarray,
) -> np.ndarray:
    """Unit-modulus minimizer of theta^H (BtE - mu TtB) theta via phase rounding.

    Each pass minimizes the spectral-shift majorant, which amounts to taking
    the phases of (lam_max I - Psi) theta; entries with a vanishing drive
    keep their previous phase.  The quadratic value never increases.
    """
    psi = _herm(bt_e - mu * tt_b)
    evals = scipy.linalg.eigvalsh(psi)
    if evals[-1] - evals[0] < 1e-12:
        return theta_prev.copy()
    lam = evals[-1]
    theta = theta_prev.copy()
    obj = _quad(psi, theta)
    for _ in range(MAX_MM_ITERS):
        drive = lam * theta - psi @ theta
        mag = np.abs(drive)
        cand = np.where(mag > 0, drive / np.where(mag > 0, mag, 1.0), theta)
        cand_obj = _quad(psi, cand)
        if obj - cand_obj < MM_TOL:
            if cand_obj < obj:
                theta, obj = cand, cand_obj
            break
        theta, obj = cand, cand_obj
    return theta


def phi_star(
    tt_b: np.ndarray,
    bt_e: np.ndarray,
    mu: float,
    theta_prev: np.ndarray,
) -> float:
    """Value of the parametric subproblem min theta^H (BtE - mu TtB) theta."""
    theta = theta_star_of_mu(tt_b, bt_e, mu, theta_prev)
    psi = _herm(bt_e - mu * tt_b)
    return _quad(psi, theta)


def update_theta_nsp(
    tt_b: np.ndarray,
    bt_e: np.ndarray,
    theta_prev: np.ndarray,
) -> np.ndarray:
    """Minimize the Eve/Bob phase quotient by bisection on its level mu.

    phi*(mu) is positive at mu = 0 and non-positive at the incumbent quotient
    value, so a root lies between; the best quotient among all evaluated
    candidates is returned, which also guarantees the block never degrades.
    """

    def quotient(theta: np.ndarray) -> float:
        return _quad(bt_e, theta) / _quad(tt_b, theta)

    mu_hi = quotient(theta_prev)
    best_theta, best_q = theta_prev, mu_hi

    def evaluate(mu: float) -> float:
        nonlocal best_theta, best_q
        theta = theta_star_of_mu(tt_b, bt_e, mu, theta_prev)
        q = quotient(theta)
        if q < best_q:
            best_theta, best_q = theta, q
        return _quad(_herm(bt_e - mu * tt_b), theta)

    phi_zero = evaluate(0.0)
    if phi_zero <= 0:
        raise FloatingPointError("phase quotient numerator lost positivity")
    lo, hi = 0.0, mu_hi
    if evaluate(mu_hi) > 0:
        return best_theta.copy()
    for _ in range(MAX_BISECT):
        if hi - lo < WIDTH_TOL:
            break
        mid = 0.5 * (lo + hi)
        val = evaluate(mid)
        if abs(val) < PHI_TOL:
            break
        if val > 0:
            lo = mid
        else:
            hi = mid
    return best_theta.copy()


def run_nsp(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: NspOptions | None = None,
) -> NspState:
    """Alternate the w1, w2 and theta blocks until the rate-gap gain stalls.

    As in run_gai, the stop test uses the unclipped gap R_B - R_E and
    rs_trace holds the clipped secrecy rate.
    """
    opts = opts or NspOptions()
    p1, p2 = ns_projectors(channels)
    w1 = _feasible_basis_vector(p1)
    w2 = _feasible_basis_vector(p2)
    blocks = stream_blocks(cfg, channels, p1, p2, np.ones(cfg.M, dtype=complex))

    def as_precoders(w1_, w2_, theta_):
        v1 = p1 @ w1_
        v2 = p2 @ w2_
        return Precoders(
            v1=v1 / np.linalg.norm(v1),
            v2=v2 / np.linalg.norm(v2),
            theta=theta_,
        )

    prec = as_precoders(w1, w2, np.ones(cfg.M, dtype=complex))
    dm = derived_model(cfg, channels, prec)
    if cfg.beta1 > 0:
        # pre-align the phases to the initial beamformers: starting the w1
        # block at unaligned phases can reward silencing the surface (the
        # cascade hurts Bob less than it leaks to Eve), after which the
        # phase block sees a dead quotient and the alternation stalls
        prec = replace(prec, theta=update_theta_nsp(*phase_blocks(dm), prec.theta))
        dm = refresh_model(cfg, channels, prec, dm)
    trace = [secrecy_rate(dm, prec)]
    gap = unclipped_gap(trace[-1], dm, prec)
    converged = False
    iterations = 0
    for p in range(1, opts.max_outer + 1):
        a1, a3 = _surface_streams(cfg, channels, p1, prec.theta)
        blocks = replace(blocks, A1=a1, A3=a3)
        if cfg.beta1 > 0:
            w1, _ = update_w1(blocks, w1, w2)
        if cfg.beta2 > 0:
            w2 = update_w2(blocks, w1, w2)
        prec = as_precoders(w1, w2, prec.theta)
        dm = refresh_model(cfg, channels, prec, dm)
        if cfg.beta1 > 0:
            # the phase blocks depend on the beamformers only
            prec = replace(prec, theta=update_theta_nsp(*phase_blocks(dm), prec.theta))
            dm = refresh_model(cfg, channels, prec, dm)
        trace.append(secrecy_rate(dm, prec))
        gap, gap_prev = unclipped_gap(trace[-1], dm, prec), gap
        iterations = p
        if gap - gap_prev <= cfg.epsilon:
            converged = True
            break
    return NspState(
        w1=w1, w2=w2, prec=prec,
        rs_trace=np.array(trace),
        iterations_used=iterations,
        converged=converged,
    )
