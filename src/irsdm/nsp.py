"""Null-space-projection optimizer for the two-stream wiretap link.

NSP is GAI's alternation (`gai.alternate`) with one extra constraint on each
beamformer.  Stream 1 is confined to range(P1), the null space of the direct
Bob and Eve channels, so it reaches Bob only via the surface; stream 2 to
range(P2), the null space of the surface and Eve channels, so it rides the
direct path and stays invisible to Eve.  Each beamformer block is GAI's
quotient (`rates.beam_quotient`) restricted to range(P): a quadratic
fractional program in v1 (solved by Dinkelbach's method with a linearized
inner step) and, with Eve blind to stream 2, a plain quadratic maximization
in v2 (power-like ascent).  The phases solve a unit-modulus fractional
program (bisection over the parametric level combined with a
majorize-minimize phase rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .gai import RunState, _project_phases, alternate
from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    Precoders,
    _herm,
    beam_quotient,
    derived_model,
    null_projector,
    refresh_model,
    whiten,
)
# not called here; perfbench/tracing.py wraps both names in this module
from .rates import an_projector, secrecy_rate


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


def stream_blocks(dm: DerivedModel, prec: Precoders, p: np.ndarray,
                  stream: int) -> tuple[np.ndarray, np.ndarray]:
    """GAI's beamformer quotient of one stream (0 or 1) restricted to range(p).

    Returns (p num p, p den p) for (num, den) of `rates.beam_quotient`, so
    that at w with unit ||p w|| the quotient is that of v = p w.
    """
    num, den = beam_quotient(dm, prec, stream)
    return _herm(p @ num @ p), _herm(p @ den @ p)


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


def _feasible_beamformer(p: np.ndarray) -> np.ndarray:
    """Unit-norm image under p of the first canonical basis vector p keeps."""
    for i in range(p.shape[0]):
        nrm = np.linalg.norm(p[:, i])
        if nrm > 1e-8:
            return p[:, i] / nrm
    raise ValueError("projector is numerically zero")


def _unit_image(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    v = p @ w
    return v / np.linalg.norm(v)


def update_w1(
    num: np.ndarray,
    den: np.ndarray,
    p: np.ndarray,
    v1: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Dinkelbach ascent on the stream-1 quotient of `stream_blocks` over
    range(p); returns the unit beamformer and the achieved level nu.

    The inner subproblem replaces the numerator quadratic by its tangent
    minorant at the incumbent, which turns each step into the dual-bisection
    QCQP; both loops can only raise the quotient.
    """
    w = v1 / math.sqrt(max(_quad(p, v1), np.finfo(float).tiny))
    nu = _quad(num, w) / _quad(den, w)
    for _ in range(MAX_DINKELBACH):
        cur = w
        level = _quad(num, cur) - nu * _quad(den, cur)
        for _ in range(MAX_TAYLOR):
            cand = dual_qcqp_solve(nu * den, num @ cur, p)
            cand_level = _quad(num, cand) - nu * _quad(den, cand)
            if not cand_level > level:
                break
            gain = cand_level - level
            cur, level = cand, cand_level
            if gain < DINKELBACH_TOL:
                break
        w = cur
        top, bottom = _quad(num, w), _quad(den, w)
        if abs(top - nu * bottom) < DINKELBACH_TOL:
            break
        nu = top / bottom
    return _unit_image(p, w), nu


def update_w2(num: np.ndarray, p: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Ascent on the stream-2 numerator of `stream_blocks` over the unit
    vectors of range(p); Eve never sees stream 2, so her denominator is 1."""
    w = v2 / math.sqrt(max(_quad(p, v2), np.finfo(float).tiny))
    obj = _quad(num, w)
    for _ in range(MAX_POWER_ITERS):
        cand = dual_qcqp_solve(np.zeros_like(num), num @ w, p)
        cand_obj = _quad(num, cand)
        if cand_obj > obj:
            w, gain = cand, cand_obj - obj
            obj = cand_obj
        else:
            break
        if gain < POWER_TOL:
            break
    return _unit_image(p, w)


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
        cand = _project_phases(lam * theta - psi @ theta, theta)
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
) -> RunState:
    """GAI's alternation over the null-space-constrained v1, v2 and theta blocks."""
    opts = opts or NspOptions()
    p1, p2 = ns_projectors(channels)
    prec = Precoders(v1=_feasible_beamformer(p1), v2=_feasible_beamformer(p2),
                     theta=np.ones(cfg.M, dtype=complex))
    dm = derived_model(cfg, channels, prec)
    steps = []
    if cfg.beta1 > 0:
        steps.append(lambda dm, prec: replace(
            prec, v1=update_w1(*stream_blocks(dm, prec, p1, 0), p1, prec.v1)[0]))
    if cfg.beta2 > 0:
        steps.append(lambda dm, prec: replace(
            prec, v2=update_w2(stream_blocks(dm, prec, p2, 1)[0], p2, prec.v2)))
    if cfg.beta1 > 0:
        # the phase blocks depend on the beamformers only
        steps.append(lambda dm, prec: replace(
            prec, theta=update_theta_nsp(*phase_blocks(dm), prec.theta)))
        # pre-align the phases to the initial beamformers: starting the v1
        # block at unaligned phases can reward silencing the surface (the
        # cascade hurts Bob less than it leaks to Eve), after which the
        # phase block sees a dead quotient and the alternation stalls
        prec = steps[-1](dm, prec)
        dm = refresh_model(cfg, channels, prec, dm)
    return alternate(cfg, channels, dm, prec, steps, opts.max_outer)
