"""Alternating maximization of the secrecy rate over (v1, v2, theta).

Each beamformer update is a generalized Rayleigh quotient problem solved
exactly by a Hermitian-definite eigensolver; the phase vector is improved by
projected gradient ascent on the determinant ratio f(theta) / g(theta) of
`rates.PhaseProblem`, whose base-2 logarithm equals R_B - R_E at unit-modulus
points.  Every block can only increase the rate gap, so the secrecy-rate
trace is non-decreasing.  `alternate` is the outer loop of both optimizers;
nsp runs it with its own, null-space-constrained blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    PhaseProblem,
    Precoders,
    beam_quotient,
    composite_channels,
    derived_model,
    refresh_model,
    secrecy_rate,
    unclipped_gap,
)


# Phase-block line search: a step is tried at LS_ALPHA0 along the unit ascent
# direction and shrunk by LS_SHRINK until it clears the sufficient-ascent
# bound with constant LS_C1, at most LS_MAX_TRIALS times (last step 2^-13).
LS_ALPHA0 = 1.0
LS_SHRINK = 0.5
LS_C1 = 1e-4
LS_MAX_TRIALS = 14
GA_TOL = 1e-6  # per-step rate gain (bits) that ends a phase block inside run_gai


@dataclass(frozen=True)
class GaOptions:
    """Knobs for the outer alternation and the inner gradient ascent."""

    max_outer: int = 50
    max_ga_iters: int = 1000    # gradient-ascent steps per phase block
    optimize_theta: bool = True
    include_irs: bool = True


@dataclass
class RunState:
    """Result of a run of either optimizer: the final precoders, the AN
    projector of its rate model and the per-iteration rate trace."""

    prec: Precoders
    p_an: np.ndarray
    rs_trace: np.ndarray
    iterations_used: int
    converged: bool


def rayleigh_ritz_max(a_num: np.ndarray, b_den: np.ndarray) -> np.ndarray:
    """Unit-norm maximizer of (x^H A x) / (x^H B x) for Hermitian A, B with B > 0."""
    if scipy.linalg.eigvalsh(b_den)[0] < 1e-12:
        raise ValueError("denominator matrix is numerically singular")
    _, vecs = scipy.linalg.eigh(a_num, b_den)
    v = vecs[:, -1]
    return v / np.linalg.norm(v)


def update_v1(dm: DerivedModel, prec: Precoders) -> np.ndarray:
    """Best stream-1 beamformer with (v2, theta) held fixed."""
    return rayleigh_ritz_max(*beam_quotient(dm, prec, 0))


def update_v2(dm: DerivedModel, prec: Precoders) -> np.ndarray:
    """Best stream-2 beamformer with (v1, theta) held fixed."""
    return rayleigh_ritz_max(*beam_quotient(dm, prec, 1))


def _project_phases(z: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    out = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), fallback)
    return out


def ga_optimize_theta(
    pp: PhaseProblem,
    theta0: np.ndarray,
    opts: GaOptions,
    epsilon: float,
) -> np.ndarray:
    """Projected gradient ascent on f/g over the unit-modulus phase vector.

    Steps follow the normalized conjugate gradient and are reprojected onto
    the unit circle before evaluation; a trial is accepted only if it clears
    the sufficient-ascent bound, so the objective strictly increases.  Stops
    when no backtracking step helps or the per-step rate gain drops below
    epsilon.  Returns theta0 unchanged if no first step is accepted.
    """
    theta = theta0.copy()
    f_cur = pp.ratio(theta)
    for _ in range(opts.max_ga_iters):
        grad = pp.gradient(theta)
        gnorm = np.linalg.norm(grad)
        if not np.isfinite(gnorm) or gnorm == 0.0:
            break
        direction = grad / gnorm
        alpha = LS_ALPHA0
        accepted = False
        for _ in range(LS_MAX_TRIALS):
            cand = _project_phases(theta + alpha * direction, theta)
            f_cand = pp.ratio(cand)
            # 2*gnorm is the ascent slope of the ratio along the unit direction.
            if f_cand - f_cur > LS_C1 * alpha * 2.0 * gnorm:
                theta = cand
                gain_bits = math.log2(f_cand / f_cur)
                f_cur = f_cand
                accepted = True
                break
            alpha *= LS_SHRINK
        if not accepted:
            break
        if gain_bits < epsilon:
            break
    return theta


def initial_beamformers(ch: ChannelSet, theta: np.ndarray, include_irs: bool) -> tuple[np.ndarray, np.ndarray]:
    """Top two right singular directions of Bob's composite channel at theta.

    Falls back to canonical basis vectors when the channel does not expose
    two usable directions (e.g. K = 1 leaves the second singular value at 0).
    """
    h_b, _ = composite_channels(ch, theta, include_irs)
    n = h_b.shape[1]
    _, svals, vh = np.linalg.svd(h_b, full_matrices=True)
    v1 = vh[0].conj() if svals[0] > 0 else np.eye(n)[0].astype(complex)
    if len(svals) > 1 and svals[1] > 1e-12 * svals[0]:
        v2 = vh[1].conj()
    else:
        v2 = np.eye(n)[1].astype(complex)
    return v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)


def alternate(
    cfg: SystemConfig,
    channels: ChannelSet,
    dm: DerivedModel,
    prec: Precoders,
    steps: Sequence[Callable[[DerivedModel, Precoders], Precoders]],
    max_outer: int,
    include_irs: bool = True,
) -> RunState:
    """Run the block steps in turn, refreshing the rate model after each,
    until one pass gains at most epsilon in the rate gap.

    Each step maps the current rate model and precoders to new precoders.

    The stop test uses the unclipped gap R_B - R_E, so a run whose gap is
    still negative keeps climbing; rs_trace holds the clipped secrecy rate.
    """
    trace = [secrecy_rate(dm, prec)]
    gap = unclipped_gap(trace[-1], dm, prec)
    converged = False
    iterations = 0
    for p in range(1, max_outer + 1):
        for step in steps:
            prec = step(dm, prec)
            dm = refresh_model(cfg, channels, prec, dm, include_irs)
        trace.append(secrecy_rate(dm, prec))
        gap, gap_prev = unclipped_gap(trace[-1], dm, prec), gap
        iterations = p
        if gap - gap_prev <= cfg.epsilon:
            converged = True
            break
    return RunState(
        prec=prec,
        p_an=dm.P_AN,
        rs_trace=np.array(trace),
        iterations_used=iterations,
        converged=converged,
    )


def run_gai(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: GaOptions | None = None,
    theta0: np.ndarray | None = None,
) -> RunState:
    """Alternate the v1, v2 and theta blocks until the rate-gap gain falls below epsilon."""
    opts = opts or GaOptions()
    theta = np.ones(cfg.M, dtype=complex) if theta0 is None else np.asarray(theta0, dtype=complex).copy()
    v1, v2 = initial_beamformers(channels, theta, opts.include_irs)
    prec = Precoders(v1=v1, v2=v2, theta=theta)
    dm = derived_model(cfg, channels, prec, include_irs=opts.include_irs)
    steps = []
    if cfg.beta1 > 0:
        steps.append(lambda dm, prec: replace(prec, v1=update_v1(dm, prec)))
    if cfg.beta2 > 0:
        steps.append(lambda dm, prec: replace(prec, v2=update_v2(dm, prec)))
    if opts.optimize_theta and opts.include_irs:
        # solve the phase block well below the outer tolerance: stopping
        # the ascent at the outer epsilon meters a shallow-ridge climb out
        # over many outer passes instead of finishing it in one
        steps.append(lambda dm, prec: replace(
            prec, theta=ga_optimize_theta(PhaseProblem(dm), prec.theta, opts, GA_TOL)))
    return alternate(cfg, channels, dm, prec, steps, opts.max_outer, opts.include_irs)
