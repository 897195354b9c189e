"""Alternating maximization of the secrecy rate over (v1, v2, theta).

Each beamformer update is a generalized Rayleigh quotient problem solved
exactly by a Hermitian-definite eigensolver; the phase vector is improved by
projected gradient ascent on the determinant ratio f(theta) / g(theta) whose
base-2 logarithm equals R_B - R_E at unit-modulus points.  Every block can
only increase the rate gap, so the secrecy-rate trace is non-decreasing.
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
    composite_channels,
    derived_model,
    eve_noise_solver,
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
class GaiState:
    """Result of a run: final precoders plus the per-iteration rate trace."""

    prec: Precoders
    rs_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations_used: int = 0
    converged: bool = False


def rayleigh_ritz_max(a_num: np.ndarray, b_den: np.ndarray) -> np.ndarray:
    """Unit-norm maximizer of (x^H A x) / (x^H B x) for Hermitian A, B with B > 0."""
    if scipy.linalg.eigvalsh(b_den)[0] < 1e-12:
        raise ValueError("denominator matrix is numerically singular")
    _, vecs = scipy.linalg.eigh(a_num, b_den)
    v = vecs[:, -1]
    return v / np.linalg.norm(v)


def _update_v(dm: DerivedModel, prec: Precoders, stream: int) -> np.ndarray:
    """Best beamformer of one stream (0 or 1) with the other stream and theta held fixed.

    The rate gap equals a constant plus log2 of a generalized Rayleigh
    quotient in the updated beamformer; the quotient matrices fold the other
    stream into the effective noise on both sides.
    """
    h_b = (dm.H_B1, dm.H_B2)
    h_e = (dm.H_E1, dm.H_E2)
    v_other = (prec.v1, prec.v2)[1 - stream]
    n = dm.H_B1.shape[1]
    k = dm.B.shape[0]
    eye_n = np.eye(n, dtype=complex)
    tb = h_b[1 - stream] @ v_other
    cov_b = np.eye(k, dtype=complex) + np.outer(tb, tb.conj())
    num = eye_n + h_b[stream].conj().T @ np.linalg.solve(cov_b, h_b[stream])
    te = h_e[1 - stream] @ v_other
    # B^-1 (I + C B^-1)^-1 collapses to (B + C)^-1, keeping the form Hermitian.
    cov_e = dm.B + np.outer(te, te.conj())
    den = eye_n + h_e[stream].conj().T @ np.linalg.solve(cov_e, h_e[stream])
    return rayleigh_ritz_max(_herm(num), _herm(den))


def update_v1(dm: DerivedModel, prec: Precoders) -> np.ndarray:
    """Best stream-1 beamformer with (v2, theta) held fixed."""
    return _update_v(dm, prec, 0)


def update_v2(dm: DerivedModel, prec: Precoders) -> np.ndarray:
    """Best stream-2 beamformer with (v1, theta) held fixed."""
    return _update_v(dm, prec, 1)


class PhaseProblem:
    """Quadratic forms of the phase objective, precomputed for fixed beamformers.

    Every received stream is affine in theta (t_i = T_i theta + h_i), so the
    Bob factor f(theta) and Eve factor g(theta) reduce to combinations of
    t_i^H t_j inner products.  Caching the Gram blocks T_i^H T_j, T_i^H h_j
    and h_i^H h_j (Eve's with B^-1 inserted) makes each objective or gradient
    evaluation O(M^2).
    """

    def __init__(self, dm: DerivedModel):
        solve_b = eve_noise_solver(dm.B)
        tb = (dm.T_B1, dm.T_B2)
        hb = (dm.h_B1, dm.h_B2)
        te = (dm.T_E1, dm.T_E2)
        he = (dm.h_E1, dm.h_E2)
        bte = tuple(solve_b(t) for t in te)
        bhe = tuple(solve_b(h) for h in he)
        self.gb = [[tb[i].conj().T @ tb[j] for j in range(2)] for i in range(2)]
        self.ub = [[tb[i].conj().T @ hb[j] for j in range(2)] for i in range(2)]
        self.sb = [[complex(hb[i].conj() @ hb[j]) for j in range(2)] for i in range(2)]
        self.ge = [[te[i].conj().T @ bte[j] for j in range(2)] for i in range(2)]
        self.ue = [[te[i].conj().T @ bhe[j] for j in range(2)] for i in range(2)]
        self.se = [[complex(he[i].conj() @ bhe[j]) for j in range(2)] for i in range(2)]

    def _inner(self, grams, crosses, consts, theta, i, j) -> complex:
        # t_i^H W t_j with the weighting W baked into the cached blocks.
        return complex(
            theta.conj() @ (grams[i][j] @ theta)
            + theta.conj() @ crosses[i][j]
            + crosses[j][i].conj() @ theta
            + consts[i][j]
        )

    def factors(self, theta: np.ndarray) -> tuple[float, float]:
        """Bob and Eve determinant factors (f, g); log2(f/g) is the rate gap."""
        b11 = self._inner(self.gb, self.ub, self.sb, theta, 0, 0).real
        b22 = self._inner(self.gb, self.ub, self.sb, theta, 1, 1).real
        b12 = self._inner(self.gb, self.ub, self.sb, theta, 0, 1)
        f = (1.0 + b11) * (1.0 + b22) - abs(b12) ** 2
        e11 = self._inner(self.ge, self.ue, self.se, theta, 0, 0).real
        e22 = self._inner(self.ge, self.ue, self.se, theta, 1, 1).real
        e12 = self._inner(self.ge, self.ue, self.se, theta, 0, 1)
        g = (1.0 + e11) * (1.0 + e22) - abs(e12) ** 2
        if not g > 0:
            raise FloatingPointError("Eve determinant factor lost positivity")
        return f, g

    def ratio(self, theta: np.ndarray) -> float:
        f, g = self.factors(theta)
        return f / g

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Conjugate (Wirtinger) gradient of f/g; ascent direction for the ratio."""

        def side(grams, crosses, consts):
            lin = [[grams[i][j] @ theta + crosses[i][j] for j in range(2)] for i in range(2)]
            inner = [[self._inner(grams, crosses, consts, theta, i, j) for j in range(2)]
                     for i in range(2)]
            val = (1.0 + inner[0][0].real) * (1.0 + inner[1][1].real) - abs(inner[0][1]) ** 2
            d_prod = (1.0 + inner[1][1].real) * lin[0][0] + (1.0 + inner[0][0].real) * lin[1][1]
            # d|t1^H t2|^2 / d conj(theta): scalar weights pair conjugately
            # with the linear pieces.
            d_cross = inner[0][1] * lin[1][0] + inner[1][0] * lin[0][1]
            return val, d_prod - d_cross

        f, df = side(self.gb, self.ub, self.sb)
        g, dg = side(self.ge, self.ue, self.se)
        if not g > 0:
            raise FloatingPointError("Eve determinant factor lost positivity")
        return (df * g - f * dg) / g ** 2


def sr_objective_theta(theta: np.ndarray, dm: DerivedModel) -> tuple[float, float, float]:
    """(f, g, f/g) of the phase objective at theta for the blocks frozen in dm."""
    pp = PhaseProblem(dm)
    f, g = pp.factors(theta)
    return f, g, f / g


def sr_gradient_theta(theta: np.ndarray, dm: DerivedModel) -> np.ndarray:
    """Conjugate gradient of the phase objective f/g at theta."""
    return PhaseProblem(dm).gradient(theta)


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


def run_gai(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: GaOptions | None = None,
    theta0: np.ndarray | None = None,
) -> GaiState:
    """Alternate the three block updates until the rate-gap gain falls below epsilon.

    The stop test uses the unclipped gap R_B - R_E, so a run whose gap is
    still negative keeps climbing; rs_trace holds the clipped secrecy rate.
    """
    opts = opts or GaOptions()
    theta = np.ones(cfg.M, dtype=complex) if theta0 is None else np.asarray(theta0, dtype=complex).copy()
    v1, v2 = initial_beamformers(channels, theta, opts.include_irs)
    prec = Precoders(v1=v1, v2=v2, theta=theta)
    dm = derived_model(cfg, channels, prec, include_irs=opts.include_irs)
    trace = [secrecy_rate(dm, prec)]
    gap = unclipped_gap(trace[-1], dm, prec)
    converged = False
    iterations = 0
    for p in range(1, opts.max_outer + 1):
        if cfg.beta1 > 0:
            prec = replace(prec, v1=update_v1(dm, prec))
            dm = refresh_model(cfg, channels, prec, dm, opts.include_irs)
        if cfg.beta2 > 0:
            prec = replace(prec, v2=update_v2(dm, prec))
            dm = refresh_model(cfg, channels, prec, dm, opts.include_irs)
        if opts.optimize_theta and opts.include_irs:
            # solve the phase block well below the outer tolerance: stopping
            # the ascent at the outer epsilon meters a shallow-ridge climb out
            # over many outer passes instead of finishing it in one
            pp = PhaseProblem(dm)
            prec = replace(prec, theta=ga_optimize_theta(pp, prec.theta, opts, GA_TOL))
            dm = refresh_model(cfg, channels, prec, dm, opts.include_irs)
        trace.append(secrecy_rate(dm, prec))
        gap, gap_prev = unclipped_gap(trace[-1], dm, prec), gap
        iterations = p
        if gap - gap_prev <= cfg.epsilon:
            converged = True
            break
    return GaiState(
        prec=prec,
        rs_trace=np.array(trace),
        iterations_used=iterations,
        converged=converged,
    )
