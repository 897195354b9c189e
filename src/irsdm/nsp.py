"""Null-space-projection optimizer for the two-stream wiretap link.

NSP is GAI's alternation (`gai.alternate`) with one extra constraint on each
beamformer.  Stream 1 is confined to range(P1), the null space of the direct
Bob and Eve channels, so it reaches Bob only via the surface; stream 2 to
range(P2), the null space of the surface and Eve channels, so it rides the
direct path and stays invisible to Eve.  Each beamformer block is GAI's
quotient (`rates.beam_quotient`) restricted to range(P): the pencil in the
coordinates of an orthonormal basis of range(P), maximized exactly by GAI's
beamformer solve (`gai.beam_step`).  The names kept only so perfbench's
tracer can wrap them sit in one block after the imports, which ROADMAP
item 1 deletes.  The phases minimize a unit-modulus quotient of two
forms, each I/M + F F^H with F an M x K factor read from the rate model;
no M x M matrix is formed.  The step is GAI's pattern search (`gai.SpanMemo.search`,
with its sizing and without its rotation axis, which the quotient ignores)
over the factors' joint span (`gai.SpanMemo.basis_of`), scored through 2 x 2
forms of the factors' compressions onto that span at O(1) per pattern; a
run's steps share one basis and the coordinates formed on it
(`gai.SpanMemo`), as GAI's do, so a later step forms only the patches no
earlier step reached, and refines from the cells of the run's one
full-grid scoring.  Then majorize-minimize phase rounding at the best
level found, each rounding at O(K M), the roundings driven by squared
extrapolation (SQUAREM) until one more lowers the level objective by less
than MM_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gai import (
    Solution,
    SpanMemo,
    _project_phases,
    alternate,
    beam_step,
    check_count,
)
from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    Precoders,
    _herm,
    beam_quotient,
    derived_model,
    form_weights,
    null_projector,
    phase_maps,
    span_moments,
    whiten_rank_one,
)

# Names kept only for perfbench/tracing.py, which wraps each in this module;
# ROADMAP item 1 deletes this block.  The rate functions are not called here.
# A beamformer block is GAI's quotient in range(P)'s basis q and GAI's solve
# on it, one binding per stream so each is timed under its own name.  No
# QCQP dual is solved: the placeholder only keeps the tracer's lookup.
from .rates import an_projector, secrecy_rate
stream_blocks = beam_quotient
update_w1 = update_w2 = beam_step
dual_qcqp_solve = None


MAX_MM_ITERS = 500       # phase roundings per mu evaluation, extrapolated or not; the
                         # bench and placement calls take at most 31
MM_TOL = 1e-12           # stop when one rounding lowers the level objective by less than
                         # this (the phase step's polish needs its level minimizer to
                         # 1e-9 relative)
POLISH_LEVELS = 2        # theta_star_of_mu levels after the search


@dataclass(frozen=True)
class NspOptions:
    max_outer: int = 50

    def __post_init__(self) -> None:
        check_count("max_outer", self.max_outer)


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


def range_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(p): the eigenvectors of the projector p
    with eigenvalue above 1/2."""
    evals, evecs = np.linalg.eigh(p)
    return evecs[:, evals > 0.5]


def phase_blocks(dm: DerivedModel) -> tuple[np.ndarray, np.ndarray]:
    """Factors F_b, F_e (M x K) of the phase quotient's forms I/M + F F^H:
    Bob's numerator and Eve's denominator.

    Sliced from the stacked phase maps (`rates.phase_maps`), formed here
    at the model's beamformers, whose first K rows are stream 1's: F_b =
    (cov2^-1/2 T_B1)^H for stream 1's reflected map T_B1, with stream 2's
    direct part h_B2 folded into Bob's noise cov2 = I + h_B2 h_B2^H, whose
    inverse square root is a rank-one closed form
    (`rates.whiten_rank_one`), and F_e = T_E1^H for stream 1's reflected map
    at Eve, whose rows are already whitened by the model's W.  On nsp's
    beamformers stream 1 has no direct part and stream 2 no reflected one.
    No K x K factorization or solve.  The I/M term absorbs the
    unit-modulus budget theta^H theta = M, so 1 + |F^H theta|^2 is 1 + SNR
    exactly on the shell.
    """
    k = dm.cfg.K
    u_b, c_b, u_e, _ = phase_maps(dm)
    return whiten_rank_one(c_b[k:], u_b[:k]).conj().T, u_e[:k].conj().T


def theta_star_of_mu(
    f_b: np.ndarray,
    f_e: np.ndarray,
    mu: float,
    theta_prev: np.ndarray,
) -> np.ndarray:
    """Unit-modulus minimizer of theta^H (BtE - mu TtB) theta via phase rounding,
    TtB and BtE the forms I/M + F F^H of the factors f_b and f_e.

    On the shell the objective is (1 - mu) + v(theta), v = theta^H F D F^H
    theta with F = [F_e, F_b] and D = diag(1, -mu).  A rounding T minimizes
    the spectral-shift majorant, which amounts to taking the phases of
    (lam I - F D F^H) theta at O(r M) for r columns of F; entries with a
    vanishing drive keep their previous phase.  lam, the largest eigenvalue
    of F D F^H, comes from the r x r R D R^H of F = Q R, with 0 added when
    range(F) misses directions of C^M.

    The roundings run in squared-extrapolation cycles (SQUAREM, Varadhan and
    Roland 2008).  A cycle from theta takes t1 = T(theta) and stops there if
    v falls by less than MM_TOL, keeping t1 only if it is lower.  Otherwise
    it takes t2 = T(t1), r = t1 - theta, w = t2 - 2 t1 + theta and
    alpha = -||r|| / ||w||; when alpha < -1 it also rounds the extrapolated
    point, c = T(phase(theta - 2 alpha r + alpha^2 w)), and keeps c only if
    v(c) < v(t2), t2 otherwise.  A rounding never raises v and c is kept
    only below t2, so the quadratic value never increases.  The cycles also
    end, silently, after MAX_MM_ITERS roundings; a level where mu times
    Bob's excess is small next to Eve's, started far from its minimizer,
    can need thousands.
    """
    f = np.hstack([f_e, f_b])
    d = np.concatenate([np.ones(f_e.shape[1]), np.full(f_b.shape[1], -mu)])
    r = np.linalg.qr(f, mode="r")
    evals = np.linalg.eigvalsh(_herm((r * d) @ r.conj().T))
    if r.shape[0] < f.shape[0]:
        evals = np.append(evals, 0.0)
    if evals.max() - evals.min() < 1e-12:
        return theta_prev.copy()
    lam = evals.max()
    fh = f.conj().T

    def value(x: np.ndarray) -> tuple[np.ndarray, float]:
        y = fh @ x
        return y, float(d @ np.abs(y) ** 2)

    def rounding(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        t = _project_phases(lam * x - f @ (d * y), x)
        return (t, *value(t))

    theta = theta_prev.copy()
    y, obj = value(theta)
    left = MAX_MM_ITERS
    while left > 0:
        t1, y1, obj1 = rounding(theta, y)
        left -= 1
        if obj - obj1 < MM_TOL or left == 0:
            if obj1 < obj:
                theta = t1
            break
        t2, y2, obj2 = rounding(t1, y1)
        left -= 1
        r_step, w_step = t1 - theta, t2 - 2.0 * t1 + theta
        r_norm, w_norm = np.linalg.norm(r_step), np.linalg.norm(w_step)
        start, theta, y, obj = theta, t2, y2, obj2
        if left > 0 and 0.0 < w_norm < r_norm:
            alpha = -r_norm / w_norm
            jump = _project_phases(start - 2.0 * alpha * r_step + alpha**2 * w_step, start)
            c, y_c, obj_c = rounding(jump, fh @ jump)
            left -= 1
            if obj_c < obj:
                theta, y, obj = c, y_c, obj_c
    return theta


def update_theta_nsp(
    f_b: np.ndarray,
    f_e: np.ndarray,
    theta_prev: np.ndarray,
    memo: SpanMemo | None = None,
) -> np.ndarray:
    """Minimize the Eve/Bob phase quotient theta^H BtE theta / theta^H TtB theta
    over unit-modulus theta by a search over the span of its two factors.

    Both forms are I/M + F F^H for the M x K factors f_b, f_e of
    `phase_blocks`, rank one each on line-of-sight channels, so on the
    unit-modulus shell the quotient is (1 + |G_e^H s|^2) / (1 + |G_b^H s|^2)
    in s = W^H theta, W the basis of the factors' joint span from
    `gai.SpanMemo.basis_of(F_b, F_e)` and G = W^H F their 2 x K compressions.
    Each |G^H s|^2 is the 2 x 2 form s^H G G^H s, read from the moments of s
    (`rates.span_moments`, `rates.form_weights`), as GAI's span scorer reads
    its Gram entries; the exact quotient of a phase vector reads F^H theta.
    At a stationary point theta_i is the phase of (W a)_i for some a in
    C^2, up to a sign on entries where (W a)_i is small next to the excess
    diagonal; only the direction of a matters, and an entry where W a
    vanishes takes phase 0.  `gai.SpanMemo.search` scores its (psi, chi)
    grid of these patterns at O(1) each and refines around the best points;
    a span of lower dimension is not searched.  The better of its pattern
    and the incumbent, compared on the exact quotient, is polished with at
    most POLISH_LEVELS `theta_star_of_mu` levels.  It returns theta_prev
    itself unless a candidate beats it.  The search is global when the
    surface resolves Bob from Eve; within one beam the sign flips matter
    and the polish descends only locally.  Raises ValueError if the
    factors span more than two dimensions.  memo, the run's `gai.SpanMemo`,
    lends the search the basis, coordinates and kept grid cells of earlier
    steps; without it the step searches cold.
    """

    def quotient(theta: np.ndarray) -> float:
        num, den = (1.0 + float(np.sum(np.abs(f.conj().T @ theta) ** 2)) for f in (f_e, f_b))
        return num / den

    memo = memo or SpanMemo()
    basis = memo.basis_of(f_b, f_e)
    if basis.shape[1] > 2:
        raise ValueError(f"phase forms span {basis.shape[1]} dimensions beyond I/M; "
                         "the phase step handles at most 2")
    best_theta, best_q = theta_prev, quotient(theta_prev)
    if basis.shape[1] == 2:
        # |G^H s|^2 = s^H G G^H s, a 2 x 2 form: O(1) per pattern from the moments of s
        weights = np.array([form_weights(g @ g.conj().T)
                            for g in (basis.conj().T @ f_e, basis.conj().T @ f_b)]).real

        def score(s: np.ndarray) -> np.ndarray:
            num, den = 1.0 + weights @ span_moments(s.reshape(2, -1))
            return (num / den).reshape(s.shape[1:])

        found, _ = memo.search(score)
        if (q_found := quotient(found)) < best_q:
            best_theta, best_q = found, q_found
    for _ in range(POLISH_LEVELS):
        cand = theta_star_of_mu(f_b, f_e, best_q, best_theta)
        q_cand = quotient(cand)
        if not q_cand < best_q:
            break
        best_theta, best_q = cand, q_cand
    return best_theta


def run_nsp(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: NspOptions | None = None,
) -> Solution:
    """GAI's alternation over the null-space-constrained v1, v2 and theta
    blocks; returns `alternate`'s `Solution`.  The alternation's
    extrapolated step moves each beamformer by a sum of two vectors of its
    range(P), so it stays there."""
    opts = opts or NspOptions()
    q1, q2 = map(range_basis, ns_projectors(channels))
    theta = np.ones(cfg.M, dtype=complex)
    dm = derived_model(cfg, channels, Precoders(v1=q1[:, 0], v2=q2[:, 0], theta=theta))
    steps = []
    if cfg.beta1 > 0:
        steps.append(lambda dm: dm.with_beamformer("v1", update_w1(*stream_blocks(dm, 0, q1), q1)))
    if cfg.beta2 > 0:
        steps.append(lambda dm: dm.with_beamformer("v2", update_w2(*stream_blocks(dm, 1, q2), q2)))
    if cfg.beta1 > 0:
        memo = SpanMemo()
        # the phase blocks depend on the beamformers only
        steps.append(lambda dm: dm.with_theta(update_theta_nsp(*phase_blocks(dm), dm.prec.theta, memo)))
        # pre-align the phases to the initial beamformers: starting the v1
        # block at unaligned phases can reward silencing the surface (the
        # cascade hurts Bob less than it leaks to Eve), after which the
        # phase block sees a dead quotient and the alternation stalls
        dm = steps[-1](dm)
    return alternate(dm, steps, opts.max_outer)[0]
