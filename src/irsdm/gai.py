"""Alternating maximization of the secrecy rate over (v1, v2, theta).

Each beamformer update is a generalized Rayleigh quotient problem solved
exactly by a Hermitian-definite eigensolver, on the pencil compressed to the
model's channel basis Q, which holds the row space of the composite channels
at every theta.  The phase block maximizes the determinant ratio f(theta) /
g(theta) of `rates.PhaseProblem`, whose base-2 logarithm equals R_B - R_E at
unit-modulus points.  On line-of-sight channels
the ratio depends on theta only through a two-dimensional span, and the block
starts from a grid search over the phase patterns of that span; gradient
ascent along each phase's circle, with a step that follows the problem's
scale, then polishes.  `SpanMemo.basis_of` and `SpanMemo.search` are the
span and the pattern search of both optimizers' phase steps, with one span
rule and one sizing (the `SEARCH_*` constants); GAI's step adds only
its rotation axis.  Each step scores the patterns through their coordinates
s = W^H theta alone, which come in closed form from a fixed M x 4 table of
the span without forming the patterns.  Both objectives read s through 2 x 2
forms, taken once per step and evaluated from the moments |s0|^2, |s1|^2 and
conj(s0) s1 (`rates.span_moments`), so a pattern's score costs O(1).  A
run's phase steps share one basis (`SpanMemo`) while their spans lie in it,
as on line-of-sight links, where the span depends only on the channels.
They share the coordinates formed on it too: each (psi, chi) grid, the full
one or a start's patch, is formed once per run, so a later step forms only
the patches that no earlier step reached.  Each
step keeps its incumbent unless its own objective improves.  Every block can
only increase the rate gap, and `alternate` undoes a pass that rounding
leaves lower, so the secrecy-rate trace is non-decreasing.
`alternate` is the outer loop of both optimizers; nsp runs it with its own,
null-space-constrained blocks.  Each block step maps the rate model
(`rates.DerivedModel`) to the next: a beamformer step keeps its theta terms
and a phase step forms new ones.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    PhaseProblem,
    Precoders,
    beam_quotient,
    check_finite,
    derived_model,
    secrecy_rate,
    unclipped_gap,
    unit_stack,
)


GA_TOL = 1e-6  # per-step rate gain (bits) that ends a phase block inside run_gai
# Phase-pattern search of both optimizers: a (psi, chi) grid, times
# SEARCH_ROTATIONS values of phi in GAI's step; from each of its
# SEARCH_STARTS best points, SEARCH_ROUNDS patches of 2 SEARCH_HALF_WIDTH + 1
# points per axis around the best so far, each at 1 / SEARCH_SHRINK of the
# previous step.  Span directions with singular values at or below SPAN_CUT,
# relative to each part's Frobenius norm, are rounding noise.
SEARCH_GRID = (24, 48)
SEARCH_ROTATIONS = 8
SEARCH_STARTS = 8
SEARCH_ROUNDS = 3
SEARCH_HALF_WIDTH = 3
SEARCH_SHRINK = 3
SPAN_CUT = 1e-10
# Pattern magnitudes (count x M) formed at once: real blocks of at most
# 62.5 KB stay below malloc's 128 KB mmap threshold, so the allocator reuses
# them instead of mapping fresh pages that fault in again for every chunk.
# The memo holds one small array per grid (37 KB for the full grid, 1.5 KB
# for a patch), below the threshold too.
SEARCH_CHUNK = 8000


@dataclass(frozen=True)
class GaOptions:
    """Knobs for the outer alternation and the inner gradient ascent."""

    max_outer: int = 50
    max_ga_iters: int = 1000    # gradient-ascent steps per phase block

    def __post_init__(self) -> None:
        for key in ("max_outer", "max_ga_iters"):
            check_count(key, getattr(self, key))


def check_count(name: str, value: object) -> None:
    """Raise ValueError unless value is a positive int (bool is an int
    subclass, but True is a mistake, not a count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Solution:
    """A run's one record, from `alternate`, both optimizers and every
    `bench.run_scheme` scheme: final precoders, the run's AN projector, the
    secrecy rate, its per-pass trace, the passes run and the stop test."""

    v1: np.ndarray
    v2: np.ndarray
    theta: np.ndarray
    p_an: np.ndarray
    sr: float
    rs_trace: np.ndarray
    iterations: int
    converged: bool
    per_draw: np.ndarray | None = None  # random_phase: each draw's rate

    @property
    def iterations_used(self) -> int:
        # read-only alias: perfbench/tracing.py reads this name from the
        # results of bench.run_gai and bench.run_nsp
        return self.iterations


def rayleigh_ritz_max(a_num: np.ndarray, b_den: np.ndarray) -> np.ndarray:
    """Unit-norm maximizer of (x^H A x) / (x^H B x) for Hermitian A, B with B > 0.

    B = U diag(lam) U^H gives the whitening S = U diag(lam)^-1/2, which turns
    the pencil into the ordinary eigenproblem of S^H A S; x is S times its
    top eigenvector.  Raises ValueError on non-finite entries or a B with
    an eigenvalue below 1e-12.
    """
    check_finite(a_num, b_den)
    lam, u = np.linalg.eigh(b_den)
    if lam[0] < 1e-12:
        raise ValueError("denominator matrix is numerically singular")
    s = u / np.sqrt(lam)
    _, vecs = np.linalg.eigh(s.conj().T @ a_num @ s)
    v = s @ vecs[:, -1]
    return v / np.linalg.norm(v)


def update_v1(dm: DerivedModel) -> np.ndarray:
    """Best stream-1 beamformer with the model's (v2, theta) held fixed,
    solved on the pencil compressed to the model's channel basis Q (a
    channel term, `rates.channel_basis`)."""
    return dm.Q @ rayleigh_ritz_max(*beam_quotient(dm, 0))


def update_v2(dm: DerivedModel) -> np.ndarray:
    """Best stream-2 beamformer with the model's (v1, theta) held fixed,
    solved on the pencil compressed to the model's channel basis Q (a
    channel term, `rates.channel_basis`)."""
    return dm.Q @ rayleigh_ritz_max(*beam_quotient(dm, 1))


def _project_phases(z: np.ndarray, fallback: np.ndarray | float) -> np.ndarray:
    """z / |z| entrywise; entries where z vanishes take fallback's."""
    mag = np.abs(z)
    out = np.empty(z.shape, dtype=complex)
    out[...] = fallback
    return np.divide(z, mag, out=out, where=mag > 0)


def _span_candidates(basis: np.ndarray, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Phases of W a, a = (cos psi, sin psi e^{j chi}), one column per (psi, chi);
    entries where W a vanishes take phase 0."""
    z = np.outer(basis[:, 0], np.cos(psi)) + np.outer(basis[:, 1], np.sin(psi) * np.exp(1j * chi))
    return _project_phases(z, 1.0)


def _span_coordinates(basis: np.ndarray, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """s = W^H theta, shape (2, P, n), of the patterns theta of
    `_span_candidates` at the P x n angles (psi, chi), without forming them.

    With z = W a = cos psi w0 + q w1, q = sin psi e^{j chi}, each |z_m|^2 is
    a real product of (cos^2 psi, sin^2 psi, 2 cos psi Re q, -2 cos psi Im q)
    with the row (|w0_m|^2, |w1_m|^2, Re p_m, Im p_m) of a fixed M x 4 table,
    p = conj(w0) w1.  The sums (A, B, P) of the table's columns weighted by
    1 / |z| give s = (cos psi A + q P, cos psi conj(P) + q B).  The table's
    |z_m|^2 carries a rounding error of about eps |W_m|^2, so an entry with
    |z_m|^2 <= 1e-3 |W_m|^2 (one in a thousand, for patterns spread evenly)
    is formed as `_span_candidates` forms it; every other entry is off by at
    most about 1e-12 |W_m|.  Magnitudes are formed at most SEARCH_CHUNK at a
    time, in the same pattern ranges of every row of psi, and numpy's stacked
    products take one BLAS call per row; so a row's s is the same to the bit
    whether it is formed alone or beside other rows.
    """
    cross = basis[:, 0].conj() * basis[:, 1]
    table = np.column_stack([np.abs(basis) ** 2, cross.real, cross.imag])
    floor = 1e-3 * (table[:, 0] + table[:, 1])
    cos, sin = np.cos(psi), np.sin(psi)
    q = sin * np.exp(1j * chi)
    trig = np.stack([cos * cos, sin * sin, 2.0 * cos * q.real, -2.0 * cos * q.imag], axis=-1)
    sums, near_at = np.empty(trig.shape), []
    width = min(psi.shape[1], max(1, SEARCH_CHUNK // basis.shape[0]))
    height = max(1, SEARCH_CHUNK // (width * basis.shape[0]))
    for top in range(0, psi.shape[0], height):
        for lo in range(0, psi.shape[1], width):
            part = np.s_[top:top + height, lo:lo + width]
            mag2 = trig[part] @ table.T
            near = mag2 <= floor
            np.copyto(mag2, np.inf, where=near)  # 1 / |z| = 0: formed below instead
            np.matmul(1.0 / np.sqrt(mag2), table, out=sums[part])
            if near.any():
                row, col, entry = np.nonzero(near)
                near_at.append((row + top, col + lo, entry))
    p = sums[..., 2] + 1j * sums[..., 3]
    s = np.stack([cos * sums[..., 0] + q * p, cos * p.conj() + q * sums[..., 1]])
    if near_at:
        row, col, entry = (np.concatenate(x) for x in zip(*near_at))
        z = basis[entry, 0] * cos[row, col] + basis[entry, 1] * q[row, col]
        np.add.at(s, (slice(None), row, col), basis[entry].conj().T * _project_phases(z, 1.0))
    return s


def _column_basis(cols: np.ndarray) -> np.ndarray:
    """The left singular vectors of cols with singular values above SPAN_CUT."""
    u, svals, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, svals > SPAN_CUT]


def lowest(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the count lowest values in ascending order, ties by index:
    np.argsort(values, kind="stable")[:count] without sorting them all.

    A partition finds the count-th lowest value v; only the entries that
    are not above v (NaN sorts last, and nothing is above a NaN v) are then
    sorted stably.
    """
    if values.size <= count:
        return np.argsort(values, kind="stable")
    kth = values[np.argpartition(values, count - 1)[count - 1]]
    pool = np.flatnonzero(~(values > kth))
    return pool[np.argsort(values[pool], kind="stable")[:count]]


class SpanMemo:
    """A span basis W and the span coordinates its searches formed on it.

    `formed` maps the exact (psi, chi) arrays of each product grid searched
    on W, the full grid or a start's patch, to the coordinates formed for
    them, one array per grid.  W is set only with an empty memo, by the
    constructor or by `basis_of`, so every entry belongs to the current W.
    A run keeps one SpanMemo from one phase step to the next: on
    line-of-sight links the span of a step's parts depends only on the
    channels, so every step can search one basis and read the patterns that
    earlier steps formed on it.
    """

    def __init__(self, basis: np.ndarray | None = None) -> None:
        self.basis = np.zeros((0, 0), dtype=complex) if basis is None else basis
        self.formed: dict = {}

    def basis_of(self, *parts: np.ndarray) -> np.ndarray:
        """The kept basis if it has two columns and the non-zero parts,
        each scaled to unit Frobenius norm, lie in its span with a residual
        of at most SPAN_CUT and span it with singular values above SPAN_CUT;
        otherwise the parts' own basis, kept from now on with an empty memo:
        the left singular vectors, with singular values above SPAN_CUT, of
        the scaled parts side by side."""
        cols = unit_stack(parts)
        if self.basis.shape[1] == 2 and cols.shape[1] >= 2:
            coef = self.basis.conj().T @ cols
            if (np.linalg.norm(cols - self.basis @ coef) <= SPAN_CUT
                    and np.linalg.svd(coef, compute_uv=False)[1] > SPAN_CUT):
                return self.basis
        self.basis, self.formed = _column_basis(cols), {}
        return self.basis

    def coordinates(self, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """s = W^H theta, shape (2, S, n_psi n_chi), of the patterns of the S
        product grids of the rows of psi (S x n_psi) and chi (S x n_chi), in
        C order.  Grids not in the memo are formed (`_span_coordinates`) and
        kept."""
        keys = [(p.tobytes(), c.tobytes()) for p, c in zip(psi, chi)]
        new = {key: i for i, key in enumerate(keys) if key not in self.formed}
        if new:
            rows = list(new.values())
            n_psi, n_chi = psi.shape[1], chi.shape[1]
            s = _span_coordinates(self.basis, np.repeat(psi[rows], n_chi, axis=1), np.tile(chi[rows], n_psi))
            for i, key in enumerate(new):
                self.formed[key] = s[:, i].copy()
        return np.stack([self.formed[key] for key in keys], axis=1)

    def search(self, score: Callable[..., np.ndarray], *angles: int) -> tuple[np.ndarray, np.ndarray]:
        """Grid search, then refinement, over the phase patterns exp(j arg(W a))
        of the span of the M x 2 basis W, a = (cos psi, sin psi e^{j chi}), and
        over any further angles the score takes.

        psi takes SEARCH_GRID[0] cell midpoints of [0, pi/2] and chi
        SEARCH_GRID[1] points on [0, 2 pi); each further axis has angles[i]
        points on [0, 2 pi).  Entries where W a vanishes take phase 0, so s
        stays exact.  score(s, *rest) scores S product grids at once: s = W^H theta
        of their patterns, shape (2, S, n) with the n = n_psi n_chi patterns of
        a grid in C order, and each further axis an (S, n_i) array; the values,
        lower better, go back as an (S, n n_2 ...) array in C order.  The
        coordinates s come in closed form (`coordinates`), at O(M) per
        pattern with SEARCH_CHUNK magnitudes formed at a time, and only for
        the grids not in the memo, so a grid is formed once per memo; only
        the returned pattern is formed.  Each of the SEARCH_STARTS lowest
        points of the full grid starts a refinement: each round scores
        2 SEARCH_HALF_WIDTH + 1 points per axis around every start's best point
        so far, at 1 / SEARCH_SHRINK of the previous step.  Returns the pattern
        and the coordinates of the best point seen.  Raises ValueError unless W
        is M x 2.
        """
        if self.basis.shape[1] != 2:
            raise ValueError(f"the pattern search needs an M x 2 span basis, got {self.basis.shape}")
        counts = SEARCH_GRID + angles

        def evaluate(psi: np.ndarray, chi: np.ndarray, *rest: np.ndarray) -> np.ndarray:
            return score(self.coordinates(psi, chi), *rest)

        steps = np.array([0.5 * math.pi / counts[0]] + [2.0 * math.pi / n for n in counts[1:]])
        axes = [(np.arange(counts[0]) + 0.5) * steps[0]]
        axes += [np.arange(n) * h for n, h in zip(counts[1:], steps[1:])]
        values = evaluate(*(x[None, :] for x in axes))[0]
        top = lowest(values, SEARCH_STARTS)
        best = values[top]
        at = np.column_stack([x[i] for x, i in zip(axes, np.unravel_index(top, counts))])
        offsets = np.arange(-SEARCH_HALF_WIDTH, SEARCH_HALF_WIDTH + 1)
        rows = np.arange(top.size)
        for _ in range(SEARCH_ROUNDS):
            steps = steps / SEARCH_SHRINK
            patch = at[:, :, None] + offsets * steps[:, None]
            values = evaluate(*patch.transpose(1, 0, 2))
            k = np.argmin(values, axis=1)
            idx = np.unravel_index(k, (offsets.size,) * len(counts))
            moved = np.column_stack([patch[rows, d, i] for d, i in enumerate(idx)])
            better = values[rows, k] < best
            best = np.where(better, values[rows, k], best)
            at = np.where(better[:, None], moved, at)
        at = at[int(np.argmin(best))]
        return _span_candidates(self.basis, at[:1], at[1:2])[:, 0], at


def _span_start(pp: PhaseProblem, theta0: np.ndarray, memo: SpanMemo) -> np.ndarray:
    """The better of theta0 and the best phase pattern of the ratio's span.

    t = U theta + c reads theta only through W^H theta, W an orthonormal
    basis of the row space of [U_B; U_E], rank two on line-of-sight links.
    The ratio's gradient lies in range(W), so its stationary points are
    e^{j phi} exp(j arg(W a)) with a = (cos psi, sin psi e^{j chi}), up to
    a sign on entries where W a is small.  `SpanMemo.search` hands over
    s = W^H theta per (psi, chi), at O(M) each.  The streams e^{j phi} (U W) s
    + c are not formed: each side's Gram entries are 2 x 2, linear or
    constant forms in s, taken once per block, so a pattern's entries cost
    O(1) from the moments of s, with no K axis.  The common rotation phi,
    which the direct path c makes matter, makes each side's factor a
    degree-2 trigonometric series in e^{j phi}, and the SEARCH_ROTATIONS
    values of phi are one product of the series' real columns with a table
    of cos and sin per side (`rates.PhaseProblem.span_ratio`).  The best
    candidate and theta0 are compared on the exact ratio.  W and the
    coordinates already formed on it come from the run's memo, which
    searches only on the basis it hands out (`SpanMemo.basis_of`).

    Returns theta0 itself when no candidate beats it or the span is not two
    dimensional.  A silent surface has no span, and channels that are not
    line of sight span more.  A one-dimensional span (Bob and Eve on one line
    from the surface) leaves the ratio bounded in W^H theta, so its maximum
    can lie inside the reachable set, away from every pattern of the family.
    """
    basis = memo.basis_of(pp.u_b.conj().T, pp.u_e.conj().T)
    if basis.shape[1] != 2:
        return theta0
    ratio = pp.span_ratio(basis)
    pattern, (_, _, phi) = memo.search(
        lambda s, phi: -ratio(s, phi).reshape(s.shape[1], -1), SEARCH_ROTATIONS)
    cand = np.exp(1j * phi) * pattern
    return cand if pp.ratio(cand) > pp.ratio(theta0) else theta0


def ga_optimize_theta(
    pp: PhaseProblem,
    theta0: np.ndarray,
    opts: GaOptions,
    epsilon: float,
    memo: SpanMemo | None = None,
) -> np.ndarray:
    """Best unit-modulus phase vector for f/g: a span search for the start,
    then gradient ascent along the circle (`_ascend`) as a polish.

    The start is the best phase pattern of the ratio's two-dimensional span
    (`_span_start`) if it beats theta0, else theta0.  When the span is not
    two dimensional (a silent surface, channels that are not line of sight,
    or Bob and Eve on one line from the surface), the block is the ascent
    from theta0 alone.  memo, the run's `SpanMemo`, lends the search the
    basis and coordinates of earlier blocks; without it the block searches
    cold.
    """
    return _ascend(pp, _span_start(pp, theta0, memo or SpanMemo()), opts, epsilon)


def _ascend(pp: PhaseProblem, theta0: np.ndarray, opts: GaOptions, epsilon: float) -> np.ndarray:
    """Gradient ascent on f/g along each phase's unit circle.

    A step moves theta to theta * exp(j alpha d), d = Im(conj(theta) * g)
    scaled to unit norm, g the conjugate gradient (`PhaseProblem.gradient`):
    d is the ratio's gradient in the phase angles, the Riemannian gradient
    on the circle.  The first step tries alpha = 1, each later one twice the
    last accepted alpha, at most pi, and alpha halves on each trial that
    does not strictly raise the ratio, with no cap on the trials.  Stops
    when an accepted step gains less than epsilon bits, when alpha max|d|
    falls below 2^-52 (no representable step helps), or after
    opts.max_ga_iters steps.  Returns theta0 if no step is accepted.
    """
    theta = theta0
    f_cur = pp.ratio(theta)
    alpha = 1.0
    for _ in range(opts.max_ga_iters):
        d = np.imag(theta.conj() * pp.gradient(theta))
        norm = np.linalg.norm(d)
        if not np.isfinite(norm) or norm == 0.0:
            break
        d /= norm
        reach = np.max(np.abs(d))
        while alpha * reach >= 2.0 ** -52:
            cand = theta * np.exp(1j * alpha * d)
            f_cand = pp.ratio(cand)
            if f_cand > f_cur:
                break
            alpha *= 0.5
        else:
            break
        gain_bits = math.log2(f_cand / f_cur)
        theta, f_cur = cand, f_cand
        if gain_bits < epsilon:
            break
        alpha = min(2.0 * alpha, math.pi)
    return theta


def initial_beamformers(dm: DerivedModel) -> tuple[np.ndarray, np.ndarray]:
    """Top two right singular directions of the model's composite channel to
    Bob, H_B at the model's theta.

    Falls back to canonical basis vectors when the channel does not expose
    two usable directions (e.g. K = 1 leaves the second singular value at 0),
    and to v2 = v1 when N = 1.
    """
    n = dm.H_B.shape[1]
    _, svals, vh = np.linalg.svd(dm.H_B, full_matrices=False)
    v1 = vh[0].conj() if svals[0] > 0 else np.eye(n)[0].astype(complex)
    if len(svals) > 1 and svals[1] > 1e-12 * svals[0]:
        v2 = vh[1].conj()
    elif n > 1:
        v2 = np.eye(n)[1].astype(complex)
    else:  # one antenna: both streams share its only direction
        v2 = v1
    return v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)


def alternate(
    dm: DerivedModel,
    steps: Sequence[Callable[[DerivedModel], DerivedModel]],
    max_outer: int,
) -> Solution:
    """Run the block steps in turn from the rate model dm until one pass
    gains at most dm.cfg.epsilon in the rate gap.

    The model is the run's one state, and each step moves it: a beamformer
    step keeps its theta terms (`DerivedModel.with_beamformer`), and a phase
    step forms new ones (`DerivedModel.with_theta`).

    The stop test uses the unclipped gap R_B - R_E, so a run whose gap is
    still negative keeps climbing; rs_trace holds the clipped secrecy rate.
    A pass that lowers the gap (each block raises it, but solves of pencils
    with entries near 1e8 lose digits) is undone: the run keeps the previous
    rate model, repeats the previous rate in the trace and stops as
    converged.  The trace is therefore non-decreasing.

    Returns the run's `Solution`: the last model's precoders and AN
    projector, sr = rs_trace[-1], and per_draw None.
    """
    trace = [secrecy_rate(dm)]
    gap = unclipped_gap(trace[-1], dm)
    converged, iterations = False, 0
    for iterations in range(1, max_outer + 1):
        dm_prev = dm
        for step in steps:
            dm = step(dm)
        sr = secrecy_rate(dm)
        gap_new = unclipped_gap(sr, dm)
        if gap_new < gap:
            dm, sr, gap_new = dm_prev, trace[-1], gap
        trace.append(sr)
        gap, gap_prev = gap_new, gap
        if gap - gap_prev <= dm.cfg.epsilon:
            converged = True
            break
    return Solution(
        v1=dm.prec.v1,
        v2=dm.prec.v2,
        theta=dm.prec.theta,
        p_an=dm.P_AN,
        sr=float(trace[-1]),
        rs_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


def run_gai(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: GaOptions | None = None,
    fixed_theta: np.ndarray | DerivedModel | None = None,
) -> Solution:
    """Alternate the v1, v2 and theta blocks until the rate-gap gain falls below epsilon.

    With fixed_theta the phases stay fixed and only the beamformers move;
    without, they start from all ones.  fixed_theta is either the phase
    vector or a rate model of cfg and channels at it, whose channel and
    theta terms the run then reads instead of forming its own (the
    random-phase baseline hands each draw a model on the call's one set of
    channel terms, Q included); a model of other inputs raises ValueError.
    Each beamformer step checks only the beamformer it replaced
    (`Precoders.with_beamformer`).  Returns `alternate`'s `Solution`.
    """
    opts = opts or GaOptions()
    if isinstance(fixed_theta, DerivedModel):
        dm = fixed_theta
        if dm.cfg != cfg or dm.ch is not channels:
            raise ValueError("the rate model handed to run_gai is not of its cfg and channels")
    else:
        theta = np.ones(cfg.M, dtype=complex) if fixed_theta is None else np.asarray(fixed_theta, dtype=complex)
        if theta.shape != (cfg.M,):
            raise ValueError(f"fixed_theta has shape {theta.shape}; expected ({cfg.M},) for M = {cfg.M}")
        e1 = np.eye(cfg.N, dtype=complex)[0]
        dm = derived_model(cfg, channels, Precoders(v1=e1, v2=e1, theta=theta))
    v1, v2 = initial_beamformers(dm)
    dm = dm.with_beamformer("v1", v1).with_beamformer("v2", v2)
    steps = []
    if cfg.beta1 > 0:
        steps.append(lambda dm: dm.with_beamformer("v1", update_v1(dm)))
    if cfg.beta2 > 0:
        steps.append(lambda dm: dm.with_beamformer("v2", update_v2(dm)))
    if fixed_theta is None:
        memo = SpanMemo()
        # solve the phase block well below the outer tolerance: stopping
        # the ascent at the outer epsilon meters a shallow-ridge climb out
        # over many outer passes instead of finishing it in one
        steps.append(lambda dm: dm.with_theta(
            ga_optimize_theta(PhaseProblem(dm), dm.prec.theta, opts, GA_TOL, memo)))
    return alternate(dm, steps, opts.max_outer)
