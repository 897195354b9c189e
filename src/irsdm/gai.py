"""Alternating maximization of the secrecy rate over (v1, v2, theta).

Each beamformer update is one solve, `beam_step`: a generalized Rayleigh
quotient problem solved exactly by a Hermitian-definite eigensolver, here on
the pencil compressed to the model's channel basis Q, which holds the row
space of the composite channels at every theta, and in NSP on the pencil
compressed to the basis of the stream's null space.  The phase block
maximizes the determinant ratio f(theta) / g(theta) of
`rates.PhaseProblem`, whose base-2 logarithm equals R_B - R_E at
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
the patches that no earlier step reached.  The full grid is scored once per
basis: later steps refine from the cells that scoring picked.  Each
step keeps its incumbent unless its own objective improves.  Every block can
only increase the rate gap, and `alternate` undoes a pass that rounding
leaves lower, so the secrecy-rate trace is non-decreasing.  Where the
blocks, each at its own optimum, creep along a ridge, a pass from the third
on that does not stop ends with an extrapolated step (Xu and Yin, SIAM J.
Imaging Sci. 2013): the points x_k + t (x_k - x_{k-1}), t = 1, 2, 4, 8, 16,
phases moved in angle, each kept only while it raises the gap.
`alternate` is the one outer loop of every scheme.  Each block step maps
the rate model (`rates.DerivedModel`) to the next: a beamformer step
carries the theta terms already formed and a phase step starts with none.
gai and single_cbs run it on one row with the phase step, nsp with its own,
null-space-constrained blocks, and the fixed-phase baselines (no_irs, and
random_phase's draws) with the beamformer steps alone, on a stack of phase
vectors whose rows are each its own run (`fixed_phase_runs`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .model import ChannelSet, SystemConfig
from .rates import (
    DerivedModel,
    PhaseProblem,
    Precoders,
    _hypot,
    beam_quotient,
    check_finite,
    derived_model,
    secrecy_rate,
    unclipped_gap,
    unit_rows,
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
# The extrapolated step of both alternations (Xu and Yin, SIAM J. Imaging
# Sci. 2013): after each plain pass k >= EXTRAPOLATE_FROM that does not meet
# the stop test, the points x_k + t (x_k - x_{k-1}) for t in
# EXTRAPOLATION_STEPS, in turn, while each raises the gap.
EXTRAPOLATE_FROM = 3
EXTRAPOLATION_STEPS = (1.0, 2.0, 4.0, 8.0, 16.0)


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
    """Unit-norm maximizer of (x^H A x) / (x^H B x) for Hermitian A, B with B > 0,
    or of each slice of stacks (D, r, r), as a stack (D, r).

    B = U diag(lam) U^H gives the whitening S = U diag(lam)^-1/2, which turns
    the pencil into the ordinary eigenproblem of S^H A S; x is S times its
    top eigenvector.  numpy's eigh runs one LAPACK call per slice, so each
    slice's x equals its own call's to the bit.  Raises ValueError on
    non-finite entries or a B with an eigenvalue below 1e-12.
    """
    check_finite(a_num, b_den)
    lam, u = np.linalg.eigh(b_den)
    if min(lam[..., :1].flat) < 1e-12:
        raise ValueError("denominator matrix is numerically singular")
    s = u / np.sqrt(lam)[..., None, :]
    _, vecs = np.linalg.eigh(s.conj().mT @ a_num @ s)
    return unit_rows(np.matvec(s, vecs[..., -1]))


def beam_step(num: np.ndarray, den: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The beamformer v = basis w, w the top generalized eigenvector
    (`rayleigh_ritz_max`) of a stream's pencil (num, den) in the coordinates
    of basis (N, r), or of each row of a stack: every scheme's one exact
    beamformer solve, so it takes no incumbent."""
    return np.matvec(basis, rayleigh_ritz_max(num, den))


def update_v1(dm: DerivedModel) -> np.ndarray:
    """Best stream-1 beamformer with the model's (v2, theta) held fixed:
    `beam_step` in the model's channel basis Q (`rates.channel_basis`)."""
    return beam_step(*beam_quotient(dm, 0), dm.Q)


def update_v2(dm: DerivedModel) -> np.ndarray:
    """Best stream-2 beamformer with the model's (v1, theta) held fixed:
    `beam_step` in the model's channel basis Q (`rates.channel_basis`)."""
    return beam_step(*beam_quotient(dm, 1), dm.Q)


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
    most about 1e-12 |W_m|.  Magnitudes are formed at most SEARCH_CHUNK at
    a time, in the same pattern ranges of every row of psi, and numpy's
    stacked products take one BLAS call per row; so a row's s is the same to
    the bit whether it is formed alone or beside other rows.  Each chunk
    finds its near entries from one flat index of its mask (np.flatnonzero,
    unravelled in C order): the same entries in the same order as np.nonzero
    of the 3-D mask, which costs five times as much or more.
    """
    cross = basis[:, 0].conj() * basis[:, 1]
    table = np.column_stack([np.abs(basis) ** 2, cross.real, cross.imag])
    floor = 1e-3 * (table[:, 0] + table[:, 1])
    cos, sin = np.cos(psi), np.sin(psi)
    q = sin * np.exp(1j * chi)
    trig = np.empty(psi.shape + (4,))
    trig[..., 0], trig[..., 1] = cos * cos, sin * sin
    trig[..., 2], trig[..., 3] = 2.0 * cos * q.real, -2.0 * cos * q.imag
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
            if (flat := np.flatnonzero(near)).size:
                row, col, entry = np.unravel_index(flat, near.shape)
                near_at.append((row + top, col + lo, entry))
    p = sums[..., 2] + 1j * sums[..., 3]
    s = np.array([cos * sums[..., 0] + q * p, cos * p.conj() + q * sums[..., 1]])
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
    them, one array per grid.  `kept` holds the grid's counts and the
    SEARCH_STARTS cells that the last full-grid scoring on W picked, or
    None.  W is set only with an empty memo and no kept cells, by the
    constructor or by `basis_of`, so every entry belongs to the current W.
    A run keeps one SpanMemo from one phase step to the next: on
    line-of-sight links the span of a step's parts depends only on the
    channels, so every step can search one basis, read the patterns that
    earlier steps formed on it and refine from the cells of the run's one
    full-grid scoring.  It also holds the phase state of GAI's
    ascent, the step length `_ascend` tries next, which the next block's
    first step takes up: the memo is the one object that lives exactly as
    long as a run's phase blocks.
    """

    def __init__(self, basis: np.ndarray | None = None) -> None:
        self.basis = np.zeros((0, 0), dtype=complex) if basis is None else basis
        self.formed: dict = {}
        self.kept: tuple | None = None  # (grid counts, the cells its last full-grid scoring picked)
        self.alpha = 1.0  # the step length `_ascend` tries next in the run

    def basis_of(self, *parts: np.ndarray) -> np.ndarray:
        """The kept basis if it has two columns and the non-zero parts,
        each scaled to unit Frobenius norm, lie in its span with a residual
        of at most SPAN_CUT and span it with singular values above SPAN_CUT;
        otherwise the parts' own basis, kept from now on with an empty memo
        and no kept cells: the left singular vectors, with singular values
        above SPAN_CUT, of the scaled parts side by side."""
        cols = unit_stack(parts)
        if self.basis.shape[1] == 2 and cols.shape[1] >= 2:
            coef = self.basis.conj().T @ cols
            if (np.linalg.norm(cols - self.basis @ coef) <= SPAN_CUT
                    and np.linalg.svd(coef, compute_uv=False)[1] > SPAN_CUT):
                return self.basis
        self.basis, self.formed, self.kept = _column_basis(cols), {}, None
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
        return np.concatenate([self.formed[key] for key in keys], axis=1).reshape(2, len(keys), -1)

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
        so far, at 1 / SEARCH_SHRINK of the previous step.  The full grid is
        scored, and its starts kept, only when the memo keeps no cells of a
        grid of this shape; otherwise the kept cells start with no score,
        and the first round's patches, centred on them, score them.  Returns
        the pattern and the coordinates of the best point seen.  Raises
        ValueError unless W is M x 2.
        """
        if self.basis.shape[1] != 2:
            raise ValueError(f"the pattern search needs an M x 2 span basis, got {self.basis.shape}")
        counts = SEARCH_GRID + angles

        def evaluate(psi: np.ndarray, chi: np.ndarray, *rest: np.ndarray) -> np.ndarray:
            return score(self.coordinates(psi, chi), *rest)

        steps = np.array([0.5 * math.pi / counts[0]] + [2.0 * math.pi / n for n in counts[1:]])
        axes = [(np.arange(counts[0]) + 0.5) * steps[0]]
        axes += [np.arange(n) * h for n, h in zip(counts[1:], steps[1:])]
        if self.kept is not None and self.kept[0] == counts:
            at = self.kept[1]
            best = np.full(len(at), np.inf)
        else:
            values = evaluate(*(x[None, :] for x in axes))[0]
            top = lowest(values, SEARCH_STARTS)
            best = values[top]
            at = np.column_stack([x[i] for x, i in zip(axes, np.unravel_index(top, counts))])
            self.kept = counts, at
        offsets = np.arange(-SEARCH_HALF_WIDTH, SEARCH_HALF_WIDTH + 1)
        # the offset index on each axis of every patch point, in C order
        cells = np.indices((offsets.size,) * len(counts)).reshape(len(counts), -1).T
        rows, dims = np.arange(len(at)), np.arange(len(counts))
        at = at.copy()  # moved in place below; the kept cells stay as picked
        for _ in range(SEARCH_ROUNDS):
            steps = steps / SEARCH_SHRINK
            patch = at[:, :, None] + offsets * steps[:, None]
            values = evaluate(*patch.transpose(1, 0, 2))
            k = np.argmin(values, axis=1)
            low = values[rows, k]
            better = low < best
            np.copyto(best, low, where=better)
            np.copyto(at, patch[rows[:, None], dims, cells[k]], where=better[:, None])
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
    candidate and theta0 are compared on the exact ratio.  W, the
    coordinates formed on it and the kept grid cells come from the run's
    memo, which searches only on the basis it hands out (`SpanMemo.basis_of`).

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
    basis, coordinates and grid cells of earlier blocks, and the ascent the
    step length they left to try next; without it the block starts cold.
    """
    memo = memo or SpanMemo()
    return _ascend(pp, _span_start(pp, theta0, memo), opts, epsilon, memo)


def _ascend(pp: PhaseProblem, theta0: np.ndarray, opts: GaOptions, epsilon: float,
            memo: SpanMemo) -> np.ndarray:
    """Gradient ascent on f/g along each phase's unit circle.

    A step moves theta to theta * exp(j alpha d), d = Im(conj(theta) * g)
    scaled to unit norm, g the conjugate gradient (`PhaseProblem.gradient`):
    d is the ratio's gradient in the phase angles, the Riemannian gradient
    on the circle.  Each step, a block's first included, tries memo.alpha:
    twice the run's last accepted alpha, at most pi (1 in a fresh memo),
    and alpha halves on each trial that does not strictly raise the ratio,
    with no cap on the trials.  Stops when an accepted step gains less than
    epsilon bits, when alpha max|d| falls below 2^-52 (no representable step
    helps), or after opts.max_ga_iters steps.  Returns theta0 if no step is
    accepted.
    """
    theta = theta0
    f_cur = pp.ratio(theta)
    alpha = memo.alpha
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
        alpha = memo.alpha = min(2.0 * alpha, math.pi)
        if gain_bits < epsilon:
            break
    return theta


def initial_beamformers(dm: DerivedModel) -> tuple[np.ndarray, np.ndarray]:
    """Top two right singular directions of the model's composite channel
    to Bob, or of each row's of a stack, from one batched SVD.

    Falls back to canonical basis vectors when the channel does not expose
    two usable directions (e.g. K = 1 leaves the second singular value at 0),
    and to v2 = v1 when N = 1.
    """
    n = dm.H_B.shape[-1]
    _, svals, vh = np.linalg.svd(dm.H_B, full_matrices=False)
    eye = np.eye(n, dtype=complex)
    v1 = np.where(svals[..., :1] > 0, vh[..., 0, :].conj(), eye[0])
    if svals.shape[-1] > 1:
        v2 = np.where(svals[..., 1:2] > 1e-12 * svals[..., :1], vh[..., 1, :].conj(), eye[1])
    else:  # K = 1 or one antenna: a second canonical direction, or its only one
        v2 = np.broadcast_to(eye[1], v1.shape) if n > 1 else v1
    return unit_rows(v1), unit_rows(v2)


def _settle(gap: float | np.ndarray, gap_new: float | np.ndarray, epsilon: float) -> tuple:
    """The stop-and-undo rule of one pass from gap to gap_new, entry by
    entry for a stack of runs.

    A pass that lowers the gap (each block raises it, but solves of pencils
    with entries near 1e8 lose digits) is undone: the run keeps its previous
    state and gap.  A run stops as converged once a pass gains at most
    epsilon, so an undone pass ends it.  Returns (undone, stopped, the gap
    kept)."""
    kept = np.maximum(gap, gap_new)
    return gap_new < gap, kept - gap <= epsilon, kept


def _aligned_step(v: np.ndarray, v_prev: np.ndarray, t: float) -> np.ndarray:
    """v + t (v - e^{j phi} v_prev) at unit norm, phi = arg(v_prev^H v)
    aligning v_prev to v (phi = 0 where the two are orthogonal), for one
    beamformer or for each row of stacks (D, N).  The step is a sum of v
    and v_prev, so it stays in any subspace that holds both."""
    z = np.vecdot(v_prev, v)
    size = _hypot(z)
    turn = z / (size + (size == 0.0)) + (size == 0.0)
    return unit_rows(v + t * (v - (turn * v_prev.T).T))


def _extrapolate(dm_prev: DerivedModel, dm: DerivedModel, gap: float | np.ndarray,
                 rows: np.bool_ | np.ndarray) -> tuple:
    """The extrapolated step from the model dm_prev, before a pass, to dm
    after it, with unclipped gap gap, at the rows where rows holds.

    For t in EXTRAPOLATION_STEPS in turn, the trial point moves the phases,
    if the pass moved them, in angle, theta * exp(j t arg(theta *
    conj(theta_prev))), and each beamformer that the pass moved by
    `_aligned_step`.  A row's first t whose trial does not raise its best
    gap so far ends its step, so each row of a stack takes its own run's
    step.  Returns the model at each row's best of dm and its trials, and
    their gaps.
    """
    best = dm
    beams = [key for key in ("v1", "v2") if getattr(dm.prec, key) is not getattr(dm_prev.prec, key)]
    turned = dm.prec.theta is not dm_prev.prec.theta
    angle = np.angle(dm.prec.theta * dm_prev.prec.theta.conj()) if turned else None
    for t in EXTRAPOLATION_STEPS:
        if not rows.any():
            break
        trial = dm if angle is None else dm.with_theta(dm.prec.theta * np.exp(1j * t * angle))
        for key in beams:
            trial = trial.with_beamformer(key, _aligned_step(getattr(dm.prec, key), getattr(dm_prev.prec, key), t))
        gap_t = unclipped_gap(secrecy_rate(trial), trial)
        rows = rows & (gap_t > gap)
        best, gap = trial.where(rows, best), np.where(rows, gap_t, gap)
    return best, gap


def alternate(
    dm: DerivedModel,
    steps: Sequence[Callable[[DerivedModel], DerivedModel]],
    max_outer: int,
) -> list[Solution]:
    """Run the block steps in turn from the rate model dm until one pass
    gains at most dm.cfg.epsilon in the rate gap, for each row of a stack
    model on its own: the outer loop of every scheme.

    The model is the run's one state, and each step moves it: a beamformer
    step carries the theta terms already formed
    (`DerivedModel.with_beamformer`), and a phase step starts with none
    (`DerivedModel.with_theta`).  The optimizers run one row, with a phase
    step; the fixed-phase baselines run a stack of phase vectors
    (`fixed_phase_runs`) with the beamformer steps alone, whose batched
    kernels give each row its own run's result to the bit.

    The stop test uses the unclipped gap R_B - R_E, so a run whose gap is
    still negative keeps climbing; rs_trace holds the clipped secrecy rate.
    A pass that lowers the gap is undone (`_settle`): the run keeps the
    previous rate model, repeats the previous rate in the trace and stops
    as converged.  A pass k >= EXTRAPOLATE_FROM that does not stop ends
    with the extrapolated step (`_extrapolate`), which keeps a trial point
    only if it raises the gap, so the stop test sees the pass's whole gain.
    The trace is therefore non-decreasing.  A row that stops, or reaches
    max_outer passes, leaves the stack.

    Returns one `Solution` per row (one for a model without a row axis):
    the row's last precoders, the run's AN projector, sr = rs_trace[-1],
    and per_draw None.
    """
    sr = secrecy_rate(dm)
    gap = unclipped_gap(sr, dm)
    rows = np.arange(np.size(gap)).reshape(np.shape(gap))  # each live row's index in the first stack
    traces = np.empty((rows.size, max_outer + 1))
    traces[rows, 0] = sr
    passes = np.zeros(rows.size, dtype=int)
    converged = np.zeros(rows.size, dtype=bool)
    final = {key: np.empty((rows.size, np.shape(getattr(dm.prec, key))[-1]), dtype=complex)
             for key in ("v1", "v2", "theta")}
    for k in range(1, max_outer + 1):
        dm_prev = dm
        for step in steps:
            dm = step(dm)
        undone, stopped, gap = _settle(gap, unclipped_gap(secrecy_rate(dm), dm), dm.cfg.epsilon)
        if k >= EXTRAPOLATE_FROM:
            dm, gap = _extrapolate(dm_prev, dm, gap, ~stopped)
        dm = dm_prev.where(undone, dm)
        traces[rows, k] = np.maximum(gap, 0.0)
        leaving = stopped | (k == max_outer)
        if leaving.any():
            passes[rows[leaving]], converged[rows[leaving]] = k, stopped[leaving]
            for key, out in final.items():
                out[rows[leaving]] = getattr(dm.prec, key)[leaving]
            if leaving.all():
                break
            dm, gap, rows = dm.rows(~leaving), gap[~leaving], rows[~leaving]
    return [Solution(v1=final["v1"][i], v2=final["v2"][i], theta=final["theta"][i], p_an=dm.P_AN,
                     sr=float(traces[i, passes[i]]), rs_trace=traces[i, :passes[i] + 1].copy(),
                     iterations=int(passes[i]), converged=bool(converged[i])) for i in range(len(passes))]


def _beamformer_run(cfg: SystemConfig, channels: ChannelSet, theta: np.ndarray) -> tuple:
    """The rate model at the phases theta, (M,) or a stack (D, M), and at
    each row's initial beamformers (`initial_beamformers`), and the
    beamformer steps of the streams that carry power."""
    e1 = np.broadcast_to(np.eye(cfg.N, dtype=complex)[0], np.shape(theta)[:-1] + (cfg.N,))
    dm = derived_model(cfg, channels, Precoders(v1=e1, v2=e1, theta=theta))
    v1, v2 = initial_beamformers(dm)
    steps = []
    if cfg.beta1 > 0:
        steps.append(lambda dm: dm.with_beamformer("v1", update_v1(dm)))
    if cfg.beta2 > 0:
        steps.append(lambda dm: dm.with_beamformer("v2", update_v2(dm)))
    return dm.with_beamformer("v1", v1).with_beamformer("v2", v2), steps


def fixed_phase_runs(cfg: SystemConfig, channels: ChannelSet, thetas: np.ndarray,
                     max_outer: int) -> list[Solution]:
    """run_gai's beamformer alternation at each fixed phase vector of the
    stack thetas (D, M): `alternate` over the rows of one rate model, whose
    theta terms and batched kernels serve every row still climbing at once,
    with one `Solution` per row, each its own run's to the bit.
    """
    return alternate(*_beamformer_run(cfg, channels, thetas), max_outer)


def fold_draws(runs: Sequence[Solution]) -> Solution:
    """The random-phase record of the draws' runs: the best draw's run, with
    sr the mean rate, per_draw each draw's rate, iterations the rounded mean
    pass count and converged that of every draw."""
    per_draw = np.array([r.sr for r in runs])
    return replace(runs[int(np.argmax(per_draw))], sr=float(per_draw.mean()), per_draw=per_draw,
                   iterations=int(round(np.mean([r.iterations for r in runs]))),
                   converged=all(r.converged for r in runs))


def run_gai(
    cfg: SystemConfig,
    channels: ChannelSet,
    opts: GaOptions | None = None,
    fixed_theta: np.ndarray | Solution | None = None,
) -> Solution:
    """Alternate the v1, v2 and theta blocks until the rate-gap gain falls
    below epsilon: `alternate` on one row, from all-ones phases.

    With fixed_theta the phases stay fixed and only the beamformer blocks
    run, in the same loop (`fixed_phase_runs`): a phase vector (M,) gives
    its run's `Solution`, and a stack (D, M), whose rows run as one
    alternation, the random-phase record of the rows (`fold_draws`).  Any
    other shape raises ValueError.  A finished run (a `Solution`, such as a
    row of `fixed_phase_runs`) is handed back as it is: the random-phase
    baseline reports each draw of its stacked run through one call, because
    perfbench/tracing.py counts the draws as calls of `bench.run_gai`.
    Each beamformer step checks only the beamformer it replaced
    (`Precoders.with_beamformer`).
    """
    opts = opts or GaOptions()
    if isinstance(fixed_theta, Solution):
        return fixed_theta
    if fixed_theta is not None:
        thetas = np.asarray(fixed_theta, dtype=complex)
        if thetas.ndim not in (1, 2) or thetas.shape[-1] != cfg.M or thetas.size == 0:
            raise ValueError(f"fixed_theta has shape {thetas.shape}; expected ({cfg.M},) or (D, {cfg.M}) for M = {cfg.M}")
        runs = fixed_phase_runs(cfg, channels, thetas, opts.max_outer)
        return runs[0] if thetas.ndim == 1 else fold_draws(runs)
    memo = SpanMemo()
    # solve the phase block well below the outer tolerance: stopping
    # the ascent at the outer epsilon meters a shallow-ridge climb out
    # over many outer passes instead of finishing it in one
    dm, steps = _beamformer_run(cfg, channels, np.ones(cfg.M, dtype=complex))
    steps.append(lambda dm: dm.with_theta(ga_optimize_theta(PhaseProblem(dm), dm.prec.theta, opts, GA_TOL, memo)))
    return alternate(dm, steps, opts.max_outer)[0]
