"""Secrecy-rate evaluation for the two-stream transmission with artificial noise.

Alice sends two confidential streams along unit-norm beamformers v1, v2 and
fills the remaining power budget with artificial noise shaped so that neither
the surface nor Bob receives any of it.  Bob's and Eve's rates are log-det
expressions of the effective (surface + direct) channels; the secrecy rate is
their clipped difference.  `PhaseProblem` is the same difference as a function
of the surface phases, the objective of both optimizers' phase steps.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import ChannelSet, SystemConfig

PINV_CUTOFF = 1e-10  # relative cutoff on squared singular values when forming projectors


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().mT)


def _hypot(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def check_finite(*arrays: np.ndarray) -> None:
    """Raise ValueError if any entry of the arrays is NaN or infinite
    (numpy's factorizations would pass such entries on or ignore them)."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("matrix has non-finite entries")


def _check_vector(key: str, value: np.ndarray, rows: tuple[int, ...] = ()) -> None:
    """Raise ValueError unless value is a vector with at least one entry,
    or a stack of them with the leading shape rows."""
    shape = np.shape(value)
    if len(shape) != len(rows) + 1 or shape[:-1] != rows or shape[-1] == 0:
        per_row = " per phase vector" if rows else ""
        raise ValueError(f"{key} must be a vector with at least one entry{per_row}, got shape {shape}")


def _check_beamformer(key: str, v: np.ndarray, other: str, size: int) -> None:
    """Raise ValueError unless the beamformer v, or every row of a stack of
    them, has unit norm and the size entries of the other beamformer."""
    if np.shape(v)[-1] != size:
        raise ValueError(f"{key} must have the {size} entries of {other}, got {np.shape(v)[-1]}")
    nrm = np.sqrt(np.vecdot(v, v).real)
    # written so that NaN fails: every comparison with NaN is False
    unit = np.abs(nrm - 1.0) <= 1e-9
    if not unit.all():
        raise ValueError(f"{key} must have unit norm, got {float(nrm[~unit][0])!r}")


def _check_unit_modulus(theta: np.ndarray) -> None:
    err = float(np.max(np.abs(np.abs(theta) - 1.0)))
    if not err <= 1e-9:
        raise ValueError(f"theta entries must have unit modulus (max error {err!r})")


@dataclass(frozen=True, eq=False)
class Precoders:
    """Unit-norm beamformers and the unit-modulus reflection phases, or a
    stack of them: one row each per phase vector of a stack theta (D, M)."""

    v1: np.ndarray      # (N,), or (D, N)
    v2: np.ndarray      # (N,), or (D, N)
    theta: np.ndarray   # (M,), or (D, M), entries on the unit circle

    def __post_init__(self) -> None:
        rows = np.shape(self.theta)[:-1][:1]  # at most one row axis
        for key in ("v1", "v2", "theta"):
            _check_vector(key, getattr(self, key), rows)
        for key in ("v1", "v2"):
            _check_beamformer(key, getattr(self, key), "v1", np.shape(self.v1)[-1])
        _check_unit_modulus(self.theta)

    def with_beamformer(self, key: str, v: np.ndarray) -> Precoders:
        """These precoders with beamformer key ("v1" or "v2") replaced by v.

        Only v is checked, as `__post_init__` checks a beamformer: the other
        one and theta are this instance's, checked when it was made and never
        changed in place, so a beamformer step skips the O(M) scan of theta.
        """
        other = "v2" if key == "v1" else "v1"
        _check_vector(key, v, np.shape(self.theta)[:-1])
        _check_beamformer(key, v, other, np.shape(getattr(self, other))[-1])
        return self._with(**{key: v})

    def _with(self, **fields: np.ndarray) -> Precoders:
        """These precoders with fields replaced by values that need no new
        check: a checked beamformer or theta, or rows of checked precoders."""
        new = object.__new__(Precoders)
        vars(new).update(vars(self), **fields)
        return new


def null_projector(rows: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the directions that every row of `rows` misses.

    Removes the right singular vectors whose singular values exceed
    sqrt(PINV_CUTOFF) * s_max, an orthonormal basis of the row space, at
    cost O(rows * N^2).
    """
    n = rows.shape[1]
    _, svals, vh = np.linalg.svd(rows, full_matrices=False)
    basis = vh[svals > np.sqrt(PINV_CUTOFF) * svals[0]]
    return _herm(np.eye(n) - basis.conj().T @ basis)


def an_projector(H_AI: np.ndarray, H_AB: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto directions invisible to both the surface and Bob.

    Stacks the surface channel on top of Bob's conjugated channel and removes
    the row space of the stack, so noise shaped by the projector reaches Eve
    only through her own direct channel.
    """
    return null_projector(np.vstack([H_AI, H_AB.conj().T]))


def eve_whitener(a: np.ndarray) -> np.ndarray:
    """Whitener W (K, K) of Eve's AN-plus-noise covariance B = I + A A^H,
    noise-normalized, W^H W = B^-1, for the AN's image A (K, N) at Eve.

    One SVD A = U s V^H gives B's eigenvectors U and eigenvalues 1 + s^2,
    and W = diag(1 + s^2)^-1/2 U^H, the full U when K > N.  The eigenvalues
    keep the unit ones exact, where a factor of the formed B loses about
    eps ||B|| of them; B itself is never formed.  A zero image (no AN)
    gives W = I exactly.  Raises ValueError if A has non-finite entries.
    """
    check_finite(a)
    k = a.shape[0]
    if not a.any():
        return np.eye(k, dtype=complex)
    u, svals, _ = np.linalg.svd(a, full_matrices=k > a.shape[1])
    lam = np.ones(k)
    lam[:svals.size] += svals ** 2
    return u.conj().T / np.sqrt(lam)[:, None]


def composite_channels(ch: ChannelSet, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled channels to Bob and to Eve, (K, N) each, at the phases theta
    (M,), or stacks (D, K, N) at a stack (D, M): the direct path plus the
    path reflected by the surface."""
    return tuple(np.sqrt(g_ir) * ((h_ir.conj().T * theta[..., None, :]) @ ch.H_AI) + np.sqrt(g_a) * h_a.conj().T
                 for h_ir, g_ir, h_a, g_a in ((ch.H_IB, ch.g_AIB, ch.H_AB, ch.g_AB),
                                              (ch.H_IE, ch.g_AIE, ch.H_AE, ch.g_AE)))


def phase_maps(dm: DerivedModel) -> tuple[np.ndarray, ...]:
    """Each side's received streams as an affine map of the phases, t = U
    theta + c, at the model's beamformers: (U_B, c_B, U_E, c_E), with U (2K,
    M) the reflected path and c (2K,) the direct one.

    Stream i's K rows of t, stream 1 first, are c_i H_B v_i on Bob's side
    and c_i G_E v_i = c_i W H_E v_i on Eve's, c_i the stream's scale
    (`ChannelTerms.scales`): Eve's rows are whitened by the model's W.  The
    maps depend on the beamformers and the channel terms, not on theta, and
    are formed by their only readers, `PhaseProblem` and `nsp.phase_blocks`.
    """
    ch, prec = dm.ch, dm.prec
    beams = (prec.v1, prec.v2)
    at_surface = [ch.H_AI @ v for v in beams]
    maps = []
    for h_ir, g_ir, h_a, g_a, w in ((ch.H_IB, ch.g_AIB, ch.H_AB, ch.g_AB, None),
                                    (ch.H_IE, ch.g_AIE, ch.H_AE, ch.g_AE, dm.W)):
        h_ir_h, h_a_h = h_ir.conj().T, h_a.conj().T
        u = [c * np.sqrt(g_ir) * (h_ir_h * g[None, :]) for c, g in zip(dm.scales, at_surface)]
        d = [c * np.sqrt(g_a) * (h_a_h @ v) for c, v in zip(dm.scales, beams)]
        if w is not None:
            u, d = [w @ x for x in u], [w @ x for x in d]
        maps += [np.vstack(u), np.concatenate(d)]
    return tuple(maps)


def unit_stack(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The non-zero parts, of one row count, scaled to unit Frobenius norm,
    side by side."""
    # the empty block with no columns keeps the stack defined when every part is zero
    return np.hstack([parts[0][:, :0]] + [p / nrm for p in parts if (nrm := np.linalg.norm(p)) > 0])


def channel_basis(ch: ChannelSet) -> np.ndarray:
    """Orthonormal columns Q (N, r) spanning the column space of [H_AB, H_AE,
    H_AI^H], each part scaled to unit Frobenius norm (`unit_stack`), plus
    one unit direction outside it when that space has fewer than N
    dimensions.

    Whatever the phases, the rows of both composite channels lie in this
    space, so it holds the row space of every H_B and H_E of the run.  The
    rank is numpy's numerical rank (`np.linalg.matrix_rank`) of the stack:
    singular values above s_max * max(N, 2K + M) * eps.  Both quotients of
    `beam_quotient` equal the identity outside the space, so their pencil
    compressed to this basis has the maximum of the full N x N pencil, 1
    included when Eve beats Bob everywhere inside it.  The projectors' cut,
    sqrt(PINV_CUTOFF) s_max, would drop directions that still move the
    maximum: direct paths at 1e-6 of the surface path move it by 8e-5
    relative at 80 dB of transmit SNR.  The unit scaling keeps the cut
    independent of each part's size beside the others.

    The stack's left singular vectors are the right singular vectors of
    the QR triangle of its conjugate transpose, at most N x N, so no factor
    with the stack's 2K + M columns is formed.
    """
    cols = unit_stack([ch.H_AB, ch.H_AE, ch.H_AI.conj().T])
    check_finite(cols)
    n = cols.shape[0]
    _, svals, vh = np.linalg.svd(np.linalg.qr(cols.conj().T, mode="r"))
    rank = int(np.sum(svals > svals[:1] * max(cols.shape) * np.finfo(float).eps))
    return vh[:min(rank + 1, n)].conj().T


@dataclass(frozen=True, eq=False)
class ChannelTerms:
    """The rate model's terms that depend on the channels alone, formed
    once per run: the AN projector P_AN, the whitener W of Eve's
    AN-plus-noise covariance B, W^H W = B^-1, from one SVD of the AN's image
    at Eve (`eve_whitener`), each stream's amplitude over the noise, c_i =
    sqrt(beta_i ps) / sigma, and, on first read, the channel basis Q
    (`channel_basis`), in which GAI solves its beamformer pencils, and Q^H Q
    (NSP forms neither).  Bob hears both streams through one composite
    channel H_B and Eve through one H_E; the rates apply c_i to H_B v_i and
    G_E v_i."""

    cfg: SystemConfig
    ch: ChannelSet      # with both surface gains zeroed when built without the surface
    P_AN: np.ndarray
    W: np.ndarray       # (K, K), W^H W = B^-1
    scales: tuple[float, float]

    @cached_property
    def Q(self) -> np.ndarray:  # (N, r), r <= N
        return channel_basis(self.ch)

    @cached_property
    def Q_gram(self) -> np.ndarray:  # Q^H Q
        return self.Q.conj().T @ self.Q


def _of_terms(name: str) -> property:
    """A model's channel term."""
    return property(lambda dm: getattr(dm.terms, name))


@dataclass(frozen=True, eq=False)
class DerivedModel:
    """The rate model at the precoders prec, the state of both optimizers:
    the run's channel terms, cfg, ch, P_AN, W, scales, Q and Q_gram, and its
    theta terms, at prec's phases theta of cfg.M entries on the unit circle:
    the unscaled composite channels H_B and H_E and Eve's whitened channel
    G_E = W H_E, (K, N) each, and the products with the channel basis Q that
    every beamformer step reads, Q_products = (H_B Q, G_E Q).  At a stack of
    precoders, one row per phase vector of a stack theta (D, M), the rows
    of one alternation (`gai.alternate`), each its own run, every term but
    the channel terms is the stack of the rows' terms on a leading axis,
    every slice equal to the term of its own phases to the bit.

    The theta terms are formed on their first read, so nothing reads the
    composites at NSP's first, all-ones phases, and NSP, which reads no Q,
    forms no products.  A block step moves the model in one of two ways: a
    beamformer move (`with_beamformer`) carries the theta terms already
    formed, and a phase move (`with_theta`) starts with none, at the same
    channel terms, so a model built without the surface stays without it.
    """

    terms: ChannelTerms
    prec: Precoders

    cfg, ch, P_AN, W, scales, Q, Q_gram = map(_of_terms, ("cfg", "ch", "P_AN", "W", "scales", "Q", "Q_gram"))

    @cached_property
    def _channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h_b, h_e = composite_channels(self.ch, self.prec.theta)
        return h_b, h_e, self.W @ h_e

    H_B = property(lambda self: self._channels[0], doc="(K, N) composite channel to Bob.")
    H_E = property(lambda self: self._channels[1], doc="(K, N) composite channel to Eve.")
    G_E = property(lambda self: self._channels[2], doc="(K, N) W H_E.")

    @cached_property
    def Q_products(self) -> tuple[np.ndarray, np.ndarray]:
        """H_B and G_E in the coordinates of the channel basis Q."""
        return self.H_B @ self.Q, self.G_E @ self.Q

    def _at(self, prec: Precoders, keep: np.ndarray | None = None) -> DerivedModel:
        """The model at prec, which holds this model's phases (the rows of
        its stack where keep holds, if given), with the theta terms already
        formed here (sliced to those rows), not formed again."""
        new = DerivedModel(self.terms, prec)
        for name in ("_channels", "Q_products"):
            if name in vars(self):
                vars(new)[name] = vars(self)[name] if keep is None else tuple(x[keep] for x in vars(self)[name])
        return new

    def with_beamformer(self, key: str, v: np.ndarray) -> DerivedModel:
        """The model with beamformer key ("v1" or "v2") replaced by v
        (`Precoders.with_beamformer`), with the theta terms already formed."""
        return self._at(self.prec.with_beamformer(key, v))

    def with_theta(self, theta: np.ndarray) -> DerivedModel:
        """The model at the phases theta, with the same beamformers.

        theta is checked here, once: it must have the shape of the model's
        phases and unit modulus.  The beamformers are this model's, checked
        when they were made, so they are not checked again.
        """
        if np.shape(theta) != np.shape(self.prec.theta):
            raise ValueError(f"theta has shape {np.shape(theta)}; expected {np.shape(self.prec.theta)}")
        _check_unit_modulus(theta)
        return DerivedModel(self.terms, self.prec._with(theta=theta))

    def rows(self, keep: np.ndarray) -> DerivedModel:
        """The model at the rows of its stack where keep holds, its formed
        theta terms sliced."""
        return self._at(self.prec._with(**{key: x[keep] for key, x in vars(self.prec).items()}), keep)

    def where(self, keep: np.ndarray, other: DerivedModel) -> DerivedModel:
        """This model at the rows where keep holds and other at the rest.

        A model of one row is one or the other.  Rows of a stack mix only
        at one stack of phases, as the beamformer moves of a fixed-phase
        alternation leave them, so only the beamformers are picked row by
        row.
        """
        if keep.all():
            return self
        if not keep.any():
            return other
        pick = {key: np.where(keep[:, None], getattr(self.prec, key), getattr(other.prec, key))
                for key in ("v1", "v2")}
        return self._at(self.prec._with(**pick))


def derived_model(cfg: SystemConfig, ch: ChannelSet, prec: Precoders,
                  include_irs: bool = True) -> DerivedModel:
    """A fresh rate model at (v1, v2, theta): its channel terms (the AN
    projector; from the AN's image at Eve, A = sqrt(beta3 ps g_AE) / sigma
    H_AE^H P_AN, the whitener W of Eve's B = I + A A^H (`eve_whitener`);
    the stream scales; the channel basis Q, `channel_basis`, on first
    read), and the theta terms of prec's phases, on first read.

    With include_irs=False both surface path gains are zeroed, which models
    a system without the surface while keeping the rest of the pipeline
    intact.  Raises ValueError if prec's sizes are not cfg's N and M.
    """
    for key, dim in (("v1", "N"), ("v2", "N"), ("theta", "M")):
        if (size := np.shape(getattr(prec, key))[-1]) != getattr(cfg, dim):
            raise ValueError(f"{key} has {size} entries; expected {dim} = {getattr(cfg, dim)}")
    if not include_irs:
        ch = replace(ch, g_AIB=0.0, g_AIE=0.0)
    p_an = an_projector(ch.H_AI, ch.H_AB)
    scale = math.sqrt(cfg.beta3 * cfg.ps_watts * ch.g_AE) / cfg.sigma_watts_sqrt
    w = eve_whitener(scale * (ch.H_AE.conj().T @ p_an))
    scales = tuple(np.sqrt(beta * cfg.ps_watts) / cfg.sigma_watts_sqrt for beta in (cfg.beta1, cfg.beta2))
    return DerivedModel(ChannelTerms(cfg=cfg, ch=ch, P_AN=p_an, W=w, scales=scales), prec)


def _check_phases(dm: DerivedModel, prec: Precoders) -> None:
    """Raise ValueError unless prec, if not the model's own precoders,
    holds the model's phases: its composite channels are those of its own
    theta."""
    if prec is not dm.prec and not np.array_equal(prec.theta, dm.prec.theta):
        raise ValueError("precoders' theta is not the rate model's; move the model there with `with_theta`")


def _det2(t1: np.ndarray, t2: np.ndarray, n1: np.ndarray | None = None,
          a12: np.ndarray | None = None) -> float | np.ndarray:
    """det(I_2 + [t1 t2]^H [t1 t2]) of two streams (K,), or of each pair of
    rows of stacks (D, K), in a form with no subtraction: (1 + |t1|^2)(1 +
    |p|^2) + |t1^H t2|^2 / |t1|^2, p = t2 minus its projection onto t1.
    n1 = |t1|^2 and a12 = t1^H t2 are formed here unless given.

    The Gram form a11 a22 - |a12|^2 cancels when the streams are near
    collinear at high SNR, and so does a K x K factorization of I + t1 t1^H
    + t2 t2^H: both lose about eps |t|^2 relative.  Here every term keeps
    its relative accuracy.  A silent t1 (|t1| = 0, so t1^H t2 = 0) divides
    by 1 instead, which leaves p = t2 and the last term 0.  A NaN anywhere
    gives NaN.
    """
    n1 = np.vecdot(t1, t1).real if n1 is None else n1
    a12 = np.vecdot(t1, t2) if a12 is None else a12
    safe = n1 + (n1 == 0.0)
    p = t2 - (a12 / safe * t1.T).T
    m12 = _hypot(a12)
    return (1.0 + n1) * (1.0 + np.vecdot(p, p).real) + m12 * m12 / safe


def _log2_det2(t1: np.ndarray, t2: np.ndarray) -> float | np.ndarray:
    """log2 of `_det2`, a float for one pair of streams and an array for
    stacks, each entry by math.log2 (numpy's log2 differs from it in the last
    bit on some inputs).  Raises ValueError if a factor is not finite."""
    det = _det2(t1, t2)
    dets = np.ravel(det).tolist()
    if not all(map(math.isfinite, dets)):
        raise ValueError("matrix has non-finite entries")
    return np.array(list(map(math.log2, dets))).reshape(np.shape(det))[()]


def _rate(dm: DerivedModel, prec: Precoders, h: np.ndarray) -> float | np.ndarray:
    """log2 det(I_2 + T^H T) (`_det2`) of the streams T = [c1 h v1, c2 h v2]
    of prec's beamformers through the receiver channel h, at O(K N); prec
    must hold the model's phases."""
    _check_phases(dm, prec)
    c1, c2 = dm.scales
    return _log2_det2(c1 * np.matvec(h, prec.v1), c2 * np.matvec(h, prec.v2))


def rate_bob(dm: DerivedModel, prec: Precoders) -> float | np.ndarray:
    """Bob's achievable sum rate over the two streams, bits/s/Hz, for prec's
    beamformers at the model's phases, which prec must hold; one per row of
    a stack: log2 det(I + t1 t1^H + t2 t2^H), t_i = c_i H_B v_i (`_rate`).
    """
    return _rate(dm, prec, dm.H_B)


def rate_eve(dm: DerivedModel, prec: Precoders) -> float | np.ndarray:
    """Eve's rate with the artificial noise folded into her noise covariance,
    for prec's beamformers at the model's phases, which prec must hold; one
    per row of a stack: log2 det(I + S B^-1) = log2 det(B + S) - log2 det B,
    her streams whitened by the model's W, G_E = W H_E (`_rate`): no
    factorization per evaluation.
    """
    return _rate(dm, prec, dm.G_E)


def rate_gap(dm: DerivedModel) -> float | np.ndarray:
    """R_B - R_E at the model's precoders, one per row of a stack."""
    return rate_bob(dm, dm.prec) - rate_eve(dm, dm.prec)


def secrecy_rate(dm: DerivedModel) -> float | np.ndarray:
    """Clipped rate advantage max(0, R_B - R_E) in bits/s/Hz at the model's
    precoders, one per row of a stack."""
    return np.maximum(0.0, rate_gap(dm))


def unclipped_gap(sr: float | np.ndarray, dm: DerivedModel) -> float | np.ndarray:
    """R_B - R_E from the secrecy rate sr of the same model, recomputed only
    if a row's rate is clipped."""
    return sr if np.all(sr > 0) else rate_gap(dm)


def _downdated_gram(gram: np.ndarray, h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """gram + h^H (I + t t^H)^-1 h for h (K, r) and the stream t (K,), or for
    each slice of stacks h (D, K, r) and t (D, K), with the inverse as a
    rank-one downdate of the identity (Sherman-Morrison): I - e e^H + e e^H
    / (1 + |t|^2), e = t / |t|.  Written as gram + (P h)^H (P h) + c^H c /
    (1 + |t|^2), P = I - e e^H and c = e^H h, it subtracts no two Gram terms,
    so the directions along t keep their relative accuracy at high SNR;
    O(K r^2), no solve.  A silent t (|t| = 0) takes e = t = 0, which leaves
    gram + h^H h."""
    n = np.vecdot(t, t).real
    e = (t.T / np.sqrt(n + (n == 0.0))).T
    c = e.conj()[..., None, :] @ h
    ph = h - e[..., None] * c
    return gram + ph.conj().mT @ ph + c.conj().mT * (c.T / (1.0 + n)).T


def unit_rows(v: np.ndarray) -> np.ndarray:
    """v / ||v||, for a vector or for each row of a stack (D, n); the norm is
    np.linalg.norm's, sqrt(Re v . Re v + Im v . Im v), to the bit."""
    re, im = v.real, v.imag
    return (v.T / np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))).T


def whiten_rank_one(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I + t t^H)^-1/2 x for the stream t (K,) and x (K, ...), in the
    closed rank-one form of `_downdated_gram`: x - e (e^H x)(1 - 1 / sqrt(1
    + |t|^2)), e = t / |t|, with the coefficient written as n / (r (1 + r)),
    n = |t|^2 and r = sqrt(1 + n), so that it keeps its relative accuracy
    at small n; O(K) per column, no factorization."""
    n = np.vdot(t, t).real
    if n == 0.0:
        return x
    e = t / math.sqrt(n)
    r = math.sqrt(1.0 + n)
    return x - np.multiply.outer(e, (e.conj() @ x) * (n / (r * (1.0 + r))))


def beam_quotient(dm: DerivedModel, stream: int,
                  basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the rate gap as a function of one stream's
    beamformer (stream 0 or 1), with the model's other beamformer and theta
    held fixed, in the coordinates of basis (N, r): the beamformer is basis w.
    At a stack of precoders, the pencils (D, r, r) of every row.

    R_B - R_E equals a constant plus log2 of v^H num v / v^H den v at unit
    norm, num = I + c^2 H_B^H cov_B^-1 H_B and den = I + c^2 H_E^H cov_E^-1
    H_E, c the stream's scale; the other stream t is folded into the
    effective noise on both sides, cov_B = I + t_B t_B^H and cov_E = B +
    t_E t_E^H.  Returns basis^H basis + c^2 (H basis)^H cov^-1 (H basis)
    for each: the identity gives the full N x N pencil, an orthonormal
    basis of a subspace the pencil restricted to it, and the model's
    channel basis Q, the default, the r x r pencil whose maximum is the
    full one's.  Q and Q^H Q are channel terms, formed once per run, and
    Q's products with the composite channels are theta terms, formed on
    first read after a phase move and carried by beamformer moves.
    Eve's side is read in the model's whitened channel G_E = W H_E, where
    cov_E becomes I + t t^H with t = W t_E, so both inverses are rank-one
    downdates of the identity (`_downdated_gram`): O(K r^2) per call on Q,
    O(K N r) on another basis, no K x K solve.
    """
    c = dm.scales
    v_other = (dm.prec.v1, dm.prec.v2)[1 - stream]
    gram, hb, ge = (dm.Q_gram, *dm.Q_products) if basis is None else (
        basis.conj().T @ basis, dm.H_B @ basis, dm.G_E @ basis)
    num = _downdated_gram(gram, c[stream] * hb, c[1 - stream] * np.matvec(dm.H_B, v_other))
    den = _downdated_gram(gram, c[stream] * ge, c[1 - stream] * np.matvec(dm.G_E, v_other))
    return _herm(num), _herm(den)


def _streams(u: np.ndarray, c: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One side's two streams (t1, t2), the halves of t = U theta + c."""
    r = u @ theta + c
    k = r.size // 2
    return r[:k], r[k:]


def _side(u: np.ndarray, c: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """One side's factor det(I + [t1 t2]^H [t1 t2]) at t = U theta + c
    (`_det2`), and the weights w whose image U^H w is the factor's conjugate
    gradient; the Gram entries |t1|^2 and t1^H t2 serve both."""
    t1, t2 = _streams(u, c, theta)
    n1, a12 = np.vecdot(t1, t1).real, np.vecdot(t1, t2)
    a22 = 1.0 + np.vecdot(t2, t2).real
    w = np.concatenate([a22 * t1 - a12.conjugate() * t2, (1.0 + n1) * t2 - a12 * t1])
    return _det2(t1, t2, n1, a12), w


def span_moments(s: np.ndarray) -> np.ndarray:
    """The real moments (|s0|^2, |s1|^2, Re x, Im x), x = conj(s0) s1, of
    span coordinates s, shape (2, ...), stacked on a new leading axis.

    Every 2 x 2 form s^H A s is the product of `form_weights(A)` with them,
    so a form costs O(1) per point, whatever the size of the factors behind A.
    """
    x = s[0].conj() * s[1]
    mag2 = s.real ** 2 + s.imag ** 2
    return np.array([mag2[0], mag2[1], x.real, x.imag])


def form_weights(a: np.ndarray) -> np.ndarray:
    """The weights (a00, a11, a01 + a10, j (a01 - a10)) that give the 2 x 2
    form s^H a s from `span_moments(s)`; for Hermitian a, their real part."""
    return np.array([a[0, 0], a[1, 1], a[0, 1] + a[1, 0], 1j * (a[0, 1] - a[1, 0])])


def _gram_forms(uw: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """One side's Gram entries at the streams t = U W s + c as forms in the
    span coordinates s, from the K x 2 halves A1, A2 of U W and c1, c2 of c.

    With y_i = A_i s, the entries of `_series_columns` are al_i = 1 + |c_i|^2
    + s^H A_i^H A_i s and ga = s^H A1^H A2 s + c1^H c2, 2 x 2 forms plus
    constants, and be1 = c1^H A1 s, be2 = c2^H A2 s, de = c1^H A2 s and ep
    = c2^H A1 s, linear forms; h = 2 Re(be1 conj(be2)) - |de|^2 - |ep|^2 is
    one more 2 x 2 form.  Returns the weights (4, 4) of al1, al2, h and ga
    on `span_moments(s)`, their constants (4,) and the rows (4, 2) of be1,
    be2, de and ep.
    """
    k = c.size // 2
    a1, a2, c1, c2 = uw[:k], uw[k:], c[:k], c[k:]
    b1, b2, d, e = c1.conj() @ a1, c2.conj() @ a2, c1.conj() @ a2, c2.conj() @ a1
    cross = np.outer(b2.conj(), b1)
    h = cross + cross.conj().T - np.outer(d.conj(), d) - np.outer(e.conj(), e)
    a1h = a1.conj().T
    # the first three forms are Hermitian: real weights
    quad = np.array([form_weights(a1h @ a1).real, form_weights(a2.conj().T @ a2).real,
                     form_weights(h).real, form_weights(a1h @ a2)])
    const = np.array([1.0 + np.vdot(c1, c1).real, 1.0 + np.vdot(c2, c2).real, 0.0, np.vdot(c1, c2)])
    return quad, const, np.array([b1, b2, d, e])


def _series_columns(al1, al2, h, ga, be1, be2, de, ep) -> np.ndarray:
    """The real columns (f0, Re f1, Im f1, Re f2, Im f2), on a new trailing
    axis, of one side's factor det(I + [t1 t2]^H [t1 t2]) as a degree-2
    trigonometric series in a rotation rot = e^{j phi} of the streams,
    t = rot y + c.

    The Gram entries are affine in rot and its conjugate: a11 = al1 + 2 Re(rot
    be1), a22 = al2 + 2 Re(rot be2) and a12 = ga + rot de + conj(rot ep), for
    al_i = 1 + |y_i|^2 + |c_i|^2, be_i = c_i^H y_i, ga = y1^H y2 + c1^H c2,
    de = c1^H y2 and ep = c2^H y1.  So the factor is f0 + 2 Re(f1 rot) +
    2 Re(f2 rot^2), with f0 = al1 al2 + h - |ga|^2 for h = 2 Re(be1 conj(be2))
    - |de|^2 - |ep|^2: the columns' product with `rotation_table(phi)`.
    """
    f0 = al1 * al2 + h - (ga.real ** 2 + ga.imag ** 2)
    f1 = al1 * be2 + al2 * be1 - de * ga.conj() - ga * ep
    f2 = be1 * be2 - de * ep
    out = np.empty(f0.shape + (5,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3], out[..., 4] = f0, f1.real, f1.imag, f2.real, f2.imag
    return out


def _span_columns(forms: tuple[np.ndarray, ...], s: np.ndarray) -> np.ndarray:
    """`_series_columns` of both sides, shape (2, n, 5), at the span
    coordinates s (2, n).  forms holds `_gram_forms` of both sides, each
    entry's two sides in adjacent rows: the real weights (6, 4) and
    constants (6, 1) of al1, al2 and h, the weights (2, 4) and constants
    (2, 1) of ga, and the rows (8, 2) of be1, be2, de and ep.

    A function of its own so that the entries are freed before the
    products with the rotation table: on the grid's 1152 patterns, holding
    them too would take the scorer's live arrays to about 0.5 MB, and
    glibc, which keeps at most 128 KB free on top of the heap, would hand
    the pages back and fault them in again on every grid.
    """
    real, real_c, ga_w, ga_c, lin = forms
    moments = span_moments(s)
    q = real @ moments
    q += real_c
    ga = ga_w @ moments
    ga += ga_c
    # two (4, n) products: one (8, n) complex array of the grid's 1152
    # patterns would pass malloc's 128 KB mmap threshold
    be = (lin[:4] @ s).reshape(2, 2, -1)
    de, ep = (lin[4:] @ s).reshape(2, 2, -1)
    return _series_columns(*q.reshape(3, 2, -1), ga, *be, de, ep)


def rotation_table(phi: np.ndarray) -> np.ndarray:
    """(1, 2 cos phi, -2 sin phi, 2 cos 2 phi, -2 sin 2 phi) on a new
    second-to-last axis, shape (..., 5, R) for phi (..., R): the product of
    `_series_columns` with it is each side's factor at the rotations phi."""
    out = np.empty(phi.shape[:-1] + (5, phi.shape[-1]))
    out[..., 0, :], out[..., 1, :], out[..., 2, :] = 1.0, 2.0 * np.cos(phi), -2.0 * np.sin(phi)
    out[..., 3, :], out[..., 4, :] = 2.0 * np.cos(2.0 * phi), -2.0 * np.sin(2.0 * phi)
    return out


class PhaseProblem:
    """The phase objective f(theta) / g(theta) for fixed beamformers.

    Every received stream is affine in theta, so each side's two streams
    are one stacked map t = U theta + c with U (2K, M), the model's phase
    maps (`phase_maps`).  Eve's rows are whitened by the model's W, W^H W =
    B^-1, which turns both factors into the same 2 x 2 determinant
    (`_det2`); log2(f / g) is the rate gap at unit-modulus theta.  Each
    evaluation costs O(K M).
    """

    def __init__(self, dm: DerivedModel):
        self.u_b, self.c_b, self.u_e, self.c_e = phase_maps(dm)

    def factors(self, theta: np.ndarray) -> tuple[float, float]:
        """Bob and Eve determinant factors (f, g)."""
        return _det2(*_streams(self.u_b, self.c_b, theta)), _det2(*_streams(self.u_e, self.c_e, theta))

    def ratio(self, theta: np.ndarray) -> float:
        f, g = self.factors(theta)
        return f / g

    def span_ratio(self, basis: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """f/g at the rotated points e^{j phi} W s of an M x 2 matrix W; when
        W is an orthonormal basis of a span that holds the rows of U, the
        points are e^{j phi} theta at the coordinates s = W^H theta.

        The returned function takes span coordinates s, shape (2, ..., n),
        and rotations phi, shape (..., R), and returns the ratios, shape
        (..., n, R).  Each side's Gram entries are 2 x 2, linear or constant
        forms in s (`_gram_forms`), formed here once; each point then costs
        O(1) from its `span_moments`, with no K axis, for both sides at once,
        and each side's factors at every rotation are one product of its
        `_series_columns` with `rotation_table(phi)`.
        """
        # each part of both sides, the side on the second axis
        quad, const, lin = (np.stack(part, axis=1) for part in zip(
            *(_gram_forms(u @ basis, c) for u, c in ((self.u_b, self.c_b), (self.u_e, self.c_e)))))
        forms = (quad[:3].real.reshape(6, 4), const[:3].real.reshape(6, 1),
                 quad[3], const[3][:, None], lin.reshape(8, 2))

        def ratio(s: np.ndarray, phi: np.ndarray) -> np.ndarray:
            f, g = _span_columns(forms, s.reshape(2, -1)).reshape(2, *s.shape[1:], 5)
            table = rotation_table(phi)
            out = f @ table
            return np.divide(out, g @ table, out=out)

        return ratio

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        """Conjugate (Wirtinger) gradient of f/g; ascent direction for the ratio."""
        f, w_b = _side(self.u_b, self.c_b, theta)
        g, w_e = _side(self.u_e, self.c_e, theta)
        # U^H w as conj(w^H U), which spares a conjugate copy of U
        df = np.conj(w_b.conj() @ self.u_b)
        dg = np.conj(w_e.conj() @ self.u_e)
        return (df * g - f * dg) / g ** 2
