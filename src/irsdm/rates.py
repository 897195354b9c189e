"""Secrecy-rate evaluation for the two-stream transmission with artificial noise.

Alice sends two confidential streams along unit-norm beamformers v1, v2 and
fills the remaining power budget with artificial noise shaped so that neither
the surface nor Bob receives any of it.  Bob's and Eve's rates are log-det
expressions of the effective (surface + direct) channels; the secrecy rate is
their clipped difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky

from .model import ChannelSet, SystemConfig

LOG2E = np.log2(np.e)
PINV_CUTOFF = 1e-10  # relative cutoff on squared singular values when forming projectors


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def logdet_hermitian(a: np.ndarray) -> float:
    """log2 det of a Hermitian positive definite matrix via its Cholesky factor."""
    ell = cholesky(a, lower=True)
    return 2.0 * float(np.sum(np.log(np.diag(ell).real))) * LOG2E


@dataclass(frozen=True, eq=False)
class Precoders:
    """Unit-norm beamformers and the unit-modulus reflection phases."""

    v1: np.ndarray      # (N,)
    v2: np.ndarray      # (N,)
    theta: np.ndarray   # (M,), entries on the unit circle

    def __post_init__(self) -> None:
        for key in ("v1", "v2"):
            nrm = np.linalg.norm(getattr(self, key))
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"{key} must have unit norm, got {nrm!r}")
        err = float(np.max(np.abs(np.abs(self.theta) - 1.0)))
        if err > 1e-9:
            raise ValueError(f"theta entries must have unit modulus (max error {err!r})")


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


def eve_covariance(cfg: SystemConfig, ch: ChannelSet, p_an: np.ndarray) -> np.ndarray:
    """Eve's AN-plus-noise covariance B, noise-normalized, for the AN projector p_an."""
    b = np.eye(cfg.K, dtype=complex)
    if cfg.beta3 > 0:
        scale = cfg.beta3 * cfg.ps_watts * ch.g_AE / cfg.sigma_watts_sqrt ** 2
        b = b + scale * (ch.H_AE.conj().T @ p_an @ p_an.conj().T @ ch.H_AE)
    return _herm(b)


def composite_channels(ch: ChannelSet, theta: np.ndarray,
                       include_irs: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled (K, N) channels to Bob and to Eve: the direct path plus, with
    include_irs, the path reflected by the surface at phases theta."""
    h_b = np.sqrt(ch.g_AB) * ch.H_AB.conj().T
    h_e = np.sqrt(ch.g_AE) * ch.H_AE.conj().T
    if include_irs:
        h_b = np.sqrt(ch.g_AIB) * ((ch.H_IB.conj().T * theta[None, :]) @ ch.H_AI) + h_b
        h_e = np.sqrt(ch.g_AIE) * ((ch.H_IE.conj().T * theta[None, :]) @ ch.H_AI) + h_e
    return h_b, h_e


@dataclass(frozen=True, eq=False)
class DerivedModel:
    """Per-iterate working matrices for the current precoders.

    H_B/H_E are the unscaled composite channels; H_B1..H_E2 fold in the
    per-stream power and noise normalization.  The T/h pairs give the linear
    dependence of each received stream on the phase vector:
    H_B1 v1 = T_B1 theta + h_B1 and likewise for the other three.
    """

    P_AN: np.ndarray
    B: np.ndarray       # Eve's AN-plus-noise covariance, (K, K)
    H_B: np.ndarray     # (K, N) composite channel to Bob
    H_E: np.ndarray
    H_B1: np.ndarray
    H_B2: np.ndarray
    H_E1: np.ndarray
    H_E2: np.ndarray
    T_B1: np.ndarray    # (K, M)
    T_B2: np.ndarray
    T_E1: np.ndarray
    T_E2: np.ndarray
    g1: np.ndarray      # (M,) surface response to v1
    g2: np.ndarray
    h_B1: np.ndarray    # (K,) direct-path part of stream 1 at Bob
    h_B2: np.ndarray
    h_E1: np.ndarray
    h_E2: np.ndarray


def derived_model(
    cfg: SystemConfig,
    ch: ChannelSet,
    prec: Precoders,
    include_irs: bool = True,
) -> DerivedModel:
    """Assemble effective channels and phase-linearization blocks at (v1, v2, theta).

    With include_irs=False every reflected term is dropped, which models a
    system without the surface while keeping the rest of the pipeline intact.
    """
    p_an = an_projector(ch.H_AI, ch.H_AB)
    return _model(cfg, ch, prec, include_irs, p_an, eve_covariance(cfg, ch, p_an))


def refresh_model(
    cfg: SystemConfig,
    ch: ChannelSet,
    prec: Precoders,
    dm: DerivedModel,
    include_irs: bool = True,
) -> DerivedModel:
    """derived_model at new precoders, reusing the channel-only P_AN and B of
    dm, which must come from the same cfg and ch."""
    return _model(cfg, ch, prec, include_irs, dm.P_AN, dm.B)


def _model(cfg: SystemConfig, ch: ChannelSet, prec: Precoders, include_irs: bool,
           p_an: np.ndarray, b: np.ndarray) -> DerivedModel:
    sigma = cfg.sigma_watts_sqrt
    ps = cfg.ps_watts
    c1 = np.sqrt(cfg.beta1 * ps) / sigma
    c2 = np.sqrt(cfg.beta2 * ps) / sigma
    h_b, h_e = composite_channels(ch, prec.theta, include_irs)

    hib_h = ch.H_IB.conj().T
    hie_h = ch.H_IE.conj().T
    g1 = ch.H_AI @ prec.v1
    g2 = ch.H_AI @ prec.v2
    if include_irs:
        t_b1 = c1 * np.sqrt(ch.g_AIB) * (hib_h * g1[None, :])
        t_b2 = c2 * np.sqrt(ch.g_AIB) * (hib_h * g2[None, :])
        t_e1 = c1 * np.sqrt(ch.g_AIE) * (hie_h * g1[None, :])
        t_e2 = c2 * np.sqrt(ch.g_AIE) * (hie_h * g2[None, :])
    else:
        t_b1 = t_b2 = t_e1 = t_e2 = np.zeros((cfg.K, cfg.M), dtype=complex)

    return DerivedModel(
        P_AN=p_an, B=b, H_B=h_b, H_E=h_e,
        H_B1=c1 * h_b, H_B2=c2 * h_b, H_E1=c1 * h_e, H_E2=c2 * h_e,
        T_B1=t_b1, T_B2=t_b2, T_E1=t_e1, T_E2=t_e2,
        g1=g1, g2=g2,
        h_B1=c1 * np.sqrt(ch.g_AB) * (ch.H_AB.conj().T @ prec.v1),
        h_B2=c2 * np.sqrt(ch.g_AB) * (ch.H_AB.conj().T @ prec.v2),
        h_E1=c1 * np.sqrt(ch.g_AE) * (ch.H_AE.conj().T @ prec.v1),
        h_E2=c2 * np.sqrt(ch.g_AE) * (ch.H_AE.conj().T @ prec.v2),
    )


def rate_bob(dm: DerivedModel, prec: Precoders) -> float:
    """Bob's achievable sum rate over the two streams, bits/s/Hz."""
    t1 = dm.H_B1 @ prec.v1
    t2 = dm.H_B2 @ prec.v2
    k = t1.shape[0]
    s = np.eye(k, dtype=complex) + np.outer(t1, t1.conj()) + np.outer(t2, t2.conj())
    return logdet_hermitian(_herm(s))


def rate_eve(dm: DerivedModel, prec: Precoders) -> float:
    """Eve's rate with the artificial noise folded into her noise covariance.

    det(I + S B^-1) is evaluated as det(B + S) / det(B) so that only
    Hermitian positive definite factorizations are involved.
    """
    t1 = dm.H_E1 @ prec.v1
    t2 = dm.H_E2 @ prec.v2
    s = np.outer(t1, t1.conj()) + np.outer(t2, t2.conj())
    return logdet_hermitian(_herm(dm.B + s)) - logdet_hermitian(dm.B)


def rate_gap(dm: DerivedModel, prec: Precoders) -> float:
    return rate_bob(dm, prec) - rate_eve(dm, prec)


def secrecy_rate(dm: DerivedModel, prec: Precoders) -> float:
    """Clipped rate advantage max(0, R_B - R_E) in bits/s/Hz."""
    return max(0.0, rate_gap(dm, prec))


def unclipped_gap(sr: float, dm: DerivedModel, prec: Precoders) -> float:
    """R_B - R_E from the secrecy rate sr at the same point, recomputed only if clipped."""
    return sr if sr > 0 else rate_gap(dm, prec)


def eve_noise_solver(b: np.ndarray):
    """Return a solve(x) callable applying B^-1 through a cached Cholesky factor."""
    factor = cho_factor(_herm(b), lower=True)

    def solve(x: np.ndarray) -> np.ndarray:
        return cho_solve(factor, x)

    return solve
