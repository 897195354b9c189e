"""Output checks for one solve, written apart from `irsdm.rates`.

The secrecy rate is rebuilt from the returned beamformers and phases in the
plain noise-power form: with Q = sigma^2 I + beta_AN Ps H P P^H H^H the
artificial-noise-plus-noise covariance of a receiver whose composite
channel is H, its rate is log2 det(Q + S) - log2 det(Q), S the two streams'
covariance.  The AN projector P is built from an SVD null-space basis of
the stacked surface and Bob channels, and the log-dets come from slogdet.
Only numpy and the channel set are used, so a fault in the program's rate
code cannot hide itself here.
"""

from __future__ import annotations

import numpy as np

SR_TOL = 1e-9        # bits: rebuilt against reported secrecy rate
UNIT_TOL = 1e-9      # unit norms and unit moduli
NULL_TOL = 1e-8      # residual of a nulled channel, relative to the channel norm
TRACE_TOL = 1e-9     # bits a rate trace may dip between outer passes
RANK_CUTOFF = 1e-10  # relative singular value below which a direction is null
SINGLE_AN_SHARE = 0.2  # single_cbs keeps this power share for noise, the rest feeds one stream


def _watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def null_space_projector(rows: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of `rows`, from its SVD."""
    _, svals, vh = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(svals > RANK_CUTOFF * svals[0])) if svals[0] > 0 else 0
    basis = vh[rank:].conj().T
    return basis @ basis.conj().T


def _log2det(a: np.ndarray) -> float:
    sign, logabs = np.linalg.slogdet(a)
    if not abs(sign - 1.0) < 1e-9:
        raise FloatingPointError(f"covariance determinant has sign {sign}")
    return float(logabs) / np.log(2.0)


def stream_shares(cfg, kind: str, active_stream: int = 2) -> tuple[float, float]:
    """Power shares of streams 1 and 2 under a scheme."""
    if kind == "single_cbs":
        share = 1.0 - SINGLE_AN_SHARE
        return (0.0, share) if active_stream == 2 else (share, 0.0)
    return cfg.beta1, cfg.beta2


def rebuild_rates(cfg, ch, v1, v2, theta, kind: str, active_stream: int = 2) -> tuple[float, float]:
    """Bob's and Eve's rates (bits/s/Hz) at the given precoders, from scratch."""
    beta1, beta2 = stream_shares(cfg, kind, active_stream)
    beta_an = max(0.0, 1.0 - beta1 - beta2)
    ps = _watts(cfg.ps_dbm)
    noise = _watts(cfg.sigma2_dbm)
    h_b = np.sqrt(ch.g_AB) * ch.H_AB.conj().T
    h_e = np.sqrt(ch.g_AE) * ch.H_AE.conj().T
    if kind != "no_irs":
        phases = np.diag(theta)
        h_b = h_b + np.sqrt(ch.g_AIB) * ch.H_IB.conj().T @ phases @ ch.H_AI
        h_e = h_e + np.sqrt(ch.g_AIE) * ch.H_IE.conj().T @ phases @ ch.H_AI
    p_an = null_space_projector(np.vstack([ch.H_AI, ch.H_AB.conj().T]))
    eye = np.eye(cfg.K)
    rates = []
    for h in (h_b, h_e):
        an = h @ p_an
        q = noise * eye + beta_an * ps * (an @ an.conj().T)
        s1, s2 = h @ v1, h @ v2
        s = ps * (beta1 * np.outer(s1, s1.conj()) + beta2 * np.outer(s2, s2.conj()))
        rates.append(_log2det(q + s) - _log2det(q))
    return rates[0], rates[1]


def rebuild_sr(cfg, ch, v1, v2, theta, kind: str, active_stream: int = 2) -> float:
    r_b, r_e = rebuild_rates(cfg, ch, v1, v2, theta, kind, active_stream)
    return max(0.0, r_b - r_e)


def _residual(h: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(h @ x) / max(np.linalg.norm(h), 1.0))


def check_solution(cfg, ch, kind: str, sol, active_stream: int = 2) -> list[str]:
    """Problems found in one solve's output; an empty list means it passed."""
    problems = []
    for name, v in (("v1", sol.v1), ("v2", sol.v2)):
        err = abs(float(np.linalg.norm(v)) - 1.0)
        if not err <= UNIT_TOL:
            problems.append(f"{name} norm is off 1 by {err:.3g}")
    err = float(np.max(np.abs(np.abs(sol.theta) - 1.0)))
    if not err <= UNIT_TOL:
        problems.append(f"theta modulus is off 1 by up to {err:.3g}")

    nulled = (("H_AI", ch.H_AI), ("H_AB^H", ch.H_AB.conj().T))
    for label, h in nulled:
        resid = _residual(h, sol.p_an)
        if not resid <= NULL_TOL:
            problems.append(f"p_an leaks into {label} (relative residual {resid:.3g})")
    p_ref = null_space_projector(np.vstack([ch.H_AI, ch.H_AB.conj().T]))
    gap = float(np.linalg.norm(sol.p_an - p_ref))
    if not gap <= NULL_TOL:
        problems.append(f"p_an differs from the SVD null-space projector by {gap:.3g}")

    if kind == "nsp":
        orth = (
            ("v1", sol.v1, "H_AB^H", ch.H_AB.conj().T),
            ("v1", sol.v1, "H_AE^H", ch.H_AE.conj().T),
            ("v2", sol.v2, "H_AI", ch.H_AI),
            ("v2", sol.v2, "H_AE^H", ch.H_AE.conj().T),
        )
        for name, v, label, h in orth:
            resid = _residual(h, v)
            if not resid <= NULL_TOL:
                problems.append(f"{name} is not orthogonal to {label} (relative residual {resid:.3g})")

    trace = np.asarray(sol.rs_trace, dtype=float)
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        problems.append("rate trace is empty or not finite")
    elif trace.size > 1 and not float(np.min(np.diff(trace))) >= -TRACE_TOL:
        problems.append(f"rate trace drops by {-float(np.min(np.diff(trace))):.3g} bits")

    try:
        sr_re = rebuild_sr(cfg, ch, sol.v1, sol.v2, sol.theta, kind, active_stream)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        problems.append(f"rate rebuild failed: {exc}")
        return problems
    if kind == "random_phase":
        per_draw = np.asarray(sol.per_draw, dtype=float)
        gap = abs(sr_re - float(per_draw.max()))
        if not gap <= SR_TOL:
            problems.append(f"best draw's rate differs from the rebuild by {gap:.3g} bits")
        gap = abs(sol.sr - float(per_draw.mean()))
        if not gap <= SR_TOL:
            problems.append(f"sr differs from the mean over draws by {gap:.3g} bits")
    else:
        gap = abs(sr_re - sol.sr)
        if not gap <= SR_TOL:
            problems.append(f"sr {sol.sr!r} differs from the rebuild {sr_re!r} by {gap:.3g} bits")
        if trace.size and not trace[-1] == sol.sr:
            problems.append("sr is not the last entry of the rate trace")
        if not sol.iterations == trace.size - 1:
            problems.append(f"{sol.iterations} iterations reported for a trace of {trace.size} rates")
    if not (np.isfinite(sol.sr) and sol.sr >= 0.0):
        problems.append(f"sr {sol.sr!r} is not a finite non-negative rate")
    return problems


def check_same_rate(srs: dict[str, float]) -> list[str]:
    """Problems if rates that must agree (no_irs across surface sizes) do not."""
    if len(srs) < 2:
        return []
    values = list(srs.values())
    spread = max(values) - min(values)
    if spread <= SR_TOL:
        return []
    listing = ", ".join(f"{k}: {v!r}" for k, v in srs.items())
    return [f"no_irs rate changes with the surface size by {spread:.3g} bits ({listing})"]
