"""Benchmark schemes and the three standard experiments.

Five schemes share one entry point: the two optimizers (gai, nsp), a
surface-free baseline (no_irs), fixed random phases with optimized
beamformers (random_phase), and a single-stream variant that pours the
confidential power budget into one beam (single_cbs).  Each returns the
optimizers' run record, `gai.Solution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gai import GaOptions, Solution, check_count, fixed_phase_runs, fold_draws, run_gai
from .model import ChannelSet, SystemConfig, build_channels, build_geometry, parallel_irs_angle
from .nsp import run_nsp
from .rates import derived_model  # noqa: F401  (perfbench/tracing.py wraps this name)

SCHEME_KINDS = ("gai", "nsp", "no_irs", "random_phase", "single_cbs")
AN_SHARE_SINGLE = 0.2  # noise budget kept by the single-stream scheme


@dataclass(frozen=True)
class Scheme:
    """Benchmark identifier; extra knobs only apply where noted."""

    kind: str
    active_stream: int = 2   # single_cbs: which stream keeps the power
    draws: int = 50          # random_phase: number of seeded phase draws

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if isinstance(self.active_stream, bool) or self.active_stream not in (1, 2):
            raise ValueError(f"active_stream must be 1 or 2, got {self.active_stream!r}")
        check_count("draws", self.draws)


@dataclass
class ExperimentResult:
    experiment: str
    axis_name: str
    axis_values: list[float]
    series: dict[str, list[float]]      # scheme kind -> secrecy rate per axis value
    iterations: dict[str, list[int]]
    converged: dict[str, list[bool]]
    config: SystemConfig


def run_scheme(scheme: Scheme, cfg: SystemConfig, channels: ChannelSet) -> Solution:
    """Run one benchmark scheme on a fixed channel realization.

    Every scheme runs the one alternation, `gai.alternate`, and returns its
    `Solution`.  no_irs is run_gai at all-ones fixed phases with both
    surface gains zeroed.  random_phase runs its seeded draws as the rows
    of one fixed-phase alternation (`gai.fixed_phase_runs`) and returns the
    best draw's record with the mean rate (`gai.fold_draws`).
    """
    if scheme.kind == "gai":
        return run_gai(cfg, channels)
    if scheme.kind == "nsp":
        return run_nsp(cfg, channels)
    if scheme.kind == "no_irs":
        no_surface = replace(channels, g_AIB=0.0, g_AIE=0.0)
        return run_gai(cfg, no_surface, fixed_theta=np.ones(cfg.M, dtype=complex))
    if scheme.kind == "random_phase":
        rng = np.random.default_rng(cfg.seed)
        thetas = np.exp(2j * math.pi * rng.random((scheme.draws, cfg.M)))
        runs = fixed_phase_runs(cfg, channels, thetas, GaOptions().max_outer)
        # each draw's finished run goes through one run_gai call, which hands
        # it back as it is: perfbench/tracing.py counts the draws as calls of
        # this module's run_gai
        return fold_draws([run_gai(cfg, channels, fixed_theta=run) for run in runs])
    # single_cbs: one confidential stream with the whole non-AN budget
    share = 1.0 - AN_SHARE_SINGLE
    if scheme.active_stream == 2:
        cfg_one = replace(cfg, beta1=0.0, beta2=share)
    else:
        cfg_one = replace(cfg, beta1=share, beta2=0.0)
    return run_gai(cfg_one, channels)


def _run_point(cfg, schemes, where):
    """Every scheme's solution on the point's channels.  A scheme that
    raises is named in the error, after where (experiment and axis value)."""
    channels = build_channels(cfg, build_geometry(cfg))
    sols = {}
    for scheme in schemes:
        try:
            sols[scheme.kind] = run_scheme(scheme, cfg, channels)
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"{where}, scheme {scheme.kind}: {exc}") from exc
    return sols


def _sweep(cfg, experiment, axis_name, axis_values, point_cfgs, schemes):
    """Run every scheme at each point config; one series entry per point."""
    series = {s.kind: [] for s in schemes}
    iters = {s.kind: [] for s in schemes}
    converged = {s.kind: [] for s in schemes}
    for value, cfg_point in zip(axis_values, point_cfgs):
        for label, sol in _run_point(cfg_point, schemes, f"{experiment} at {axis_name}={value:g}").items():
            series[label].append(sol.sr)
            iters[label].append(sol.iterations)
            converged[label].append(sol.converged)
    return ExperimentResult(
        experiment=experiment,
        axis_name=axis_name,
        axis_values=[float(v) for v in axis_values],
        series=series,
        iterations=iters,
        converged=converged,
        config=cfg,
    )


def sweep_sr_vs_m(
    cfg: SystemConfig,
    m_values: list[int],
    schemes: list[Scheme],
) -> ExperimentResult:
    """Secrecy rate versus the number of reflecting elements."""
    point_cfgs = [replace(cfg, M=int(m)) for m in m_values]
    return _sweep(cfg, "sweep_m", "M", m_values, point_cfgs, schemes)


def sweep_sr_vs_position(
    cfg: SystemConfig,
    d_ai_values: list[float],
    schemes: list[Scheme],
) -> ExperimentResult:
    """Secrecy rate as the surface slides along the line parallel to Bob-Eve.

    The surface angle is pinned to the parallel-line direction derived from
    the receiver drop, so the axis value is the Alice-surface distance.
    """
    theta_line = parallel_irs_angle(cfg)
    point_cfgs = [replace(cfg, d_AI=float(d), theta_AI=theta_line) for d in d_ai_values]
    return _sweep(cfg, "sweep_position", "d_AI", d_ai_values, point_cfgs, schemes)


def convergence_trace(
    cfg: SystemConfig,
    m_values: list[int],
    schemes: list[Scheme],
) -> ExperimentResult:
    """Secrecy rate per outer iteration for the two optimizers.

    Traces shorter than the longest one are padded with their final value so
    every series spans the same iteration axis.
    """
    for scheme in schemes:
        if scheme.kind not in ("gai", "nsp"):
            raise ValueError(f"convergence trace only applies to optimizers, got {scheme.kind!r}")
    if len(set(map(int, m_values))) < len(m_values):
        raise ValueError(f"convergence trace labels its series by M; got a repeated M in {m_values}")
    sols = {}
    for m in m_values:
        for label, sol in _run_point(replace(cfg, M=int(m)), schemes, f"converge at M={int(m)}").items():
            sols[f"{label}_M{int(m)}"] = sol
    depth = max(len(sol.rs_trace) for sol in sols.values())
    series, iterations, converged = {}, {}, {}
    for label, sol in sols.items():
        t = list(sol.rs_trace)
        series[label] = t + [t[-1]] * (depth - len(t))
        iterations[label] = [sol.iterations] * depth
        converged[label] = [sol.converged] * depth
    return ExperimentResult(
        experiment="converge",
        axis_name="iteration",
        axis_values=[float(i) for i in range(depth)],
        series=series,
        iterations=iterations,
        converged=converged,
        config=cfg,
    )
