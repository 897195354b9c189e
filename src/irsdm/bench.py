"""Benchmark schemes and the three standard experiments.

Five schemes share one entry point: the two optimizers (gai, nsp), a
surface-free baseline (no_irs), fixed random phases with optimized
beamformers (random_phase), and a single-stream variant that pours the
confidential power budget into one beam (single_cbs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gai import GaOptions, run_gai
from .model import ChannelSet, SystemConfig, build_channels, build_geometry, parallel_irs_angle
from .nsp import NspOptions, run_nsp
from .rates import derived_model, secrecy_rate

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
        if self.active_stream not in (1, 2):
            raise ValueError(f"active_stream must be 1 or 2, got {self.active_stream!r}")
        if self.draws < 1:
            raise ValueError(f"draws must be positive, got {self.draws!r}")

    @property
    def label(self) -> str:
        return self.kind


@dataclass
class Solution:
    """Scheme output: final precoders, achieved secrecy rate and the trace."""

    v1: np.ndarray
    v2: np.ndarray
    theta: np.ndarray
    p_an: np.ndarray
    sr: float
    rs_trace: np.ndarray
    iterations: int
    converged: bool
    per_draw: np.ndarray | None = None  # random_phase only


@dataclass
class ExperimentResult:
    experiment: str
    axis_name: str
    axis_values: list[float]
    series: dict[str, list[float]]      # scheme label -> secrecy rate per axis value
    iterations: dict[str, list[int]]
    config: SystemConfig
    seed: int


def _finish(cfg: SystemConfig, channels: ChannelSet, state, per_draw=None) -> Solution:
    dm = derived_model(cfg, channels, state.prec)
    return Solution(
        v1=state.prec.v1,
        v2=state.prec.v2,
        theta=state.prec.theta,
        p_an=dm.P_AN,
        sr=float(state.rs_trace[-1]),
        rs_trace=state.rs_trace,
        iterations=state.iterations_used,
        converged=state.converged,
        per_draw=per_draw,
    )


def run_scheme(
    scheme: Scheme,
    cfg: SystemConfig,
    channels: ChannelSet,
    gai_opts: GaOptions | None = None,
    nsp_opts: NspOptions | None = None,
) -> Solution:
    """Run one benchmark scheme on a fixed channel realization."""
    gai_opts = gai_opts or GaOptions()
    if scheme.kind == "gai":
        return _finish(cfg, channels, run_gai(cfg, channels, gai_opts))
    if scheme.kind == "nsp":
        return _finish(cfg, channels, run_nsp(cfg, channels, nsp_opts))
    if scheme.kind == "no_irs":
        opts = replace(gai_opts, include_irs=False, optimize_theta=False)
        return _finish(cfg, channels, run_gai(cfg, channels, opts))
    if scheme.kind == "random_phase":
        rng = np.random.default_rng(cfg.seed)
        opts = replace(gai_opts, optimize_theta=False)
        states, srs = [], []
        for _ in range(scheme.draws):
            theta = np.exp(2j * math.pi * rng.random(cfg.M))
            state = run_gai(cfg, channels, opts, theta0=theta)
            states.append(state)
            srs.append(float(state.rs_trace[-1]))
        per_draw = np.array(srs)
        best = states[int(np.argmax(per_draw))]
        sol = _finish(cfg, channels, best, per_draw=per_draw)
        sol.sr = float(per_draw.mean())  # headline number is the mean over draws
        sol.iterations = int(round(np.mean([s.iterations_used for s in states])))
        sol.converged = all(s.converged for s in states)
        return sol
    # single_cbs: one confidential stream with the whole non-AN budget
    share = 1.0 - AN_SHARE_SINGLE
    if scheme.active_stream == 2:
        cfg_one = replace(cfg, beta1=0.0, beta2=share)
    else:
        cfg_one = replace(cfg, beta1=share, beta2=0.0)
    return _finish(cfg_one, channels, run_gai(cfg_one, channels, gai_opts))


def _run_point(cfg, schemes, gai_opts, nsp_opts):
    geo = build_geometry(cfg)
    channels = build_channels(cfg, geo)
    out = {}
    for scheme in schemes:
        out[scheme.label] = run_scheme(scheme, cfg, channels, gai_opts, nsp_opts)
    return out


def _sweep(cfg, experiment, axis_name, axis_values, point_cfgs, schemes, gai_opts, nsp_opts):
    """Run every scheme at each point config; one series entry per point."""
    series = {s.label: [] for s in schemes}
    iters = {s.label: [] for s in schemes}
    for cfg_point in point_cfgs:
        for label, sol in _run_point(cfg_point, schemes, gai_opts, nsp_opts).items():
            series[label].append(sol.sr)
            iters[label].append(sol.iterations)
    return ExperimentResult(
        experiment=experiment,
        axis_name=axis_name,
        axis_values=[float(v) for v in axis_values],
        series=series,
        iterations=iters,
        config=cfg,
        seed=cfg.seed,
    )


def sweep_sr_vs_m(
    cfg: SystemConfig,
    m_values: list[int],
    schemes: list[Scheme],
    gai_opts: GaOptions | None = None,
    nsp_opts: NspOptions | None = None,
) -> ExperimentResult:
    """Secrecy rate versus the number of reflecting elements."""
    point_cfgs = [replace(cfg, M=int(m)) for m in m_values]
    return _sweep(cfg, "sweep_m", "M", m_values, point_cfgs, schemes, gai_opts, nsp_opts)


def sweep_sr_vs_position(
    cfg: SystemConfig,
    d_ai_values: list[float],
    schemes: list[Scheme],
    gai_opts: GaOptions | None = None,
    nsp_opts: NspOptions | None = None,
) -> ExperimentResult:
    """Secrecy rate as the surface slides along the line parallel to Bob-Eve.

    The surface angle is pinned to the parallel-line direction derived from
    the receiver drop, so the axis value is the Alice-surface distance.
    """
    theta_line = parallel_irs_angle(cfg)
    point_cfgs = [replace(cfg, d_AI=float(d), theta_AI=theta_line) for d in d_ai_values]
    return _sweep(cfg, "sweep_position", "d_AI", d_ai_values, point_cfgs, schemes, gai_opts, nsp_opts)


def convergence_trace(
    cfg: SystemConfig,
    m_values: list[int],
    schemes: list[Scheme],
    gai_opts: GaOptions | None = None,
    nsp_opts: NspOptions | None = None,
) -> ExperimentResult:
    """Secrecy rate per outer iteration for the two optimizers.

    Traces shorter than the longest one are padded with their final value so
    every series spans the same iteration axis.
    """
    for scheme in schemes:
        if scheme.kind not in ("gai", "nsp"):
            raise ValueError(f"convergence trace only applies to optimizers, got {scheme.kind!r}")
    traces = {}
    iters = {}
    for m in m_values:
        for label, sol in _run_point(replace(cfg, M=int(m)), schemes, gai_opts, nsp_opts).items():
            traces[f"{label}_M{int(m)}"] = list(sol.rs_trace)
            iters[f"{label}_M{int(m)}"] = sol.iterations
    depth = max(len(t) for t in traces.values())
    series = {}
    iterations = {}
    for label, t in traces.items():
        series[label] = t + [t[-1]] * (depth - len(t))
        iterations[label] = [iters[label]] * depth
    return ExperimentResult(
        experiment="converge",
        axis_name="iteration",
        axis_values=[float(i) for i in range(depth)],
        series=series,
        iterations=iterations,
        config=cfg,
        seed=cfg.seed,
    )
