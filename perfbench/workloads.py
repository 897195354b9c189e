"""The benchmark's workloads, each a list of points from the paper's experiments.

A point is one scenario whose channel set is built once, as `sweep_sr_vs_m`
builds it; each scheme run on it is one solve.
No input depends on the run's seed: the seed only orders the solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from irsdm.model import SystemConfig

ALL_SCHEMES = ("gai", "nsp", "no_irs", "random_phase", "single_cbs")
NAMES = ("sweep_m_near", "sweep_m_far")


@dataclass(frozen=True)
class Point:
    label: str
    cfg: SystemConfig
    schemes: tuple[str, ...]
    repeats: dict[str, int] = field(default_factory=dict)  # scheme -> timed calls per round


def points(name: str) -> list[Point]:
    """The points of one workload, in sweep order."""
    base = SystemConfig()
    if name == "sweep_m_near":
        # gai and nsp solves here take 0.05-2 s each, short enough that one
        # call swings by 30 %; they are called again so that each solve's
        # median rests on several calls spread over the run
        return [
            Point(f"M={m}", replace(base, d_AB=50.0, M=m, seed=0), ALL_SCHEMES, {"gai": 3, "nsp": 3})
            for m in (10, 50, 200)
        ]
    if name == "sweep_m_far":
        # the gai solves here take 2-3 s in all, short enough that a single
        # timing swings by 30 %; the median of three calls is steadier
        return [
            Point(f"M={m}", replace(base, d_AB=300.0, M=m, seed=0), ALL_SCHEMES, {"gai": 3})
            for m in (10, 30, 80)
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
