"""Command line front end for the benchmark experiments.

Configuration values resolve flag > config file > built-in default.  Every
experiment writes a CSV of results plus a JSON manifest holding the exact
inputs, and `rerun` replays a manifest so results can be reproduced
byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    ExperimentResult,
    Scheme,
    convergence_trace,
    run_scheme,
    sweep_sr_vs_m,
    sweep_sr_vs_position,
)
from .model import SystemConfig, build_channels, build_geometry

OUT_DIR_ENV = "IRSDM_OUT_DIR"
CSV_HEADER = ("axis_value", "scheme", "sr_bits", "iterations", "seed")
CONFIG_FIELDS = [f.name for f in dataclasses.fields(SystemConfig)]
INT_FIELDS = {"N", "M", "K", "seed"}


@dataclasses.dataclass
class RunManifest:
    """Everything needed to replay an experiment run."""

    experiment: str
    config: dict
    schemes: list[dict]
    axis: dict
    seed: int
    version: str
    outputs: dict
    duration_s: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("scenario overrides")
    for name in CONFIG_FIELDS:
        flag = "--" + name.lower().replace("_", "-")
        caster = int if name in INT_FIELDS else float
        grp.add_argument(flag, dest=f"cfg_{name}", type=caster, default=None)
    grp.add_argument("--config", type=Path, default=None, help="JSON file with scenario keys")


def parse_config(args: argparse.Namespace) -> SystemConfig:
    """Resolve the scenario: flags override file values, file overrides defaults."""
    values: dict = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        for key in raw:
            if key not in CONFIG_FIELDS:
                raise SystemExit(f"error: unknown config key {key!r} in {args.config}")
        values.update(raw)
    for name in CONFIG_FIELDS:
        flag_val = getattr(args, f"cfg_{name}", None)
        if flag_val is not None:
            values[name] = flag_val
    for name in INT_FIELDS:
        if name in values:
            values[name] = int(values[name])
    try:
        return SystemConfig(**values)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: invalid configuration: {exc}") from exc


def _seed_given(args: argparse.Namespace) -> bool:
    if getattr(args, "cfg_seed", None) is not None:
        return True
    if args.config is not None:
        return "seed" in json.loads(Path(args.config).read_text())
    return False


def parse_schemes(names: str, draws: int, active_stream: int) -> list[Scheme]:
    out = []
    for token in names.split(","):
        kind = token.strip()
        if not kind:
            continue
        try:
            out.append(Scheme(kind=kind, draws=draws, active_stream=active_stream))
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
    if not out:
        raise SystemExit("error: no schemes given")
    return out


def _parse_values(text: str, caster=float) -> list:
    try:
        return [caster(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: bad axis value list {text!r}: {exc}") from exc


def resolve_out_dir(flag_value: Path | None) -> Path:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("runs")


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_result_csv(path: Path, result: ExperimentResult) -> None:
    lines = [",".join(CSV_HEADER)]
    for i, axis_value in enumerate(result.axis_values):
        for label in result.series:
            lines.append(",".join((
                _fmt(axis_value),
                label,
                _fmt(result.series[label][i]),
                str(result.iterations[label][i]),
                str(result.seed),
            )))
    _atomic_write(path, "\n".join(lines) + "\n")


def print_summary(result: ExperimentResult) -> None:
    labels = list(result.series)
    width = max(12, *(len(s) + 2 for s in labels))
    header = f"{result.axis_name:>12}" + "".join(f"{s:>{width}}" for s in labels)
    print(header)
    for i, axis_value in enumerate(result.axis_values):
        row = f"{axis_value:>12.4g}"
        row += "".join(f"{result.series[s][i]:>{width}.6f}" for s in labels)
        print(row)


def run_experiment(
    experiment: str,
    cfg: SystemConfig,
    schemes: list[Scheme],
    axis_values: list[float],
    out_dir: Path,
) -> RunManifest:
    start = time.perf_counter()
    if experiment == "converge":
        result = convergence_trace(cfg, [int(v) for v in axis_values], schemes)
    elif experiment == "sweep_m":
        result = sweep_sr_vs_m(cfg, [int(v) for v in axis_values], schemes)
    elif experiment == "sweep_position":
        result = sweep_sr_vs_position(cfg, axis_values, schemes)
    else:
        raise SystemExit(f"error: unknown experiment {experiment!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{experiment}.csv"
    write_result_csv(csv_path, result)
    manifest = RunManifest(
        experiment=experiment,
        config=dataclasses.asdict(cfg),
        schemes=[dataclasses.asdict(s) for s in schemes],
        axis={"name": result.axis_name, "values": [float(v) for v in axis_values]},
        seed=cfg.seed,
        version=__version__,
        outputs={"csv": str(csv_path)},
        duration_s=time.perf_counter() - start,
    )
    _atomic_write(out_dir / f"{experiment}_manifest.json", manifest.to_json())
    print_summary(result)
    return manifest


def _require_seed_for_random(args, schemes: list[Scheme]) -> None:
    if any(s.kind == "random_phase" for s in schemes) and not _seed_given(args):
        raise SystemExit("error: random_phase runs need an explicit --seed (or a seed in the config file)")


def _cmd_experiment(args) -> int:
    cfg = parse_config(args)
    schemes = parse_schemes(args.schemes, args.draws, args.active_stream)
    _require_seed_for_random(args, schemes)
    if args.experiment != "sweep_position":
        values = _parse_values(args.m_values)
    elif args.d_ai_values:
        values = _parse_values(args.d_ai_values)
    else:
        count = int(math.floor((args.d_ai_max - args.d_ai_min) / args.d_ai_step + 0.5)) + 1
        values = [args.d_ai_min + i * args.d_ai_step for i in range(count)]
    run_experiment(args.experiment, cfg, schemes, values, resolve_out_dir(args.out_dir))
    return 0


def _cmd_single(args) -> int:
    cfg = parse_config(args)
    schemes = parse_schemes(args.scheme, args.draws, args.active_stream)
    if len(schemes) != 1:
        raise SystemExit("error: single takes exactly one scheme")
    _require_seed_for_random(args, schemes)
    sol = run_scheme(schemes[0], cfg, build_channels(cfg, build_geometry(cfg)))
    out_dir = resolve_out_dir(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "scheme": schemes[0].kind,
        "config": dataclasses.asdict(cfg),
        "sr_bits": sol.sr,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "rs_trace": [float(x) for x in sol.rs_trace],
        "v1": _complex_list(sol.v1),
        "v2": _complex_list(sol.v2),
        "theta": _complex_list(sol.theta),
        "per_draw": None if sol.per_draw is None else [float(x) for x in sol.per_draw],
        "version": __version__,
    }
    path = out_dir / f"single_{schemes[0].kind}.json"
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))
    print(f"{schemes[0].kind}: SR = {sol.sr:.6f} bits/s/Hz "
          f"({sol.iterations} iterations, converged={sol.converged})")
    print(f"wrote {path}")
    return 0


def _complex_list(z: np.ndarray) -> list[list[float]]:
    return [[float(x.real), float(x.imag)] for x in z]


def _cmd_rerun(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    cfg = SystemConfig(**manifest["config"])
    schemes = [Scheme(**s) for s in manifest["schemes"]]
    run_experiment(
        manifest["experiment"],
        cfg,
        schemes,
        manifest["axis"]["values"],
        resolve_out_dir(args.out_dir),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsdm",
        description="Secrecy-rate experiments for a reflecting-surface-aided wiretap link",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, schemes_default: str) -> None:
        _add_config_flags(p)
        p.add_argument("--out-dir", type=Path, default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or ./runs)")
        p.add_argument("--schemes", default=schemes_default,
                       help="comma-separated scheme list")
        p.add_argument("--draws", type=int, default=50, help="random_phase draw count")
        p.add_argument("--active-stream", type=int, default=2, choices=(1, 2),
                       help="which stream single_cbs keeps")

    p = sub.add_parser("converge", help="secrecy rate per outer iteration")
    common(p, "gai,nsp")
    p.add_argument("--m-values", default="10,20")
    p.set_defaults(func=_cmd_experiment, experiment="converge")

    p = sub.add_parser("sweep-m", help="secrecy rate versus surface size")
    common(p, "gai,nsp,no_irs,random_phase,single_cbs")
    p.add_argument("--m-values", default=",".join(str(m) for m in range(10, 101, 10)))
    p.set_defaults(func=_cmd_experiment, experiment="sweep_m")

    p = sub.add_parser("sweep-position", help="secrecy rate versus surface placement")
    common(p, "gai,nsp")
    p.add_argument("--d-ai-values", default="", help="explicit comma-separated distances")
    p.add_argument("--d-ai-min", type=float, default=5.0)
    p.add_argument("--d-ai-max", type=float, default=150.0)
    p.add_argument("--d-ai-step", type=float, default=2.5)
    p.set_defaults(func=_cmd_experiment, experiment="sweep_position")

    p = sub.add_parser("single", help="run one scheme once and dump the solution")
    common(p, "gai")
    p.add_argument("--scheme", default="gai")
    p.set_defaults(func=_cmd_single)

    p = sub.add_parser("rerun", help="replay an experiment from its manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=_cmd_rerun)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # surface context instead of a traceback wall
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
