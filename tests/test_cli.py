"""Command line checks: config resolution, outputs, replay determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irsdm import __version__
from irsdm.cli import (
    CSV_HEADER,
    build_parser,
    main,
    parse_config,
    resolve_out_dir,
    run_experiment,
    write_result_csv,
)
from irsdm.bench import ExperimentResult, Scheme
from irsdm.model import SystemConfig


def _parse(argv):
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------- configuration


def test_config_defaults_match_dataclass():
    cfg = parse_config(_parse(["converge"]))
    assert cfg == SystemConfig()


def test_config_file_then_flag_precedence(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"M": 12, "d_AI": 20.0}))
    cfg = parse_config(_parse(["converge", "--config", str(path)]))
    assert cfg.M == 12 and cfg.d_AI == 20.0
    cfg = parse_config(_parse(["converge", "--config", str(path), "--m", "6"]))
    assert cfg.M == 6 and cfg.d_AI == 20.0


def test_config_rejects_unknown_file_key(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit, match="bogus"):
        parse_config(_parse(["converge", "--config", str(path)]))


def test_config_rejects_invalid_combination():
    with pytest.raises(SystemExit, match="invalid configuration"):
        parse_config(_parse(["converge", "--beta1", "0.9", "--beta2", "0.3"]))


def test_config_file_keeps_non_integral_counts_for_validation(tmp_path):
    # neither may be truncated to M = 20, N = 1 before SystemConfig sees it
    path = tmp_path / "scenario.json"
    for raw, field in (({"M": 20.7}, "M"), ({"N": True}, "N")):
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit, match=f"invalid configuration: {field} must be an integer"):
            parse_config(_parse(["converge", "--config", str(path)]))
    path.write_text(json.dumps({"M": 20.0}))
    assert parse_config(_parse(["converge", "--config", str(path)])).M == 20


def test_out_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("IRSDM_OUT_DIR", raising=False)
    assert resolve_out_dir(None).name == "runs"
    monkeypatch.setenv("IRSDM_OUT_DIR", str(tmp_path / "envdir"))
    assert resolve_out_dir(None) == tmp_path / "envdir"
    assert resolve_out_dir(tmp_path / "flagdir") == tmp_path / "flagdir"


# ---------------------------------------------------------------- outputs


def test_csv_schema_and_full_precision(tmp_path):
    cfg = SystemConfig(N=8, M=4)
    manifest = run_experiment("sweep_m", cfg, [Scheme(kind="gai")], [4.0, 6.0], tmp_path)
    lines = (tmp_path / "sweep_m.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        axis, scheme, sr, iters, converged, seed = line.split(",")
        assert scheme == "gai"
        assert float(axis) in (4.0, 6.0)
        value = float(sr)
        assert math.isfinite(value)
        # 17 significant digits round-trip the double exactly
        assert f"{value:.17g}" == sr
        assert int(iters) >= 1
        assert converged == "true"
        assert int(seed) == cfg.seed
    assert manifest.converged == {"gai": [True, True]}
    assert manifest.duration_s >= 0.0
    assert manifest.outputs["csv"].endswith("sweep_m.csv")
    # a solve stopped at its pass cap reads false
    capped = ExperimentResult("sweep_m", "M", [4.0], {"gai": [1.0]}, {"gai": [50]},
                              {"gai": [False]}, cfg)
    write_result_csv(tmp_path / "capped.csv", capped)
    assert (tmp_path / "capped.csv").read_text().split("\n")[1].split(",")[4] == "false"


def test_manifest_contents_round_trip(tmp_path):
    cfg = SystemConfig(N=8, M=4)
    run_experiment("sweep_m", cfg, [Scheme(kind="gai")], [4.0], tmp_path)
    manifest = json.loads((tmp_path / "sweep_m_manifest.json").read_text())
    assert manifest["experiment"] == "sweep_m"
    assert manifest["version"] == __version__
    assert manifest["axis"] == {"name": "M", "values": [4.0]}
    assert SystemConfig(**manifest["config"]) == cfg
    assert [Scheme(**s) for s in manifest["schemes"]] == [Scheme(kind="gai")]


def test_rerun_reproduces_csv_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    rc = main([
        "sweep-m", "--n", "8", "--m-values", "4,6", "--schemes", "gai",
        "--out-dir", str(first),
    ])
    assert rc == 0
    rc = main(["rerun", str(first / "sweep_m_manifest.json"), "--out-dir", str(second)])
    assert rc == 0
    assert (first / "sweep_m.csv").read_bytes() == (second / "sweep_m.csv").read_bytes()


def test_single_command_dumps_solution(tmp_path):
    rc = main([
        "single", "--scheme", "nsp", "--n", "8", "--m", "6",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "single_nsp.json").read_text())
    assert payload["scheme"] == "nsp"
    assert math.isfinite(payload["sr_bits"])
    assert len(payload["theta"]) == 6
    assert all(len(pair) == 2 for pair in payload["v1"])
    norm = math.sqrt(sum(re * re + im * im for re, im in payload["v1"]))
    assert norm == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- guard rails


def test_single_rejects_the_schemes_flag(tmp_path):
    # single takes one --scheme; a --schemes list must not be ignored
    with pytest.raises(SystemExit) as info:
        main(["single", "--schemes", "nsp", "--out-dir", str(tmp_path)])
    assert info.value.code == 2


def test_sweep_error_names_the_point_and_the_scheme(tmp_path, capsys):
    # one antenna leaves nsp's stream-1 null space empty
    rc = main(["sweep-m", "--n", "1", "--m-values", "4,6", "--schemes", "gai,nsp",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "M=4" in err and "nsp" in err and "P1 null space is empty" in err


def test_random_phase_requires_explicit_seed(tmp_path):
    argv = ["sweep-m", "--n", "8", "--m-values", "4", "--schemes", "random_phase",
            "--draws", "2", "--out-dir", str(tmp_path)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"M": 4}))
    for extra in ([], ["--config", str(path)]):  # no seed by flag or in the file
        with pytest.raises(SystemExit, match="seed"):
            main(argv + extra)
    assert main(argv + ["--seed", "3"]) == 0
    path.write_text(json.dumps({"seed": 3}))
    assert main(argv + ["--config", str(path)]) == 0
    assert (tmp_path / "sweep_m.csv").read_text().split("\n")[1].split(",")[5] == "3"


def test_unknown_scheme_is_rejected(tmp_path):
    with pytest.raises(SystemExit, match="zigzag"):
        main(["sweep-m", "--schemes", "zigzag", "--out-dir", str(tmp_path)])


def test_position_sweep_range_expansion(tmp_path):
    rc = main([
        "sweep-position", "--n", "8", "--m", "4", "--schemes", "gai",
        "--d-ai-min", "20", "--d-ai-max", "30", "--d-ai-step", "5",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "sweep_position.csv").read_text().strip().split("\n")
    axis = [float(line.split(",")[0]) for line in lines[1:]]
    assert axis == [20.0, 25.0, 30.0]


def test_summary_printed(tmp_path, capsys):
    main(["sweep-m", "--n", "8", "--m-values", "4", "--schemes", "gai",
          "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "M" in out and "gai" in out


def test_sweep_m_rejects_non_integral_m(tmp_path):
    with pytest.raises(SystemExit, match="M values must be integers"):
        main(["sweep-m", "--n", "8", "--m-values", "4,8.7", "--schemes", "gai",
              "--out-dir", str(tmp_path)])
    assert not (tmp_path / "sweep_m.csv").exists()


@pytest.mark.parametrize("step", ["-2.5", "0"])
def test_position_sweep_rejects_non_positive_step(tmp_path, step):
    with pytest.raises(SystemExit, match="d-ai-step must be positive"):
        main(["sweep-position", "--n", "8", "--m", "4", "--schemes", "gai",
              "--d-ai-step", step, "--out-dir", str(tmp_path)])
    assert not (tmp_path / "sweep_position.csv").exists()


def test_position_sweep_rejects_empty_axis(tmp_path):
    # a range running backwards leaves no placement to solve
    with pytest.raises(SystemExit, match="axis is empty"):
        main(["sweep-position", "--n", "8", "--m", "4", "--schemes", "gai",
              "--d-ai-min", "30", "--d-ai-max", "20", "--out-dir", str(tmp_path)])
    assert not (tmp_path / "sweep_position.csv").exists()


def test_module_entry_point_runs_without_install(tmp_path):
    # python -m irsdm from a plain checkout, with only src/ on the path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, IRSDM_OUT_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "irsdm", "single", "--scheme", "gai", "--m", "8"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads((tmp_path / "single_gai.json").read_text())
    assert payload["scheme"] == "gai" and payload["config"]["M"] == 8
    assert payload["converged"] is True


def test_importing_the_package_loads_no_scipy():
    # scipy is a test oracle only; importing it cost about 0.3 s per run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, irsdm, irsdm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
