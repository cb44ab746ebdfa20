import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from witnesskit import cli
from witnesskit.cli import RESULT_COLUMNS, _parse_alpha_range, main
from witnesskit.measures import BntReport, MeasureResult, ProjectionConfig, ProjectionError
from witnesskit.states import ProductEnsemble, density_to_json, isotropic


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_alpha_single():
    assert _parse_alpha_range("0.7") == [0.7]


def test_parse_alpha_range_inclusive():
    values = _parse_alpha_range("0.1:0.5:0.1")
    assert len(values) == 5
    assert values[0] == pytest.approx(0.1)
    assert values[-1] == pytest.approx(0.5)


def test_parse_alpha_range_bad_spec():
    with pytest.raises(ValueError):
        _parse_alpha_range("0.1:0.5")
    with pytest.raises(ValueError):
        _parse_alpha_range("0.1:0.5:-0.1")


def test_iso_sweep_rows(capsys):
    code, out, _ = run_cli(capsys, "iso-sweep", "--d", "2", "--alpha", "0.2:0.8:0.3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,alpha,threshold,separable,D"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert rows[0][3] == "true" and float(rows[0][4]) == 0.0
    assert rows[2][3] == "false"
    expected = np.sqrt(3) / 2 * (0.8 - 1 / 3)
    assert float(rows[2][4]) == pytest.approx(expected, abs=1e-10)


def test_gamma_signs_text(capsys):
    code, out, _ = run_cli(capsys, "gamma-signs", "--d", "3")
    assert code == 0
    assert out.strip() == "+ - + + - + - +"


def test_gamma_signs_json(capsys):
    code, out, _ = run_cli(capsys, "gamma-signs", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"d": 2, "signs": [1, -1, 1]}


def test_witness_check_isotropic(capsys):
    code, out, _ = run_cli(
        capsys, "witness-check", "--d", "2", "--alpha", "0.8", "--n-starts", "8"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["is_witness"] == "true"
    assert values["is_optimal"] == "true"
    assert float(values["ent_expectation"]) == pytest.approx(
        -np.sqrt(3) / 2 * (0.8 - 1 / 3), abs=1e-10
    )


def test_witness_check_bad_guess(capsys):
    code, out, _ = run_cli(
        capsys, "witness-check", "--d", "2", "--alpha", "0.8",
        "--guess-alpha", "0.0", "--n-starts", "8",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["is_witness"] == "false"
    assert float(values["sep_minimum"]) < -1e-3


@pytest.mark.parametrize("pair", ["state", "guess"])
def test_witness_check_needs_state_and_guess(tmp_path, capsys, pair):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    code, out, err = run_cli(capsys, "witness-check", "--d", "2", "--alpha", "0.8",
                             f"--{pair}", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "--state" in err and "--guess" in err


def test_witness_check_state_files(tmp_path, capsys):
    target, guess = tmp_path / "target.json", tmp_path / "guess.json"
    target.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    guess.write_text(json.dumps(density_to_json(isotropic(2, 1 / 3))))
    code, out, _ = run_cli(capsys, "witness-check", "--state", str(target),
                           "--guess", str(guess), "--n-starts", "8")
    assert code == 0
    values = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert values["d"] == "" and values["is_witness"] == "true"


def test_bnt_csv_row(capsys):
    code, out, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.9", "--seed", "0")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ",".join(RESULT_COLUMNS)
    values = dict(zip(RESULT_COLUMNS, row.split(",")))
    closed = np.sqrt(3) / 2 * (0.9 - 1 / 3)
    assert float(values["D_closed"]) == pytest.approx(closed, abs=1e-10)
    assert float(values["D_numeric"]) == pytest.approx(closed, abs=5e-4)
    assert float(values["discrepancy"]) <= 5e-4
    assert values["converged"] == "true"


def test_bnt_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--seed", "0")
    _, second, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--seed", "0")
    assert first == second


def test_measure_matches_bnt_columns(capsys):
    code, out, _ = run_cli(capsys, "measure", "--d", "2", "--alpha", "0.7")
    assert code == 0
    assert out.splitlines()[0] == ",".join(RESULT_COLUMNS)


def test_measure_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    code, out, _ = run_cli(capsys, "measure", "--state", str(path))
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(RESULT_COLUMNS, row.split(",")))
    assert values["d"] == "" and values["D_closed"] == ""
    assert float(values["D_numeric"]) == pytest.approx(
        np.sqrt(3) / 2 * (0.8 - 1 / 3), abs=5e-4
    )


def test_chsh_scan(capsys):
    code, out, _ = run_cli(capsys, "chsh-scan", "--d", "2", "--alpha", "1.0")
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["chsh_max"]) == pytest.approx(2 * np.sqrt(2), abs=1e-10)
    assert values["violates_chsh"] == "true"


def test_chsh_scan_rejects_qutrits(capsys):
    code, _, err = run_cli(capsys, "chsh-scan", "--d", "3", "--alpha", "0.5")
    assert code == 1
    assert "d = 2" in err


def test_exit_code_on_bad_alpha(capsys):
    code, _, err = run_cli(capsys, "iso-sweep", "--d", "2", "--alpha", "1.5")
    assert code == 1
    assert err.startswith("witnesskit:")


@pytest.mark.parametrize("spec", ["0:inf:0.1", "0:1:nan", "nan:1:0.1", "-inf:1:0.1", "0:nan:0.1"])
def test_non_finite_alpha_range(capsys, spec):
    code, out, err = run_cli(capsys, "iso-sweep", "--d", "2", f"--alpha={spec}")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "finite" in err


def test_missing_alpha(capsys):
    code, _, err = run_cli(capsys, "bnt", "--d", "2")
    assert code == 1
    assert "--alpha" in err


def test_json_output_types(capsys):
    code, out, _ = run_cli(
        capsys, "iso-sweep", "--d", "3", "--alpha", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    row = payload[0]
    assert row["separable"] is False
    assert row["D"] == pytest.approx(2 * np.sqrt(2) / 3 * 0.25)


def test_output_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "iso-sweep", "--d", "2", "--alpha", "0.5", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text().splitlines()[0] == "d,alpha,threshold,separable,D"
    path = tmp_path / "signs.txt"
    code, out, _ = run_cli(capsys, "gamma-signs", "--d", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == "+ - + + - + - +\n"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSKIT_SEED", "7")
    _, env_out, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8")
    _, flag_out, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--seed", "7")
    assert env_out == flag_out
    # explicit flag wins over the environment
    monkeypatch.setenv("WITNESSKIT_SEED", "99")
    _, override, _ = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--seed", "7")
    assert override == flag_out


def test_seed_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("WITNESSKIT_SEED", "abc")
    code, out, err = run_cli(capsys, "bnt", "--alpha", "0.8")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "WITNESSKIT_SEED" in err


def test_solver_config_file(tmp_path, capsys):
    path = tmp_path / "solver.json"
    path.write_text(json.dumps({"n_starts": 8, "seed": 0}))
    code, out, _ = run_cli(
        capsys, "witness-check", "--d", "2", "--alpha", "0.9",
        "--solver-config", str(path),
    )
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["is_witness"] == "true"


@pytest.mark.parametrize("command", ["bnt", "measure"])
@pytest.mark.parametrize("flag,expected", [
    ((), ProjectionConfig().solver.n_starts),
    (("--n-starts", "1"), 1),
    (("--n-starts", "64"), 64),
])
def test_projection_honours_n_starts(monkeypatch, capsys, command, flag, expected):
    seen = []

    def fake_bnt_check(target, cfg):
        seen.append(cfg.solver.n_starts)
        e = np.array([1.0, 0.0])
        mr = MeasureResult(0.5, ProductEnsemble(((1.0, e, e),)), 0.0, 1)
        return BntReport(0.5, 0.5, 0.0, mr)

    monkeypatch.setattr(cli, "bnt_check", fake_bnt_check)
    code, _, _ = run_cli(capsys, command, "--d", "2", "--alpha", "0.8", *flag)
    assert code == 0
    assert seen == [expected]


def test_witness_check_solver_error_row(capsys):
    code, out, err = run_cli(capsys, "witness-check", "--d", "2", "--alpha", "0.8",
                             "--max-iters", "1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["is_witness"] == "false" and values["is_optimal"] == "false"
    assert np.isfinite(float(values["sep_minimum"]))


def test_bnt_solver_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--max-iters", "1")
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")


@pytest.mark.parametrize("payload", [
    {"d_a": 2, "d_b": 2, "entries": 5},
    {"d_a": 2, "d_b": 2, "entries": None},
    {"d_a": 2, "d_b": 2, "entries": [1.0] * 16},
    {"d_a": 2, "d_b": 2, "entries": [[1.0, 0.0, 0.0]] * 16},
    {"d_a": 2, "d_b": 2, "entries": [["a", "b"]] * 16},
    {"d_a": "two", "d_b": 2, "entries": []},
    {"d_b": 2, "entries": []},
    [1, 2],
    {"d_a": 0, "d_b": 2, "entries": []},
    {"d_a": -1, "d_b": -1, "entries": [[1.0, 0.0]]},
])
def test_malformed_state_json(tmp_path, capsys, payload):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")


@pytest.mark.parametrize("command,d", [("measure", "2"), ("bnt", "3")])
def test_separable_target_row(capsys, command, d):
    code, out, _ = run_cli(capsys, command, "--d", d, "--alpha", "0.2")
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(RESULT_COLUMNS, row.split(",")))
    assert float(values["B"]) == 0.0 and float(values["D_closed"]) == 0.0
    assert float(values["D_numeric"]) <= 1e-9
    assert values["discrepancy"] == values["D_numeric"]
    assert values["converged"] == "true"


def test_projection_error_partial_row(monkeypatch, capsys):
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mr = MeasureResult(0.6, ProductEnsemble(((0.5, e0, e0), (0.5, e1, e1))), 1e-3, 7, False)

    def failing_bnt_check(target, cfg):
        raise ProjectionError("projection gap above tolerance", mr)

    monkeypatch.setattr(cli, "bnt_check", failing_bnt_check)
    code, out, err = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8")
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")
    values = dict(zip(RESULT_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert values["converged"] == "false" and values["iters"] == "7"
    b = float(values["B"])
    assert b > 0 and float(values["discrepancy"]) == pytest.approx(abs(0.6 - b), abs=1e-11)


@pytest.mark.parametrize("settings,flags", [
    ([1, 2], ()),
    ({"n_starts": "abc"}, ()),
    ({"tol_conv": None}, ()),
    ({"n_start": 1}, ()),
    (None, ("--n-starts", "0")),
    (None, ("--n-starts", "-1")),
    (None, ("--tol-gap", "0")),
    (None, ("--tol-gap", "inf")),
])
def test_bad_solver_settings(tmp_path, capsys, settings, flags):
    if settings is not None:
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(settings))
        flags = ("--solver-config", str(path))
    code, out, err = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", *flags)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")


@pytest.mark.parametrize("argv", [
    ("iso-sweep", "--alpha", "0.5", "--seed", "3"),
    ("gamma-signs", "--n-starts", "4"),
    ("chsh-scan", "--alpha", "0.5", "--max-iters", "1"),
    ("witness-check", "--alpha", "0.5", "--tol-gap", "1e-6"),
    ("bnt", "--d", "x", "--alpha", "0.5"),
])
def test_usage_error_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "error:" in err


def test_help_exit_code(capsys):
    code, out, _ = run_cli(capsys, "bnt", "--help")
    assert code == 0
    assert "--tol-gap" in out


def test_cli_runs_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys\n"
        "from witnesskit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['chsh-scan', '--alpha', '0.5:1.0:0.1']),\n"
        "             main(['bnt', '--d', '2', '--alpha', '0.8']),\n"
        "             main(['witness-check', '--d', '2', '--alpha', '0.8'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"
