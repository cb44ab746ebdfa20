import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from witnesskit import cli
from witnesskit.cli import RESULT_COLUMNS, _parse_alpha_range, main
from witnesskit.measures import BntReport, MeasureResult, ProjectionConfig, ProjectionError
from witnesskit.states import ProductEnsemble, density_to_json, isotropic
from witnesskit.witness import SolverConfig, WitnessReport


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
    # a point past the end by more than rounding is left out
    assert _parse_alpha_range("0:0.5:0.3") == [0.0, 0.3]
    assert _parse_alpha_range("0.5:1.0:0.3") == [0.5, 0.8]
    assert _parse_alpha_range("0.4:1.0:0.1")[-1] == 1.0
    # one past the end by rounding still counts as the end
    assert _parse_alpha_range("0.1:0.7:0.2")[-1] == 0.7000000000000001


def test_parse_alpha_range_bad_spec():
    with pytest.raises(ValueError):
        _parse_alpha_range("0.1:0.5")
    with pytest.raises(ValueError):
        _parse_alpha_range("0.1:0.5:-0.1")
    with pytest.raises(ValueError):
        _parse_alpha_range("1:0:0.1")
    with pytest.raises(ValueError):
        _parse_alpha_range("0:1:1e-9")


@pytest.mark.parametrize("command", ["iso-sweep", "chsh-scan"])
def test_alpha_range_too_many_points(capsys, command):
    code, out, err = run_cli(capsys, command, "--d", "2", "--alpha", "0:1:1e-9")
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "100000 points" in err


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


@pytest.mark.parametrize("argv", [
    ("measure", "--alpha", "0.5"),
    ("witness-check", "--alpha", "0.5", "--guess", "{path}"),
    ("witness-check", "--guess-alpha", "0.3", "--guess", "{path}"),
])
def test_state_rejects_isotropic_flags(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    argv = [a.format(path=path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--state", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and argv[1] in err and "--state" in err


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


def _setting(flag):
    """The settings name of a solver flag; no flag stands for --n-starts."""
    return (flag or ("--n-starts",))[0][2:].replace("-", "_")


@pytest.mark.parametrize("command", ["bnt", "measure"])
@pytest.mark.parametrize("flag,expected", [
    ((), ProjectionConfig().solver.n_starts),
    (("--n-starts", "1"), 1),
    (("--n-starts", "64"), 64),
    (("--max-iters", "7"), 7),
    (("--seed", "5"), 5),
    (("--tol-gap", "1e-6"), 1e-6),
])
def test_projection_honours_n_starts(monkeypatch, capsys, command, flag, expected):
    seen = []

    def fake_bnt_check(target, cfg):
        seen.append(cfg)
        e = np.array([1.0, 0.0])
        mr = MeasureResult(0.5, ProductEnsemble(((1.0, e, e),)), 0.0, 1)
        return BntReport(0.5, 0.5, 0.0, mr)

    monkeypatch.setattr(cli, "bnt_check", fake_bnt_check)
    code, _, _ = run_cli(capsys, command, "--d", "2", "--alpha", "0.8", *flag)
    assert code == 0
    default = ProjectionConfig()
    if _setting(flag) == "tol_gap":
        assert seen == [replace(default, tol_gap=expected)]
    else:
        assert seen == [replace(default, solver=replace(default.solver, **{_setting(flag): expected}))]


@pytest.mark.parametrize("flag,expected", [
    ((), SolverConfig().n_starts),
    (("--n-starts", "1"), 1),
    (("--max-iters", "7"), 7),
    (("--seed", "5"), 5),
])
def test_witness_check_honours_solver_flags(monkeypatch, capsys, flag, expected):
    seen = []

    def fake_verify(guess, target, cfg):
        seen.append(cfg)
        return WitnessReport(-0.5, 0.0, True, True)

    monkeypatch.setattr(cli, "verify_nearest_separable", fake_verify)
    code, _, _ = run_cli(capsys, "witness-check", "--d", "2", "--alpha", "0.8", *flag)
    assert code == 0
    assert seen == [replace(SolverConfig(), **{_setting(flag): expected})]


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


MIXED_2X2 = [[0.25 if i % 5 == 0 else 0.0, 0.0] for i in range(16)]


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
    # a string payload is written as raw text
    pytest.param('{"d_a": 1e400, "d_b": 2, "entries": []}', id="d_a-1e400"),
    {"d_a": float("inf"), "d_b": 2, "entries": []},
    pytest.param('{"d_a": 1, "d_b": 1, "entries": [[1' + "0" * 400 + ', 0]]}', id="entry-1e400"),
    {"d_a": 2.7, "d_b": 2, "entries": MIXED_2X2},
    {"d_a": True, "d_b": 2, "entries": MIXED_2X2[:4]},
    {"d_a": "2", "d_b": 2, "entries": MIXED_2X2},
    {"d_a": 2, "d_b": 2, "entries": [[float("nan"), 0.0]] + MIXED_2X2[1:]},
    {"d_a": 2, "d_b": 2, "entries": [[float("inf"), 0.0]] + MIXED_2X2[1:]},
    {"d_a": 2, "d_b": 2, "entries": [[1e308, 0.0]] * 16},  # the trace overflows
    {"d_a": 2, "d_b": 2, "entries": [[1e308, 0.0], [-1e308, 0.0]] + [[1e308, 0.0]] * 14},
    pytest.param('{"d_a": 1' + "0" * 2200 + ', "d_b": 2, "entries": [[1, 0]]}', id="d_a-2201-digits"),
])
def test_malformed_state_json(tmp_path, capsys, payload):
    path = tmp_path / "state.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("witnesskit:")


def test_state_entry_count_message_with_huge_dimension(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"d_a": 1' + "0" * 2200 + ', "d_b": 2, "entries": [[1, 0]]}')
    code, _, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 1
    assert err == "witnesskit: got 1 entries, expected (d_a * d_b)^2\n"


NOT_A_NUMBER = st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=3),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
BAD_DIMENSION = st.one_of(NOT_A_NUMBER, st.booleans(), st.floats(), st.integers(max_value=0),
                          st.integers(min_value=10**6))
# any entry of modulus above 1 rules out a density matrix
BAD_NUMBER = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -10**400]),
                       st.floats(min_value=1e300, max_value=1.7e308), st.floats(min_value=-1.7e308, max_value=-1e300))
BAD_ENTRY = st.one_of(st.floats(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                      st.lists(st.floats(-1, 1), max_size=1), st.lists(st.floats(-1, 1), min_size=3, max_size=4),
                      st.floats(-1, 1).map(lambda x: [[x, x]]),
                      st.tuples(NOT_A_NUMBER, st.floats(-1, 1)).map(list),
                      st.tuples(st.floats(-1, 1), NOT_A_NUMBER).map(list))
DEFECTS = ("number", "entry", "length", "entries", "dimension", "document")


@st.composite
def malformed_state_documents(draw):
    """A maximally mixed state document with at least one defect; each
    defect is applied after the ones it could overwrite, so the last one
    always stands."""
    d_a, d_b = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    n = d_a * d_b
    entries = [[1 / n if i % (n + 1) == 0 else 0.0, 0.0] for i in range(n * n)]
    doc = {"d_a": d_a, "d_b": d_b, "entries": entries}
    defects = draw(st.sets(st.sampled_from(DEFECTS), min_size=1, max_size=2))
    index = st.integers(0, n * n - 1)
    if "number" in defects:
        entries[draw(index)][draw(st.integers(0, 1))] = draw(BAD_NUMBER)
    if "entry" in defects:
        entries[draw(index)] = draw(BAD_ENTRY)
    if "length" in defects:
        k = draw(st.integers(1, n * n))
        doc["entries"] = entries[k:] if draw(st.booleans()) else entries + [[0.0, 0.0]] * k
    if "entries" in defects:
        doc["entries"] = draw(st.one_of(NOT_A_NUMBER, st.floats()))
    if "dimension" in defects:
        key = draw(st.sampled_from(["d_a", "d_b"]))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(BAD_DIMENSION)
    if "document" in defects:
        doc = draw(st.one_of(NOT_A_NUMBER, st.floats(), st.booleans(), st.lists(st.just(doc), max_size=2)))
    return json.dumps(doc)


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=malformed_state_documents())
@example(text='{"d_a": 1e400, "d_b": 2, "entries": []}')
@example(text='{"d_a": Infinity, "d_b": 2, "entries": []}')
@example(text='{"d_a": 1, "d_b": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
def test_malformed_state_json_fuzz(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("witnesskit:")


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


# fixed ids, so that results stay comparable with earlier runs of the suite
@pytest.mark.parametrize("flags", [
    pytest.param(("--n-starts", "0"), id="None-flags4"),
    pytest.param(("--n-starts", "-1"), id="None-flags5"),
    pytest.param(("--tol-gap", "0"), id="None-flags6"),
    pytest.param(("--tol-gap", "inf"), id="None-flags7"),
])
def test_bad_solver_settings(capsys, flags):
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
    ("bnt", "--alpha", "0.5", "--solver-config", "x.json"),
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
