import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from witnesskit import cli, measures
from witnesskit.cli import RESULT_COLUMNS, _parse_alpha_range, build_parser, main
from witnesskit.measures import BntReport, MeasureResult, ProjectionConfig, ProjectionError
from witnesskit.states import DensityMatrix, ProductEnsemble, density_to_json, isotropic
from witnesskit.witness import MAX_STARTS, SolverConfig, WitnessReport

from operators import _rotated, horodecki_3x3, werner, werner_distance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_error(capsys, *argv):
    """stderr of ``main(argv)``, which must exit 1 with empty stdout and a
    single ``witnesskit:`` line on stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("witnesskit:")
    return err


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
    assert "100000 points" in run_cli_error(capsys, command, "--d", "2", "--alpha", "0:1:1e-9")


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
    err = run_cli_error(capsys, "witness-check", "--d", "2", "--alpha", "0.8", f"--{pair}", str(path))
    assert "--state" in err and "--guess" in err


@pytest.mark.parametrize("argv", [
    ("measure", "--alpha", "0.5"),
    ("witness-check", "--alpha", "0.5", "--guess", "{path}"),
    ("witness-check", "--guess-alpha", "0.3", "--guess", "{path}"),
    ("measure", "--d", "3"),
    ("measure", "--d", "2"),
    ("witness-check", "--d", "7", "--guess", "{path}"),
])
def test_state_rejects_isotropic_flags(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    argv = [a.format(path=path) for a in argv]
    err = run_cli_error(capsys, *argv, "--state", str(path))
    assert argv[1] in err and "--state" in err


def test_witness_check_state_files(tmp_path, capsys):
    target, guess = tmp_path / "target.json", tmp_path / "guess.json"
    target.write_text(json.dumps(density_to_json(isotropic(2, 0.8))))
    guess.write_text(json.dumps(density_to_json(isotropic(2, 1 / 3))))
    code, out, _ = run_cli(capsys, "witness-check", "--state", str(target),
                           "--guess", str(guess), "--n-starts", "8")
    assert code == 0
    values = dict(zip(*(line.split(",") for line in out.strip().splitlines())))
    assert values["d"] == "" and values["is_witness"] == "true"


def test_witness_check_rejects_other_partition(tmp_path, capsys):
    # 6 x 6 matrices on the same total dimension, split as 2 x 3 and as 3 x 2
    target, guess = tmp_path / "target.json", tmp_path / "guess.json"
    t = np.diag([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    target.write_text(json.dumps(density_to_json(DensityMatrix(t, 2, 3))))
    guess.write_text(json.dumps(density_to_json(DensityMatrix(np.eye(6) / 6, 3, 2))))
    code, out, err = run_cli(capsys, "witness-check", "--state", str(target),
                             "--guess", str(guess), "--n-starts", "8")
    assert code == 1 and out == ""
    assert err == "witnesskit: guess is 3 x 2 but target is 2 x 3\n"


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
    # Werner(5, 0.9) takes the {W (x) W} group, whose 25 twirled atoms are
    # nearly affinely dependent; a rotated Werner(4, 0.9) finds that group in
    # the frame of its partial transpose
    path = tmp_path / "state.json"
    for state, distance, tol in [(isotropic(2, 0.8), np.sqrt(3) / 2 * (0.8 - 1 / 3), 5e-4),
                                 (werner(5, 0.9), werner_distance(5, 0.9), 1e-10),
                                 (_rotated(werner(4, 0.9), 0), werner_distance(4, 0.9), 1e-10)]:
        path.write_text(json.dumps(density_to_json(state)))
        code, out, _ = run_cli(capsys, "measure", "--state", str(path))
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(RESULT_COLUMNS, row.split(",")))
        assert values["d"] == "" and values["D_closed"] == ""
        assert values["converged"] == "true"
        assert float(values["D_numeric"]) == pytest.approx(distance, abs=tol)


def test_measure_state_file_with_seed(tmp_path, capsys):
    # at seed 2 a weight step on Horodecki 3x3 (4.0) meets a reduced H whose
    # trace rounds to 0; it must still print a converged row
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json(horodecki_3x3(4.0))))
    code, out, err = run_cli(capsys, "measure", "--state", str(path), "--seed", "2")
    assert code == 0 and err == ""
    values = dict(zip(RESULT_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert values["converged"] == "true"
    assert abs(float(values["D_numeric"]) - 0.0554153317) <= 1e-8


def test_measure_pure_product_state_file(tmp_path, capsys):
    # |+>|0>: separable, so a success with B = 0, though D and the gap are at rounding level
    path = tmp_path / "state.json"
    plus_zero = np.zeros((4, 4))
    plus_zero[np.ix_([0, 2], [0, 2])] = 0.5
    path.write_text(json.dumps(density_to_json(DensityMatrix(plus_zero, 2, 2))))
    code, out, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 0 and err == ""
    values = dict(zip(RESULT_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert float(values["D_numeric"]) <= 1e-12 and float(values["B"]) == 0.0
    assert values["converged"] == "true"


def test_chsh_scan(capsys):
    code, out, _ = run_cli(capsys, "chsh-scan", "--d", "2", "--alpha", "1.0")
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["chsh_max"]) == pytest.approx(2 * np.sqrt(2), abs=1e-10)
    assert values["violates_chsh"] == "true"


def test_chsh_scan_rejects_qutrits(capsys):
    assert "d = 2" in run_cli_error(capsys, "chsh-scan", "--d", "3", "--alpha", "0.5")


def test_gamma_signs_rejects_d_1(capsys):
    assert run_cli_error(capsys, "gamma-signs", "--d", "1") == "witnesskit: need d >= 2, got 1\n"


def test_exit_code_on_bad_alpha(capsys):
    assert "alpha = 1.5" in run_cli_error(capsys, "iso-sweep", "--d", "2", "--alpha", "1.5")


@pytest.mark.parametrize("spec", ["0:inf:0.1", "0:1:nan", "nan:1:0.1", "-inf:1:0.1", "0:nan:0.1"])
def test_non_finite_alpha_range(capsys, spec):
    assert "finite" in run_cli_error(capsys, "iso-sweep", "--d", "2", f"--alpha={spec}")


def test_single_alpha_commands_reject_a_grid(capsys):
    assert "single --alpha value" in run_cli_error(capsys, "bnt", "--alpha", "0.5:0.7:0.1")


def test_missing_alpha(capsys):
    assert "--alpha" in run_cli_error(capsys, "bnt", "--d", "2")


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
    # rows whose flags and numbers come from the library's results: JSON
    # booleans, JSON integers for d and iters, and a float in every other field
    cases = [
        ("witness-check --d 3 --alpha 0.8", {"is_witness": True, "is_optimal": True}, {"d"}),
        ("witness-check --d 3 --alpha 0.8 --guess-alpha 0.0",
         {"is_witness": False, "is_optimal": False}, {"d"}),
        ("bnt --d 2 --alpha 0.8", {"converged": True}, {"d", "iters"}),
    ]
    for args, flags, ints in cases:
        code, out, _ = run_cli(capsys, *args.split(), "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert all(row[key] is value for key, value in flags.items())
        assert all(type(row[key]) is int for key in ints)
        floats = row.keys() - flags.keys() - ints
        assert len(floats) >= 3 and all(type(row[key]) is float for key in floats)


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
    ((), ProjectionConfig().n_starts),
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
        mr = MeasureResult(0.5, ProductEnsemble([1.0], [e], [e]), 0.0, 1)
        return BntReport(0.5, 0.5, 0.0, mr)

    monkeypatch.setattr(cli, "bnt_check", fake_bnt_check)
    code, _, _ = run_cli(capsys, command, "--d", "2", "--alpha", "0.8", *flag)
    assert code == 0
    assert seen == [replace(ProjectionConfig(), **{_setting(flag): expected})]


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
    assert len(err.splitlines()) == 1 and err.startswith("witnesskit:")
    header, row = out.splitlines()
    assert row.endswith(",false,false")
    values = dict(zip(header.split(","), row.split(",")))
    assert np.isfinite(float(values["sep_minimum"]))


def test_bnt_solver_error_exit_code(capsys):
    # no row: the product-state minimizer, not the projection, ran out of iterations
    code, out, err = run_cli(capsys, "bnt", "--d", "2", "--alpha", "0.8", "--max-iters", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("witnesskit:")


def test_linalg_error_exit_code(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, but a failure inside the solvers is no usage error
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(measures, "_corrective_weights", singular)
    code, out, err = run_cli(capsys, "measure", "--d", "2", "--alpha", "0.8")
    assert code == 2 and out == ""
    assert err == "witnesskit: Singular matrix\n"
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"d_a": 2, "d_b": 2, "entries": 5}))
    run_cli_error(capsys, "measure", "--state", str(path))


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
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),  # past the recursion limit
])
def test_malformed_state_json(tmp_path, capsys, payload):
    path = tmp_path / "state.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    run_cli_error(capsys, "measure", "--state", str(path))


def test_state_entry_count_message_with_huge_dimension(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text('{"d_a": 1' + "0" * 2200 + ', "d_b": 2, "entries": [[1, 0]]}')
    code, _, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 1
    assert err == "witnesskit: got 1 entries, expected (d_a * d_b)^2\n"


FACTOR_BELOW_2 = {
    "0x2": '{"d_a": 0, "d_b": 2, "entries": []}',
    "1x2": '{"d_a": 1, "d_b": 2, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}',
    "1x2-pure": '{"d_a": 1, "d_b": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
}


@pytest.mark.parametrize("argv", [
    pytest.param(("measure", "--state", "0x2"), id="measure-0x2"),
    pytest.param(("measure", "--state", "1x2"), id="measure-1x2"),
    pytest.param(("witness-check", "--state", "1x2", "--guess", "1x2-pure"), id="witness-check-1x2"),
])
def test_state_with_a_factor_below_2(tmp_path, capsys, argv):
    # a factor of dimension 1 is not bipartite: valid 1 x 2 states are refused as 0 x 2 is
    for name, text in FACTOR_BELOW_2.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [str(tmp_path / f"{a}.json") if a in FACTOR_BELOW_2 else a for a in argv]
    assert "need d_a >= 2" in run_cli_error(capsys, *argv)


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
    run_cli_error(capsys, "measure", "--state", str(path))


@pytest.mark.parametrize("command,d,alpha", [
    ("measure", "2", "0.2"), ("bnt", "3", "0.2"), ("measure", "3", "0.1"), ("bnt", "4", "0.15"),
    ("bnt", "2", "0.3333333333333333"),
], ids=["measure-2", "bnt-3", "measure-3-0.1", "bnt-4-0.15", "bnt-2-0.333"])
def test_separable_target_row(capsys, command, d, alpha):
    code, out, _ = run_cli(capsys, command, "--d", d, "--alpha", alpha)
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(RESULT_COLUMNS, row.split(",")))
    assert float(values["B"]) == 0.0 and float(values["D_closed"]) == 0.0
    if alpha == "0.2":
        assert float(values["D_numeric"]) <= 1e-9
    else:  # next to the separable set's boundary: the gap cannot exclude D = 0
        assert float(values["D_numeric"]) ** 2 <= float(values["gap"])
    assert values["discrepancy"] == values["D_numeric"]
    assert values["converged"] == "true"


def test_measure_with_a_loose_gap_tolerance(capsys):
    # a tolerance above every gap still projects: the first atom enters regardless
    code, out, err = run_cli(capsys, "measure", "--d", "2", "--alpha", "0.8", "--tol-gap", "10")
    assert code == 0 and err == ""
    _, row = out.strip().splitlines()
    values = dict(zip(RESULT_COLUMNS, row.split(",")))
    assert values["converged"] == "true" and float(values["gap"]) < 10


@pytest.mark.parametrize("alpha,seed", [("0.9", "3"), ("1.0", "0")])
def test_gap_is_never_negative(capsys, alpha, seed):
    # a gap is >= 0; rounding in the Gram-matrix formula can leave it at about -1e-16
    code, out, _ = run_cli(capsys, "bnt", "--d", "3", "--alpha", alpha, "--seed", seed)
    assert code == 0
    values = dict(zip(RESULT_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert float(values["gap"]) >= 0.0


@pytest.mark.parametrize("argv", [("bnt", "--d", "3000", "--alpha", "0.5"),
                                  ("witness-check", "--d", "2000", "--alpha", "0.8")])
def test_input_too_large_to_allocate(capsys, argv):
    # the d^2 x d^2 state needs over 200 TiB, more than a 48-bit address space holds
    run_cli_error(capsys, *argv)


def test_iso_sweep_past_int64(capsys):
    code, out, err = run_cli(capsys, "iso-sweep", "--d", str(2**40), "--alpha", "0.5")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split(",")[-1] == "0.499999999999"


@pytest.mark.parametrize("argv", [
    ("iso-sweep", "--d", str(10**200), "--alpha", "0.5"),
    ("iso-sweep", "--d", str(10**155), "--alpha", "0.5"),
    ("bnt", "--d", str(10**155), "--alpha", "0.5"),
    ("witness-check", "--d", str(10**155), "--alpha", "0.8"),
])
def test_d_past_the_float_range(capsys, argv):
    # 1 / (d^2 - 1) overflows a float: a domain error that names d, not a traceback
    assert run_cli_error(capsys, *argv).startswith(f"witnesskit: d = {argv[2]} is too large")


def test_projection_error_partial_row(monkeypatch, capsys):
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mr = MeasureResult(0.6, ProductEnsemble([0.5, 0.5], [e0, e1], [e0, e1]), 1e-3, 7, False)

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


def test_projection_error_row_from_the_projection(tmp_path, monkeypatch, capsys):
    # a pure state with white noise that no local group fixes, so the
    # projection needs more than 2 iterations
    rng = np.random.default_rng(0)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    path = tmp_path / "state.json"
    target = DensityMatrix(0.8 * np.outer(v, v.conj()) + 0.2 * np.eye(9) / 9, 3, 3)
    path.write_text(json.dumps(density_to_json(target)))
    monkeypatch.setattr(measures, "MAX_OUTER_ITERS", 2)
    code, out, err = run_cli(capsys, "measure", "--state", str(path))
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "after 2 iterations" in err
    values = dict(zip(RESULT_COLUMNS, out.strip().splitlines()[1].split(",")))
    assert values["converged"] == "false" and values["iters"] == "2"


# fixed ids, so that results stay comparable with earlier runs of the suite
@pytest.mark.parametrize("command,flags", [
    pytest.param("bnt", ("--n-starts", "0"), id="None-flags4"),
    pytest.param("bnt", ("--n-starts", "-1"), id="None-flags5"),
    pytest.param("bnt", ("--tol-gap", "0"), id="None-flags6"),
    pytest.param("bnt", ("--tol-gap", "inf"), id="None-flags7"),
    pytest.param("bnt", ("--n-starts", str(MAX_STARTS + 1)), id="n-starts-above-cap"),
    pytest.param("bnt", ("--max-iters", "0"), id="max-iters-0"),
    pytest.param("bnt", ("--seed", "-1"), id="seed-negative"),
    pytest.param("measure", ("--tol-gap", "0"), id="measure-tol-gap-0"),
    pytest.param("measure", ("--tol-gap", "nan"), id="measure-tol-gap-nan"),
    pytest.param("witness-check", ("--n-starts", str(MAX_STARTS + 1)), id="witness-check-n-starts-above-cap"),
])
def test_bad_solver_settings(capsys, command, flags):
    # the one line names the setting
    assert _setting(flags) in run_cli_error(capsys, command, "--d", "2", "--alpha", "0.8", *flags)


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
    for name, _, _, flags in cli.SUBCOMMANDS:
        code, out, err = run_cli(capsys, name, "--help")
        assert code == 0 and err == ""
        assert all(flag in out for flag in flags)


ROOT = Path(__file__).resolve().parents[1]


def python_env():
    """This process's environment with witnesskit's source first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("args,code,lines", [
    # the witness search runs out of iterations: its partial row still follows the header
    pytest.param("witness-check --d 2 --alpha 0.8 --max-iters 1", 2, 2, id="witness-check-max-iters-1"),
    pytest.param("bnt --d 2 --alpha 0.8 --n-starts 0", 1, 0, id="bnt-n-starts-0"),
])
def test_module_entry_point_exit_code(args, code, lines):
    # main's exit code reaches the process through the module's sys.exit(main())
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "witnesskit.cli", *args.split()],
                          env=python_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("witnesskit:")
    out = proc.stdout.splitlines()
    assert len(out) == lines and all(row.endswith(",false,false") for row in out[1:])


def test_cli_runs_without_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from witnesskit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['chsh-scan', '--alpha', '0.5:1.0:0.1']),\n"
        "             main(['bnt', '--d', '2', '--alpha', '0.8']),\n"
        "             main(['witness-check', '--d', '2', '--alpha', '0.8'])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"


def readme_examples():
    """Arguments of each command in the sh block under README's "## Command line"."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def workflow_examples():
    """Arguments of each ``witnesskit.cli`` command in the run script of the
    CI workflow's "Command-line examples" step."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    step = next(i for i, line in enumerate(lines)
                if line.strip() == "- name: Command-line examples")
    run = next(i for i in range(step, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    script = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        script.append(line)
    argvs = [shlex.split(line) for line in script]
    return [argv[argv.index("witnesskit.cli") + 1:] for argv in argvs if "witnesskit.cli" in argv]


def readme_flags():
    """Subcommand -> flags of the table under README's "Flags by subcommand:",
    "those of `iso-sweep`" expanded."""
    section = (ROOT / "README.md").read_text().split("\nFlags by subcommand:\n", 1)[1]
    rows = section.strip().splitlines()[2:]  # past the header and its rule
    table = {}
    for row in takewhile(lambda row: row.startswith("|"), rows):
        names, flags = row.strip("|").split("|")
        expanded = []
        for item in re.findall(r"`([^`]+)`", flags):
            expanded += [item] if item.startswith("--") else table[item]
        table.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), expanded))
    return table


def test_readme_flag_table_is_the_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
              for name, p in sub.choices.items()}
    assert readme_flags() == parsed


def test_readme_examples_match_the_workflow():
    # CI runs the README's command-line examples; the two lists must not drift
    assert readme_examples()
    assert workflow_examples() == readme_examples()
