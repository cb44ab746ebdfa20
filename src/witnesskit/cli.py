"""Command-line frontend: alpha sweeps, witness checks, separable-set
projections, distance-vs-violation comparisons, sign patterns, and CHSH
scans, emitted as CSV or JSON for external plotting.

Exit codes, set by ``main`` alone: 0 success, 1 usage or domain error, 2
solver non-convergence or numpy's ``LinAlgError`` (partial rows flagged).

BLAS runs on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set: witnesskit's matrices are at most a few hundred wide, so a second
OpenBLAS thread only spins, and its rounding moves the last printed digit.
The count is set when this module loads before numpy does, as it does under
``python -m witnesskit.cli`` and the ``witnesskit`` script; a process that
imported numpy first keeps its threads and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

# OpenBLAS reads its thread count once, when numpy loads
if "numpy" not in sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .linalg import hs_inner
# gbi_violation and nearest_separable are not called here; perfbench/layers.py patches them
from .measures import (
    ProjectionConfig,
    ProjectionError,
    bnt_check,
    bnt_report,
    gbi_violation,
    hs_measure_isotropic,
    nearest_separable,
)
from .states import (
    DensityMatrix,
    IsotropicParams,
    density_from_json,
    gamma_signs,
    isotropic,
)
from .witness import (SolverConfig, SolverError, chsh_max_violation,
                      verify_nearest_separable, witness_candidate)

#: column order of projection/violation result rows
RESULT_COLUMNS = ("d", "alpha", "D_closed", "D_numeric", "B", "discrepancy", "gap", "iters", "converged")
#: most points an alpha grid may have
MAX_ALPHA_POINTS = 10**5
#: subsystem dimension of the isotropic states when --d is not given
DEFAULT_D = 2


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def _parse_alpha_range(spec: str | None):
    """'v' for a single value, 'start:end:step' for an inclusive grid of at
    most MAX_ALPHA_POINTS points; a grid point past ``end`` by a rounding
    error still counts as ``end``.  ``None`` (no --alpha) raises."""
    if spec is None:
        raise ValueError("--alpha is required (or --state where supported)")
    parts = spec.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise ValueError(f"bad alpha range {spec!r}; expected start:end:step")
    start, end, step = (float(p) for p in parts)
    if not np.isfinite([start, end, step]).all():
        raise ValueError(f"bad alpha range {spec!r}; start, end and step must be finite")
    if step <= 0:
        raise ValueError("alpha range step must be > 0")
    if start > end:
        raise ValueError(f"bad alpha range {spec!r}; start must not exceed end")
    last = (end - start) / step + 1e-9  # the grid's last index, before rounding down
    if last >= MAX_ALPHA_POINTS:
        raise ValueError(f"bad alpha range {spec!r}; more than {MAX_ALPHA_POINTS} points")
    return [start + i * step for i in range(int(last) + 1)]


def _emit(rows, columns, args):
    if args.format == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args)


def _write(text: str, args):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, base: SolverConfig) -> SolverConfig:
    """``base`` with the settings whose flags were given; every field of
    ``base`` is a flag of the subcommand."""
    given = {f.name: getattr(args, f.name) for f in fields(base)}
    return replace(base, **{k: v for k, v in given.items() if v is not None})


def _load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        return density_from_json(json.load(fh))


def _target(args):
    """``(state, d, alpha)``: the --state file with d = alpha = None, or the
    isotropic state of --d (default DEFAULT_D) and a single --alpha value."""
    if args.state:
        for flag, value in (("--alpha", args.alpha), ("--d", args.d)):
            if value is not None:
                raise ValueError(f"{flag} does not apply with --state")
        return _load_state(args.state), None, None
    values = _parse_alpha_range(args.alpha)
    if len(values) != 1:
        raise ValueError("this command takes a single --alpha value")
    d = DEFAULT_D if args.d is None else args.d
    return isotropic(d, values[0]), d, values[0]


def _result_row(d, alpha, report):
    d_closed = None if alpha is None else hs_measure_isotropic(d, alpha)
    mr = report.measure
    return (
        d, alpha, d_closed, mr.distance, report.b_value, report.discrepancy,
        mr.gap_certificate, mr.iterations, mr.converged,
    )


def cmd_iso_sweep(args) -> None:
    columns = ("d", "alpha", "threshold", "separable", "D")
    rows = []
    for alpha in _parse_alpha_range(args.alpha):
        p = IsotropicParams(args.d, alpha)
        rows.append((args.d, alpha, p.threshold, p.separable, hs_measure_isotropic(args.d, alpha)))
    _emit(rows, columns, args)


def cmd_gamma_signs(args) -> None:
    signs = gamma_signs(args.d)
    pattern = " ".join("+" if s > 0 else "-" for s in signs)
    if args.format == "json":
        text = json.dumps({"d": args.d, "signs": [int(s) for s in signs]}) + "\n"
    else:
        text = pattern + "\n"
    _write(text, args)


def cmd_witness_check(args) -> None:
    if (args.state is None) != (args.guess is None):
        raise ValueError("--state and --guess must be given together")
    if args.state and args.guess_alpha is not None:
        raise ValueError("--guess-alpha does not apply with --state")
    target, d, alpha = _target(args)
    if args.state:
        guess = _load_state(args.guess)
    else:
        guess = isotropic(d, args.guess_alpha if args.guess_alpha is not None
                          else IsotropicParams(d, alpha).threshold)
    columns = ("d", "alpha", "ent_expectation", "sep_minimum", "is_witness", "is_optimal")
    try:
        report = verify_nearest_separable(guess, target, _config(args, SolverConfig()))
    except SolverError as exc:  # partial row: the best value found, certifying nothing
        ent = hs_inner(target.matrix, witness_candidate(guess, target)).real
        _emit([(d, alpha, ent, exc.best_value, False, False)], columns, args)
        raise
    _emit([(d, alpha, report.ent_expectation, report.sep_minimum,
            report.is_witness, report.is_optimal)], columns, args)


def cmd_measure(args) -> None:
    target, d, alpha = _target(args)
    cfg = _config(args, ProjectionConfig())
    try:
        report = bnt_check(target, cfg)
    except ProjectionError as exc:  # partial row: the last iterate, flagged as not converged
        _emit([_result_row(d, alpha, bnt_report(target, exc.result, cfg))], RESULT_COLUMNS, args)
        raise
    _emit([_result_row(d, alpha, report)], RESULT_COLUMNS, args)


def cmd_chsh_scan(args) -> None:
    if args.d != 2:
        raise ValueError("chsh-scan is defined for d = 2 only")
    columns = ("d", "alpha", "chsh_max", "lhv_bound", "violates_chsh")
    rows = []
    for alpha in _parse_alpha_range(args.alpha):
        value = chsh_max_violation(isotropic(2, alpha))
        rows.append((2, alpha, value, 2.0, value > 2.0))
    _emit(rows, columns, args)


#: add_argument settings of every flag but --d
FLAGS = {
    "--alpha": dict(help="mixing parameter, single value or start:end:step"),
    "--output": dict(help="output path (default stdout)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--n-starts": dict(type=int),
    "--max-iters": dict(type=int),
    "--tol-gap": dict(type=float),
    "--seed": dict(type=int, help=f"RNG seed (default {SolverConfig.seed})"),
    "--guess-alpha": dict(type=float, help="alpha of the isotropic guess state (default: threshold)"),
    "--state": dict(help="target state JSON file"),
    "--guess": dict(help="guess state JSON file"),
}
#: flags of every subcommand that takes --alpha
_COMMON = ("--alpha", "--output", "--format")
#: (name, help, handler, flags after --d) of each subcommand, in --help order
SUBCOMMANDS = (
    ("iso-sweep", "closed-form distance sweep over alpha", cmd_iso_sweep, _COMMON),
    ("witness-check", "check a nearest-separable-state guess", cmd_witness_check,
     _COMMON + ("--n-starts", "--max-iters", "--seed", "--guess-alpha", "--state", "--guess")),
    ("measure", "numeric projection onto the separable set", cmd_measure,
     _COMMON + ("--n-starts", "--max-iters", "--tol-gap", "--seed", "--state")),
    ("bnt", "compare numeric distance with maximal GBI violation", cmd_measure,
     _COMMON + ("--n-starts", "--max-iters", "--tol-gap", "--seed")),
    ("gamma-signs", "sign pattern of the correlation operator", cmd_gamma_signs, ("--output", "--format")),
    ("chsh-scan", "exact CHSH maximum over settings", cmd_chsh_scan, _COMMON),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesskit",
        description="Entanglement witnesses and Hilbert-Schmidt distances for isotropic qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        # where --state is accepted, --d is unset (None), so that _target can reject it
        p.add_argument("--d", type=int, default=None if "--state" in flags else DEFAULT_D,
                       help="subsystem dimension")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func, state=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        args.func(args)
    except (SolverError, ProjectionError, np.linalg.LinAlgError) as exc:
        print(f"witnesskit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, OverflowError, RecursionError) as exc:
        print(f"witnesskit: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
