"""Command-line frontend: alpha sweeps, witness checks, separable-set
projections, distance-vs-violation comparisons, sign patterns, and CHSH
scans, emitted as CSV or JSON for external plotting.

Exit codes: 0 success, 1 usage or domain error, 2 solver non-convergence
(partial rows, where there are any, are still emitted and flag the failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .linalg import hs_inner
# gbi_violation and nearest_separable are not called here; perfbench/layers.py patches them
from .measures import (
    ProjectionConfig,
    ProjectionError,
    bnt_check,
    bnt_report,
    gbi_violation,
    isotropic_distance,
    nearest_separable,
)
from .states import (
    DensityMatrix,
    IsotropicParams,
    density_from_json,
    gamma_signs,
    isotropic,
    isotropic_separability,
)
from .witness import (SolverConfig, SolverError, chsh_max_violation,
                      verify_nearest_separable, witness_candidate)

#: column order of projection/violation result rows
RESULT_COLUMNS = ("d", "alpha", "D_closed", "D_numeric", "B", "discrepancy", "gap", "iters", "converged")
#: most points an alpha grid may have
MAX_ALPHA_POINTS = 10**5


def _py(x):
    return x.item() if isinstance(x, np.generic) else x


def _fmt(x) -> str:
    x = _py(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{x:.12g}"


def _parse_alpha_range(spec: str):
    """'v' for a single value, 'start:end:step' for an inclusive grid of at
    most MAX_ALPHA_POINTS points; a grid point past ``end`` by a rounding
    error still counts as ``end``."""
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
    # the grid below has floor((end - start) / step + 1e-9) + 1 points
    if (end - start) / step + 1e-9 >= MAX_ALPHA_POINTS:
        raise ValueError(f"bad alpha range {spec!r}; more than {MAX_ALPHA_POINTS} points")
    values = []
    while (v := start + len(values) * step) <= end + 1e-9 * step:
        values.append(v)
    return values


def _emit(rows, columns, args):
    if args.format == "json":
        payload = [dict(zip(columns, (_py(x) for x in row))) for row in rows]
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


def _solver_config(args, base: SolverConfig = SolverConfig()) -> SolverConfig:
    """``base`` with the solver flags that were given."""
    flags = {"n_starts": args.n_starts, "max_iters": args.max_iters, "seed": args.seed}
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


def _projection_config(args) -> ProjectionConfig:
    default = ProjectionConfig()
    tol_gap = default.tol_gap if args.tol_gap is None else args.tol_gap
    return replace(default, tol_gap=tol_gap, solver=_solver_config(args, default.solver))


def _load_state(path: str) -> DensityMatrix:
    with open(path) as fh:
        return density_from_json(json.load(fh))


def _target(args):
    """``(state, d, alpha)``: the --state file with d = alpha = None, or the
    isotropic state of --d and a single --alpha value."""
    if args.state:
        if args.alpha is not None:
            raise ValueError("--alpha does not apply with --state")
        return _load_state(args.state), None, None
    values = _parse_alpha_range(args.alpha)
    if len(values) != 1:
        raise ValueError("this command takes a single --alpha value")
    return isotropic(args.d, values[0]), args.d, values[0]


def _result_row(d, alpha, report):
    d_closed = None if alpha is None else isotropic_distance(d, alpha)
    mr = report.measure
    return (
        d, alpha, d_closed, mr.distance, report.b_value, report.discrepancy,
        mr.gap_certificate, mr.iterations, mr.converged,
    )


def cmd_iso_sweep(args) -> int:
    columns = ("d", "alpha", "threshold", "separable", "D")
    rows = []
    for alpha in _parse_alpha_range(args.alpha):
        p = IsotropicParams(args.d, alpha)
        sep = isotropic_separability(args.d, alpha) == "separable"
        rows.append((args.d, alpha, p.threshold, sep, isotropic_distance(args.d, alpha)))
    _emit(rows, columns, args)
    return 0


def cmd_gamma_signs(args) -> int:
    signs = gamma_signs(args.d)
    pattern = " ".join("+" if s > 0 else "-" for s in signs)
    if args.format == "json":
        text = json.dumps({"d": args.d, "signs": [int(s) for s in signs]}) + "\n"
    else:
        text = pattern + "\n"
    _write(text, args)
    return 0


def cmd_witness_check(args) -> int:
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
        report = verify_nearest_separable(guess, target, _solver_config(args))
    except SolverError as exc:  # partial row: the best value found, certifying nothing
        ent = hs_inner(target.matrix, witness_candidate(guess, target)).real
        _emit([(d, alpha, ent, exc.best_value, False, False)], columns, args)
        raise
    _emit([(d, alpha, report.ent_expectation, report.sep_minimum,
            report.is_witness, report.is_optimal)], columns, args)
    return 0


def cmd_measure(args) -> int:
    target, d, alpha = _target(args)
    cfg = _projection_config(args)
    exit_code = 0
    try:
        report = bnt_check(target, cfg)
    except ProjectionError as exc:
        report = bnt_report(target, exc.result, cfg.solver)
        exit_code = 2
        print(f"witnesskit: {exc}", file=sys.stderr)
    _emit([_result_row(d, alpha, report)], RESULT_COLUMNS, args)
    return exit_code


def cmd_chsh_scan(args) -> int:
    if args.d != 2:
        raise ValueError("chsh-scan is defined for d = 2 only")
    columns = ("d", "alpha", "chsh_max", "lhv_bound", "violates_chsh")
    rows = []
    for alpha in _parse_alpha_range(args.alpha):
        value = chsh_max_violation(isotropic(2, alpha))
        rows.append((2, alpha, value, 2.0, value > 2.0))
    _emit(rows, columns, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witnesskit",
        description="Entanglement witnesses and Hilbert-Schmidt distances for isotropic qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_alpha=True):
        p.add_argument("--d", type=int, default=2, help="subsystem dimension")
        if needs_alpha:
            p.add_argument("--alpha", required=False,
                           help="mixing parameter, single value or start:end:step")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def solver(p, projection=False):
        """Flags of the subcommands that run the product-state minimizer."""
        p.add_argument("--n-starts", type=int, default=None)
        p.add_argument("--max-iters", type=int, default=None)
        if projection:
            p.add_argument("--tol-gap", type=float, default=None)
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")

    p = sub.add_parser("iso-sweep", help="closed-form distance sweep over alpha")
    common(p)
    p.set_defaults(func=cmd_iso_sweep)

    p = sub.add_parser("witness-check", help="check a nearest-separable-state guess")
    common(p)
    solver(p)
    p.add_argument("--guess-alpha", type=float, default=None,
                   help="alpha of the isotropic guess state (default: threshold)")
    p.add_argument("--state", default=None, help="target state JSON file")
    p.add_argument("--guess", default=None, help="guess state JSON file")
    p.set_defaults(func=cmd_witness_check)

    p = sub.add_parser("measure", help="numeric projection onto the separable set")
    common(p)
    solver(p, projection=True)
    p.add_argument("--state", default=None, help="target state JSON file")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bnt", help="compare numeric distance with maximal GBI violation")
    common(p)
    solver(p, projection=True)
    p.set_defaults(func=cmd_measure, state=None)

    p = sub.add_parser("gamma-signs", help="sign pattern of the correlation operator")
    common(p, needs_alpha=False)
    p.set_defaults(func=cmd_gamma_signs)

    p = sub.add_parser("chsh-scan", help="exact CHSH maximum over settings")
    common(p)
    p.set_defaults(func=cmd_chsh_scan)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    if "alpha" in args and args.alpha is None and not getattr(args, "state", None):
        print("witnesskit: --alpha is required (or --state where supported)", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"witnesskit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as exc:
        print(f"witnesskit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
