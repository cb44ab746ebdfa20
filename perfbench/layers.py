"""Where the traced run attaches spans to witnesskit, and how the spans are
reduced to the per-layer metrics.

Each wrapper sits where the caller looks the name up: ``measures`` imports
``min_over_separable`` by name, so both ``witness.min_over_separable`` and
``measures.min_over_separable`` are patched.  ``scipy.optimize.minimize``,
``scipy.optimize.nnls`` and ``numpy.linalg.eigh`` are looked up at call
time and are patched once; their span is named after the enclosing span.
"""

from __future__ import annotations

import inspect

import numpy as np
import scipy.optimize

from witnesskit import bases, cli, measures, states, witness

from spans import summarize

CLI_SUBCOMMANDS = ("iso-sweep", "gamma-signs", "witness-check", "chsh-scan", "bnt", "measure")


def _oracle_info(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"starts": bound.arguments["cfg"].n_starts + len(bound.arguments["extra_starts"])}

    return info


def _projection_info(args, kwargs, result):
    mr = result.result if isinstance(result, measures.ProjectionError) else result
    if not isinstance(mr, measures.MeasureResult):
        return None
    atoms = len(mr.nearest.terms)
    return {"iters": mr.iterations, "atoms": atoms, "atoms_max": atoms}


def _nfev_info(args, kwargs, result):
    return {"nfev": int(result.nfev)} if hasattr(result, "nfev") else None


def _minimize_name(parent):
    return {"witness.oracle": "witness.polish", "witness.chsh": "witness.chsh.search"}.get(
        parent, "scipy.minimize")


def _eigh_name(parent):
    return "witness.alt.eigh" if parent == "witness.oracle" else "linalg.eigh"


def install(tracer):
    """Patch every layer boundary with ``tracer``'s span wrappers."""
    tracer.patch([(witness, "min_over_separable"), (measures, "min_over_separable")],
                 "witness.oracle", _oracle_info(witness.min_over_separable))
    tracer.patch([(scipy.optimize, "minimize")], _minimize_name, _nfev_info)
    tracer.patch([(np.linalg, "eigh")], _eigh_name)
    tracer.patch([(scipy.optimize, "nnls")], "measures.corrective")
    tracer.patch([(witness, "verify_nearest_separable"), (cli, "verify_nearest_separable")],
                 "witness.verify")
    tracer.patch([(witness, "chsh_max_violation"), (cli, "chsh_max_violation")], "witness.chsh")
    tracer.patch([(measures, "nearest_separable"), (cli, "nearest_separable")],
                 "measures.project", _projection_info)
    tracer.patch([(measures, "gbi_violation"), (cli, "gbi_violation")], "measures.gbi")
    tracer.patch([(states.DensityMatrix, "__post_init__")], "states.validate")
    tracer.patch([(states, "gamma_signs"), (cli, "gamma_signs")], "states.gamma")
    tracer.patch([(states, "gamma_operator"), (witness, "gamma_operator")], "states.gamma")
    tracer.patch([(states, "is_ppt")], "states.ppt")
    tracer.patch([(bases, "generalized_basis"), (states, "generalized_basis")], "bases.basis")


# metric -> (span name, field): field is "calls", "s" (inclusive time),
# "self_s" or a count stored on the spans.  witness.oracle.s,
# witness.chsh.s and measures.project.s are inclusive; other times are self
# times.
SPAN_METRICS = {
    "witness.oracle.calls": ("witness.oracle", "calls"),
    "witness.oracle.s": ("witness.oracle", "s"),
    "witness.oracle.self_s": ("witness.oracle", "self_s"),
    "witness.oracle.starts": ("witness.oracle", "starts"),
    "witness.polish.calls": ("witness.polish", "calls"),
    "witness.polish.s": ("witness.polish", "self_s"),
    "witness.polish.nfev": ("witness.polish", "nfev"),
    "witness.alt.s": ("witness.alt.eigh", "self_s"),
    "witness.verify.calls": ("witness.verify", "calls"),
    "witness.verify.s": ("witness.verify", "self_s"),
    "witness.chsh.calls": ("witness.chsh", "calls"),
    "witness.chsh.s": ("witness.chsh", "s"),
    "witness.chsh.nfev": ("witness.chsh.search", "nfev"),
    "measures.project.calls": ("measures.project", "calls"),
    "measures.project.s": ("measures.project", "s"),
    "measures.project.self_s": ("measures.project", "self_s"),
    "measures.fw.iters": ("measures.project", "iters"),
    "measures.fw.atoms": ("measures.project", "atoms"),
    "measures.fw.atoms_max": ("measures.project", "atoms_max"),
    "measures.corrective.calls": ("measures.corrective", "calls"),
    "measures.corrective.s": ("measures.corrective", "self_s"),
    "measures.gbi.calls": ("measures.gbi", "calls"),
    "measures.gbi.s": ("measures.gbi", "self_s"),
    "states.validate.calls": ("states.validate", "calls"),
    "states.validate.s": ("states.validate", "self_s"),
    "states.gamma.s": ("states.gamma", "self_s"),
    "states.ppt.calls": ("states.ppt", "calls"),
    "bases.basis.calls": ("bases.basis", "calls"),
    "bases.basis.s": ("bases.basis", "self_s"),
}
# maxima over the cases' reference checks
FACT_METRICS = {
    "measures.err_max": "err",
    "measures.discrepancy_max": "discrepancy",
    "measures.gap_max": "gap",
}
CLI_METRICS = tuple(f"cli.{name}.s" for name in CLI_SUBCOMMANDS) + ("cli.startup_s", "cli.scipy_import_s")
OTHER_COUNTS = ("witness.alt.steps", "linalg.eigh.calls")


def _units() -> dict:
    units = {m: "s" if key in ("s", "self_s") else "count" for m, (_, key) in SPAN_METRICS.items()}
    units.update(dict.fromkeys(OTHER_COUNTS, "count"))
    units.update(dict.fromkeys(FACT_METRICS, "1"))
    units.update(dict.fromkeys(CLI_METRICS, "s"))
    units["trace.overhead_s"] = "s"
    return units


#: every per-layer metric with its unit
UNITS = _units()


def span_metrics(spans, outcomes) -> dict:
    """Per-layer metrics of one traced pass."""
    summary = summarize(spans)

    def get(name, key):
        row = summary.get(name)
        if row is None:
            return 0
        return row[key] if key in ("calls", "s", "self_s") else row["counts"][key]

    out = {metric: get(name, key) for metric, (name, key) in SPAN_METRICS.items()}
    alt_eigh = get("witness.alt.eigh", "calls")
    out["witness.alt.steps"] = alt_eigh / 2
    out["linalg.eigh.calls"] = alt_eigh + get("linalg.eigh", "calls")
    for metric, key in FACT_METRICS.items():
        out[metric] = max((o.facts[key] for o in outcomes if key in o.facts), default=0.0)
    return out


def count_metrics(metrics: dict) -> dict:
    """The metrics that must repeat exactly for a given seed."""
    return {k: v for k, v in metrics.items() if UNITS[k] == "count"}
