"""Run-report structure, JSON schema, and output validators."""

from __future__ import annotations

import csv
import functools
import io

_NUMBER = {"type": "number"}
_NONNEG = {"type": "number", "minimum": 0}

RUN_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "instance", "timings_ms", "versions"],
    "properties": {
        "command": {"type": "string", "enum": ["gen", "screen", "solve", "bench"]},
        "args": {"type": "object"},
        "instance": {
            "type": "object",
            "additionalProperties": False,
            "required": ["m", "n"],
            "properties": {
                "m": {"type": "integer", "minimum": 1},
                "n": {"type": "integer", "minimum": 1},
                "source": {"type": "string"},
            },
        },
        "spec": {
            "type": "object",
            "additionalProperties": False,
            "required": ["variant", "gamma"],
            "properties": {
                "variant": {"type": "string", "enum": ["reg", "card"]},
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "mu": _NUMBER,
                "k": {"type": "integer", "minimum": 1},
            },
        },
        "timings_ms": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "relax": _NONNEG,
                "heuristic": _NONNEG,
                "screen": _NONNEG,
                "solve": _NONNEG,
            },
        },
        "screen": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_zero", "n_one", "n_free", "lower_bound", "zeta_bar", "fixes"],
            "properties": {
                "n_zero": {"type": "integer", "minimum": 0},
                "n_one": {"type": "integer", "minimum": 0},
                "n_free": {"type": "integer", "minimum": 0},
                "lower_bound": _NUMBER,
                "zeta_bar": _NUMBER,
                "fixes": {
                    "type": "array",
                    "items": {"enum": ["free", "zero", "one"]},
                },
                # the relaxation behind the bound; absent from older reports
                "converged": {"type": "boolean"},
                "gap": _NUMBER,
                "iterations": {"type": "integer", "minimum": 0},
            },
        },
        "solve": {
            "type": "object",
            "additionalProperties": False,
            "required": ["objective", "support", "nodes", "wall_time_s", "optimal", "root_fixed"],
            "properties": {
                "objective": _NUMBER,
                "support": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                "nodes": {"type": "integer", "minimum": 0},
                "wall_time_s": _NONNEG,
                "optimal": {"type": "boolean"},
                "root_fixed": {"type": "integer", "minimum": 0},
            },
        },
        "out": {"type": "object"},
        "versions": {
            "type": "object",
            "required": ["package", "numpy", "python"],
            "properties": {
                "package": {"type": "string"},
                "numpy": {"type": "string"},
                "python": {"type": "string"},
            },
        },
        "seed": {"type": ["integer", "null"]},
    },
}

BENCH_COLUMNS = [
    "instance_id", "method", "k", "gamma_exp", "rho", "snr",
    "fixed_count", "fixed_pct", "nodes", "time_s", "optimal", "status",
]

_BENCH_METHODS = {"screen", "bnb", "bnb_screen"}


@functools.cache
def _run_report_validator():
    # Imported and built on the first validation, not on import: the
    # solvers never validate, and jsonschema is most of the package's
    # import time.  Built once, because jsonschema.validate would check
    # the constant schema against its metaschema again on every call.
    import jsonschema

    return jsonschema.Draft202012Validator(RUN_REPORT_SCHEMA)


def validate_run_report(obj: dict):
    """Raise jsonschema.ValidationError if ``obj`` is not a valid report.

    A ``screen.fixes`` array of strings is checked as its distinct
    values, in order of first appearance: its items only meet an
    ``enum``, so the verdict is the whole array's, and a 2000-variable
    report is checked in a few items instead of 2000.
    """
    screen = obj.get("screen") if isinstance(obj, dict) else None
    fixes = screen.get("fixes") if isinstance(screen, dict) else None
    if isinstance(fixes, list) and all(isinstance(f, str) for f in fixes):
        obj = {**obj, "screen": {**screen, "fixes": list(dict.fromkeys(fixes))}}
    _run_report_validator().validate(obj)


def _cell_float(value: str, column: str, allow_empty: bool = False) -> None:
    if value == "" and allow_empty:
        return
    try:
        float(value)
    except ValueError:
        raise ValueError(f"column {column}: {value!r} is not a number") from None


def validate_bench_csv(text: str):
    """Check a bench CSV: exact header, typed cells, known methods."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("bench output is empty")
    if rows[0] != BENCH_COLUMNS:
        raise ValueError(f"bad header: {rows[0]}")
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(BENCH_COLUMNS):
            raise ValueError(f"row {i}: {len(row)} cells, expected {len(BENCH_COLUMNS)}")
        rec = dict(zip(BENCH_COLUMNS, row))
        if rec["instance_id"] == "":
            raise ValueError(f"row {i}: empty instance_id")
        if rec["method"] not in _BENCH_METHODS:
            raise ValueError(f"row {i}: unknown method {rec['method']!r}")
        int(rec["k"])
        _cell_float(rec["gamma_exp"], "gamma_exp")
        _cell_float(rec["rho"], "rho", allow_empty=True)
        _cell_float(rec["snr"], "snr", allow_empty=True)
        int(rec["fixed_count"])
        _cell_float(rec["fixed_pct"], "fixed_pct")
        int(rec["nodes"])
        _cell_float(rec["time_s"], "time_s")
        if float(rec["time_s"]) < 0:
            raise ValueError(f"row {i}: negative time_s")
        if rec["optimal"] not in {"true", "false"}:
            raise ValueError(f"row {i}: optimal must be true/false")
        if rec["status"] != "ok" and not rec["status"].startswith("error:"):
            raise ValueError(f"row {i}: bad status {rec['status']!r}")
