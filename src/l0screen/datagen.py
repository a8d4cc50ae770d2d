"""Synthetic instances and CSV/JSON dataset I/O.

Generation protocol (interpretive choices, fixed here so results are
reproducible):

* rows of the matrix are i.i.d. Gaussian with an AR(1) correlation
  structure, cov(col_i, col_j) = rho^|i-j|, built by the recursion
  ``a[:, j+1] = rho a[:, j] + sqrt(1 - rho^2) w`` on standard normals;
* the true coefficient vector has ``k_true`` entries equal to 1 at
  (rounded) equally spaced indices, the rest 0;
* noise is Gaussian with variance ``var(A beta) / snr`` where the
  variance is the population sample variance over the m rows.

Randomness comes from ``numpy.random.default_rng(seed)`` (the PCG64
generator); the draw order is the m-by-n standard normal block first,
then the m noise values.  CSV files are comma-separated, headerless,
'.'-decimal, one matrix row (or one response value) per line, written
with ``repr`` so values round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .problem import CsvParseError, Instance, InvalidInputError, _check_k

GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    m: int
    k_true: int
    rho: float
    snr: float
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InvalidInputError("n and m must be >= 1")
        if not (1 <= self.k_true <= self.n):
            raise InvalidInputError("k_true must lie in [1, n]")
        if not (0.0 <= self.rho < 1.0):
            raise InvalidInputError("rho must lie in [0, 1)")
        if not (self.snr > 0.0):
            raise InvalidInputError("snr must be positive")
        if self.seed < 0:
            raise InvalidInputError("seed must be non-negative")


def true_support_indices(n: int, k_true: int) -> tuple[int, ...]:
    """Equally spaced support indices, rounded to integers."""
    return tuple(int(i) for i in np.round(np.linspace(0, n - 1, k_true)).astype(int))


def generate(spec: SyntheticSpec):
    """Draw one synthetic instance.  Returns ``(instance, true_support)``."""
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal((spec.m, spec.n))
    a = np.empty((spec.m, spec.n))
    a[:, 0] = w[:, 0]
    damp = math.sqrt(1.0 - spec.rho ** 2)
    for j in range(1, spec.n):
        a[:, j] = spec.rho * a[:, j - 1] + damp * w[:, j]
    support = true_support_indices(spec.n, spec.k_true)
    beta = np.zeros(spec.n)
    beta[list(support)] = 1.0
    signal = a @ beta
    sigma = math.sqrt(float(np.var(signal)) / spec.snr)
    y = signal + sigma * rng.standard_normal(spec.m)
    return Instance(a, y), support


def gamma_zero(inst: Instance, k: int) -> float:
    """Reference ridge scale ``n / (m k max_i ||row_i||^2)``, for k an integer in [1, n]."""
    _check_k(k, inst.n)
    row_sq = float((inst.a * inst.a).sum(axis=1).max())
    if row_sq == 0.0:
        raise ZeroDivisionError("gamma_zero is undefined for an all-zero matrix")
    return inst.n / (inst.m * k * row_sq)


def _parse_cell(cell: str, line_no: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise CsvParseError(f"non-numeric cell {cell!r}", line_no) from None
    if not math.isfinite(v):
        raise CsvParseError(f"non-finite cell {cell!r}", line_no)
    return v


def _read_rows(path: str) -> list[list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    while lines and lines[-1].rstrip("\r") == "":
        lines.pop()
    rows: list[list[float]] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.rstrip("\r")
        if stripped == "":
            raise CsvParseError("empty line", line_no)
        rows.append([_parse_cell(c, line_no) for c in stripped.split(",")])
    if not rows:
        raise CsvParseError("file is empty", 1)
    return rows


def load_csv(path_a: str, path_y: str) -> Instance:
    """Read a matrix and response pair; errors carry 1-based line numbers."""
    rows = _read_rows(path_a)
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvParseError(f"ragged row: {len(row)} cells, expected {width}", i)
    yrows = _read_rows(path_y)
    for i, row in enumerate(yrows, start=1):
        if len(row) != 1:
            raise CsvParseError(f"response rows must have one value, got {len(row)}", i)
    if len(yrows) != len(rows):
        raise CsvParseError(
            f"dimension mismatch: matrix has {len(rows)} rows, response has {len(yrows)}",
            len(yrows),
        )
    return Instance(np.array(rows, dtype=float), np.array([r[0] for r in yrows]))


def _write_matrix(path: str, arr: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def save_dataset(out_dir: str, inst: Instance, meta: dict):
    """Write A.csv, y.csv and meta.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write_matrix(os.path.join(out_dir, "A.csv"), inst.a)
    _write_matrix(os.path.join(out_dir, "y.csv"), inst.y.reshape(-1, 1))
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
