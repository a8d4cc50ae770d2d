"""Synthetic instances and CSV/JSON dataset I/O.

Generation protocol (interpretive choices, fixed here so results are
reproducible):

* rows of the matrix are i.i.d. Gaussian with an AR(1) correlation
  structure, cov(col_i, col_j) = rho^|i-j|, built by the recursion
  ``a[:, j+1] = rho a[:, j] + sqrt(1 - rho^2) w`` on standard normals.
  It runs in place on the drawn block (scale columns ``1:`` by
  ``sqrt(1 - rho^2)``, then add ``rho a[:, j]`` into column ``j+1``),
  which gives the same values bit for bit as the two-array form and
  keeps the peak at two m-by-n arrays, the block and the instance's
  column-major copy;
* the true coefficient vector has ``k_true`` entries equal to 1 at
  (rounded) equally spaced indices, the rest 0;
* noise is Gaussian with variance ``var(A beta) / snr`` where the
  variance is the population sample variance over the m rows.

Randomness comes from ``numpy.random.default_rng(seed)`` (the PCG64
generator); the draw order is the m-by-n standard normal block first,
then the m noise values.  CSV files are comma-separated, headerless,
'.'-decimal, one matrix row (or one response value) per line, written
with ``repr`` so values round-trip bit-exactly.  They are read and
written one row at a time.

Every output file is written as a new file: to a sibling
``<name>.<pid>.part`` that is renamed to its name once complete, after
the old file (if any) is unlinked.  Truncating a recently written file
in place, or renaming over it, can wait for that file's writeback on
ext4 (its ``auto_da_alloc`` handling of replaced files): on a 2-vCPU
VM's ext4 disk mounted with ``discard``, that wait was about two thirds
of a ``screen --out-reduced`` call into a reused directory.  A new name
does not wait.  A failed write leaves the old
file as it was, and a symlink at the name is replaced, not written
through.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .problem import CsvParseError, Instance, InvalidInputError, _check_int

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
        for name, lo in (("n", 1), ("m", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
        object.__setattr__(self, "k_true", _check_int("k_true", self.k_true, hi=self.n))
        if not (isinstance(self.rho, Real) and 0.0 <= self.rho < 1.0):
            raise InvalidInputError("rho must lie in [0, 1)")
        if not (isinstance(self.snr, Real) and self.snr > 0.0):
            raise InvalidInputError("snr must be positive")


def true_support_indices(n: int, k_true: int) -> tuple[int, ...]:
    """Equally spaced support indices, rounded to integers."""
    return tuple(int(i) for i in np.round(np.linspace(0, n - 1, k_true)).astype(int))


def generate(spec: SyntheticSpec):
    """Draw one synthetic instance.  Returns ``(instance, true_support)``.

    The recursion runs in place on the drawn block: columns ``1:`` are
    scaled by ``sqrt(1 - rho^2)`` once, then ``rho a[:, j-1]`` is added
    into each column through one preallocated m-vector.  Each entry is
    the same two roundings as ``rho a[:, j-1] + damp w[:, j]`` with the
    addends swapped, so the values are unchanged bit for bit, and the
    peak is two m-by-n arrays: the block and the instance's column-major
    copy.  The block stays row-major through ``a @ beta``, whose
    summation order fixes the bits of ``y``.
    """
    rng = np.random.default_rng(spec.seed)
    a = rng.standard_normal((spec.m, spec.n))
    a[:, 1:] *= math.sqrt(1.0 - spec.rho ** 2)
    col = np.empty(spec.m)
    prev = a[:, 0]
    for cur in a.T[1:]:  # views of columns 1, 2, ...
        cur += np.multiply(prev, spec.rho, out=col)
        prev = cur
    support = true_support_indices(spec.n, spec.k_true)
    beta = np.zeros(spec.n)
    beta[list(support)] = 1.0
    signal = a @ beta
    sigma = math.sqrt(float(np.var(signal)) / spec.snr)
    y = signal + sigma * rng.standard_normal(spec.m)
    return Instance(a, y), support


# Entries of A squared at a time by _row_sq: a 128 KB temporary, against
# a second copy of A for the whole product.
_ROW_SQ_BLOCK = 1 << 14


def _row_sq(a) -> np.ndarray:
    """Squared row norms of a column-major ``a``, bit for bit those of ``(a * a).sum(axis=1)``.

    With more than one row, that sum adds the squares one column at a
    time, so it is taken here over blocks of columns, each block's sums
    starting from the last block's; the temporary is one block, not a
    second copy of ``a``.  A single row is summed pairwise, so it is
    squared whole.
    """
    m, n = a.shape
    if m == 1:
        return (a * a).sum(axis=1)
    cols = min(n, max(1, _ROW_SQ_BLOCK // m))
    # column 0 carries each row's running sum into the next block; it
    # starts at +0, and 0 + s is s exactly for a square s
    buf = np.zeros((m, cols + 1), order="F")
    for j in range(0, n, cols):
        blk = a[:, j:j + cols]
        w = blk.shape[1]
        np.multiply(blk, blk, out=buf[:, 1:w + 1])
        buf[:, 0] = np.add.reduce(buf[:, :w + 1], axis=1)
    return buf[:, 0]


def gamma_zero(inst: Instance, k: int) -> float:
    """Reference ridge scale ``n / (m k max_i ||row_i||^2)``, for k an integer in [1, n]."""
    _check_int("k", k, hi=inst.n)
    row_sq = float(_row_sq(inst.a).max())
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


def _read_rows(path: str) -> list[np.ndarray]:
    """The parsed lines of ``path``, read one at a time.

    Trailing empty lines are ignored; an empty line followed by a
    non-empty one is an error at the first line of its run.  A UTF-8
    byte-order mark at the start of the file is skipped.
    """
    rows: list[np.ndarray] = []
    blank = 0  # the first empty line since the last row, or 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.rstrip("\r\n")
            if stripped == "":
                blank = blank or line_no
                continue
            if blank:
                raise CsvParseError("empty line", blank)
            cells = stripped.split(",")
            # numpy converts each string as float() does; the per-cell parse
            # only runs on a bad line, to name its first bad cell
            try:
                row = np.array(cells, dtype=float)
                ok = bool(np.isfinite(row).all())
            except ValueError:
                ok = False
            if not ok:
                row = np.array([_parse_cell(c, line_no) for c in cells])
            rows.append(row)
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
    # Instance copies the rows into its one column-major matrix
    return Instance(rows, np.concatenate(yrows))


@contextlib.contextmanager
def _new_file(path: str):
    """A text file to write that takes the name ``path`` when the block ends.

    The text goes to a new sibling file, made with the mode of
    ``open(path, "w")``; the old ``path`` is unlinked and the sibling
    renamed to it, not renamed over it (see the module docstring).  If
    the block raises, the sibling is removed and ``path`` is untouched.
    """
    tmp = f"{path}.{os.getpid()}.part"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_matrix(path: str, arr: np.ndarray):
    # repr of a Python float is the shortest string that reads back bit-exactly
    with _new_file(path) as fh:
        for row in np.atleast_2d(arr):  # one row's floats at a time
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def save_dataset(out_dir: str, inst: Instance, meta: dict):
    """Write A.csv, y.csv and meta.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write_matrix(os.path.join(out_dir, "A.csv"), inst.a)
    _write_matrix(os.path.join(out_dir, "y.csv"), inst.y.reshape(-1, 1))
    with _new_file(os.path.join(out_dir, "meta.json")) as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
