"""Problem data model: instances, problem variants, objectives.

Two subset-selection problems over the same least-squares data are
supported.  Both penalize coefficients with a ridge term scaled by
1/gamma; the "reg" variant charges a fixed price mu per selected
variable while the "card" variant caps the number of selected
variables at k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterable, Optional

import numpy as np
from numpy.typing import NDArray


class InvalidInputError(ValueError):
    """An argument violates an operation's contract."""


class ConstraintViolationError(ValueError):
    """A candidate solution violates the problem constraints."""


class InconsistentBoundsError(ValueError):
    """An upper bound fell below a certified lower bound."""


class SizeCapError(ValueError):
    """An exhaustive computation would exceed its size cap."""


class InfeasibleError(ValueError):
    """Fixed variables make a subproblem infeasible."""


class CsvParseError(ValueError):
    """CSV ingestion failure; carries a 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Variant(str, Enum):
    REG = "reg"
    CARD = "card"


class FixState(IntEnum):
    """Per-variable decision state used by screening and branch and bound."""

    FREE = 0
    ZERO = 1
    ONE = 2


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable regression data: model matrix ``a`` (m x n) and response ``y`` (m,).

    Arrays are copied, stored column-major (columns are sliced far more
    often than rows), and marked read-only.  ``aty`` holds ``A'y``,
    computed once here and read-only like the data it comes from: every
    relaxation ranks its first working set by it, so a path, a sweep or
    a branch-and-bound tree over one instance takes that product once.
    ``_first_ws`` holds, per working-set size, the first working set of
    a relaxation with every variable free and no warm start, and its
    Lipschitz value: column indices and one float, filled by
    ``relax._relax`` on first use, so such relaxations take that eigen
    solve once per instance too.  Instances compare by identity, so one
    can key a dict.
    """

    a: NDArray[np.float64]
    y: NDArray[np.float64]
    aty: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    _first_ws: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float, order="F", copy=True)
        y = np.array(self.y, dtype=float, copy=True).ravel()
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError("model matrix must be 2-D with at least one row and one column")
        if y.shape[0] != a.shape[0]:
            raise InvalidInputError(
                f"response has {y.shape[0]} entries but the matrix has {a.shape[0]} rows"
            )
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(y)):
            raise InvalidInputError("matrix and response entries must be finite")
        with np.errstate(over="ignore"):  # reported below as errors
            yy = float(y @ y)
            # bounds every Gram entry and ||A||^2, so no solve overflows them
            aa = float(a.ravel(order="K") @ a.ravel(order="K"))
        if not np.isfinite(yy):
            raise InvalidInputError(
                "the squared norm of y overflows; divide y by a scale s and a reg mu by s**2"
            )
        if not np.isfinite(aa):
            raise InvalidInputError(
                "the squared Frobenius norm of A overflows; divide A by a scale s and multiply gamma by s**2"
            )
        # below it the Gram matrix and ||A||^2 lose precision or vanish
        if aa < np.finfo(float).tiny and np.any(a):
            raise InvalidInputError(
                "the squared Frobenius norm of A underflows; multiply A by a scale s and divide gamma by s**2"
            )
        aty = a.T @ y
        for arr in (a, y, aty):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "aty", aty)
        object.__setattr__(self, "_first_ws", {})

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ProblemSpec:
    """Which variant is being solved, and its parameters.

    ``mu`` is set for the per-variable-priced variant, ``k`` for the
    cardinality-capped variant; exactly one of them is present.
    """

    variant: Variant
    gamma: float
    mu: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidInputError("gamma must be positive and finite")
        if self.variant is Variant.REG:
            if self.mu is None or not np.isfinite(self.mu) or self.mu <= 0:
                raise InvalidInputError("reg variant needs mu > 0")
            if self.k is not None:
                raise InvalidInputError("reg variant takes no k")
        else:
            if self.mu is not None:
                raise InvalidInputError("card variant takes no mu")
            object.__setattr__(self, "k", _check_int("k", self.k))

    @classmethod
    def reg(cls, gamma: float, mu: float) -> "ProblemSpec":
        return cls(variant=Variant.REG, gamma=gamma, mu=mu)

    @classmethod
    def card(cls, gamma: float, k: int) -> "ProblemSpec":
        return cls(variant=Variant.CARD, gamma=gamma, k=k)


def _check_int(name, value, lo=1, hi=np.inf) -> int:
    """``value`` as an int, after checking that it is an integer in [lo, hi]."""
    # range first: int() of a NaN or infinite value raises on its own
    if value is None or not (lo <= value <= hi and value < np.inf) or int(value) != value:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}]")
    return int(value)


def _check_tol(tol) -> float:
    """``tol`` as a float, after checking that it lies in (0, 1); NaN fails."""
    if not (0 < tol < 1):
        raise InvalidInputError("tol must lie in (0, 1)")
    return float(tol)


# The one tolerance of the certified comparisons: a bound within this
# share of the value it is compared with counts as reaching it.
_REL_TOL = 1e-9


def _within(lower: float, upper: float, rel: float = _REL_TOL) -> bool:
    """Whether ``lower`` is within ``rel`` of ``upper``: ``upper - lower <= rel * |upper|``.

    The one comparison of a certified lower bound with a feasible value:
    a relaxation's gap test (``rel`` its ``tol``), the prune and tie
    tests of the exact solvers, and the bound check of the screening
    rules, which pad ``zeta_bar`` by the same ``_REL_TOL * |zeta_bar|``.
    Every compared value is an objective, and objectives scale exactly
    when ``y`` or ``A`` is rescaled, so no outcome depends on units.  An
    infinite ``upper`` or a NaN on either side gives False.
    """
    return math.isfinite(upper) and upper - lower <= rel * abs(upper)


def _spec_for(n: int, gamma: float, mu: Optional[float] = None, k=None) -> ProblemSpec:
    """The reg spec of ``(gamma, mu)`` or the card spec of ``(gamma, k)`` on n columns.

    The one check of the public functions' parameters: gamma and mu
    positive and finite, k an integer in [1, n].
    """
    if k is None:
        return ProblemSpec.reg(gamma, mu)
    return ProblemSpec.card(gamma, _check_int("k", k, hi=n))


def _settle(spec: ProblemSpec, fixes: np.ndarray) -> np.ndarray:
    """``fixes`` under the card budget; the one place that budget is applied.

    Raises InfeasibleError when more than k variables are fixed in, and
    fixes every free variable out once exactly k are (in a copy).  Reg
    fixes pass through unchanged.
    """
    if spec.variant is Variant.REG:
        return fixes
    n_one = int(np.count_nonzero(fixes == FixState.ONE))
    if n_one > spec.k:
        raise InfeasibleError(f"{n_one} variables fixed in but k={spec.k}")
    if n_one == spec.k:
        fixes = fixes.copy()
        fixes[fixes == FixState.FREE] = FixState.ZERO
    return fixes


def _top(v, r) -> np.ndarray:
    """Indices of the ``r`` largest entries of ``v``, ties toward the lower index.

    The set is that of ``np.argsort(-v, kind="stable")[:r]``, in
    ascending index order, for ``v`` without NaN; one partition finds
    the r-th largest value, so it costs O(n), not a sort.
    """
    n = v.size
    if r <= 0:
        return np.arange(0)
    if r >= n:
        return np.arange(n)
    t = np.partition(v, n - r)[n - r]
    keep = v >= t
    extra = int(np.count_nonzero(keep)) - r
    if extra:
        # drop the highest-index ties at the threshold
        ties = (v == t).nonzero()[0]
        keep[ties[ties.size - extra:]] = False
    return keep.nonzero()[0]


@dataclass(frozen=True)
class Incumbent:
    """A feasible solution: its support, full-length coefficients, and objective."""

    support: tuple[int, ...]
    x: NDArray[np.float64]
    objective: float


def _check_support(support: Iterable[int], n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise InvalidInputError(f"support indices must lie in [0, {n})")
    return idx


def _check_fixes(fixes, n: int) -> np.ndarray:
    """A fix vector as int8, after checking its length and its entries."""
    f = np.asarray(fixes)
    if f.shape != (n,):
        raise InvalidInputError(f"fix vector has shape {f.shape}, expected ({n},)")
    if f.dtype.kind not in "iu" or f.min() < 0 or f.max() > 2:
        raise InvalidInputError("fix entries must be integer FixState values (0 free, 1 zero, 2 one)")
    return f.astype(np.int8)


def _check_residual(inst: Instance, epsilon_bar) -> np.ndarray:
    """A residual as a float vector, after checking that it has ``inst.m`` entries."""
    eps = np.asarray(epsilon_bar, dtype=float).ravel()
    if eps.shape[0] != inst.m:
        raise InvalidInputError(f"residual has length {eps.shape[0]}, expected {inst.m}")
    return eps


def _check_length(inst: Instance, values, what: str) -> np.ndarray:
    """A per-variable vector as floats, after checking that it has ``inst.n`` entries.

    ``what`` names the vector in the error, as a plural: "scores".
    """
    d = np.asarray(values, dtype=float).ravel()
    if d.shape[0] != inst.n:
        raise InvalidInputError(f"{what} have length {d.shape[0]}, expected {inst.n}")
    return d


def _check_x(x, n: int, support: Optional[np.ndarray] = None) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != n:
        raise InvalidInputError(f"x has length {x.shape[0]}, expected {n}")
    if support is not None:
        off = np.ones(n, dtype=bool)
        off[support] = False
        if np.any(x[off] != 0.0):
            raise InvalidInputError("x must be zero off the support")
    return x


# No library code calls objective_reg or objective_card; they stay while benchmarks/tracer.py names them.
def objective_reg(inst: Instance, spec: ProblemSpec, support: Iterable[int], x) -> float:
    """Least-squares loss + ridge on the support + mu per selected variable.

    ``x`` must be zero off the support.
    """
    if spec.variant is not Variant.REG:
        raise InvalidInputError("objective_reg needs a reg spec")
    idx = _check_support(support, inst.n)
    x = _check_x(x, inst.n, idx)
    r = inst.y - inst.a[:, idx] @ x[idx]
    return float(r @ r + (x[idx] @ x[idx]) / spec.gamma + spec.mu * idx.size)


def objective_card(inst: Instance, spec: ProblemSpec, support: Iterable[int], x) -> float:
    """Least-squares loss + ridge on the support, support size capped at k."""
    if spec.variant is not Variant.CARD:
        raise InvalidInputError("objective_card needs a card spec")
    idx = _check_support(support, inst.n)
    if idx.size > spec.k:
        raise ConstraintViolationError(f"support size {idx.size} exceeds k={spec.k}")
    x = _check_x(x, inst.n, idx)
    r = inst.y - inst.a[:, idx] @ x[idx]
    return float(r @ r + (x[idx] @ x[idx]) / spec.gamma)


def ridge_restricted_solve(inst: Instance, gamma: float, support: Iterable[int]):
    """Minimize the loss plus ridge over coefficients supported on ``support``.

    Returns ``(x, value)`` where ``x`` is full length (zero off the
    support) and ``value`` excludes any selection cost.  The normal
    equations are symmetric positive definite for any gamma > 0.  An
    empty support gives zero coefficients and the value ``||y||^2``.
    """
    if gamma <= 0 or not np.isfinite(gamma):
        raise InvalidInputError("gamma must be positive and finite")
    idx = _check_support(support, inst.n)
    a_s = inst.a[:, idx]
    g = a_s.T @ a_s + np.eye(idx.size) / gamma
    x_s = np.linalg.solve(g, a_s.T @ inst.y)
    x = np.zeros(inst.n)
    x[idx] = x_s
    r = inst.y - a_s @ x_s
    value = float(r @ r + (x_s @ x_s) / gamma)
    return x, value

