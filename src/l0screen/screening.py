"""Safe variable fixing from dual certificates.

Each rule compares a certified lower bound ``L``, shifted by what
forcing one indicator to 0 or 1 must cost in the dual, against an upper
bound ``zeta_bar`` from any feasible solution.  When the shifted bound
strictly exceeds ``zeta_bar``, no optimal solution can take that
indicator value, so the variable is fixed to the other one.  Fixes are
safe for any valid ``(L, zeta_bar)`` pair, converged solver or not.

For the reg variant the shift for variable i is ``mu - gamma delta_i``
(to force in) or its negation (to force out), with
``delta_i = (a_i' eps_bar)^2``.  For the card variant the shifts pivot
on the k-th and (k+1)-st largest scores delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .problem import (
    FixState,
    InconsistentBoundsError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    Variant,
)

# Strict inequalities carry an absolute slack so borderline float noise
# can never flip a fix the mathematics does not justify.
SAFETY_SLACK = 1e-9


@dataclass(frozen=True)
class ScreenReport:
    """Outcome of one screening pass."""

    fixes: NDArray[np.int8]
    n_zero: int
    n_one: int
    n_free: int
    lower_bound: float
    upper_bound: float
    delta_k: Optional[float] = None
    delta_k1: Optional[float] = None

    def __post_init__(self):
        if self.n_zero + self.n_one + self.n_free != self.fixes.shape[0]:
            raise InvalidInputError("fix counts do not add up")


def _cert_parts(cert):
    """Accept either a RelaxSolution or a DualCertificate."""
    if hasattr(cert, "epsilon_bar"):
        return np.asarray(cert.epsilon_bar, dtype=float), float(cert.lower_bound)
    if hasattr(cert, "epsilon"):
        return np.asarray(cert.epsilon, dtype=float), float(cert.lower_bound)
    raise InvalidInputError("cert must carry a residual and a lower bound")


def _check_bounds(lower: float, zeta_bar: float):
    if np.isnan(zeta_bar):
        raise InvalidInputError("zeta_bar must not be NaN")
    if zeta_bar < lower - SAFETY_SLACK * (1.0 + abs(zeta_bar)):
        raise InconsistentBoundsError(
            f"upper bound {zeta_bar} lies below certified lower bound {lower}"
        )


def _nth_smallest(values: np.ndarray, idx: int, rng) -> float:
    """Order statistic by quickselect with randomized pivots, vectorized."""
    arr = values
    while True:
        if arr.size <= 64:
            return float(np.sort(arr)[idx])
        pivot = float(arr[rng.integers(arr.size)])
        less = arr[arr < pivot]
        if idx < less.size:
            arr = less
            continue
        n_equal = int(np.count_nonzero(arr == pivot))
        if idx < less.size + n_equal:
            return pivot
        arr = arr[arr > pivot]
        idx -= less.size + n_equal


def kth_largest_pair(delta, k: int):
    """k-th and (k+1)-st largest entries of ``delta`` in expected O(n).

    Duplicates count with multiplicity.  When ``k == n`` there is no
    (k+1)-st value and ``-inf`` is returned as a sentinel.
    """
    arr = np.asarray(delta, dtype=float).ravel()
    n = arr.size
    if not (1 <= int(k) <= n) or int(k) != k:
        raise InvalidInputError(f"k must be an integer in [1, {n}]")
    k = int(k)
    rng = np.random.default_rng(0x5E1EC7)
    dk = _nth_smallest(arr, n - k, rng)
    dk1 = -np.inf if k == n else _nth_smallest(arr, n - k - 1, rng)
    return dk, dk1


def _rules_reg(delta, lower, gamma, mu, zeta_bar):
    zero = lower + mu - gamma * delta - SAFETY_SLACK > zeta_bar
    one = lower - mu + gamma * delta - SAFETY_SLACK > zeta_bar
    if np.any(zero & one):
        raise InconsistentBoundsError("both rules fired; bounds are inconsistent")
    return zero, one


def _rules_card(delta, lower, gamma, k, zeta_bar):
    n = delta.size
    dk, dk1 = kth_largest_pair(delta, k)
    # With k == n the cap is vacuous: forcing a variable out costs its
    # own score and nothing is gained back, so the rule bound uses 0 in
    # place of the missing (k+1)-st value; the zero rule cannot apply.
    dk1_bound = 0.0 if k == n else dk1
    zero = (delta <= dk1) & (lower - gamma * (delta - dk) - SAFETY_SLACK > zeta_bar)
    one = (delta >= dk) & (lower + gamma * (delta - dk1_bound) - SAFETY_SLACK > zeta_bar)
    if np.any(zero & one):
        raise InconsistentBoundsError("both rules fired; bounds are inconsistent")
    return zero, one, dk, dk1


def _screen_fixes(spec: ProblemSpec, fixes, delta, lower, zeta_bar):
    """Run the variant's rule on the free variables of ``fixes``.

    ``delta`` holds the scores of all n variables and ``lower`` the
    certified bound of the residual they come from.  The card rule
    works with the budget the fixed-in variables leave of k; with none
    left, every free variable is fixed out.  Returns the new fix vector
    and the card pivots ``(delta_[k], delta_[k+1])`` over the free
    scores, both None when no card rule ran.
    """
    free_idx = np.flatnonzero(fixes == FixState.FREE)
    d = delta[free_idx]
    dk = dk1 = None
    if spec.variant is Variant.REG:
        zero, one = _rules_reg(d, lower, spec.gamma, spec.mu, zeta_bar)
    else:
        budget = min(spec.k - int(np.count_nonzero(fixes == FixState.ONE)), d.size)
        if budget > 0:
            zero, one, dk, dk1 = _rules_card(d, lower, spec.gamma, budget, zeta_bar)
        else:
            zero, one = np.ones(d.size, dtype=bool), np.zeros(d.size, dtype=bool)
    out = fixes.copy()
    out[free_idx[zero]] = FixState.ZERO
    out[free_idx[one]] = FixState.ONE
    return out, dk, dk1


def _screen(inst: Instance, spec: ProblemSpec, cert, zeta_bar: float) -> ScreenReport:
    eps_bar, lower = _cert_parts(cert)
    _check_bounds(lower, zeta_bar)
    delta = (inst.a.T @ eps_bar) ** 2
    free = np.full(inst.n, FixState.FREE, dtype=np.int8)
    fixes, dk, dk1 = _screen_fixes(spec, free, delta, lower, zeta_bar)
    n_zero = int(np.count_nonzero(fixes == FixState.ZERO))
    n_one = int(np.count_nonzero(fixes == FixState.ONE))
    return ScreenReport(
        fixes=fixes, n_zero=n_zero, n_one=n_one, n_free=inst.n - n_zero - n_one,
        lower_bound=lower, upper_bound=zeta_bar, delta_k=dk, delta_k1=dk1,
    )


def screen_reg(inst: Instance, gamma: float, mu: float, cert, zeta_bar: float) -> ScreenReport:
    """Fix variables of the reg problem that no optimal solution can use.

    ``cert`` supplies a residual and its certified lower bound ``L``;
    ``zeta_bar`` is any feasible objective value (``inf`` fixes
    nothing).  A variable is fixed out when ``L + mu - gamma delta_i``
    exceeds ``zeta_bar`` and fixed in when ``L - mu + gamma delta_i``
    does.
    """
    if gamma <= 0 or mu <= 0:
        raise InvalidInputError("gamma and mu must be positive")
    return _screen(inst, ProblemSpec.reg(gamma, mu), cert, zeta_bar)


def screen_card(inst: Instance, gamma: float, k: int, cert, zeta_bar: float) -> ScreenReport:
    """Fix variables of the card problem that no optimal solution can use.

    A variable with ``delta_i <= delta_[k+1]`` is fixed out when
    ``L - gamma (delta_i - delta_[k])`` exceeds ``zeta_bar``; one with
    ``delta_i >= delta_[k]`` is fixed in when
    ``L + gamma (delta_i - delta_[k+1])`` does.  Ties between the two
    pivot values leave variables free.  At most k variables can be
    fixed in.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    if not (1 <= int(k) <= inst.n) or int(k) != k:
        raise InvalidInputError(f"k must be an integer in [1, {inst.n}]")
    report = _screen(inst, ProblemSpec.card(gamma, int(k)), cert, zeta_bar)
    if report.n_one > k:
        raise InconsistentBoundsError(f"{report.n_one} variables fixed in but k={k}")
    return report
