"""Safe variable fixing from dual certificates.

Each rule compares a certified lower bound ``L``, shifted by what
forcing one indicator to 0 or 1 must cost in the dual, against an upper
bound ``zeta_bar`` from any feasible solution.  When the shifted bound
strictly exceeds ``zeta_bar``, no optimal solution can take that
indicator value, so the variable is fixed to the other one.  Fixes are
safe for any valid ``(L, zeta_bar)`` pair, converged solver or not.

Solved for the score ``delta_i = (a_i' eps_bar)^2``, each rule is one
comparison against a scalar threshold.  With the room
``r = (zeta_bar - L + pad) / gamma``, a variable is
fixed out when ``delta_i < p_out - r`` and fixed in when
``delta_i > p_in + r``.  The reg variant pivots both tests on
``mu / gamma``; the card variant pivots on the k-th largest score to fix
out and on the (k+1)-st to fix in.

The pad is ``problem._REL_TOL * |zeta_bar|``: a shifted bound fixes a
variable only when it exceeds ``zeta_bar`` by more than the relative
tolerance of every other bound comparison (``problem._within``), so
rounding at any data scale cannot flip a fix the mathematics does not
justify, and a near-optimal support within that tolerance is never
fixed away.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.typing import NDArray

from .problem import (
    InconsistentBoundsError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    Variant,
    _FREE,
    _ONE,
    _ZERO,
    _check_int,
    _check_residual,
    _check_length,
    _REL_TOL,
    _settle,
    _spec_for,
    _within,
)
from .relax import _scores


@dataclass(frozen=True)
class ScreenReport:
    """Outcome of one screening pass."""

    fixes: NDArray[np.int8]
    n_zero: int
    n_one: int
    n_free: int
    lower_bound: float
    upper_bound: float

    def __post_init__(self):
        if self.n_zero + self.n_one + self.n_free != self.fixes.shape[0]:
            raise InvalidInputError("fix counts do not add up")


def _cert_parts(inst: Instance, cert):
    """The scores and the lower bound of a RelaxSolution or a DualCertificate.

    A RelaxSolution carries the scores of its residual; a
    DualCertificate's come from one product with ``A``.
    """
    if hasattr(cert, "epsilon_bar"):
        return _scores(inst.a, _check_residual(inst, cert.epsilon_bar)), float(cert.lower_bound)
    if hasattr(cert, "epsilon"):
        _check_residual(inst, cert.epsilon)
        return _check_length(inst, cert.scores, "scores"), float(cert.lower_bound)
    raise InvalidInputError("cert must carry a residual and a lower bound")


def _check_bounds(lower: float, zeta_bar: float):
    if not isinstance(zeta_bar, Real) or np.isnan(zeta_bar):
        raise InvalidInputError("zeta_bar must be a real number other than NaN")
    # zeta_bar may fall below lower by the tolerance of |lower|; one of
    # |zeta_bar| would let an upper bound of -inf pass.  A NaN or -inf
    # lower bound is no inconsistency: it fixes nothing.
    if lower > zeta_bar and not _within(zeta_bar, lower):
        raise InconsistentBoundsError(
            f"upper bound {zeta_bar} lies below certified lower bound {lower}"
        )


def kth_largest_pair(delta, k: int):
    """k-th and (k+1)-st largest entries of ``delta``, from one partition.

    Duplicates count with multiplicity.  When ``k == n`` there is no
    (k+1)-st value and ``-inf`` is returned as a sentinel.
    """
    arr = np.asarray(delta, dtype=float).ravel()
    n = arr.size
    k = _check_int("k", k, hi=n)
    part = arr.copy()
    part.partition(n - k)
    return float(part[n - k]), float(part[:n - k].max(initial=-np.inf))


def _threshold_rules(delta, lower, gamma, zeta_bar, out_pivot, in_pivot):
    """Fix out where ``delta < out_pivot - room``, in where ``delta > in_pivot + room``.

    ``room`` is the score that the gap ``zeta_bar - lower``, plus the
    pad ``_REL_TOL * |zeta_bar|``, buys; an infinite ``zeta_bar`` buys
    inf.  A negative room is clamped to 0; a NaN one, from a NaN
    bound, stays NaN and fixes nothing.  With ``room >= 0`` no score is
    fixed both ways: reg tests one pivot from both sides, and card would
    need a score strictly between its k-th and (k+1)-st largest.  So a
    card score fixed out ranks past k, and at most k fixed in rank
    within the top k.
    """
    room = (zeta_bar - lower + _REL_TOL * abs(zeta_bar)) / gamma
    if room < 0.0:
        room = 0.0
    return delta < out_pivot - room, delta > in_pivot + room


def _rules_reg(delta, lower, gamma, mu, zeta_bar):
    return _threshold_rules(delta, lower, gamma, zeta_bar, mu / gamma, mu / gamma)


def _rules_card(delta, lower, gamma, k, zeta_bar):
    dk, dk1 = kth_largest_pair(delta, k)
    # Scores are squares, so the fix-in pivot max(dk1, 0) is dk1 when a
    # (k+1)-st score exists.  With k == n it is 0 in place of the -inf
    # sentinel: the cap is vacuous, and forcing a variable out costs its
    # own score with nothing gained back; no score lies below the
    # smallest one, so nothing is fixed out.
    return _threshold_rules(delta, lower, gamma, zeta_bar, dk, max(dk1, 0.0))


def _screen_fixes(spec: ProblemSpec, fixes, delta, lower, zeta_bar):
    """Run the variant's rule on the free variables of ``fixes``.

    ``delta`` holds the scores of all n variables and ``lower`` the
    certified bound of the residual they come from.  ``fixes`` is
    settled under the card budget first, and the card rule works with
    the budget the fixed-in variables leave of k.  Returns the new fix
    vector.
    """
    out = _settle(spec, fixes).copy()
    free_idx = np.flatnonzero(out == _FREE)
    if free_idx.size == 0:
        return out
    d = delta[free_idx]
    if spec.variant is Variant.REG:
        zero, one = _rules_reg(d, lower, spec.gamma, spec.mu, zeta_bar)
    else:
        budget = min(spec.k - int(np.count_nonzero(out == _ONE)), d.size)
        zero, one = _rules_card(d, lower, spec.gamma, budget, zeta_bar)
    out[free_idx[zero]] = _ZERO
    out[free_idx[one]] = _ONE
    return out


def _screen(inst: Instance, spec: ProblemSpec, cert, zeta_bar: float) -> ScreenReport:
    delta, lower = _cert_parts(inst, cert)
    _check_bounds(lower, zeta_bar)
    free = np.full(inst.n, _FREE, dtype=np.int8)
    fixes = _screen_fixes(spec, free, delta, lower, zeta_bar)
    n_zero = int(np.count_nonzero(fixes == _ZERO))
    n_one = int(np.count_nonzero(fixes == _ONE))
    return ScreenReport(fixes=fixes, n_zero=n_zero, n_one=n_one, n_free=inst.n - n_zero - n_one,
                        lower_bound=lower, upper_bound=zeta_bar)


def screen_reg(inst: Instance, gamma: float, mu: float, cert, zeta_bar: float) -> ScreenReport:
    """Fix variables of the reg problem that no optimal solution can use.

    ``cert`` supplies a residual and its certified lower bound ``L``;
    ``zeta_bar`` is any feasible objective value (``inf`` fixes
    nothing).  A variable is fixed out when ``L + mu - gamma delta_i``
    exceeds ``zeta_bar`` and fixed in when ``L - mu + gamma delta_i``
    does.
    """
    return _screen(inst, _spec_for(inst.n, gamma, mu=mu), cert, zeta_bar)


def screen_card(inst: Instance, gamma: float, k: int, cert, zeta_bar: float) -> ScreenReport:
    """Fix variables of the card problem that no optimal solution can use.

    A variable is fixed out when ``L - gamma (delta_i - delta_[k])``
    exceeds ``zeta_bar`` and fixed in when
    ``L + gamma (delta_i - delta_[k+1])`` does.  Ties between the two
    pivot values leave variables free.  At most k variables can be
    fixed in.
    """
    return _screen(inst, _spec_for(inst.n, gamma, k=k), cert, zeta_bar)
