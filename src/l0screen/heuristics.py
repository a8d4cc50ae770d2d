"""Feasible incumbents from relaxation output.

Rounding reads a support off the relaxation's output and refits ridge
coefficients on it: card keeps the variables of best score, the scores
the relaxation returns with its residual, and reg keeps those whose
relaxed indicator ``z_i`` is at least 1/2, or, when none is, the better
of none and those of largest ``z``.  These incumbents
supply the upper bounds the screening rules and branch-and-bound
pruning run on.  Branch and bound rounds every node through
``_node_round``, the same code ``round_card`` and ``round_reg`` run with
every variable free.
"""

from __future__ import annotations

import numpy as np

from .problem import (
    Incumbent,
    Instance,
    ProblemSpec,
    Variant,
    _FREE,
    _ONE,
    _check_residual,
    _check_length,
    _spec_for,
    _top,
    ridge_restricted_solve,
)
from .relax import RelaxSolution


def _evaluate(inst: Instance, spec: ProblemSpec, support) -> Incumbent:
    """Refit ridge coefficients on ``support`` and price them under ``spec``.

    The support must honor the card budget; every caller builds it so.
    """
    support = tuple(sorted(int(i) for i in support))
    x, value = ridge_restricted_solve(inst, spec.gamma, support)
    if spec.variant is Variant.REG:
        value += spec.mu * len(support)
    return Incumbent(support=support, x=x, objective=value)


def _node_round(inst: Instance, spec: ProblemSpec, fixes, key) -> Incumbent:
    """Round ``key`` to a support that honors ``fixes``, and refit.

    ``key`` holds the scores ``delta`` for card and the relaxed
    indicators ``z`` for reg.  Fixed-in variables are always kept.
    Card fills the budget they leave with the best-scoring free
    variables, ties toward the lower index; reg adds every free
    variable with ``z_i >= 1/2``.  When no free ``z`` reaches 1/2 but
    some is positive, reg also prices the free variables of largest
    ``z`` beside the fixed-in ones and keeps the lower of the two
    objectives, the first on a tie.
    """
    one_idx = np.flatnonzero(fixes == _ONE)
    free_idx = np.flatnonzero(fixes == _FREE)
    if spec.variant is Variant.CARD:
        picked = free_idx[_top(key[free_idx], spec.k - one_idx.size)]
        return _evaluate(inst, spec, np.concatenate([one_idx, picked]))
    zf = key[free_idx]
    inc = _evaluate(inst, spec, np.concatenate([one_idx, free_idx[zf >= 0.5]]))
    top = zf.max(initial=0.0)
    if 0.0 < top < 0.5:
        alt = _evaluate(inst, spec, np.concatenate([one_idx, free_idx[zf == top]]))
        if alt.objective < inc.objective:
            return alt
    return inc


def round_card(inst: Instance, gamma: float, k: int, relax: RelaxSolution) -> Incumbent:
    """Keep the k variables of best score ``relax.scores`` and refit.

    Ties are broken toward the lower index.
    """
    spec = _spec_for(inst.n, gamma, k=k)
    _check_residual(inst, relax.epsilon)
    free = np.full(inst.n, _FREE, dtype=np.int8)
    return _node_round(inst, spec, free, _check_length(inst, relax.scores, "scores"))


def round_reg(inst: Instance, gamma: float, mu: float, relax: RelaxSolution) -> Incumbent:
    """Keep every variable whose relaxed indicator is at least 1/2, and refit.

    The support is ``{i : z_i >= 1/2}`` over ``relax.z``.  When it is
    empty and some ``z_i`` is positive, the variables of largest ``z``
    are refit too, and the better of that support and the empty one is
    returned; with every ``z_i = 0`` the zero solution is.  At the
    relaxation's optimum every linear-branch variable has
    ``gamma delta_i = mu`` exactly, so the scores cannot separate them,
    while ``z`` still can.
    """
    spec = _spec_for(inst.n, gamma, mu=mu)
    _check_residual(inst, relax.epsilon)
    free = np.full(inst.n, _FREE, dtype=np.int8)
    return _node_round(inst, spec, free, _check_length(inst, relax.z, "indicators z"))
