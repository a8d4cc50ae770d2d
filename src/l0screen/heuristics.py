"""Feasible incumbents from relaxation output.

Rounding reads the support off the relaxation's residual scores and
refits ridge coefficients on it.  These incumbents supply the upper
bounds the screening rules and branch-and-bound pruning run on.  Branch
and bound rounds every node through ``_node_round``, the same code
``round_card`` and ``round_reg`` run with every variable free.
"""

from __future__ import annotations

import numpy as np

from .problem import (
    FixState,
    Incumbent,
    Instance,
    ProblemSpec,
    Variant,
    _spec_for,
    ridge_restricted_solve,
)
from .relax import RelaxSolution


def _scores(inst: Instance, relax: RelaxSolution) -> np.ndarray:
    eps = np.asarray(relax.epsilon, dtype=float)
    return (inst.a.T @ eps) ** 2


def _ridge_on(inst, gamma, idx):
    """Full-length ridge coefficients on an index list and their loss plus ridge.

    An empty list gives zero coefficients and the value ``||y||^2``.
    """
    if len(idx):
        return ridge_restricted_solve(inst, gamma, idx)
    return np.zeros(inst.n), float(inst.y @ inst.y)


def _evaluate(inst: Instance, spec: ProblemSpec, support) -> Incumbent:
    """Refit ridge coefficients on ``support`` and price them under ``spec``.

    The support must honor the card budget; every caller builds it so.
    """
    support = tuple(sorted(int(i) for i in support))
    x, value = _ridge_on(inst, spec.gamma, support)
    if spec.variant is Variant.REG:
        value += spec.mu * len(support)
    return Incumbent(support=support, x=x, objective=value)


def _node_round(inst: Instance, spec: ProblemSpec, fixes, delta) -> Incumbent:
    """Round the scores ``delta`` to a support that honors ``fixes``, and refit.

    Fixed-in variables are always kept.  Card fills the budget they
    leave with the best-scoring free variables, ties toward the lower
    index; reg adds every free variable with ``gamma delta_i >= mu``.
    """
    one_idx = np.flatnonzero(fixes == FixState.ONE)
    free_idx = np.flatnonzero(fixes == FixState.FREE)
    if spec.variant is Variant.CARD:
        order = np.argsort(-delta[free_idx], kind="stable")
        picked = free_idx[order[: max(spec.k - one_idx.size, 0)]]
    else:
        picked = free_idx[spec.gamma * delta[free_idx] >= spec.mu]
    return _evaluate(inst, spec, np.concatenate([one_idx, picked]))


def round_card(inst: Instance, gamma: float, k: int, relax: RelaxSolution) -> Incumbent:
    """Keep the k best-scoring variables and refit.

    Ties are broken toward the lower index.
    """
    free = np.full(inst.n, FixState.FREE, dtype=np.int8)
    return _node_round(inst, _spec_for(inst.n, gamma, k=k), free, _scores(inst, relax))


def round_reg(inst: Instance, gamma: float, mu: float, relax: RelaxSolution) -> Incumbent:
    """Keep every variable whose score clears the selection price.

    The support is ``{i : gamma delta_i >= mu}``; when it is empty the
    zero solution is returned.
    """
    free = np.full(inst.n, FixState.FREE, dtype=np.int8)
    return _node_round(inst, _spec_for(inst.n, gamma, mu=mu), free, _scores(inst, relax))
