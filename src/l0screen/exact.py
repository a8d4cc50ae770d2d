"""Exact solvers: exhaustive enumeration and certified branch and bound.

``brute_force`` enumerates supports outright and reports every optimal
support, which makes it the reference oracle for safety checks.
``branch_and_bound`` explores fix patterns best-first, bounding each
node by the certified dual value of its relaxation; with screening on,
every node screens its free variables with the scores and bound of its
own relaxation.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import (
    FixState,
    Incumbent,
    Instance,
    InvalidInputError,
    ProblemSpec,
    SizeCapError,
    Variant,
    _check_fixes,
    _settle,
)
from .heuristics import _evaluate, _node_round
from .relax import RelaxSolution, _lipschitz, _relax
from .screening import _screen_fixes

# Kept bound under their old names because benchmarks/tracer.py looks up
# exact._evaluate_support and exact._ridge_on; both live in heuristics.
from .heuristics import _evaluate as _evaluate_support  # noqa: F401
from .heuristics import _ridge_on  # noqa: F401

_BRUTE_N_CAP = 25
_BRUTE_COMB_CAP = 1_000_000
_PRUNE_SLACK = 1e-9
_OPT_REL_TOL = 1e-9
# Best-first keeps the whole frontier in memory; above this many open
# nodes new work is taken depth-first so memory stays bounded.
_OPEN_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class BnBConfig:
    """Search limits and the screening switch of ``branch_and_bound``.

    ``screen_at_root`` switches screening on at every node, the root and
    each node below it; ``BnBStats.root_fixed`` counts the root's fixes.
    """

    time_limit_s: float = 3600.0
    node_limit: int = 1_000_000
    screen_at_root: bool = True

    def __post_init__(self):
        # written so that NaN fails; inf means no limit
        if not (self.time_limit_s > 0):
            raise InvalidInputError("time_limit_s must be positive")
        if self.node_limit < 1:
            raise InvalidInputError("node_limit must be >= 1")


@dataclass
class BnBStats:
    nodes_explored: int
    wall_time_s: float
    optimal: bool
    best: Incumbent
    root_fixed: int


def _gram_value(g, b, yy, gamma, idx) -> float:
    """Restricted ridge value from precomputed Gram pieces."""
    if len(idx) == 0:
        return float(yy)
    gs = g[np.ix_(idx, idx)] + np.eye(len(idx)) / gamma
    bs = b[list(idx)]
    xs = np.linalg.solve(gs, bs)
    # ||y - A x||^2 + ||x||^2 / gamma collapses to yy - b'x at the solve
    return float(yy - bs @ xs)


def _enumeration(spec: ProblemSpec, fixes: np.ndarray):
    """The support sizes ``brute_force`` tries among the free variables
    of ``fixes``, and how many supports they make: ``(sizes, count)``.

    ``fixes`` must not fix in more variables than a card budget allows.
    """
    n_free = int(np.count_nonzero(fixes == FixState.FREE))
    if spec.variant is Variant.REG:
        sizes = range(n_free + 1)
    else:
        sizes = range(min(spec.k - int(np.count_nonzero(fixes == FixState.ONE)), n_free) + 1)
    return sizes, sum(math.comb(n_free, j) for j in sizes)


def brute_force(inst: Instance, spec: ProblemSpec, fixed=None):
    """Enumerate supports exhaustively.

    Returns ``(incumbent, all_optimal_supports)`` where the support
    list contains every support whose value ties the optimum within
    1e-9 relative.  ``fixed`` optionally pins variables (FixState
    values) before enumeration.  Refuses instances beyond the size caps
    (25 free variables for reg; one million candidate supports for
    card).  ``_enumeration`` gives the number of supports tried.
    """
    n = inst.n
    fixed = np.full(n, FixState.FREE, dtype=np.int8) if fixed is None else _check_fixes(fixed, n)
    fixed = _settle(spec, fixed)
    forced = [int(i) for i in np.flatnonzero(fixed == FixState.ONE)]
    free = [int(i) for i in np.flatnonzero(fixed == FixState.FREE)]

    if spec.variant is Variant.REG and len(free) > _BRUTE_N_CAP:
        raise SizeCapError(f"{len(free)} free variables exceeds the cap of {_BRUTE_N_CAP}")
    sizes, count = _enumeration(spec, fixed)
    if spec.variant is Variant.CARD and count > _BRUTE_COMB_CAP:
        raise SizeCapError(f"{count} candidate supports exceeds the cap of {_BRUTE_COMB_CAP}")

    g = inst.a.T @ inst.a
    b = inst.a.T @ inst.y
    yy = float(inst.y @ inst.y)
    mu = spec.mu if spec.variant is Variant.REG else 0.0

    best_val = math.inf
    best_support: tuple[int, ...] = ()
    near: list[tuple[tuple[int, ...], float]] = []
    for size in sizes:
        for combo in itertools.combinations(free, size):
            support = tuple(sorted(forced + list(combo)))
            val = _gram_value(g, b, yy, spec.gamma, support) + mu * len(support)
            if val < best_val:
                best_val = val
                best_support = support
            if val <= best_val + _OPT_REL_TOL * (1.0 + abs(best_val)):
                near.append((support, val))

    tol = _OPT_REL_TOL * (1.0 + abs(best_val))
    optimal = sorted(s for s, v in near if v <= best_val + tol)
    return _evaluate(inst, spec, best_support), optimal


def node_relaxation(
    inst: Instance,
    spec: ProblemSpec,
    fixes,
    x_warm=None,
    lipschitz=None,
) -> RelaxSolution:
    """Relaxation of the subproblem where some variables are fixed.

    This is ``relax._relax``, the relaxation ``solve_cr`` and
    ``solve_cc`` run with every variable free.  Fixed-out columns leave
    the problem entirely; fixed-in columns keep a plain ridge penalty
    (plus the selection price for reg, which is also inside the
    returned bound, so ``objective`` and ``lower_bound`` bracket the
    node's subproblem value directly).  Raises InvalidInputError for a
    fix vector of the wrong length or with entries other than FixState
    values, and InfeasibleError when more variables are forced in than
    a card budget allows.  The solve runs in rounds on a working set
    of columns at the default tolerance, and each round's step comes
    from ``lipschitz`` when given (branch and bound passes
    ``relax._lipschitz`` of the full matrix, which bounds every column
    subset) and from ``relax._lipschitz`` of the working set's columns
    otherwise.  ``x_warm`` starts the reg solve, and its support joins
    the first working set; card solves start from zero.
    """
    return _relax(inst, spec, _check_fixes(fixes, inst.n), x_warm=x_warm, lipschitz=lipschitz)


def branch_and_bound(
    inst: Instance,
    spec: ProblemSpec,
    cfg: Optional[BnBConfig] = None,
    fixed=None,
) -> BnBStats:
    """Best-first branch and bound with certified node bounds.

    Every popped node gets a relaxation solve, a rounding pass to
    tighten the incumbent, a prune test against ``zeta_bar - 1e-9``
    and, with ``cfg.screen_at_root`` on, a screening pass; it then
    branches on the free variable of largest score.  Screening,
    branching and card rounding read the scores the relaxation returns;
    reg rounding reads its indicators ``z``.
    Node counts are deterministic for a fixed config and instance.
    ``optimal`` is True only when the search space was exhausted
    within the limits.  Every node relaxes at the default tolerance,
    with one Lipschitz value for the whole tree.
    """
    cfg = cfg or BnBConfig()
    t0 = time.perf_counter()
    n = inst.n
    lip = _lipschitz(inst.a)

    root_fixes = np.full(n, FixState.FREE, dtype=np.int8) if fixed is None else _check_fixes(fixed, n)
    root_fixes = _settle(spec, root_fixes)

    incumbent, zeta_bar = None, math.inf

    counter = itertools.count()
    heap: list = [(-math.inf, next(counter), 0, root_fixes, None)]
    stack: list = []
    nodes_explored = 0
    root_fixed = 0
    hit_limit = False

    while heap or stack:
        if time.perf_counter() - t0 > cfg.time_limit_s or nodes_explored >= cfg.node_limit:
            hit_limit = True
            break
        if stack:
            bound, _, depth, fixes, warm = stack.pop()
        else:
            bound, _, depth, fixes, warm = heapq.heappop(heap)
        if bound >= zeta_bar - _PRUNE_SLACK:
            continue

        rel = node_relaxation(inst, spec, fixes, x_warm=warm, lipschitz=lip)
        nodes_explored += 1
        node_lb = max(bound, rel.lower_bound)

        cand = _node_round(inst, spec, fixes, rel.scores if spec.variant is Variant.CARD else rel.z)
        if cand.objective < zeta_bar:
            incumbent, zeta_bar = cand, cand.objective

        if node_lb >= zeta_bar - _PRUNE_SLACK:
            continue

        if cfg.screen_at_root:
            # the rules need the bound that belongs to this node's
            # residual, not the (possibly larger) inherited one
            screened = _screen_fixes(spec, fixes, rel.scores, rel.lower_bound, zeta_bar)
            if depth == 0:
                root_fixed = int(np.count_nonzero(screened != fixes))
            fixes = _settle(spec, screened)

        free_idx = np.flatnonzero(fixes == FixState.FREE)
        if free_idx.size == 0:
            cand = _evaluate(inst, spec, np.flatnonzero(fixes == FixState.ONE))
            if cand.objective < zeta_bar:
                incumbent, zeta_bar = cand, cand.objective
            continue

        j = int(free_idx[np.argmax(rel.scores[free_idx])])

        # fixes is settled and has a free variable, so the fixed-in child
        # stays within a card budget
        child_in = fixes.copy()
        child_in[j] = FixState.ONE
        child_out = fixes.copy()
        child_out[j] = FixState.ZERO
        for ch in (_settle(spec, child_in), child_out):
            entry = (node_lb, next(counter), depth + 1, ch, rel.x)
            if len(heap) + len(stack) >= _OPEN_NODE_CAP:
                stack.append(entry)
            else:
                heapq.heappush(heap, entry)

    if incumbent is None:
        # limits hit before a single node was processed; fall back to the
        # smallest support the root fixes allow
        incumbent = _evaluate(inst, spec, np.flatnonzero(root_fixes == FixState.ONE))
    return BnBStats(
        nodes_explored=nodes_explored,
        wall_time_s=time.perf_counter() - t0,
        optimal=not hit_limit,
        best=incumbent,
        root_fixed=root_fixed,
    )
