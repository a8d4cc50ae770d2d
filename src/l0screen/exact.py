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
    _check_int,
    _settle,
    _within,
)
from .heuristics import _evaluate, _node_round
from .relax import RelaxSolution, _lipschitz, _relax
from .screening import _screen_fixes

# Kept bound under their old names because benchmarks/tracer.py looks up
# exact._evaluate_support and exact._ridge_on: the first is
# heuristics._evaluate, the second problem.ridge_restricted_solve.
from .heuristics import _evaluate as _evaluate_support  # noqa: F401
from .problem import ridge_restricted_solve as _ridge_on  # noqa: F401

_BRUTE_N_CAP = 25
_BRUTE_COMB_CAP = 1_000_000


@dataclass(frozen=True)
class BnBConfig:
    """Search limits and the screening switch of ``branch_and_bound``.

    ``screen_at_root`` switches screening on at every node, the root and
    each node below it; ``BnBStats.root_fixed`` counts the root's fixes.
    ``node_limit`` bounds memory as well as work: open nodes are at most
    ``node_limit + 1``, each about n + 300 bytes for card and 5n + 300
    for reg (an int8 fix vector, plus a shared float64 warm start).
    """

    time_limit_s: float = 3600.0
    node_limit: int = 1_000_000
    screen_at_root: bool = True

    def __post_init__(self):
        # written so that NaN fails; inf means no limit
        if not (self.time_limit_s > 0):
            raise InvalidInputError("time_limit_s must be positive")
        object.__setattr__(self, "node_limit", _check_int("node_limit", self.node_limit))


@dataclass
class BnBStats:
    """Outcome of ``branch_and_bound``.

    ``root_fixed`` counts the variables the root's screening pass fixed:
    with every variable free, the ``n_zero + n_one`` that
    ``screen_card``/``screen_reg`` report after ``round_card``/
    ``round_reg`` on ``solve_cc``/``solve_cr``.  It reads 0 with
    screening off, and when the root is pruned by its own bound, since
    the root then screens nothing.
    """

    nodes_explored: int
    wall_time_s: float
    optimal: bool
    best: Incumbent
    root_fixed: int


def _gram_value(g, b, yy, gamma, idx) -> float:
    """Restricted ridge value from precomputed Gram pieces; ``yy`` for an empty ``idx``."""
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
    1e-9 relative (``problem._within``).  ``fixed`` optionally pins
    variables (FixState values) before enumeration.  Refuses instances beyond the size caps
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
    b = inst.aty
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
            if _within(best_val, val):
                near.append((support, val))

    optimal = sorted(s for s, v in near if _within(best_val, v))
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
    from ``lipschitz`` when given and from ``relax._lipschitz`` of the
    working set's columns otherwise.  Branch and bound passes none at
    the root, so that the root takes the steps of ``solve_cr`` and
    ``solve_cc``, and below it ``relax._lipschitz`` of the columns the
    root keeps, which bounds every working set of a node that descends
    from the root's fixes.  ``x_warm`` starts the reg solve, and its
    support joins the first working set; card solves start from zero.
    """
    return _relax(inst, spec, _check_fixes(fixes, inst.n), x_warm=x_warm, lipschitz=lipschitz)


def _expand(inst, spec, fixes, warm, bound, zeta_bar, lip, screen):
    """Relax, round, prune, screen, then evaluate or branch one node of
    ``branch_and_bound`` with inherited ``bound`` under incumbent value
    ``zeta_bar``.  Returns the incumbent candidate (the rounding, or the
    leaf when strictly below both it and ``zeta_bar``), the number of
    variables screening fixed, and ``(bound, fixes, warm)`` per child,
    none when the node is pruned or a leaf; ``warm`` is the node's ``x``
    for reg and None for card.  ``lip`` is the Lipschitz value of
    ``node_relaxation``, None at the root.
    """
    rel = node_relaxation(inst, spec, fixes, x_warm=warm, lipschitz=lip)
    node_lb = max(bound, rel.lower_bound)
    cand = _node_round(inst, spec, fixes, rel.scores if spec.variant is Variant.CARD else rel.z)
    zeta_bar = min(zeta_bar, cand.objective)
    if _within(node_lb, zeta_bar):
        return cand, 0, ()

    screened = 0
    if screen:
        # the rules need the bound that belongs to this node's residual,
        # not the (possibly larger) inherited one
        out = _screen_fixes(spec, fixes, rel.scores, rel.lower_bound, zeta_bar)
        screened = int(np.count_nonzero(out != fixes))
        fixes = _settle(spec, out)

    free_idx = np.flatnonzero(fixes == FixState.FREE)
    if free_idx.size == 0:
        leaf = _evaluate(inst, spec, np.flatnonzero(fixes == FixState.ONE))
        return (leaf if leaf.objective < zeta_bar else cand), screened, ()

    j = int(free_idx[np.argmax(rel.scores[free_idx])])
    # fixes is settled and has a free variable, so the fixed-in child
    # stays within a card budget
    child_in, child_out = fixes.copy(), fixes.copy()
    child_in[j], child_out[j] = FixState.ONE, FixState.ZERO
    # card relaxations start from zero, so only reg children carry a warm start
    warm = rel.x if spec.variant is Variant.REG else None
    return cand, screened, ((node_lb, _settle(spec, child_in), warm), (node_lb, child_out, warm))


def branch_and_bound(
    inst: Instance,
    spec: ProblemSpec,
    cfg: Optional[BnBConfig] = None,
    fixed=None,
) -> BnBStats:
    """Best-first branch and bound with certified node bounds.

    A popped node whose inherited bound reaches the incumbent value
    ``zeta_bar`` is pruned without a relaxation solve.  Every other
    node (``_expand``) gets a relaxation solve, a rounding pass to
    tighten the incumbent, a prune test and, with ``cfg.screen_at_root``
    on, a screening pass; it then branches on the free variable of
    largest score.  Screening, branching and card rounding read the
    scores the relaxation returns; reg rounding reads its indicators
    ``z``.  A node is pruned once its bound is within 1e-9 relative of
    ``zeta_bar`` (``problem._within``).
    Node counts are deterministic for a fixed config and instance.
    Each expansion pops one node and pushes at most two, so the heap
    holds at most ``nodes_explored + 1 <= cfg.node_limit + 1`` nodes.
    ``optimal`` is False when a limit stopped the search with a node
    still to relax; otherwise the incumbent is within 1e-9 relative of
    the optimum, at any scale of the data.  Every node relaxes at the
    default tolerance.

    With no ``fixed`` the root is the public screen pipeline bit for
    bit: it relaxes as ``solve_cc``/``solve_cr`` do, with each working
    set's own step and the instance's cached first working set, and it
    rounds and screens as ``round_*`` and ``screen_*`` do, so
    ``BnBStats.root_fixed`` equals that report's fixes whenever the
    root is not pruned by its own bound.  Once the root branches, every
    node below it relaxes with one Lipschitz value, that of the columns
    the root keeps, and reg nodes start from their parent's ``x``.
    """
    cfg = cfg or BnBConfig()
    t0 = time.perf_counter()
    n = inst.n
    lip = None
    root_fixes = np.full(n, FixState.FREE, dtype=np.int8) if fixed is None else _check_fixes(fixed, n)
    root_fixes = _settle(spec, root_fixes)

    incumbent, zeta_bar = None, math.inf
    counter = itertools.count()
    heap: list = [(-math.inf, next(counter), root_fixes, None)]
    nodes_explored = root_fixed = 0
    hit_limit = False

    while heap:
        bound, _, fixes, warm = heapq.heappop(heap)
        if _within(bound, zeta_bar):
            continue
        if time.perf_counter() - t0 > cfg.time_limit_s or nodes_explored >= cfg.node_limit:
            hit_limit = True
            break

        cand, screened, children = _expand(inst, spec, fixes, warm, bound, zeta_bar, lip, cfg.screen_at_root)
        if nodes_explored == 0:
            root_fixed = screened
        if lip is None and children:
            # the root branched, and every node below keeps a subset of the
            # columns it kept (those either child keeps): their norm bounds
            # every working set of the tree
            (_, fix_in, _), (_, fix_out, _) = children
            lip = _lipschitz(inst.a[:, (fix_in != FixState.ZERO) | (fix_out != FixState.ZERO)])
        nodes_explored += 1
        if cand.objective < zeta_bar:
            incumbent, zeta_bar = cand, cand.objective
        for child_bound, child, child_warm in children:
            heapq.heappush(heap, (child_bound, next(counter), child, child_warm))

    if incumbent is None:
        # limits hit before a single node was processed; fall back to the
        # smallest support the root fixes allow
        incumbent = _evaluate(inst, spec, np.flatnonzero(root_fixes == FixState.ONE))
    return BnBStats(nodes_explored=nodes_explored, wall_time_s=time.perf_counter() - t0,
                    optimal=not hit_limit, best=incumbent, root_fixed=root_fixed)
