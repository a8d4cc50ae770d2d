"""Convex relaxation solvers with certified dual lower bounds.

Relaxing the binary selection indicators to [0, 1] and minimizing them
out leaves a penalty on the coefficients alone.  For reg, each
perspective term ``x_i^2 / (gamma z_i) + mu z_i`` becomes a separable
reverse-Huber (Berhu) penalty: linear near the origin, quadratic past
``sqrt(gamma * mu)``.  For card, the minimum of ``sum_i x_i^2 / z_i``
over ``sum(z) <= k`` is the squared k-support norm (Argyriou, Foygel
and Srebro, 2012), whose prox costs one sort.  Both relaxations are
solved by an accelerated proximal gradient method with adaptive
restart, through ``_inner_solve``, which also prices the columns a
branch-and-bound node fixes in; the reg relaxation also tries an exact
solve on the pattern its iterates settle on (``_berhu_solve``).  Every
residual ``eps = y - A x`` yields a dual-feasible point and hence a
certified lower bound, valid whether or not the iteration has
converged; termination is decided by the certified gap itself.
Each iteration takes one product pair, ``A x - y`` and ``A'`` of it,
at its new iterate; the same pair gives that iterate's certificate and
the next gradient, so every iterate's gap is tested.

The relaxed solutions are sparse, so the method runs in rounds on a
working set of columns, and one product ``A' eps`` per round prices
the certificate over every column; the returned bound always holds for
the full problem.

One private function, ``_relax``, turns a fix vector into a relaxation:
``solve_cr`` and ``solve_cc`` run it with every variable free, and every
branch-and-bound node runs it through ``exact.node_relaxation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .problem import (FixState, Instance, InvalidInputError, ProblemSpec, Variant, _check_residual,
                      _check_tol, _settle, _spec_for, _top, _within)

# operator_norm_sq is exact only to rounding, a relative error of order
# max(m, n) machine epsilons on either side of ||A||^2; the pad keeps
# the fixed step 1 / L valid with room to spare.
_LIPSCHITZ_PAD = 1.01

# APG iterations one relaxation may take over all of its rounds; at the
# cap it returns converged=False, with its bound still certified.
_MAX_ITER = 50_000


@dataclass(frozen=True)
class BerhuPenalty:
    """Reverse-Huber penalty, the exact envelope of the perspective term.

    value(x) = 2 |x| sqrt(mu / gamma)      if |x| <= sqrt(gamma mu)
             = x^2 / gamma + mu            otherwise

    The minimizing indicator is ``z = min(1, |x| / sqrt(gamma mu))``.
    """

    mu: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0 or not np.isfinite(self.gamma):
            raise InvalidInputError("gamma must be positive and finite")
        if self.mu < 0 or not np.isfinite(self.mu):
            raise InvalidInputError("mu must be non-negative and finite")

    @property
    def crossover(self) -> float:
        """|x| at which the linear and quadratic branches meet."""
        return math.sqrt(self.gamma * self.mu)

    @property
    def slope(self) -> float:
        """Slope of the linear branch."""
        return 2.0 * math.sqrt(self.mu / self.gamma)


def berhu_value(pen: BerhuPenalty, x):
    """Penalty value, elementwise over ``x``."""
    xv = np.asarray(x, dtype=float)
    ax = np.abs(xv)
    out = np.where(ax <= pen.crossover, pen.slope * ax, ax * ax / pen.gamma + pen.mu)
    return float(out) if xv.ndim == 0 else out

def berhu_prox(pen: BerhuPenalty, t, v):
    """Proximal map of ``t * value``: soft threshold, then ridge shrink.

    For |v| below ``t * slope`` the result is 0; up to the (shifted)
    crossover the linear branch soft-thresholds; past it the quadratic
    branch scales by 1 / (1 + 2 t / gamma).  The two pieces meet exactly
    at ``crossover * (1 + 2 t / gamma)``, so the map is continuous and
    monotone.
    """
    if t <= 0 or not np.isfinite(t):
        raise InvalidInputError("step t must be positive and finite")
    vv = np.asarray(v, dtype=float)
    out = _berhu_prox_value(pen, t, vv)[0]
    return float(out) if vv.ndim == 0 else out


def _berhu_prox_value(pen: BerhuPenalty, t, v):
    """``berhu_prox`` of a float array ``v``, and the penalty sum of the result.

    The penalty is read off the branch each entry took, ``slope * |x|``
    on the zero and linear branches and ``x^2 / gamma + mu`` on the
    quadratic one, so APG need not price its iterates again with
    ``berhu_value``.  The two agree except where rounding in
    ``|v| - t * slope`` puts a linear-branch output past the crossover;
    the branches meet there, so they then differ by that rounding
    squared over ``gamma``.
    """
    av = np.abs(v)
    slope = pen.slope
    thr = t * slope
    scale = 1.0 + 2.0 * t / pen.gamma
    zero = av <= thr
    lin = av <= pen.crossover * scale
    mag = np.where(lin, av - thr, av / scale)
    mag[zero] = 0.0
    xq = mag[~(zero | lin)]
    value = slope * float(mag[lin].sum()) + float(xq.dot(xq)) / pen.gamma + pen.mu * xq.size
    mag *= np.sign(v)
    return mag, value


@dataclass
class RelaxSolution:
    """Relaxation output: primal point, recovered indicators, certificate.

    ``scores`` holds ``delta_i = (a_i' epsilon)^2`` for every column the
    relaxation kept, taken from the product its certificate already
    priced; columns fixed out of a node relaxation read 0.  Card
    rounding, the screening rules and branching read them in place of a
    new product with ``A``; reg rounding reads ``z``.
    """

    x: NDArray[np.float64]
    z: NDArray[np.float64]
    epsilon: NDArray[np.float64]
    scores: NDArray[np.float64]
    objective: float
    lower_bound: float
    converged: bool = True
    iterations: int = 0

    @property
    def gap(self) -> float:
        """The certified relative gap ``(objective - lower_bound) / |objective|``.

        A relaxation converged at ``tol`` has ``gap <= tol``.  A zero
        objective gives 0 when the bound meets it and inf otherwise.
        """
        diff = self.objective - self.lower_bound
        if self.objective == 0.0:
            return 0.0 if diff <= 0.0 else math.inf
        return diff / abs(self.objective)


@dataclass(frozen=True)
class DualCertificate:
    epsilon_bar: NDArray[np.float64]
    lower_bound: float


def operator_norm_sq(a) -> float:
    """Largest squared singular value of ``a``, exact to rounding.

    Computed as the top eigenvalue of the smaller Gram matrix, ``a a'``
    when ``m <= n`` and ``a'a`` otherwise: ``min(m, n)^2 max(m, n)``
    BLAS-3 work for the product plus a ``min(m, n)^3`` symmetric eigen
    solve.  An empty matrix gives 0.  Raises InvalidInputError when the
    Gram matrix overflows.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    with np.errstate(over="ignore"):  # reported below as an error
        g = a @ a.T if m <= n else a.T @ a
    if not np.all(np.isfinite(g)):
        raise InvalidInputError(
            "the Gram matrix of A overflows; divide A by a scale s and multiply gamma by s**2"
        )
    # rounding can leave the top eigenvalue of a PSD matrix just below 0;
    # the initial 0 also prices an empty matrix, whose eigvalsh is empty
    return float(np.linalg.eigvalsh(g).max(initial=0.0))


def _scores(a, eps):
    """The scores ``delta_i = (a_i' eps)^2`` of a residual, from one product with ``a``."""
    ateps = a.T @ eps
    return ateps * ateps


def _bound_reg_terms(y, eps, d, gamma, mu, free_mask=None, eps_sq=None) -> float:
    # Dual value at p = 2 gamma A'eps, priced from the scores d: the
    # x-part is 2 eps'y - ||eps||^2 for any eps, the z-part clips each
    # margin mu - gamma delta_i at 0 for free variables and takes it
    # as-is for variables fixed in.  eps_sq is ||eps||^2 when the caller
    # has it.
    margin = mu - gamma * d
    if free_mask is None:
        zpart = float(np.minimum(0.0, margin).sum())
    else:
        zpart = float(np.minimum(0.0, margin[free_mask]).sum() + margin[~free_mask].sum())
    if eps_sq is None:
        eps_sq = eps.dot(eps)
    return float(2.0 * eps.dot(y) - eps_sq + zpart)


def _bound_card_terms(y, eps, d, gamma, k_budget, free_mask=None, eps_sq=None) -> float:
    # z-part: variables fixed in contribute -gamma delta_i outright; the
    # budget then buys the k largest scores among the free variables.
    # eps_sq is ||eps||^2 when the caller has it.
    if free_mask is None:
        df = d
        fixed = 0.0
    else:
        df = d[free_mask]
        fixed = float(d[~free_mask].sum())
    kk = min(int(k_budget), df.size)
    top = 0.0
    if kk > 0:
        part = df.copy()
        part.partition(df.size - kk)
        top = float(part[df.size - kk:].sum())
    if eps_sq is None:
        eps_sq = eps.dot(eps)
    return float(2.0 * eps.dot(y) - eps_sq - gamma * (fixed + top))


def certified_lower_bound_reg(inst: Instance, gamma: float, mu: float, epsilon_bar) -> float:
    """Certified lower bound on the reg relaxation, valid for any residual."""
    spec = _spec_for(inst.n, gamma, mu=mu)
    eps = _check_residual(inst, epsilon_bar)
    return _bound_reg_terms(inst.y, eps, _scores(inst.a, eps), spec.gamma, spec.mu)


def certified_lower_bound_card(inst: Instance, gamma: float, k: int, epsilon_bar) -> float:
    """Certified lower bound on the card relaxation, valid for any residual."""
    spec = _spec_for(inst.n, gamma, k=k)
    eps = _check_residual(inst, epsilon_bar)
    return _bound_card_terms(inst.y, eps, _scores(inst.a, eps), spec.gamma, spec.k)


def _accel_prox_solve(a, y, prox, penalty_value, certificate, lipschitz, tol, max_iter, x0, finish=None):
    """Accelerated proximal gradient (FISTA) with gradient-based restart.

    Minimizes ``||y - a x||^2 + sum_i psi_i(x_i)``; ``prox`` returns the
    new point with its penalty, and ``penalty_value`` prices ``x0``.
    Each iteration takes one product pair at its new iterate,
    ``r = a x - y`` and ``g = a' r``, which both certify that iterate
    (``certificate(eps, scores, ||eps||^2)`` with ``eps = -r`` and
    scores ``g * g``) and, by linearity, give the gradient at the next
    extrapolated point.

    ``finish``, when given, maps an iterate whose gap is still open to a
    candidate point or None.  A candidate is priced by one product pair,
    counted as an iteration, and returned if its own certified gap
    passes; otherwise it is discarded and the iteration goes on from the
    iterate.  Returns at the first point whose bound is within ``tol``
    of its primal value (``problem._within``), unconverged at the first
    non-finite primal value or bound, as ``(x, eps, primal, lower_bound, iterations, converged,
    scores)``; benchmarks/tracer.py reads ``iterations`` and
    ``converged`` by position.
    """
    lip = float(lipschitz)
    if lip <= 0.0:
        lip = 1.0  # gradient is then zero or the prox does all the work
    step = 1.0 / lip
    # doubling is exact, so two_step * gv has the bits of step * (2 gv)
    two_step = 2.0 * step
    x = np.array(x0, dtype=float)
    pen = penalty_value(x)
    r = a @ x - y
    g = a.T @ r
    v, gv = x, g
    t_mom = 1.0
    it = 0
    while True:
        eps = -r
        d = g * g
        # ||eps||^2, bit for bit; ndarray.dot is the same BLAS dot as @
        # without matmul's dispatch, which costs more than the dot itself
        ee = float(r.dot(r))
        primal = ee + pen
        lb = certificate(eps, d, ee)
        if not (math.isfinite(primal) and math.isfinite(lb)):
            return x, eps, primal, lb, it, False, d  # diverged
        ok = _within(lb, primal, tol)
        if ok or it >= max_iter:
            return x, eps, primal, lb, it, ok, d
        xf = None if finish is None else finish(x)
        if xf is not None:
            it += 1
            with np.errstate(over="ignore", invalid="ignore"):  # a wild candidate fails the test below
                rf = a @ xf - y
                gf = a.T @ rf
                df = gf * gf
                ef = float(rf.dot(rf))
                primal_f = ef + penalty_value(xf)
                lb_f = certificate(-rf, df, ef)
            if _within(lb_f, primal_f, tol):
                return xf, -rf, primal_f, lb_f, it, True, df
            if it >= max_iter:
                return x, eps, primal, lb, it, False, d
        x_new, pen = prox(v - two_step * gv, step)
        g_old = g
        r = a @ x_new - y
        g = a.T @ r
        dx = x_new - x
        if float((v - x_new).dot(dx)) > 0.0:
            t_mom, v, gv = 1.0, x_new, g
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
            beta = (t_mom - 1.0) / t_next
            # a' (a v - y) = g + beta (g - g_old), with no product at v
            v = x_new + beta * dx
            gv = g + beta * (g - g_old)
            t_mom = t_next
        x = x_new
        it += 1


def _lipschitz(a) -> float:
    """The padded Lipschitz constant ``2 ||a||^2`` of the least-squares gradient."""
    return 2.0 * operator_norm_sq(a) * _LIPSCHITZ_PAD


def _inner_solve(a, y, gamma, free_mask, prox, penval, cert, flat, lip, tol, max_iter, x0, finish=None):
    """One relaxation's accelerated prox problem, with its fixed-in columns.

    ``prox`` and ``penval`` are the relaxed penalty's prox and value on
    the free columns.  Columns outside ``free_mask`` are fixed in: they
    carry the plain ridge ``x_i^2 / gamma``, whose prox shrinks by
    ``1 + 2 s / gamma``, plus ``flat`` each (``mu`` for reg, 0 for card),
    so the reported primal and bound bracket the subproblem value
    directly.  A ``free_mask`` of None means every column is free, and
    the prox then takes no gathers.  Returns the tuple of
    ``_accel_prox_solve``.
    """
    if free_mask is not None:
        fm, om = free_mask, ~free_mask
        free_prox, free_penval = prox, penval
        charge = flat * int(np.count_nonzero(om))

        def prox(w, s):
            out = np.empty_like(w)
            out[fm], pen = free_prox(w[fm], s)
            xo = out[om] = w[om] / (1.0 + 2.0 * s / gamma)
            return out, pen + float(xo @ xo) / gamma + charge

        def penval(xv):
            xo = xv[om]
            return free_penval(xv[fm]) + float(xo @ xo) / gamma + charge

    return _accel_prox_solve(a, y, prox, penval, cert, lip, tol, max_iter, x0, finish)


def _berhu_solve(a, y, gamma, mu, free_mask, lip, tol, max_iter, x0):
    """One Berhu problem, with fixed-in columns as in ``_inner_solve``.

    APG is handed an exact finish.  The pattern of an iterate is its
    support, the branch of each free nonzero (linear when
    ``|x_i| <= sqrt(gamma mu)``) and the signs on the linear branch.
    On a fixed pattern the problem is a quadratic whose minimizer
    solves ``(A_S'A_S + D) x_S = A_S'y - sqrt(mu / gamma) s_L`` over the
    support and the fixed-in columns ``S``, with ``D_ii = 1 / gamma``
    on quadratic-branch and fixed-in columns, 0 on linear-branch ones,
    and ``s_L`` the linear-branch signs.  Proximal gradient settles on
    the optimal pattern in finitely many steps, so the finish solves
    that system once for each pattern two consecutive iterates share;
    APG's own certificate decides whether the solution is kept.
    """
    pen = BerhuPenalty(mu=mu, gamma=gamma)
    penval = lambda xv: float(np.sum(berhu_value(pen, xv)))
    prox = lambda w, s: _berhu_prox_value(pen, s, w)

    crossover, half_slope = pen.crossover, math.sqrt(mu / gamma)
    fixed_in = None if free_mask is None else ~free_mask
    last, tried = b"", set()

    def finish(xv):
        nonlocal last
        # pattern code: 0 off the support, the sign on the linear branch,
        # 2 on the quadratic branch or fixed in
        code = np.sign(xv)
        code[np.abs(xv) > crossover] = 2.0
        if fixed_in is not None:
            code[fixed_in] = 2.0
        key = code.tobytes()
        repeat, last = key == last, key
        if not repeat or key in tried:
            return None
        tried.add(key)
        s = np.flatnonzero(code)
        cs = code[s]
        quad = cs == 2.0
        a_s = a[:, s]
        h = a_s.T @ a_s
        h.flat[:: s.size + 1] += quad / gamma  # the diagonal
        rhs = a_s.T @ y - half_slope * np.where(quad, 0.0, cs)
        try:
            xs = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            return None
        out = np.zeros_like(xv)
        out[s] = xs
        return out

    cert = lambda e, d, ee: _bound_reg_terms(y, e, d, gamma, mu, free_mask, ee)
    return _inner_solve(a, y, gamma, free_mask, prox, penval, cert, mu, lip, tol, max_iter, x0, finish)


def solve_cr(inst: Instance, gamma: float, mu: float, tol: float = 1e-8) -> RelaxSolution:
    """Solve the reg relaxation to a certified relative gap of ``tol``.

    This is ``_relax`` with every variable free, the same relaxation
    every branch-and-bound node runs.

    Parameters
    ----------
    inst : Instance
    gamma, mu : float
        Ridge scale and per-variable price, both positive.
    tol : float
        Certified relative gap at which the solve stops, in (0, 1): it
        stops once ``objective - lower_bound <= tol * |objective|``
        (``problem._within``), a test that does not depend on the units
        of ``y`` or ``A``.

    Returns
    -------
    RelaxSolution
        ``objective`` is the primal value of the final iterate,
        ``lower_bound`` the certificate of its residual, and
        ``z = min(1, |x| / sqrt(gamma mu))``.  If the gap did not close
        within ``_MAX_ITER`` APG iterations the final iterate is
        returned with ``converged=False``; the bound is still valid.
    """
    tol = _check_tol(tol)
    spec = _spec_for(inst.n, gamma, mu=mu)
    return _relax(inst, spec, np.full(inst.n, FixState.FREE, dtype=np.int8), tol)


def _ridge_full(a, y, gamma):
    """Unrestricted ridge solution via whichever normal system is smaller."""
    m, n = a.shape
    if n <= m:
        return np.linalg.solve(a.T @ a + np.eye(n) / gamma, a.T @ y)
    u = np.linalg.solve(a @ a.T + np.eye(m) / gamma, y)
    return a.T @ u


def _ksupport(x, k):
    """Squared k-support norm of ``x`` and the indicators that attain it.

    The value is ``min sum_i x_i^2 / z_i`` over ``z`` in [0, 1]^n with
    ``sum(z) <= k``.  In threshold form, with ``|x|`` sorted in
    descending order, the first ``r`` entries are capped at ``z = 1``
    and the rest get ``z_i = |x_i| / tau``, ``tau = tail_r / (k - r)``
    where ``tail_r`` sums the entries after the first ``r``; ``r`` is
    the smallest count whose first uncapped entry is at most ``tau``.
    Then ``z = min(1, |x| / tau)`` and ``sum(z) = k``.  With at most
    ``k`` nonzeros, ``z`` is the support indicator and the value is
    ``||x||^2``.
    """
    ax = np.abs(x)
    if np.count_nonzero(ax) <= k:
        return float(ax @ ax), (ax > 0.0).astype(float)
    u = -np.sort(-ax)
    # summed from the small end, so tail[k - 1] >= u[k - 1] holds in floats
    tail = np.cumsum(u[::-1])[::-1][:k]
    tau = tail / (k - np.arange(k))
    r = int(np.argmax(u[:k] <= tau))
    head = u[:r]
    return float(head @ head + tail[r] * tau[r]), np.minimum(1.0, ax / tau[r])


def _ksupport_prox(w, c, k):
    """Proximal map of ``(c / 2) ||.||_{sp,k}^2`` at ``w``.

    The minimizer is ``x_i = w_i z_i / (z_i + c)`` with
    ``z_i = clip(beta |w_i| - c, 0, 1)``, where ``beta`` solves
    ``sum(z) = k``.  That sum is piecewise linear and nondecreasing in
    ``beta``, with breakpoints ``c / |w_i|`` (entry starts rising) and
    ``(1 + c) / |w_i|`` (entry caps at 1), so sorting the breakpoints
    and summing slopes and offsets along them locates the root.  Returns
    ``(x, ||x||_{sp,k}^2)``: ``z`` attains the norm at ``x``, so the
    value is ``sum_i x_i^2 / z_i = x @ (w / (z + c))``.

    APG calls this once per iteration on a few dozen entries, where
    numpy's per-call overhead is most of the cost, so the slope and
    offset steps share one gather by the sort order and one accumulate.
    """
    aw = np.abs(w)
    nz = aw[aw > 0.0]
    n = nz.size
    if n <= k:
        x = w / (1.0 + c)
        return x, float(x @ x)
    bp = np.concatenate((c / nz, (1.0 + c) / nz))
    order = bp.argsort(kind="stable")
    bp = bp[order]
    # rows: the slope and offset steps of each breakpoint, in bp's order
    steps = np.empty((2, 2 * n))
    steps[0, :n] = nz
    np.negative(nz, out=steps[0, n:])
    steps[1, :n] = -c
    steps[1, n:] = 1.0 + c
    slope, offset = np.add.accumulate(steps.take(order, axis=1), axis=1)
    mass = bp * slope + offset
    # mass[0] = 0 < k and mass[-1] = nnz > k, so 1 <= j < 2 nnz
    j = int((mass >= k).argmax())
    beta = bp[j]
    if slope[j - 1] > 0.0:
        # a flat segment at mass k can carry a rounding-sized slope; any
        # beta on it gives the same z, so stay inside the segment
        beta = min(beta, bp[j - 1] + (k - mass[j - 1]) / slope[j - 1])
    z = np.minimum(np.maximum(beta * aw - c, 0.0), 1.0)
    zc = z + c
    x = w * z / zc
    return x, float(x.dot(w / zc))


def _ksupport_solve(a, y, gamma, k_budget, free_mask, lip, tol, max_iter, x0):
    """Budget-capped relaxation, with fixed-in columns as in ``_inner_solve``.

    Minimizing the indicators out leaves ``||y - a x||^2`` plus
    ``||x_free||_{sp,k}^2 / gamma``, one accelerated prox problem whose
    dual is the top-k score bound of ``_bound_card_terms``.
    """
    def prox(w, s):
        x, sq = _ksupport_prox(w, 2.0 * s / gamma, k_budget)
        return x, sq / gamma

    penval = lambda xv: _ksupport(xv, k_budget)[0] / gamma
    cert = lambda e, d, ee: _bound_card_terms(y, e, d, gamma, k_budget, free_mask, ee)
    return _inner_solve(a, y, gamma, free_mask, prox, penval, cert, 0.0, lip, tol, max_iter, x0)


# Kept under its old name because benchmarks/tracer.py looks up
# relax._cc_bisection; the card relaxation is solved by _ksupport_solve.
_cc_bisection = _ksupport_solve


# Free columns in the first round of a working-set relaxation (at least
# twice the card budget); a relaxation with no more free columns than
# that runs as one round on all of its columns.  A narrow first set has
# a small operator norm, so APG takes a long step: on 60x120 cells, 32
# needs about 30% fewer iterations than all 120 columns, and a second
# round in fewer than 1% of calls.
_WS_START = 32


def _relax(inst: Instance, spec: ProblemSpec, fixes, tol=1e-8, x_warm=None, lipschitz=None) -> RelaxSolution:
    """The relaxation of ``spec`` with the variables in ``fixes`` fixed.

    Fixed-out columns leave the problem, and so do the free ones once a
    card budget is spent (``problem._settle``).  When no more columns
    are free than the budget (``k - n_one`` for card, 0 for reg) the
    ridge closed form is certified as it stands; otherwise the Berhu or
    k-support problem is solved, reg from ``x_warm`` when given and card
    from zero.

    The solve runs in rounds on a working set W of columns: the
    fixed-in ones, the warm start's support and the free columns of
    largest ``|a_i' y|``, read from ``inst.aty``, ``_WS_START`` free
    columns in all (at least twice the card budget), or none of the
    latter when the warm support fills that many.  Each round solves
    on ``A[:, W]`` at ``tol`` from the last round's ``x``, with its step from
    ``lipschitz`` when given and from ``_lipschitz(A[:, W])`` otherwise
    (branch and bound passes none at its root and, below it, the value
    of the columns the root keeps, which bounds every W of a node that
    descends from the root's fixes), and one product ``A' eps`` then
    certifies the round's residual over every column.  That bound holds
    for the full problem, and a round whose full gap passes ``tol``
    ends the solve.  Otherwise the free columns outside W
    that lower the full bound join W, the highest-scoring |W| of them:
    for reg those with ``gamma delta_i > mu``, for card those above W's
    k-th largest free score, and when rounding leaves none, the
    highest-scoring outside columns.  Both picks break ties toward the
    lower index (``problem._top``).  So the rounds take one product with
    the full ``A`` each, their ``A' eps``, and none with ``y``.  A
    relaxation with no more free columns than the start runs as one
    round on all of them.  With every variable free and no warm start,
    the first W and its Lipschitz value depend on the instance alone:
    they are priced on first use and read from ``inst._first_ws`` after
    that.
    ``iterations`` sums the rounds, and ``_MAX_ITER`` caps that sum.
    The returned ``scores`` come from the product that priced the
    returned bound: the last round's ``A' eps``, or the one-round
    solve's final pair.
    """
    card = spec.variant is Variant.CARD
    fixes = _settle(spec, fixes)
    active = np.flatnonzero(fixes != FixState.ZERO)
    free_mask = fixes[active] == FixState.FREE
    n_free = int(np.count_nonzero(free_mask))
    n_one = active.size - n_free
    budget = spec.k - n_one if card else 0
    a = inst.a if active.size == inst.n else inst.a[:, active]
    y = inst.y
    # a mask costs gathers in every APG iteration, so pass none when
    # every active column is free
    mask = None if n_one == 0 else free_mask
    inner, bound, par = (_ksupport_solve, _bound_card_terms, budget) if card else \
        (_berhu_solve, _bound_reg_terms, spec.mu)
    max_iter = _MAX_ITER
    if n_free <= budget:
        # APG takes no step, so any positive Lipschitz value will do
        max_iter, xa, lipschitz = 0, _ridge_full(a, y, spec.gamma), 1.0
    elif card or x_warm is None:
        xa = np.zeros(active.size)
    else:
        xa = np.asarray(x_warm, dtype=float)[active]

    start = max(_WS_START, 2 * budget)
    # with every variable free and no warm start, the first working set
    # and its Lipschitz value depend on the instance alone
    cold = lipschitz is None and x_warm is None and n_free == inst.n
    w, lip = inst._first_ws.get(start, (None, None)) if cold else (None, lipschitz)
    if w is None:
        w = np.arange(active.size)
        if n_free > start:
            in_w = ~free_mask | (xa != 0.0)
            score = np.abs(inst.aty[active])
            score[in_w] = -1.0
            in_w[_top(score, start - int(np.count_nonzero(in_w & free_mask)))] = True
            w = np.flatnonzero(in_w)
    iters = 0
    while True:
        whole = w.size == active.size
        aw = a if whole else a[:, w]
        if lip is None:
            lip = _lipschitz(aw)
            if cold:
                w.setflags(write=False)
                inst._first_ws[start] = (w, lip)
        xw, eps, primal, lb, it, ok, d = inner(
            aw, y, spec.gamma, par, None if mask is None else free_mask[w], lip, tol, max_iter - iters, xa[w],
        )
        iters += it
        xa = np.zeros(active.size)
        xa[w] = xw
        if whole:
            break
        # the round's own bound covers W only; certify over every column
        d = _scores(a, eps)
        lb = bound(y, eps, d, spec.gamma, par, mask)
        stop = not (ok and math.isfinite(lb)) or iters >= max_iter  # diverged or out of iterations
        ok = _within(lb, primal, tol)
        if ok or stop:
            break
        in_w = np.zeros(active.size, dtype=bool)
        in_w[w] = True
        outside = ~in_w
        if card:
            dw = d[in_w & free_mask]
            joins = outside & (d > np.partition(dw, dw.size - budget)[dw.size - budget])
        else:
            joins = outside & (spec.gamma * d > spec.mu)
        # rounding can leave the full gap open with no such column
        cand = np.flatnonzero(joins if joins.any() else outside)
        in_w[cand[_top(d[cand], w.size)]] = True
        w, lip, cold = np.flatnonzero(in_w), lipschitz, False

    if card:
        za = np.ones(active.size)
        za[free_mask] = _ksupport(xa[free_mask], budget)[1]
    else:
        za = np.where(free_mask, np.minimum(1.0, np.abs(xa) / math.sqrt(spec.gamma * spec.mu)), 1.0)
    x = np.zeros(inst.n)
    z = np.zeros(inst.n)
    scores = np.zeros(inst.n)
    x[active] = xa
    z[active] = za
    scores[active] = d
    return RelaxSolution(x=x, z=z, epsilon=eps, scores=scores, objective=primal, lower_bound=lb,
                         converged=ok, iterations=iters)


def solve_cc(inst: Instance, gamma: float, k: int, tol: float = 1e-8) -> RelaxSolution:
    """Solve the card relaxation to a certified relative gap of ``tol``, in (0, 1).

    The solve stops once ``objective - lower_bound <= tol * |objective|``,
    as ``solve_cr`` does.

    The indicators are minimized out in closed form, leaving a ridge fit
    penalized by the squared k-support norm, which is solved by
    accelerated proximal gradient; this is ``_relax`` with every
    variable free, the same relaxation every branch-and-bound node
    runs.  ``z`` holds the indicators that attain that norm at ``x``:
    ``sum(z) = k`` when the budget binds, and ``z`` is the support
    indicator of ``x`` when it has at most ``k`` nonzeros.  If the gap
    did not close within ``_MAX_ITER`` APG iterations the final iterate
    is returned with ``converged=False``; the bound is still valid.
    """
    tol = _check_tol(tol)
    spec = _spec_for(inst.n, gamma, k=k)
    return _relax(inst, spec, np.full(inst.n, FixState.FREE, dtype=np.int8), tol)
