"""Slow, independent reference implementations used to pin expected values.

Everything here is deliberately naive: dense grids, golden-section
search, stacked least squares, exhaustive enumeration. None of it shares
code paths with the package.
"""

import itertools
import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, tol=1e-12, max_iter=200):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def berhu_value_grid(mu, gamma, x, points=2_000_001):
    """min over z in (0, 1] of x^2/(gamma z) + mu z, plus the z=0 corner."""
    if x == 0.0:
        return 0.0
    z = np.linspace(1.0 / points, 1.0, points)
    return float(np.min(x * x / (gamma * z) + mu * z))


def prox_golden(mu, gamma, t, v):
    """argmin_u t*berhu(u) + 0.5 (u - v)^2 by golden section."""
    c = math.sqrt(gamma * mu)

    def pen(u):
        au = abs(u)
        if au <= c:
            return 2.0 * au * math.sqrt(mu / gamma)
        return u * u / gamma + mu

    def h(u):
        return t * pen(u) + 0.5 * (u - v) ** 2

    lo, hi = (0.0, v) if v >= 0 else (v, 0.0)
    return golden_section(h, lo, hi, tol=1e-13)


def _bisect(f, lo, hi, iters=200):
    """Root of a nondecreasing f on [lo, hi] by plain interval halving."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ksupport_sq_bisect(x, k):
    """min over z in [0,1]^n, sum(z) <= k, of sum x_i^2 / z_i (0/0 = 0).

    The minimizing z is min(1, |x_i| / t) for the threshold t at which
    those indicators sum to k; t is found by bisection.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    if np.count_nonzero(ax) <= k:
        z = (ax > 0).astype(float)
    else:
        mass = lambda t: k - float(np.minimum(1.0, ax / t).sum())
        t = _bisect(mass, 0.0, float(ax.sum()))
        z = np.minimum(1.0, ax / t)
    on = z > 0
    return float(np.sum(ax[on] ** 2 / z[on])), z


def ksupport_prox_bisect(w, c, k):
    """argmin_x 0.5 ||x - w||^2 + (c/2) ||x||_{sp,k}^2 via bisection on beta.

    x_i = w_i z_i / (z_i + c) with z_i = clip(beta |w_i| - c, 0, 1) and
    beta chosen so that sum(z) = k (or z = 1 when at most k entries are
    nonzero).
    """
    w = np.asarray(w, dtype=float)
    aw = np.abs(w)
    if np.count_nonzero(aw) <= k:
        return w / (1.0 + c)
    mass = lambda b: float(np.clip(b * aw - c, 0.0, 1.0).sum()) - k
    beta = _bisect(mass, 0.0, (1.0 + c) / float(aw[aw > 0].min()))
    z = np.clip(beta * aw - c, 0.0, 1.0)
    return w * z / (z + c)


def ridge_ls(a_s, y, gamma):
    """Ridge on given columns via stacked least squares."""
    m, s = a_s.shape
    aug = np.vstack([a_s, np.eye(s) / math.sqrt(gamma)])
    rhs = np.concatenate([y, np.zeros(s)])
    x, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    val = float(np.sum((y - a_s @ x) ** 2) + np.sum(x * x) / gamma)
    return x, val


def _weighted_ridge_value(a, y, gamma, z):
    """min_x ||y - Ax||^2 + (1/gamma) sum x_i^2 / z_i at fixed z (0/0 = 0)."""
    on = z > 0.0
    if not np.any(on):
        return float(y @ y)
    a_on = a[:, on]
    d = 1.0 / (gamma * z[on])
    g = a_on.T @ a_on + np.diag(d)
    x = np.linalg.solve(g, a_on.T @ y)
    return float(np.sum((y - a_on @ x) ** 2) + np.sum(d * x * x))


def _zgrid_min(a, y, gamma, term, feasible, points, lo, hi):
    n = a.shape[1]
    axes = [np.linspace(lo[i], hi[i], points) for i in range(n)]
    best, best_z = math.inf, None
    for z in itertools.product(*axes):
        z = np.array(z)
        if not feasible(z):
            continue
        val = _weighted_ridge_value(a, y, gamma, z) + term(z)
        if val < best:
            best, best_z = val, z
    return best, best_z


def relax_value_grid(a, y, gamma, mu=None, k=None, points=21, rounds=4):
    """Continuous-relaxation optimum by iteratively refined z-grids.

    Handles both penalized (mu) and budgeted (k) versions, n <= 3 only.
    """
    n = a.shape[1]
    if mu is not None:
        term = lambda z: mu * float(np.sum(z))
        feasible = lambda z: True
    else:
        term = lambda z: 0.0
        feasible = lambda z: float(np.sum(z)) <= k + 1e-12
    lo = np.zeros(n)
    hi = np.ones(n)
    best, best_z = _zgrid_min(a, y, gamma, term, feasible, points, lo, hi)
    for _ in range(rounds):
        step = (hi - lo) / (points - 1)
        lo = np.clip(best_z - step, 0.0, 1.0)
        hi = np.clip(best_z + step, 0.0, 1.0)
        best, best_z = _zgrid_min(a, y, gamma, term, feasible, points, lo, hi)
    return best


def enumerate_optima(a, y, gamma, mu=None, k=None, rel_tol=1e-9):
    """All optimal supports by exhaustive enumeration with stacked ridge."""
    n = a.shape[1]
    results = []
    if mu is not None:
        sizes = range(n + 1)
    else:
        sizes = range(min(k, n) + 1)
    for s in sizes:
        for sup in itertools.combinations(range(n), s):
            if s == 0:
                val = float(y @ y)
            else:
                _, val = ridge_ls(a[:, list(sup)], y, gamma)
                if mu is not None:
                    val += mu * s
            results.append((val, sup))
    best = min(v for v, _ in results)
    tol = rel_tol * (1.0 + abs(best))
    sups = sorted(sup for v, sup in results if v <= best + tol)
    return best, sups
