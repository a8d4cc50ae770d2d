"""Exact rescalings of the data leave every answer unchanged.

``(A, c y, gamma, c^2 mu)`` and ``(c A, y, gamma / c^2, mu)`` have the
optimal supports of ``(A, y, gamma, mu)``; their objectives are ``c^2``
times the original's and equal to it.  Every gap, prune and screening
test compares values relative to their own size (``problem._within``),
so for ``c`` a power of two, where every float operation scales
exactly, the solvers take the same path bit for bit.  For any other
``c`` they agree to rounding.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0screen import (
    Instance,
    ProblemSpec,
    branch_and_bound,
    round_card,
    round_reg,
    screen_card,
    screen_reg,
    solve_cc,
    solve_cr,
)


def _cell(seed, variant):
    """A small random instance and its parameters: ``(a, y, gamma, mu, k)``."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(4, 13)), int(rng.integers(2, 10))
    a, y = rng.standard_normal((m, n)), rng.standard_normal(m)
    gamma = float(10.0 ** rng.uniform(-1, 1))
    if variant == "reg":
        return a, y, gamma, float(10.0 ** rng.uniform(-1.5, 1)), None
    return a, y, gamma, None, int(rng.integers(1, n + 1))


def _rescale(cell, how, c):
    """The cell rescaled by ``c``, and the factor its objectives scale by."""
    a, y, gamma, mu, k = cell
    if how == "y":
        return (a, c * y, gamma, None if mu is None else c * c * mu, k), c * c
    return (c * a, y, gamma / (c * c), mu, k), 1.0


def _run(cell):
    """relax -> round -> screen, and a default branch and bound, of one cell."""
    a, y, gamma, mu, k = cell
    inst = Instance(a, y)
    if k is None:
        sol = solve_cr(inst, gamma, mu)
        inc = round_reg(inst, gamma, mu, sol)
        rep = screen_reg(inst, gamma, mu, sol, inc.objective)
        spec = ProblemSpec.reg(gamma, mu)
    else:
        sol = solve_cc(inst, gamma, k)
        inc = round_card(inst, gamma, k, sol)
        rep = screen_card(inst, gamma, k, sol, inc.objective)
        spec = ProblemSpec.card(gamma, k)
    return sol, inc, rep, branch_and_bound(inst, spec)


_CELLS = dict(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["reg", "card"]),
              how=st.sampled_from(["y", "A"]))


@given(j=st.integers(-30, 30), **_CELLS)
@settings(max_examples=60, deadline=None)
def test_power_of_two_rescaling_is_bit_identical(seed, variant, how, j):
    cell = _cell(seed, variant)
    scaled, f = _rescale(cell, how, 2.0 ** j)
    sol, inc, rep, bnb = _run(cell)
    sol2, inc2, rep2, bnb2 = _run(scaled)
    assert sol2.iterations == sol.iterations
    assert sol2.converged == sol.converged
    assert inc2.support == inc.support
    assert inc2.objective == f * inc.objective
    np.testing.assert_array_equal(rep2.fixes, rep.fixes)
    assert bnb2.best.support == bnb.best.support
    assert bnb2.best.objective == f * bnb.best.objective
    assert (bnb2.nodes_explored, bnb2.root_fixed, bnb2.optimal) == \
        (bnb.nodes_explored, bnb.root_fixed, bnb.optimal)


@given(log_c=st.floats(-6, 6), **_CELLS)
@example(seed=1, variant="reg", how="y", log_c=-6.0)
@example(seed=1, variant="card", how="y", log_c=-6.0)
@settings(max_examples=60, deadline=None)
def test_any_rescaling_keeps_the_answer(seed, variant, how, log_c):
    # node counts are not compared: an exact reg finish puts every
    # linear-branch score at mu / gamma, so branching among those ties
    # follows last-bit rounding
    cell = _cell(seed, variant)
    scaled, f = _rescale(cell, how, 10.0 ** log_c)
    bnb = _run(cell)[3]
    bnb2 = _run(scaled)[3]
    assert bnb.optimal and bnb2.optimal
    assert bnb2.best.support == bnb.best.support
    want = f * bnb.best.objective
    assert abs(bnb2.best.objective - want) <= 1e-9 * abs(want)


def test_scale_near_the_float_limit_is_exact():
    # at 2**250 this cell's ||A||_F^2 ||y||^2 reads 4.7e303, which
    # Instance accepts; its 1e77 twin overflows (tests/test_problem.py)
    rng = np.random.default_rng(0)
    a, y = rng.standard_normal((8, 10)), rng.standard_normal(8)
    c = 2.0 ** 250
    for spec, big in ((ProblemSpec.card(1.0, 3), ProblemSpec.card(c ** -2, 3)),
                      (ProblemSpec.reg(1.0, 0.5), ProblemSpec.reg(c ** -2, 0.5 * c * c))):
        bnb = branch_and_bound(Instance(a, y), spec)
        bnb2 = branch_and_bound(Instance(c * a, c * y), big)
        assert bnb.optimal and bnb2.optimal
        assert bnb2.best.support == bnb.best.support
        assert bnb2.best.objective == c * c * bnb.best.objective
        assert (bnb2.nodes_explored, bnb2.root_fixed) == (bnb.nodes_explored, bnb.root_fixed)
