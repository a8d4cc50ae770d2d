"""Degenerate inputs against brute force.

A zero matrix, a zero response, duplicate columns, a matrix far wider
than tall, and entries near the float limits (with gamma rescaled so
the problem is the unit one), each for reg, card with k = 3 and card
with k = n.  Branch and bound must prove the brute-force optimum, and
relax -> round -> screen must fix no variable against any optimal
support.  A nonzero matrix whose squared Frobenius norm underflows
is refused with a clear error instead.
"""

import numpy as np
import pytest

from l0screen import (
    FixState,
    Instance,
    InvalidInputError,
    ProblemSpec,
    branch_and_bound,
    brute_force,
    round_card,
    round_reg,
    screen_card,
    screen_reg,
    solve_cc,
    solve_cr,
)


def _base(m=8, n=6):
    rng = np.random.default_rng(5)
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def _zero_a():
    _, y = _base()
    return np.zeros((8, 6)), y, 1.0


def _zero_y():
    a, _ = _base()
    return a, np.zeros(8), 1.0


def _duplicate_columns():
    a, y = _base()
    a[:, 3] = a[:, 1]
    return a, y, 1.0


def _wide():
    a, y = _base(2, 12)
    return a, y, 1.0


def _scaled(c):
    a, y = _base()
    return c * a, y, 1.0 / (c * c)


CASES = {
    "zero-A": _zero_a,
    "zero-y": _zero_y,
    "duplicate-columns": _duplicate_columns,
    "2x12": _wide,
    "A*1e150": lambda: _scaled(1e150),
    "A*1e-150": lambda: _scaled(1e-150),
}


@pytest.mark.parametrize("variant", ["reg", "card-3", "card-n"])
@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input_matches_brute_force(case, variant):
    a, y, gamma = CASES[case]()
    inst = Instance(a, y)
    if variant == "reg":
        mu = 0.5
        spec = ProblemSpec.reg(gamma, mu)
        sol = solve_cr(inst, gamma, mu)
        rep = screen_reg(inst, gamma, mu, sol, round_reg(inst, gamma, mu, sol).objective)
    else:
        k = 3 if variant == "card-3" else inst.n
        spec = ProblemSpec.card(gamma, k)
        sol = solve_cc(inst, gamma, k)
        rep = screen_card(inst, gamma, k, sol, round_card(inst, gamma, k, sol).objective)

    best, optima = brute_force(inst, spec)
    stats = branch_and_bound(inst, spec)
    assert stats.optimal
    assert abs(stats.best.objective - best.objective) <= 1e-9 * abs(best.objective)

    zero = np.flatnonzero(rep.fixes == FixState.ZERO)
    one = np.flatnonzero(rep.fixes == FixState.ONE)
    for sup in optima:
        assert not set(zero) & set(sup), (sup, zero)
        assert set(one) <= set(sup), (sup, one)


def _lone_subnormal():
    a = np.zeros((8, 6))
    a[3, 2] = 5e-324
    return a


@pytest.mark.parametrize("make_a", [lambda: 1e-160 * _base()[0], _lone_subnormal],
                         ids=["A*1e-160", "lone-5e-324"])
def test_underflowing_matrix_is_refused(make_a):
    with pytest.raises(InvalidInputError, match="the squared Frobenius norm of A underflows; "
                       r"multiply A by a scale s and divide gamma by s\*\*2"):
        Instance(make_a(), _base()[1])
