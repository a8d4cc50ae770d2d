import numpy as np
import pytest

from l0screen import (
    FixState,
    InvalidInputError,
    ProblemSpec,
    RelaxSolution,
    brute_force,
    round_card,
    round_reg,
    solve_cc,
    solve_cr,
)
from l0screen.heuristics import _node_round

from ._oracles import ridge_ls
from .conftest import random_instance


def _fake_relax(inst, eps, z=None):
    """Wrap a residual, its scores and indicators ``z`` (zero by default)
    so the rounding heuristics can read them."""
    eps = np.asarray(eps, dtype=float)
    z = np.zeros(inst.n) if z is None else np.asarray(z, dtype=float)
    return RelaxSolution(
        x=np.zeros(inst.n), z=z, epsilon=eps, scores=(inst.a.T @ eps) ** 2,
        objective=0.0, lower_bound=0.0,
    )


class TestRoundCard:
    def test_worked_example(self, tiny):
        sol = solve_cc(tiny, 1.0, 1)
        inc = round_card(tiny, 1.0, 1, sol)
        assert inc.support == (0,)
        assert inc.objective == pytest.approx(4.51, abs=1e-9)

    def test_full_budget_is_ridge(self, tiny):
        sol = solve_cc(tiny, 1.0, 2)
        inc = round_card(tiny, 1.0, 2, sol)
        assert inc.support == (0, 1)
        _, want = ridge_ls(tiny.a, tiny.y, 1.0)
        assert inc.objective == pytest.approx(want, abs=1e-9)

    def test_tie_breaks_to_lowest_index(self, tiny):
        r5 = np.sqrt(5.0)
        inc = round_card(tiny, 1.0, 1, _fake_relax(tiny, [r5, r5]))
        assert inc.support == (0,)

    def test_coefficients_solve_restricted_ridge(self):
        inst = random_instance(7, 10, 14)
        sol = solve_cc(inst, 2.0, 4)
        inc = round_card(inst, 2.0, 4, sol)
        assert len(inc.support) == 4
        x_ref, val_ref = ridge_ls(inst.a[:, list(inc.support)], inst.y, 2.0)
        np.testing.assert_allclose(inc.x[list(inc.support)], x_ref, atol=1e-8)
        assert inc.objective == pytest.approx(val_ref, abs=1e-8)

    @pytest.mark.parametrize("k", [2.5, 0, 3])
    def test_bad_k_rejected(self, tiny, k):
        # same check and message as screen_card
        sol = solve_cc(tiny, 1.0, 1)
        with pytest.raises(InvalidInputError, match=r"k must be an integer in \[1, 2\]"):
            round_card(tiny, 1.0, k, sol)


class TestRoundReg:
    def test_worked_example(self, tiny):
        sol = solve_cr(tiny, 1.0, 1.0)
        inc = round_reg(tiny, 1.0, 1.0, sol)
        assert inc.support == (0,)
        assert inc.objective == pytest.approx(5.51, abs=1e-9)

    def test_huge_mu_gives_empty_support(self, tiny):
        mu = 100.0
        sol = solve_cr(tiny, 1.0, mu)
        inc = round_reg(tiny, 1.0, mu, sol)
        assert inc.support == ()
        assert inc.objective == pytest.approx(9.01, abs=1e-12)
        np.testing.assert_array_equal(inc.x, 0.0)

    def test_vanishing_mu_selects_every_scored_column(self, tiny):
        # as mu -> 0 the Berhu crossover sqrt(gamma mu) vanishes, so every
        # column with a nonzero relaxed coefficient reaches z = 1
        sol = solve_cr(tiny, 1.0, 1e-12)
        np.testing.assert_array_equal(sol.z, 1.0)
        inc = round_reg(tiny, 1.0, 1e-12, sol)
        assert inc.support == (0, 1)

    def test_support_is_the_indicators_at_least_one_half(self):
        inst = random_instance(3, 8, 6)
        z = np.array([0.5, 0.5 - 1e-12, 1.0, 0.0, 0.75, 0.25])
        rel = _fake_relax(inst, inst.y, z)
        # the scores (gamma delta_i >= mu) would pick another support; rounding reads z alone
        assert np.flatnonzero(rel.scores >= 0.3).tolist() != [0, 2, 4]
        inc = round_reg(inst, 1.0, 0.3, rel)
        assert inc.support == (0, 2, 4)
        x_ref, val_ref = ridge_ls(inst.a[:, [0, 2, 4]], inst.y, 1.0)
        np.testing.assert_allclose(inc.x[[0, 2, 4]], x_ref, atol=1e-10)
        assert inc.objective == pytest.approx(val_ref + 0.3 * 3, abs=1e-10)

    def test_node_rounding_honors_the_fixes(self):
        inst = random_instance(3, 8, 6)
        z = np.array([0.5, 0.5 - 1e-12, 1.0, 0.0, 0.75, 0.25])
        fixes = np.full(6, FixState.FREE, dtype=np.int8)
        fixes[[3, 5]] = FixState.ONE  # kept whatever their indicators say
        fixes[[2, 4]] = FixState.ZERO  # dropped although z >= 1/2
        inc = _node_round(inst, ProblemSpec.reg(1.0, 0.3), fixes, z)
        assert inc.support == (0, 3, 5)

    def test_upper_bounds_the_optimum(self):
        for seed in range(5):
            inst = random_instance(seed, 8, 10)
            sol = solve_cr(inst, 1.0, 0.8)
            inc = round_reg(inst, 1.0, 0.8, sol)
            best, _ = brute_force(inst, ProblemSpec.reg(1.0, 0.8))
            assert inc.objective >= best.objective - 1e-10
