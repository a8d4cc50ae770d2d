import numpy as np
import pytest

from l0screen import (
    FixState,
    InvalidInputError,
    ProblemSpec,
    RelaxSolution,
    SyntheticSpec,
    branch_and_bound,
    brute_force,
    gamma_zero,
    generate,
    round_card,
    round_reg,
    screen_reg,
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

    @pytest.mark.parametrize("fixed_in", [False, True])
    def test_no_indicator_at_one_half_keeps_the_better_of_two_supports(self, fixed_in):
        inst = random_instance(3, 8, 6)
        fixes = np.full(6, FixState.FREE, dtype=np.int8)
        if fixed_in:
            fixes[5] = FixState.ONE
        one = [5] if fixed_in else []
        z = np.array([0.1, 0.4, 0.2, 0.0, 0.4 - 1e-12, 0.3])

        def value(support, mu):
            return ridge_ls(inst.a[:, support], inst.y, 1.0)[1] + mu * len(support)

        # a cheap variable: the largest z (column 1) joins the fixed-in ones
        inc = _node_round(inst, ProblemSpec.reg(1.0, 1e-6), fixes, z)
        assert inc.support == tuple(sorted([1] + one))
        assert inc.objective == pytest.approx(value([1] + one, 1e-6), abs=1e-10)
        assert inc.objective < value(one, 1e-6)
        # a dear one: the fixed-in variables alone are cheaper, and stay
        mu = 2.0 * float(inst.y @ inst.y)
        assert _node_round(inst, ProblemSpec.reg(1.0, mu), fixes, z).support == tuple(one)

    def test_every_indicator_zero_gives_the_fixed_in_support(self):
        inst = random_instance(3, 8, 6)
        fixes = np.full(6, FixState.FREE, dtype=np.int8)
        fixes[2] = FixState.ONE
        inc = _node_round(inst, ProblemSpec.reg(1.0, 1e-6), fixes, np.zeros(6))
        assert inc.support == (2,)

    def test_no_indicator_at_one_half_on_a_hard_cell(self):
        # 60x120, SNR 1, 16 gamma0, a cheap variable: no z reaches 1/2,
        # and the z >= 1/2 rounding alone returned the empty support at
        # ||y||^2, with which the root screen fixed nothing
        inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=1.0, seed=2))
        gamma = 16.0 * gamma_zero(inst, 5)
        mu = gamma * float(np.sort(inst.aty ** 2)[-10])
        rel = solve_cr(inst, gamma, mu)
        assert 0.0 < rel.z.max() < 0.5
        inc = round_reg(inst, gamma, mu, rel)
        best = branch_and_bound(inst, ProblemSpec.reg(gamma, mu)).best
        assert inc.support == best.support == (60,)
        assert inc.objective == pytest.approx(840.4497810738173, rel=1e-9)
        assert inc.objective < float(inst.y @ inst.y)
        rep = screen_reg(inst, gamma, mu, rel, inc.objective)
        assert rep.n_zero + rep.n_one == 112
