import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0screen import (
    DualCertificate,
    FixState,
    InconsistentBoundsError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    ScreenReport,
    SyntheticSpec,
    Variant,
    brute_force,
    gamma_zero,
    generate,
    round_card,
    round_reg,
    screen_card,
    screen_reg,
    solve_cc,
    solve_cr,
)
from l0screen.screening import SAFETY_SLACK, _rules_card, _rules_reg, kth_largest_pair

from ._oracles import screening_masks
from .conftest import random_instance


class TestKthLargestPair:
    def test_worked_example(self):
        assert kth_largest_pair(np.array([2.25, 0.01]), 1) == (2.25, 0.01)

    def test_duplicates_count_with_multiplicity(self):
        assert kth_largest_pair(np.array([5.0, 5.0, 1.0]), 1) == (5.0, 5.0)

    def test_k_equals_n_sentinel(self):
        dk, dk1 = kth_largest_pair(np.array([3.0, 7.0]), 2)
        assert dk == 3.0
        assert dk1 == -np.inf

    @pytest.mark.parametrize("seed,n,k", [(0, 100_000, 7), (1, 99_991, 1),
                                          (2, 70_000, 69_999), (3, 1_000, 500),
                                          *[(9, 10_000, k) for k in (1, 2, 5_001, 9_999, 10_000)]])
    def test_matches_sort_oracle(self, seed, n, k):
        rng = np.random.default_rng(seed)
        if seed == 9:
            # 50 distinct values, so every order statistic is tied
            delta = rng.integers(0, 50, size=n).astype(float)
        else:
            delta = rng.exponential(size=n)
            # inject plenty of ties
            delta[rng.integers(0, n, size=n // 10)] = delta[0]
        s = np.sort(delta)[::-1]
        dk, dk1 = kth_largest_pair(delta, k)
        assert dk == s[k - 1]
        assert dk1 == (-np.inf if k == n else s[k])

    @pytest.mark.parametrize("k", [0, 3, -1, 1.5])
    def test_bad_k(self, k):
        with pytest.raises(InvalidInputError):
            kth_largest_pair(np.array([1.0, 2.0]), k)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_k(self, k):
        with pytest.raises(InvalidInputError, match=r"k must be an integer in \[1, 2\]"):
            kth_largest_pair(np.array([1.0, 2.0]), k)

    @given(data=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=300),
           k_frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_property_vs_sort(self, data, k_frac):
        delta = np.array(data)
        k = 1 + int(k_frac * (delta.size - 1))
        s = np.sort(delta)[::-1]
        dk, dk1 = kth_largest_pair(delta, k)
        assert dk == s[k - 1]
        assert dk1 == (-np.inf if k == delta.size else s[k])


def _assert_rules_match_shifted_bounds(inst, spec):
    """Relax, round, and compare the rule masks with the per-variable formulas."""
    if spec.variant is Variant.REG:
        sol = solve_cr(inst, spec.gamma, spec.mu)
        ub = round_reg(inst, spec.gamma, spec.mu, sol).objective
        rules = lambda d: _rules_reg(d, sol.lower_bound, spec.gamma, spec.mu, ub)
    else:
        sol = solve_cc(inst, spec.gamma, spec.k)
        ub = round_card(inst, spec.gamma, spec.k, sol).objective
        rules = lambda d: _rules_card(d, sol.lower_bound, spec.gamma, spec.k, ub)
    delta = (inst.a.T @ sol.epsilon) ** 2
    want = screening_masks(delta, sol.lower_bound, spec.gamma, ub, SAFETY_SLACK, mu=spec.mu, k=spec.k)
    np.testing.assert_array_equal(np.array(rules(delta)), np.array(want))


class TestRulesMatchShiftedBounds:
    """The threshold rules fix exactly what the shifted-bound formulas fix."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_cells(self, seed):
        rng = np.random.default_rng(7_000 + seed)
        n = int(rng.integers(2, 40))
        m = int(rng.integers(4, 31))
        inst = Instance(rng.standard_normal((m, n)),
                        rng.standard_normal(m) * float(rng.uniform(0.5, 3.0)))
        gamma = float(10.0 ** rng.uniform(-2, 2))
        if seed % 2 == 0:
            spec = ProblemSpec.reg(gamma, float(10.0 ** rng.uniform(-2, 2)))
        else:
            spec = ProblemSpec.card(gamma, int(rng.integers(1, n + 1)))
        _assert_rules_match_shifted_bounds(inst, spec)

    @pytest.mark.parametrize("variant", ["card", "reg"])
    @pytest.mark.parametrize("k,gamma_exp", [(5, 0), (5, 2), (10, 0), (10, 2)])
    def test_readme_grid_cells(self, variant, k, gamma_exp):
        inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=k, rho=0.5, snr=6.0,
                                         seed=k + gamma_exp))
        gamma = 2.0 ** gamma_exp * gamma_zero(inst, k)
        if variant == "card":
            spec = ProblemSpec.card(gamma, k)
        else:
            spec = ProblemSpec.reg(gamma, gamma * float(np.sort((inst.a.T @ inst.y) ** 2)[-2 * k]))
        _assert_rules_match_shifted_bounds(inst, spec)


@given(data=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200),
       k_frac=st.floats(min_value=0.0, max_value=1.0),
       lower=st.floats(min_value=-1e3, max_value=1e3),
       offset=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3),
                        st.floats(min_value=-1e-6, max_value=0.0)),
       gamma=st.floats(min_value=1e-2, max_value=1e2),
       mu=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_rules_never_fix_both_ways(data, k_frac, lower, offset, gamma, mu):
    delta = np.array(data)
    k = 1 + int(k_frac * (delta.size - 1))
    zeta_bar = lower + offset
    zero, one = _rules_reg(delta, lower, gamma, mu, zeta_bar)
    assert not np.any(zero & one)
    zero, one = _rules_card(delta, lower, gamma, k, zeta_bar)
    assert not np.any(zero & one)
    assert np.count_nonzero(one) <= k


def test_scores_within_the_slack_stay_free():
    # with zeta_bar = L, scores 2e-10 off a pivot lie inside SAFETY_SLACK
    near = np.array([1.0 - 2e-10, 1.0 + 2e-10])
    assert not np.any(_rules_reg(near, 0.0, 1.0, 1.0, 0.0))
    assert not np.any(_rules_card(near, 0.0, 1.0, 1, 0.0))


@pytest.mark.parametrize("screen,param", [(screen_reg, 1.0), (screen_card, 1)],
                         ids=["reg", "card"])
def test_nan_lower_bound_fixes_nothing(tiny, screen, param):
    cert = DualCertificate(epsilon_bar=np.array([1.5, 0.1]), lower_bound=np.nan)
    assert screen(tiny, 1.0, param, cert, 5.51).n_free == 2

def _minus_inf_instance():
    rng = np.random.default_rng(3)
    return Instance(rng.standard_normal((10, 15)), 3 * rng.standard_normal(10))


class TestScreenReg:
    def test_worked_example_fixes_everything(self, tiny):
        sol = solve_cr(tiny, 1.0, 1.0, tol=1e-10)
        rep = screen_reg(tiny, 1.0, 1.0, sol, 5.51)
        assert rep.fixes[0] == FixState.ONE
        assert rep.fixes[1] == FixState.ZERO
        assert (rep.n_zero, rep.n_one, rep.n_free) == (1, 1, 0)

    def test_infinite_upper_bound_fixes_nothing(self, tiny):
        sol = solve_cr(tiny, 1.0, 1.0)
        rep = screen_reg(tiny, 1.0, 1.0, sol, np.inf)
        assert rep.n_free == 2

    def test_boundary_stays_free(self, tiny):
        # mu - gamma delta_0 = 0 exactly and L = zeta_bar: strictness matters
        cert = DualCertificate(epsilon_bar=np.array([1.0, 0.1]), lower_bound=5.01)
        rep = screen_reg(tiny, 1.0, 1.0, cert, 5.01)
        assert rep.fixes[0] == FixState.FREE

    def test_accepts_plain_certificate(self, tiny):
        cert = DualCertificate(epsilon_bar=np.array([1.5, 0.1]), lower_bound=5.51)
        rep = screen_reg(tiny, 1.0, 1.0, cert, 5.51)
        assert (rep.fixes == [FixState.ONE, FixState.ZERO]).all()

    def test_inconsistent_bounds_raise(self, tiny):
        cert = DualCertificate(epsilon_bar=np.zeros(2), lower_bound=10.0)
        with pytest.raises(InconsistentBoundsError):
            screen_reg(tiny, 1.0, 1.0, cert, 5.0)

    def test_nan_upper_bound_rejected(self, tiny):
        cert = DualCertificate(epsilon_bar=np.zeros(2), lower_bound=0.0)
        with pytest.raises(InvalidInputError):
            screen_reg(tiny, 1.0, 1.0, cert, np.nan)

    def test_minus_infinite_upper_bound_rejected(self):
        inst = _minus_inf_instance()
        with pytest.raises(InconsistentBoundsError):
            screen_reg(inst, 2.0, 0.5, solve_cr(inst, 2.0, 0.5), -np.inf)

    def test_tighter_upper_bound_fixes_at_least_as_much(self):
        inst = random_instance(3, 10, 15)
        sol = solve_cr(inst, 2.0, 0.5)
        loose = round_reg(inst, 2.0, 0.5, sol).objective
        fixed_loose = screen_reg(inst, 2.0, 0.5, sol, loose).fixes
        fixed_tight = screen_reg(inst, 2.0, 0.5, sol, loose * 0.999).fixes
        loose_set = fixed_loose != FixState.FREE
        tight_set = fixed_tight != FixState.FREE
        assert np.all(loose_set <= tight_set)


class TestScreenCard:
    def test_worked_example_fixes_everything(self, tiny):
        sol = solve_cc(tiny, 1.0, 1, tol=1e-10)
        rep = screen_card(tiny, 1.0, 1, sol, 4.51)
        assert rep.fixes[0] == FixState.ONE
        assert rep.fixes[1] == FixState.ZERO

    def test_equal_scores_leave_all_free(self, tiny):
        cert = DualCertificate(epsilon_bar=np.array([1.0, 1.0]), lower_bound=3.2)
        rep = screen_card(tiny, 1.0, 1, cert, 3.2)
        assert rep.n_free == 2

    def test_infinite_upper_bound_fixes_nothing(self, tiny):
        sol = solve_cc(tiny, 1.0, 1)
        rep = screen_card(tiny, 1.0, 1, sol, np.inf)
        assert rep.n_free == 2

    def test_full_budget_never_fixes_out(self, tiny):
        sol = solve_cc(tiny, 1.0, 2, tol=1e-10)
        rep = screen_card(tiny, 1.0, 2, sol, sol.objective)
        assert rep.n_zero == 0
        # the whole-support optimum keeps both columns, so fixing in is safe
        assert rep.n_one == 2

    def test_full_budget_zero_response_fixes_nothing_in(self):
        # with y = 0 the empty support is optimal; no variable may be forced
        inst = Instance(np.eye(3), np.zeros(3))
        cert = DualCertificate(epsilon_bar=np.zeros(3), lower_bound=0.0)
        rep = screen_card(inst, 1.0, 3, cert, 0.0)
        assert rep.n_one == 0 and rep.n_zero == 0

    def test_never_fixes_in_more_than_k(self):
        for seed in range(5):
            inst = random_instance(seed, 8, 12)
            k = 2
            sol = solve_cc(inst, 5.0, k)
            ub = round_card(inst, 5.0, k, sol).objective
            rep = screen_card(inst, 5.0, k, sol, ub)
            assert rep.n_one <= k

    def test_inconsistent_bounds_raise(self, tiny):
        cert = DualCertificate(epsilon_bar=np.zeros(2), lower_bound=10.0)
        with pytest.raises(InconsistentBoundsError):
            screen_card(tiny, 1.0, 1, cert, 5.0)

    def test_minus_infinite_upper_bound_rejected(self):
        inst = _minus_inf_instance()
        with pytest.raises(InconsistentBoundsError):
            screen_card(inst, 2.0, 3, solve_cc(inst, 2.0, 3), -np.inf)


class TestSafetySmall:
    """Every fix must be consistent with every optimal support."""

    @pytest.mark.parametrize("seed", range(12))
    def test_reg(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed, 7, 9)
        gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
        mu = float(10.0 ** rng.uniform(-1.5, 1.5))
        spec = ProblemSpec.reg(gamma, mu)
        sol = solve_cr(inst, gamma, mu)
        ub = round_reg(inst, gamma, mu, sol).objective
        rep = screen_reg(inst, gamma, mu, sol, ub)
        _, optima = brute_force(inst, spec)
        for sup in optima:
            for i in np.flatnonzero(rep.fixes == FixState.ZERO):
                assert i not in sup
            for i in np.flatnonzero(rep.fixes == FixState.ONE):
                assert i in sup

    @pytest.mark.parametrize("seed", range(12))
    def test_card(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(seed, 7, 9)
        gamma = float(10.0 ** rng.uniform(-1.5, 1.5))
        k = int(rng.integers(1, 9))
        spec = ProblemSpec.card(gamma, k)
        sol = solve_cc(inst, gamma, k)
        ub = round_card(inst, gamma, k, sol).objective
        rep = screen_card(inst, gamma, k, sol, ub)
        _, optima = brute_force(inst, spec)
        for sup in optima:
            for i in np.flatnonzero(rep.fixes == FixState.ZERO):
                assert i not in sup
            for i in np.flatnonzero(rep.fixes == FixState.ONE):
                assert i in sup


def test_report_counts_must_add_up():
    with pytest.raises(InvalidInputError):
        ScreenReport(fixes=np.zeros(3, dtype=np.int8), n_zero=1, n_one=1,
                     n_free=3, lower_bound=0.0, upper_bound=1.0)
