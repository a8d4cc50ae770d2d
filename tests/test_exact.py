import numpy as np
import pytest

from l0screen import (
    BnBConfig,
    FixState,
    InfeasibleError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    SizeCapError,
    SyntheticSpec,
    Variant,
    branch_and_bound,
    brute_force,
    gamma_zero,
    generate,
    solve_cc,
    solve_cr,
)
from l0screen import exact
from l0screen.exact import node_relaxation
from l0screen.problem import ridge_restricted_solve

from ._oracles import enumerate_optima, ridge_ls
from .conftest import random_instance


class TestBruteForce:
    def test_reg_worked_example(self, tiny):
        best, optima = brute_force(tiny, ProblemSpec.reg(1.0, 1.0))
        assert best.objective == pytest.approx(5.51, abs=1e-12)
        assert optima == [(0,)]

    def test_zero_response(self):
        inst = Instance(np.eye(3), np.zeros(3))
        best, optima = brute_force(inst, ProblemSpec.reg(1.0, 1.0))
        assert best.objective == 0.0
        assert optima == [()]

    def test_card_full_budget_is_ridge(self, tiny):
        best, _ = brute_force(tiny, ProblemSpec.card(1.0, 2))
        _, want = ridge_ls(tiny.a, tiny.y, 1.0)
        assert best.objective == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_reg_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed, 6, 7)
        gamma = float(10.0 ** rng.uniform(-1, 1))
        mu = float(10.0 ** rng.uniform(-1, 1))
        best, optima = brute_force(inst, ProblemSpec.reg(gamma, mu))
        val, sups = enumerate_optima(inst.a, inst.y, gamma, mu=mu)
        assert best.objective == pytest.approx(val, rel=1e-10)
        assert optima == sups

    @pytest.mark.parametrize("seed", range(8))
    def test_card_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(50 + seed)
        inst = random_instance(seed, 6, 7)
        gamma = float(10.0 ** rng.uniform(-1, 1))
        k = int(rng.integers(1, 7))
        best, optima = brute_force(inst, ProblemSpec.card(gamma, k))
        val, sups = enumerate_optima(inst.a, inst.y, gamma, k=k)
        assert best.objective == pytest.approx(val, rel=1e-10)
        assert optima == sups

    def test_collects_all_tied_optima(self):
        # two identical columns: picking either one gives the same value
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        inst = Instance(a, np.array([2.0, 0.0]))
        _, optima = brute_force(inst, ProblemSpec.card(1.0, 1))
        assert optima == [(0,), (1,)]

    def test_honors_prefixed_variables(self, tiny):
        fixed = np.array([FixState.ZERO, FixState.FREE], dtype=np.int8)
        best, optima = brute_force(tiny, ProblemSpec.reg(1.0, 1.0), fixed=fixed)
        assert all(0 not in sup for sup in optima)
        fixed = np.array([FixState.ONE, FixState.FREE], dtype=np.int8)
        best, optima = brute_force(tiny, ProblemSpec.reg(1.0, 1.0), fixed=fixed)
        assert all(0 in sup for sup in optima)

    def test_size_cap(self):
        inst = random_instance(0, 4, 30)
        with pytest.raises(SizeCapError):
            brute_force(inst, ProblemSpec.reg(1.0, 1.0))

    def test_card_infeasible_prefix(self, tiny):
        fixed = np.array([FixState.ONE, FixState.ONE], dtype=np.int8)
        with pytest.raises(InfeasibleError):
            brute_force(tiny, ProblemSpec.card(1.0, 1), fixed=fixed)


class TestNodeRelaxation:
    @staticmethod
    def _assert_same(rel, want):
        # the public solvers and every node run one relaxation code path
        assert np.array_equal(rel.x, want.x) and np.array_equal(rel.z, want.z)
        assert rel.objective == want.objective and rel.lower_bound == want.lower_bound
        assert rel.iterations == want.iterations and rel.converged == want.converged

    def test_all_free_equals_cr(self, tiny):
        fixes = np.zeros(2, dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.reg(1.0, 1.0), fixes)
        self._assert_same(rel, solve_cr(tiny, 1.0, 1.0))

    def test_all_free_equals_cc(self, tiny):
        fixes = np.zeros(2, dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.card(1.0, 1), fixes)
        self._assert_same(rel, solve_cc(tiny, 1.0, 1))

    @pytest.mark.parametrize("spec", [ProblemSpec.reg(1.0, 1.0), ProblemSpec.card(1.0, 1)],
                             ids=["reg", "card"])
    def test_all_fixed_out_is_the_empty_model(self, tiny, spec):
        fixes = np.full(2, FixState.ZERO, dtype=np.int8)
        rel = node_relaxation(tiny, spec, fixes)
        yy = float(tiny.y @ tiny.y)
        assert rel.objective == yy and rel.lower_bound == yy
        assert not rel.x.any() and not rel.z.any()
        assert rel.converged and rel.iterations == 0

    @pytest.mark.parametrize("spec", [ProblemSpec.reg(0.7, 0.3), ProblemSpec.card(0.7, 5)],
                             ids=["reg", "card"])
    def test_more_fixed_in_than_rows(self, spec):
        # 5 columns in on 3 rows: the closed form takes the m-side solve;
        # reg fixes the rest out, card's spent budget forces them out
        inst = random_instance(7, 3, 8)
        reg = spec.variant is Variant.REG
        rest = FixState.ZERO if reg else FixState.FREE
        fixes = np.array([FixState.ONE] * 5 + [rest] * 3, dtype=np.int8)
        rel = node_relaxation(inst, spec, fixes)
        _, val = ridge_restricted_solve(inst, spec.gamma, range(5))
        want = val + 5 * spec.mu if reg else val
        assert rel.objective == pytest.approx(want, rel=1e-10)
        assert rel.lower_bound == pytest.approx(want, rel=1e-10)
        assert rel.converged and rel.iterations == 0
        assert not rel.x[5:].any() and np.array_equal(rel.z, fixes == FixState.ONE)

    def test_one_and_free_worked_example(self, tiny):
        fixes = np.array([FixState.ONE, FixState.FREE], dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.reg(1.0, 1.0), fixes)
        assert rel.objective == pytest.approx(5.51, abs=1e-6)
        assert rel.gap <= 1e-7 * (1.0 + abs(rel.objective))

    def test_fully_fixed_reg(self, tiny):
        fixes = np.array([FixState.ONE, FixState.ZERO], dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.reg(1.0, 1.0), fixes)
        _, val = ridge_restricted_solve(tiny, 1.0, [0])
        assert rel.objective == pytest.approx(val + 1.0, abs=1e-10)
        assert rel.lower_bound == pytest.approx(rel.objective, abs=1e-7)

    def test_fully_fixed_card(self, tiny):
        fixes = np.array([FixState.ONE, FixState.ZERO], dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.card(1.0, 1), fixes)
        _, val = ridge_restricted_solve(tiny, 1.0, [0])
        assert rel.objective == pytest.approx(val, abs=1e-10)

    def test_card_budget_exhausted_zeroes_free(self, tiny):
        # one variable already in with k=1: the free one cannot enter
        fixes = np.array([FixState.ONE, FixState.FREE], dtype=np.int8)
        rel = node_relaxation(tiny, ProblemSpec.card(1.0, 1), fixes)
        _, val = ridge_restricted_solve(tiny, 1.0, [0])
        assert rel.objective == pytest.approx(val, abs=1e-10)
        assert rel.x[1] == 0.0

    def test_card_over_budget_raises(self, tiny):
        fixes = np.array([FixState.ONE, FixState.ONE], dtype=np.int8)
        with pytest.raises(InfeasibleError):
            node_relaxation(tiny, ProblemSpec.card(1.0, 1), fixes)

    def test_bounds_sandwich_restricted_optimum(self):
        # node bound <= best integer completion consistent with the fixes
        for seed in range(5):
            inst = random_instance(seed, 6, 8)
            spec = ProblemSpec.card(1.3, 3)
            fixes = np.zeros(8, dtype=np.int8)
            fixes[0] = FixState.ONE
            fixes[3] = FixState.ZERO
            rel = node_relaxation(inst, spec, fixes)
            best, _ = brute_force(inst, spec, fixed=fixes)
            assert rel.lower_bound <= best.objective + 1e-7

    def test_card_fixed_in_certified_on_remaining_budget(self):
        for seed in range(5):
            inst = random_instance(seed, 6, 8)
            fixes = np.zeros(8, dtype=np.int8)
            fixes[0] = FixState.ONE
            fixes[3] = FixState.ZERO
            rel = node_relaxation(inst, ProblemSpec.card(1.3, 3), fixes)
            assert rel.converged
            assert rel.gap <= 1e-8
            assert rel.z[0] == 1.0 and rel.z[3] == 0.0 and rel.x[3] == 0.0
            free = fixes == FixState.FREE
            assert float(rel.z[free].sum()) == pytest.approx(2.0, abs=1e-12)


class TestBranchAndBound:
    def test_tiny_solved_at_root(self, tiny):
        stats = branch_and_bound(tiny, ProblemSpec.reg(1.0, 1.0))
        assert stats.optimal
        assert stats.nodes_explored == 1
        assert stats.best.objective == pytest.approx(5.51, abs=1e-9)
        assert stats.best.support == (0,)

    @pytest.mark.parametrize("seed", range(10))
    def test_reg_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed, 8, 12)
        gamma = float(10.0 ** rng.uniform(-1, 1))
        mu = float(10.0 ** rng.uniform(-1, 1))
        spec = ProblemSpec.reg(gamma, mu)
        want, optima = brute_force(inst, spec)
        stats = branch_and_bound(inst, spec)
        assert stats.optimal
        assert stats.best.objective == pytest.approx(want.objective, rel=1e-8)
        assert stats.best.support in optima

    @pytest.mark.parametrize("seed", range(10))
    def test_card_matches_brute_force(self, seed):
        rng = np.random.default_rng(700 + seed)
        inst = random_instance(seed, 8, 12)
        gamma = float(10.0 ** rng.uniform(-1, 1))
        k = int(rng.integers(1, 6))
        spec = ProblemSpec.card(gamma, k)
        want, optima = brute_force(inst, spec)
        stats = branch_and_bound(inst, spec)
        assert stats.optimal
        assert stats.best.objective == pytest.approx(want.objective, rel=1e-8)
        assert stats.best.support in optima

    def test_deterministic_node_count(self):
        inst = random_instance(21, 10, 16)
        spec = ProblemSpec.card(1.0, 4)
        runs = [branch_and_bound(inst, spec, BnBConfig()) for _ in range(2)]
        assert runs[0].nodes_explored == runs[1].nodes_explored
        assert runs[0].best.support == runs[1].best.support

    def test_root_screening_never_hurts(self):
        for seed in (31, 32, 33):
            inst = random_instance(seed, 12, 18)
            spec = ProblemSpec.card(1.0, 4)
            on = branch_and_bound(inst, spec, BnBConfig(screen_at_root=True))
            off = branch_and_bound(inst, spec, BnBConfig(screen_at_root=False))
            assert on.optimal and off.optimal
            assert on.best.objective == pytest.approx(off.best.objective, rel=1e-9)
            assert on.nodes_explored <= off.nodes_explored

    def test_per_node_screening_still_exact(self):
        # nodes below the root carry fixed-in variables, so this checks
        # the shared rounding and rule path with a partial fix vector
        for spec in (ProblemSpec.card(0.8, 3), ProblemSpec.reg(0.8, 0.5)):
            for seed in (41, 42, 43):
                inst = random_instance(seed, 9, 14)
                want, _ = brute_force(inst, spec)
                stats = branch_and_bound(inst, spec, BnBConfig())
                assert stats.optimal
                assert stats.best.objective == pytest.approx(want.objective, rel=1e-8)

    @pytest.mark.parametrize("spec", [ProblemSpec.card(0.8, 3), ProblemSpec.reg(0.8, 0.5)],
                             ids=["card", "reg"])
    def test_screening_runs_below_the_root(self, monkeypatch, spec):
        rules = exact._screen_fixes
        fixed_on_entry = []

        def counted(spec_, fixes, *args):
            fixed_on_entry.append(int(np.count_nonzero(fixes != FixState.FREE)))
            return rules(spec_, fixes, *args)

        monkeypatch.setattr(exact, "_screen_fixes", counted)
        inst = random_instance(41, 9, 14)
        on = branch_and_bound(inst, spec, BnBConfig(screen_at_root=True))
        assert on.optimal and on.nodes_explored > 1
        # the root starts with no fixes; a node below it has branched on one
        assert fixed_on_entry[0] == 0 and len(fixed_on_entry) > 1
        assert min(fixed_on_entry[1:]) > 0
        fixed_on_entry.clear()
        branch_and_bound(inst, spec, BnBConfig(screen_at_root=False))
        assert fixed_on_entry == []

    @pytest.mark.parametrize("shape", [(5, 4), (3, 8)])
    @pytest.mark.parametrize("spec", [ProblemSpec.card(1.0, 2), ProblemSpec.reg(1.0, 0.5)],
                             ids=["card", "reg"])
    def test_zero_matrix_matches_brute_force(self, shape, spec):
        # operator_norm_sq gives a zero Lipschitz constant here; compare
        # objectives only, since every card support of size <= k ties
        inst = Instance(np.zeros(shape), np.linspace(1.0, 2.0, shape[0]))
        want, _ = brute_force(inst, spec)
        stats = branch_and_bound(inst, spec)
        assert stats.optimal
        assert stats.best.objective == pytest.approx(want.objective, rel=1e-12)

    def test_node_limit_degrades_gracefully(self):
        inst = random_instance(44, 10, 20)
        spec = ProblemSpec.card(2.0, 5)
        stats = branch_and_bound(inst, spec, BnBConfig(node_limit=2, screen_at_root=False))
        assert not stats.optimal
        assert stats.best is not None
        assert stats.nodes_explored <= 2

    def test_time_limit_returns_feasible_incumbent(self):
        inst = random_instance(45, 30, 60)
        spec = ProblemSpec.card(1.0, 10)
        stats = branch_and_bound(inst, spec, BnBConfig(time_limit_s=1e-4))
        assert not stats.optimal
        assert stats.best is not None
        assert len(stats.best.support) <= 10

    def test_respects_forced_prefix(self):
        inst = random_instance(46, 8, 10)
        spec = ProblemSpec.card(1.0, 3)
        fixed = np.zeros(10, dtype=np.int8)
        fixed[2] = FixState.ONE
        fixed[5] = FixState.ZERO
        stats = branch_and_bound(inst, spec, fixed=fixed)
        want, _ = brute_force(inst, spec, fixed=fixed)
        assert stats.optimal
        assert 2 in stats.best.support and 5 not in stats.best.support
        assert stats.best.objective == pytest.approx(want.objective, rel=1e-9)

    @pytest.mark.parametrize("screen", [True, False], ids=["screen", "noscreen"])
    def test_card_exactly_k_forced_in_matches_brute_force(self, screen):
        inst = random_instance(47, 8, 10)
        spec = ProblemSpec.card(1.0, 3)
        fixed = np.zeros(10, dtype=np.int8)
        fixed[[1, 4, 8]] = FixState.ONE
        stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen), fixed=fixed)
        want, _ = brute_force(inst, spec, fixed=fixed)
        assert stats.optimal and stats.best.support == want.support == (1, 4, 8)
        assert stats.best.objective == want.objective

    def test_card_forced_over_budget_raises(self, tiny):
        fixed = np.array([FixState.ONE, FixState.ONE], dtype=np.int8)
        with pytest.raises(InfeasibleError):
            branch_and_bound(tiny, ProblemSpec.card(1.0, 1), fixed=fixed)

    def test_anchor_cell_explores_27_nodes(self):
        # the benchmark's anchor: card, 60x120, k 5, gamma = 4 gamma0, data seed 0
        inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=6.0, seed=0))
        spec = ProblemSpec.card(4.0 * gamma_zero(inst, 5), 5)
        stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=False))
        assert stats.optimal
        assert stats.nodes_explored == 27


class _CountingCap(int):
    """An open-node cap that counts the pushes it sends to the depth-first stack.

    ``len(heap) + len(stack) >= cap`` calls this subclass's ``__le__``
    ahead of ``int.__ge__``.
    """

    def __new__(cls, value):
        cap = super().__new__(cls, value)
        cap.stack_pushes = 0
        return cap

    def __le__(self, open_nodes):
        full = int(self) <= open_nodes
        self.stack_pushes += full
        return full


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spec", [ProblemSpec.card(1.0, 3), ProblemSpec.reg(1.0, 0.5)],
                         ids=["card", "reg"])
def test_depth_first_fallback_matches_brute_force(monkeypatch, seed, spec):
    cap = _CountingCap(2)
    monkeypatch.setattr(exact, "_OPEN_NODE_CAP", cap)
    inst = random_instance(500 + seed, 8, 10)
    want, _ = brute_force(inst, spec)
    stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=False))
    assert cap.stack_pushes > 0
    assert stats.optimal
    assert stats.best.objective == pytest.approx(want.objective, rel=1e-9)


class TestBnBConfig:
    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_bad_time_limit_rejected(self, limit):
        with pytest.raises(InvalidInputError, match="time_limit_s"):
            BnBConfig(time_limit_s=limit)

    def test_infinite_time_limit_means_none(self, tiny):
        cfg = BnBConfig(time_limit_s=float("inf"))
        assert branch_and_bound(tiny, ProblemSpec.card(1.0, 1), cfg).optimal


@pytest.mark.parametrize("fixed", [[0], [0, 0, 0], [[0, 0]], [3, 0], [0, -1], [0.0, 2.5]],
                         ids=["short", "long", "2d", "three", "negative", "float"])
@pytest.mark.parametrize("entry", [
    lambda inst, spec, f: node_relaxation(inst, spec, f),
    lambda inst, spec, f: brute_force(inst, spec, fixed=f),
    lambda inst, spec, f: branch_and_bound(inst, spec, fixed=f),
], ids=["node_relaxation", "brute_force", "branch_and_bound"])
def test_bad_fix_vector_rejected(tiny, entry, fixed):
    with pytest.raises(InvalidInputError):
        entry(tiny, ProblemSpec.reg(1.0, 1.0), fixed)
