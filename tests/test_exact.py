import heapq

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
from l0screen.problem import _settle, ridge_restricted_solve
from l0screen.relax import _lipschitz

from ._oracles import enumerate_optima, ridge_ls
from .conftest import random_instance, screen_report


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
        want, _ = brute_force(inst, spec, fixed=fixed)
        for screen in (True, False):
            stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen), fixed=fixed)
            assert stats.optimal and stats.nodes_explored > 1, screen
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

    @pytest.mark.parametrize("screen", [True, False], ids=["screen", "noscreen"])
    @pytest.mark.parametrize("variant", ["card", "reg"])
    def test_node_limit_at_the_full_count_is_optimal(self, variant, screen):
        # with the limit at the unlimited run's count, every node left
        # open is pruned at pop, so nothing stopped the search early
        for seed in range(30):
            inst, _ = generate(SyntheticSpec(n=30, m=20, k_true=4, rho=0.5, snr=3.0, seed=seed))
            gamma = 4.0 * gamma_zero(inst, 4)
            mu = gamma * float(np.sort(inst.aty ** 2)[-8])
            spec = ProblemSpec.card(gamma, 4) if variant == "card" else ProblemSpec.reg(gamma, mu)
            full = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen))
            cut = branch_and_bound(inst, spec, BnBConfig(node_limit=full.nodes_explored,
                                                         screen_at_root=screen))
            assert full.optimal and cut.optimal, seed
            assert cut.nodes_explored == full.nodes_explored
            assert cut.best.support == full.best.support


def _grid_cell(variant, seed, k, factor):
    """A 60x120 cell of the README grid at ``factor`` gamma0: card, or reg
    pricing a variable at gamma times the 2k-th largest ``(a_i'y)^2``."""
    inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=k, rho=0.5, snr=6.0, seed=seed))
    gamma = factor * gamma_zero(inst, k)
    if variant == "card":
        return inst, ProblemSpec.card(gamma, k)
    return inst, ProblemSpec.reg(gamma, gamma * float(np.sort(inst.aty ** 2)[-2 * k]))


def _spy_relaxations(monkeypatch):
    """Record ``(fixes, lipschitz, relaxation)`` of every node relaxation branch and bound runs."""
    inner = exact.node_relaxation
    calls = []

    def spy(inst, spec, fixes, x_warm=None, lipschitz=None):
        rel = inner(inst, spec, fixes, x_warm=x_warm, lipschitz=lipschitz)
        calls.append((fixes, lipschitz, rel))
        return rel

    monkeypatch.setattr(exact, "node_relaxation", spy)
    return calls


class TestRootAndTree:
    """The root of ``branch_and_bound`` is the relax -> round -> screen
    pipeline of the public functions; the tree below it steps with one
    Lipschitz value, that of the columns the root keeps."""

    @pytest.mark.parametrize("cell", [(1, 5, 4.0), (0, 10, 4.0), (2, 10, 1.0)],
                             ids=["k5-4g0-seed1", "k10-4g0-seed0", "k10-g0-seed2"])
    @pytest.mark.parametrize("variant", ["card", "reg"])
    def test_root_is_the_screen_pipeline(self, monkeypatch, variant, cell):
        inst, spec = _grid_cell(variant, *cell)
        calls = _spy_relaxations(monkeypatch)
        stats = branch_and_bound(inst, spec)
        assert stats.optimal and stats.nodes_explored > 1
        # a fresh instance, so the pipeline prices its own first working set
        fresh = Instance(inst.a, inst.y)
        if spec.variant is Variant.CARD:
            rel = solve_cc(fresh, spec.gamma, spec.k)
        else:
            rel = solve_cr(fresh, spec.gamma, spec.mu)
        rep = screen_report(fresh, spec, rel)
        root = calls[0][2]
        assert root.x.tobytes() == rel.x.tobytes()
        assert (root.lower_bound, root.iterations) == (rel.lower_bound, rel.iterations)
        assert stats.root_fixed == rep.n_zero + rep.n_one

    @pytest.mark.parametrize("screen", [True, False], ids=["screen", "noscreen"])
    @pytest.mark.parametrize("variant", ["card", "reg"])
    def test_tree_steps_within_the_kept_columns(self, monkeypatch, variant, screen):
        inst, spec = _grid_cell(variant, 1, 5, 4.0)
        calls = _spy_relaxations(monkeypatch)
        stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen))
        assert stats.optimal
        (_, root_lip, _), *below = calls
        assert root_lip is None and below
        assert len({lip for _, lip, _ in below}) == 1
        for fixes, lip, _ in below:
            assert lip >= _lipschitz(inst.a[:, _settle(spec, fixes) != FixState.ZERO])


class TestExpand:
    """``exact._expand``, the work ``branch_and_bound`` does at one node."""

    @staticmethod
    def quickstart():
        # the README quickstart cell: screening settles it at the root
        rng = np.random.default_rng(0)
        a = rng.standard_normal((60, 120))
        x_true = np.zeros(120)
        x_true[:4] = 1.0
        inst = Instance(a, a @ x_true + 0.1 * rng.standard_normal(60))
        return inst, ProblemSpec.card(0.05, 4)

    @staticmethod
    def expand(inst, spec, zeta_bar=np.inf, screen=True):
        # the root: every variable free, no warm start, no inherited bound
        # and no Lipschitz value
        root = np.full(inst.n, FixState.FREE, dtype=np.int8)
        return exact._expand(inst, spec, root, None, -np.inf, zeta_bar, None, screen)

    def test_pruned_node_has_no_children(self):
        inst, spec = self.quickstart()
        best = branch_and_bound(inst, spec).best
        cand, screened, children = self.expand(inst, spec, zeta_bar=0.5 * best.objective)
        assert children == () and screened == 0
        assert cand.support == best.support

    @pytest.mark.parametrize("spec", [ProblemSpec.card(0.8, 3), ProblemSpec.reg(0.8, 0.5)],
                             ids=["card", "reg"])
    def test_branches_on_the_free_variable_of_largest_score(self, spec):
        inst = random_instance(41, 9, 14)
        root = np.full(inst.n, FixState.FREE, dtype=np.int8)
        rel = node_relaxation(inst, spec, root)
        _, screened, children = self.expand(inst, spec)
        assert len(children) == 2
        (bound_in, fix_in, warm_in), (bound_out, fix_out, warm_out) = children
        assert bound_in == bound_out == rel.lower_bound
        # card relaxations start from zero, so card children carry no warm start
        if spec.variant is Variant.CARD:
            assert warm_in is None and warm_out is None
        else:
            assert np.array_equal(warm_in, rel.x) and np.array_equal(warm_out, rel.x)
        (j,) = np.flatnonzero(fix_in != fix_out)
        assert fix_in[j] == FixState.ONE and fix_out[j] == FixState.ZERO
        # the variables free after screening are the children's free ones and j
        free = np.flatnonzero(fix_out == FixState.FREE)
        assert np.count_nonzero(fix_out != root) == screened + 1
        assert rel.scores[j] >= rel.scores[free].max()

    def test_leaf_has_no_children(self):
        inst, spec = self.quickstart()
        cand, screened, children = self.expand(inst, spec)
        assert children == () and screened == inst.n
        assert cand.support == (0, 1, 2, 3)

    def test_leaf_below_the_rounding_and_incumbent_wins(self, monkeypatch):
        inst, spec = self.quickstart()
        best = branch_and_bound(inst, spec).best
        worse = exact._evaluate(inst, spec, np.array([4, 5, 6, 7]))
        assert worse.objective > best.objective
        monkeypatch.setattr(exact, "_node_round", lambda *args: worse)
        cand, screened, children = self.expand(inst, spec, zeta_bar=1.000001 * best.objective)
        assert children == () and screened == inst.n
        assert cand.support == (0, 1, 2, 3) and cand.objective == best.objective
        # without screening the node branches and keeps the rounding
        cand, _, children = self.expand(inst, spec, zeta_bar=1.000001 * best.objective, screen=False)
        assert len(children) == 2 and cand is worse


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spec,screen", [
    (ProblemSpec.card(1.0, 3), False), (ProblemSpec.reg(1.0, 0.5), False),
    (ProblemSpec.card(1.0, 3), True), (ProblemSpec.reg(1.0, 0.5), True),
], ids=["card", "reg", "card-screen", "reg-screen"])
def test_depth_first_fallback_matches_brute_force(monkeypatch, seed, spec, screen):
    """The search needs no depth-first fallback: best first alone is
    exact, and its heap, seen after every push, holds at most
    ``nodes_explored + 1`` nodes, so at most ``node_limit + 1``."""
    sizes = []
    push = heapq.heappush

    def counted_push(heap, entry):
        push(heap, entry)
        sizes.append(len(heap))

    monkeypatch.setattr(heapq, "heappush", counted_push)
    inst = random_instance(500 + seed, 8, 10)

    def run(**limits):
        sizes.clear()
        stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen, **limits))
        return stats, max(sizes, default=1)

    want, _ = brute_force(inst, spec)
    stats, peak = run()
    assert stats.optimal
    assert stats.best.objective == pytest.approx(want.objective, rel=1e-9)
    assert 1 < peak <= stats.nodes_explored + 1
    for limit in (1, 2, 5):
        cut, peak = run(node_limit=limit)
        assert peak <= cut.nodes_explored + 1 <= limit + 1


class TestBnBConfig:
    @pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
    def test_bad_time_limit_rejected(self, limit):
        with pytest.raises(InvalidInputError, match="time_limit_s"):
            BnBConfig(time_limit_s=limit)

    @pytest.mark.parametrize("limit", [0, -1, 2.5, float("nan"), float("inf")])
    def test_bad_node_limit_rejected(self, limit):
        with pytest.raises(InvalidInputError, match="node_limit"):
            BnBConfig(node_limit=limit)

    def test_integral_node_limit_stored_as_int(self):
        limit = BnBConfig(node_limit=5.0).node_limit
        assert limit == 5 and type(limit) is int

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
