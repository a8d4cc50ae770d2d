import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0screen import (
    DualCertificate,
    Instance,
    InvalidInputError,
    SolverConfig,
    SyntheticSpec,
    certified_lower_bound_card,
    certified_lower_bound_reg,
    dual_from_primal,
    gamma_zero,
    generate,
    operator_norm_sq,
    solve_cc,
    solve_cr,
)
from l0screen.relax import _ksupport, _ksupport_prox

from ._oracles import ksupport_prox_bisect, ksupport_sq_bisect, relax_value_grid, ridge_ls
from .conftest import random_instance

# repeated values and exact zeros exercise the ties and flat segments
_entries = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6),
)
_vectors = st.lists(_entries, min_size=1, max_size=12).map(np.array)


class TestOperatorNorm:
    @pytest.mark.parametrize("seed,m,n", [(0, 5, 8), (1, 20, 7), (2, 3, 3)])
    def test_matches_svd(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        want = np.linalg.norm(a, 2) ** 2
        assert operator_norm_sq(a) == pytest.approx(want, rel=1e-8)

    def test_zero_matrix(self):
        assert operator_norm_sq(np.zeros((3, 4))) == 0.0


class TestDualMap:
    def test_worked_example(self, tiny):
        p = dual_from_primal(1.0, tiny, np.array([1.5, 0.1]))
        np.testing.assert_allclose(p, [3.0, 0.2], atol=1e-12)

    def test_zero(self, tiny):
        np.testing.assert_allclose(dual_from_primal(1.0, tiny, np.zeros(2)), 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_delta_identity(self, seed):
        # delta_i = p_i^2 / (4 gamma^2) for every coordinate
        inst = random_instance(seed, 6, 9)
        rng = np.random.default_rng(40 + seed)
        eps = rng.standard_normal(6)
        gamma = float(rng.uniform(0.2, 5.0))
        p = dual_from_primal(gamma, inst, eps)
        delta = (inst.a.T @ eps) ** 2
        np.testing.assert_allclose(p ** 2 / (4 * gamma ** 2), delta, atol=1e-10)


class TestCertifiedBoundReg:
    def test_worked_example(self, tiny):
        lb = certified_lower_bound_reg(tiny, 1.0, 1.0, np.array([1.5, 0.1]))
        assert lb == pytest.approx(5.51, abs=1e-12)

    def test_zero_candidate(self, tiny):
        assert certified_lower_bound_reg(tiny, 1.0, 1.0, np.zeros(2)) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_any_candidate_stays_below_primal(self, seed):
        # validity for arbitrary dual candidates, not just the solver's
        inst = random_instance(seed, 8, 12)
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 20.0))
        mu = float(rng.uniform(0.05, 20.0))
        sol = solve_cr(inst, gamma, mu, SolverConfig(tol=1e-10))
        for _ in range(5):
            eps = rng.standard_normal(8) * rng.uniform(0.1, 3.0)
            lb = certified_lower_bound_reg(inst, gamma, mu, eps)
            assert lb <= sol.objective + 1e-8 * (1.0 + abs(sol.objective))


class TestCertifiedBoundCard:
    def test_worked_example(self, tiny):
        lb = certified_lower_bound_card(tiny, 1.0, 1, np.array([1.5, 0.1]))
        assert lb == pytest.approx(4.51, abs=1e-12)

    def test_zero_candidate(self, tiny):
        assert certified_lower_bound_card(tiny, 1.0, 1, np.zeros(2)) == 0.0

    def test_k_equals_n_matches_mu_zero_reg_bound(self, tiny):
        # with a full budget the card bound is the reg bound at mu = 0
        eps = np.array([0.7, -0.3])
        card = certified_lower_bound_card(tiny, 1.0, 2, eps)
        delta = (tiny.a.T @ eps) ** 2
        reg_mu0 = 2 * eps @ tiny.y - eps @ eps + np.sum(np.minimum(0.0, -delta))
        assert card == pytest.approx(reg_mu0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_any_candidate_stays_below_primal(self, seed):
        inst = random_instance(seed, 8, 12)
        rng = np.random.default_rng(200 + seed)
        gamma = float(rng.uniform(0.05, 20.0))
        k = int(rng.integers(1, 12))
        sol = solve_cc(inst, gamma, k, SolverConfig(tol=1e-10))
        for _ in range(5):
            eps = rng.standard_normal(8) * rng.uniform(0.1, 3.0)
            lb = certified_lower_bound_card(inst, gamma, k, eps)
            assert lb <= sol.objective + 1e-8 * (1.0 + abs(sol.objective))


class TestKSupport:
    @given(x=_vectors, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_and_indicators_match_oracle(self, x, data):
        k = data.draw(st.integers(min_value=1, max_value=x.size))
        val, z = _ksupport(x, k)
        want, z_want = ksupport_sq_bisect(x, k)
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(z, z_want, atol=1e-9)
        assert np.all((z >= 0.0) & (z <= 1.0))
        if np.count_nonzero(x) > k:
            assert float(z.sum()) == pytest.approx(k, abs=1e-12)

    @pytest.mark.parametrize("x,k", [
        ([3.0, 0.0, -1.0], 2),     # k = nnz
        ([3.0, 0.0, -1.0], 3),     # k = n
        ([0.0, 0.0, 0.0], 1),
        ([2.0, -2.0, 2.0, 2.0], 2),
        ([5.0, 1.0, 1.0, 1.0], 2),
    ])
    def test_cases(self, x, k):
        x = np.array(x)
        val, z = _ksupport(x, k)
        want, z_want = ksupport_sq_bisect(x, k)
        assert val == pytest.approx(want, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(z, z_want, atol=1e-12)
        if np.count_nonzero(x) <= k:
            assert val == pytest.approx(float(x @ x), rel=1e-15)
            np.testing.assert_array_equal(z, x != 0.0)

    @given(w=_vectors, c=st.floats(min_value=1e-3, max_value=1e2), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_prox_matches_oracle(self, w, c, data):
        k = data.draw(st.integers(min_value=1, max_value=w.size))
        got = _ksupport_prox(w, c, k)
        np.testing.assert_allclose(got, ksupport_prox_bisect(w, c, k), rtol=1e-9, atol=1e-12)

    @given(w=_vectors, c=st.floats(min_value=1e-3, max_value=1e2),
           seed=st.integers(min_value=0, max_value=1000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_prox_minimizes_its_objective(self, w, c, seed, data):
        k = data.draw(st.integers(min_value=1, max_value=w.size))
        obj = lambda v: 0.5 * float((v - w) @ (v - w)) + 0.5 * c * ksupport_sq_bisect(v, k)[0]
        p = _ksupport_prox(w, c, k)
        best = obj(p)
        rng = np.random.default_rng(seed)
        for scale in (1e-1, 1e-3):
            d = rng.standard_normal(w.size) * scale
            assert best <= obj(p + d) + 1e-9 * (1.0 + abs(best))


class TestSolveCr:
    def test_worked_example(self, tiny):
        sol = solve_cr(tiny, 1.0, 1.0)
        assert sol.objective == pytest.approx(5.51, abs=1e-6)
        np.testing.assert_allclose(sol.x, [1.5, 0.0], atol=1e-4)
        np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-4)
        assert sol.gap <= 1e-8 * (1.0 + abs(sol.objective))

    def test_large_mu_gives_zero(self, tiny):
        delta = (tiny.a.T @ tiny.y) ** 2
        mu = float(np.max(delta)) + 1.0
        sol = solve_cr(tiny, 1.0, mu)
        np.testing.assert_allclose(sol.x, 0.0, atol=1e-9)
        assert sol.objective == pytest.approx(float(tiny.y @ tiny.y), abs=1e-8)

    def test_zero_response(self):
        inst = Instance(np.eye(3), np.zeros(3))
        sol = solve_cr(inst, 2.0, 0.5)
        np.testing.assert_allclose(sol.x, 0.0)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed,gamma,mu", [
        (0, 1.0, 1.0), (1, 0.3, 2.0), (2, 5.0, 0.2), (3, 0.05, 0.05),
    ])
    def test_matches_zgrid_oracle(self, seed, gamma, mu):
        inst = random_instance(seed, 5, 2)
        sol = solve_cr(inst, gamma, mu, SolverConfig(tol=1e-10))
        want = relax_value_grid(inst.a, inst.y, gamma, mu=mu)
        # the grid can only overshoot the true optimum
        assert sol.objective <= want + 1e-7
        assert want - sol.objective <= 1e-5 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_gap(self, seed):
        inst = random_instance(seed, 20, 40)
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 20.0))
        mu = float(rng.uniform(0.05, 20.0))
        sol = solve_cr(inst, gamma, mu, SolverConfig(tol=1e-9))
        assert sol.converged
        assert sol.gap <= 1e-9 * (1.0 + abs(sol.objective))
        assert sol.lower_bound <= sol.objective + 1e-12


class TestSolveCc:
    def test_worked_example(self, tiny):
        sol = solve_cc(tiny, 1.0, 1)
        assert sol.objective == pytest.approx(4.51, abs=1e-6)
        np.testing.assert_allclose(sol.x, [1.5, 0.0], atol=1e-4)
        assert sol.gap <= 1e-8 * (1.0 + abs(sol.objective))

    def test_full_budget_is_ridge(self, tiny):
        sol = solve_cc(tiny, 1.0, 2)
        _, want = ridge_ls(tiny.a, tiny.y, 1.0)
        assert sol.objective == pytest.approx(want, abs=1e-8)
        np.testing.assert_allclose(sol.x, [1.5, 0.05], atol=1e-6)

    def test_zero_response(self):
        inst = Instance(np.eye(3), np.zeros(3))
        sol = solve_cc(inst, 2.0, 1)
        np.testing.assert_allclose(sol.x, 0.0)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed,gamma,k", [
        (0, 1.0, 1), (1, 0.3, 1), (2, 5.0, 1), (3, 1.0, 2), (7, 0.4, 2),
    ])
    def test_matches_zgrid_oracle(self, seed, gamma, k):
        inst = random_instance(seed, 5, 2)
        sol = solve_cc(inst, gamma, k, SolverConfig(tol=1e-10))
        want = relax_value_grid(inst.a, inst.y, gamma, k=k)
        assert sol.objective <= want + 1e-7
        assert want - sol.objective <= 1e-5 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_gap(self, seed):
        inst = random_instance(seed, 20, 40)
        rng = np.random.default_rng(300 + seed)
        gamma = float(rng.uniform(0.05, 20.0))
        k = int(rng.integers(1, 15))
        sol = solve_cc(inst, gamma, k, SolverConfig(tol=1e-9))
        assert sol.converged
        assert sol.gap <= 1e-9 * (1.0 + abs(sol.objective))
        assert sol.lower_bound <= sol.objective + 1e-12

    def test_budget_respected_by_indicator_mass(self):
        for seed in range(5):
            inst = random_instance(seed, 10, 25)
            sol = solve_cc(inst, 1.5, 4, SolverConfig(tol=1e-9))
            assert float(np.sum(sol.z)) <= 4 + 1e-6

    def test_binding_budget_spends_exactly_k(self):
        for seed in range(5):
            inst = random_instance(seed, 10, 25)
            sol = solve_cc(inst, 1.5, 4, SolverConfig(tol=1e-9))
            assert np.count_nonzero(sol.x) > 4
            assert float(np.sum(sol.z)) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [1005, 1008, 1009])
    def test_default_config_converges_on_readme_cells(self, seed):
        # README bench grid cells whose relaxation needs the certified
        # gap closed right down to the default tolerance
        inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=6.0, seed=seed))
        sol = solve_cc(inst, gamma_zero(inst, 5), 5)
        assert sol.converged
        assert sol.gap <= 1e-8

    def test_k_out_of_range(self, tiny):
        with pytest.raises(InvalidInputError):
            solve_cc(tiny, 1.0, 0)
        with pytest.raises(InvalidInputError):
            solve_cc(tiny, 1.0, 3)


class TestMonotonicity:
    def test_cr_value_decreases_in_gamma(self):
        # a larger gamma weakens the ridge term, so the optimum shrinks
        inst = random_instance(4, 8, 10)
        vals = [solve_cr(inst, g, 1.0).objective for g in (0.1, 1.0, 10.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_cc_value_decreases_in_k(self):
        inst = random_instance(4, 8, 10)
        vals = [solve_cc(inst, 1.0, k).objective for k in (1, 3, 6, 10)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-9

    def test_cc_below_cr_structurally(self, tiny):
        # dropping the per-variable cost can only lower the value
        cc = solve_cc(tiny, 1.0, 2).objective
        cr = solve_cr(tiny, 1.0, 1.0).objective
        assert cc <= cr + 1e-9


class TestDualCertificateContainer:
    def test_fields(self):
        cert = DualCertificate(epsilon_bar=np.array([1.0]), lower_bound=2.0)
        assert cert.lower_bound == 2.0


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_relaxation_never_exceeds_any_support_value(seed):
    # the relaxed optimum lower-bounds every feasible integer assignment
    rng = np.random.default_rng(seed)
    m, n = 6, 4
    inst = Instance(rng.standard_normal((m, n)), rng.standard_normal(m))
    gamma = float(rng.uniform(0.1, 10.0))
    mu = float(rng.uniform(0.1, 10.0))
    sol = solve_cr(inst, gamma, mu, SolverConfig(tol=1e-9))
    sup = [int(i) for i in rng.choice(n, size=2, replace=False)]
    _, val = ridge_ls(inst.a[:, sup], inst.y, gamma)
    assert sol.lower_bound <= val + mu * len(sup) + 1e-7
