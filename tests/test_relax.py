import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l0screen import (
    BnBConfig,
    DualCertificate,
    FixState,
    Instance,
    InvalidInputError,
    ProblemSpec,
    SyntheticSpec,
    Variant,
    branch_and_bound,
    brute_force,
    certified_lower_bound_card,
    certified_lower_bound_reg,
    gamma_zero,
    generate,
    exact,
    relax,
    round_card,
    round_reg,
    screen_card,
    screen_reg,
    solve_cc,
    solve_cr,
)
from l0screen.exact import node_relaxation
from l0screen.relax import (
    BerhuPenalty,
    RelaxSolution,
    _berhu_prox_value,
    _berhu_solve,
    _bound_card_terms,
    _bound_reg_terms,
    _ksupport,
    _ksupport_prox,
    _ksupport_solve,
    _lipschitz,
    _relax,
    berhu_prox,
    berhu_value,
    operator_norm_sq,
)

from ._oracles import (berhu_prox_where, ksupport_prox_bisect, ksupport_prox_concat, ksupport_sq_bisect,
                       relax_value_grid, ridge_ls)
from .conftest import random_instance, screen_report

# repeated values and exact zeros exercise the ties and flat segments
_entries = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-10.0, max_value=10.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6),
)
_vectors = st.lists(_entries, min_size=1, max_size=12).map(np.array)


def _gaussian(seed, m, n):
    return np.random.default_rng(seed).standard_normal((m, n))


class TestOperatorNorm:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _gaussian(0, 5, 8), id="0-5-8"),
        pytest.param(lambda: _gaussian(1, 20, 7), id="1-20-7"),
        pytest.param(lambda: _gaussian(2, 3, 3), id="2-3-3"),
        # correlated AR(1) columns, as the benchmark generates them
        pytest.param(lambda: generate(SyntheticSpec(n=2000, m=200, k_true=10, rho=0.5, snr=6, seed=0))[0].a,
                     id="ar1-200-2000"),
    ])
    def test_matches_svd(self, make):
        a = make()
        want = np.linalg.norm(a, 2) ** 2
        assert operator_norm_sq(a) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 0)], ids=["3x4", "4x3", "3x0"])
    def test_zero_matrix(self, shape):
        # 3x0 is what a node with every column fixed out passes
        assert operator_norm_sq(np.zeros(shape)) == 0.0

    def test_auto_step_is_valid_at_500x5000(self):
        # APG's fixed step 1 / L needs L >= 2 ||A||^2, the gradient's Lipschitz constant
        inst, _ = generate(SyntheticSpec(n=5000, m=500, k_true=10, rho=0.5, snr=6, seed=1001))
        assert _lipschitz(inst.a) >= 2 * np.linalg.norm(inst.a, 2) ** 2

    @pytest.mark.parametrize("solve", [
        lambda inst: solve_cr(inst, 1.0, 1.0),
        lambda inst: solve_cc(inst, 1.0, 2),
        lambda inst: branch_and_bound(inst, ProblemSpec.reg(1.0, 1.0)),
    ], ids=["solve_cr", "solve_cc", "branch_and_bound"])
    def test_overflowing_gram_is_a_clear_error(self, solve):
        # Instance rejects the matrix, so no solve meets an overflowing Gram
        with pytest.raises(InvalidInputError, match="overflows.*divide A"):
            solve(Instance(_gaussian(0, 6, 10) * 1e160, np.ones(6)))


    @pytest.mark.parametrize("huge", [slice(None), slice(100, 103)], ids=["every", "three"])
    @pytest.mark.parametrize("solve", [
        lambda inst: solve_cr(inst, 1.0, 1.0),
        lambda inst: solve_cc(inst, 1.0, 2),
        lambda inst: branch_and_bound(inst, ProblemSpec.reg(1.0, 1.0)),
    ], ids=["solve_cr", "solve_cc", "branch_and_bound"])
    def test_overflowing_gram_above_the_start_size_is_a_clear_error(self, solve, huge):
        # the solves form only the Gram of a working set's columns
        a = _gaussian(0, 6, 300)
        a[:, huge] *= 1e160
        with pytest.raises(InvalidInputError, match="overflows.*divide A"):
            solve(Instance(a, np.ones(6)))


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
        sol = solve_cr(inst, gamma, mu, tol=1e-10)
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
        sol = solve_cc(inst, gamma, k, tol=1e-10)
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
        got, _ = _ksupport_prox(w, c, k)
        np.testing.assert_allclose(got, ksupport_prox_bisect(w, c, k), rtol=1e-9, atol=1e-12)

    @given(w=_vectors, c=st.floats(min_value=1e-3, max_value=1e2),
           seed=st.integers(min_value=0, max_value=1000), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_prox_minimizes_its_objective(self, w, c, seed, data):
        k = data.draw(st.integers(min_value=1, max_value=w.size))
        obj = lambda v: 0.5 * float((v - w) @ (v - w)) + 0.5 * c * ksupport_sq_bisect(v, k)[0]
        p, _ = _ksupport_prox(w, c, k)
        best = obj(p)
        rng = np.random.default_rng(seed)
        for scale in (1e-1, 1e-3):
            d = rng.standard_normal(w.size) * scale
            assert best <= obj(p + d) + 1e-9 * (1.0 + abs(best))


    @given(w=_vectors, c=st.floats(min_value=1e-3, max_value=1e2), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_prox_value_is_norm_of_its_output(self, w, c, data):
        # the APG loop prices each iterate with the value the prox returns
        k = data.draw(st.integers(min_value=1, max_value=w.size))
        x, val = _ksupport_prox(w, c, k)
        assert val == pytest.approx(ksupport_sq_bisect(x, k)[0], rel=1e-9, abs=1e-12)


@st.composite
def _prox_pin_cases(draw):
    """``(w, c, k)`` for the bit-for-bit prox check.

    Besides plain vectors with zeros and repeated magnitudes: all-zero
    input, at most ``k`` nonzeros, NaN and inf entries, and flat
    segments at mass ``k`` (``k`` large entries that cap before any
    small one starts to rise), where the slope sum can come out
    rounding-sized instead of 0.
    """
    n = draw(st.integers(1, 200))
    c = 10.0 ** draw(st.floats(-12.0, 6.0))
    kind = draw(st.sampled_from(["plain", "zero", "sparse", "flat", "nonfinite"]))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5]),
                      st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v == 0.0 or abs(v) > 1e-300))
    w = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    k = draw(st.integers(1, n))
    if kind == "zero":
        w[:] = 0.0
    elif kind == "sparse":
        w[draw(st.integers(0, k)):] = 0.0
    elif kind == "flat" and n > k:
        big = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=k, max_size=k)))
        # c / |small| > (1 + c) / min(big): every big entry caps first
        frac = np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n - k, max_size=n - k)))
        w = np.concatenate([big, frac * (c * big.min() / (1.0 + c))])
        w = w[np.array(draw(st.permutations(range(n))))]
    elif kind == "nonfinite":
        for _ in range(draw(st.integers(1, 3))):
            w[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return w, c, k


# a flat segment whose slope sums to 2.2e-16, so the clamp moves beta
@example(case=(np.array([1.86, 1.68, 1.35, 0.02, 0.006]), 0.09253438770778166, 3))
@given(case=_prox_pin_cases())
@settings(max_examples=500, deadline=None)
def test_ksupport_prox_matches_the_concatenating_form_bit_for_bit(case):
    w, c, k = case
    with np.errstate(all="ignore"):  # NaN and inf entries
        x, val = _ksupport_prox(w, c, k)
        want_x, want_val = ksupport_prox_concat(w, c, k)
    assert x.tobytes() == want_x.tobytes()
    assert val == want_val or (math.isnan(val) and math.isnan(want_val))


_berhu_params = st.floats(min_value=1e-3, max_value=1e3)


@given(mu=_berhu_params, gamma=_berhu_params, t=st.floats(min_value=1e-4, max_value=1e2),
       v=st.lists(st.floats(min_value=-100.0, max_value=100.0), max_size=12),
       at=st.lists(st.sampled_from(["zero", "lin"]), max_size=4), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=300, deadline=None)
def test_berhu_prox_value_prices_its_own_output(mu, gamma, t, v, at, sign):
    pen = BerhuPenalty(mu, gamma)
    # entries exactly at the zero and linear branches' upper thresholds
    edge = {"zero": t * pen.slope, "lin": pen.crossover * (1.0 + 2.0 * t / gamma)}
    v = np.array(v + [sign * edge[e] for e in at])
    x, value = _berhu_prox_value(pen, t, v)
    assert x.tobytes() == berhu_prox(pen, t, v).tobytes()  # signed zeros included
    assert value == pytest.approx(float(berhu_value(pen, x).sum()), rel=1e-12, abs=0.0)


@given(mu=_berhu_params, gamma=_berhu_params, t=st.floats(min_value=1e-4, max_value=1e2),
       v=st.lists(st.one_of(st.floats(min_value=-100.0, max_value=100.0),
                            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])), max_size=40),
       at=st.lists(st.sampled_from(["zero", "lin"]), max_size=4), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=300, deadline=None)
def test_berhu_prox_value_matches_the_nested_where_form_bit_for_bit(mu, gamma, t, v, at, sign):
    pen = BerhuPenalty(mu, gamma)
    edge = {"zero": t * pen.slope, "lin": pen.crossover * (1.0 + 2.0 * t / gamma)}
    v = np.array(v + [sign * edge[e] for e in at])
    with np.errstate(all="ignore"):  # NaN and inf entries
        x, value = _berhu_prox_value(pen, t, v)
        want_x, want_value = berhu_prox_where(mu, gamma, t, v)
    assert x.tobytes() == want_x.tobytes()
    assert value == want_value or (math.isnan(value) and math.isnan(want_value))


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
        sol = solve_cr(inst, gamma, mu, tol=1e-10)
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
        sol = solve_cr(inst, gamma, mu, tol=1e-9)
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
        sol = solve_cc(inst, gamma, k, tol=1e-10)
        want = relax_value_grid(inst.a, inst.y, gamma, k=k)
        assert sol.objective <= want + 1e-7
        assert want - sol.objective <= 1e-5 * (1.0 + abs(want))

    @pytest.mark.parametrize("seed", range(8))
    def test_certified_gap(self, seed):
        inst = random_instance(seed, 20, 40)
        rng = np.random.default_rng(300 + seed)
        gamma = float(rng.uniform(0.05, 20.0))
        k = int(rng.integers(1, 15))
        sol = solve_cc(inst, gamma, k, tol=1e-9)
        assert sol.converged
        assert sol.gap <= 1e-9 * (1.0 + abs(sol.objective))
        assert sol.lower_bound <= sol.objective + 1e-12

    def test_budget_respected_by_indicator_mass(self):
        for seed in range(5):
            inst = random_instance(seed, 10, 25)
            sol = solve_cc(inst, 1.5, 4, tol=1e-9)
            assert float(np.sum(sol.z)) <= 4 + 1e-6

    def test_binding_budget_spends_exactly_k(self):
        for seed in range(5):
            inst = random_instance(seed, 10, 25)
            sol = solve_cc(inst, 1.5, 4, tol=1e-9)
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


# the relaxations solve_cr and solve_cc run, with every variable free
_FREE_SPECS = [ProblemSpec.reg(1.0, 0.5), ProblemSpec.card(1.0, 3)]


def _diverged(monkeypatch, spec, n):
    # a step 1 / L far above 1 / (2 ||A||^2) makes APG diverge
    monkeypatch.setattr(relax, "_MAX_ITER", 5000)
    rng = np.random.default_rng(0)
    inst = Instance(rng.standard_normal((8, n)), rng.standard_normal(8))
    with np.errstate(over="ignore", invalid="ignore"):
        return _relax(inst, spec, np.full(n, FixState.FREE, dtype=np.int8), lipschitz=1e-3)


@pytest.mark.parametrize("spec", _FREE_SPECS, ids=["solve_cr", "solve_cc"])
def test_diverged_run_is_not_converged(monkeypatch, spec):
    sol = _diverged(monkeypatch, spec, 12)
    assert not sol.converged
    assert sol.iterations < 5000


@pytest.mark.parametrize("spec", _FREE_SPECS, ids=["solve_cr", "solve_cc"])
def test_diverged_working_set_run_is_not_converged(monkeypatch, spec):
    # more columns than the working set starts with
    sol = _diverged(monkeypatch, spec, 300)
    assert not sol.converged
    assert sol.iterations < 5000


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


@pytest.mark.parametrize("lower,want", [(0.0, 0.0), (-1.0, math.inf)])
def test_gap_of_a_zero_objective(lower, want):
    empty = np.zeros(0)
    sol = RelaxSolution(empty, empty, empty, empty, objective=0.0, lower_bound=lower)
    assert sol.gap == want


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_relaxation_never_exceeds_any_support_value(seed):
    # the relaxed optimum lower-bounds every feasible integer assignment
    rng = np.random.default_rng(seed)
    m, n = 6, 4
    inst = Instance(rng.standard_normal((m, n)), rng.standard_normal(m))
    gamma = float(rng.uniform(0.1, 10.0))
    mu = float(rng.uniform(0.1, 10.0))
    sol = solve_cr(inst, gamma, mu, tol=1e-9)
    sup = [int(i) for i in rng.choice(n, size=2, replace=False)]
    _, val = ridge_ls(inst.a[:, sup], inst.y, gamma)
    assert sol.lower_bound <= val + mu * len(sup) + 1e-7


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, 1.0, -1.0], ids=["nan", "inf", "0", "1", "-1"])
@pytest.mark.parametrize("solve", [
    lambda inst, tol: solve_cr(inst, 1.0, 0.5, tol),
    lambda inst, tol: solve_cc(inst, 1.0, 1, tol=tol),
], ids=["solve_cr", "solve_cc"])
def test_tol_outside_the_open_unit_interval_is_rejected(tiny, solve, tol):
    with pytest.raises(InvalidInputError, match="tol"):
        solve(tiny, tol)


class _CountingMatrix:
    """A matrix that records the vectors it multiplies, transposed or not."""

    def __init__(self, a, calls):
        self.a, self.calls, self.shape = a, calls, a.shape

    @property
    def T(self):
        return _CountingMatrix(self.a.T, self.calls)

    def __matmul__(self, v):
        self.calls.append(v)
        return self.a @ v

    def __getitem__(self, key):
        # a column subset is a new matrix, not a product with this one
        return self.a[key]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.a, dtype=dtype)


def _counted(inst, calls):
    """A copy of ``inst`` whose matrix records its products with vectors."""
    out = copy.copy(inst)
    object.__setattr__(out, "a", _CountingMatrix(inst.a, calls))
    return out


def _apg_case(variant, fixed_in, m, n):
    """A README-grid-like instance, its spec and a fix vector (two fixed in, or none)."""
    inst, _ = generate(SyntheticSpec(n=n, m=m, k_true=5, rho=0.5, snr=6.0, seed=17))
    gamma = gamma_zero(inst, 5)
    if variant == "card":
        spec = ProblemSpec.card(gamma, 5)
    else:
        # prices a variable like the benchmark's reg cells: gamma times the 10th score
        spec = ProblemSpec.reg(gamma, gamma * float(np.sort((inst.a.T @ inst.y) ** 2)[-10]))
    fixes = np.full(n, FixState.FREE, dtype=np.int8)
    if fixed_in:
        fixes[[0, 3]] = FixState.ONE
    return inst, spec, fixes


# 60x120 is the README grid; 100x250 has more than 20,000 entries
_APG_CASES = [
    pytest.param(variant, fixed_in, m, n, id=f"{variant}-{'fixed' if fixed_in else 'free'}-{m}x{n}")
    for variant in ("reg", "card")
    for fixed_in in (False, True)
    for m, n in ((60, 120), (100, 250))
]


def _assert_certificate(inst, spec, fixes, sol):
    """``sol.lower_bound`` is bitwise the certificate of ``sol.epsilon``, and
    ``sol.objective`` prices ``sol.x`` with that residual."""
    x, eps = sol.x, sol.epsilon
    free = fixes == FixState.FREE
    mask = None if free.all() else free
    xo = x[~free]
    if spec.variant is Variant.CARD:
        budget = spec.k - int(np.count_nonzero(~free))
        lb = _bound_card_terms(inst.y, eps, (inst.a.T @ eps) ** 2, spec.gamma, budget, mask)
        penalty = (ksupport_sq_bisect(x[free], budget)[0] + xo @ xo) / spec.gamma
    else:
        pen = BerhuPenalty(mu=spec.mu, gamma=spec.gamma)
        lb = _bound_reg_terms(inst.y, eps, (inst.a.T @ eps) ** 2, spec.gamma, spec.mu, mask)
        penalty = float(np.sum(berhu_value(pen, x[free]))) + xo @ xo / spec.gamma + spec.mu * xo.size
    assert sol.lower_bound == lb
    assert sol.objective == pytest.approx(float(eps @ eps) + penalty, rel=1e-9)


class TestApgLoop:
    @pytest.mark.parametrize("variant,fixed_in,m,n", _APG_CASES)
    def test_returned_iterate_carries_its_own_certificate(self, monkeypatch, variant, fixed_in, m, n):
        inst, spec, fixes = _apg_case(variant, fixed_in, m, n)
        # one round on every column, so eps is y - A x as the loop formed it
        monkeypatch.setattr(relax, "_WS_START", inst.n)
        sol = _relax(inst, spec, fixes)
        assert sol.converged and sol.iterations > 1
        np.testing.assert_array_equal(sol.epsilon, inst.y - inst.a @ sol.x)
        _assert_certificate(inst, spec, fixes, sol)

    @pytest.mark.parametrize("variant,fixed_in,m,n", _APG_CASES)
    def test_working_set_iterate_carries_the_full_certificate(self, monkeypatch, variant, fixed_in, m, n):
        inst, spec, fixes = _apg_case(variant, fixed_in, m, n)
        widths = _count_rounds(monkeypatch, variant)
        sol = _relax(inst, spec, fixes)
        assert widths[0] < inst.n
        assert sol.converged and sol.iterations > 1
        # eps is y - A[:, W] x_W, which is y - A x up to the order of the sums
        np.testing.assert_allclose(sol.epsilon, inst.y - inst.a @ sol.x, rtol=1e-12, atol=0.0)
        _assert_certificate(inst, spec, fixes, sol)

    @pytest.mark.parametrize("variant,fixed_in,m,n", _APG_CASES)
    def test_stops_at_the_first_iterate_whose_gap_passes(self, monkeypatch, variant, fixed_in, m, n):
        inst, spec, fixes = _apg_case(variant, fixed_in, m, n)
        iters = _relax(inst, spec, fixes).iterations
        monkeypatch.setattr(relax, "_MAX_ITER", iters - 1)
        short = _relax(inst, spec, fixes)
        assert not short.converged
        assert short.iterations == iters - 1

    @pytest.mark.parametrize("variant,fixed_in", [
        pytest.param(variant, fixed_in, id=variant + ("-fixed" if fixed_in else ""))
        for fixed_in in (False, True) for variant in ("reg", "card")
    ])
    def test_one_product_pair_per_iteration(self, variant, fixed_in):
        inst, spec, fixes = _apg_case(variant, fixed_in, 60, 120)
        free = fixes == FixState.FREE
        mask = free if fixed_in else None
        calls = []
        a = _CountingMatrix(inst.a, calls)
        lip = _lipschitz(inst.a)
        x0 = np.zeros(inst.n)
        if variant == "card":
            budget = spec.k - int(np.count_nonzero(~free))
            res = _ksupport_solve(a, inst.y, spec.gamma, budget, mask, lip, 1e-8, 50_000, x0)
        else:
            res = _berhu_solve(a, inst.y, spec.gamma, spec.mu, mask, lip, 1e-8, 50_000, x0)
        iters, converged = res[4], res[5]
        assert converged and iters > 1
        assert len(calls) == 2 * iters + 2


def _spy_solves(monkeypatch):
    """Record the size of every linear system the reg finish solves, and
    whether ``np.linalg.solve`` raised on it."""
    inner = np.linalg.solve
    log = []

    def spy(h, b):
        try:
            out = inner(h, b)
        except np.linalg.LinAlgError:
            log.append((h.shape[0], "singular"))
            raise
        log.append((h.shape[0], "solved"))
        return out

    monkeypatch.setattr(np.linalg, "solve", spy)
    return log


def _duplicated(seed):
    """A 4 x 12 instance whose columns are three copies of one 4 x 4 block."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((4, 4))
    return Instance(np.hstack([b, b, b]), rng.standard_normal(4))


def _wide(seed):
    rng = np.random.default_rng(seed)
    return Instance(rng.standard_normal((4, 12)), rng.standard_normal(4))


# (instance, mu) cells at gamma 10 whose iterates pass through patterns
# with more linear-branch columns than rows: the finish's system is then
# rank-deficient, singular outright when columns repeat
_DEGENERATE = [
    pytest.param(_wide, 0.5, id="rank-deficient"),
    pytest.param(_duplicated, 0.5, id="duplicate-columns"),
    pytest.param(_duplicated, 5.0, id="duplicate-columns-high-mu"),
]


class TestExactFinish:
    def test_readme_cell_closes_below_apg_tolerance(self):
        inst, spec, fixes = _apg_case("reg", False, 60, 120)
        sol = _relax(inst, spec, fixes)
        assert sol.converged
        # APG stops at the first gap below 1e-8; only the finish lands this close
        assert sol.gap < 1e-12
        _assert_certificate(inst, spec, fixes, sol)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make,mu", _DEGENERATE)
    def test_degenerate_patterns_stay_certified(self, monkeypatch, make, mu, seed):
        inst = make(seed)
        log = _spy_solves(monkeypatch)
        sol = solve_cr(inst, 10.0, mu)
        assert log, "the finish was never tried"
        assert sol.converged
        assert sol.lower_bound == certified_lower_bound_reg(inst, 10.0, mu, sol.epsilon)
        assert sol.gap <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("make,mu", _DEGENERATE)
    def test_degenerate_node_patterns_stay_certified(self, monkeypatch, make, mu, seed):
        inst = make(seed)
        spec = ProblemSpec.reg(10.0, mu)
        fixes = np.full(inst.n, FixState.FREE, dtype=np.int8)
        fixes[[0, 4]] = FixState.ONE  # column 4 repeats column 0 in the duplicated case
        log = _spy_solves(monkeypatch)
        sol = node_relaxation(inst, spec, fixes)
        assert log, "the finish was never tried"
        assert sol.converged
        assert sol.lower_bound == _full_bound(inst, spec, fixes, sol.epsilon)
        _assert_certificate(inst, spec, fixes, sol)

    def test_duplicate_columns_reach_a_singular_system(self, monkeypatch):
        log = _spy_solves(monkeypatch)
        assert solve_cr(_duplicated(0), 10.0, 0.5).converged
        assert any(kind == "singular" for _, kind in log)

    def test_rank_deficient_systems_are_tried_and_discarded(self, monkeypatch):
        log = _spy_solves(monkeypatch)
        assert solve_cr(_wide(0), 10.0, 0.5).converged
        assert any(size > 4 for size, _ in log)


def _solve(inst, spec):
    if spec.variant is Variant.CARD:
        return solve_cc(inst, spec.gamma, spec.k)
    return solve_cr(inst, spec.gamma, spec.mu)


# None pins the start to n, one round on every column; a start of 4
# certifies its rounds with the full product A' eps
_STARTS = [pytest.param(None, id="one-round"), pytest.param(4, id="rounds")]


class TestScores:
    @pytest.mark.parametrize("start", _STARTS)
    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_scores_are_those_of_the_residual(self, monkeypatch, variant, start):
        inst, spec, _ = _apg_case(variant, False, 60, 120)
        widths = _count_rounds(monkeypatch, variant)
        monkeypatch.setattr(relax, "_WS_START", start or inst.n)
        rel = _solve(inst, spec)
        assert (widths[0] < inst.n) == (start is not None)
        assert rel.scores.tobytes() == ((inst.a.T @ rel.epsilon) ** 2).tobytes()

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_scores_after_several_rounds(self, monkeypatch, variant):
        inst, spec, _ = _ws_case(variant, False, 0, 24)
        widths = _count_rounds(monkeypatch, variant)
        monkeypatch.setattr(relax, "_WS_START", 1)
        rel = _solve(inst, spec)
        assert len(widths) > 1
        assert rel.scores.tobytes() == ((inst.a.T @ rel.epsilon) ** 2).tobytes()

    @pytest.mark.parametrize("start", _STARTS)
    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_node_scores_read_zero_on_fixed_out_columns(self, monkeypatch, variant, start):
        inst, spec, fixes = _apg_case(variant, True, 60, 120)
        fixes[[1, 7, 50]] = FixState.ZERO
        monkeypatch.setattr(relax, "_WS_START", start or inst.n)
        rel = node_relaxation(inst, spec, fixes)
        out = fixes == FixState.ZERO
        want = (inst.a.T @ rel.epsilon) ** 2
        np.testing.assert_allclose(rel.scores[~out], want[~out], rtol=1e-12, atol=0.0)
        assert not rel.scores[out].any()

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_rounds_take_one_full_product_each_and_none_with_y(self, monkeypatch, variant):
        inst, spec, _ = _apg_case(variant, False, 60, 120)
        assert inst.aty.tobytes() == (inst.a.T @ inst.y).tobytes()
        assert not inst.aty.flags.writeable
        widths = _count_rounds(monkeypatch, variant)
        monkeypatch.setattr(relax, "_WS_START", 4)
        calls = []
        rel = _solve(_counted(inst, calls), spec)
        assert rel.converged
        # every round runs on a column subset, a matrix of its own, so
        # each recorded product is a round's certificate A' eps
        assert widths[-1] < inst.n
        assert len(calls) == len(widths)
        assert all(v is not inst.y and not np.array_equal(v, inst.y) for v in calls)

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_round_and_screen_take_no_product(self, variant):
        inst, spec, _ = _apg_case(variant, False, 60, 120)
        rel = _solve(inst, spec)
        calls = []
        counted = _counted(inst, calls)
        if variant == "card":
            inc = round_card(counted, spec.gamma, spec.k, rel)
            rep = screen_card(counted, spec.gamma, spec.k, rel, inc.objective)
        else:
            inc = round_reg(counted, spec.gamma, spec.mu, rel)
            rep = screen_reg(counted, spec.gamma, spec.mu, rel, inc.objective)
        assert calls == []
        assert rep.n_zero + rep.n_one > 0

    @pytest.mark.parametrize("spec", [ProblemSpec.card(0.8, 3), ProblemSpec.reg(0.8, 0.5)],
                             ids=["card", "reg"])
    def test_branch_and_bound_takes_products_only_in_relax(self, monkeypatch, spec):
        inner = exact._relax
        calls, inside = [], []

        def counted_relax(*args, **kwargs):
            before = len(calls)
            out = inner(*args, **kwargs)
            inside.append(len(calls) - before)
            return out

        monkeypatch.setattr(exact, "_relax", counted_relax)
        # the per-tree step size reads A through __array__, a Gram
        # product rather than a product with a residual
        stats = branch_and_bound(_counted(random_instance(41, 9, 14), calls), spec)
        assert stats.optimal and stats.nodes_explored > 1
        assert sum(inside) > 0
        assert len(calls) == sum(inside)


def _ws_case(variant, fixed_in, seed, n):
    """A random 16 x n instance, its spec and a fix vector (column 0 fixed in, or none).

    A weak ridge (16 gamma0) and a low reg price (the 8th largest score)
    spread the relaxation over more columns than a small start holds.
    """
    inst = random_instance(seed, 16, n)
    gamma = 16.0 * gamma_zero(inst, 3)
    if variant == "card":
        spec = ProblemSpec.card(gamma, 3)
    else:
        spec = ProblemSpec.reg(gamma, gamma * float(np.sort((inst.a.T @ inst.y) ** 2)[-8]))
    fixes = np.full(n, FixState.FREE, dtype=np.int8)
    if fixed_in:
        fixes[0] = FixState.ONE
    return inst, spec, fixes


def _full_bound(inst, spec, fixes, eps):
    """The certificate of ``eps`` over every column, recomputed from scratch."""
    free = fixes == FixState.FREE
    card = spec.variant is Variant.CARD
    if free.all():
        if card:
            return certified_lower_bound_card(inst, spec.gamma, spec.k, eps)
        return certified_lower_bound_reg(inst, spec.gamma, spec.mu, eps)
    d = (inst.a.T @ eps) ** 2
    if card:
        budget = spec.k - int(np.count_nonzero(~free))
        return _bound_card_terms(inst.y, eps, d, spec.gamma, budget, free)
    return _bound_reg_terms(inst.y, eps, d, spec.gamma, spec.mu, free)


def _count_rounds(monkeypatch, variant):
    """Patch the variant's inner solver to record the width of each round."""
    name = "_ksupport_solve" if variant == "card" else "_berhu_solve"
    inner = getattr(relax, name)
    widths = []

    def counted(a, *args):
        widths.append(a.shape[1])
        return inner(a, *args)

    monkeypatch.setattr(relax, name, counted)
    return widths


def _safe_fixes(rep, optima):
    """How many variables ``rep`` fixes, after checking every fix against every optimal support."""
    out = set(np.flatnonzero(rep.fixes == FixState.ZERO).tolist())
    into = set(np.flatnonzero(rep.fixes == FixState.ONE).tolist())
    for support in optima:
        assert not out & set(support) and into <= set(support)
    return rep.n_zero + rep.n_one


_WS_CASES = [
    pytest.param(variant, fixed_in, id=f"{variant}-{'fixed' if fixed_in else 'free'}")
    for variant in ("reg", "card")
    for fixed_in in (False, True)
]


class TestWorkingSet:
    @pytest.mark.parametrize("start", [1, 2, 4])
    @pytest.mark.parametrize("variant,fixed_in", _WS_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_rounds_match_the_one_round_solve(self, monkeypatch, start, variant, fixed_in, seed):
        inst, spec, fixes = _ws_case(variant, fixed_in, seed, 24)
        monkeypatch.setattr(relax, "_WS_START", inst.n)
        whole = _relax(inst, spec, fixes)
        widths = _count_rounds(monkeypatch, variant)
        monkeypatch.setattr(relax, "_WS_START", start)
        sol = _relax(inst, spec, fixes)
        assert len(widths) > 1 and widths == sorted(widths) and widths[-1] <= inst.n
        assert sol.converged
        assert sol.lower_bound == _full_bound(inst, spec, fixes, sol.epsilon)
        slack = 1e-8 * (1.0 + abs(whole.objective))
        assert abs(sol.objective - whole.objective) <= slack
        assert abs(sol.lower_bound - whole.lower_bound) <= slack

    @pytest.mark.parametrize("variant,fixed_in", _WS_CASES)
    def test_max_iter_inside_a_round_returns_the_full_bound(self, monkeypatch, variant, fixed_in):
        inst, spec, fixes = _ws_case(variant, fixed_in, 0, 24)
        monkeypatch.setattr(relax, "_WS_START", 1)
        iters = _relax(inst, spec, fixes).iterations
        for max_iter in (1, iters - 1):
            monkeypatch.setattr(relax, "_MAX_ITER", max_iter)
            short = _relax(inst, spec, fixes)
            assert not short.converged
            assert short.iterations == max_iter
            assert short.lower_bound == _full_bound(inst, spec, fixes, short.epsilon)
            assert short.lower_bound <= short.objective

    @pytest.mark.parametrize("variant,n", [("card", 24), ("reg", 14)])
    def test_root_screening_is_safe(self, monkeypatch, variant, n):
        fired = 0
        for seed in range(4):
            inst, spec, _ = _ws_case(variant, False, 10 + seed, n)
            want, optima = brute_force(inst, spec)
            for start in (1, 2, 4):
                monkeypatch.setattr(relax, "_WS_START", start)
                if variant == "card":
                    rel = solve_cc(inst, spec.gamma, spec.k)
                    inc = round_card(inst, spec.gamma, spec.k, rel)
                    screen = lambda zeta: screen_card(inst, spec.gamma, spec.k, rel, zeta)
                else:
                    rel = solve_cr(inst, spec.gamma, spec.mu)
                    inc = round_reg(inst, spec.gamma, spec.mu, rel)
                    screen = lambda zeta: screen_reg(inst, spec.gamma, spec.mu, rel, zeta)
                for zeta in (inc.objective, want.objective):
                    fired += _safe_fixes(screen(zeta), optima)
        assert fired > 0

    @pytest.mark.parametrize("screen_at_root", [True, False], ids=["screen", "noscreen"])
    @pytest.mark.parametrize("variant,n", [("card", 24), ("reg", 14)])
    def test_branch_and_bound_matches_brute_force(self, monkeypatch, variant, n, screen_at_root):
        for seed in range(2):
            inst, spec, _ = _ws_case(variant, False, 20 + seed, n)
            want, optima = brute_force(inst, spec)
            for start in (1, 2, 4):
                monkeypatch.setattr(relax, "_WS_START", start)
                stats = branch_and_bound(inst, spec, BnBConfig(screen_at_root=screen_at_root))
                assert stats.optimal
                assert stats.best.objective == pytest.approx(want.objective, rel=1e-9)
                assert stats.best.support in optima

    @pytest.mark.parametrize("warm_idx", [[5, 9], [5, 9, 13]], ids=["room-0", "room-negative"])
    def test_warm_support_that_fills_the_start_is_the_first_working_set(self, monkeypatch, warm_idx):
        # the warm start's free nonzeros use up the start, so no column
        # of largest |a_i' y| joins: W is the fixed-in and warm columns
        inst, spec, fixes = _ws_case("reg", True, 0, 24)
        x_warm = np.zeros(inst.n)
        x_warm[warm_idx] = 0.5
        mats = []
        inner = relax._berhu_solve

        def recorded(a, *args):
            mats.append(a)
            return inner(a, *args)

        monkeypatch.setattr(relax, "_berhu_solve", recorded)
        monkeypatch.setattr(relax, "_WS_START", 2)
        _relax(inst, spec, fixes, x_warm=x_warm)
        assert mats[0].tobytes() == inst.a[:, [0] + warm_idx].tobytes()

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_default_start_on_the_readme_grid(self, monkeypatch, variant):
        inst, spec, _ = _apg_case(variant, False, 60, 120)
        monkeypatch.setattr(relax, "_WS_START", inst.n)
        whole = _solve(inst, spec)
        monkeypatch.undo()
        widths = _count_rounds(monkeypatch, variant)
        sol = _solve(inst, spec)
        assert widths[0] < inst.n
        assert sol.converged
        assert sol.lower_bound == pytest.approx(whole.lower_bound, rel=1e-8)

    def test_root_screening_is_safe_at_the_default_start(self, monkeypatch):
        # 40 free columns is above the default start; k = 3 keeps brute force small
        fired = 0
        for seed in range(2):
            inst = random_instance(10 + seed, 16, 40)
            gamma = 4.0 * gamma_zero(inst, 3)
            want, optima = brute_force(inst, ProblemSpec.card(gamma, 3))
            widths = _count_rounds(monkeypatch, "card")
            rel = solve_cc(inst, gamma, 3)
            assert widths[0] < inst.n
            inc = round_card(inst, gamma, 3, rel)
            for zeta in (inc.objective, want.objective):
                fired += _safe_fixes(screen_card(inst, gamma, 3, rel, zeta), optima)
            monkeypatch.undo()
        assert fired > 0


def _count_norms(monkeypatch):
    """Patch ``relax.operator_norm_sq`` to record the shape of each matrix it prices."""
    inner = relax.operator_norm_sq
    shapes = []

    def counted(a):
        shapes.append(np.shape(a))
        return inner(a)

    monkeypatch.setattr(relax, "operator_norm_sq", counted)
    return shapes


class TestLipschitzValue:
    @pytest.mark.parametrize("spec", [ProblemSpec.card(0.8, 3), ProblemSpec.reg(0.8, 0.5)],
                             ids=["card", "reg"])
    def test_branch_and_bound_prices_the_root_then_kept_columns(self, monkeypatch, spec):
        inst = random_instance(41, 9, 14)
        # a start below n, so that the root takes its working sets in rounds
        monkeypatch.setattr(relax, "_WS_START", 4)
        shapes = _count_norms(monkeypatch)
        rep = screen_report(inst, spec, _solve(inst, spec))
        root = shapes[:]
        shapes.clear()
        # a fresh instance, so that the root prices its first working set
        stats = branch_and_bound(Instance(inst.a, inst.y), spec)
        assert stats.optimal and stats.nodes_explored > 1
        assert root[0][1] < inst.n and stats.root_fixed == rep.n_zero + rep.n_one
        # the nodes below the root share the norm of the columns it keeps
        assert shapes == root + [(inst.m, inst.n - rep.n_zero)]

    @pytest.mark.parametrize("case,start", [
        pytest.param(lambda v: _ws_case(v, False, 0, 24), 1, id="rounds"),
        pytest.param(lambda v: _apg_case(v, False, 60, 120), None, id="default-start"),
    ])
    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_solve_prices_each_working_set_once(self, monkeypatch, variant, case, start):
        inst, spec, _ = case(variant)
        if start is not None:
            monkeypatch.setattr(relax, "_WS_START", start)
        widths = _count_rounds(monkeypatch, variant)
        shapes = _count_norms(monkeypatch)
        _solve(inst, spec)
        assert widths[0] < inst.n
        assert shapes == [(inst.m, w) for w in widths]

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_closed_form_prices_no_matrix(self, monkeypatch, variant):
        # every variable of solve_cr is free, so its closed form never
        # applies; a reg relaxation with every variable fixed in does
        inst = random_instance(43, 8, 6)
        if variant == "card":
            spec, fixes = ProblemSpec.card(0.8, inst.n), np.full(inst.n, FixState.FREE, dtype=np.int8)
            run = lambda: solve_cc(inst, spec.gamma, spec.k)
        else:
            spec, fixes = ProblemSpec.reg(0.8, 0.5), np.full(inst.n, FixState.ONE, dtype=np.int8)
            run = lambda: _relax(inst, spec, fixes)
        priced = _relax(inst, spec, fixes, lipschitz=_lipschitz(inst.a))
        shapes = _count_norms(monkeypatch)
        sol = run()
        assert shapes == []
        assert sol.iterations == priced.iterations == 0
        assert sol.lower_bound == priced.lower_bound
        np.testing.assert_array_equal(sol.x, priced.x)


def _path(spec, factors=(1.0, 2.0, 4.0, 8.0)):
    """A 4-gamma path from ``spec``: gamma times each factor, and a reg mu with it."""
    if spec.variant is Variant.CARD:
        return [ProblemSpec.card(f * spec.gamma, spec.k) for f in factors]
    return [ProblemSpec.reg(f * spec.gamma, f * spec.mu) for f in factors]


class _SpyDict(dict):
    """A dict that logs every read and write."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def get(self, *args):
        self.log.append("get")
        return super().get(*args)

    def __getitem__(self, key):
        self.log.append("getitem")
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.log.append("set")
        super().__setitem__(key, value)

    def __contains__(self, key):
        self.log.append("contains")
        return super().__contains__(key)


class TestFirstWorkingSetCache:
    """A relaxation with every variable free and no warm start prices its
    first working set once per instance."""

    @pytest.mark.parametrize("case,start", [
        pytest.param(lambda v: _ws_case(v, False, 0, 24), 1, id="rounds"),
        pytest.param(lambda v: _apg_case(v, False, 60, 120), None, id="default-start"),
    ])
    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_a_path_prices_the_first_working_set_once(self, monkeypatch, variant, case, start):
        inst, base, _ = case(variant)
        if start is not None:
            monkeypatch.setattr(relax, "_WS_START", start)
        widths = _count_rounds(monkeypatch, variant)
        shapes = _count_norms(monkeypatch)
        later = []
        for spec in _path(base):
            first = len(widths)
            _solve(inst, spec)
            later += widths[first + 1:]
        assert widths[0] < inst.n and (start is None or later)
        assert shapes == [(inst.m, widths[0])] + [(inst.m, w) for w in later]
        # indices and one float per start size, never a column block
        ((w, lip),) = inst._first_ws.values()
        assert w.dtype.kind == "i" and w.size == widths[0] and isinstance(lip, float)

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_cached_solves_match_a_fresh_instance(self, variant):
        inst, base, _ = _apg_case(variant, False, 60, 120)
        for spec in _path(base):
            got = _solve(inst, spec)
            want = _solve(Instance(inst.a, inst.y), spec)
            for name in ("x", "z", "epsilon", "scores"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert (got.objective, got.lower_bound, got.iterations, got.converged) == \
                (want.objective, want.lower_bound, want.iterations, want.converged)

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_fixes_warm_starts_and_lipschitz_skip_the_cache(self, variant):
        inst, spec, _ = _apg_case(variant, False, 60, 120)
        log = []
        object.__setattr__(inst, "_first_ws", _SpyDict(log))
        free = np.full(inst.n, FixState.FREE, dtype=np.int8)
        warm = _solve(Instance(inst.a, inst.y), spec).x
        for fixed, state in ((0, FixState.ONE), (3, FixState.ZERO)):
            fixes = free.copy()
            fixes[fixed] = state
            node_relaxation(inst, spec, fixes)
        node_relaxation(inst, spec, free, x_warm=warm)
        node_relaxation(inst, spec, free, lipschitz=_lipschitz(inst.a))
        assert log == [] and not inst._first_ws

    @pytest.mark.parametrize("variant", ["reg", "card"])
    def test_branch_and_bound_after_a_solve_reads_the_cache(self, monkeypatch, variant):
        # a README-grid cell whose root branches: k 5 at 4 gamma0
        inst, _ = generate(SyntheticSpec(n=120, m=60, k_true=5, rho=0.5, snr=6.0, seed=1))
        gamma = 4.0 * gamma_zero(inst, 5)
        mu = gamma * float(np.sort(inst.aty ** 2)[-10])
        spec = ProblemSpec.card(gamma, 5) if variant == "card" else ProblemSpec.reg(gamma, mu)
        widths = _count_rounds(monkeypatch, variant)
        shapes = _count_norms(monkeypatch)
        rep = screen_report(inst, spec, _solve(inst, spec))
        rounds = len(widths)
        stats = branch_and_bound(inst, spec)
        assert stats.optimal and stats.nodes_explored > 1
        # the root is the same relaxation, and it reads its first working
        # set and that set's value from the cache the solve filled
        assert widths[rounds:2 * rounds] == widths[:rounds] and widths[0] < inst.n
        later = [(inst.m, w) for w in widths[1:rounds]]
        assert shapes == [(inst.m, widths[0])] + later + later + [(inst.m, inst.n - rep.n_zero)]
