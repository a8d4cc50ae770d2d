import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l0screen import (
    BnBConfig,
    ConstraintViolationError,
    FixState,
    InfeasibleError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    SyntheticSpec,
    Variant,
    certified_lower_bound_card,
    certified_lower_bound_reg,
    round_card,
    round_reg,
    screen_card,
    screen_reg,
    solve_cc,
    solve_cr,
)
from l0screen.heuristics import _evaluate
from l0screen.problem import _settle, _top, _within, objective_card, objective_reg, ridge_restricted_solve
from l0screen.relax import BerhuPenalty, berhu_prox

from ._oracles import ridge_ls
from .conftest import random_instance


class TestInstance:
    def test_shapes(self, tiny):
        assert tiny.m == 2 and tiny.n == 2

    def test_copies_and_freezes(self):
        a = np.eye(2)
        y = np.array([3.0, 0.1])
        inst = Instance(a, y)
        a[0, 0] = 99.0
        assert inst.a[0, 0] == 1.0
        with pytest.raises(ValueError):
            inst.a[0, 0] = 5.0

    @pytest.mark.parametrize(
        "a, y",
        [
            (np.eye(2), np.zeros(3)),
            (np.zeros((2, 2, 2)), np.zeros(2)),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2)),
            (np.eye(2), np.array([np.inf, 0.0])),
            (np.zeros((0, 2)), np.zeros(0)),
            # a float conversion would keep only the real parts
            (np.array([[1 + 2j, 0], [0, 1j], [1, 1]]), np.array([1.0, 2.0, 0.0])),
            (np.eye(3), np.array([1, 2j, 0])),
        ],
    )
    def test_rejects_bad_input(self, a, y):
        with pytest.raises(InvalidInputError):
            Instance(a, y)

    def test_equality_is_identity_and_an_instance_keys_a_dict(self):
        a, y = np.eye(2), np.array([3.0, 0.1])
        inst, twin = Instance(a, y), Instance(a, y)
        assert inst == inst
        assert (inst == twin) is False and inst != twin
        assert {inst: 1}[inst] == 1 and twin not in {inst: 1}
        assert "aty" not in repr(inst)

    def test_overflowing_response_is_a_clear_error(self):
        # finite entries whose squares overflow would give an infinite objective
        with pytest.raises(InvalidInputError, match="overflows.*divide y"):
            Instance(np.eye(2), np.array([3.0, 0.1]) * 1e160)
        # ||y||^2 = 1.44e308 is finite, and so is its product with
        # ||A||_F^2 = 0.29, but a certificate's 2 eps'y is not: solve_cr
        # would certify an infinite bound
        rng = np.random.default_rng(0)
        a, y = rng.standard_normal((8, 10)) * 2.0**-4, rng.standard_normal(8)
        with pytest.raises(InvalidInputError, match="overflows.*divide y"):
            Instance(a, y * (np.sqrt(1.44e308) / np.linalg.norm(y)))

    def test_overflowing_scores_are_a_clear_error(self):
        # ||A||_F^2 = 7.5e155 and ||y||^2 = 5.8e154 are finite, but the
        # scores (a_i' y)^2 overflow: the solves would certify -inf
        rng = np.random.default_rng(0)
        a, y = rng.standard_normal((8, 10)) * 1e77, rng.standard_normal(8) * 1e77
        with pytest.raises(InvalidInputError, match="overflows.*divide A.*divide y"):
            Instance(a, y)


# small integers make ties and repeated values common; -1.0 is the
# sentinel _relax writes over working-set members
_top_vectors = st.lists(st.integers(-1, 4), min_size=1, max_size=40).map(
    lambda v: np.array(v, dtype=float))


class TestTop:
    @given(_top_vectors)
    def test_same_set_as_a_stable_argsort(self, v):
        for r in range(v.size + 1):
            got = _top(v, r)
            assert got.tolist() == sorted(np.argsort(-v, kind="stable")[:r].tolist())

    def test_ties_go_to_the_lower_index(self):
        v = np.array([1.0, 3.0, 1.0, -1.0, 3.0, 1.0, -1.0])
        assert _top(v, 3).tolist() == [0, 1, 4]
        assert _top(v, 6).tolist() == [0, 1, 2, 3, 4, 5]
        assert _top(v, 0).size == 0 and _top(v, -2).size == 0
        assert _top(v, 9).tolist() == list(range(7))


class TestWithin:
    @pytest.mark.parametrize("c", [1.0, 1e-150, 1e150])
    def test_relative_to_the_upper_value(self, c):
        assert _within(c * (1 - 5e-10), c)
        assert _within(c * 2.0, c)
        assert not _within(c * (1 - 2e-9), c)
        assert _within(0.0, 0.0) and not _within(-1e-300, 0.0)

    @pytest.mark.parametrize("lower,upper", [(1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0),
                                             (1.0, np.nan), (-np.inf, 1.0), (1.0, -np.inf)])
    def test_non_finite_values_never_reach(self, lower, upper):
        assert not _within(lower, upper)


class TestProblemSpec:
    def test_reg(self):
        spec = ProblemSpec.reg(2.0, 0.5)
        assert spec.variant is Variant.REG
        assert spec.mu == 0.5 and spec.k is None

    def test_card(self):
        spec = ProblemSpec.card(2.0, 3)
        assert spec.variant is Variant.CARD
        assert spec.k == 3 and spec.mu is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="reg", gamma=1.0),
            dict(variant="reg", gamma=1.0, mu=-1.0),
            dict(variant="reg", gamma=1.0, mu=1.0, k=2),
            dict(variant="card", gamma=1.0),
            dict(variant="card", gamma=1.0, k=0),
            dict(variant="card", gamma=1.0, k=2, mu=1.0),
            dict(variant="card", gamma=0.0, k=2),
            dict(variant="reg", gamma=-3.0, mu=1.0),
            dict(variant="card", gamma=1.0, k=float("nan")),
            dict(variant="card", gamma=1.0, k=float("inf")),
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(InvalidInputError):
            ProblemSpec(**kwargs)


_NAN, _INF = float("nan"), float("inf")

# every public (gamma, mu) and (gamma, k) entry point, called with a
# solution of the tiny instance's relaxation at gamma = mu = k = 1
_REG_WRAPPERS = {
    "solve_cr": lambda inst, g, mu, rel: solve_cr(inst, g, mu),
    "round_reg": lambda inst, g, mu, rel: round_reg(inst, g, mu, rel),
    "screen_reg": lambda inst, g, mu, rel: screen_reg(inst, g, mu, rel, rel.objective),
    "certified_lower_bound_reg":
        lambda inst, g, mu, rel: certified_lower_bound_reg(inst, g, mu, rel.epsilon),
}
_CARD_WRAPPERS = {
    "solve_cc": lambda inst, g, k, rel: solve_cc(inst, g, k),
    "round_card": lambda inst, g, k, rel: round_card(inst, g, k, rel),
    "screen_card": lambda inst, g, k, rel: screen_card(inst, g, k, rel, rel.objective),
    "certified_lower_bound_card":
        lambda inst, g, k, rel: certified_lower_bound_card(inst, g, k, rel.epsilon),
}
_BAD_GAMMAS = [(g, 1) for g in (_NAN, _INF, 0.0, -1.0)]


class TestWrapperParameters:
    @pytest.mark.parametrize("name", sorted(_REG_WRAPPERS))
    @pytest.mark.parametrize("gamma, mu", _BAD_GAMMAS + [(1.0, v) for v in (_NAN, _INF, 0.0)])
    def test_reg_rejects(self, tiny, name, gamma, mu):
        rel = solve_cr(tiny, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            _REG_WRAPPERS[name](tiny, gamma, mu, rel)

    @pytest.mark.parametrize("name", sorted(_CARD_WRAPPERS))
    @pytest.mark.parametrize("gamma, k", _BAD_GAMMAS + [(1.0, v) for v in (0, 2.5, _NAN, _INF, 3)])
    def test_card_rejects(self, tiny, name, gamma, k):
        rel = solve_cc(tiny, 1.0, 1)
        with pytest.raises(InvalidInputError):
            _CARD_WRAPPERS[name](tiny, gamma, k, rel)


def _synthetic(**kwargs):
    return SyntheticSpec(**{**dict(n=5, m=5, k_true=1, rho=0.5, snr=1.0, seed=0), **kwargs})


# a parameter that takes a number, given None or a string: each call
# with the name its error must carry
_NON_NUMERIC = {
    "SyntheticSpec-rho-None": (lambda inst: _synthetic(rho=None), "rho"),
    "SyntheticSpec-rho-str": (lambda inst: _synthetic(rho="0.5"), "rho"),
    "SyntheticSpec-snr-None": (lambda inst: _synthetic(snr=None), "snr"),
    "SyntheticSpec-snr-str": (lambda inst: _synthetic(snr="x"), "snr"),
    "BnBConfig-time_limit_s-None": (lambda inst: BnBConfig(time_limit_s=None), "time_limit_s"),
    "BnBConfig-node_limit-str": (lambda inst: BnBConfig(node_limit="5"), "node_limit"),
    "ProblemSpec.reg-gamma-None": (lambda inst: ProblemSpec.reg(None, 1.0), "gamma"),
    "ProblemSpec.reg-mu-str": (lambda inst: ProblemSpec.reg(1.0, "x"), "mu"),
    "ProblemSpec.card-gamma-str": (lambda inst: ProblemSpec.card("1", 2), "gamma"),
    "ProblemSpec.card-k-str": (lambda inst: ProblemSpec.card(1.0, "2"), "k"),
    "solve_cr-tol-None": (lambda inst: solve_cr(inst, 1.0, 1.0, tol=None), "tol"),
    "solve_cc-k-None": (lambda inst: solve_cc(inst, 1.0, None), "k"),
    "screen_reg-zeta_bar-None":
        (lambda inst: screen_reg(inst, 1.0, 1.0, solve_cr(inst, 1.0, 1.0), None), "zeta_bar"),
    "ridge_restricted_solve-gamma-None": (lambda inst: ridge_restricted_solve(inst, None, [0]), "gamma"),
    "BerhuPenalty-gamma-str": (lambda inst: BerhuPenalty(mu=1.0, gamma="1"), "gamma"),
    "BerhuPenalty-mu-None": (lambda inst: BerhuPenalty(mu=None, gamma=1.0), "mu"),
    "berhu_prox-t-None": (lambda inst: berhu_prox(BerhuPenalty(mu=1.0, gamma=1.0), None, 1.0), "t"),
}


class TestNonNumericParameters:
    @pytest.mark.parametrize("name", sorted(_NON_NUMERIC))
    def test_rejects_naming_the_parameter(self, tiny, name):
        call, param = _NON_NUMERIC[name]
        with pytest.raises(InvalidInputError, match=rf"\b{param}\b"):
            call(tiny)


# the wrappers that read a residual, each with its variant's relaxation
_RESIDUAL_READERS = {
    **{name: (fn, 1.0, solve_cr) for name, fn in _REG_WRAPPERS.items() if name != "solve_cr"},
    **{name: (fn, 1, solve_cc) for name, fn in _CARD_WRAPPERS.items() if name != "solve_cc"},
}


def _outcome(out):
    if hasattr(out, "fixes"):
        return out.fixes.tolist(), out.lower_bound
    if hasattr(out, "support"):
        return out.support, out.objective
    return out


class TestWrapperResiduals:
    @pytest.mark.parametrize("name", sorted(_RESIDUAL_READERS))
    def test_wrong_length_rejected(self, tiny, name):
        fn, par, relax = _RESIDUAL_READERS[name]
        rel = dataclasses.replace(relax(tiny, 1.0, par), epsilon=np.zeros(tiny.m + 1))
        with pytest.raises(InvalidInputError, match="residual has length 3, expected 2"):
            fn(tiny, 1.0, par, rel)

    @pytest.mark.parametrize("name", sorted(_RESIDUAL_READERS))
    def test_column_residual_reads_as_flat(self, tiny, name):
        fn, par, relax = _RESIDUAL_READERS[name]
        rel = relax(tiny, 1.0, par)
        col = dataclasses.replace(rel, epsilon=rel.epsilon.reshape(-1, 1))
        assert _outcome(fn(tiny, 1.0, par, col)) == _outcome(fn(tiny, 1.0, par, rel))

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("name", sorted(n for n in _RESIDUAL_READERS if n.startswith(("round", "screen"))))
    def test_wrong_length_scores_rejected(self, tiny, name, length):
        # each reader checks the per-variable vector it reads: round_reg
        # rounds the indicators z, the others read the scores
        field, what = ("z", "indicators z") if name == "round_reg" else ("scores", "scores")
        fn, par, relax = _RESIDUAL_READERS[name]
        rel = dataclasses.replace(relax(tiny, 1.0, par), **{field: np.zeros(length)})
        with pytest.raises(InvalidInputError, match=f"{what} have length {length}, expected 2"):
            fn(tiny, 1.0, par, rel)


class TestSettle:
    F, Z, O = FixState.FREE, FixState.ZERO, FixState.ONE

    def test_over_budget_raises(self):
        fixes = np.array([self.O, self.O, self.F], dtype=np.int8)
        with pytest.raises(InfeasibleError, match="2 variables fixed in but k=1"):
            _settle(ProblemSpec.card(1.0, 1), fixes)

    def test_spent_budget_fixes_free_out(self):
        fixes = np.array([self.O, self.F, self.Z, self.O, self.F], dtype=np.int8)
        got = _settle(ProblemSpec.card(1.0, 2), fixes)
        assert got.tolist() == [self.O, self.Z, self.Z, self.O, self.Z]
        assert fixes.tolist() == [self.O, self.F, self.Z, self.O, self.F]  # input kept

    def test_open_budget_unchanged(self):
        fixes = np.array([self.O, self.F, self.Z], dtype=np.int8)
        assert _settle(ProblemSpec.card(1.0, 2), fixes) is fixes

    def test_reg_untouched(self):
        fixes = np.array([self.O, self.O, self.F], dtype=np.int8)
        assert _settle(ProblemSpec.reg(1.0, 1.0), fixes) is fixes


class TestObjectives:
    def test_reg_worked_example(self, tiny):
        spec = ProblemSpec.reg(1.0, 1.0)
        x = np.array([1.5, 0.0])
        assert objective_reg(tiny, spec, [0], x) == pytest.approx(5.51, abs=1e-12)

    def test_reg_empty_support(self, tiny):
        spec = ProblemSpec.reg(1.0, 1.0)
        val = objective_reg(tiny, spec, [], np.zeros(2))
        assert val == pytest.approx(9.01, abs=1e-12)

    def test_reg_two_coordinates(self, tiny):
        spec = ProblemSpec.reg(1.0, 1.0)
        x = np.array([1.5, 0.05])
        assert objective_reg(tiny, spec, [0, 1], x) == pytest.approx(6.505, abs=1e-12)

    def test_card_worked_example(self, tiny):
        spec = ProblemSpec.card(1.0, 1)
        x = np.array([1.5, 0.0])
        assert objective_card(tiny, spec, [0], x) == pytest.approx(4.51, abs=1e-12)

    def test_card_empty(self, tiny):
        spec = ProblemSpec.card(1.0, 1)
        assert objective_card(tiny, spec, [], np.zeros(2)) == pytest.approx(9.01, abs=1e-12)

    def test_card_second_coordinate(self, tiny):
        # (0.1-0.05)^2 + 3^2 residual plus 0.05^2/gamma
        spec = ProblemSpec.card(1.0, 1)
        x = np.array([0.0, 0.05])
        assert objective_card(tiny, spec, [1], x) == pytest.approx(9.005, abs=1e-12)

    def test_card_over_budget(self, tiny):
        spec = ProblemSpec.card(1.0, 1)
        with pytest.raises(ConstraintViolationError):
            objective_card(tiny, spec, [0, 1], np.array([1.5, 0.05]))

    def test_nonzero_off_support_rejected(self, tiny):
        spec = ProblemSpec.reg(1.0, 1.0)
        with pytest.raises(InvalidInputError):
            objective_reg(tiny, spec, [0], np.array([1.5, 0.2]))


class TestRidgeRestricted:
    def test_single_coordinate(self, tiny):
        x, val = ridge_restricted_solve(tiny, 1.0, [0])
        assert x[0] == pytest.approx(1.5, abs=1e-12)
        assert x[1] == 0.0
        assert val == pytest.approx(4.51, abs=1e-12)

    def test_both_coordinates(self, tiny):
        x, val = ridge_restricted_solve(tiny, 1.0, [0, 1])
        np.testing.assert_allclose(x, [1.5, 0.05], atol=1e-12)
        assert val == pytest.approx(4.505, abs=1e-12)

    def test_large_gamma_limit(self):
        # orthonormal columns: the ridge term vanishes and x -> A_S'y
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        y = rng.standard_normal(10)
        inst = Instance(q, y)
        x, _ = ridge_restricted_solve(inst, 1e8, [0, 1, 2])
        np.testing.assert_allclose(x[:3], q.T @ y, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stacked_least_squares(self, seed):
        inst = random_instance(seed, 12, 8)
        rng = np.random.default_rng(100 + seed)
        sup = sorted(rng.choice(8, size=3, replace=False).tolist())
        gamma = float(rng.uniform(0.1, 10.0))
        x, val = ridge_restricted_solve(inst, gamma, sup)
        x_ref, val_ref = ridge_ls(inst.a[:, sup], inst.y, gamma)
        np.testing.assert_allclose(x[sup], x_ref, atol=1e-9)
        assert val == pytest.approx(val_ref, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_empty_support_gives_zeros_and_yy(self, seed):
        inst = random_instance(seed, 12, 8)
        yy = float(inst.y @ inst.y)
        x, val = ridge_restricted_solve(inst, 0.7, [])
        assert x.tobytes() == np.zeros(inst.n).tobytes()
        assert type(val) is float and np.float64(val).tobytes() == np.float64(yy).tobytes()
        # rounding and branch and bound price an empty support through _evaluate
        for spec in (ProblemSpec.card(0.7, 3), ProblemSpec.reg(0.7, 0.5)):
            inc = _evaluate(inst, spec, [])
            assert inc.support == ()
            assert inc.x.tobytes() == np.zeros(inst.n).tobytes()
            assert np.float64(inc.objective).tobytes() == np.float64(yy).tobytes()
