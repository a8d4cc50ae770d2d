import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0screen import InvalidInputError
from l0screen.relax import BerhuPenalty, berhu_prox, berhu_value

from ._oracles import berhu_value_grid, prox_golden

_params = st.floats(min_value=1e-2, max_value=1e2)


class TestPenaltyValue:
    def test_zero(self):
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_value(pen, 0.0) == 0.0

    def test_linear_branch(self):
        # inside the crossover the value is the linear envelope 2|x|sqrt(mu/gamma)
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_value(pen, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_branch(self):
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_value(pen, 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_vectorized(self):
        pen = BerhuPenalty(1.0, 1.0)
        out = berhu_value(pen, np.array([0.0, 0.5, 2.0, -2.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 5.0, 5.0], atol=1e-12)

    @pytest.mark.parametrize("mu,gamma,x", [(1.0, 1.0, 0.5), (1.0, 1.0, 2.0),
                                            (0.3, 2.0, 0.7), (4.0, 0.5, 1.9)])
    def test_matches_grid_oracle(self, mu, gamma, x):
        pen = BerhuPenalty(mu, gamma)
        assert berhu_value(pen, x) == pytest.approx(
            berhu_value_grid(mu, gamma, x), abs=1e-5)

    @given(mu=_params, gamma=_params, x=st.floats(min_value=-10, max_value=10))
    def test_even_and_nonnegative(self, mu, gamma, x):
        pen = BerhuPenalty(mu, gamma)
        v = berhu_value(pen, x)
        assert v >= 0.0
        assert v == berhu_value(pen, -x)

    @given(mu=_params, gamma=_params,
           x1=st.floats(min_value=-5, max_value=5),
           x2=st.floats(min_value=-5, max_value=5),
           lam=st.floats(min_value=0.0, max_value=1.0))
    def test_convexity(self, mu, gamma, x1, x2, lam):
        pen = BerhuPenalty(mu, gamma)
        mid = lam * x1 + (1 - lam) * x2
        lhs = berhu_value(pen, mid)
        rhs = lam * berhu_value(pen, x1) + (1 - lam) * berhu_value(pen, x2)
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            BerhuPenalty(-1.0, 1.0)
        with pytest.raises(InvalidInputError):
            BerhuPenalty(1.0, 0.0)


class TestProx:
    def test_at_zero(self):
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_prox(pen, 0.5, 0.0) == 0.0

    def test_dead_zone(self):
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_prox(pen, 0.5, 0.5) == 0.0

    def test_quadratic_region(self):
        pen = BerhuPenalty(1.0, 1.0)
        assert berhu_prox(pen, 0.5, 6.0) == pytest.approx(3.0, abs=1e-12)

    def test_odd_symmetry(self):
        pen = BerhuPenalty(2.0, 0.7)
        v = np.linspace(-4, 4, 33)
        out = berhu_prox(pen, 0.3, v)
        np.testing.assert_allclose(out, -berhu_prox(pen, 0.3, -v), atol=0)

    def test_region_boundaries_are_continuous(self):
        pen = BerhuPenalty(1.3, 0.6)
        t = 0.41
        b1 = t * pen.slope
        b2 = pen.crossover * (1.0 + 2.0 * t / pen.gamma)
        for b in (b1, b2):
            lo = berhu_prox(pen, t, b - 1e-9)
            hi = berhu_prox(pen, t, b + 1e-9)
            assert abs(hi - lo) < 1e-6

    @given(mu=_params, gamma=_params,
           t=st.floats(min_value=1e-3, max_value=10),
           v=st.floats(min_value=-20, max_value=20))
    @settings(max_examples=200)
    def test_matches_golden_section(self, mu, gamma, t, v):
        pen = BerhuPenalty(mu, gamma)
        got = berhu_prox(pen, t, v)
        want = prox_golden(mu, gamma, t, v)
        assert got == pytest.approx(want, abs=1e-6)

    @given(mu=_params, gamma=_params, t=st.floats(min_value=1e-3, max_value=10),
           v1=st.floats(min_value=-20, max_value=20),
           v2=st.floats(min_value=-20, max_value=20))
    def test_firmly_nonexpansive(self, mu, gamma, t, v1, v2):
        pen = BerhuPenalty(mu, gamma)
        p1 = berhu_prox(pen, t, v1)
        p2 = berhu_prox(pen, t, v2)
        assert abs(p1 - p2) <= abs(v1 - v2) + 1e-12

    def test_mu_zero_reduces_to_pure_quadratic_shrink(self):
        # no selection cost: the dead zone disappears
        pen = BerhuPenalty(0.0, 2.0)
        v = np.array([-3.0, 0.4, 7.0])
        np.testing.assert_allclose(berhu_prox(pen, 0.5, v), v / 1.5, atol=1e-12)


def test_minimizing_z_recovers_value():
    # value(x) should equal x^2/(gamma z*) + mu z* at z* = min(1, |x|/crossover)
    pen = BerhuPenalty(2.5, 0.8)
    for x in np.linspace(-3, 3, 41):
        z = min(1.0, abs(x) / pen.crossover)
        if z == 0.0:
            direct = 0.0
        else:
            direct = x * x / (pen.gamma * z) + pen.mu * z
        assert berhu_value(pen, x) == pytest.approx(direct, abs=1e-12)
