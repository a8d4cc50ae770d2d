import numpy as np
import pytest

from l0screen import Instance, Variant, round_card, round_reg, screen_card, screen_reg


@pytest.fixture
def tiny():
    """2x2 identity instance used throughout the worked examples."""
    return Instance(np.eye(2), np.array([3.0, 0.1]))


def random_instance(seed, m, n, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) * scale
    y = rng.standard_normal(m)
    return Instance(a, y)


def screen_report(inst, spec, rel):
    """The public screen pipeline's report on ``rel``: round it, then screen against the rounding."""
    if spec.variant is Variant.CARD:
        return screen_card(inst, spec.gamma, spec.k, rel, round_card(inst, spec.gamma, spec.k, rel).objective)
    return screen_reg(inst, spec.gamma, spec.mu, rel, round_reg(inst, spec.gamma, spec.mu, rel).objective)
