import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from superhedge import AdaptedProcess, GeneratorHull, MartingalePolytope, _lp, build_space


@pytest.fixture
def binary_space():
    return build_space(2, [[(0, 1)], [(0,), (1,)]])


@pytest.fixture
def binomial(binary_space):
    """One-step binomial market: S = 100 -> (120, 80)."""
    asset = AdaptedProcess(binary_space, [[100.0, 100.0], [120.0, 80.0]])
    poly = MartingalePolytope(binary_space, [asset], names=("S",))
    return binary_space, asset, poly


@pytest.fixture
def two_generator_hull(binary_space):
    return GeneratorHull(binary_space, [[0.5, 0.5], [0.8, 0.2]])


def bound_tree():
    """Three-period band-attaining market tree.

    One path climbs the upper band to 120, one path descends the lower band
    100 -> 95 -> 88 -> 80; every node branches into two children straddling
    its price, so a strictly positive martingale measure exists.
    """
    prices = np.array(
        [
            [100.0] * 8,
            [108.0] * 4 + [95.0] * 4,
            [114.0, 114.0, 96.0, 96.0, 104.0, 104.0, 88.0, 88.0],
            [120.0, 102.0, 110.0, 82.0, 118.0, 92.0, 99.0, 80.0],
        ]
    )
    filtration = [
        [list(range(8))],
        [[0, 1, 2, 3], [4, 5, 6, 7]],
        [[0, 1], [2, 3], [4, 5], [6, 7]],
        [[i] for i in range(8)],
    ]
    space = build_space(8, filtration)
    asset = AdaptedProcess(space, prices)
    poly = MartingalePolytope(space, [asset], names=("S",))
    return space, asset, poly


@pytest.fixture(name="bound_tree")
def bound_tree_fixture():
    return bound_tree()


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that gets one entry per _lp.solve call, every LP of the
    library included, for as long as the test runs."""
    calls = []
    solve = _lp.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(_lp, "solve", counted)
    return calls
