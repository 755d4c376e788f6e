"""Property tests for the measure-family identities and metric axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhedge import (
    EQ_TOL,
    GeneratorHull,
    asset_ratio_family,
    build_space,
    change_of_measure_conditional,
    conditional_expectation,
    ess_sup_conditional,
    is_unit_claim,
    restriction_metric,
)

from gen import compliant_hull, random_hull, random_measure, random_space

SPACE = build_space(4, [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2, 3)]])

probs4 = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4
).map(lambda v: np.array(v) / np.sum(v))

vec4 = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4
).map(np.array)


@settings(max_examples=60, deadline=None)
@given(p=probs4, fam=st.lists(vec4, min_size=1, max_size=4), t=st.integers(0, 2))
def test_conditional_expectation_of_max_dominates_max(p, fam, t):
    stacked = np.stack(fam)
    pointwise_max = stacked.max(axis=0)
    lhs = conditional_expectation(SPACE, p, pointwise_max, t)
    for member in fam:
        rhs = conditional_expectation(SPACE, p, member, t)
        assert (lhs - rhs).min() >= -1e-12


@settings(max_examples=60, deadline=None)
@given(p1=probs4, p2=probs4, x=vec4, t=st.integers(0, 2))
def test_change_of_measure_identity(p1, p2, x, t):
    direct = conditional_expectation(SPACE, p1, x, t)
    via = change_of_measure_conditional(SPACE, p1, p2, x, t)
    assert np.allclose(direct, via, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2),
    x=vec4,
    t=st.integers(0, 2),
)
def test_convex_combination_formula(weights, x, t):
    """Conditional expectations under a mixture are density-weighted averages
    of the component conditionals, and never exceed the per-cell envelope."""
    p1 = np.array([0.4, 0.1, 0.3, 0.2])
    p2 = np.array([0.1, 0.4, 0.2, 0.3])
    a = np.array(weights) + 1e-3
    a = a / a.sum()
    q = a[0] * p1 + a[1] * p2
    hull = GeneratorHull(SPACE, [p1, p2])

    mixture = conditional_expectation(SPACE, q, x, t)
    env = ess_sup_conditional(SPACE, hull, x, t).values

    phi2 = p2 / p1
    num = (
        a[0] * conditional_expectation(SPACE, p1, x, t)
        + a[1] * conditional_expectation(SPACE, p1, phi2, t) * conditional_expectation(SPACE, p2, x, t)
    )
    den = a[0] + a[1] * conditional_expectation(SPACE, p1, phi2, t)
    assert np.allclose(mixture, num / den, atol=1e-9)
    assert (env - mixture).min() >= -1e-9


def test_first_period_density_collapse():
    """With density ratios constant on first-period cells the generator
    conditionals agree at every later time."""
    rng = np.random.default_rng(87)
    for _ in range(25):
        space = random_space(rng, min_outcomes=3)
        hull = compliant_hull(rng, space, k=3)
        x = rng.uniform(0, 5, size=space.outcome_count)
        for t in range(1, space.horizon + 1):
            rows = [
                conditional_expectation(space, g, x, t) for g in hull.generators
            ]
            for row in rows[1:]:
                assert np.allclose(row, rows[0], atol=1e-9)


def test_generic_hulls_do_not_collapse():
    # sanity: the collapse is a property of compliant hulls, not of all hulls
    rng = np.random.default_rng(88)
    seen_difference = False
    for _ in range(10):
        space = random_space(rng, min_outcomes=4, min_horizon=2)
        hull = random_hull(rng, space, k=2)
        x = rng.uniform(0, 5, size=space.outcome_count)
        rows = [conditional_expectation(space, g, x, 1) for g in hull.generators]
        if not np.allclose(rows[0], rows[1], atol=1e-9):
            seen_difference = True
    assert seen_difference


class TestRestrictionMetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(91)
        for _ in range(30):
            space = random_space(rng)
            n = space.outcome_count
            p1, p2, p3 = (random_measure(rng, n) for _ in range(3))
            for t in range(space.horizon + 1):
                d12 = restriction_metric(space, p1, p2, t)
                d21 = restriction_metric(space, p2, p1, t)
                d13 = restriction_metric(space, p1, p3, t)
                d32 = restriction_metric(space, p3, p2, t)
                assert d12 == pytest.approx(d21, abs=1e-12)
                assert d12 <= d13 + d32 + 1e-12

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(93)
        for _ in range(30):
            space = random_space(rng)
            n = space.outcome_count
            p1, p2 = random_measure(rng, n), random_measure(rng, n)
            distances = [
                restriction_metric(space, p1, p2, t) for t in range(space.horizon + 1)
            ]
            for a, b in zip(distances, distances[1:]):
                assert a <= b + 1e-12

    def test_zero_iff_equal_on_cells(self):
        space = build_space(4, [[(0, 1, 2, 3)], [(0, 1), (2, 3)]])
        p1 = np.array([0.3, 0.2, 0.1, 0.4])
        p2 = np.array([0.2, 0.3, 0.4, 0.1])  # same cell masses at time 1
        assert restriction_metric(space, p1, p2, 1) == pytest.approx(0.0)
        assert restriction_metric(space, p1, p2, 0) == pytest.approx(0.0)


def test_closure_vertices_satisfy_asset_equalities():
    rng = np.random.default_rng(95)
    from gen import random_market_tree

    for _ in range(12):
        space, asset, poly = random_market_tree(rng)
        vertices = poly.closure_vertices()
        assert len(vertices) >= 1
        scale = 1.0 + np.abs(asset.values).max()
        for v in vertices:
            assert v.min() >= -1e-9
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
            for t in range(1, space.horizon + 1):
                for c, cell in enumerate(space.cells[t - 1]):
                    idx = list(cell)
                    res = (asset.values[t, idx] - asset.values[t - 1, idx]) @ v[idx]
                    assert abs(res) <= 1e-9 * scale
        # the interior measure is in the convex hull of the vertices: its
        # equalities were checked at construction, spot check positivity
        assert poly.interior_measure.min() > 0


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complete=st.booleans(),
    delta=st.sampled_from([0.0, 1e-5, 1e-3, 0.1]),
)
def test_polytope_unit_claim_matches_lp_oracle(seed, complete, delta):
    """The linear affine-hull test agrees with the extremes of E over the
    closure: a perturbed mix of asset-ratio claims is a unit claim iff its
    largest and smallest expectations are both one."""
    from gen import complete_polytope, random_market_tree

    rng = np.random.default_rng(seed)
    if complete:
        space, _, poly, _ = complete_polytope(rng)
    else:
        space, _, poly = random_market_tree(rng)
    family, _ = asset_ratio_family(poly)
    weights = rng.dirichlet(np.ones(len(family)))
    v = rng.uniform(-1.0, 1.0, size=space.outcome_count)
    xi = np.clip(weights @ np.array(family) + delta * v, 0.0, None)

    hi, _ = poly.max_expectation(xi)
    lo = -poly.max_expectation(-xi)[0]
    oracle = abs(hi - 1.0) <= EQ_TOL and abs(lo - 1.0) <= EQ_TOL
    assert is_unit_claim(space, poly, xi) == oracle
