"""Property tests for the measure-family identities and metric axioms."""

import importlib.util
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhedge import (
    EQ_TOL,
    MASS_TOL,
    AdaptedProcess,
    GeneratorHull,
    Infeasible,
    MartingalePolytope,
    MeasureDependent,
    NoRepresentation,
    NotMartingale,
    NotSupermartingale,
    NotUnitClaim,
    TradingStrategy,
    ValidationError,
    asset_ratio_family,
    build_space,
    cell_ranges,
    change_of_measure_conditional,
    completion_measures,
    conditional_expectation,
    ess_sup_conditional,
    fair_price_full,
    fair_price_generated,
    is_complete,
    is_martingale,
    is_supermartingale,
    is_unit_claim,
    local_regular_witness,
    martingale_representation,
    restriction_metric,
    strategy_capital,
    sup_expectation,
    superhedge,
    validate_decomposition,
    verify_self_financing,
)
from scipy.linalg import null_space
from superhedge.measures import unit_claim_rows
from superhedge.spaces import at_cells, cell_order, cell_reps

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
    from gen import closure_vertices, random_market_tree

    for _ in range(12):
        space, asset, poly = random_market_tree(rng)
        vertices = closure_vertices(poly)
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
    """The node-local equality test agrees with the extremes of E over the
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

    hi = poly.cond_exp_sup(xi, 0).values[0]
    lo = -poly.cond_exp_sup(-xi, 0).values[0]
    oracle = abs(hi - 1.0) <= EQ_TOL and abs(lo - 1.0) <= EQ_TOL
    assert is_unit_claim(space, poly, xi) == oracle


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complete=st.booleans(),
    second_asset=st.sampled_from(["none", "same scale", "mixed scales"]),
)
def test_node_local_free_dimension_matches_global_rank(seed, complete, second_asset):
    """The null space of the whole equality system is node-local: its
    dimension, the count of the global oracle's free directions, is the sum
    over nodes of the child count less the node's rank (one for the total
    mass plus the rank of its asset moves, by the library's rules), plus
    each terminal cell's outcome count less one.  This is what lets the
    node replication residual decide an identity under every member."""
    from gen import (_asset_unit, complete_polytope, equality_system, expectation_functionals,
                     random_market_tree)

    rng = np.random.default_rng(seed)
    if complete:
        space, asset, poly, _ = complete_polytope(rng)
    else:
        space, asset, poly = random_market_tree(rng, max_leaves=12)
    if second_asset != "none":
        # a martingale under the interior member: nodes with three or more
        # children then carry rank-two moves; with mixed scales it is priced
        # 1e8 below the first asset
        claim = rng.uniform(50.0, 150.0, size=space.outcome_count)
        rows = [conditional_expectation(space, poly.interior_measure, claim, t)
                for t in range(space.horizon + 1)]
        price = 1e-8 if second_asset == "mixed scales" else 1.0
        poly = MartingalePolytope(space, [asset, price * np.array(rows)])
    A_eq, _ = equality_system(poly)
    expected = space.outcome_count - int(np.linalg.matrix_rank(A_eq))
    assert len(expectation_functionals(poly)) == 1 + expected

    unit = np.array([_asset_unit(a) for a in poly.assets])
    flat = MASS_TOL * np.array([np.abs(a.values).max() for a in poly.assets])
    node_local = sum(len(cell) - 1 for cell in space.cells[-1])
    for t in range(space.horizon):
        for c, kids in enumerate(space.children[t]):
            moves = np.array([[a.values[t + 1, space.cell_rep(t + 1, k)]
                               - a.values[t, space.cell_rep(t, c)] for a in poly.assets]
                              for k in kids])
            moves[np.abs(moves) <= flat] = 0.0
            sv = np.linalg.svd(moves / unit, compute_uv=False)
            rank = int((sv > np.sqrt(np.finfo(float).eps) * sv.max(initial=0.0)).sum())
            node_local += len(kids) - 1 - rank
    assert node_local == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_cell_ranges_match_per_cell_ptp(seed, d):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_outcomes=16)
    N, n = space.horizon, space.outcome_count
    values = rng.normal(size=(N + 1, n))
    holdings = rng.normal(size=(N + 1, n, d))
    # make some rows cell-constant so that exact zeros are covered too
    for t in range(N + 1):
        if rng.random() < 0.3:
            values[t] = values[t][space.atom_index[t]]
            holdings[t] = holdings[t][space.atom_index[t]]
    for t in range(N + 1):
        for row in (values[t], holdings[t]):
            expected = np.array([np.ptp(row[list(cell)], axis=0) for cell in space.cells[t]])
            got = cell_ranges(space, t, row)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


SUP_KINDS = ["tree", "complete", "two assets", "wide node", "mixed scales", "mixed wide node"]


def _sup_instance(rng, kind):
    """A polytope of the given kind: a one-asset tree with flat children and
    up to four children per node, a complete polytope, the tree with a second
    asset (nodes with k = 3 = d + 1 and k = 4 > d + 1 children), one
    two-asset node with 3 to 6 children whose second asset is priced 1e8
    times below the first, or one two-asset node too wide to enumerate,
    with both assets at one scale or 1e8 apart."""
    from gen import complete_polytope, random_market_tree

    if kind == "complete":
        space, _, poly, _ = complete_polytope(rng)
        return space, poly
    if kind in ("wide node", "mixed scales", "mixed wide node"):
        k = int(rng.integers(14, 18) if "wide" in kind else rng.integers(3, 7))
        space = build_space(k, [[tuple(range(k))], [(w,) for w in range(k)]])
        q = random_measure(rng, k)
        steps = rng.normal(size=(2, k))
        steps -= (steps @ q)[:, None]
        price = np.array([100.0, 1e-6 if "mixed" in kind else 100.0])[:, None]
        return space, MartingalePolytope(space, [[np.full(k, p), p + 0.1 * p * s]
                                                 for p, s in zip(price, steps)])
    space, asset, poly = random_market_tree(rng, max_leaves=14, branching=(2, 4), flat_prob=0.5)
    if kind == "two assets":
        claim = rng.uniform(50.0, 150.0, size=space.outcome_count)
        rows = [conditional_expectation(space, poly.interior_measure, claim, t)
                for t in range(space.horizon + 1)]
        poly = MartingalePolytope(space, [asset, np.array(rows)])
    return space, poly


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS))
@example(seed=139596, kind="two assets")  # the oracle's rank-deficient cell LP
@example(seed=23, kind="mixed scales")  # a kernel that breaks the smaller asset's equality
@example(seed=25, kind="mixed wide node")  # its LP fallback in raw units
@example(seed=25313, kind="mixed wide node")  # a real move of 2.8e-13 on the asset priced at 1e-6
def test_node_local_sup_matches_lp_oracle(seed, kind):
    """At every time the backward induction equals one LP per cell over the
    whole closure, and each attaining measure is a certificate: spliced into
    the reference member at its cell's mass it satisfies every asset
    equality and gives the sup as its conditional expectation.  The single
    backward pass of ess_sup_cells gives the same rows bit for bit, and so
    does the super-martingale gap of each row t + 1 against row t, which
    is zero."""
    from gen import cond_exp_sup_lp

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    N = space.horizon
    x = rng.uniform(-5.0, 5.0, size=space.outcome_count)
    tol = EQ_TOL * (1.0 + float(np.abs(x).max()))
    ref = poly.reference()
    cells = poly.ess_sup_cells(x)
    rows = cells[space.numbering.ids]
    assert rows.shape == (N + 1, space.outcome_count)
    labels, (gaps,) = poly.gaps(cells, equality=False)
    assert labels == ("lp max",) and np.array_equal(gaps, np.zeros(len(gaps)))
    for t in range(N + 1):
        row = poly.cond_exp_sup(x, t)
        assert np.array_equal(rows[t], row.values)
        assert np.abs(row.values - cond_exp_sup_lp(poly, x, t)).max() <= tol
        assert len(row.attained) == space.n_cells(t)
        for cell, q in zip(space.cells[t], row.attained):
            idx = list(cell)
            assert q.shape == (len(idx),)
            assert q.min() >= 0.0
            assert abs(q.sum() - 1.0) <= 1e-12
            assert abs(q @ x[idx] - row.values[idx[0]]) <= tol
            spliced = ref.copy()
            spliced[idx] = ref[idx].sum() * q
            masses = np.bincount(space.atom_index[N], weights=spliced, minlength=space.n_cells(N))
            assert poly.equality_residuals(masses, N) == []


def _children_sums(space, increments):
    """Per step, the sum of a compensator increment over each cell's children."""
    return [np.bincount(space.atom_index[m - 1][cell_reps(space, m)],
                        weights=increments[m - 1][cell_reps(space, m)])
            for m in range(1, space.horizon + 1)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["tree", "complete", "two assets", "wide node", "mixed scales"]),
)
def test_node_local_witness_matches_lp_oracle(seed, kind):
    """The node-by-node compensator validates; wherever the polytope has a
    free direction it equals one LP per cell over the family's expectation
    functionals; and its sum over each cell's children is never above the
    LP's, which on a polytope without free directions gives the constant
    conditional mean instead."""
    from gen import expectation_functionals, local_regular_witness_lp, random_supermartingale

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    f = random_supermartingale(rng, space, poly)
    dec = local_regular_witness(space, poly, f)
    assert validate_decomposition(space, poly, f, dec).ok
    oracle = local_regular_witness_lp(space, poly, f)
    scale = 1.0 + float(np.abs(f.values).max())
    got, want = (np.diff(d.compensator.values, axis=0) for d in (dec, oracle))
    if len(expectation_functionals(poly)) > 1:
        assert np.abs(got - want).max() <= 1e-9 * scale
    for ours, lp in zip(_children_sums(space, got), _children_sums(space, want)):
        assert (ours - lp).max() <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS))
@example(seed=98376721, kind="complete")  # the LP oracle itself misses by 3.7e-12 of scale
def test_least_superhedge_prices_like_the_lp(seed, kind):
    """The full price is sup E f_N bit for bit and matches an oracle within
    1e-12 of scale: the exact rational induction, or on the two-asset tree,
    where rounding leaves some nodes of the second asset without an exact
    kernel, one LP over the polytope's expectation functionals.  Its
    witness is a unit claim that dominates the claim; and the full
    superhedge starts at that price, is self-financing and dominates the
    claim."""
    from gen import fair_price_full_lp, generic_claim, sup_expectation_exact

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    claim = generic_claim(rng, space)
    scale = 1.0 + float(np.abs(claim).max())
    result = fair_price_full(space, poly, claim)
    assert result.price == sup_expectation(space, poly, claim)
    oracle = (fair_price_full_lp(poly, claim)[0] if kind == "two assets"
              else sup_expectation_exact(poly, claim))
    assert abs(result.price - oracle) <= 1e-12 * scale
    assert is_unit_claim(space, poly, result.witness_claim)
    assert result.witness_bound.ok
    strategy, _, hedged = superhedge(space, poly, claim, price_mode="full")
    capital = strategy_capital(strategy).values
    assert hedged.price == capital[0, 0] == result.price
    assert verify_self_financing(strategy).ok
    assert (capital[-1] - claim).min() >= -EQ_TOL * scale


def _bench_module():
    """bench/markets.py, loaded from its file."""
    path = Path(__file__).parent.parent / "bench" / "markets.py"
    spec = importlib.util.spec_from_file_location("bench_markets", path)
    markets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(markets)
    return markets


def _desk_markets(seed, count):
    """Seeded one-asset incomplete trees with an option on the terminal
    price, as the benchmark's desk workload builds them."""
    markets = _bench_module()
    rng = np.random.default_rng(seed)
    out = []
    for size in [(12, 3, 3), (13, 4, 5), (16, 5, 4)][:count]:
        desk = markets.desk_market(rng, *size)
        space = build_space(desk["outcomes"], desk["partitions"])
        out.append((space, MartingalePolytope(space, [AdaptedProcess(space, v)
                                                      for v in desk["assets"]]), desk["claim"]))
    return out


def test_lower_bound_is_a_checked_attaining_measure():
    """On polytopes of every kind and on seeded desk markets, the full
    price's lower bound is E^{Q*} f_N for the measure Q* of
    superhedge_capital, a closure member: nonnegative, of mass one, and
    meeting every asset equality.  It lies within 1e-12 of scale of
    sup_expectation, which stays the price bit for bit."""
    from gen import generic_claim

    instances = _desk_markets(18, 3)
    for i, kind in enumerate(SUP_KINDS):
        rng = np.random.default_rng(8300 + i)
        for _ in range(10):
            space, poly = _sup_instance(rng, kind)
            instances.append((space, poly, generic_claim(rng, space)))
    for space, poly, claim in instances:
        N = space.horizon
        result = fair_price_full(space, poly, claim)
        _, _, q_star = poly.superhedge_capital(claim)
        assert q_star.min() >= 0.0 and abs(q_star.sum() - 1.0) <= MASS_TOL
        masses = np.bincount(space.atom_index[N], weights=q_star, minlength=space.n_cells(N))
        assert poly.equality_residuals(masses, N) == []
        assert result.lower_bound == q_star @ claim
        sup = sup_expectation(space, poly, claim)
        assert result.price == sup
        assert abs(result.lower_bound - sup) <= 1e-12 * (1.0 + float(np.abs(claim).max()))


def test_equality_residuals_match_the_loop():
    """The polytope's kept equality matrix equals gen.equality_system
    entrywise, and equality_residuals, node-local sums up the tree, names
    the per-(asset, step) loop's (asset, step, cell) list exactly, each
    residual within the rounding of the two summation orders, 4 (n + 2)
    eps sum |mu| max |S_j|: on Q*'s terminal masses, the spliced attained
    measures, every completion measure of the first asset's ratio claim,
    and perturbed reference and Dirichlet masses at every time; over
    polytopes of every kind and seeded desk markets."""
    from gen import equality_residuals_loop, equality_system, generic_claim

    instances = _desk_markets(19, 3)
    for i, kind in enumerate(SUP_KINDS):
        rng = np.random.default_rng(1900 + i)
        instances += [(*_sup_instance(rng, kind), None) for _ in range(8)]
    rng = np.random.default_rng(19)
    violated = 0
    for space, poly, claim in instances:
        N = space.horizon
        assert np.array_equal(poly._equalities.toarray(), equality_system(poly)[0])
        claim = generic_claim(rng, space) if claim is None else claim

        def masses(p, t):
            return np.bincount(space.atom_index[t], weights=p, minlength=space.n_cells(t))

        cases = [(masses(poly.superhedge_capital(claim)[2], N), N)]
        ref = poly.reference()
        for t in range(N + 1):
            for cell, q in zip(space.cells[t], poly.cond_exp_sup(claim, t).attained):
                spliced = ref.copy()
                spliced[list(cell)] = ref[list(cell)].sum() * q
                cases.append((masses(spliced, N), N))
            noise = rng.normal(size=space.n_cells(t))
            cases += [(masses(ref, t) * (1.0 + 1e-6 * noise), t),
                      (rng.dirichlet(np.ones(space.n_cells(t))), t)]
        xi0 = poly.assets[0].values[-1] / poly.assets[0].values[0, 0]
        for n in range(1, N + 1):
            cases += [(cm.atom_probabilities, n) for cm in completion_measures(space, poly, xi0, n)]
        peak = [float(np.abs(a.values).max()) for a in poly.assets]
        for mu, t in cases:
            got = poly.equality_residuals(mu, t)
            want = equality_residuals_loop(poly, mu, t)
            assert [g[:3] for g in got] == [w[:3] for w in want]
            rounding = 4 * (space.outcome_count + 2) * np.finfo(float).eps * np.abs(mu).sum()
            for (j, _, _, a), (_, _, _, b) in zip(got, want):
                assert abs(a - b) <= rounding * peak[j]
            violated += bool(got)
    assert violated


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS),
       shift=st.floats(0.0, 1e3), factor=st.floats(1e-3, 1e3))
def test_full_price_shifts_and_scales_with_the_claim(seed, kind, shift, factor):
    """The full price and its lower bound of f + c (c >= 0) are those of f
    plus c, and those of lambda f are lambda times those of f, within 1e-12
    of scale; the price over the asset-ratio family is never below the
    full price."""
    from gen import generic_claim

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    f = generic_claim(rng, space)
    base = fair_price_full(space, poly, f)
    family, _ = asset_ratio_family(poly)
    for g, moved in ((f + shift, lambda v: v + shift), (factor * f, lambda v: factor * v)):
        scale = 1.0 + float(np.abs(g).max())
        result = fair_price_full(space, poly, g)
        assert abs(result.price - moved(base.price)) <= 1e-12 * scale
        assert abs(result.lower_bound - moved(base.lower_bound)) <= 1e-12 * scale
        assert fair_price_generated(space, poly, family, g).price >= result.price - EQ_TOL * scale


def test_whole_tree_compensator_matches_steps_and_node_oracle(lp_calls, monkeypatch):
    """On polytopes of every kind, superhedge_capital's capital, spread from
    the cells to the outcomes, is the claim's envelope plus the running sum
    of the contract's compensator steps, bit for bit; those steps and
    superhedge_capital's holdings match the per-node oracle
    (gen.compensator_per_node) step by step within 1e-9 of scale, the
    holdings in value units.  The instances include complete
    trees, whose one-asset intervals are degenerate and round to empty,
    and two-asset nodes solved by LP."""
    from gen import compensator_per_node, generic_claim
    from superhedge import measures

    empty = []
    maximin = measures._one_asset_holdings
    monkeypatch.setattr(measures, "_one_asset_holdings",
                        lambda moves, drops: empty.append(len(moves)) or maximin(moves, drops))
    lp_nodes = 0
    for i, kind in enumerate(SUP_KINDS):
        rng = np.random.default_rng(8200 + i)
        for _ in range(15):
            space, poly = _sup_instance(rng, kind)
            claim = generic_claim(rng, space)
            N, n = space.horizon, space.outcome_count
            num = space.numbering
            cells = poly.ess_sup_cells(claim)
            V = cells[num.ids]
            scale = 1.0 + float(np.abs(V).max())
            lp_calls.clear()
            M, H, _ = poly.superhedge_capital(claim)
            lp_nodes += len(lp_calls)
            drops = V[:-1] - V[1:]
            # the capital, holdings and steps come on the cells: spread them
            M, H = M[num.ids], H[num.ids[:N]]
            steps = poly.compensator(cells[num.parents] - cells[num.offsets[1]:], scale)
            steps = steps[num.ids[1:] - num.offsets[1]]
            assert np.array_equal(M, V + np.cumsum(np.r_[np.zeros((1, n)), steps], axis=0))
            peak = np.array([np.abs(a.values).max() for a in poly.assets])
            for t in range(N):
                gamma, h = compensator_per_node(poly, drops[t], t, scale)
                assert np.abs(steps[t] - gamma).max() <= 1e-9 * scale
                assert np.abs((H[t] - h) * peak).max() <= 1e-9 * (1.0 + np.abs(h * peak).max())
    assert lp_nodes and empty


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS))
def test_whole_tree_compensator_names_the_first_infeasible_node(seed, kind):
    """An envelope knocked below itself by 100 times the tolerance on a few
    nodes, none below another, has no compensator there.  The whole-tree
    pass raises Infeasible for the lowest knocked time, then cell, as the
    per-node oracle does step by step."""
    from gen import compensator_per_node, generic_claim

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    V = poly.ess_sup_cells(generic_claim(rng, space))[space.numbering.ids]
    N = space.horizon
    knock = 100.0 * EQ_TOL * (1.0 + float(np.abs(V).max()))
    drawn = sorted({(t, int(rng.integers(space.n_cells(t))))
                    for t in rng.integers(N, size=int(rng.integers(1, 4)))})
    # knocking a child raises its parent's drop towards it, which can make
    # up for the parent's own knock
    nodes = [(t, c) for t, c in drawn
             if not any(space.atom_index[s][space.cell_rep(t, c)] == a for s, a in drawn if s < t)]
    for t, c in nodes:
        V[t, list(space.cells[t][c])] -= knock
    scale = 1.0 + float(np.abs(V).max())
    drops = V[:-1] - V[1:]

    cells, num = at_cells(space, V), space.numbering
    with pytest.raises(Infeasible) as whole:
        poly.compensator(cells[num.parents] - cells[num.offsets[1]:], scale)
    with pytest.raises(Infeasible) as oracle:
        for t in range(N):
            compensator_per_node(poly, drops[t], t, scale)
    expected = (nodes[0][0] + 1, nodes[0][1])
    assert (whole.value.time, whole.value.cell) == expected
    assert (oracle.value.time, oracle.value.cell) == expected


def _full_rank_nodes(space, poly):
    """(N, n) mask: True on the outcomes of each time-(m-1) node whose asset
    moves, each asset over its largest price, have rank d, so that the
    holdings replicating a step there are unique.  Singular values below
    1e-8 of the largest are rounding: two assets across two children."""
    d = len(poly.assets)
    mask = np.zeros((space.horizon, space.outcome_count), dtype=bool)
    for t in range(space.horizon):
        for c, kids in enumerate(space.children[t]):
            moves = np.array([[a.values[t + 1, space.cell_rep(t + 1, k)]
                               - a.values[t, space.cell_rep(t, c)] for k in kids]
                              / np.abs(a.values).max() for a in poly.assets])
            sv = np.linalg.svd(moves, compute_uv=False)
            mask[t, list(space.cells[t][c])] = (sv > 1e-8 * sv.max(initial=0.0)).sum() == d
    return mask


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["tree", "complete", "two assets", "mixed scales"]))
def test_superhedge_holdings_represent_its_capital(seed, kind):
    """In both price modes the superhedge starts at the price bit for bit, is
    self-financing and dominates the claim, and wherever a node's moves have
    rank d its holdings are the ones martingale_representation reads off its
    capital, compared in value units (each asset's holding times its
    largest price), since an asset priced 1e8 below another resolves its
    holding only to rounding over its price.  The generated hedge is
    static: one position per step."""
    from gen import generic_claim

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    claim = generic_claim(rng, space)
    scale = 1.0 + float(np.abs(claim).max())
    unique = _full_rank_nodes(space, poly)
    peak = np.array([np.abs(a.values).max() for a in poly.assets])
    for mode in ("full", "generated"):
        strategy, _, result = superhedge(space, poly, claim, price_mode=mode)
        capital = strategy_capital(strategy)
        assert capital.values[0, 0] == result.price
        assert verify_self_financing(strategy).ok
        assert (capital.values[-1] - claim).min() >= -EQ_TOL * scale
        held = strategy.risky[1:]
        represented = martingale_representation(space, poly, capital).values
        gap = (np.abs(held - represented) * peak)[unique].max(initial=0.0)
        assert gap <= 1e-9 * (1.0 + np.abs(held * peak).max())
        if mode == "generated":
            assert (held == held[:, :1]).all()


@pytest.mark.parametrize("kind", ["tree", "two assets"])
@pytest.mark.parametrize("shortfall", [0.5, 2.0])
def test_witness_takes_what_the_supermartingale_test_passes(kind, shortfall):
    """A node whose one-step sup exceeds its value by half the
    super-martingale tolerance passes the test, and so must decompose; at
    twice the tolerance the guard rejects it."""
    from gen import random_supermartingale

    rng = np.random.default_rng(4099)
    for _ in range(10):
        space, poly = _sup_instance(rng, kind)
        f = random_supermartingale(rng, space, poly, mart_prob=1.0)
        branching = [(t, c) for t in range(space.horizon)
                     for c, kids in enumerate(space.children[t]) if len(kids) > 1]
        t, c = branching[int(rng.integers(len(branching)))]
        values = f.values.copy()
        values[t, list(space.cells[t][c])] -= shortfall * EQ_TOL * (1.0 + np.abs(values).max())
        f = AdaptedProcess(space, values)
        if shortfall < 1.0:
            assert is_supermartingale(space, poly, f).ok
            assert validate_decomposition(space, poly, f, local_regular_witness(space, poly, f)).ok
        else:
            with pytest.raises(NotSupermartingale):
                local_regular_witness(space, poly, f)


def _polytope_martingale(rng, space, poly, noise):
    """M_0 + sum of random predictable holdings times the asset increments,
    a martingale for every member, plus noise on the terminal cells.  The
    holdings of each asset are of order 100 over its largest price."""
    N = space.horizon
    peak = np.array([np.abs(a.values).max() for a in poly.assets])
    values = np.empty((N + 1, space.outcome_count))
    values[0] = rng.uniform(-10.0, 10.0)
    for m in range(1, N + 1):
        h = rng.normal(size=(space.n_cells(m - 1), len(poly.assets))) * (100.0 / peak)
        h = h[space.atom_index[m - 1]]
        moves = np.array([a.values[m] - a.values[m - 1] for a in poly.assets]).T
        values[m] = values[m - 1] + (h * moves).sum(axis=1)
    values[N] += noise * rng.normal(size=space.n_cells(N))[space.atom_index[N]]
    return AdaptedProcess(space, values)


def _verdict(represent, space, poly, proc):
    try:
        return represent(space, poly, proc).values
    except NotMartingale as e:
        v = e.report.violations[0]
        return ("NotMartingale", v.time, v.cell)
    except NoRepresentation as e:
        return ("NoRepresentation", e.time, e.cell)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["tree", "complete", "two assets", "mixed scales"]),
    noise=st.sampled_from([0.0, 1e-12, 1e-8, 1e-3]),
)
@example(seed=3, kind="two assets", noise=0.0)  # two assets across two children: rank one
def test_batched_representation_matches_per_cell_lstsq(seed, kind, noise):
    """The holdings and residuals of one projection per node group equal one
    least-squares solve per cell, and martingale_representation reaches the
    same verdict as the per-cell version: one-asset trees with flat children,
    complete polytopes, two-asset trees with k = 2, 3 and 4 > d + 1, and
    two-asset nodes with prices 1e8 apart."""
    from gen import hedge_ratios_lstsq, martingale_representation_lstsq

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    proc = _polytope_martingale(rng, space, poly, noise)
    scale = 1.0 + float(np.abs(proc.values).max())
    holdings, residuals = poly.hedge_ratios(proc.cells)
    holdings = holdings[space.numbering.ids[:space.horizon]]
    expected, expected_residuals = hedge_ratios_lstsq(poly, proc.values)
    assert holdings.shape == expected.shape
    assert np.abs(holdings - expected).max() <= 1e-9 * (1.0 + np.abs(expected).max())
    assert len(residuals) == len(expected_residuals) == space.horizon
    for got, want in zip(residuals, expected_residuals):
        assert np.abs(got - want).max() <= 1e-12 * scale

    got = _verdict(martingale_representation, space, poly, proc)
    want = _verdict(martingale_representation_lstsq, space, poly, proc)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["tree", "complete", "two assets", "mixed scales"]),
)
def test_martingale_verdict_and_representation_agree(seed, kind):
    """With 1e-8 terminal noise, a polytope martingale passes is_martingale
    exactly when martingale_representation returns its holdings; both read
    one replication residual, so neither can accept what the other
    rejects."""
    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    proc = _polytope_martingale(rng, space, poly, 1e-8)
    represented = not isinstance(_verdict(martingale_representation, space, poly, proc), tuple)
    assert is_martingale(space, poly, proc).ok == represented


def _oracle_gaps(space, functionals, x, base, t):
    """Per time-t cell, the largest |w @ (x - base)| over the cell for the
    global oracle's functionals (gen.expectation_functionals), the
    reference member's divided by its mass on the cell."""
    centred = np.asarray(x, dtype=float) - base
    (q, _), *null = functionals
    gaps = []
    for cell in space.cells[t]:
        idx = list(cell)
        sums = [abs(float(centred[idx] @ q[idx])) / q[idx].sum()]
        gaps.append(max(sums + [abs(float(centred[idx] @ v[idx])) for v, _ in null]))
    return np.array(gaps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS))
def test_node_residual_matches_lstsq_and_global_oracle(seed, kind):
    """The equality gap of an F_{t+1}-measurable step is the per-cell
    least-squares replication residual (gen.hedge_ratios_lstsq).  For any
    x it is the largest such residual on or below each time-t cell of the
    reference member's conditional expectations, from base at time t,
    together with each terminal cell's spread about its mean.  The verdicts
    of is_martingale and is_unit_claim agree with the global oracle on
    martingales and unit claims and on the same knocked off by 1e-3."""
    from gen import expectation_functionals, hedge_ratios_lstsq

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    N, n = space.horizon, space.outcome_count
    values = np.array([rng.normal(scale=10.0, size=space.n_cells(t))[space.atom_index[t]]
                       for t in range(N + 1)])
    scale = 1.0 + float(np.abs(values).max())
    _, residuals = hedge_ratios_lstsq(poly, values)
    labels, (gaps,) = poly.gaps(at_cells(space, values), equality=True)
    assert labels == ("node residual",)
    assert np.abs(gaps - np.concatenate(residuals)).max() <= 1e-12 * scale

    x = rng.normal(scale=10.0, size=n)
    ref = poly.reference()
    for t in range(N + 1):
        base = values[t]
        rows = np.array([conditional_expectation(space, ref, x, s) for s in range(N + 1)])
        rows[t] = base
        _, misses = hedge_ratios_lstsq(poly, rows)
        expected = np.zeros(space.n_cells(t))
        per_cell = [(s, misses[s]) for s in range(t, N)]
        order, starts = cell_order(space, N, N + 1)
        per_cell.append((N, np.maximum.reduceat(np.abs(x - rows[N])[order], starts)))
        for s, miss in per_cell:
            ancestors = space.atom_index[t][cell_reps(space, s)]
            np.maximum.at(expected, ancestors, miss)
        _, (gaps,) = poly.gaps(at_cells(space, np.vstack([values[:t], base])), True, x)
        gaps = gaps[-len(expected):]   # the time-t cells
        assert np.abs(gaps - expected).max() <= 1e-12 * (1.0 + np.abs(x).max() + np.abs(base).max())

    functionals = expectation_functionals(poly)
    family, _ = asset_ratio_family(poly)
    claim = rng.dirichlet(np.ones(len(family))) @ np.array(family)
    for knock in (0.0, 1e-3):
        proc = _polytope_martingale(rng, space, poly, knock)
        tol = EQ_TOL * (1.0 + float(np.abs(proc.values).max()))
        oracle = all((_oracle_gaps(space, functionals, proc.values[m], proc.values[m - 1], m - 1)
                      <= tol).all() for m in range(1, N + 1))
        assert is_martingale(space, poly, proc).ok == oracle
        xi = claim + knock * rng.uniform(-1.0, 1.0, size=n)
        oracle = (_oracle_gaps(space, functionals, xi, 1.0, 0) <= EQ_TOL).all()
        assert is_unit_claim(space, poly, xi) == oracle


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cell_reps_are_first_outcomes(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_outcomes=16)
    for t in range(space.horizon + 1):
        expected = [space.cell_rep(t, c) for c in range(space.n_cells(t))]
        assert cell_reps(space, t).tolist() == expected


def _bench_markets(workload, seed):
    """One round of a benchmark workload's markets, each as (space, family,
    process or None), from bench/markets.py."""
    out = []
    for inputs in _bench_module().market_round(workload, np.random.default_rng(seed)):
        space = build_space(inputs["outcomes"], inputs["partitions"])
        mset = (GeneratorHull(space, inputs["generators"]) if "generators" in inputs else
                MartingalePolytope(space, [AdaptedProcess(space, v) for v in inputs["assets"]]))
        out.append((space, mset, inputs.get("process")))
    return out


def _verdict_instances(kind, rng):
    """(space, family, process) triples of one kind: seeded hulls with a
    super-martingale, tests/gen.py polytopes with an envelope and a
    martingale, and the decompose_verdicts and desk_incomplete benchmark
    markets with their own process, envelope or asset."""
    from gen import generic_claim, random_supermartingale

    out = []
    if kind == "hull":
        for i in range(8):
            space = random_space(rng)
            k = int(rng.integers(2, 5))
            hull = compliant_hull(rng, space, k) if i % 2 else random_hull(rng, space, k)
            out.append((space, hull, random_supermartingale(rng, space, hull).values))
    elif kind == "polytope":
        for sup_kind in SUP_KINDS:
            space, poly = _sup_instance(rng, sup_kind)
            claim = generic_claim(rng, space)
            out.append((space, poly, poly.ess_sup_cells(claim)[space.numbering.ids]))
            out.append((space, poly, _polytope_martingale(rng, space, poly, 0.0).values))
    else:
        for space, mset, process in (_bench_markets("decompose_verdicts", 0)
                                     + _bench_markets("desk_incomplete", 0)):
            values = (process if process is not None else
                      mset.ess_sup_cells(generic_claim(rng, space))[space.numbering.ids])
            out.append((space, mset, values))
            if not isinstance(mset, GeneratorHull):
                out.append((space, mset, mset.assets[0].values))
    return out


@pytest.mark.parametrize("kind", ["hull", "polytope", "bench"])
def test_verdicts_match_the_step_loop(kind):
    """is_supermartingale and is_martingale, one gaps call per process,
    report what the step-by-step loop (gen.step_report_loop) reports,
    violation by violation in (time, label, cell) order, on processes
    moved on a whole cell of one time by 0 and by 1e-12 up to 1; and
    unit_claim_rows raises MeasureDependent where gen.unit_claim_rows_loop
    does, at the same time and cell and with the same label."""
    from gen import step_report_loop, unit_claim_rows_loop

    rng = np.random.default_rng({"hull": 2101, "polytope": 2102, "bench": 2103}[kind])
    for space, mset, values in _verdict_instances(kind, rng):
        for delta in (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
            moved = np.array(values, dtype=float)
            t = int(rng.integers(space.horizon + 1))
            moved[t, space.atom_index[t] == rng.integers(space.n_cells(t))] += delta
            scale = 1.0 + float(np.abs(moved).max())
            for check, equality in ((is_supermartingale, False), (is_martingale, True)):
                got = check(space, mset, moved)
                want = step_report_loop(space, mset, moved, equality)
                assert (got.ok, got.equality) == (want.ok, want.equality)
                assert ([(v.time, v.cell, v.label) for v in got.violations]
                        == [(v.time, v.cell, v.label) for v in want.violations])
                assert np.allclose([v.gap for v in got.violations],
                                   [v.gap for v in want.violations], rtol=0.0, atol=1e-12 * scale)
        # a unit claim moved along the generators' common null space keeps
        # its unit expectations but not its conditional ones
        claims = ([np.ones(space.outcome_count)] if isinstance(mset, GeneratorHull)
                  else asset_ratio_family(mset)[0])
        null = np.zeros(space.outcome_count)
        if isinstance(mset, GeneratorHull) and mset.k < space.outcome_count:
            null = null_space(np.array([g.probabilities for g in mset.generators]))[:, 0]
        for xi in claims:
            for delta in (0.0, 1e-12, 1e-8, 1e-4, 1e-1):
                moved = xi + delta * null / max(np.abs(null).max(), 1.0)
                if not is_unit_claim(space, mset, moved):
                    continue
                outcomes = []
                for rows in (unit_claim_rows, unit_claim_rows_loop):
                    try:
                        rows(space, mset, moved)
                        outcomes.append(None)
                    except MeasureDependent as e:
                        outcomes.append((e.time, e.cell, re.search(r"\((.*), gap", str(e))[1]))
                assert outcomes[0] == outcomes[1]


def _unit_claim_instances(rng):
    """(space, family, claims) triples of the unit-claim knock scan:
    tests/gen.py compliant hulls with a cellwise unit claim, and random
    hulls with 1 moved along their generators' common null space, a unit
    claim whose conditional expectations differ; complete polytopes and
    market trees with flat children with their asset-ratio claims; desk
    polytopes with S_N / S_0 and S_{N-1} / S_0."""
    from gen import cellwise_unit_claim, complete_polytope, random_market_tree

    out = []
    for i in range(24):
        space = random_space(rng, min_outcomes=4)
        k = 1 + i % 3
        if i % 2:
            hull = compliant_hull(rng, space, k)
            out.append((space, hull, [cellwise_unit_claim(rng, space, hull)]))
            continue
        hull = random_hull(rng, space, k)
        null = null_space(np.array([g.probabilities for g in hull.generators]))[:, 0]
        out.append((space, hull, [1.0 + 0.5 * null / np.abs(null).max()]))
    polytopes = [complete_polytope(rng)[::2] for _ in range(6)]
    polytopes += [random_market_tree(rng, flat_prob=0.5)[::2] for _ in range(6)]
    out += [(space, poly, asset_ratio_family(poly)[0][1:]) for space, poly in polytopes]
    for space, poly, _ in _desk_markets(25, 3):
        values = poly.assets[0].values
        out.append((space, poly, [values[-1] / values[0, 0], values[-2] / values[0, 0]]))
    return out


def _unit_outcome(rows, space, mset, xi):
    """What a unit-claim rows function gives for xi: the rows' bytes, or
    the error with its time, cell and label."""
    try:
        return ("rows", rows(space, mset, xi).tobytes())
    except MeasureDependent as e:
        return ("MeasureDependent", e.time, e.cell, re.search(r"\((.*), gap", str(e))[1])
    except NotUnitClaim:
        return ("NotUnitClaim",)


def test_unit_claim_rows_match_the_two_pass_rule():
    """unit_claim_rows, one gaps pass for a unit claim, gives what
    gen.unit_claim_rows_two_pass gives (is_unit_claim, then the step loop,
    at one tolerance): the same rows bit for bit, or the same error at the
    same time and cell with the same label.  Each claim is knocked by 0,
    1e-12, 1e-9, 1e-7 and 1e-5: along a direction, by a scale and on one
    outcome.  The scan meets all three outcomes."""
    from gen import unit_claim_rows_two_pass

    rng = np.random.default_rng(2501)
    seen = {"rows": 0, "MeasureDependent": 0, "NotUnitClaim": 0}
    for space, mset, claims in _unit_claim_instances(rng):
        n = space.outcome_count
        for xi, knock in itertools.product(claims, (0.0, 1e-12, 1e-9, 1e-7, 1e-5)):
            direction, outcome = rng.uniform(-1.0, 1.0, size=n), np.arange(n) == rng.integers(n)
            moves = [xi + knock * direction, xi * (1.0 + knock), xi + knock * outcome]
            for moved in moves[:1] if knock == 0.0 else moves:
                got = _unit_outcome(unit_claim_rows, space, mset, moved)
                assert got == _unit_outcome(unit_claim_rows_two_pass, space, mset, moved)
                seen[got[0]] += 1
    assert all(seen.values()), seen


def test_stacked_unit_verdicts_match_the_claim_loop():
    """is_unit_claim on a stack of claims, one gaps call, gives every claim
    the verdict gen.is_unit_claim_loop gives it alone (a polytope's judged
    up to the first time the claim is measurable), on the knock scan's hulls
    and polytopes and on the desk_incomplete and wide_complete benchmark
    markets with their asset-ratio families.  Each claim is knocked by 0,
    1e-12, 1e-9, 1e-7 and 1e-5: along a direction, by a scale and on one
    outcome, and each market's claims go in one stack.  A stack of one
    gives the single claim's verdict; the scan meets both verdicts."""
    from gen import is_unit_claim_loop

    rng = np.random.default_rng(2801)
    instances = _unit_claim_instances(rng)
    instances += [(space, poly, asset_ratio_family(poly)[0]) for space, poly, _
                  in _bench_markets("desk_incomplete", 0) + _bench_markets("wide_complete", 0)]
    seen = [0, 0]
    for space, mset, claims in instances:
        n, stack = space.outcome_count, []
        for xi, knock in itertools.product(claims, (0.0, 1e-12, 1e-9, 1e-7, 1e-5)):
            direction, outcome = rng.uniform(-1.0, 1.0, size=n), np.arange(n) == rng.integers(n)
            moves = [xi + knock * direction, xi * (1.0 + knock), xi + knock * outcome]
            stack += moves[:1] if knock == 0.0 else moves
        got = is_unit_claim(space, mset, np.array(stack))
        assert got.shape == (len(stack),)
        assert got.tolist() == [is_unit_claim_loop(space, mset, xi) for xi in stack]
        for xi, verdict in zip(stack[::5], got[::5]):
            one = is_unit_claim(space, mset, xi[None])
            assert one.shape == (1,) and one[0] == is_unit_claim(space, mset, xi) == verdict
        seen[0] += int(got.sum())
        seen[1] += int((~got).sum())
    assert all(seen), seen


@pytest.mark.parametrize("steps", [3, 6, 9])
def test_one_market_two_families(steps):
    """On a complete binomial tree the polytope's closure is one measure,
    so the hull of its interior member is the same family by another
    route.  The two agree on the unit verdicts of the asset-ratio family,
    as it is and scaled by 1 + 1e-6, one stacked call per family; on
    the full price within 1e-12 relative; and on the super-martingale
    verdicts of the claim's envelope and of the envelope pushed up on one
    terminal cell."""
    markets = _bench_module()
    for seed in range(20):
        inputs = markets.binomial_tree(np.random.default_rng(seed), steps)
        space = build_space(inputs["outcomes"], inputs["partitions"])
        poly = MartingalePolytope(space, [AdaptedProcess(space, v) for v in inputs["assets"]])
        hull = GeneratorHull(space, [poly.interior_measure])
        family = np.array(asset_ratio_family(poly)[0])
        claims = np.concatenate([family, family * (1.0 + 1e-6)])
        for mset in (poly, hull):
            verdicts = is_unit_claim(space, mset, claims).tolist()
            assert verdicts == [True] * len(family) + [False] * len(family)
        claim = inputs["claim"]
        full = [fair_price_full(space, mset, claim).price for mset in (poly, hull)]
        assert abs(full[0] - full[1]) <= 1e-12 * max(abs(full[0]), 1.0)
        envelope = poly.ess_sup_cells(claim)[space.numbering.ids]
        pushed = envelope.copy()
        pushed[-1, space.atom_index[-1] == seed % space.n_cells(space.horizon)] += 1.0
        for values, ok in ((envelope, True), (pushed, False)):
            assert (is_supermartingale(space, poly, values).ok
                    == is_supermartingale(space, hull, values).ok == ok)


def _completeness_instances(rng):
    """(space, family, unit claim) triples: tests/gen.py hulls, one to three
    generators, random or compliant; complete polytopes; market trees with
    flat children, whose completion measures are sometimes held; two-asset
    trinomial trees; and desk markets.  A compliant or one-generator hull
    takes gen.cellwise_unit_claim, another hull an F_1-measurable claim off
    1 along a direction its generators' time-1 masses do not see, and a
    polytope its first asset's terminal ratio."""
    from gen import cellwise_unit_claim, complete_polytope, random_market_tree, trinomial_two_asset

    out = []
    for i in range(80):
        space = random_space(rng, min_outcomes=3)
        k = 1 + i % 3
        hull = compliant_hull(rng, space, k) if i % 2 else random_hull(rng, space, k)
        if i % 2 or k == 1:
            out.append((space, hull, cellwise_unit_claim(rng, space, hull)))
            continue
        basis = null_space(np.array([np.bincount(space.atom_index[1], g.probabilities,
                                                 space.n_cells(1)) for g in hull.generators]))
        null = basis @ rng.normal(size=basis.shape[1])
        claim = 1.0 + 0.5 * null / max(np.abs(null).max(initial=0.0), 1e-3)
        out.append((space, hull, claim[space.atom_index[1]]))
    polytopes = [complete_polytope(rng)[::2] for _ in range(20)]
    polytopes += [random_market_tree(rng, flat_prob=0.3)[::2] for _ in range(40)]
    polytopes += [trinomial_two_asset(rng, steps) for steps in (1, 2)]
    polytopes += [(space, poly) for space, poly, _ in _desk_markets(23, 3)]
    for space, poly in polytopes:
        values = poly.assets[0].values
        out.append((space, poly, values[-1] / values[0, 0]))
    return out


def test_completeness_matches_the_pair_loop():
    """is_complete, one contains_two_point call per time, reports what
    gen.is_complete_loop reports, one completion measure at a time (a
    feasibility LP on a hull, the equality residuals on a polytope): the
    verdict, the failures in order and the count tested.  The scan holds
    pairs that each family contains and pairs that it rejects."""
    from gen import is_complete_loop

    rng = np.random.default_rng(2301)
    seen = {GeneratorHull: [0, 0], MartingalePolytope: [0, 0]}
    for space, mset, claim in _completeness_instances(rng):
        got, want = is_complete(space, mset, claim), is_complete_loop(space, mset, claim)
        assert got == want
        seen[type(mset)][0] += got.tested - len(got.failures)
        seen[type(mset)][1] += len(got.failures)
    assert all(held and failed for held, failed in seen.values()), seen


def _hedge_instances():
    """(space, polytope, claim) triples: tests/gen.py polytopes of every
    SUP_KINDS kind with a generic claim, two-asset trinomial trees with a
    basket call, and one round of the desk_incomplete and wide_complete
    benchmark markets with their claims."""
    from gen import generic_claim, trinomial_two_asset

    rng = np.random.default_rng(3001)
    out = []
    for kind in SUP_KINDS:
        for _ in range(6):
            space, poly = _sup_instance(rng, kind)
            out.append((space, poly, generic_claim(rng, space)))
    for steps in (1, 2, 3):
        space, poly = trinomial_two_asset(rng, steps)
        basket = 0.5 * (poly.assets[0].values[-1] + poly.assets[1].values[-1])
        out.append((space, poly, np.maximum(basket - 100.0, 0.0)))
    markets = _bench_module()
    for workload, seed in (("desk_incomplete", 3002), ("wide_complete", 3003)):
        for inputs in markets.market_round(workload, np.random.default_rng(seed)):
            space = build_space(inputs["outcomes"], inputs["partitions"])
            poly = MartingalePolytope(space, [AdaptedProcess(space, v) for v in inputs["assets"]])
            out.append((space, poly, inputs["claim"]))
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_superhedge_matches_the_outcome_assembly():
    """superhedge builds its strategy and decomposition on the cells; in
    both price modes their outcome arrays equal the outcome-array assembly
    (gen.strategy_outcomes) bit for bit, and so do strategy_capital and
    the verify_self_financing report (gen.capital_outcomes and
    gen.self_financing_outcomes), on the strategy and on a copy leaking
    cash on a few cells."""
    from gen import capital_outcomes, self_financing_outcomes, strategy_outcomes

    rng = np.random.default_rng(3004)
    leaks = 0
    for space, poly, claim in _hedge_instances():
        for mode in ("full", "generated"):
            strategy, dec, result = superhedge(space, poly, claim, price_mode=mode)
            price, cash, risky, capital, g = strategy_outcomes(space, poly, claim, mode)
            assert result.price == price
            for got, want in ((strategy.cash, cash), (strategy.risky, risky),
                              (dec.martingale.values, capital), (dec.compensator.values, g)):
                assert _same_bits(got, want)
            leaky = strategy.cash.copy()
            for m in rng.integers(1, space.horizon + 1, size=2):
                leaky[m:, space.atom_index[m - 1] == rng.integers(space.n_cells(m - 1))] += 1.0
            leaky = TradingStrategy(space, leaky, strategy.risky, strategy.assets)
            for s in (strategy, leaky):
                assert _same_bits(strategy_capital(s).values, capital_outcomes(s))
                report = verify_self_financing(s)
                assert ([(v.time, v.cell, v.residual) for v in report.violations]
                        == self_financing_outcomes(s))
            leaks += len(verify_self_financing(leaky).violations)
    assert leaks


def _ratio_family_instances():
    """(space, polytope, claim) triples for the generated superhedge's
    family: tests/gen.py polytopes with one asset (random_market_tree with
    flat children, complete_polytope) and two (a second asset on the tree,
    the complete trinomial tree, a centred incomplete 4-ary tree), each as
    built and with its assets and claim rescaled by 1e-6 and 1e6; and
    trees whose only asset, or second asset, is the first shifted down by
    0.9 S_0, so that it goes negative."""
    from gen import (complete_polytope, generic_claim, multi_asset_tree, random_market_tree,
                     trinomial_two_asset)

    rng = np.random.default_rng(3101)
    base = []
    for _ in range(4):
        base.append(random_market_tree(rng, max_leaves=14, branching=(2, 4), flat_prob=0.3)[::2])
        base.append(complete_polytope(rng)[::2])
        base.append(_sup_instance(rng, "two assets"))
    base.append(trinomial_two_asset(rng, 2))
    base.append(multi_asset_tree(rng, 2, 4, 2, centred=True)[:2])
    out = []
    for space, poly in base:
        claim = generic_claim(rng, space)
        for scale in (1.0, 1e-6, 1e6):
            scaled = MartingalePolytope(space, [scale * a.values for a in poly.assets])
            out.append((space, scaled, scale * claim))
    for _ in range(4):
        space, asset, poly = random_market_tree(rng, max_leaves=14, branching=(2, 4))
        shifted = asset.values - 0.9 * asset.values[0, 0]
        claim = generic_claim(rng, space)
        out.append((space, MartingalePolytope(space, [shifted]), claim))
        out.append((space, MartingalePolytope(space, [asset, shifted]), claim))
    return out


def test_ratio_verdicts_match_the_stacked_claim_verdicts():
    """The generated superhedge judges the asset-ratio family through the
    assets' ratio processes, one gaps call over the d processes: member by
    member, its verdicts are is_unit_claim's on the family as claims.  The
    markets with a negative asset meet both verdicts."""
    from superhedge import hedging

    seen = [0, 0]
    for space, poly, _ in _ratio_family_instances():
        got = hedging._ratio_verdicts(poly, hedging._asset_ratios(poly))
        want = is_unit_claim(space, poly, np.array(asset_ratio_family(poly)[0]))
        assert got.tolist() == want.tolist()
        seen[0] += int(got.sum())
        seen[1] += int((~got).sum())
    assert all(seen), seen


def test_generated_superhedge_matches_the_family_route():
    """superhedge's generated mode equals pricing through
    fair_price_generated over asset_ratio_family (gen.ratio_family_hedge)
    bit for bit: price, weights, witness claim and bound, lower bound, and
    the cash, holdings and decomposition of the outcome assembly
    (gen.strategy_outcomes).  Where an asset goes negative both raise the
    same NotUnitClaim, and a negative claim the same ValidationError, which
    is checked first."""
    from gen import ratio_family_hedge, strategy_outcomes

    raised = 0
    for space, poly, claim in _ratio_family_instances():
        family = asset_ratio_family(poly)[0]
        try:
            want, _ = ratio_family_hedge(space, poly, claim)
        except NotUnitClaim as error:
            with pytest.raises(NotUnitClaim, match=f"^{re.escape(str(error))}$"):
                superhedge(space, poly, claim, price_mode="generated")
            with pytest.raises(ValidationError, match="^claim must be nonnegative$"):
                fair_price_generated(space, poly, family, -1.0 - claim)
            with pytest.raises(ValidationError, match="^claim must be nonnegative$"):
                superhedge(space, poly, -1.0 - claim, price_mode="generated")
            raised += 1
            continue
        strategy, dec, got = superhedge(space, poly, claim, price_mode="generated")
        assert got.price == want.price and got.lower_bound == want.lower_bound
        assert got.witness_bound == want.witness_bound
        assert _same_bits(got.weights, want.weights)
        assert _same_bits(got.witness_claim, want.witness_claim)
        price, cash, risky, capital, g = strategy_outcomes(space, poly, claim, "generated")
        assert got.price == price
        for a, b in ((strategy.cash, cash), (strategy.risky, risky),
                     (dec.martingale.values, capital), (dec.compensator.values, g)):
            assert _same_bits(a, b)
    assert raised


def _check_rebuilt(proc):
    """Rebuild proc through its public constructor from its outcome arrays,
    which checks their measurability; the rebuilt cells must be proc's."""
    if isinstance(proc, TradingStrategy):
        again = TradingStrategy(proc.space, proc.cash, proc.risky, proc.assets)
        assert _same_bits(again.cash_cells, proc.cash_cells)
        assert _same_bits(again.risky_cells, proc.risky_cells)
    else:
        assert _same_bits(type(proc)(proc.space, proc.values).cells, proc.cells)


def test_every_built_process_passes_the_public_checks():
    """The package builds its processes on the cells, with no check: every
    one passes its public constructor's check when rebuilt from its outcome
    arrays (check_adapted, PredictableProcess, TradingStrategy), and reads
    back the same cells.  Covered: ess_sup_process, unit_claim_martingale,
    class_k_supermartingale, both decompositions, both superhedge modes,
    strategy_capital and martingale_representation, on hulls, gen.py
    polytopes and benchmark markets."""
    from gen import (cellwise_unit_claim, complete_polytope, generic_claim,
                     random_supermartingale)
    from superhedge import (KTerm, class_k_supermartingale, ess_sup_process,
                            optional_decomposition_complete, unit_claim_martingale)

    rng = np.random.default_rng(3005)
    built = []
    for _ in range(10):
        space = random_space(rng, min_outcomes=3)
        hull = compliant_hull(rng, space, k=3)
        built.append(ess_sup_process(space, hull, generic_claim(rng, space)))
        xi = cellwise_unit_claim(rng, space, hull)
        built.append(unit_claim_martingale(space, hull, xi))
        weights = np.empty((space.horizon + 1, space.outcome_count))
        weights[0] = rng.uniform(0.5, 2.0)
        for m in range(1, space.horizon + 1):
            weights[m] = weights[m - 1] - rng.uniform(0, 0.3, size=space.n_cells(m))[
                space.atom_index[m]]
        f = class_k_supermartingale(space, hull, [KTerm(claim=xi, weights=weights,
                                                        coefficient=1.5)])
        dec = local_regular_witness(space, hull, f)
        built += [f, dec.martingale, dec.compensator]

        space, _, poly, xi0 = complete_polytope(rng)
        f = random_supermartingale(rng, space, poly)
        dec = optional_decomposition_complete(space, poly, xi0, f)
        mart = unit_claim_martingale(space, poly, xi0)
        built += [mart, dec.martingale, dec.compensator,
                  martingale_representation(space, poly, mart)]
    for space, poly, claim in _hedge_instances()[::3]:
        envelope = ess_sup_process(space, poly, claim)
        dec = local_regular_witness(space, poly, envelope)
        built += [envelope, dec.martingale, dec.compensator]
        for mode in ("full", "generated"):
            strategy, dec, _ = superhedge(space, poly, claim, price_mode=mode)
            built += [strategy, strategy_capital(strategy), dec.martingale, dec.compensator]
    kinds = set()
    for proc in built:
        _check_rebuilt(proc)
        kinds.add(type(proc).__name__)
    assert kinds == {"AdaptedProcess", "PredictableProcess", "TradingStrategy"}
