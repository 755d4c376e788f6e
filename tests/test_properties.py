"""Property tests for the measure-family identities and metric axioms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhedge import (
    EQ_TOL,
    AdaptedProcess,
    GeneratorHull,
    MartingalePolytope,
    NoRepresentation,
    NotMartingale,
    NotSupermartingale,
    asset_ratio_family,
    build_space,
    cell_ranges,
    change_of_measure_conditional,
    conditional_expectation,
    ess_sup_conditional,
    fair_price_full,
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
from superhedge.spaces import cell_reps

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
    """The node-local free directions span the null space of the whole
    equality matrix: as many as its nullity, each one in it, and linearly
    independent.  The polytope's functionals are the interior member and
    these directions."""
    from gen import complete_polytope, equality_system, random_market_tree

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
    functionals = poly.expectation_functionals()
    assert len(functionals) == 1 + expected
    if expected:
        basis = np.array([w for w, _ in functionals[1:]]).T
        assert np.abs(A_eq @ basis).max() <= 1e-12 * (1.0 + np.abs(A_eq).max())
        assert np.linalg.matrix_rank(basis) == expected


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
def test_node_local_sup_matches_lp_oracle(seed, kind):
    """At every time the backward induction equals one LP per cell over the
    whole closure, and each attaining measure is a certificate: spliced into
    the reference member at its cell's mass it satisfies every asset
    equality and gives the sup as its conditional expectation.  The single
    backward pass of ess_sup_rows gives the same rows bit for bit, and so
    does the super-martingale gap of row t + 1 against zero at time t."""
    from gen import cond_exp_sup_lp

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    N = space.horizon
    x = rng.uniform(-5.0, 5.0, size=space.outcome_count)
    tol = EQ_TOL * (1.0 + float(np.abs(x).max()))
    ref = poly.reference()
    rows = poly.ess_sup_rows(x)
    assert rows.shape == (N + 1, space.outcome_count)
    for t in range(N + 1):
        row = poly.cond_exp_sup(x, t)
        assert np.array_equal(rows[t], row.values)
        if t < N:
            (label, gaps), = poly.step_gaps(rows[t + 1], 0.0, t, equality=False)
            assert label == "lp max" and np.array_equal(gaps, rows[t][cell_reps(space, t)])
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
    from gen import local_regular_witness_lp, random_supermartingale

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    f = random_supermartingale(rng, space, poly)
    dec = local_regular_witness(space, poly, f)
    assert validate_decomposition(space, poly, f, dec).ok
    oracle = local_regular_witness_lp(space, poly, f)
    scale = 1.0 + float(np.abs(f.values).max())
    got, want = (np.diff(d.compensator.values, axis=0) for d in (dec, oracle))
    if len(poly.expectation_functionals()) > 1:
        assert np.abs(got - want).max() <= 1e-9 * scale
    for ours, lp in zip(_children_sums(space, got), _children_sums(space, want)):
        assert (ours - lp).max() <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SUP_KINDS))
def test_least_superhedge_prices_like_the_lp(seed, kind):
    """The full price is sup E f_N bit for bit and matches one LP over the
    polytope's expectation functionals; its witness is a unit claim that
    dominates the claim; and the full superhedge starts at that price, is
    self-financing and dominates the claim."""
    from gen import fair_price_full_lp, generic_claim

    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    claim = generic_claim(rng, space)
    scale = 1.0 + float(np.abs(claim).max())
    result = fair_price_full(space, poly, claim)
    assert result.price == sup_expectation(space, poly, claim)
    assert abs(result.price - fair_price_full_lp(poly, claim)[0]) <= 1e-12 * scale
    assert is_unit_claim(space, poly, result.witness_claim)
    assert result.witness_bound.ok
    strategy, _, hedged = superhedge(space, poly, claim, price_mode="full")
    capital = strategy_capital(strategy).values
    assert hedged.price == capital[0, 0] == result.price
    assert verify_self_financing(strategy).ok
    assert (capital[-1] - claim).min() >= -EQ_TOL * scale


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
    holdings, residuals = poly.hedge_ratios(proc.values)
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
    kind=st.sampled_from(["tree", "complete", "two assets", "wide node"]),
)
def test_affine_hull_gaps_match_per_cell_loop(seed, kind):
    """The equality gaps summed per cell with reduceat equal the per-cell dot
    products with the interior member and each null-basis vector."""
    rng = np.random.default_rng(seed)
    space, poly = _sup_instance(rng, kind)
    functionals = [w for w, _ in poly.expectation_functionals()]
    for t in range(space.horizon + 1):
        x = rng.normal(scale=10.0, size=space.outcome_count)
        base = rng.normal(scale=10.0, size=space.n_cells(t))[space.atom_index[t]]
        if rng.random() < 0.5:
            base = float(base[0])
        (label, gaps), = poly.step_gaps(x, base, t, equality=True)
        centred = x - base
        expected = np.array([
            max(abs(float(centred[list(cell)] @ w[list(cell)])) for w in functionals)
            for cell in space.cells[t]
        ])
        assert label == "affine hull"
        assert gaps.shape == expected.shape
        assert np.abs(gaps - expected).max() <= 1e-12 * (1.0 + np.abs(centred).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cell_reps_are_first_outcomes(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng, max_outcomes=16)
    for t in range(space.horizon + 1):
        expected = [space.cell_rep(t, c) for c in range(space.n_cells(t))]
        assert cell_reps(space, t).tolist() == expected
