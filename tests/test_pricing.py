import numpy as np
import pytest
from scipy.optimize import linprog

from superhedge import (
    EQ_TOL,
    GeneratorHull,
    InfeasiblePricing,
    MartingalePolytope,
    NotUnitClaim,
    asset_ratio_family,
    build_space,
    ess_sup_process,
    euro_call_price,
    euro_put_price,
    fair_price_full,
    fair_price_generated,
    local_regular_witness,
    sup_expectation,
)
from superhedge.spaces import AdaptedProcess

from gen import (
    cellwise_unit_claim,
    closure_vertices,
    complete_polytope,
    compliant_hull,
    generic_claim,
    random_hull,
    random_market_tree,
    random_space,
)


def _eta_violation(members, cells, f_N, alpha, top, steps=21, rounds=30):
    """Smallest constraint violation over eta >= 0 at a fixed alpha.

    The violation (worst of |E eta - alpha| over members and the per-cell
    domination shortfalls) is convex in eta, so a recentred shrinking grid
    converges to its minimum.  Zero minimum means alpha is feasible.
    """
    centre = np.full(2, top)
    radius = 2.0 * top + 1.0
    best = np.inf
    for _ in range(rounds):
        axes = [np.clip(np.linspace(c - radius, c + radius, steps), 0.0, None) for c in centre]
        g0, g1 = np.meshgrid(*axes, indexing="ij")
        eta = np.stack([g0.ravel(), g1.ravel()], axis=1)
        violation = np.zeros(len(eta))
        for q in members:
            violation = np.maximum(violation, np.abs(eta @ q - alpha))
            for idx in cells:
                shortfall = f_N[idx[0]] * q[idx].sum() - eta[:, idx] @ q[idx]
                violation = np.maximum(violation, shortfall)
        i = int(violation.argmin())
        best = float(violation[i])
        centre = eta[i]
        radius = max(0.45 * radius, 3.0 * (2.0 * radius / (steps - 1)) * 0.45)
    return best


def grid_oracle_price(space, mset, f_N, tol=1e-8):
    """Grid-search oracle over (alpha, eta) for two-outcome one-step markets.

    Feasible alphas form an upward-closed interval (add a constant claim to
    move up), so a bisection over alpha with a grid minimization of the eta
    constraint violation locates the least feasible alpha.  Independent of
    the LP route used by the implementation.
    """
    assert space.outcome_count == 2 and space.horizon == 1
    if isinstance(mset, GeneratorHull):
        members = [g.probabilities for g in mset.generators]
    else:
        # one asset, one step: the martingale equation q*up + (1-q)*dn = s0
        # pins the unique member measure
        s = mset.assets[0].values
        up, dn = s[1, 0], s[1, 1]
        assert up != dn, "degenerate asset"
        q0 = (s[0, 0] - dn) / (up - dn)
        assert 0.0 < q0 < 1.0, "no strictly positive martingale measure"
        members = [np.array([q0, 1.0 - q0])]
    cells = [list(c) for c in space.cells[1]]
    top = float(f_N.max()) + 1.0

    lo, hi = 0.0, 2.0 * top
    if _eta_violation(members, cells, f_N, lo, top) <= tol:
        return 0.0
    assert _eta_violation(members, cells, f_N, hi, top) <= tol
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if _eta_violation(members, cells, f_N, mid, top) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


class TestSupExpectation:
    def test_singleton_hull(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.3, 0.7]])
        assert sup_expectation(binary_space, hull, np.array([10.0, 0.0])) == pytest.approx(3.0)

    def test_binomial_polytope(self, binomial):
        space, _, poly = binomial
        assert sup_expectation(space, poly, np.array([20.0, 0.0])) == pytest.approx(10.0)

    def test_constant_claim(self, binary_space, two_generator_hull):
        assert sup_expectation(binary_space, two_generator_hull, np.full(2, 3.5)) == pytest.approx(3.5)


class TestFairPriceFull:
    def test_zero_claim(self, binomial):
        space, _, poly = binomial
        result = fair_price_full(space, poly, np.zeros(2))
        assert result.price == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(result.witness_claim, 1.0)

    def test_binomial_replication_price(self, binomial):
        space, _, poly = binomial
        result = fair_price_full(space, poly, np.array([20.0, 0.0]))
        assert result.price == pytest.approx(10.0, abs=1e-9)
        assert result.lower_bound == pytest.approx(10.0, abs=1e-9)
        assert result.witness_bound.ok

    def test_hull_example_price_exceeds_sup(self, binary_space, two_generator_hull):
        # expectations differ (1.0 vs 1.6): envelope not decomposable, price
        # rises above the sup-expectation bound to the pointwise cost 2.0
        f_N = np.array([2.0, 0.0])
        result = fair_price_full(binary_space, two_generator_hull, f_N)
        assert result.lower_bound == pytest.approx(1.6)
        assert result.price == pytest.approx(2.0, abs=1e-9)
        oracle = grid_oracle_price(binary_space, two_generator_hull, f_N)
        assert result.price == pytest.approx(oracle, abs=1e-6)

    def test_equality_when_envelope_decomposes(self):
        rng = np.random.default_rng(57)
        hits = 0
        for _ in range(20):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=2)
            xi = cellwise_unit_claim(rng, space, hull) * rng.uniform(0.5, 2.0)
            envelope = ess_sup_process(space, hull, xi)
            local_regular_witness(space, hull, envelope)  # feasible by construction
            result = fair_price_full(space, hull, envelope.values[-1])
            assert result.price == pytest.approx(result.lower_bound, abs=1e-8)
            hits += 1
        assert hits == 20

    def test_lower_bound_inequality_randomized(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            space = random_space(rng)
            mset = random_hull(rng, space)
            f_N = generic_claim(rng, space)
            result = fair_price_full(space, mset, f_N)
            assert result.price >= result.lower_bound - 1e-9
            assert result.witness_bound.ok

    def test_scale_covariance(self, binomial):
        space, asset, poly = binomial
        f_N = np.array([20.0, 0.0])
        base = fair_price_full(space, poly, f_N).price
        scaled = fair_price_full(space, poly, 3.0 * f_N).price
        assert scaled == pytest.approx(3.0 * base, abs=1e-8)
        family = [np.ones(2), asset.values[1] / 100.0]
        base_g = fair_price_generated(space, poly, family, f_N).price
        scaled_g = fair_price_generated(space, poly, family, 3.0 * f_N).price
        assert scaled_g == pytest.approx(3.0 * base_g, abs=1e-8)


class TestFairPriceGenerated:
    def test_constant_family_prices_pointwise_max(self, binomial):
        space, _, poly = binomial
        f_N = np.array([20.0, 0.0])
        result = fair_price_generated(space, poly, [np.ones(2)], f_N)
        assert result.price == pytest.approx(20.0, abs=1e-9)

    def test_binomial_two_claim_family(self, binomial):
        space, asset, poly = binomial
        family = [np.ones(2), asset.values[1] / 100.0]
        result = fair_price_generated(space, poly, family, np.array([20.0, 0.0]))
        assert result.price == pytest.approx(50.0 / 3.0, abs=1e-9)

    def test_zero_claim(self, binomial):
        space, asset, poly = binomial
        family = [np.ones(2), asset.values[1] / 100.0]
        result = fair_price_generated(space, poly, family, np.zeros(2))
        assert result.price == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_unit_family(self, binomial):
        space, _, poly = binomial
        with pytest.raises(NotUnitClaim):
            fair_price_generated(space, poly, [np.array([3.0, 0.0])], np.zeros(2))

    def test_infeasible_when_family_vanishes(self):
        space = build_space(2, [[(0, 1)], [(0,), (1,)]])
        hull = GeneratorHull(space, [[0.5, 0.5]])
        family = [np.array([2.0, 0.0])]  # unit claim, vanishes on outcome 1
        with pytest.raises(InfeasiblePricing):
            fair_price_generated(space, hull, family, np.array([0.0, 1.0]))

    def test_full_never_exceeds_generated_and_family_monotone(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=2)
            xi_a = cellwise_unit_claim(rng, space, hull)
            xi_b = cellwise_unit_claim(rng, space, hull)
            f_N = generic_claim(rng, space)
            both = fair_price_generated(space, hull, [np.ones(space.outcome_count), xi_a, xi_b], f_N)
            onen = fair_price_generated(space, hull, [np.ones(space.outcome_count), xi_a], f_N)
            full = fair_price_full(space, hull, f_N)
            assert both.price <= onen.price + 1e-8
            assert full.price <= both.price + 1e-8


class TestClosedForms:
    def test_call_strike_above_band(self):
        assert euro_call_price(100.0, 120.0, 125.0) == 0.0

    def test_call_worked_example(self):
        assert euro_call_price(100.0, 120.0, 90.0) == pytest.approx(25.0)

    def test_call_zero_strike(self):
        assert euro_call_price(100.0, 120.0, 0.0) == pytest.approx(100.0)

    def test_put_strike_below_band(self):
        assert euro_put_price(80.0, 70.0) == 0.0

    def test_put_worked_example(self):
        assert euro_put_price(80.0, 90.0) == pytest.approx(10.0)

    def test_put_boundary(self):
        assert euro_put_price(80.0, 80.0) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            euro_call_price(-1.0, 120.0, 90.0)
        with pytest.raises(ValueError):
            euro_call_price(100.0, 0.0, 90.0)
        with pytest.raises(ValueError):
            euro_put_price(0.0, 90.0)


class TestBoundTreeConsistency:
    def test_call_matches_closed_form(self, bound_tree):
        space, asset, poly = bound_tree
        family, _ = asset_ratio_family(poly)
        payoff = np.maximum(asset.values[-1] - 90.0, 0.0)
        result = fair_price_generated(space, poly, family, payoff)
        assert result.price == pytest.approx(euro_call_price(100.0, 120.0, 90.0), abs=1e-8)

    def test_put_matches_closed_form(self, bound_tree):
        space, asset, poly = bound_tree
        family, _ = asset_ratio_family(poly)
        payoff = np.maximum(90.0 - asset.values[-1], 0.0)
        result = fair_price_generated(space, poly, family, payoff)
        assert result.price == pytest.approx(euro_put_price(80.0, 90.0), abs=1e-8)

    def test_full_price_not_above_generated(self, bound_tree):
        space, asset, poly = bound_tree
        family, _ = asset_ratio_family(poly)
        payoff = np.maximum(asset.values[-1] - 90.0, 0.0)
        generated = fair_price_generated(space, poly, family, payoff)
        full = fair_price_full(space, poly, payoff)
        assert full.price <= generated.price + 1e-9


class TestGridOracle:
    def test_lp_matches_grid_on_parameter_grid(self):
        # micro-scale cross-check of the full pricing program
        separating = build_space(2, [[(0, 1)], [(0,), (1,)]])
        coarse = build_space(2, [[(0, 1)], [(0, 1)]])
        payoffs = [np.array([2.0, 0.0]), np.array([1.0, 3.0]), np.array([1.5, 1.5])]
        for p0 in (0.2, 0.5, 0.8):
            hulls = [
                GeneratorHull(separating, [[p0, 1 - p0]]),
                GeneratorHull(separating, [[p0, 1 - p0], [0.5, 0.5]]),
            ]
            for mset in hulls:
                for f_N in payoffs:
                    lp = fair_price_full(separating, mset, f_N).price
                    oracle = grid_oracle_price(separating, mset, f_N)
                    assert lp == pytest.approx(oracle, abs=1e-6)
        # coarse terminal algebra: claims must be constant
        hull = GeneratorHull(coarse, [[0.3, 0.7], [0.6, 0.4]])
        f_N = np.array([2.0, 2.0])
        lp = fair_price_full(coarse, hull, f_N).price
        assert lp == pytest.approx(grid_oracle_price(coarse, hull, f_N), abs=1e-6)


def vertex_rows(space, vertices, f_N):
    """Domination rows on the closure vertices: one per (vertex, terminal
    cell), the cell's vertex mass against the claim's value there."""
    t = space.horizon
    rows, bounds = [], []
    for v in vertices:
        for cell in space.cells[t]:
            idx = list(cell)
            row = np.zeros(space.outcome_count)
            row[idx] = v[idx]
            rows.append(row)
            bounds.append(f_N[idx[0]] * v[idx].sum())
    return np.array(rows), np.array(bounds)


def vertex_price_full(vertices, P, bounds):
    """Least alpha with eta >= 0, v @ eta = alpha on every vertex and
    P @ eta >= bounds; variables [alpha, eta]."""
    n = vertices.shape[1]
    cost = np.zeros(n + 1)
    cost[0] = 1.0
    A_eq = np.hstack([-np.ones((len(vertices), 1)), vertices])
    A_ub = np.hstack([np.zeros((len(P), 1)), -P])
    res = linprog(cost, A_ub=A_ub, b_ub=-bounds, A_eq=A_eq, b_eq=np.zeros(len(vertices)),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def vertex_price_generated(family, P, bounds):
    """Least sum(beta) with beta >= 0 and P @ (sum beta_i xi_i) >= bounds."""
    C = np.array(family)
    res = linprog(np.ones(len(C)), A_ub=-(P @ C.T), b_ub=-bounds, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


class TestPolytopeDominationOracle:
    def test_prices_and_witnesses_match_vertex_rows(self):
        """Pointwise domination prices a polytope exactly as the rows on
        every closure vertex do, and its witnesses satisfy those rows."""
        rng = np.random.default_rng(4242)
        non_singleton = 0
        for i in range(200):
            if i % 2:
                space, _, poly, _ = complete_polytope(rng)
            else:
                space, _, poly = random_market_tree(rng)
            non_singleton += any(len(c) > 1 for c in space.cells[space.horizon])
            f_N = generic_claim(rng, space)
            vertices = closure_vertices(poly)
            P, bounds = vertex_rows(space, vertices, f_N)
            family, _ = asset_ratio_family(poly)
            for result, oracle in (
                (fair_price_full(space, poly, f_N), vertex_price_full(vertices, P, bounds)),
                (fair_price_generated(space, poly, family, f_N),
                 vertex_price_generated(family, P, bounds)),
            ):
                scale = 1.0 + float(np.abs(f_N).max()) + abs(result.price)
                assert abs(result.price - oracle) <= EQ_TOL * scale
                eta = result.price * result.witness_claim
                assert (bounds - P @ eta).max() <= EQ_TOL * scale
                assert result.witness_bound.ok
        assert non_singleton >= 50
