import tracemalloc

import numpy as np
import pytest

from superhedge import (
    EQ_TOL,
    AdaptedProcess,
    NoRepresentation,
    NotMartingale,
    NotPredictable,
    TradingStrategy,
    build_space,
    fair_price_full,
    is_martingale,
    martingale_representation,
    strategy_capital,
    superhedge,
    verify_self_financing,
)
from superhedge.measures import MartingalePolytope

from gen import generic_claim, random_market_tree


class TestRepresentation:
    def test_asset_represents_itself(self, binomial):
        space, asset, poly = binomial
        h = martingale_representation(space, poly, asset)
        assert np.allclose(h.values, 1.0)

    def test_binomial_call_martingale(self, binomial):
        space, asset, poly = binomial
        m = AdaptedProcess(space, [[10.0, 10.0], [20.0, 0.0]])
        h = martingale_representation(space, poly, m)
        assert np.allclose(h.values[0, :, 0], 0.5)

    def test_constant_martingale_zero_holdings(self, binomial):
        space, asset, poly = binomial
        m = AdaptedProcess(space, np.full((2, 2), 7.0))
        h = martingale_representation(space, poly, m)
        assert np.allclose(h.values, 0.0)

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            space, asset, poly = random_market_tree(rng)
            # martingales spanned by the asset: a S_m + b plus stopped copies
            a, b = rng.uniform(-2, 2), rng.uniform(0, 5)
            m = AdaptedProcess(space, a * asset.values + b)
            h = martingale_representation(space, poly, m)
            recon = np.empty_like(m.values)
            recon[0] = m.values[0]
            for t in range(1, space.horizon + 1):
                step = np.einsum(
                    "nd,nd->n", h.row(t), np.stack([asset.values[t] - asset.values[t - 1]], axis=1)
                )
                recon[t] = recon[t - 1] + step
            assert np.allclose(recon, m.values, atol=1e-9)

    def test_rejects_non_martingale(self, binomial):
        space, asset, poly = binomial
        f = AdaptedProcess(space, [[11.0, 11.0], [20.0, 0.0]])
        with pytest.raises(NotMartingale):
            martingale_representation(space, poly, f)

    def test_unspanned_martingale_reported(self):
        # two-asset information with only one traded: trinomial one-step
        space = build_space(3, [[(0, 1, 2)], [(0,), (1,), (2,)]])
        asset = AdaptedProcess(space, [[100.0] * 3, [120.0, 100.0, 80.0]])
        poly = MartingalePolytope(space, [asset])
        # a deliberately non-traded payoff profile that no single holding matches
        m_vals = np.array([[10.0] * 3, [30.0, 0.0, 0.0]])
        # make it a polytope martingale is impossible generically; construct a
        # genuine martingale for a sub-polytope instead and expect failure
        # against the full polytope's affine hull test
        try:
            m = AdaptedProcess(space, m_vals)
            martingale_representation(space, poly, m)
        except (NotMartingale, NoRepresentation):
            return
        pytest.fail("expected a representation failure")


class TestSuperhedge:
    def test_binomial_full_replication(self, binomial):
        space, asset, poly = binomial
        strategy, dec, result = superhedge(space, poly, np.array([20.0, 0.0]), price_mode="full")
        assert result.price == pytest.approx(10.0, abs=1e-9)
        assert np.allclose(strategy.risky[1, :, 0], 0.5, atol=1e-9)
        assert np.allclose(strategy.cash[1], -40.0, atol=1e-7)
        capital = strategy_capital(strategy)
        assert np.allclose(capital.values[1], [20.0, 0.0], atol=1e-9)
        assert np.allclose(dec.compensator.values[-1], 0.0, atol=1e-9)

    def test_constant_claim(self, binomial):
        space, asset, poly = binomial
        strategy, dec, result = superhedge(space, poly, np.full(2, 5.0), price_mode="full")
        assert result.price == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(strategy.risky[1:], 0.0, atol=1e-9)
        assert np.allclose(strategy_capital(strategy).values, 5.0, atol=1e-9)

    def test_bound_tree_generated_dominates_with_surplus(self, bound_tree):
        space, asset, poly = bound_tree
        payoff = np.maximum(asset.values[-1] - 90.0, 0.0)
        strategy, dec, result = superhedge(space, poly, payoff, price_mode="generated")
        capital = strategy_capital(strategy)
        surplus = capital.values[-1] - payoff
        assert surplus.min() >= -1e-9
        assert surplus.max() > 1e-6  # strict surplus off the band-attaining paths
        assert np.allclose(surplus, dec.compensator.values[-1], atol=1e-9)
        assert verify_self_financing(strategy).ok
        assert capital.values[0, 0] == pytest.approx(result.price)

    def test_capital_is_polytope_martingale(self, bound_tree):
        space, asset, poly = bound_tree
        payoff = np.maximum(asset.values[-1] - 90.0, 0.0)
        strategy, _, _ = superhedge(space, poly, payoff, price_mode="generated")
        assert is_martingale(space, poly, strategy_capital(strategy)).ok

    def test_spliced_process_is_regular_supermartingale(self, bound_tree):
        # capital martingale until maturity, claim value at maturity: the
        # spliced process is a super-martingale admitting a decomposition
        from superhedge import is_supermartingale, local_regular_witness

        space, asset, poly = bound_tree
        payoff = np.maximum(asset.values[-1] - 90.0, 0.0)
        strategy, dec, result = superhedge(space, poly, payoff, price_mode="generated")
        spliced = dec.martingale.values.copy()
        spliced[-1] = payoff
        proc = AdaptedProcess(space, spliced)
        assert is_supermartingale(space, poly, proc).ok
        wdec = local_regular_witness(space, poly, proc)
        assert np.allclose(
            proc.values, wdec.martingale.values - wdec.compensator.values, atol=1e-8
        )

    def test_randomized_domination(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            space, asset, poly = random_market_tree(rng)
            payoff = generic_claim(rng, space, high=50.0)
            strategy, dec, result = superhedge(space, poly, payoff, price_mode="generated")
            capital = strategy_capital(strategy)
            assert capital.values[0, 0] == result.price
            assert (capital.values[-1] - payoff).min() >= -1e-9
            report = verify_self_financing(strategy)
            assert report.ok


class TestStrategyChecks:
    def test_zero_strategy(self, binomial):
        space, asset, poly = binomial
        zero = TradingStrategy(
            space=space, cash=np.zeros((2, 2)), risky=np.zeros((2, 2, 1)), assets=(asset,)
        )
        assert verify_self_financing(zero).ok
        assert np.allclose(strategy_capital(zero).values, 0.0)

    def test_cash_leak_detected(self, binomial):
        space, asset, poly = binomial
        cash = np.array([[10.0, 10.0], [-39.0, -39.0]])  # one unit appears from nowhere
        risky = np.zeros((2, 2, 1))
        risky[1, :, 0] = 0.5
        leaky = TradingStrategy(space=space, cash=cash, risky=risky, assets=(asset,))
        report = verify_self_financing(leaky)
        assert not report.ok
        assert report.violations[0].time == 1


class TestScaledMarkets:
    """Representation residuals reach the cash leg and grow with the prices,
    so the cash leg's predictability is judged relative to its own size."""

    def test_binomial_scaled_by_a_million(self):
        space = build_space(2, [[(0, 1)], [(0,), (1,)]])
        asset = AdaptedProcess(space, [[1e8, 1e8], [1.2e8, 8e7]])
        poly = MartingalePolytope(space, [asset], names=("S",))
        payoff = np.maximum(asset.values[1] - 1e8, 0.0)
        strategy, _, result = superhedge(space, poly, payoff, price_mode="full")
        assert result.price == pytest.approx(1e7)
        assert np.allclose(strategy.risky[1, :, 0], 0.5)
        assert verify_self_financing(strategy).ok
        strategy, _, result = superhedge(space, poly, payoff, price_mode="generated")
        assert (strategy_capital(strategy).values[-1] - payoff).min() >= -1e-9 * 1e8
        assert verify_self_financing(strategy).ok

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_scaled_trees_hedge_cleanly(self, scale):
        rng = np.random.default_rng(1)
        for _ in range(30):
            space, asset, _ = random_market_tree(rng)
            scaled = AdaptedProcess(space, scale * asset.values)
            poly = MartingalePolytope(space, [scaled], names=("S",))
            payoff = np.maximum(scaled.values[-1] - scaled.values[0, 0], 0.0)
            for mode in ("full", "generated"):
                strategy, _, result = superhedge(space, poly, payoff, price_mode=mode)
                assert verify_self_financing(strategy).ok
                assert result.witness_bound.ok

    def test_asset_priced_far_below_another_keeps_its_direction(self):
        """Two assets priced 1e8 apart on a two-step trinomial tree: every
        node's moves span both assets, so the holdings are those of the plain
        per-cell least squares on the raw moves."""
        from gen import hedge_ratios_lstsq, martingale_representation_lstsq, random_measure

        rng = np.random.default_rng(5)
        space = build_space(9, [[tuple(range(9))], [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
                                [(w,) for w in range(9)]])
        values = np.empty((2, 3, 9))
        values[:, 0] = np.array([100.0, 1e-6])[:, None]
        holdings = np.empty((2, 9, 2))
        for t in range(2):
            for cell in space.cells[t]:
                q = random_measure(rng, 3)
                steps = rng.normal(size=(2, 3))
                steps -= (steps @ q)[:, None]
                parent = values[:, t, cell[0]]
                for j, w in enumerate(cell):       # w lies in child j * 3 // len(cell)
                    values[:, t + 1, w] = parent * (1.0 + 0.1 * steps[:, j * 3 // len(cell)])
                holdings[t, list(cell)] = rng.normal(size=2) * (100.0 / values[:, 0, 0])
        assets = [AdaptedProcess(space, v) for v in values]
        poly = MartingalePolytope(space, assets)
        m = np.empty((3, 9))
        m[0] = 1.0
        for t in range(2):
            m[t + 1] = m[t] + (holdings[t] * (values[:, t + 1] - values[:, t]).T).sum(axis=1)
        martingale = AdaptedProcess(space, m)

        got, residuals = poly.hedge_ratios(m)
        want, want_residuals = hedge_ratios_lstsq(poly, m, raw=True)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)
        assert np.allclose(got, holdings, rtol=1e-6, atol=0.0)
        scale = 1.0 + np.abs(m).max()
        assert max(r.max() for r in residuals + want_residuals) <= EQ_TOL * scale
        h = martingale_representation(space, poly, martingale).values
        assert np.allclose(h, martingale_representation_lstsq(space, poly, martingale, raw=True).values,
                           rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("level", [40.0, 4e8])
    def test_cash_varying_inside_a_cell_is_not_predictable(self, binomial, level):
        space, asset, _ = binomial
        cash = np.array([[level, level], [-level, -level * (1.0 + 1e-6)]])
        risky = np.zeros((2, 2, 1))
        with pytest.raises(NotPredictable, match="time-1 holdings vary on time-0 cell 0"):
            TradingStrategy(space=space, cash=cash, risky=risky, assets=(asset,))


def _binomial_tree(rng, steps):
    """Non-recombining one-asset binomial tree with 2**steps outcomes: the
    up and down factors of every node are drawn independently."""
    n = 2**steps
    outcomes = np.arange(n)
    values = np.empty((steps + 1, n))
    values[0] = 100.0
    partitions = [[outcomes]]
    for t in range(1, steps + 1):
        node = outcomes >> (steps - t + 1)          # time-(t-1) cell of each outcome
        up = (outcomes >> (steps - t)) & 1 == 0
        factors = np.where(up, rng.uniform(1.04, 1.25, size=n // 2 ** (steps - t + 1))[node],
                           rng.uniform(0.8, 0.96, size=n // 2 ** (steps - t + 1))[node])
        values[t] = values[t - 1] * factors
        partitions.append(np.split(outcomes, 2**t))
    space = build_space(n, partitions)
    return space, AdaptedProcess(space, values)


def test_large_binomial_builds_in_linear_memory():
    """A 4,096-outcome tree: the polytope's construction traces far less
    memory than a dense equality matrix alone would take (one row per
    internal cell plus one, 4,096 columns: 134 MB), and the full-mode
    superhedge is self-financing and dominates the claim."""
    rng = np.random.default_rng(12)
    space, asset = _binomial_tree(rng, 12)
    n = space.outcome_count
    dense_bytes = (sum(space.n_cells(t) for t in range(space.horizon)) + 1) * n * 8
    assert dense_bytes > 130e6
    tracemalloc.start()
    try:
        poly = MartingalePolytope(space, [asset])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 8

    claim = np.maximum(asset.values[-1] - 100.0, 0.0)
    strategy, _, result = superhedge(space, poly, claim, price_mode="full")
    assert verify_self_financing(strategy).ok
    capital = strategy_capital(strategy).values
    scale = 1.0 + float(claim.max()) + result.price
    assert capital[0, 0] == result.price
    assert (capital[-1] - claim).min() >= -EQ_TOL * scale


def _incomplete_tree(rng, outcomes, ternary, horizon):
    """One-asset tree with the given number of outcomes: ternary three-way
    splits and two-way splits otherwise, in random order, each on a random
    leaf above the horizon.  Child prices straddle their parent's, and a
    leaf above the horizon keeps its price to the end."""
    splits = rng.permutation([3] * ternary + [2] * (outcomes - 1 - 2 * ternary))
    price, parent, depth = [100.0], [0], [0]
    open_leaves = [0]
    for k in splits:
        node = open_leaves.pop(int(rng.integers(len(open_leaves))))
        p = price[node]
        kids = [p * rng.uniform(0.55, 0.95), p * rng.uniform(1.05, 1.45)]
        kids += [p * rng.uniform(0.6, 1.4) for _ in range(k - 2)]
        for v in kids:
            price.append(v)
            parent.append(node)
            depth.append(depth[node] + 1)
            if depth[-1] < horizon:
                open_leaves.append(len(price) - 1)
    leaves = sorted(set(range(len(price))) - set(parent[1:]))
    paths = []                                   # the node of each outcome at each time
    for leaf in leaves:
        path = [leaf]
        while path[-1]:
            path.append(parent[path[-1]])
        paths.append(path[::-1] + [leaf] * (horizon - depth[leaf]))
    nodes = np.array(paths).T                    # (horizon + 1, outcomes)
    partitions = [[np.flatnonzero(row == c) for c in np.unique(row)] for row in nodes]
    space = build_space(len(leaves), partitions)
    return space, AdaptedProcess(space, np.array(price)[nodes])


def test_large_incomplete_tree_builds_in_linear_memory():
    """A 1,024-outcome tree with 200 three-way splits has 200 free
    directions: they are taken node by node, so the polytope's construction
    traces a few megabytes, and the full-mode price is certified."""
    rng = np.random.default_rng(5)
    space, asset = _incomplete_tree(rng, 1024, 200, horizon=12)
    assert space.outcome_count == 1024
    tracemalloc.start()
    try:
        poly = MartingalePolytope(space, [asset])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poly.expectation_functionals()) == 1 + 200
    assert peak < 16e6

    claim = np.maximum(asset.values[-1] - 100.0, 0.0)
    assert fair_price_full(space, poly, claim).witness_bound.ok
