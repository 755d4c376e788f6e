import numpy as np
import pytest

from superhedge import (
    AdaptedProcess,
    NoRepresentation,
    NotMartingale,
    NotPredictable,
    TradingStrategy,
    build_space,
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

    @pytest.mark.parametrize("level", [40.0, 4e8])
    def test_cash_varying_inside_a_cell_is_not_predictable(self, binomial, level):
        space, asset, _ = binomial
        cash = np.array([[level, level], [-level, -level * (1.0 + 1e-6)]])
        risky = np.zeros((2, 2, 1))
        with pytest.raises(NotPredictable, match="time-1 holdings vary on time-0 cell 0"):
            TradingStrategy(space=space, cash=cash, risky=risky, assets=(asset,))
