"""Martingale representation against traded assets and superhedging strategies.

A self-financed strategy holds cash and asset positions chosen one step
ahead; rebalancing moves no money in or out.  The superhedge of a terminal
claim takes its holdings straight from its price: in full search the least
superhedge's compensator holdings (MartingalePolytope.superhedge_capital),
over the asset-ratio family the static position the pricing weights buy.
That family is judged through the assets' ratio processes S^j / S^j_0 on
the cells, one gaps call for all of them (_asset_ratio_price, which the
command line prices with too), not claim by claim: every member of the
polytope makes S^j a martingale, so the conditional means of S^j_i / S^j_0
are the ratio process stopped at i, whose node residuals are the ones
is_unit_claim would form on the claim.  The capital is the price plus the
gains of the holdings, and the cash leg is capital minus holdings times
prices, all on the cells of the tree, so the strategy and its decomposition
are adapted and predictable by construction.  martingale_representation
recovers holdings for a martingale brought from elsewhere (one batched
projection of every node's increments, hedge_ratios on its cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition
from .errors import NotMartingale, NotUnitClaim, ValidationError
from .measures import MartingalePolytope, _claim_vector
from .pricing import FairPriceResult, _certified, _check_terminal_claim, _family_price
from .processes import is_martingale
from .spaces import (AdaptedProcess, FilteredSpace, PredictableProcess, TradingStrategy, cell_reps,
                     path_sums)
from .tolerances import EQ_TOL


@dataclass(frozen=True)
class SelfFinancingViolation:
    time: int
    cell: int
    residual: float


@dataclass(frozen=True)
class SelfFinancingReport:
    ok: bool
    violations: tuple[SelfFinancingViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


def martingale_representation(
    space: FilteredSpace, mset: MartingalePolytope, mprocess: AdaptedProcess
) -> PredictableProcess:
    """Predictable asset holdings H with M_m = M_0 + sum <H_i, dS_i>.

    At each node the holdings are the least-squares projection of the
    increments towards its children onto the asset moves, taken for every
    node at once (MartingalePolytope.hedge_ratios).  What they miss is the
    node's replication residual, the same one is_martingale judges, so a
    martingale for the polytope is always represented, and anything else
    raises NotMartingale.
    """
    if not isinstance(mset, MartingalePolytope):
        raise ValidationError("representation requires a martingale polytope")
    report = is_martingale(space, mset, mprocess)
    if not report.ok:
        v = report.violations[0]
        raise NotMartingale(
            f"process is not a martingale for the polytope at time {v.time}, cell {v.cell}",
            report=report,
        )
    return PredictableProcess.on_cells(space, mset.hedge_ratios(mprocess.cells)[0])


def _cell_prices(assets) -> np.ndarray:
    """The assets' prices on the cells of times 0..N, shape (cells, d)."""
    return np.stack([a.cells for a in assets], axis=1)


def strategy_capital(strategy: TradingStrategy) -> AdaptedProcess:
    """Mark-to-market value cash_m + <holdings_m, S_m> of the strategy."""
    prices = _cell_prices(strategy.assets)
    return AdaptedProcess.on_cells(strategy.space, strategy.cash_cells
                                   + np.einsum("cd,cd->c", strategy.risky_cells, prices))


def verify_self_financing(strategy: TradingStrategy) -> SelfFinancingReport:
    """Check that rebalancing at every step moves no cash in or out, on
    every cell of times 0..N-1 towards its first child, the one holding its
    first outcome."""
    space, num = strategy.space, strategy.space.numbering
    prices = _cell_prices(strategy.assets)
    tol = EQ_TOL * (1.0 + float(np.abs(prices).max()))
    nodes = num.offsets[space.horizon]
    kid = num.ids.ravel()[num.firsts[:nodes] + space.outcome_count]
    cash, risky = strategy.cash_cells, strategy.risky_cells
    residual = (cash[kid] - cash[:nodes]
                + np.einsum("cd,cd->c", risky[kid] - risky[:nodes], prices[:nodes]))
    bad = np.flatnonzero(np.abs(residual) > tol)
    t, c = num.locate(bad)
    violations = tuple(map(SelfFinancingViolation, (t + 1).tolist(), c.tolist(),
                           residual[bad].tolist()))
    return SelfFinancingReport(ok=not violations, violations=violations)


def asset_ratio_family(mset: MartingalePolytope):
    """Unit claims S^j_i / S^j_0 for every asset j and time i, with their index."""
    ratios = _asset_ratios(mset)[:, mset.space.numbering.ids]
    return list(ratios.reshape(-1, ratios.shape[-1])), list(np.ndindex(ratios.shape[:2]))


def _asset_ratios(mset: MartingalePolytope) -> np.ndarray:
    """The ratio processes S^j / S^j_0 of the assets on the cells of times
    0..N (space.numbering), shape (d, cells); member j (N+1) + i of
    asset_ratio_family is process j on the time-i cells."""
    for j, asset in enumerate(mset.assets):
        if asset.cells[0] == 0.0:
            raise ValidationError(f"asset {mset.asset_names[j]} starts at 0: it has no ratio "
                                  "claims S_i / S_0")
    cells = np.array([asset.cells for asset in mset.assets])
    return cells / cells[:, :1]


def _ratio_verdicts(mset: MartingalePolytope, ratios: np.ndarray) -> np.ndarray:
    """is_unit_claim of every member of the asset-ratio family, from the
    ratio processes ratios (d, cells) (_asset_ratios), one verdict per
    member, shape (d (N+1),).

    Every member of the polytope makes S^j a martingale, so the conditional
    mean of S^j_i / S^j_0 given F_t is the ratio process stopped at i, and
    its expectation is 1 exactly when that process is a martingale up to i.
    One gaps call judges the d processes on every node (the node residual,
    _fit's path), and member (j, i) is a unit claim when its least value
    on the time-i cells is at least -EQ_TOL and asset j's largest residual
    over the nodes of times < i is within scaled_tol of the member."""
    d, N, offsets = len(ratios), mset.space.horizon, mset.space.numbering.offsets
    miss = mset.gaps(ratios, equality=True)[1][0]                   # (d, offsets[N])
    reach = np.zeros((d, N + 1))
    reach[:, 1:] = np.maximum.accumulate(np.maximum.reduceat(miss, offsets[:N], axis=1), axis=1)
    least = np.minimum.reduceat(ratios, offsets[:-1], axis=1)
    peak = np.maximum.reduceat(np.abs(ratios), offsets[:-1], axis=1)
    return ((least >= -EQ_TOL) & (reach <= EQ_TOL * (1.0 + peak))).ravel()


def _asset_ratio_price(space: FilteredSpace, mset: MartingalePolytope, f_N) -> FairPriceResult:
    """fair_price_generated over asset_ratio_family(mset), with the same
    checks, in the same order, and the same errors, the family judged by
    _ratio_verdicts and spread over the outcomes only for the pricing LP."""
    ratios = _asset_ratios(mset)
    x = _check_terminal_claim(space, f_N)
    C = _claim_vector(space, ratios[:, space.numbering.ids].reshape(-1, space.outcome_count),
                      stack=True)
    unit = _ratio_verdicts(mset, ratios)
    if not unit.all():
        raise NotUnitClaim(f"family member {int(np.argmin(unit))} is not a unit claim")
    return _family_price(space, mset, C, x)


def superhedge(
    space: FilteredSpace,
    mset: MartingalePolytope,
    f_N,
    price_mode: str = "full",
) -> tuple[TradingStrategy, Decomposition, FairPriceResult]:
    """Price a terminal claim and build a self-financed dominating strategy.

    price_mode "full" searches all unit claims: the price and witness are
    the least superhedge's (MartingalePolytope.superhedge_capital, the
    claim's envelope plus its compensator), and the holdings are the
    compensator's.  "generated" is fair_price_generated over the
    asset-ratio family S^j_i / S^j_0, with the same checks, in the same
    order, and the same errors, but the family judged through the ratio
    processes on the cells (_asset_ratio_price): under every member the
    conditional means of S^j_i / S^j_0 are S^j stopped at i over S^j_0, so
    those processes carry is_unit_claim's residuals without spreading each
    claim over the tree.  Its witness sum beta_{j,i} S^j_i / S^j_0
    is a static hedge: at step m it holds sum over i >= m of
    beta_{j,i} / S^j_0 units of asset j.  Either way the strategy starts at
    the fair price, its capital is the price plus the gains of the
    holdings, and its terminal value dominates the claim pointwise with
    surplus equal to the terminal compensator.
    """
    if not isinstance(mset, MartingalePolytope):
        raise ValidationError("superhedging requires a martingale polytope")
    f_N = np.asarray(f_N, dtype=float)
    num, N, d = space.numbering, space.horizon, len(mset.assets)
    offsets, parents = num.offsets, num.parents

    # the holdings chosen on every cell of times 0..N-1, shape (offsets[N], d)
    if price_mode == "full":
        x = _check_terminal_claim(space, f_N)
        M, holdings, q_star = mset.superhedge_capital(x)
        result = _certified(space, mset, x, float(M[0]), M[num.ids[N]], float(q_star @ x))
    elif price_mode == "generated":
        result = _asset_ratio_price(space, mset, f_N)
        units = np.zeros((N, d))
        for (j, i), beta in zip(np.ndindex(d, N + 1), result.weights):
            units[:i, j] += beta / mset.assets[j].cells[0]
        holdings = np.repeat(units, np.diff(offsets[:N + 1]), axis=0)
    else:
        raise ValidationError(f"unknown price mode {price_mode!r}")

    # every cell's row m holds what its parent chose
    prices = _cell_prices(mset.assets)
    risky = np.zeros((offsets[-1], d))
    risky[1:] = holdings[parents]
    gains = np.einsum("cd,cd->c", risky[1:], prices[1:] - prices[parents])
    capital = result.price + path_sums(space, gains)
    cash = capital - np.einsum("cd,cd->c", risky, prices)
    strategy = TradingStrategy.on_cells(space, cash, risky, mset.assets)

    g = np.zeros(offsets[-1])
    g[offsets[N]:] = capital[offsets[N]:] - f_N[cell_reps(space, N)]
    dec = Decomposition(martingale=AdaptedProcess.on_cells(space, capital),
                        compensator=AdaptedProcess.on_cells(space, g))
    return strategy, dec, result
