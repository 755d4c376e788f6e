"""Martingale representation against traded assets and superhedging strategies.

A self-financed strategy holds cash and asset positions chosen one step
ahead; rebalancing moves no money in or out.  The superhedge of a terminal
claim takes its holdings straight from its price: in full search the least
superhedge's compensator holdings (MartingalePolytope.superhedge_capital),
over the asset-ratio family the static position the pricing weights buy.
Its capital is the price plus the gains of those holdings, and the cash leg
is capital minus holdings times prices.  martingale_representation recovers
holdings for a martingale brought from elsewhere (one batched projection of
every node's increments, through the polytope's hedge_ratios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition
from .errors import NotMartingale, NotPredictable, ShapeMismatch, ValidationError
from .measures import MartingalePolytope
from .pricing import FairPriceResult, _certified, _check_terminal_claim, fair_price_generated
from .processes import is_martingale
from .spaces import AdaptedProcess, FilteredSpace, PredictableProcess, level_ranges
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


@dataclass(frozen=True, eq=False)
class TradingStrategy:
    """Cash plus per-asset holdings; row m is chosen at time m-1.

    cash has shape (N+1, n) and risky (N+1, n, d); the time-0 rows hold the
    initial endowment (constant over outcomes).  Self-financing is a property
    checked by verify_self_financing, not enforced at construction, so broken
    strategies can be represented and diagnosed.
    """

    space: FilteredSpace
    cash: np.ndarray
    risky: np.ndarray
    assets: tuple[AdaptedProcess, ...]

    def __post_init__(self):
        cash = np.asarray(self.cash, dtype=float)
        risky = np.asarray(self.risky, dtype=float)
        if risky.ndim == 2:
            risky = risky[:, :, None]
        object.__setattr__(self, "cash", cash)
        object.__setattr__(self, "risky", risky)
        n, N = self.space.outcome_count, self.space.horizon
        if cash.shape != (N + 1, n):
            raise ShapeMismatch(f"cash must have shape {(N + 1, n)}")
        if risky.shape != (N + 1, n, len(self.assets)):
            raise ShapeMismatch(f"risky must have shape {(N + 1, n, len(self.assets))}")
        if not (np.isfinite(cash).all() and np.isfinite(risky).all()):
            raise NotPredictable("cash and holdings must be finite")
        # the cash leg is capital minus holdings times prices, so it carries
        # residuals that grow with its own size; holdings are compared as is
        cash_tol = EQ_TOL * (1.0 + float(np.abs(cash).max()))
        # entry 0 judges the endowment row on the time-0 cell, entry 1 + id
        # the row chosen on the cell id (space.numbering)
        ranges = [np.r_[level_ranges(self.space, x[:1], 0), level_ranges(self.space, x[1:], 0)]
                  for x in (cash, risky)]
        varies = np.flatnonzero((ranges[0] > cash_tol) | (ranges[1].max(axis=1) > EQ_TOL))
        if varies.size:
            t, c = self.space.numbering.locate(max(varies[0] - 1, 0))
            raise NotPredictable(f"time-{t + min(varies[0], 1)} holdings vary on time-{t} cell {c}")


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
    return PredictableProcess(space, mset.hedge_ratios(mprocess.values)[0])


def strategy_capital(strategy: TradingStrategy) -> AdaptedProcess:
    """Mark-to-market value cash_m + <holdings_m, S_m> of the strategy."""
    space = strategy.space
    prices = np.stack([a.values for a in strategy.assets], axis=2)  # (N+1, n, d)
    x = strategy.cash + np.einsum("tnd,tnd->tn", strategy.risky, prices)
    return AdaptedProcess(space, x)


def verify_self_financing(strategy: TradingStrategy) -> SelfFinancingReport:
    """Check that rebalancing at every step moves no cash in or out."""
    space, n = strategy.space, strategy.space.outcome_count
    prices = np.stack([a.values for a in strategy.assets], axis=2)
    tol = EQ_TOL * (1.0 + float(np.abs(prices).max()))
    # row m-1: the cash and holdings moved at time m-1, every step at once
    residual = (np.diff(strategy.cash, axis=0)
                + np.einsum("mnd,mnd->mn", np.diff(strategy.risky, axis=0), prices[:-1]))
    t, w = np.nonzero(np.abs(residual) > tol)
    cells = space.atom_index[t, w]
    # a time-t cell is read at its first outcome
    first = space.numbering.firsts[space.numbering.ids[t, w]] == t * n + w
    violations = tuple(map(SelfFinancingViolation, (t[first] + 1).tolist(), cells[first].tolist(),
                           residual[t, w][first].tolist()))
    return SelfFinancingReport(ok=not violations, violations=violations)


def asset_ratio_family(mset: MartingalePolytope):
    """Unit claims S^j_i / S^j_0 for every asset j and time i, with their index."""
    family = []
    index = []
    for j, asset in enumerate(mset.assets):
        s0 = asset.values[0, 0]
        if s0 == 0.0:
            raise ValidationError(f"asset {mset.asset_names[j]} starts at 0: it has no ratio "
                                  "claims S_i / S_0")
        for i in range(asset.space.horizon + 1):
            family.append(asset.values[i] / s0)
            index.append((j, i))
    return family, index


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
    compensator's.  "generated" prices over the asset-ratio family
    S^j_i / S^j_0, whose witness sum beta_{j,i} S^j_i / S^j_0 is a static
    hedge: at step m it holds sum over i >= m of beta_{j,i} / S^j_0 units of
    asset j.  Either way the strategy starts at the fair price, its capital
    is the price plus the gains of the holdings, and its terminal value
    dominates the claim pointwise with surplus equal to the terminal
    compensator.
    """
    if not isinstance(mset, MartingalePolytope):
        raise ValidationError("superhedging requires a martingale polytope")
    f_N = np.asarray(f_N, dtype=float)
    n, N, d = space.outcome_count, space.horizon, len(mset.assets)

    if price_mode == "full":
        x = _check_terminal_claim(space, f_N)
        M, holdings, q_star = mset.superhedge_capital(x)
        result = _certified(space, mset, x, float(M[0, 0]), M[-1], float(q_star @ x))
    elif price_mode == "generated":
        family, index = asset_ratio_family(mset)
        result = fair_price_generated(space, mset, family, f_N)
        units = np.zeros((N, d))
        for (j, i), beta in zip(index, result.weights):
            units[:i, j] += beta / mset.assets[j].values[0, 0]
        holdings = np.broadcast_to(units[:, None, :], (N, n, d))
    else:
        raise ValidationError(f"unknown price mode {price_mode!r}")

    prices = np.stack([a.values for a in mset.assets], axis=2)
    risky = np.zeros((N + 1, n, d))
    risky[1:] = holdings
    gains = np.einsum("tnd,tnd->tn", risky, np.diff(prices, axis=0, prepend=prices[:1]))
    capital = result.price + np.cumsum(gains, axis=0)
    cash = capital - np.einsum("tnd,tnd->tn", risky, prices)
    strategy = TradingStrategy(space=space, cash=cash, risky=risky, assets=mset.assets)

    g = np.zeros((N + 1, n))
    g[N] = capital[N] - f_N
    dec = Decomposition(martingale=AdaptedProcess(space, capital),
                        compensator=AdaptedProcess(space, g))
    return strategy, dec, result
