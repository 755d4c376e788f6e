"""Martingale representation against traded assets and superhedging strategies.

A self-financed strategy holds cash and asset positions chosen one step
ahead; rebalancing moves no money in or out.  The superhedge of a terminal
claim takes its capital martingale either from the polytope's least
superhedge (full search: the claim's envelope plus its compensator, whose
time-0 value is the price) or from a price over the asset family (exact
stopped asset paths), represents its increments in the traded assets (one
batched projection per group of tree nodes, through the polytope's
hedge_ratios), and reads the cash leg off the capital identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import Decomposition
from .errors import NoRepresentation, NotMartingale, NotPredictable, ShapeMismatch, ValidationError
from .measures import MartingalePolytope
from .pricing import FairPriceResult, _certified, _check_terminal_claim, fair_price_generated
from .processes import is_martingale
from .spaces import AdaptedProcess, FilteredSpace, PredictableProcess, cell_ranges, cell_reps
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
        if risky.shape[:2] != (N + 1, n) or risky.shape[2] != len(self.assets):
            raise ShapeMismatch(f"risky must have shape {(N + 1, n, len(self.assets))}")
        # the cash leg is capital minus holdings times prices, so it carries
        # residuals that grow with its own size; holdings are compared as is
        cash_tol = EQ_TOL * (1.0 + float(np.abs(cash).max()))
        for m in range(N + 1):
            t = max(m - 1, 0)
            varies = np.flatnonzero(
                (cell_ranges(self.space, t, cash[m]) > cash_tol)
                | (cell_ranges(self.space, t, risky[m]).max(axis=1) > EQ_TOL)
            )
            if varies.size:
                raise NotPredictable(f"time-{m} holdings vary on time-{t} cell {varies[0]}")

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def martingale_representation(
    space: FilteredSpace, mset: MartingalePolytope, mprocess: AdaptedProcess
) -> PredictableProcess:
    """Predictable asset holdings H with M_m = M_0 + sum <H_i, dS_i>.

    At each node the holdings are the least-squares projection of the
    increments towards its children onto the asset moves, taken for every
    node of a group at once (MartingalePolytope.hedge_ratios); a residual
    above tolerance means the increment lies outside the span of the asset
    increments there.
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

    holdings, residuals = mset.hedge_ratios(mprocess.values)
    scale = 1.0 + float(np.abs(mprocess.values).max())
    for m, miss in enumerate(residuals, start=1):
        bad = np.flatnonzero(miss > EQ_TOL * scale)
        if bad.size:
            c = int(bad[0])
            residual = float(miss[c])
            raise NoRepresentation(
                f"martingale increment not spanned by asset increments at "
                f"time {m}, cell {c} (residual {residual:.3e})",
                time=m,
                cell=c,
                residual=residual,
            )
    return PredictableProcess(space, holdings)


def strategy_capital(strategy: TradingStrategy) -> AdaptedProcess:
    """Mark-to-market value cash_m + <holdings_m, S_m> of the strategy."""
    space = strategy.space
    prices = np.stack([a.values for a in strategy.assets], axis=2)  # (N+1, n, d)
    x = strategy.cash + np.einsum("tnd,tnd->tn", strategy.risky, prices)
    return AdaptedProcess(space, x)


def verify_self_financing(strategy: TradingStrategy) -> SelfFinancingReport:
    """Check that rebalancing at every step moves no cash in or out."""
    space = strategy.space
    prices = np.stack([a.values for a in strategy.assets], axis=2)
    tol = EQ_TOL * (1.0 + float(np.abs(prices).max()))
    violations = []
    for m in range(1, space.horizon + 1):
        dcash = strategy.cash[m] - strategy.cash[m - 1]
        dhold = strategy.risky[m] - strategy.risky[m - 1]
        residual = (dcash + np.einsum("nd,nd->n", dhold, prices[m - 1]))[cell_reps(space, m - 1)]
        violations.extend(SelfFinancingViolation(m, int(c), float(residual[c]))
                          for c in np.flatnonzero(np.abs(residual) > tol))
    return SelfFinancingReport(ok=not violations, violations=tuple(violations))


def _capital_martingale_generated(space, mset, family_index, result: FairPriceResult) -> AdaptedProcess:
    """Exact capital martingale for a witness spanned by asset-ratio claims.

    E(S_i / S_0 | F_m) = S_min(i, m) / S_0 for a traded asset, so the capital
    is a weighted sum of stopped asset paths; no solver noise enters.
    """
    rows = np.zeros((space.horizon + 1, space.outcome_count))
    for (j, i), beta in zip(family_index, result.weights):
        asset = mset.assets[j].values
        s0 = asset[0, 0]
        for m in range(space.horizon + 1):
            rows[m] += beta * asset[min(i, m)] / s0
    rows[0] = result.price
    return AdaptedProcess(space, rows)


def asset_ratio_family(mset: MartingalePolytope):
    """Unit claims S^j_i / S^j_0 for every asset j and time i, with their index."""
    family = []
    index = []
    for j, asset in enumerate(mset.assets):
        s0 = asset.values[0, 0]
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

    price_mode "full" searches all unit claims, and the capital is the
    least superhedge (MartingalePolytope.superhedge_capital): the claim's
    envelope plus its compensator, whose time-0 value is the price and
    whose terminal value is the witness mass.  "generated" prices
    over the asset-ratio family S^j_i / S^j_0, and the capital is the exact
    weighted sum of stopped asset paths.  The strategy starts at the fair
    price, its capital is the witness martingale, and its terminal value
    dominates the claim pointwise with surplus equal to the terminal
    compensator.
    """
    if not isinstance(mset, MartingalePolytope):
        raise ValidationError("superhedging requires a martingale polytope")
    f_N = np.asarray(f_N, dtype=float)

    if price_mode == "full":
        x = _check_terminal_claim(space, f_N)
        capital = AdaptedProcess(space, mset.superhedge_capital(x))
        result = _certified(space, mset, x, float(capital.values[0, 0]), capital.values[-1])
    elif price_mode == "generated":
        family, index = asset_ratio_family(mset)
        result = fair_price_generated(space, mset, family, f_N)
        capital = _capital_martingale_generated(space, mset, index, result)
    else:
        raise ValidationError(f"unknown price mode {price_mode!r}")

    holdings = martingale_representation(space, mset, capital)

    n, N, d = space.outcome_count, space.horizon, len(mset.assets)
    prices = np.stack([a.values for a in mset.assets], axis=2)
    risky = np.zeros((N + 1, n, d))
    cash = np.zeros((N + 1, n))
    cash[0] = result.price
    risky[1:] = holdings.values
    cash[1:] = capital.values[1:] - np.einsum("tnd,tnd->tn", risky[1:], prices[1:])
    strategy = TradingStrategy(space=space, cash=cash, risky=risky, assets=mset.assets)

    g = np.zeros((N + 1, n))
    g[N] = capital.values[N] - f_N
    dec = Decomposition(
        martingale=capital,
        compensator=AdaptedProcess(space, g),
        step_claims=None,
        shift=0.0,
    )
    return strategy, dec, result
