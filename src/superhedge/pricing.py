"""Fair prices of terminal claims relative to a measure family.

The fair price is the least alpha >= 0 admitting a unit claim zeta with
f_N <= alpha * E^P(zeta | F_N) on every terminal cell under every member
measure.  With eta = alpha * zeta the family answers the full search itself
(MeasureSet.dominating_claim) with a lower bound: a generator hull by one
LP and its largest generator expectation, a martingale polytope by one
backward induction, its least superhedge's time-0 value and terminal
capital, and E^{Q*} f_N for the checked member Q* attaining that value.  A
second program, an LP, prices over the simplex spanned by a finite list of
unit claims, the solver given only the domination rows that beta >= 0 does
not already meet, and takes sup E^P f_N (sup_expectation) as its bound.
Both end in one shared certified tail: the witness is normalized into a
unit claim and checked against all of the family's domination rows
(MeasureSet.domination_rows).  Closed forms for European calls and puts
against a price-band model are provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lp
from .errors import InfeasiblePricing, NotUnitClaim, ValidationError
from .measures import MeasureSet, _claim_vector, _nonnegative_claim, is_unit_claim
from .spaces import FilteredSpace, cell_ranges
from .tolerances import EQ_TOL


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    max_violation: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class FairPriceResult:
    price: float
    witness_claim: np.ndarray        # unit claim certifying the price
    witness_bound: BoundCheck        # f_N <= price * E(witness | F_N), per cell
    lower_bound: float               # sup of E^P f_N over the family
    weights: np.ndarray | None = None  # simplex weights when priced over a family


def _check_terminal_claim(space: FilteredSpace, f_N) -> np.ndarray:
    x = _nonnegative_claim(space, f_N)
    varies = np.flatnonzero(cell_ranges(space, space.horizon, x) > EQ_TOL)
    if varies.size:
        raise ValidationError(f"claim varies on terminal cell {varies[0]}")
    return x


def sup_expectation(space: FilteredSpace, mset: MeasureSet, f_N) -> float:
    """Largest expectation of the terminal payoff over the family: the time-0
    entry of the family's per-cell sups, with no attaining measure built."""
    return float(mset.ess_sup_cells(_claim_vector(space, f_N))[0])


def _dominated(P, eta):
    """P @ eta for domination rows P, where None stands for the identity."""
    return eta if P is None else P @ eta


def _witness_check(mset, f_N, eta, price) -> BoundCheck:
    P, bounds = mset.domination_rows(f_N)
    worst = float((bounds - _dominated(P, eta)).max(initial=0.0))
    scale = 1.0 + float(np.abs(f_N).max()) + abs(price)
    return BoundCheck(ok=worst <= EQ_TOL * scale, max_violation=worst)


def fair_price_full(space: FilteredSpace, mset: MeasureSet, f_N) -> FairPriceResult:
    """Least alpha with f_N dominated by alpha times some unit claim's
    terminal conditional expectation, searched over all unit claims."""
    x = _check_terminal_claim(space, f_N)
    return _certified(space, mset, x, *mset.dominating_claim(x))


def fair_price_generated(space: FilteredSpace, mset: MeasureSet, family, f_N) -> FairPriceResult:
    """Least price over the simplex spanned by the given unit claims, each
    checked as a claim (_claim_vector), then all judged unit claims in one
    stacked call (is_unit_claim); NotUnitClaim names the first that is not.

    With beta_i >= 0 the program minimizes sum(beta) subject to
    sum_i beta_i E^P(xi_i | F_N) >= f_N per terminal cell and member measure;
    the witness claim is the normalized combination sum beta_i xi_i / price.
    A domination row with no positive bound and no negative coefficient
    holds for every beta >= 0, so the solver gets only the other rows: a
    call or a put drops the rows where it pays nothing.  The witness is
    still checked against every row.  HiGHS solves this program without
    presolve, so where the optimal weights are not unique it may return
    other weights than a presolved solve, at the same price.
    """
    x = _check_terminal_claim(space, f_N)
    claims = [_claim_vector(space, xi) for xi in family]
    if not claims:
        raise ValidationError("the claim family must not be empty")
    C = np.array(claims)  # claims x outcomes
    unit = is_unit_claim(space, mset, C)
    if not unit.all():
        raise NotUnitClaim(f"family member {int(np.argmin(unit))} is not a unit claim")
    return _family_price(space, mset, C, x)


def _family_price(space: FilteredSpace, mset: MeasureSet, C: np.ndarray,
                  x: np.ndarray) -> FairPriceResult:
    """fair_price_generated's tail, for a family C (claims, outcomes) already
    judged unit claims and the checked terminal claim x: the pricing LP, its
    witness and the certified result."""
    P, bounds = mset.domination_rows(x)
    rows = _dominated(P, C.T)
    binds = (bounds > 0.0) | (rows < 0.0).any(axis=1)
    # a few dense columns: presolve reduces nothing and costs HiGHS 3-4x the solve
    res = _lp.solve(np.ones(len(C)), A_ub=-rows[binds], b_ub=-bounds[binds],
                    bounds=(0, None), presolve=False)
    if res.status == 2:
        raise InfeasiblePricing("claim family cannot dominate the payoff "
                                "(it vanishes where the payoff is positive)")
    if res.status != 0:
        raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")
    return _certified(space, mset, x, float(res.x.sum()),
                      sum(b * xi for b, xi in zip(res.x, C)),
                      sup_expectation(space, mset, x), res.x)


def _certified(space, mset, x, price: float, eta, lower_bound: float,
               weights=None) -> FairPriceResult:
    """Shared tail of both programs: the price, its dominating claim eta and
    the lower bound become the certified result, for the checked claim x."""
    zeta = eta / price if price > EQ_TOL else np.ones(space.outcome_count)
    return FairPriceResult(price, zeta, _witness_check(mset, x, eta, price), lower_bound, weights)


def euro_call_price(S0: float, D_N2: float, K: float) -> float:
    """Worst-case European call price against the band [.., D_N2] at maturity.

    S0 * (1 - K / D_N2) when the strike is inside the band, zero above it.
    """
    if S0 <= 0:
        raise ValueError("initial price must be positive")
    if D_N2 <= 0:
        raise ValueError("terminal upper bound must be positive")
    if K > D_N2:
        return 0.0
    return S0 * (1.0 - K / D_N2)


def euro_put_price(D_N1: float, K: float) -> float:
    """Worst-case European put price against the band [D_N1, ..] at maturity.

    K - D_N1 when the strike is at or above the lower bound, zero below it.
    """
    if D_N1 <= 0:
        raise ValueError("terminal lower bound must be positive")
    if K < D_N1:
        return 0.0
    return K - D_N1
