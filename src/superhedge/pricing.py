"""Fair prices of terminal claims relative to a measure family.

The fair price is the least alpha >= 0 admitting a unit claim zeta with
f_N <= alpha * E^P(zeta | F_N) on every terminal cell under every member
measure.  With eta = alpha * zeta the family answers the full search itself
(MeasureSet.dominating_claim): a generator hull by one LP over its
generators, a martingale polytope by the least superhedge, its envelope's
time-0 value and terminal capital from one backward pass.  A second
program, an LP, prices over the simplex spanned by a finite list of unit
claims.  Both end in one shared certified tail: the witness is normalized
into a unit claim and checked against the family's domination rows
(MeasureSet.domination_rows), and the lower bound sup E^P f_N is the
family's cond_exp_sup at time 0.  Closed forms for European calls and puts
against a price-band model are provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lp
from .errors import InfeasiblePricing, NotUnitClaim, ShapeMismatch, ValidationError
from .measures import MeasureSet, is_unit_claim
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
    x = np.asarray(f_N, dtype=float)
    if x.shape != (space.outcome_count,):
        raise ShapeMismatch("claim length must equal the outcome count")
    if x.min() < -EQ_TOL:
        raise ValidationError("claim must be nonnegative")
    varies = np.flatnonzero(cell_ranges(space, space.horizon, x) > EQ_TOL)
    if varies.size:
        raise ValidationError(f"claim varies on terminal cell {varies[0]}")
    return x


def sup_expectation(space: FilteredSpace, mset: MeasureSet, f_N) -> float:
    """Largest expectation of the terminal payoff over the family: the
    family's per-cell sup at time 0."""
    x = np.asarray(f_N, dtype=float)
    if x.shape != (space.outcome_count,):
        raise ShapeMismatch("claim length must equal the outcome count")
    return float(mset.cond_exp_sup(x, 0).values[0])


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
    """Least price over the simplex spanned by the given unit claims.

    With beta_i >= 0 the program minimizes sum(beta) subject to
    sum_i beta_i E^P(xi_i | F_N) >= f_N per terminal cell and member measure;
    the witness claim is the normalized combination sum beta_i xi_i / price.
    """
    x = _check_terminal_claim(space, f_N)
    claims = [np.asarray(xi, dtype=float) for xi in family]
    if not claims:
        raise ValidationError("the claim family must not be empty")
    for i, xi in enumerate(claims):
        if not is_unit_claim(space, mset, xi):
            raise NotUnitClaim(f"family member {i} is not a unit claim")

    C = np.array(claims)  # claims x outcomes
    P, bounds = mset.domination_rows(x)
    res = _lp.solve(np.ones(len(claims)), A_ub=-_dominated(P, C.T), b_ub=-bounds,
                    bounds=(0, None))
    if res.status == 2:
        raise InfeasiblePricing("claim family cannot dominate the payoff "
                                "(it vanishes where the payoff is positive)")
    if res.status != 0:
        raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")
    return _certified(space, mset, x, float(res.x.sum()),
                      sum(b * xi for b, xi in zip(res.x, claims)), res.x)


def _certified(space, mset, x, price: float, eta, weights=None) -> FairPriceResult:
    """Shared tail of both programs: the price and its dominating claim eta
    become the certified result, for the checked terminal claim x."""
    zeta = eta / price if price > EQ_TOL else np.ones(space.outcome_count)
    return FairPriceResult(price, zeta, _witness_check(mset, x, eta, price),
                           sup_expectation(space, mset, x), weights)


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
