"""Fair prices of terminal claims relative to a measure family.

The fair price is the least alpha >= 0 admitting a unit claim zeta with
f_N <= alpha * E^P(zeta | F_N) on every terminal cell under every member
measure.  Writing eta = alpha * zeta turns the search into a single LP:
minimize alpha subject to eta >= 0, E^P(eta) = alpha for every member, and
the per-cell domination inequalities.  A second program prices over the
simplex spanned by a finite list of unit claims.  Closed forms for European
calls and puts against a price-band model are provided for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lp
from .errors import InfeasiblePricing, NotUnitClaim, ShapeMismatch, ValidationError
from .measures import MeasureSet, is_unit_claim
from .spaces import FilteredSpace
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
    t = space.horizon
    for c, cell in enumerate(space.cells[t]):
        if np.ptp(x[list(cell)]) > EQ_TOL:
            raise ValidationError(f"claim varies on terminal cell {c}")
    return x


def sup_expectation(space: FilteredSpace, mset: MeasureSet, f_N) -> float:
    """Largest expectation of the terminal payoff over the family."""
    x = np.asarray(f_N, dtype=float)
    if x.shape != (space.outcome_count,):
        raise ShapeMismatch("claim length must equal the outcome count")
    value, _ = mset.max_expectation(x)
    return float(value)


def _domination_rows(space: FilteredSpace, mset: MeasureSet, x: np.ndarray):
    """Rows P and bounds b, one per (dominator, terminal cell), such that
    eta dominates the terminal claim x under every member iff P @ eta >= b."""
    t = space.horizon
    cells = [space.cell_outcomes(t, c) for c in range(space.n_cells(t))]
    dominators = mset.domination_measures()
    P = np.zeros((len(dominators) * len(cells), space.outcome_count))
    bounds = np.empty(len(P))
    for i, p in enumerate(dominators):
        for j, idx in enumerate(cells):
            P[i * len(cells) + j, idx] = p[idx]
            bounds[i * len(cells) + j] = x[idx[0]] * p[idx].sum()
    return P, bounds


def _witness_check(space, mset, f_N, eta, price) -> BoundCheck:
    P, bounds = _domination_rows(space, mset, f_N)
    worst = float((bounds - P @ eta).max(initial=0.0))
    scale = 1.0 + float(np.abs(f_N).max()) + abs(price)
    return BoundCheck(ok=worst <= EQ_TOL * scale, max_violation=worst)


def fair_price_full(space: FilteredSpace, mset: MeasureSet, f_N) -> FairPriceResult:
    """Least alpha with f_N dominated by alpha times some unit claim's
    terminal conditional expectation, searched over all unit claims."""
    x = _check_terminal_claim(space, f_N)
    n = space.outcome_count
    functionals = mset.expectation_functionals()
    P, bounds = _domination_rows(space, mset, x)

    # variables: [alpha, eta_0 .. eta_{n-1}]
    cost = np.zeros(n + 1)
    cost[0] = 1.0
    A_eq = np.zeros((len(functionals), n + 1))
    for i, (w, kappa) in enumerate(functionals):
        A_eq[i, 0] = -kappa
        A_eq[i, 1:] = w
    A_ub = np.hstack([np.zeros((len(P), 1)), -P])
    res = _lp.solve(cost, A_ub=A_ub, b_ub=-bounds,
                    A_eq=A_eq, b_eq=np.zeros(len(functionals)), bounds=(0, None))
    if res.status == 2:
        raise InfeasiblePricing("no dominating unit claim exists; "
                                "this cannot happen for a bounded claim")
    if res.status != 0:
        raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")

    price = float(res.fun)
    eta = res.x[1:]
    zeta = eta / price if price > EQ_TOL else np.ones(n)
    return FairPriceResult(
        price=price,
        witness_claim=zeta,
        witness_bound=_witness_check(space, mset, x, eta, price),
        lower_bound=sup_expectation(space, mset, x),
    )


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
    P, bounds = _domination_rows(space, mset, x)
    res = _lp.solve(np.ones(len(claims)), A_ub=-(P @ C.T), b_ub=-bounds, bounds=(0, None))
    if res.status == 2:
        raise InfeasiblePricing(
            "claim family cannot dominate the payoff (it vanishes where the payoff is positive)"
        )
    if res.status != 0:
        raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")

    beta = res.x
    price = float(beta.sum())
    eta = np.zeros(space.outcome_count)
    for weight, xi in zip(beta, claims):
        eta += weight * xi
    zeta = eta / price if price > EQ_TOL else np.ones(space.outcome_count)
    return FairPriceResult(
        price=price,
        witness_claim=zeta,
        witness_bound=_witness_check(space, mset, x, eta, price),
        lower_bound=sup_expectation(space, mset, x),
        weights=beta,
    )


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
