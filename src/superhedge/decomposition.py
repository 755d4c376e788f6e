"""Optional decomposition of super-martingales relative to a measure family.

Two routes are provided.  The feasibility witness asks the family, per step
m, for a nonnegative F_m-measurable increment g0_m with

    f_{m-1} - E^P(f_m | F_{m-1}) = E^P(g0_m | F_{m-1})   for every member P,

which exists iff f = M - g with M a martingale for the whole family and g
nondecreasing from zero (MeasureSet.compensator_increments: on a hull the
conditional mean on each cell with one child and one block-diagonal LP per
step for the other cells, one pass over the nodes on a martingale
polytope).  The constructive route applies to complete measure families:
each step's ratio f_n / f_{n-1} is normalized and dominated by a step claim
1 + alpha_n d_n built from a unit-claim increment, from which the
martingale and compensator follow in closed form.

Both routes start with the same super-martingale guard and end in
validate_decomposition: a result that fails its reconstruction, its
compensator or its martingale test under every member raises
InvalidDecomposition instead of being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompletenessDetected,
    InvalidDecomposition,
    NotSupermartingale,
)
from .measures import MeasureSet, increment_process
from .processes import _as_process, is_martingale, is_supermartingale
from .spaces import AdaptedProcess, FilteredSpace, cell_ranges, cell_reps
from .tolerances import EQ_TOL


@dataclass(frozen=True, eq=False)
class Decomposition:
    """f = martingale - compensator with compensator nondecreasing from zero."""

    martingale: AdaptedProcess
    compensator: AdaptedProcess
    step_claims: tuple[np.ndarray, ...] | None = None  # per step, outcome rows
    shift: float = 0.0  # constant added to f before a ratio-based construction


@dataclass(frozen=True)
class DecompositionReport:
    ok: bool
    reconstruction_error: float
    initial_compensator: float
    min_step: float
    martingale_ok: bool

    def __bool__(self) -> bool:
        return self.ok

    def error(self) -> InvalidDecomposition:
        return InvalidDecomposition(
            f"decomposition invalid: reconstruction error {self.reconstruction_error:.3e}, "
            f"g_0 = {self.initial_compensator:.3e}, min step {self.min_step:.3e}, "
            f"martingale ok = {self.martingale_ok}"
        )


def validate_decomposition(
    space: FilteredSpace, mset: MeasureSet, f, dec: Decomposition, tol: float = EQ_TOL
) -> DecompositionReport:
    proc = _as_process(space, f)
    scale = 1.0 + float(np.abs(proc.values).max())
    m_vals = dec.martingale.values
    g_vals = dec.compensator.values
    reconstruction = float(np.abs(proc.values - (m_vals - g_vals)).max())
    g0 = float(np.abs(g_vals[0]).max())
    min_step = float((g_vals[1:] - g_vals[:-1]).min()) if space.horizon else 0.0
    mart_ok = bool(is_martingale(space, mset, dec.martingale))
    ok = (
        reconstruction <= tol * scale
        and g0 <= tol
        and min_step >= -tol * scale
        and mart_ok
    )
    return DecompositionReport(ok, reconstruction, g0, min_step, mart_ok)


def _require_supermartingale(space: FilteredSpace, mset: MeasureSet, proc) -> None:
    report = is_supermartingale(space, mset, proc)
    if not report.ok:
        v = report.violations[0]
        raise NotSupermartingale(
            f"not a super-martingale at time {v.time}, cell {v.cell} (gap {v.gap:.3e})",
            report=report,
        )


def _validated(space: FilteredSpace, mset: MeasureSet, proc, dec: Decomposition) -> Decomposition:
    """Self-check shared by both routes: raise InvalidDecomposition unless
    validate_decomposition accepts dec."""
    report = validate_decomposition(space, mset, proc, dec)
    if not report.ok:
        raise report.error()
    return dec


def local_regular_witness(space: FilteredSpace, mset: MeasureSet, f) -> Decomposition:
    """Decompose a super-martingale step by step through the family.

    Each step m takes the compensator increment the family gives for the
    drop f_{m-1} - f_m (MeasureSet.compensator_increments): nonnegative,
    F_m-measurable, with the drop's conditional expectation under every
    member, and of least sum over each cell's children.  The compensator is
    their running sum and the martingale f + g.  A step with no such
    increment proves no decomposition exists and raises Infeasible.
    """
    proc = _as_process(space, f)
    _require_supermartingale(space, mset, proc)
    scale = 1.0 + float(np.abs(proc.values).max())
    steps = [
        mset.compensator_increments(proc.values[m - 1] - proc.values[m], m - 1, scale)
        for m in range(1, space.horizon + 1)
    ]
    g = np.cumsum([np.zeros(space.outcome_count)] + steps, axis=0)
    dec = Decomposition(
        martingale=AdaptedProcess(space, proc.values + g),
        compensator=AdaptedProcess(space, g),
        step_claims=None,
        shift=0.0,
    )
    return _validated(space, mset, proc, dec)


def alpha_coefficient(space: FilteredSpace, mset: MeasureSet, xi0, n: int, ratio) -> float:
    """Scale factor alpha_n dominating a normalized time-n vector by 1 + alpha d_n.

    ratio must be F_n-measurable, nonnegative, and normalized so its largest
    expectation over the family is at most one.  alpha is the minimum of
    (1 - ratio_i) / (-d_i) over cells with strictly negative increment (the
    smallest such cell index attains it); when no increment is negative the
    vector must already sit below one and alpha is zero.  A failed domination
    scan means the family is not complete for xi0.
    """
    if not 1 <= n <= space.horizon:
        raise IndexError(f"time {n} out of range 1..{space.horizon}")
    return _alpha(space, n, increment_process(space, mset, xi0)[n - 1], ratio)


def _alpha(space: FilteredSpace, n: int, d: np.ndarray, ratio) -> float:
    """alpha_coefficient given the time-n increments d of the unit claim."""
    ratio = np.asarray(ratio, dtype=float)
    varies = np.flatnonzero(cell_ranges(space, n, ratio) > EQ_TOL)
    if varies.size:
        raise ValueError(f"ratio vector varies on time-{n} cell {varies[0]}")
    fvals = ratio[cell_reps(space, n)]
    if fvals.min() < -EQ_TOL:
        raise ValueError("ratio vector must be nonnegative")

    negative = d < -EQ_TOL
    if not negative.any():
        if fvals.max() <= 1.0 + EQ_TOL:
            return 0.0
        c = int(np.argmax(fvals))
        raise IncompletenessDetected(
            f"increments vanish at step {n} but the normalized ratio exceeds one "
            f"on cell {c} ({fvals[c]:.12g})",
            time=n,
            cell=c,
        )

    candidates = (1.0 - fvals[negative]) / (-d[negative])
    alpha = float(candidates.min())
    bound = 1.0 + alpha * d
    slack = fvals - bound
    if slack.max() > EQ_TOL:
        c = int(np.argmax(slack))
        raise IncompletenessDetected(
            f"domination scan fails at step {n}, cell {c}: "
            f"ratio {fvals[c]:.12g} > bound {bound[c]:.12g}",
            time=n,
            cell=c,
        )
    return alpha


def optional_decomposition_complete(
    space: FilteredSpace, mset: MeasureSet, xi0, f
) -> Decomposition:
    """Constructive decomposition for a complete measure family.

    The process is shifted to be >= 1, each step ratio is normalized by its
    largest expectation over the family and dominated by the step claim
    1 + alpha_n d_n, and the martingale accumulates f_{n-1} (claim_n - 1)
    increments.  Incompleteness surfaces as IncompletenessDetected from the
    per-step domination scan.
    """
    proc = _as_process(space, f)
    _require_supermartingale(space, mset, proc)

    increments = increment_process(space, mset, xi0)
    shift = max(0.0, -float(proc.values.min())) + 1.0
    shifted = proc.values + shift

    n_out = space.outcome_count
    claims: list[np.ndarray] = []
    gbar = np.zeros((space.horizon, n_out))
    mart = np.zeros((space.horizon + 1, n_out))
    mart[0] = shifted[0]
    for n in range(1, space.horizon + 1):
        ratio = shifted[n] / shifted[n - 1]
        sup_exp = mset.cond_exp_sup(ratio, 0).values[0]
        normalized = ratio / sup_exp
        alpha = _alpha(space, n, increments[n - 1], normalized)
        d_row = np.empty(n_out)
        for c, cell in enumerate(space.cells[n]):
            d_row[list(cell)] = increments[n - 1][c]
        claim = 1.0 + alpha * d_row
        claims.append(claim)
        step_g = -shifted[n] + shifted[n - 1] * claim
        if step_g.min() < -EQ_TOL * (1.0 + abs(shift) + float(np.abs(proc.values).max())):
            c = int(space.atom_index[n, int(np.argmin(step_g))])
            raise IncompletenessDetected(
                f"ratio condition fails at step {n} (step compensator {step_g.min():.3e})",
                time=n,
                cell=c,
            )
        gbar[n - 1] = step_g
        mart[n] = mart[n - 1] + shifted[n - 1] * (claim - 1.0)

    g = np.vstack([np.zeros(n_out), np.cumsum(gbar, axis=0)])
    dec = Decomposition(
        martingale=AdaptedProcess(space, mart - shift),
        compensator=AdaptedProcess(space, g),
        step_claims=tuple(claims),
        shift=shift,
    )
    return _validated(space, mset, proc, dec)
