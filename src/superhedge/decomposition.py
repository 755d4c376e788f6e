"""Optional decomposition of super-martingales relative to a measure family.

Two routes are provided.  The feasibility witness asks the family for a
nonnegative F_m-measurable increment g0_m at every step m with

    f_{m-1} - E^P(f_m | F_{m-1}) = E^P(g0_m | F_{m-1})   for every member P,

which exists iff f = M - g with M a martingale for the whole family and g
nondecreasing from zero.  The family answers for every step in one call
(MeasureSet.compensator): on a hull the conditional mean on each cell with
one child and one block-diagonal LP for the other cells of every step, one
pass over the nodes on a martingale polytope.  The constructive route
applies to complete measure families: each step's ratio f_n / f_{n-1} is
normalized by its largest expectation over the family, every step's from
one ess_sup_cells call on the stack of ratios, and dominated by a step claim
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
from .measures import MeasureSet, _unit_claim_cells, increment_process
from .processes import _as_process, is_martingale, is_supermartingale
from .spaces import AdaptedProcess, FilteredSpace, cell_ranges, cell_reps, path_sums
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


def validate_decomposition(space: FilteredSpace, mset: MeasureSet, f,
                           dec: Decomposition) -> DecompositionReport:
    proc, num = _as_process(space, f), space.numbering
    scale = 1.0 + float(np.abs(proc.cells).max())
    g = dec.compensator.cells
    reconstruction = float(np.abs(proc.cells - (dec.martingale.cells - g)).max())
    g0 = float(abs(g[0]))
    min_step = float((g[num.offsets[1]:] - g[num.parents]).min())
    mart_ok = bool(is_martingale(space, mset, dec.martingale))
    ok = (
        reconstruction <= EQ_TOL * scale
        and g0 <= EQ_TOL * scale
        and min_step >= -EQ_TOL * scale
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
    """Decompose a super-martingale through the family in one call.

    The family gives the compensator steps for the drops f_{m-1} - f_m of
    every step at once (MeasureSet.compensator): each nonnegative,
    F_m-measurable, with its drop's conditional expectation under every
    member, and of least sum over each cell's children.  The compensator is
    their running sum and the martingale f + g.  A step with no such
    increment proves no decomposition exists and raises Infeasible.
    """
    proc, num = _as_process(space, f), space.numbering
    _require_supermartingale(space, mset, proc)
    scale = 1.0 + float(np.abs(proc.cells).max())
    drops = proc.cells[num.parents] - proc.cells[num.offsets[1]:]
    g = path_sums(space, mset.compensator(drops, scale))
    dec = Decomposition(martingale=AdaptedProcess.on_cells(space, proc.cells + g),
                        compensator=AdaptedProcess.on_cells(space, g))
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
    d = increment_process(space, mset, xi0)[n - 1]
    ratio = np.asarray(ratio, dtype=float)
    varies = np.flatnonzero(cell_ranges(space, n, ratio) > EQ_TOL)
    if varies.size:
        raise ValueError(f"ratio vector varies on time-{n} cell {varies[0]}")
    return _alpha(n, d, ratio[cell_reps(space, n)])


def _alpha(n: int, d: np.ndarray, fvals: np.ndarray) -> float:
    """alpha_coefficient given the time-n increments d of the unit claim and
    the ratio fvals, both on the time-n cells."""
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
    largest expectation over the family, every step's from one ess_sup_cells
    call on the stack of ratios, and dominated by the step claim
    1 + alpha_n d_n, and the martingale accumulates f_{n-1} (claim_n - 1)
    increments.  Incompleteness surfaces as IncompletenessDetected from the
    per-step domination scan.
    """
    proc, num = _as_process(space, f), space.numbering
    _require_supermartingale(space, mset, proc)

    # on the cells of times 1..N, each against its parent
    unit, offsets, parents = _unit_claim_cells(space, mset, xi0), num.offsets, num.parents
    increments = unit[offsets[1]:] - unit[parents]
    shift = max(0.0, -float(proc.cells.min())) + 1.0
    shifted = proc.cells + shift
    ratios = shifted[offsets[1]:] / shifted[parents]
    sup_exps = mset.ess_sup_cells(ratios[num.ids[1:] - offsets[1]])[:, 0]

    claims, step_g = np.empty_like(ratios), np.empty_like(ratios)
    tol = EQ_TOL * (1.0 + abs(shift) + float(np.abs(proc.cells).max()))
    for n in range(1, space.horizon + 1):
        level = slice(offsets[n] - offsets[1], offsets[n + 1] - offsets[1])
        alpha = _alpha(n, increments[level], ratios[level] / sup_exps[n - 1])
        claims[level] = 1.0 + alpha * increments[level]
        step_g[level] = (-shifted[offsets[n]:offsets[n + 1]]
                         + shifted[parents[level]] * claims[level])
        if step_g[level].min() < -tol:
            c = int(np.argmin(step_g[level]))
            raise IncompletenessDetected(
                f"ratio condition fails at step {n} (step compensator {step_g[level][c]:.3e})",
                time=n,
                cell=c,
            )

    dec = Decomposition(
        martingale=AdaptedProcess.on_cells(
            space, path_sums(space, shifted[parents] * (claims - 1.0), shifted[0]) - shift),
        compensator=AdaptedProcess.on_cells(space, path_sums(space, step_g)),
        step_claims=tuple(claims[num.ids[n] - offsets[1]] for n in range(1, space.horizon + 1)),
        shift=shift,
    )
    return _validated(space, mset, proc, dec)
