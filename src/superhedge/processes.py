"""Super-martingale and martingale verdicts relative to a measure family,
plus the constructive processes built from unit claims.

A process f is a super-martingale for the family when
E^P(f_m | F_{m-1}) <= f_{m-1} holds on every cell for every member measure P,
and a martingale when equality holds.  Both verdicts read the per-cell gaps
the family reports for the whole process, given on its cells, in one
MeasureSet.gaps call, so nothing here depends on which kind of family it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotAdapted,
    NotNonincreasing,
    NotUnitClaim,
    ZeroInitialValue,
)
from .measures import MeasureSet, _nonnegative_claim, _unit_claim_cells, is_unit_claim
from .spaces import AdaptedProcess, FilteredSpace, at_cells, check_adapted
from .tolerances import EQ_TOL


@dataclass(frozen=True)
class StepViolation:
    time: int
    cell: int
    label: str
    gap: float


@dataclass(frozen=True)
class MartingaleReport:
    ok: bool
    equality: bool  # True when checked as a martingale, False for super-martingale
    violations: tuple[StepViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


def _as_process(space: FilteredSpace, f) -> AdaptedProcess:
    return f if isinstance(f, AdaptedProcess) else AdaptedProcess(space, f)


def _step_report(space: FilteredSpace, mset: MeasureSet, f, equality: bool) -> MartingaleReport:
    proc = _as_process(space, f)
    labels, gaps = mset.gaps(proc.cells, equality)
    over = gaps > EQ_TOL * (1.0 + float(np.abs(proc.cells).max()))
    if not over.any():
        return MartingaleReport(ok=True, equality=equality, violations=())
    label, node = np.nonzero(over)
    t, c = space.numbering.locate(node)              # a time-t cell's gap is step t + 1's
    order = np.lexsort((node, label, t))             # step, then label, then cell
    t, c, label, node = t[order], c[order], label[order], node[order]
    violations = tuple(map(StepViolation, (t + 1).tolist(), c.tolist(),
                           [labels[i] for i in label.tolist()], gaps[label, node].tolist()))
    return MartingaleReport(ok=False, equality=equality, violations=violations)


def is_supermartingale(space: FilteredSpace, mset: MeasureSet, f) -> MartingaleReport:
    """Check E^P(f_m | F_{m-1}) <= f_{m-1} + tol for every member measure."""
    return _step_report(space, mset, f, equality=False)


def is_martingale(space: FilteredSpace, mset: MeasureSet, f) -> MartingaleReport:
    """Check E^P(f_m | F_{m-1}) = f_{m-1} within tol for every member measure."""
    return _step_report(space, mset, f, equality=True)


def ess_sup_process(space: FilteredSpace, mset: MeasureSet, xi) -> AdaptedProcess:
    """The process of per-cell suprema of E^P(xi | F_t) over the family,
    every cell's from one call to the family (one backward pass on a
    polytope)."""
    return AdaptedProcess.on_cells(space, mset.ess_sup_cells(_nonnegative_claim(space, xi)))


def unit_claim_martingale(space: FilteredSpace, mset: MeasureSet, xi0) -> AdaptedProcess:
    """Conditional-expectation martingale of a unit claim.

    Fails with MeasureDependent when the conditional expectations are not the
    same under every member measure (the defining property of the family this
    construction is valid for).
    """
    return AdaptedProcess.on_cells(space, _unit_claim_cells(space, mset, xi0))


@dataclass(frozen=True)
class KTerm:
    """One building block C * weight_m * E(claim | F_m) of the weighted class."""

    claim: np.ndarray          # unit claim, one value per outcome
    weights: np.ndarray        # (N+1, n) adapted, pathwise nonincreasing
    coefficient: float = 1.0


def class_k_supermartingale(space: FilteredSpace, mset: MeasureSet, terms) -> AdaptedProcess:
    """Nonnegative combination sum_i C_i * f_i,m * E(xi_i | F_m).

    Each weight process must be adapted and pathwise nonincreasing and each
    claim a unit claim; the result is then a super-martingale for the family
    admitting an explicit compensator.
    """
    total = np.zeros(space.numbering.offsets[-1])
    for i, term in enumerate(terms):
        if term.coefficient < 0:
            raise ValueError(f"term {i}: coefficient must be nonnegative")
        weights = np.asarray(term.weights, dtype=float)
        report = check_adapted(space, weights)
        if not report.ok:
            raise NotAdapted(f"term {i}: weights not adapted at {report.violations[:4]}")
        steps = weights[1:] - weights[:-1]
        if steps.size and steps.max() > EQ_TOL:
            raise NotNonincreasing(f"term {i}: weights increase by {steps.max():.3e}")
        unit = _unit_claim_cells(space, mset, term.claim)
        total += term.coefficient * at_cells(space, weights) * unit
    if not np.isfinite(total).all():
        raise NotAdapted("process values must be finite")
    return AdaptedProcess.on_cells(space, total)


def k_representation(space: FilteredSpace, mset: MeasureSet, f, dec) -> list[KTerm]:
    """Rebuild a decomposed nonnegative super-martingale from two weighted terms.

    Term one carries the martingale through the claim (f_N + g_N) / f_0 with
    the constant weight f_0; term two removes the compensator through the
    constant claim 1 with weights -g.  Their sum reproduces f.
    """
    proc = _as_process(space, f)
    values = proc.values
    if values.min() < -EQ_TOL:
        raise ValueError("representation requires a nonnegative process")
    f0 = float(values[0, 0])
    if f0 <= EQ_TOL:
        raise ZeroInitialValue("initial value must be strictly positive")

    from .decomposition import _validated  # local import, no cycle at module load
    _validated(space, mset, proc, dec)

    g = dec.compensator.values
    claim1 = (values[-1] + g[-1]) / f0
    if not is_unit_claim(space, mset, claim1):
        raise NotUnitClaim("terminal (f_N + g_N) / f_0 is not a unit claim for this family")
    return [KTerm(claim=claim1, weights=np.full_like(values, f0)),
            KTerm(claim=np.ones(space.outcome_count), weights=-g)]
