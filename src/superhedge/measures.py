"""Convex families of equivalent measures on a finite filtered space.

Every family implements one contract, MeasureSet, and no other module tells
the families apart.  Two concrete families are supported:

* GeneratorHull -- the convex hull of finitely many strictly positive
  measures.  Conditional expectations under any hull member are positively
  weighted averages of the generator conditionals, so per-cell extrema over
  the family reduce to extrema over the generators.

* MartingalePolytope -- all strictly positive measures making the listed
  asset processes martingales.  The family is an open face of the polyhedron
  {q >= 0, asset equalities, total mass 1}; suprema of linear and
  linear-fractional functionals over its closure are computed by LP, and an
  identity that must hold under every member is a linear test on the
  affine hull (an interior member and the null space of the equalities).

Claims with expectation one under every member measure ("unit claims") play
the role of normalized state-price densities.  Their conditional-expectation
martingales, increments, two-point completion measures and the completeness
test live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from . import _lp
from .errors import (
    InvalidMeasure,
    MeasureDependent,
    NoEquivalentMartingaleMeasure,
    NotUnitClaim,
    ShapeMismatch,
)
from .spaces import AdaptedProcess, FilteredSpace
from .tolerances import EQ_TOL, FEAS_TOL, MASS_TOL


@dataclass(frozen=True, eq=False)
class Measure:
    """Strictly positive probability vector over outcomes."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1:
            raise InvalidMeasure("probability vector must be one-dimensional")
        if p.min() <= 0.0:
            raise InvalidMeasure(f"measure has a nonpositive entry (min={p.min()!r})")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise InvalidMeasure(f"probabilities sum to {p.sum()!r}, not 1")

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True, eq=False)
class CompletionMeasure:
    """Two-point measure on the time-n cells built from a unit-claim increment.

    Puts mass d_j / (-d_i + d_j) on the nonpositive-increment cell i and
    -d_i / (-d_i + d_j) on the positive-increment cell j.
    """

    time: int
    neg_atom: int
    pos_atom: int
    atom_probabilities: np.ndarray  # one entry per cell of partitions[time]


def _as_probabilities(P) -> np.ndarray:
    if isinstance(P, Measure):
        return P.probabilities
    return Measure(np.asarray(P, dtype=float)).probabilities


def conditional_expectation(space: FilteredSpace, P, X, t: int) -> np.ndarray:
    """E{X | F_t} under a single strictly positive measure, as an outcome row."""
    p = _as_probabilities(P)
    x = np.asarray(X, dtype=float)
    if p.shape != (space.outcome_count,) or x.shape != (space.outcome_count,):
        raise ShapeMismatch("measure/claim length must equal the outcome count")
    return _condexp_row(space, p, x, t)


def _condexp_row(space: FilteredSpace, p: np.ndarray, x: np.ndarray, t: int) -> np.ndarray:
    atoms = space.atom_index[t]
    k = space.n_cells(t)
    mass = np.bincount(atoms, weights=p, minlength=k)
    lift = np.bincount(atoms, weights=p * x, minlength=k)
    return (lift / mass)[atoms]


def change_of_measure_conditional(space: FilteredSpace, P1, P2, X, t: int) -> np.ndarray:
    """E^{P1}{X | F_t} computed through P2 with the normalized density.

    Uses phi = (dP1/dP2) / E^{P2}{dP1/dP2 | F_t}; the result agrees with
    conditional_expectation(space, P1, X, t).
    """
    p1 = _as_probabilities(P1)
    p2 = _as_probabilities(P2)
    x = np.asarray(X, dtype=float)
    density = p1 / p2
    phi = density / _condexp_row(space, p2, density, t)
    return _condexp_row(space, p2, x * phi, t)


def restriction_metric(space: FilteredSpace, P1, P2, t: int) -> float:
    """Total variation between the two measures restricted to the time-t cells."""
    if not 0 <= t <= space.horizon:
        raise IndexError(f"time {t} out of range 0..{space.horizon}")
    p1 = _as_probabilities(P1)
    p2 = _as_probabilities(P2)
    atoms = space.atom_index[t]
    k = space.n_cells(t)
    m1 = np.bincount(atoms, weights=p1, minlength=k)
    m2 = np.bincount(atoms, weights=p2, minlength=k)
    return float(np.abs(m1 - m2).sum())


@dataclass(frozen=True)
class EssSupRow:
    """Per-cell supremum of conditional expectations over a measure family."""

    values: np.ndarray            # outcome row, constant per cell
    attained: tuple               # per cell: generator index or attaining measure


class MeasureSet:
    """Common interface of the two measure-family flavours."""

    space: FilteredSpace

    def reference(self) -> np.ndarray:
        """A canonical strictly positive member measure."""
        raise NotImplementedError

    def expectation_functionals(self) -> list[tuple[np.ndarray, float]]:
        """Pairs (w, kappa) such that "E^P[c] = r for every member P" holds
        iff w @ c == kappa * r for every pair."""
        raise NotImplementedError

    def domination_measures(self) -> list[np.ndarray]:
        """Nonnegative vectors whose linear inequalities imply inequalities
        under every member measure (generators, or closure vertices)."""
        raise NotImplementedError

    def max_expectation(self, x) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def cond_exp_sup(self, x, t: int) -> EssSupRow:
        raise NotImplementedError

    def step_gaps(self, x, base, t: int, equality: bool) -> list[tuple[str, np.ndarray]]:
        """Pairs (label, gaps), one gap per time-t cell, comparing E^P(x | F_t)
        with the F_t-measurable base over the family.

        Without equality a gap is the largest excess of E^P(x | F_t) over
        base; with equality it is a nonnegative residual that vanishes iff
        E^P(x | F_t) = base under every member measure."""
        raise NotImplementedError

    def contains_masses(self, masses, t: int) -> bool:
        """Whether some measure in the closure puts these masses on the
        time-t cells."""
        raise NotImplementedError


def _cell_reps(space: FilteredSpace, t: int) -> list[int]:
    return [space.cell_rep(t, c) for c in range(space.n_cells(t))]


class GeneratorHull(MeasureSet):
    """Convex hull of finitely many pairwise equivalent measures."""

    def __init__(self, space: FilteredSpace, generators):
        if not generators:
            raise InvalidMeasure("a hull needs at least one generator")
        self.space = space
        gens = []
        for g in generators:
            m = g if isinstance(g, Measure) else Measure(np.asarray(g, dtype=float))
            if len(m) != space.outcome_count:
                raise ShapeMismatch("generator length must equal the outcome count")
            gens.append(m)
        self.generators: tuple[Measure, ...] = tuple(gens)
        self._matrix = np.array([m.probabilities for m in self.generators])

    @property
    def k(self) -> int:
        return len(self.generators)

    def reference(self) -> np.ndarray:
        return self._matrix.mean(axis=0)

    def expectation_functionals(self):
        return [(row, 1.0) for row in self._matrix]

    def domination_measures(self):
        return [row for row in self._matrix]

    def max_expectation(self, x):
        vals = self._matrix @ np.asarray(x, dtype=float)
        i = int(np.argmax(vals))
        return float(vals[i]), self._matrix[i]

    def cond_exp_sup(self, x, t):
        x = np.asarray(x, dtype=float)
        rows = np.array([_condexp_row(self.space, p, x, t) for p in self._matrix])
        values = rows.max(axis=0)
        attained = tuple(int(np.argmax(rows[:, r])) for r in _cell_reps(self.space, t))
        return EssSupRow(values=values, attained=attained)

    def step_gaps(self, x, base, t, equality):
        # every member's conditional expectation is a positively weighted
        # average of the generators', so the generators decide
        x = np.asarray(x, dtype=float)
        reps = _cell_reps(self.space, t)
        out = []
        for i, p in enumerate(self._matrix):
            gaps = (_condexp_row(self.space, p, x, t) - base)[reps]
            out.append((f"generator {i}", np.abs(gaps) if equality else gaps))
        return out

    def contains_masses(self, masses, t):
        # the restriction of the hull to time t is the hull of the
        # restricted generators: a convex-combination feasibility solve
        atoms = self.space.atom_index[t]
        k = self.space.n_cells(t)
        restr = np.array(
            [np.bincount(atoms, weights=p, minlength=k) for p in self._matrix]
        ).T  # cells x generators
        A_eq = np.vstack([restr, np.ones((1, self.k))])
        b_eq = np.concatenate([masses, [1.0]])
        return _lp.feasible_point(A_eq, b_eq, self.k) is not None


class MartingalePolytope(MeasureSet):
    """All strictly positive measures making the listed assets martingales.

    Construction solves for an interior (strictly positive) member; its
    absence means the asset system admits no equivalent martingale measure.
    """

    def __init__(self, space: FilteredSpace, assets, names=None):
        if not assets:
            raise InvalidMeasure("a martingale polytope needs at least one asset")
        self.space = space
        procs = []
        for a in assets:
            proc = a if isinstance(a, AdaptedProcess) else AdaptedProcess(space, a)
            if proc.space is not space and proc.space.cells != space.cells:
                raise ShapeMismatch("asset lives on a different filtered space")
            procs.append(proc)
        self.assets: tuple[AdaptedProcess, ...] = tuple(procs)
        self.asset_names: tuple[str, ...] = tuple(
            names if names is not None else (f"asset{i}" for i in range(len(procs)))
        )

        rows = []
        self._row_tags = []  # (asset index, step t, cell index at t-1)
        n = space.outcome_count
        for j, proc in enumerate(procs):
            for t in range(1, space.horizon + 1):
                for c, cell in enumerate(space.cells[t - 1]):
                    row = np.zeros(n)
                    idx = list(cell)
                    row[idx] = proc.values[t, idx] - proc.values[t - 1, idx]
                    rows.append(row)
                    self._row_tags.append((j, t, c))
        self._homogeneous = np.array(rows) if rows else np.empty((0, n))
        self._A_eq = np.vstack([self._homogeneous, np.ones((1, n))])
        self._b_eq = np.concatenate([np.zeros(len(rows)), [1.0]])

        self._interior = self._solve_interior()
        self._null_basis = null_space(self._A_eq)  # orthonormal columns
        self._vertices: np.ndarray | None = None

    def _solve_interior(self) -> np.ndarray:
        n = self.space.outcome_count
        # maximize the floor t subject to q >= t, equalities, sum q = 1
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A_eq = np.hstack([self._A_eq, np.zeros((self._A_eq.shape[0], 1))])
        A_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
        res = _lp.solve(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq, b_eq=self._b_eq,
                        bounds=[(0, 1)] * n + [(None, 1)])
        if res.status != 0 or res.x[-1] <= FEAS_TOL:
            raise NoEquivalentMartingaleMeasure(
                "no strictly positive measure makes every asset a martingale"
            )
        return res.x[:-1]

    @property
    def interior_measure(self) -> np.ndarray:
        return self._interior

    def reference(self) -> np.ndarray:
        return self._interior

    def expectation_functionals(self):
        out = [(self._interior, 1.0)]
        out.extend((self._null_basis[:, j], 0.0) for j in range(self._null_basis.shape[1]))
        return out

    def closure_vertices(self) -> np.ndarray:
        if self._vertices is None:
            self._vertices = _lp.enumerate_vertices(self._A_eq, self._b_eq)
        return self._vertices

    def domination_measures(self):
        return [v for v in self.closure_vertices()]

    def max_expectation(self, x):
        value, q = _lp.maximize(np.asarray(x, dtype=float), A_eq=self._A_eq, b_eq=self._b_eq)
        return float(value), q

    def cond_exp_sup(self, x, t):
        """Per-cell sup of E^Q{x | F_t} over the closure, where the cell has mass.

        Linear-fractional program per cell, solved in the standard projective
        form: maximize sum_{w in A} x_w u_w over u >= 0 with the homogeneous
        asset equalities and sum_{w in A} u_w = 1.
        """
        x = np.asarray(x, dtype=float)
        n = self.space.outcome_count
        values = np.empty(n)
        attained = []
        for c, cell in enumerate(self.space.cells[t]):
            idx = list(cell)
            indicator = np.zeros(n)
            indicator[idx] = 1.0
            objective = np.zeros(n)
            objective[idx] = x[idx]
            A_eq = np.vstack([self._homogeneous, indicator])
            b_eq = np.concatenate([np.zeros(self._homogeneous.shape[0]), [1.0]])
            value, u = _lp.maximize(objective, A_eq=A_eq, b_eq=b_eq)
            values[idx] = value
            attained.append(u / u.sum())
        return EssSupRow(values=values, attained=tuple(attained))

    def step_gaps(self, x, base, t, equality):
        x = np.asarray(x, dtype=float)
        if not equality:
            reps = _cell_reps(self.space, t)
            return [("lp max", (self.cond_exp_sup(x, t).values - base)[reps])]
        # an identity across the whole polytope is a linear condition on its
        # affine hull: test against the interior point and the null basis
        base = np.broadcast_to(np.asarray(base, dtype=float), x.shape)
        gaps = np.empty(self.space.n_cells(t))
        for c, cell in enumerate(self.space.cells[t]):
            idx = list(cell)
            centred = x[idx] - base[idx]
            res_ref = float(centred @ self._interior[idx])
            res_null = centred @ self._null_basis[idx, :]
            gaps[c] = max(abs(res_ref), float(np.abs(res_null).max(initial=0.0)))
        return [("affine hull", gaps)]

    def contains_masses(self, masses, t):
        # a strictly positive member supplies the conditional extension
        # beyond time t, so only the equalities up to step t constrain
        return not self.equality_residuals(masses, t)

    def equality_residuals(self, mu: np.ndarray, up_to_time: int) -> list[tuple[int, int, int, float]]:
        """Evaluate the asset equalities with step <= up_to_time on a measure
        given by per-cell masses at up_to_time.  Returns nonzero residuals."""
        space = self.space
        reps = _cell_reps(space, up_to_time)
        out = []
        for j, proc in enumerate(self.assets):
            scale = 1.0 + float(np.abs(proc.values).max())
            for t in range(1, up_to_time + 1):
                parents = space.atom_index[t - 1][reps]
                diffs = proc.values[t][reps] - proc.values[t - 1][reps]
                res = np.bincount(parents, weights=diffs * mu, minlength=space.n_cells(t - 1))
                for c in range(space.n_cells(t - 1)):
                    if abs(res[c]) > EQ_TOL * scale:
                        out.append((j, t, c, float(res[c])))
        return out


def is_unit_claim(space: FilteredSpace, mset: MeasureSet, xi) -> bool:
    """True iff xi >= 0 and E^P[xi] = 1 for every member measure."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (space.outcome_count,):
        raise ShapeMismatch("claim length must equal the outcome count")
    if xi.min() < -EQ_TOL:
        return False
    return all(gaps.max() <= EQ_TOL for _, gaps in mset.step_gaps(xi, 1.0, 0, equality=True))


def unit_claim_rows(space: FilteredSpace, mset: MeasureSet, xi0) -> np.ndarray:
    """Conditional-expectation rows E{xi0 | F_t}, t = 0..N, of a unit claim.

    The rows are computed under the reference measure and verified to be the
    same under every member measure; MeasureDependent is raised otherwise.
    """
    xi0 = np.asarray(xi0, dtype=float)
    if not is_unit_claim(space, mset, xi0):
        raise NotUnitClaim("claim is not nonnegative with unit expectation under every measure")
    ref = mset.reference()
    rows = np.array([_condexp_row(space, ref, xi0, t) for t in range(space.horizon + 1)])
    scale = 1.0 + float(np.abs(xi0).max())
    for t in range(space.horizon + 1):
        for label, gaps in mset.step_gaps(xi0, rows[t], t, equality=True):
            if gaps.max() > EQ_TOL * scale:
                c = int(np.argmax(gaps))
                raise MeasureDependent(
                    f"E(claim | F_{t}) differs across measures on cell {c} "
                    f"({label}, gap {gaps.max():.3e})",
                    time=t,
                    cell=c,
                )
    return rows


def increment_process(space: FilteredSpace, mset: MeasureSet, xi0) -> list[np.ndarray]:
    """Per-step increments of the unit-claim martingale, one value per cell.

    Entry n-1 of the result holds, for each cell of partitions[n], the value
    of E{xi0 | F_n} - E{xi0 | F_{n-1}} on that cell.
    """
    rows = unit_claim_rows(space, mset, xi0)
    out = []
    for n in range(1, space.horizon + 1):
        reps = _cell_reps(space, n)
        out.append(rows[n][reps] - rows[n - 1][reps])
    return out


def completion_measures(
    space: FilteredSpace, mset: MeasureSet, xi0, n: int, increments=None
) -> list[CompletionMeasure]:
    """Two-point completion measures at time n for the unit claim xi0.

    One measure per pair (i, j) of time-n cells with d_i <= 0 < d_j.  When no
    cell has a positive increment the increments vanish identically and the
    list is empty.
    """
    if not 1 <= n <= space.horizon:
        raise IndexError(f"time {n} out of range 1..{space.horizon}")
    if increments is None:
        increments = increment_process(space, mset, xi0)
    d = increments[n - 1]
    neg = [i for i in range(len(d)) if d[i] <= EQ_TOL]
    pos = [j for j in range(len(d)) if d[j] > EQ_TOL]
    out = []
    for i in neg:
        for j in pos:
            denom = -d[i] + d[j]
            masses = np.zeros(space.n_cells(n))
            masses[i] = d[j] / denom
            masses[j] = -d[i] / denom
            out.append(CompletionMeasure(time=n, neg_atom=i, pos_atom=j, atom_probabilities=masses))
    return out


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    failures: tuple[tuple[int, int, int], ...]  # (time, neg cell, pos cell)
    tested: int

    def __bool__(self) -> bool:
        return self.complete


def is_complete(space: FilteredSpace, mset: MeasureSet, xi0) -> CompletenessReport:
    """Decide whether every completion measure lies in the closure of the family."""
    increments = increment_process(space, mset, xi0)
    failures = []
    tested = 0
    for n in range(1, space.horizon + 1):
        for cm in completion_measures(space, mset, xi0, n, increments=increments):
            tested += 1
            if not mset.contains_masses(cm.atom_probabilities, n):
                failures.append((n, cm.neg_atom, cm.pos_atom))
    return CompletenessReport(complete=not failures, failures=tuple(failures), tested=tested)


def ess_sup_conditional(space: FilteredSpace, mset: MeasureSet, X, t: int) -> EssSupRow:
    """Smallest F_t-measurable upper envelope of E^P{X | F_t} over the family.

    Over a hull this is the per-cell maximum across generators; over a
    martingale polytope the per-cell LP supremum across the closure.
    """
    x = np.asarray(X, dtype=float)
    if x.min() < -EQ_TOL:
        raise ValueError("ess-sup rows are defined here for nonnegative claims")
    if not 0 <= t <= space.horizon:
        raise IndexError(f"time {t} out of range 0..{space.horizon}")
    return mset.cond_exp_sup(x, t)
