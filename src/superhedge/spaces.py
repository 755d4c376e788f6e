"""Finite sample spaces with discrete-time filtrations, and processes on them.

The filtration is a refining sequence of partitions of the outcome set
{0, ..., n-1}.  Time 0 is always the trivial partition.  A process is adapted
when its time-t row is constant on every time-t cell, predictable when the
time-t row is constant on the time-(t-1) cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyCell, NotAdapted, NotPartition, NotPredictable, NotRefining, ShapeMismatch
from .tolerances import EQ_TOL

Cell = tuple[int, ...]


@dataclass(frozen=True)
class AdaptednessReport:
    ok: bool
    violations: tuple[tuple[int, int], ...]  # (time, cell index)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class FilteredSpace:
    """Immutable outcome set plus a refining partition per time step."""

    outcome_count: int
    cells: tuple[tuple[Cell, ...], ...]                 # cells[t][c] = sorted outcome tuple
    atom_index: np.ndarray = field(repr=False)          # (N+1, n) cell id per (t, outcome)
    children: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)  # [t][c] -> ids at t+1
    parent: tuple[tuple[int, ...], ...] = field(repr=False)                # [t][c] -> id at t-1

    @property
    def horizon(self) -> int:
        return len(self.cells) - 1

    def n_cells(self, t: int) -> int:
        return len(self.cells[t])

    def cell_outcomes(self, t: int, c: int) -> np.ndarray:
        return np.asarray(self.cells[t][c], dtype=int)

    def cell_rep(self, t: int, c: int) -> int:
        """First outcome of a cell; enough to read any time-t measurable value."""
        return self.cells[t][c][0]

    @cached_property
    def _cell_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per time, the outcomes in a stable sort by cell and the position
        where each cell starts in that order."""
        groups = []
        for atoms in self.atom_index:
            order = np.argsort(atoms, kind="stable")
            starts = np.concatenate(([0], np.cumsum(np.bincount(atoms))[:-1]))
            groups.append((order, starts))
        return tuple(groups)


def build_space(outcome_count: int, partitions) -> FilteredSpace:
    """Validate a partition sequence and assemble a FilteredSpace.

    partitions[t] is an iterable of outcome-index collections.  Requirements:
    time 0 is the single full cell, every time is a partition of all outcomes,
    and each cell at t+1 lies inside exactly one cell at t.
    """
    if outcome_count < 1:
        raise NotPartition("outcome_count must be a positive integer")
    partitions = list(partitions)
    if len(partitions) < 2:
        raise NotPartition("a positive horizon needs partitions for times 0 and 1 at least")

    cells: list[tuple[Cell, ...]] = []
    for t, raw_cells in enumerate(partitions):
        level: list[Cell] = []
        seen: set[int] = set()
        for raw in raw_cells:
            cell = tuple(sorted(int(w) for w in raw))
            if not cell:
                raise EmptyCell(f"empty cell at time {t}")
            for w in cell:
                if not 0 <= w < outcome_count:
                    raise NotPartition(f"outcome {w} out of range at time {t}")
                if w in seen:
                    raise NotPartition(f"outcome {w} appears in two cells at time {t}")
                seen.add(w)
            level.append(cell)
        if len(seen) != outcome_count:
            missing = sorted(set(range(outcome_count)) - seen)
            raise NotPartition(f"outcomes {missing} uncovered at time {t}")
        level.sort(key=lambda c: c[0])
        cells.append(tuple(level))

    if len(cells[0]) != 1:
        raise NotPartition("time-0 partition must be the single full cell")

    n_times = len(cells)
    atom_index = np.empty((n_times, outcome_count), dtype=int)
    for t, level in enumerate(cells):
        for c, cell in enumerate(level):
            atom_index[t, list(cell)] = c

    children: list[tuple[tuple[int, ...], ...]] = []
    parent: list[tuple[int, ...]] = [tuple()]
    for t in range(1, n_times):
        par = []
        for c, cell in enumerate(cells[t]):
            owners = {int(atom_index[t - 1, w]) for w in cell}
            if len(owners) != 1:
                raise NotRefining(
                    f"cell {cells[t][c]} at time {t} straddles cells "
                    f"{sorted(cells[t - 1][o] for o in owners)} at time {t - 1}"
                )
            par.append(owners.pop())
        parent.append(tuple(par))
    for t in range(n_times - 1):
        kids: list[list[int]] = [[] for _ in cells[t]]
        for c, p in enumerate(parent[t + 1]):
            kids[p].append(c)
        children.append(tuple(tuple(k) for k in kids))
    children.append(tuple())

    return FilteredSpace(
        outcome_count=outcome_count,
        cells=tuple(cells),
        atom_index=atom_index,
        children=tuple(children),
        parent=tuple(parent),
    )


def atom_of(space: FilteredSpace, t: int, omega: int) -> Cell:
    """The unique time-t cell containing the outcome."""
    if not 0 <= t <= space.horizon:
        raise IndexError(f"time {t} out of range 0..{space.horizon}")
    if not 0 <= omega < space.outcome_count:
        raise IndexError(f"outcome {omega} out of range")
    return space.cells[t][space.atom_index[t, omega]]


def cell_reps(space: FilteredSpace, t: int) -> np.ndarray:
    """The first outcome of every time-t cell (space.cell_rep), in cell order."""
    order, starts = space._cell_groups[t]
    return order[starts]


def cell_ranges(space: FilteredSpace, t: int, row) -> np.ndarray:
    """max - min of an outcome row over each time-t cell.

    row has shape (n, ...); the result has shape (n_cells(t), ...), one
    entry per cell in cell order, reduced along the outcome axis only.
    """
    order, starts = space._cell_groups[t]
    grouped = np.asarray(row, dtype=float)[order]
    high = np.maximum.reduceat(grouped, starts, axis=0)
    return high - np.minimum.reduceat(grouped, starts, axis=0)


def check_adapted(space: FilteredSpace, values, tol: float = EQ_TOL) -> AdaptednessReport:
    """Report whether a (N+1, n) matrix is constant on every cell at every time."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.horizon + 1, space.outcome_count):
        raise ShapeMismatch(
            f"expected shape {(space.horizon + 1, space.outcome_count)}, got {values.shape}"
        )
    bad = [
        (t, int(c))
        for t in range(space.horizon + 1)
        for c in np.flatnonzero(cell_ranges(space, t, values[t]) > tol)
    ]
    return AdaptednessReport(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True, eq=False)
class AdaptedProcess:
    """A real process constant on the filtration cells of each time."""

    space: FilteredSpace
    values: np.ndarray  # (N+1, n)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        report = check_adapted(self.space, values)
        if not report.ok:
            raise NotAdapted(f"process not measurable at (time, cell) {report.violations[:4]}")

    def cell_value(self, t: int, c: int) -> float:
        return float(self.values[t, self.space.cell_rep(t, c)])

    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True, eq=False)
class PredictableProcess:
    """Holdings chosen one step ahead: row t (1-based) is time-(t-1) measurable.

    values has shape (N, n, d); values[m-1] holds the time-m row.
    """

    space: FilteredSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        object.__setattr__(self, "values", values)
        n, d = self.space.outcome_count, values.shape[2]
        if values.shape[:2] != (self.space.horizon, n):
            raise ShapeMismatch(
                f"expected shape ({self.space.horizon}, {n}, {d}), got {values.shape}"
            )
        for m in range(1, self.space.horizon + 1):
            ranges = cell_ranges(self.space, m - 1, values[m - 1]).max(axis=1)
            varies = np.flatnonzero(ranges > EQ_TOL)
            if varies.size:
                raise NotPredictable(f"time-{m} row varies on time-{m - 1} cell {varies[0]}")

    @property
    def n_assets(self) -> int:
        return self.values.shape[2]

    def row(self, m: int) -> np.ndarray:
        """Time-m holdings (m in 1..N), one column per asset."""
        return self.values[m - 1]
