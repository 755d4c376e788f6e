"""Finite sample spaces with discrete-time filtrations, and processes on them.

The filtration is a refining sequence of partitions of the outcome set
{0, ..., n-1}.  Time 0 is always the trivial partition.  A process is adapted
when its time-t row is constant on every time-t cell, predictable when the
time-t row is constant on the time-(t-1) cells.  So a process is stored as
one value per cell, adapted or predictable by construction; its outcome
array is built when read, and only outside values are checked.

A FilteredSpace stores the outcome count and atom_index[t, w], the time-t
cell of outcome w, each time's cells numbered by their first outcome.  All
else about the tree comes from one numbering derived from it once
(CellNumbering), which the families, the verdicts and every measurability
check read; the tuples cells and children are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

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


class CellNumbering(NamedTuple):
    """The cells of times 0..N numbered time after time: the time-t cell c
    is offsets[t] + c.  Positions t * n + w index a flat (N+1, n) array."""

    offsets: np.ndarray   # (N+2,) first id of each time's cells, then the cell count
    ids: np.ndarray       # (N+1, n) id of each (time, outcome)'s cell
    firsts: np.ndarray    # (cells,) position t * n + w of each cell's first outcome w
    parents: np.ndarray   # (cells - 1,) id of the parent of each cell of times 1..N
    kids: np.ndarray      # (cells - 1,) ids of the cells of times 1..N grouped by parent
    order: np.ndarray     # ((N+1) n,) positions grouped by cell, ascending within each
    starts: np.ndarray    # (cells,) where each cell starts in order

    def locate(self, ids):
        """(time, cell) of cell ids."""
        t = np.searchsorted(self.offsets, ids, side="right") - 1
        return t, ids - self.offsets[t]


@dataclass(frozen=True, eq=False)
class FilteredSpace:
    """Immutable outcome set plus a refining partition per time step."""

    outcome_count: int
    atom_index: np.ndarray = field(repr=False)          # (N+1, n) cell id per (t, outcome)

    @property
    def horizon(self) -> int:
        return len(self.atom_index) - 1

    def n_cells(self, t: int) -> int:
        return int(np.diff(self.numbering.offsets)[t])

    def cell_outcomes(self, t: int, c: int) -> np.ndarray:
        return np.flatnonzero(self.atom_index[t] == c)

    def cell_rep(self, t: int, c: int) -> int:
        """First outcome of a cell; enough to read any time-t measurable value."""
        return int(cell_reps(self, t)[c])

    @cached_property
    def numbering(self) -> CellNumbering:
        n = self.outcome_count
        offsets = np.r_[0, np.cumsum(self.atom_index.max(axis=1) + 1)]
        ids = self.atom_index + offsets[:-1, None]
        order = np.argsort(ids, axis=None, kind="stable")
        sizes = np.bincount(ids.ravel())
        starts = np.cumsum(sizes) - sizes
        firsts = order[starts]
        parents = ids.ravel()[firsts[offsets[1]:] - n]
        kids = np.argsort(parents, kind="stable") + offsets[1]
        return CellNumbering(offsets, ids, firsts, parents, kids, order, starts)

    @cached_property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """cells[t][c]: the outcomes of the time-t cell c, ascending."""
        num, order = self.numbering, (self.numbering.order % self.outcome_count).tolist()
        bounds = np.r_[num.starts, len(order)].tolist()
        cells = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        return tuple(tuple(cells[a:b]) for a, b in zip(num.offsets[:-1], num.offsets[1:]))

    @cached_property
    def children(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """children[t][c]: the time-(t+1) cells inside the time-t cell c; none at N."""
        num, kids = self.numbering, self.numbering.locate(self.numbering.kids)[1].tolist()
        bounds = np.r_[0, np.cumsum(np.bincount(num.parents))].tolist()
        kids = [tuple(kids[a:b]) for a, b in zip(bounds, bounds[1:])]
        return tuple(tuple(kids[a:b]) for a, b in zip(num.offsets[:-1], num.offsets[1:]))


def build_space(outcome_count: int, partitions) -> FilteredSpace:
    """Validate a partition sequence and assemble a FilteredSpace.

    partitions[t] is a collection of cells, each a sized collection of
    integer outcome indices (Python or numpy integers, not bools).
    Requirements: time 0 is the single full cell, every time is a partition
    of all outcomes, and each cell at t+1 lies inside exactly one cell at t.
    The first offence is reported time by time, cell by cell, each cell's
    outcomes ascending; then time 0, then refinement in (time, cell) order.
    """
    if not _is_index_type(type(outcome_count)) or outcome_count < 1:
        raise NotPartition("outcome_count must be a positive integer")
    partitions = list(partitions)
    if len(partitions) < 2:
        raise NotPartition("a positive horizon needs partitions for times 0 and 1 at least")
    atom_index = np.array([_level_atoms(int(outcome_count), t, level)
                           for t, level in enumerate(partitions)])
    if atom_index[0].any():
        raise NotPartition("time-0 partition must be the single full cell")

    space = FilteredSpace(outcome_count=int(outcome_count), atom_index=atom_index)
    num = space.numbering
    straddles = num.ids[:-1] != num.parents[num.ids[1:] - num.offsets[1]]
    if straddles.any():
        t, c = (int(v) for v in num.locate(num.ids[1:][straddles].min()))
        owners = np.unique(atom_index[t - 1, space.cell_outcomes(t, c)])
        raise NotRefining(f"cell {space.cells[t][c]} at time {t} straddles cells "
                          f"{[space.cells[t - 1][o] for o in owners]} at time {t - 1}")
    return space


def _is_index_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _level_atoms(n: int, t: int, level) -> np.ndarray:
    """The time-t row of atom_index for one level of build_space's
    partitions, or the level's first offence."""
    try:
        level = list(level)
        sizes = np.fromiter(map(len, level), int, len(level))
        flat = list(chain.from_iterable(level))
    except TypeError:
        raise NotPartition(f"time {t} must be a collection of cells of outcome indices") from None
    if not all(map(_is_index_type, set(map(type, flat)))):
        w = next(w for w in flat if not _is_index_type(type(w)))
        raise NotPartition(f"outcome {w!r} at time {t} is not an integer index")
    try:
        w = np.fromiter(flat, int, len(flat))
    except OverflowError:   # beyond int64, so out of range: compared as Python ints
        w = np.array(flat, dtype=object)

    # an outcome offends when out of range or seen before, in this cell or
    # an earlier one; the loop order reports the first offending cell's
    # least offending outcome, unless an empty cell comes first
    ends = np.cumsum(sizes)
    bad = (w < 0) | (w >= n)
    key, pos = np.where(bad, n, w).astype(int, copy=False), np.arange(len(w))
    seen = np.full(n + 1, len(w))
    np.minimum.at(seen, key, pos)       # each outcome's first position, or len(w)
    bad |= seen[key] != pos
    first = int(np.searchsorted(ends, bad.argmax(), side="right")) if bad.any() else len(level)
    if (sizes[:first] == 0).any():
        raise EmptyCell(f"empty cell at time {t}")
    if first < len(level):
        cell = slice(ends[first] - sizes[first], ends[first])
        v = w[cell][bad[cell]].min()
        if not 0 <= v < n:
            raise NotPartition(f"outcome {v} out of range at time {t}")
        raise NotPartition(f"outcome {v} appears in two cells at time {t}")
    if len(w) != n:
        raise NotPartition(f"outcomes {np.flatnonzero(seen[:n] == len(w)).tolist()} uncovered at time {t}")

    # number each cell by how many cells start below its first outcome
    lows = np.minimum.reduceat(w, ends - sizes)
    atoms = np.empty(n, dtype=int)
    atoms[w] = np.repeat(np.cumsum(np.bincount(lows, minlength=n))[lows] - 1, sizes)
    return atoms


def _check_time(space: FilteredSpace, t: int) -> None:
    if not 0 <= t <= space.horizon:
        raise IndexError(f"time {t} out of range 0..{space.horizon}")


def atom_of(space: FilteredSpace, t: int, omega: int) -> Cell:
    """The unique time-t cell containing the outcome."""
    _check_time(space, t)
    if not 0 <= omega < space.outcome_count:
        raise IndexError(f"outcome {omega} out of range")
    return space.cells[t][space.atom_index[t, omega]]


def cell_order(space: FilteredSpace, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries (s - first) * n + w of times s = first..last-1 grouped by
    cell (space.numbering), ascending within each, and where each cell starts."""
    _check_time(space, first)
    _check_time(space, last - 1)
    num, n = space.numbering, space.outcome_count
    return (num.order[first * n:last * n] - first * n,
            num.starts[num.offsets[first]:num.offsets[last]] - first * n)


def cell_reps(space: FilteredSpace, t: int) -> np.ndarray:
    """The first outcome of every time-t cell (space.cell_rep), in cell order."""
    _check_time(space, t)
    num = space.numbering
    return num.firsts[num.offsets[t]:num.offsets[t + 1]] - t * space.outcome_count


def cell_ranges(space: FilteredSpace, t: int, row) -> np.ndarray:
    """max - min of an outcome row over each time-t cell.

    row has shape (n, ...); the result has shape (n_cells(t), ...), one
    entry per cell in cell order, reduced along the outcome axis only.
    """
    return level_ranges(space, np.asarray(row, dtype=float)[None], t)


def level_ranges(space: FilteredSpace, rows: np.ndarray, first: int) -> np.ndarray:
    """max - min of rows, shape (T, n, ...), row s over each cell of time
    first + s: one entry per cell of times first..first+T-1, numbered as in
    space.numbering from offsets[first], from one reduction over them all."""
    order, starts = cell_order(space, first, first + len(rows))
    grouped = rows.reshape(-1, *rows.shape[2:])[order]
    return np.maximum.reduceat(grouped, starts, axis=0) - np.minimum.reduceat(grouped, starts, axis=0)


def cell_sums(space: FilteredSpace, x: np.ndarray, first: int) -> np.ndarray:
    """Sums of x, shape (r, T, n) with row s at time first + s, over each
    cell of times first..first+T-1: shape (r, cells), the cells numbered as
    in space.numbering from offsets[first]."""
    num, (r, T) = space.numbering, x.shape[:2]
    size = num.offsets[first + T] - num.offsets[first]
    index = num.ids[first:first + T] - num.offsets[first] + size * np.arange(r)[:, None, None]
    return np.bincount(index.ravel(), x.ravel(), r * size).reshape(r, size)


def check_adapted(space: FilteredSpace, values) -> AdaptednessReport:
    """Report whether a (N+1, n) matrix is constant on every cell at every time."""
    values = np.asarray(values, dtype=float)
    if values.shape != (space.horizon + 1, space.outcome_count):
        raise ShapeMismatch(
            f"expected shape {(space.horizon + 1, space.outcome_count)}, got {values.shape}"
        )
    t, c = space.numbering.locate(np.flatnonzero(level_ranges(space, values, 0) > EQ_TOL))
    bad = tuple(zip(t.tolist(), c.tolist()))
    return AdaptednessReport(ok=not bad, violations=bad)


def at_cells(space: FilteredSpace, values: np.ndarray) -> np.ndarray:
    """An outcome array (T, n, ...) read on the cells of times 0..T-1 at
    each cell's first outcome, in space.numbering order: shape (cells, ...)."""
    num = space.numbering
    return values.reshape(-1, *values.shape[2:])[num.firsts[:num.offsets[len(values)]]]


def path_sums(space: FilteredSpace, steps: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Running sums down the tree: per cell of times 0..N (space.numbering),
    start plus the steps, one per cell of times 1..N, added time after time
    along the cell's path from time 0."""
    num, first = space.numbering, space.numbering.offsets[1]
    sums = np.empty(num.offsets[-1])
    sums[0] = start
    for a, b in zip(num.offsets[1:-1], num.offsets[2:]):
        sums[a:b] = sums[num.parents[a - first:b - first]] + steps[a - first:b - first]
    return sums


class _OnCells:
    """A process stored as cells, one entry or row per cell of the times it
    lives on (space.numbering); values is built from them on first read."""

    @classmethod
    def on_cells(cls, space: FilteredSpace, cells: np.ndarray):
        """The process with these cells, measurable by construction, so
        unchecked."""
        proc = cls.__new__(cls)
        proc.space, proc.cells = space, cells
        return proc

    @cached_property
    def values(self) -> np.ndarray:
        return self.cells[self.space.numbering.ids[:self._times]]


class AdaptedProcess(_OnCells):
    """A real process constant on the filtration cells of each time.

    Stored as cells, its value on every cell of times 0..N, shape
    (offsets[-1],); values has shape (N+1, n).  The constructor checks
    outside values (NotAdapted), keeps them and reads the cells at each
    cell's first outcome; the package builds its processes with on_cells.
    """

    _times = None       # values spreads the cells over every time

    def __init__(self, space: FilteredSpace, values):
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise NotAdapted("process values must be finite")
        report = check_adapted(space, values)
        if not report.ok:
            raise NotAdapted(f"process not measurable at (time, cell) {report.violations[:4]}")
        self.space, self.values, self.cells = space, values, at_cells(space, values)


class PredictableProcess(_OnCells):
    """Holdings chosen one step ahead: row t (1-based) is time-(t-1) measurable.

    values has shape (N, n, d); values[m-1] holds the time-m row.  Stored as
    cells, the holdings chosen on every cell of times 0..N-1, shape
    (offsets[N], d).  The constructor checks outside values (NotPredictable)
    and keeps them, as AdaptedProcess does.
    """

    _times = -1         # values spreads the cells over times 0..N-1

    def __init__(self, space: FilteredSpace, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        N, n = space.horizon, space.outcome_count
        if values.ndim != 3 or values.shape[:2] != (N, n):
            d = values.shape[2] if values.ndim == 3 else "d"
            raise ShapeMismatch(f"expected shape ({N}, {n}, {d}), got {values.shape}")
        if not np.isfinite(values).all():
            raise NotPredictable("holdings must be finite")
        varies = np.flatnonzero(level_ranges(space, values, 0).max(axis=1) > EQ_TOL)
        if varies.size:
            t, c = space.numbering.locate(varies[0])
            raise NotPredictable(f"time-{t + 1} row varies on time-{t} cell {c}")
        self.space, self.values, self.cells = space, values, at_cells(space, values)

    def row(self, m: int) -> np.ndarray:
        """Time-m holdings (m in 1..N), one column per asset."""
        return self.values[m - 1]


class TradingStrategy:
    """Cash plus per-asset holdings; row m is chosen at time m-1.

    cash has shape (N+1, n) and risky (N+1, n, d); the time-0 rows hold the
    initial endowment (constant over outcomes).  Self-financing is a property
    checked by verify_self_financing, not enforced at construction, so broken
    strategies can be represented and diagnosed.  Stored as cash_cells,
    shape (offsets[-1],), and risky_cells, (offsets[-1], d): row m on every
    time-m cell; cash and risky are built from them on first read.  The
    constructor checks outside rows (NotPredictable), as AdaptedProcess does.
    """

    def __init__(self, space: FilteredSpace, cash, risky, assets):
        cash = np.asarray(cash, dtype=float)
        risky = np.asarray(risky, dtype=float)
        if risky.ndim == 2:
            risky = risky[:, :, None]
        n, N = space.outcome_count, space.horizon
        if cash.shape != (N + 1, n):
            raise ShapeMismatch(f"cash must have shape {(N + 1, n)}")
        if risky.shape != (N + 1, n, len(assets)):
            raise ShapeMismatch(f"risky must have shape {(N + 1, n, len(assets))}")
        if not (np.isfinite(cash).all() and np.isfinite(risky).all()):
            raise NotPredictable("cash and holdings must be finite")
        # the cash leg is capital minus holdings times prices, so it carries
        # residuals that grow with its own size; holdings are compared as is
        cash_tol = EQ_TOL * (1.0 + float(np.abs(cash).max()))
        # entry 0 judges the endowment row on the time-0 cell, entry 1 + id
        # the row chosen on the cell id (space.numbering)
        ranges = [np.r_[level_ranges(space, x[:1], 0), level_ranges(space, x[1:], 0)]
                  for x in (cash, risky)]
        varies = np.flatnonzero((ranges[0] > cash_tol) | (ranges[1].max(axis=1) > EQ_TOL))
        if varies.size:
            t, c = space.numbering.locate(max(varies[0] - 1, 0))
            raise NotPredictable(f"time-{t + min(varies[0], 1)} holdings vary on time-{t} cell {c}")
        self.space, self.cash, self.risky, self.assets = space, cash, risky, assets
        self.cash_cells, self.risky_cells = at_cells(space, cash), at_cells(space, risky)

    @classmethod
    def on_cells(cls, space: FilteredSpace, cash_cells, risky_cells, assets):
        """The strategy with these cells, unchecked (_OnCells.on_cells)."""
        strategy = cls.__new__(cls)
        strategy.space, strategy.assets = space, assets
        strategy.cash_cells, strategy.risky_cells = cash_cells, risky_cells
        return strategy

    @cached_property
    def cash(self) -> np.ndarray:
        return self.cash_cells[self.space.numbering.ids]

    @cached_property
    def risky(self) -> np.ndarray:
        return self.risky_cells[self.space.numbering.ids]
