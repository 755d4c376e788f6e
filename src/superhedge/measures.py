"""Convex families of equivalent measures on a finite filtered space.

Every family implements one contract, MeasureSet, and no other module tells
the families apart.  The contract has eight methods: reference,
dominating_claim, domination_rows, cond_exp_sup, ess_sup_cells, gaps,
contains_two_point and compensator.  It speaks cells: a process goes in and
comes out as one value per cell of space.numbering, and only a terminal
claim, which need not be F_N-measurable, is an outcome vector.  Each family
serves its sups from one private routine; the largest expectation over the
family is entry 0 of ess_sup_cells, which takes a stack of claims in one
call.  Every super-martingale, martingale and unit-claim verdict is one gaps
call over a whole process, and a family of unit claims one gaps call over
the stack of their processes.  Two concrete families are supported:

* GeneratorHull -- the convex hull of finitely many strictly positive
  measures.  Conditional expectations under any hull member are positively
  weighted averages of the generator conditionals, so per-cell extrema over
  the family reduce to extrema over the generators, read off one table of
  every generator's cell masses.  A compensator step is one equality per
  generator on each cell: the conditional mean on a cell with one child,
  and for the other cells of every step one block-diagonal LP per process.

* MartingalePolytope -- all strictly positive measures making the listed
  asset processes martingales.  The family is an open face of the polyhedron
  {q >= 0, asset equalities, total mass 1}.  Its closure is m-stable: a
  member is one martingale kernel per node of the tree, so every question
  about the family is a question about one node at a time.  Per-cell
  suprema of conditional expectations are one backward induction of
  one-step problems over a node's children (closed form for one asset,
  small linear solves for more) that records each node's maximiser; a
  stack of claims goes through it together, one claim per row.  A
  super-martingale's compensator on a node's children is drop + h . moves
  for holdings h that keep it nonnegative (an interval per node for one
  asset, a small LP per node for more where a projection does not
  replicate the drop).  One flat table of all (node, child) pairs
  gives it for every node of a range of times in one sweep, and a claim's
  least superhedge is its envelope plus the envelope's compensator, one
  sweep over the whole tree.  An identity holds under every member iff on
  every node the increments towards the children are replicated by the
  asset moves: the node's replication residual, from the same table, gives
  the martingale test and the holdings that represent a martingale.  Each
  asset is measured in its own power-of-two unit, so that the verdicts do
  not depend on the assets' relative scale.

Pricing asks each family for a dominating claim and a lower bound (one LP
and the largest generator expectation on a hull; on a polytope the least
superhedge and E^{Q*} x, Q* the checked closure member that the same
induction's maximisers attain) and checks the claim against the rows
domination_rows(x) -> (P, b): a claim eta dominates the terminal claim x
under every member measure iff P @ eta >= b.  A hull gives one row per
(generator, terminal cell).  A polytope gives P = None, which stands for
the identity: eta >= x outcome by outcome.  Its asset equalities only see
cell masses, so a closure member may put a terminal cell's whole mass on
any one of its outcomes.

Claims with expectation one under every member measure ("unit claims") play
the role of normalized state-price densities.  Their conditional-expectation
martingales, increments, two-point completion measures and the completeness
test, one contains_two_point call per time, live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb

import numpy as np

from . import _lp
from .errors import (
    Infeasible,
    InfeasiblePricing,
    InvalidMeasure,
    MathError,
    MeasureDependent,
    NoEquivalentMartingaleMeasure,
    NotUnitClaim,
    ShapeMismatch,
    SolverFailure,
    ValidationError,
)
from .spaces import (AdaptedProcess, FilteredSpace, _check_time, cell_order, cell_reps, cell_sums,
                     path_sums)
from .tolerances import EQ_TOL, FEAS_TOL, MASS_TOL, scaled_tol


@dataclass(frozen=True, eq=False)
class Measure:
    """Strictly positive probability vector over outcomes."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1 or not p.size:
            raise InvalidMeasure("probability vector must be one-dimensional and nonempty")
        if not np.isfinite(p).all():
            raise InvalidMeasure("probability vector must be finite")
        if p.min() <= 0.0:
            raise InvalidMeasure(f"measure has a nonpositive entry (min={p.min():.12g})")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise InvalidMeasure(f"probabilities sum to {p.sum():.12g}, not 1")

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class CompletionMeasure:
    """Two-point measure on the time-n cells from a unit claim's increments
    d: neg_mass = d_j / (d_j - d_i) on cell i, d_i <= 0, and the rest on cell
    j, d_j > 0; its row over the cell_count cells is built when read."""

    time: int
    neg_atom: int
    pos_atom: int
    neg_mass: float
    cell_count: int

    @property
    def atom_probabilities(self) -> np.ndarray:
        return np.bincount([self.neg_atom, self.pos_atom],
                           [self.neg_mass, 1.0 - self.neg_mass], self.cell_count)


def _claim_vector(space: FilteredSpace, X, stack: bool = False) -> np.ndarray:
    """X as an outcome vector: one finite entry per outcome (ShapeMismatch,
    ValidationError).  With stack, X may also be a stack of them, shape
    (k, n), and a ragged stack is a ShapeMismatch too."""
    try:
        x = np.asarray(X, dtype=float)
    except ValueError:
        if not stack:
            raise
        raise ShapeMismatch("claims must be numbers, one per outcome") from None
    if x.ndim not in ((1, 2) if stack else (1,)) or x.shape[-1] != space.outcome_count:
        raise ShapeMismatch("claim length must equal the outcome count")
    if not np.isfinite(x).all():
        raise ValidationError("claim must be finite")
    return x


def _measure_vector(space: FilteredSpace, P) -> np.ndarray:
    p = (P if isinstance(P, Measure) else Measure(np.asarray(P, dtype=float))).probabilities
    if p.shape != (space.outcome_count,):
        raise ShapeMismatch("measure length must equal the outcome count")
    return p


def conditional_expectation(space: FilteredSpace, P, X, t: int) -> np.ndarray:
    """E{X | F_t} under a single strictly positive measure, as an outcome row."""
    _check_time(space, t)
    p, x = _measure_vector(space, P), _claim_vector(space, X)
    return _condexp_cells(space, p, x, t, t + 1)[space.atom_index[t]]


def _condexp_cells(space: FilteredSpace, p: np.ndarray, x: np.ndarray, first: int, last: int):
    """E{x | F_t} under p on every cell of times t = first..last-1
    (space.numbering from offsets[first]), from one bincount of p * x over
    those cells, divided by p's mass on each, from one more bincount."""
    num = space.numbering
    cells = (num.ids[first:last] - num.offsets[first]).ravel()
    sums = np.bincount(cells, np.concatenate([p * x] * (last - first)))
    return sums / np.bincount(cells, np.concatenate([p] * (last - first)))


def change_of_measure_conditional(space: FilteredSpace, P1, P2, X, t: int) -> np.ndarray:
    """E^{P1}{X | F_t} computed through P2 with the normalized density.

    Uses phi = (dP1/dP2) / E^{P2}{dP1/dP2 | F_t}; the result agrees with
    conditional_expectation(space, P1, X, t).
    """
    _check_time(space, t)
    p1, p2, x = _measure_vector(space, P1), _measure_vector(space, P2), _claim_vector(space, X)
    density, cells = p1 / p2, space.atom_index[t]
    phi = density / _condexp_cells(space, p2, density, t, t + 1)[cells]
    return _condexp_cells(space, p2, x * phi, t, t + 1)[cells]


def restriction_metric(space: FilteredSpace, P1, P2, t: int) -> float:
    """Total variation between the two measures restricted to the time-t cells."""
    _check_time(space, t)
    p1, p2 = _measure_vector(space, P1), _measure_vector(space, P2)
    m1, m2 = cell_sums(space, np.stack([p1, p2])[:, None], t)
    return float(np.abs(m1 - m2).sum())


@dataclass(frozen=True)
class EssSupRow:
    """Per-cell supremum of conditional expectations over a measure family."""

    values: np.ndarray            # outcome row, constant per cell
    attained: tuple               # per cell: maximising generator's index (hull), or
                                  # attaining measure over the cell's outcomes (polytope)


class MeasureSet:
    """Common interface of the two measure-family flavours: the eight methods
    below, each overridden by every family."""

    space: FilteredSpace

    def reference(self) -> np.ndarray:
        """A canonical strictly positive member measure."""
        raise NotImplementedError

    def dominating_claim(self, x) -> tuple[float, np.ndarray, float]:
        """(alpha, eta, lower bound) for a terminal claim x: the least alpha
        such that some eta >= 0 with E^P(eta) = alpha under every member
        dominates x (domination_rows), that eta, and sup E^P x computed on
        its own: the largest generator expectation, or E^{Q*} x for the
        checked closure member Q* (superhedge_capital).  alpha is the fair
        price."""
        raise NotImplementedError

    def domination_rows(self, x) -> tuple[np.ndarray | None, np.ndarray]:
        """Rows P and bounds b such that eta satisfies E^P(eta | F_N) >= x on
        every terminal cell under every member measure iff P @ eta >= b; x
        is constant on the terminal cells.  P None stands for the identity:
        eta >= b outcome by outcome, a set of variable bounds."""
        raise NotImplementedError

    def cond_exp_sup(self, x, t: int) -> EssSupRow:
        """Per-cell sup of E^P(x | F_t) over the closure of the family, and
        per cell what attains it (EssSupRow)."""
        raise NotImplementedError

    def ess_sup_cells(self, x) -> np.ndarray:
        """The sups of cond_exp_sup(x, t) on every cell of times 0..N
        (space.numbering), shape (cells,), with nothing attaining them
        built; entry 0 is the largest expectation.  A stack of claims x,
        shape (k, n), gives every claim's sups in one call, shape (k,
        cells), row i equal to ess_sup_cells(x[i])."""
        raise NotImplementedError

    def gaps(self, cells, equality: bool, claim=None) -> tuple[tuple[str, ...], np.ndarray]:
        """Labels, and per label and cell of times s = 0..T-1 (space.numbering)
        the gap comparing E^P(f_{s+1} | F_s) with f_s, for f the process on
        the cells of times 0..T' given by cells (offsets[T'+1],), then the
        claim (n,), which need not be measurable, if any: T = T', or T' + 1
        with a claim, 1 <= T <= N+1.  Without equality there is no claim,
        and a gap is the largest excess of E^P(f_{s+1} | F_s) over f_s; with
        equality a nonnegative residual that vanishes iff E^P(f_{s+1} | F_s)
        = f_s under every member.  The gaps have shape (labels, offsets[T]).
        A stack, cells (k, offsets[T'+1]) and claims (k, n), is judged in
        the same one call, gaps (labels, k, offsets[T]), entry [:, i] that
        of process i."""
        raise NotImplementedError

    def contains_two_point(self, t: int, i, j, mass_i) -> np.ndarray:
        """Per pair of distinct time-t cells i[p] and j[p], whether some
        closure member puts mass_i[p] on i[p] and the rest on j[p]."""
        raise NotImplementedError

    def compensator(self, drops, scale: float) -> np.ndarray:
        """An optional decomposition's compensator steps on the cells of
        times 1..N (space.numbering from offsets[1]), from a process's drops
        on the same cells, f(parent) - f(cell): on the time-(t+1)
        cells a nonnegative gamma with E^P(gamma | F_t) = E^P(drop | F_t)
        under every member P.  Of these, the one with the least sum over
        each time-t cell's children (a one-generator hull
        gives the constant conditional mean instead).  scale is the
        process's 1 + max |f|.  A polytope judges every node in value units,
        and a hull every cell with one child (each cell, with one
        generator): entries down to -EQ_TOL * scale count as nonnegative,
        the tolerance of the super-martingale test.  The LP solver's
        tolerances judge a hull's other cells, every step's in one
        block-diagonal LP.  Raises Infeasible(time=t+1, cell) for the lowest
        time t, then its lowest cell, with no such gamma.  A polytope takes
        every node in one flat sweep over its (node, child) pairs, the sweep
        of its superhedge_capital."""
        raise NotImplementedError


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
        # every generator's mass of every cell of times 0..N (space.numbering)
        shape = (len(gens), space.horizon + 1, space.outcome_count)
        self._masses = cell_sums(space, np.broadcast_to(self._matrix[:, None], shape), 0)

    @property
    def k(self) -> int:
        return len(self.generators)

    def reference(self) -> np.ndarray:
        return self._matrix.mean(axis=0)

    def dominating_claim(self, x):
        # one LP in (alpha, eta): every generator's expectation of eta is
        # alpha, and eta meets the domination rows; the lower bound is the
        # largest generator expectation of x
        P, bounds = self.domination_rows(x)
        res = _lp.solve(np.r_[1.0, np.zeros(self.space.outcome_count)],
                        A_ub=np.hstack([np.zeros((len(P), 1)), -P]), b_ub=-bounds,
                        A_eq=np.hstack([-np.ones((self.k, 1)), self._matrix]),
                        b_eq=np.zeros(self.k))
        if res.status != 0:
            raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")
        return float(res.fun), res.x[1:], float(self._generator_means(x, 0, 1).max())

    def domination_rows(self, x):
        # one row per (generator, terminal cell): the cell's generator mass
        # against the claim's value there
        x = np.asarray(x, dtype=float)
        space, N = self.space, self.space.horizon
        P = np.zeros((self.k, space.n_cells(N), space.outcome_count))
        P[:, space.atom_index[N], np.arange(space.outcome_count)] = self._matrix
        bounds = self._masses[:, space.numbering.offsets[N]:] * x[cell_reps(space, N)]
        return P.reshape(-1, space.outcome_count), bounds.ravel()

    def cond_exp_sup(self, x, t):
        means = self._generator_means(x, t, t + 1)
        return EssSupRow(values=means.max(axis=0)[self.space.atom_index[t]],
                         attained=tuple(means.argmax(axis=0).tolist()))

    def ess_sup_cells(self, x):
        # a hull is not m-stable, so every time takes its own generator maxima
        x = np.asarray(x, dtype=float)
        return self._generator_means(x[..., None, :], 0, self.space.horizon + 1).max(axis=0)

    def _generator_means(self, x, first: int, last: int) -> np.ndarray:
        """Every generator's E(x_t | F_t) on each cell of times t =
        first..last-1, shape (k, cells), for x one outcome row, or one per
        time (last - first, n); a stack of such x, shape (..., 1 or last -
        first, n), gives shape (k, ..., cells).  A member's is a positively
        weighted average of these, so their maximum is the per-cell sup,
        attained by the argmax generator."""
        x, n = np.asarray(x, dtype=float), self.space.outcome_count
        stack = x.shape[:-2]
        lift = self._matrix.reshape(self.k, *[1] * (x.ndim - 2), 1, n) * x
        lift = np.broadcast_to(lift, (self.k, *stack, last - first, n))
        offsets = self.space.numbering.offsets
        sums = cell_sums(self.space, lift.reshape(-1, last - first, n), first)
        masses = self._masses[:, offsets[first]:offsets[last]]
        return sums.reshape(self.k, *stack, -1) / masses.reshape(self.k, *[1] * len(stack), -1)

    def gaps(self, cells, equality, claim=None):
        # the process spread over the outcomes of times 1..T', then the
        # claim: every generator's means of all those rows decide at once,
        # for every process of a stack
        cells, num = np.asarray(cells, dtype=float), self.space.numbering
        rows = cells[..., num.ids[1:np.searchsorted(num.offsets, cells.shape[-1])]]
        if claim is not None:
            rows = np.concatenate([rows, np.asarray(claim, dtype=float)[..., None, :]], axis=-2)
        T = rows.shape[-2]
        gaps = self._generator_means(rows, 0, T) - cells[..., :num.offsets[T]]
        return tuple(f"generator {i}" for i in range(self.k)), np.abs(gaps) if equality else gaps

    def contains_two_point(self, t, i, j, mass_i):
        # every generator charges every cell, so a two-point member needs a
        # time with two cells, its mass on cell 0 between the generators'
        ends = self._masses[:, self.space.numbering.offsets[t]]
        mass_0 = np.where(np.asarray(i) == 0, mass_i, 1.0 - np.asarray(mass_i, dtype=float))
        inside = (ends.min() - FEAS_TOL <= mass_0) & (mass_0 <= ends.max() + FEAS_TOL)
        return inside & (self.space.n_cells(t) == 2)

    def compensator(self, drops, scale):
        # per time-t cell each generator's sum of the drop and its mean.  A
        # cell with one child (every cell, with one generator) takes the
        # mean, on which the generators agree.  The other cells of every
        # step share one block-diagonal LP, a block per cell with one
        # equality per generator over its children's masses; its least sum
        # separates into each cell's least sum.  An infeasible LP is solved
        # again cell by cell, to name the first failing cell
        N, k, tol, num = self.space.horizon, self.k, EQ_TOL * scale, self.space.numbering
        offsets = num.offsets
        drops = np.asarray(drops, dtype=float)[num.ids[1:] - offsets[1]]    # row t: step t + 1
        sums = cell_sums(self.space, self._matrix[:, None] * drops, 0)
        means = sums / self._masses[:, :offsets[N]]
        lo, hi = means.min(axis=0), means.max(axis=0)
        forced = (np.bincount(num.parents, minlength=offsets[N]) == 1) | (k == 1)
        bad = np.flatnonzero(forced & (lo < -tol))[:1].tolist()
        gamma = np.maximum(0.5 * (lo + hi), 0.0)[num.parents]
        multi = np.flatnonzero(~forced)
        if multi.size:
            # the branching cells' children, cell after cell, as the columns
            kids = num.kids - offsets[1]
            kids = kids[~forced[num.parents[kids]]]
            owner = np.searchsorted(multi, num.parents[kids])
            W, r = self._masses[:, offsets[1] + kids], sums[:, multi]
            block = _lp.Columns(np.arange(0, W.size + 1, k),
                                (owner[:, None] * k + np.arange(k)).ravel(), W.T.ravel(),
                                (r.size, len(kids)))
            solution = _lp.feasible_point(block, r.T.ravel(), len(kids))
            if solution is None:
                parts = []
                for b, cell in enumerate(multi):
                    if bad and cell > bad[0]:
                        break
                    x = _lp.feasible_point(W[:, owner == b], r[:, b], int((owner == b).sum()))
                    if x is None:
                        bad.append(int(cell))
                        break
                    parts.append(x)
                else:
                    solution = np.concatenate(parts)
            if solution is not None:
                gamma[kids] = solution
        if bad:
            raise _no_compensator(self.space, min(bad))
        return gamma


def _no_compensator(space: FilteredSpace, node) -> Infeasible:
    """Infeasible at step t + 1 for the time-t cell numbered node (space.numbering)."""
    t, c = (int(v) for v in space.numbering.locate(node))
    return Infeasible(f"no compensator increment on cell {c} at step {t + 1}", time=t + 1, cell=c)


# A node with more candidate supports than this (only possible with two or
# more assets) gets its one-step sup from a small LP over its children.
_MAX_SUPPORTS = 256

# Relative singular-value cutoff of every node's projection, in per-asset units.
_PROJECTION_RCOND = float(np.sqrt(np.finfo(float).eps))

# A holdings LP's cost entry at or below this, in asset units, counts as zero.
_ZERO_COST = 1e-12


def _asset_units(cells: np.ndarray) -> np.ndarray:
    """Per asset of the stacked prices cells (d, cells), the power of two
    above its largest absolute price, or 1, shape (d, 1); a price of
    2**1023 or more has none (ValidationError)."""
    exponents = np.frexp(np.abs(cells).max(axis=1))[1]
    if exponents.max() > np.finfo(float).maxexp - 1:
        raise ValidationError("asset prices must stay below 2**1023 in absolute value")
    return np.ldexp(1.0, exponents)[:, None]


@dataclass(frozen=True, eq=False)
class _NodeGroup:
    """The time-t cells with the same child count k, and their candidate
    one-step martingale kernels.

    Candidate c of node g puts weights[g, c] on the children slots[g, c]
    (padding entries carry weight zero); penalty[g, c] is 0 when that
    kernel is a martingale kernel of the node and -inf when it is not.  Both
    end in an axis of length one, for the stack of claims (_one_step_sups).
    The candidates are None for a group solved by LP, node by node.  The
    nodes' projections, and so their replication residuals, live in the
    flat pair table (_PairTable) instead.
    """

    nodes: np.ndarray                # (G,) time-t cell ids
    kids: np.ndarray                 # (G, k) time-(t+1) cell ids
    moves: np.ndarray                # (G, d, k) asset increments towards each child
    slots: np.ndarray | None         # (G, C, s) time-(t+1) cell ids of each candidate
    weights: np.ndarray | None       # (G, C, s, 1)
    penalty: np.ndarray | None       # (G, C, 1)


@dataclass(frozen=True, eq=False)
class _PairTable:
    """Every (node, child) pair of the tree, node by node.  The nodes are
    the cells of times 0..N (space.numbering); a terminal cell's children
    are its outcomes, numbered after the cells.  Per pair, moves holds the
    asset increments towards the child and projection the child's column
    of pinv(moves^T) of its node, which maps increments towards the
    children to the least-squares holdings that replicate them; both are
    zero below a terminal cell."""

    starts: np.ndarray               # (cells + 1,) first pair of each node, then P
    parent: np.ndarray               # (P,) node id of each pair
    child: np.ndarray                # (P,) the child's cell id; an outcome w is cells + w
    moves: np.ndarray                # (d, P)
    projection: np.ndarray           # (d, P)


def _node_table(space: FilteredSpace, cells: np.ndarray, unit: np.ndarray):
    """Per time t < N, the time-t cells grouped by child count; and the
    flat table of all (node, child) pairs, for asset prices cells (d, cells).

    Increments within MASS_TOL of the asset's scale, its largest absolute
    price, count as flat: they are the rounding residue of equal prices, and
    a flat child must carry a point mass.  The scale is each asset's own, so
    an asset priced far below 1 keeps its real moves.  Each asset is
    measured in its unit (_asset_units), and the projection drops the
    singular directions of a node's moves below _PROJECTION_RCOND times
    the largest: two assets across two children span one direction, and
    the rounding residue of the second would otherwise turn into holdings
    of order 1/eps.  What the projection of a process's increments misses
    is the node's replication residual.
    """
    flat = MASS_TOL * np.abs(cells).max(axis=1)
    num, N, n = space.numbering, space.horizon, space.outcome_count
    offsets = num.offsets
    # a node's pairs start where its children start in num.kids
    counts = np.r_[np.bincount(num.parents), np.bincount(space.atom_index[N])]
    starts = np.r_[0, np.cumsum(counts)]
    pair_moves = np.zeros((len(cells), starts[-1]))
    projection = np.zeros_like(pair_moves)
    table = []
    for t in range(N):
        level, groups = np.arange(offsets[t], offsets[t + 1]), []
        # the distinct child counts, ascending; np.unique would import
        # numpy.ma on its first call, about 7 ms of a cold process
        for k in np.flatnonzero(np.bincount(counts[level])):
            nodes = level[counts[level] == k]
            pairs = starts[nodes][:, None] + np.arange(k)
            kids = num.kids[pairs]
            moves = (cells[:, kids] - cells[:, nodes, None]).transpose(1, 0, 2)
            moves[np.abs(moves) <= flat[:, None]] = 0.0
            scaled = moves / unit
            pair_moves[:, pairs] = moves.transpose(1, 0, 2)
            pinv = np.linalg.pinv(scaled.transpose(0, 2, 1), rcond=_PROJECTION_RCOND)
            projection[:, pairs] = pinv.transpose(1, 0, 2) / unit[..., None]
            kids = kids - offsets[t + 1]
            support, weights, penalty = _candidate_kernels(scaled)
            slots = None if support is None else kids[:, support]
            groups.append(_NodeGroup(nodes - offsets[t], kids, moves, slots, weights, penalty))
        table.append(tuple(groups))
    terminal = num.order[N * n:]
    pairs = _PairTable(starts, np.repeat(np.arange(offsets[-1]), counts),
                       np.r_[num.kids, offsets[-1] + terminal - N * n], pair_moves, projection)
    return tuple(table), pairs


def _candidate_kernels(moves: np.ndarray):
    """(support, weights, penalty), the last two shaped as in _NodeGroup,
    covering every vertex of each node's kernel set {q >= 0, sum q = 1,
    moves @ q = 0}, or Nones for the LP: when a multi-asset node has too
    many supports, or when some node is left without a candidate by
    rounding.

    A vertex is supported on at most d + 1 children.  A flat child carries
    a point mass.  With one asset the other vertices are the straddling
    pairs, in closed form: the down child gets m_up / (m_up - m_down).  With
    more assets each support of d + 1 children is one batched square solve
    and each smaller one a least-squares solve, kept when it satisfies the
    equalities with nonnegative weights.
    """
    G, d, k = moves.shape
    width = min(k, d + 1)
    if d > 1 and sum(comb(k, s) for s in range(1, width + 1)) > _MAX_SUPPORTS:
        return None, None, None
    parts = [(np.arange(k)[:, None], np.ones((G, k, 1)), ~moves.any(axis=1))]
    if d == 1 and k > 1:
        pairs = np.array(list(combinations(range(k), 2)))
        i, j = pairs.T
        mi, mj = moves[:, 0, i], moves[:, 0, j]
        down_i = (mi < 0.0) & (mj > 0.0)
        ok = down_i | ((mj < 0.0) & (mi > 0.0))
        up, down = np.where(down_i, mj, mi), np.where(down_i, mi, mj)
        w_down = np.where(ok, up / np.where(ok, up - down, 1.0), 0.0)
        w_up = np.where(ok, 1.0 - w_down, 0.0)
        w = np.stack([np.where(down_i, w_down, w_up), np.where(down_i, w_up, w_down)], axis=2)
        parts.append((pairs, w, ok))
    elif d > 1:
        A = np.concatenate([np.ones((G, 1, k)), moves], axis=1)   # (G, d+1, k)
        b = np.zeros(d + 1)
        b[0] = 1.0
        tol = FEAS_TOL * (1.0 + np.abs(moves).max(axis=(1, 2)))[:, None]
        for s in range(2, width + 1):
            support = np.array(list(combinations(range(k), s)))
            A_S = A[:, :, support].transpose(0, 2, 1, 3)            # (G, C, d+1, s)
            if s == d + 1:
                sv = np.linalg.svd(A_S, compute_uv=False)
                ok = sv[..., -1] > (d + 1) * np.finfo(float).eps * sv[..., 0]
                A_S = np.where(ok[..., None, None], A_S, np.eye(s))
                q = np.linalg.solve(A_S, np.broadcast_to(b[:, None], A_S.shape[:-1] + (1,)))[..., 0]
            else:
                ok = True
                q = np.linalg.pinv(A_S) @ b
            residual = np.abs(np.einsum("gcrs,gcs->gcr", A_S, q) - b).max(axis=2)
            ok = ok & (residual <= tol) & (q.min(axis=2) >= -FEAS_TOL)
            parts.append((support, np.where(ok[..., None], np.clip(q, 0.0, None), 0.0), ok))
    # pad each part to width columns with copies of its last child, at weight zero
    cols = [np.minimum(np.arange(width), p.shape[1] - 1) for p, _, _ in parts]
    support = np.concatenate([p[:, c] for (p, _, _), c in zip(parts, cols)])
    weights = np.concatenate([w[:, :, c] * (c == np.arange(width))
                              for (_, w, _), c in zip(parts, cols)], axis=1)
    ok = np.concatenate([o for _, _, o in parts], axis=1)
    if not ok.any(axis=1).all():
        return None, None, None
    return support, weights[..., None], np.where(ok, 0.0, -np.inf)[..., None]


def _one_step_sups(groups, vals: np.ndarray, unit: np.ndarray):
    """One level of the backward induction for a stack of k claims, one per
    column: per time-t cell and claim, the largest kernel expectation of the
    values vals (time-(t+1) cells, k) of its children; and per group its
    nodes' maximisers, each node's best candidate per claim (G, k) or, for a
    group without candidates, its kernel per claim (G, children, k) from one
    LP per node and claim in the asset units unit (d, 1)."""
    out = np.empty((sum(len(g.nodes) for g in groups), vals.shape[1]))
    picks = []
    for g in groups:
        if g.slots is None:
            v = vals.take(g.kids, axis=0)                             # (G, children, k)
            q = np.empty(v.shape)
            for i, j in np.ndindex(len(v), v.shape[2]):
                out[g.nodes[i], j], q[i, :, j] = _lp.maximize(
                    v[i, :, j], A_eq=np.vstack([np.ones(v.shape[1]), g.moves[i] / unit]),
                    b_eq=np.r_[1.0, np.zeros(len(unit))])
            picks.append(q)
            continue
        candidates = np.add.reduce(g.weights * vals.take(g.slots, axis=0), axis=2)
        candidates += g.penalty
        out[g.nodes] = np.maximum.reduce(candidates, axis=1)
        picks.append(candidates.argmax(axis=1))
    return out, picks


def _group_max(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """Per row of values (k, m), the largest entry of each group, for the
    groups group (m,) in 0..size-1, shape (k, size); 0 for a group with no
    entry.  One maximum.at over row-offset group ids, or a row maximum for a
    single group."""
    if size == 1:
        return values.max(axis=1, keepdims=True)
    out = np.zeros(len(values) * size)
    np.maximum.at(out, (group + size * np.arange(len(values))[:, None]).ravel(), values.ravel())
    return out.reshape(len(values), size)


def _one_asset_holdings(moves: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Per one-asset node whose interval of feasible holdings is empty, with
    moves and drops of shape (G, k): the h whose least drop + h * move is
    largest.  The interval can be empty by rounding (on a complete tree its
    two ends are one value, rounded either way) or by a shortfall within
    the super-martingale tolerance.  The largest least entry sits where the
    two entries of some straddling pair meet: of those pairs, the one whose
    meeting value is lowest."""
    i, j = np.array(list(combinations(range(moves.shape[1]), 2))).T
    straddle = moves[:, i] * moves[:, j] < 0.0
    span = np.where(straddle, moves[:, j] - moves[:, i], 1.0)
    meet = np.where(straddle, (drops[:, i] * moves[:, j] - drops[:, j] * moves[:, i]) / span,
                    np.inf)
    return ((drops[:, i] - drops[:, j]) / span)[np.arange(len(moves)), meet.argmin(axis=1)]


def _holdings_lp(moves: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Per node of a multi-asset group, with moves (G, d, k) in asset units
    and drops (G, k): one LP in the d holdings h over the k children,
    minimising the sum of drop + moves.T @ h subject to its being
    nonnegative.  A cost entry within _ZERO_COST of zero is rounding noise
    (moves that sum to zero, as a centred node's do) and is taken as zero:
    on the thin feasible set a cost of 1e-16 stops HiGHS's dual simplex at
    the package's tolerances with status "Not Set".  A node that the solver
    finds infeasible gets the h whose least entry is largest instead, for
    the caller to judge."""
    G, d, k = moves.shape
    h = np.empty((G, d))
    for i, (a, b) in enumerate(zip(moves, drops)):
        cost = a.sum(axis=1)
        cost[np.abs(cost) <= _ZERO_COST] = 0.0
        res = _lp.solve(cost, A_ub=-a.T, b_ub=b, bounds=(None, None))
        if res.status == 2:
            # maximise the floor s subject to drop + moves.T @ h >= s
            res = _lp.solve(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-a.T, np.ones((k, 1))]),
                            b_ub=b, bounds=(None, None))
        if res.status != 0:
            raise SolverFailure(f"LP solver failure (status {res.status}): {res.message}")
        h[i] = res.x[:d]
    return h


def _equality_matrix(space: FilteredSpace, cells: np.ndarray, unit: np.ndarray) -> _lp.Columns:
    """The closure's equalities as one column-wise matrix: a homogeneous row
    per (asset j, step t, time-(t-1) cell c), row j R + offsets[t-1] + c for
    the R nodes of times 0..N-1 (space.numbering), holding the
    asset's increments over the cell's outcomes, for asset prices cells (d,
    cells), in its unit (_asset_units);
    then the total-mass row.  Exact zeros are not stored.  Each outcome's
    column lists its rows by asset, then step, which is ascending."""
    n, num = space.outcome_count, space.numbering
    R = int(num.offsets[-2])
    rows = np.r_[(num.ids[:-1] + R * np.arange(len(cells))[:, None, None]).reshape(-1, n),
                 np.full((1, n), R * len(cells))].T.ravel()
    data = np.r_[(np.diff(cells[:, num.ids], axis=1) / unit[..., None]).reshape(-1, n),
                 np.ones((1, n))].T.ravel()
    keep = data != 0.0
    start = np.r_[0, np.cumsum(keep.reshape(n, -1).sum(axis=1))]
    return _lp.Columns(start, rows[keep], data[keep], (R * len(cells) + 1, n))


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
            if proc.space is not space and not np.array_equal(proc.space.atom_index, space.atom_index):
                raise ShapeMismatch("asset lives on a different filtered space")
            procs.append(proc)
        self.assets: tuple[AdaptedProcess, ...] = tuple(procs)
        self.asset_names: tuple[str, ...] = tuple(
            names if names is not None else (f"asset{i}" for i in range(len(procs)))
        )

        cells = np.array([p.cells for p in procs])                      # (d, cells)
        self._unit = _asset_units(cells)
        self._equalities = _equality_matrix(space, cells, self._unit)
        self._equality_tol = EQ_TOL * (1.0 + np.abs(cells).max(axis=1))[:, None]
        self._interior = self._solve_interior(self._equalities)
        # the interior member's mass on every cell of times 0..N (space.numbering)
        shape = (1, space.horizon + 1, space.outcome_count)
        self._interior_mass = cell_sums(space, np.broadcast_to(self._interior, shape), 0)[0]
        self._nodes, self._pairs = _node_table(space, cells, self._unit)

    def _solve_interior(self, A: _lp.Columns) -> np.ndarray:
        n = self.space.outcome_count
        # maximize the floor t subject to q >= t, the equalities A, sum q = 1;
        # the variables are (q, t), so the equalities get an empty last column
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A_eq = _lp.Columns(np.r_[A.start, A.start[-1]], A.index, A.value, (A.shape[0], n + 1))
        # row i of [-I | 1]: -q_i + t <= 0
        A_ub = _lp.Columns(np.r_[np.arange(n + 1), 2 * n], np.tile(np.arange(n), 2),
                           np.repeat([-1.0, 1.0], n), (n, n + 1))
        res = _lp.solve(c, A_ub=A_ub, b_ub=np.zeros(n), A_eq=A_eq,
                        b_eq=np.r_[np.zeros(A.shape[0] - 1), 1.0],
                        bounds=(np.r_[np.zeros(n), -np.inf], np.ones(n + 1)))
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

    def dominating_claim(self, x):
        capital, _, q_star = self.superhedge_capital(x)
        return float(capital[0]), capital[self.space.numbering.ids[-1]], float(q_star @ x)

    def domination_rows(self, x):
        # the closure's vertices put each terminal cell's mass on a single
        # outcome, and the interior member charges every cell, so eta
        # dominates under every member iff it dominates pointwise
        return None, np.array(x, dtype=float)

    def cond_exp_sup(self, x, t):
        x = np.asarray(x, dtype=float)
        sups, picks = self._induction(x[None], t)
        order, starts = cell_order(self.space, t, t + 1)
        attained = tuple(np.split(self._attaining(x, picks)[0][order], starts[1:]))
        return EssSupRow(values=sups[0, self.space.atom_index[t]], attained=attained)

    def ess_sup_cells(self, x):
        x = np.asarray(x, dtype=float)
        return self._induction(x.reshape(-1, x.shape[-1]), 0)[0].reshape(*x.shape[:-1], -1)

    def _induction(self, x: np.ndarray, t: int):
        """For a stack of claims x (k, n): the per-cell sups of E^Q{x[i] |
        F_s} over the closure on every cell of times s = t..N, shape (k,
        cells) numbered as in space.numbering from offsets[t]; and the
        maximisers of each level s < N (_one_step_sups), entry s - t.  The
        closure is m-stable, so the sup starts from each terminal cell's
        largest value and, level by level, takes each node's largest
        expectation of its children's values over its martingale kernels."""
        space, N, offsets = self.space, self.space.horizon, self.space.numbering.offsets
        order, starts = cell_order(space, N, N + 1)
        vals = np.maximum.reduceat(x.take(order, axis=1), starts, axis=1).T     # (cells, k)
        sups = np.empty((offsets[-1] - offsets[t], len(x)))
        sups[offsets[N] - offsets[t]:] = vals
        picks = [None] * (N - t)
        for s in range(N - 1, t - 1, -1):
            vals, picks[s - t] = _one_step_sups(self._nodes[s], vals, self._unit)
            sups[offsets[s] - offsets[t]:offsets[s + 1] - offsets[t]] = vals
        return sups.T, picks

    def _attaining(self, x: np.ndarray, picks) -> tuple[np.ndarray, np.ndarray]:
        """For one claim x and the maximisers of its induction (_induction,
        a stack of one), the outcome masses of the measure attaining its
        sups on the cells of the induction's first time: the product of the
        maximising kernels, each terminal cell's mass on its top, the cell's
        first outcome with the largest x; and those tops."""
        space, N = self.space, self.space.horizon
        tops = np.lexsort((-x, space.atom_index[N]))[cell_order(space, N, N + 1)[1]]
        weights = np.zeros(space.outcome_count)
        weights[tops] = 1.0
        for s, level in zip(range(N - 1, -1, -1), reversed(picks)):
            kernel = np.zeros(space.n_cells(s + 1))
            for g, pick in zip(self._nodes[s], level):
                pick = pick[..., 0]
                if g.slots is None:
                    kernel[g.kids] = pick
                else:
                    rows = np.arange(len(pick))
                    np.add.at(kernel, g.slots[rows, pick], g.weights[rows, pick, :, 0])
            weights *= kernel[space.atom_index[s + 1]]
        return weights, tops

    def gaps(self, cells, equality, claim=None):
        cells = np.asarray(cells, dtype=float)
        stack, cells = cells.shape[:-1], cells.reshape(-1, cells.shape[-1])
        space, num, pairs = self.space, self.space.numbering, self._pairs
        N, n, offsets, k = space.horizon, space.outcome_count, num.offsets, len(cells)
        T = int(np.searchsorted(offsets, cells.shape[1])) - 1      # the process's last time
        if not equality:
            # f_{s+1} is F_{s+1}-measurable, so level s of the induction
            # decides; one column per process
            vals = cells.T
            sups = [_one_step_sups(self._nodes[s], vals[offsets[s + 1]:offsets[s + 2]],
                                   self._unit)[0] - vals[offsets[s]:offsets[s + 1]]
                    for s in range(T)]
            return ("lp max",), np.concatenate(sups).T.reshape(1, *stack, -1)
        # m-stability: E^P(f_{s+1} | F_s) = f_s for every member iff every
        # node's increments towards its children are replicated by its
        # asset moves.  A claim at N + 1 sits on the terminal cells'
        # children, the outcomes; one F_{T+1}-measurable is read on the cells
        path = cells
        if claim is not None:
            claim = np.asarray(claim, dtype=float).reshape(k, n)
            if T < N:
                last = claim - cells[:, num.ids[T]]
                if not (last[:, num.firsts[num.ids[T + 1]] % n] == last).all():
                    miss = self._spread_gaps(cells, last, T)
                    return ("node residual",), miss.reshape(1, *stack, -1)
                claim = claim[:, num.firsts[offsets[T + 1]:offsets[T + 2]] % n]
            path, T = np.concatenate([cells, claim], axis=1), T + 1
        span = pairs.starts[offsets[T]]
        miss = self._fit(path[:, pairs.child[:span]] - path[:, pairs.parent[:span]])[1]
        return ("node residual",), miss.reshape(1, *stack, -1)

    def _spread_gaps(self, cells: np.ndarray, last: np.ndarray, T: int) -> np.ndarray:
        """gaps for processes on the cells of times 0..T < N, whose claims'
        last steps last (k, n) are not F_{T+1}-measurable: each spread over
        the reference member's conditional means on the cells of times
        T+1..N, then its outcomes, from 0 on the time-T cells, each owning
        every pair below it; the sums go up the pair table a level at a time."""
        num, pairs, n = self.space.numbering, self._pairs, self.space.outcome_count
        offsets, N = num.offsets, self.space.horizon
        up, lo, head = offsets[T], offsets[T + 1], pairs.starts[offsets[T]]
        width = offsets[-1] - up
        path = np.zeros((len(last), width + n))          # columns: cell - up, then outcomes
        path[:, width:] = self._interior * last
        for t in range(N, T, -1):
            first = pairs.starts[offsets[t]:offsets[t + 1] + 1]
            path[:, offsets[t] - up:offsets[t + 1] - up] = np.add.reduceat(
                path[:, pairs.child[first[0]:first[-1]] - up], first[:-1] - first[0], axis=1)
        path[:, lo - up:width] /= self._interior_mass[lo:]
        path[:, width:] = last
        b = path[:, pairs.child[head:] - up] - path[:, pairs.parent[head:] - up]
        if head:
            b = np.concatenate([cells[:, pairs.child[:head]] - cells[:, pairs.parent[:head]], b],
                               axis=1)
        ancestor = num.ids[T][num.firsts[up:] % n]
        owner = np.r_[pairs.parent[:head], ancestor[pairs.parent[head:] - up]]
        return self._fit(b, owner, lo)[1]

    def _fit(self, b: np.ndarray, owner: np.ndarray | None = None, size: int = 0):
        """For k processes, their increments b (k, pairs) towards the
        children of the table's first pairs: the least-squares holdings of
        every process and node of those pairs, shape (d, k * nodes), from
        one bincount per asset over process-offset node ids; and per
        process the largest miss over the pairs of each node, shape
        (k, nodes), or of each owner for owners (pairs,) in 0..size-1, shape
        (k, size) (_group_max)."""
        pairs = self._pairs
        k, span = b.shape
        nodes = int(pairs.parent[span - 1]) + 1
        # one process's node ids are the pairs' own: no offsets to add
        index = pairs.parent[:span] if k == 1 else (
            pairs.parent[:span] + np.arange(0, k * nodes, nodes)[:, None]).ravel()
        h = np.array([np.bincount(index, (p[:span] * b).ravel(), k * nodes)
                      for p in pairs.projection])
        fit = np.add.reduce(h[:, index].reshape(-1, k, span) * pairs.moves[:, None, :span])
        fit -= b
        np.abs(fit, out=fit)
        if owner is not None:
            return h, _group_max(fit, owner, size)
        miss = np.zeros(k * nodes)
        np.maximum.at(miss, index, fit.ravel())
        return h, miss.reshape(k, nodes)

    def hedge_ratios(self, cells) -> tuple[np.ndarray, list[np.ndarray]]:
        """Asset holdings that replicate the one-step increments of an adapted
        process, in the least-squares sense, and how far they miss.

        cells holds the process on the cells of times 0..N (space.numbering).
        Returns the holdings chosen on every cell of times 0..N-1, shape
        (offsets[N], d), and per step m the replication residual of each
        time-(m-1) cell, every node in one projection (_fit).
        """
        cells, pairs = np.asarray(cells, dtype=float), self._pairs
        offsets = self.space.numbering.offsets
        span = pairs.starts[offsets[-2]]                 # the pairs of the cells of times 0..N-1
        h, miss = self._fit((cells[pairs.child[:span]] - cells[pairs.parent[:span]])[None])
        return h.T, np.split(miss[0], offsets[1:-2])

    def superhedge_capital(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(M, H, Q*) of the least superhedge of the terminal claim x, from one
        backward induction: capital M = V + g on every cell of times 0..N
        (space.numbering), with V the per-cell sups of ess_sup_cells(x) and g
        the running sum of its compensator steps down the tree, so M_0 = V_0
        = sup E x and M_N >= x; the compensator's holdings H, shape
        (offsets[N], d), chosen on every cell of times 0..N-1, with M_c -
        M_p = H_p . (S_c - S_p) for every cell c and its parent p; and the
        outcome masses of the closure member Q* attaining V_0 (_attaining),
        so E^{Q*} x is a lower bound on the price.  Q* must be nonnegative,
        of mass 1 within MASS_TOL, and meet every asset equality, or a
        MathError is raised."""
        x = np.asarray(x, dtype=float)
        V, picks = self._induction(x[None], 0)
        V, (q_star, tops) = V[0], self._attaining(x, picks)
        missed = self.equality_residuals(q_star[tops], self.space.horizon)
        if q_star.min() < 0.0 or abs(q_star.sum() - 1.0) > MASS_TOL or missed:
            raise MathError(f"the measure attaining the price fails its own check: least mass "
                            f"{q_star.min():.3e}, total {q_star.sum():.12g}, {len(missed)} missed")
        num, scale = self.space.numbering, 1.0 + float(np.abs(V).max())
        gamma, holdings = self._compensator(V[num.parents] - V[num.offsets[1]:], scale)
        return V + path_sums(self.space, gamma), holdings, q_star

    def compensator(self, drops, scale):
        return self._compensator(np.asarray(drops, dtype=float), scale)[0]

    def _compensator(self, drops: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """(gamma, H) for the drops of a process on the cells of times 1..N:
        the compensator steps (compensator) on those cells, and their
        holdings on the cells of times 0..N-1, shape (offsets[N], d).

        Every node at once, from the flat pair table: the closure is
        m-stable, so gamma - drop has zero conditional mean under every
        member iff on each node it is h . moves for some holdings h.  gamma
        is drop + h . moves for the h that keeps it nonnegative with the
        least sum over the node's children.  With one asset the feasible h
        form the interval [max over up moves of -drop / move, min over down
        moves of -drop / move], and the sum changes with h by the sum of the
        moves, so the least sum sits at the lower end when the moves sum to
        more than zero and at the upper end otherwise; a flat node trades
        nothing, and a node whose interval is empty takes
        _one_asset_holdings.  With more assets h is the projection's where
        it replicates the drop (gamma about 0), else a small LP per node
        (_holdings_lp).  Both fallbacks take their nodes by child count.
        Feasibility is judged in value units, gamma >= -EQ_TOL * scale, the
        tolerance of the super-martingale test; Infeasible(time=t+1, cell)
        names the lowest time t, then its lowest cell, with no such gamma."""
        pairs, offsets = self._pairs, self.space.numbering.offsets
        tol, size = EQ_TOL * scale, int(offsets[-2])
        span = slice(0, pairs.starts[size])            # the pairs of the cells of times 0..N-1
        cells, moves = pairs.parent[span], pairs.moves[:, span]
        child = pairs.child[span] - offsets[1]         # each pair's child, from offsets[1]
        b = drops[child]
        if len(moves) == 1:
            m = moves[0]
            ratio = np.divide(-b, m, out=np.zeros_like(b), where=m != 0.0)
            lo, hi = np.full(size, -np.inf), np.full(size, np.inf)
            np.maximum.at(lo, cells[m > 0.0], ratio[m > 0.0])
            np.minimum.at(hi, cells[m < 0.0], ratio[m < 0.0])
            h = np.where(np.bincount(cells, m, size) > 0.0, lo, hi)
            h = np.where(np.isfinite(h), h, 0.0)[:, None]
            fallback = np.flatnonzero(lo > hi)
        else:
            h, miss = self._fit(-b[None])
            h, fallback = h.T, np.flatnonzero(miss[0] > tol)
        if fallback.size:
            counts = np.diff(pairs.starts[:size + 1])
            # the distinct child counts, without np.unique (_node_table)
            for k in np.flatnonzero(np.bincount(counts[fallback])):
                nodes = fallback[counts[fallback] == k]
                kids = pairs.starts[nodes, None] + np.arange(k)
                if len(moves) == 1:
                    h[nodes, 0] = _one_asset_holdings(moves[0, kids], b[kids])
                else:
                    h[nodes] = _holdings_lp(moves[:, kids].transpose(1, 0, 2) / self._unit,
                                            b[kids]) / self._unit[:, 0]
        gamma = b + np.einsum("dp,pd->p", moves, h[cells])
        short = cells[gamma < -tol]
        if short.size:
            raise _no_compensator(self.space, short.min())
        steps = np.empty(offsets[-1] - offsets[1])
        steps[child] = gamma
        return steps, h

    def contains_two_point(self, t, i, j, mass_i):
        # steps 1..t constrain, an interior member extending beyond t: at s
        # a shared time-(s-1) ancestor sums the terms, as equality_residuals
        # does, and distinct ones see one each.  A pair leaves at a failure
        rep, ids = cell_reps(self.space, t)[np.array([i, j], dtype=int)], self.space.numbering.ids
        mass, live = np.array([mass_i, 1.0 - np.asarray(mass_i, dtype=float)]), np.arange(len(mass_i))
        S = np.array([a.cells for a in self.assets])
        for s in range(1, t + 1):
            terms = mass * (S[:, ids[s, rep]] - S[:, ids[s - 1, rep]])      # (d, 2, pairs)
            shared = ids[s - 1, rep[0]] == ids[s - 1, rep[1]]
            miss = np.where(shared, np.abs(terms.sum(axis=1)), np.abs(terms).max(axis=1))
            keep = (miss <= self._equality_tol).all(axis=0)
            live, rep, mass = live[keep], rep[:, keep], mass[:, keep]
        return np.bincount(live, minlength=len(mass_i)) > 0

    def equality_residuals(self, mu: np.ndarray, up_to_time: int) -> list[tuple[int, int, int, float]]:
        """Evaluate the asset equalities with step <= up_to_time on a measure
        given by per-cell masses mu at up_to_time: (asset, step, cell, residual)
        in value units for each residual beyond EQ_TOL * (1 + max |S_j|).
        The equalities are node-local: mu summed up the tree, one bincount
        per level, gives every cell's mass, and a node's residual is the sum
        over its children of mass * (S_child - S_node), one bincount over
        the cells' parents per asset."""
        num, T = self.space.numbering, up_to_time
        offsets, R = num.offsets, num.offsets[up_to_time]
        mass = np.zeros(offsets[T + 1])
        mass[R:] = mu
        for t in range(T, 0, -1):
            lo, hi, up = offsets[t], offsets[t + 1], offsets[t - 1]
            mass[up:lo] = np.bincount(num.parents[lo - 1:hi - 1] - up, mass[lo:hi], lo - up)
        up = num.parents[:offsets[T + 1] - 1]
        res = np.array([np.bincount(up, mass[1:] * (a.cells[1:offsets[T + 1]] - a.cells[up]), R)
                        for a in self.assets])
        j, node = np.nonzero(np.abs(res) > self._equality_tol)
        t, c = num.locate(node)
        return list(zip(j.tolist(), (t + 1).tolist(), c.tolist(), res[j, node].tolist()))


def is_unit_claim(space: FilteredSpace, mset: MeasureSet, xi):
    """True iff xi >= -EQ_TOL and E^P[xi] = 1 for every member measure: the
    gaps of the process 1 on the time-0 cell followed by the claim xi stay
    within scaled_tol(xi).  A stack of claims xi, shape (k, n), is judged in
    one gaps call over the stack of those processes, one verdict per claim,
    shape (k,), each at its own scale; a single claim is a stack of one,
    with a bool verdict."""
    x = _claim_vector(space, xi, stack=True)
    gaps = mset.gaps(np.ones((*x.shape[:-1], 1)), equality=True, claim=x)[1]
    ok = (x.min(axis=-1) >= -EQ_TOL) & (gaps.max(axis=(0, -1)) <= scaled_tol(x))
    return ok if x.ndim == 2 else bool(ok)


def unit_claim_rows(space: FilteredSpace, mset: MeasureSet, xi0) -> np.ndarray:
    """Conditional-expectation rows E{xi0 | F_t}, t = 0..N, of a unit claim.

    The rows are computed under the reference measure.  One gaps call at
    scaled_tol(xi0) on [1, E(xi0 | F_1), ..., E(xi0 | F_N), xi0] checks that
    each row is the conditional expectation of the next under every member,
    which also makes xi0 a unit claim (on a polytope its residuals are
    is_unit_claim's).  Only if it fails is is_unit_claim asked (NotUnitClaim)
    and the rows from E(xi0) checked: MeasureDependent names the latest time
    at which they differ, its first label with a gap there and that label's
    largest gap.
    """
    return _unit_claim_cells(space, mset, xi0)[space.numbering.ids]


def _unit_claim_cells(space: FilteredSpace, mset: MeasureSet, xi0) -> np.ndarray:
    """unit_claim_rows on every cell of times 0..N (space.numbering)."""
    xi0 = _claim_vector(space, xi0)
    cells = _condexp_cells(space, mset.reference(), xi0, 0, space.horizon + 1)
    tol, started = scaled_tol(xi0), np.r_[1.0, cells[1:]]
    if xi0.min() >= -EQ_TOL and mset.gaps(started, equality=True, claim=xi0)[1].max() <= tol:
        return cells
    if not is_unit_claim(space, mset, xi0):
        raise NotUnitClaim("claim is not nonnegative with unit expectation under every measure")
    labels, gaps = mset.gaps(cells, equality=True, claim=xi0)
    label, node = np.nonzero(gaps > tol)
    if not node.size:
        return cells
    offsets = space.numbering.offsets
    t = int(space.numbering.locate(node.max())[0])
    first = int(label[node >= offsets[t]].min())
    row = gaps[first, offsets[t]:offsets[t + 1]]
    c = int(np.argmax(row))
    raise MeasureDependent(f"E(claim | F_{t}) differs across measures on cell {c} "
                           f"({labels[first]}, gap {row[c]:.3e})", time=t, cell=c)


def increment_process(space: FilteredSpace, mset: MeasureSet, xi0) -> list[np.ndarray]:
    """Per-step increments of the unit-claim martingale, one value per cell.

    Entry n-1 of the result holds, for each cell of partitions[n], the value
    of E{xi0 | F_n} - E{xi0 | F_{n-1}} on that cell.
    """
    num, cells = space.numbering, _unit_claim_cells(space, mset, xi0)
    return np.split(cells[num.offsets[1]:] - cells[num.parents], num.offsets[2:-1] - num.offsets[1])


def _completion_pairs(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, mass_i) of one time's CompletionMeasures from its increments
    d: each cell i with d_i <= EQ_TOL in turn with each j with d_j > EQ_TOL."""
    neg, pos = np.flatnonzero(d <= EQ_TOL), np.flatnonzero(d > EQ_TOL)
    i, j = np.repeat(neg, len(pos)), np.tile(pos, len(neg))
    return i, j, d[j] / (d[j] - d[i])


def completion_measures(space: FilteredSpace, mset: MeasureSet, xi0, n: int) -> list[CompletionMeasure]:
    """The completion measures at time n of the unit claim xi0, one per pair
    of _completion_pairs; none when its increments vanish there."""
    if not 1 <= n <= space.horizon:
        raise IndexError(f"time {n} out of range 1..{space.horizon}")
    i, j, mass_i = _completion_pairs(increment_process(space, mset, xi0)[n - 1])
    return [CompletionMeasure(n, a, b, m, cells) for a, b, m, cells
            in zip(i.tolist(), j.tolist(), mass_i.tolist(), repeat(space.n_cells(n)))]


@dataclass(frozen=True)
class CompletenessReport:
    complete: bool
    failures: tuple[tuple[int, int, int], ...]  # (time, neg cell, pos cell)
    tested: int

    def __bool__(self) -> bool:
        return self.complete


def is_complete(space: FilteredSpace, mset: MeasureSet, xi0) -> CompletenessReport:
    """Decide whether every completion measure lies in the closure of the
    family: one contains_two_point call per time over all its pairs."""
    failures, tested = [], 0
    for n, d in enumerate(increment_process(space, mset, xi0), start=1):
        i, j, mass_i = _completion_pairs(d)
        out = ~mset.contains_two_point(n, i, j, mass_i)
        failures += zip(repeat(n), i[out].tolist(), j[out].tolist())
        tested += len(i)
    return CompletenessReport(complete=not failures, failures=tuple(failures), tested=tested)


def ess_sup_conditional(space: FilteredSpace, mset: MeasureSet, X, t: int) -> EssSupRow:
    """Smallest F_t-measurable upper envelope of E^P{X | F_t} over the family.

    Over a hull this is the per-cell maximum across generators; over a
    martingale polytope the per-cell supremum across the closure, by
    backward induction over the nodes of the tree.
    """
    x = _nonnegative_claim(space, X)
    _check_time(space, t)
    return mset.cond_exp_sup(x, t)


def _nonnegative_claim(space: FilteredSpace, X) -> np.ndarray:
    x = _claim_vector(space, X)
    if x.min() < -EQ_TOL:
        raise ValidationError("claim must be nonnegative")
    return x
