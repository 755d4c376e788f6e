"""Convex families of equivalent measures on a finite filtered space.

Every family implements one contract, MeasureSet, and no other module tells
the families apart.  The contract has eight methods: reference,
dominating_claim, domination_rows, cond_exp_sup, ess_sup_rows, step_gaps,
contains_masses and compensator_increments.  The largest expectation over
the family is cond_exp_sup at time 0.  Two concrete families are supported:

* GeneratorHull -- the convex hull of finitely many strictly positive
  measures.  Conditional expectations under any hull member are positively
  weighted averages of the generator conditionals, so per-cell extrema over
  the family reduce to extrema over the generators, and a compensator step
  is one equality per generator on each cell: the conditional mean on a
  cell with one child, one block-diagonal LP per step for the rest.

* MartingalePolytope -- all strictly positive measures making the listed
  asset processes martingales.  The family is an open face of the polyhedron
  {q >= 0, asset equalities, total mass 1}.  Its closure is m-stable: a
  member is one martingale kernel per node of the tree, so per-cell suprema
  of conditional expectations are a backward induction of one-step problems
  over a node's children (closed form for one asset, small linear solves
  for more).  For the same reason a super-martingale decomposes node by
  node: its compensator step on a node's children is drop + h . moves for
  holdings h that keep it nonnegative (an interval per node for one asset,
  a small LP per node for more where a projection does not replicate the
  drop), and a claim's least superhedge is its envelope plus the
  envelope's compensator.  Members move only in node-local directions, so
  an identity that holds under every member is a linear test against an
  interior member and those directions.  One batched
  projection per group of nodes gives the holdings that replicate a
  martingale's increments, and each asset is measured in its own
  power-of-two unit, so that the verdicts do not depend on the assets'
  relative scale.

Pricing asks each family for a dominating claim (one LP on a hull, the
least superhedge on a polytope) and checks it against the domination rows,
domination_rows(x) -> (P, b): a claim eta dominates the terminal claim x
under every member measure iff P @ eta >= b.  A hull gives one row per
(generator, terminal cell).  A polytope gives P = None, which stands for
the identity: eta >= x outcome by outcome.  Its asset equalities only see
cell masses, so a closure member may put a terminal cell's whole mass on
any one of its outcomes.

Claims with expectation one under every member measure ("unit claims") play
the role of normalized state-price densities.  Their conditional-expectation
martingales, increments, two-point completion measures and the completeness
test live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse

from . import _lp
from .errors import (
    Infeasible,
    InfeasiblePricing,
    InvalidMeasure,
    MeasureDependent,
    NoEquivalentMartingaleMeasure,
    NotUnitClaim,
    ShapeMismatch,
    UnboundedObjective,
)
from .spaces import AdaptedProcess, FilteredSpace, cell_reps
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
            raise InvalidMeasure(f"measure has a nonpositive entry (min={p.min():.12g})")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise InvalidMeasure(f"probabilities sum to {p.sum():.12g}, not 1")

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
    attained: tuple               # per cell: maximising generator's index (hull), or
                                  # attaining measure over the cell's outcomes (polytope)


class MeasureSet:
    """Common interface of the two measure-family flavours: the eight methods
    below, each overridden by every family."""

    space: FilteredSpace

    def reference(self) -> np.ndarray:
        """A canonical strictly positive member measure."""
        raise NotImplementedError

    def dominating_claim(self, x) -> tuple[float, np.ndarray]:
        """(alpha, eta) for a terminal claim x: the least alpha such that some
        eta >= 0 with E^P(eta) = alpha under every member dominates x
        (domination_rows), and that eta.  alpha is the fair price."""
        raise NotImplementedError

    def domination_rows(self, x) -> tuple[np.ndarray | None, np.ndarray]:
        """Rows P and bounds b such that eta satisfies E^P(eta | F_N) >= x on
        every terminal cell under every member measure iff P @ eta >= b; x
        is constant on the terminal cells.  P None stands for the identity:
        eta >= b outcome by outcome, a set of variable bounds."""
        raise NotImplementedError

    def cond_exp_sup(self, x, t: int) -> EssSupRow:
        """Per-cell sup of E^P(x | F_t) over the closure of the family; at
        t = 0 its single value is the largest expectation of x."""
        raise NotImplementedError

    def ess_sup_rows(self, x) -> np.ndarray:
        """The rows cond_exp_sup(x, t).values for t = 0..N, shape (N+1, n)."""
        raise NotImplementedError

    def step_gaps(self, x, base, t: int, equality: bool) -> list[tuple[str, np.ndarray]]:
        """Pairs (label, gaps), one gap per time-t cell, comparing E^P(x | F_t)
        with the F_t-measurable base over the family.

        Without equality x is F_{t+1}-measurable, and a gap is the largest
        excess of E^P(x | F_t) over base; with equality it is a nonnegative
        residual that vanishes iff E^P(x | F_t) = base under every member
        measure."""
        raise NotImplementedError

    def contains_masses(self, masses, t: int) -> bool:
        """Whether some measure in the closure puts these masses on the
        time-t cells."""
        raise NotImplementedError

    def compensator_increments(self, drop, t: int, scale: float) -> np.ndarray:
        """One step of an optional decomposition's compensator: a nonnegative
        F_{t+1}-measurable gamma, as an outcome row, with
        E^P(gamma | F_t) = E^P(drop | F_t) under every member P, where
        drop = f_t - f_{t+1}.  Of these, the one with the least sum over
        each time-t cell's children (a one-generator hull gives the constant
        conditional mean instead).  scale is the process's 1 + max |f|.  A
        polytope judges every node in value units, and a hull every cell
        with one child (each cell, with one generator): entries down to
        -EQ_TOL * scale count as nonnegative, the tolerance of the
        super-martingale test, and a hull's generators must agree on the
        mean within EQ_TOL * scale.  The LP solver's tolerances judge a
        hull's other cells.  Raises Infeasible(time=t+1, cell) for the
        lowest time-t cell with no such gamma."""
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

    @property
    def k(self) -> int:
        return len(self.generators)

    def reference(self) -> np.ndarray:
        return self._matrix.mean(axis=0)

    def dominating_claim(self, x):
        # one LP in (alpha, eta): every generator's expectation of eta is
        # alpha, and eta meets the domination rows
        P, bounds = self.domination_rows(x)
        res = _lp.solve(np.r_[1.0, np.zeros(self.space.outcome_count)],
                        A_ub=np.hstack([np.zeros((len(P), 1)), -P]), b_ub=-bounds,
                        A_eq=np.hstack([-np.ones((self.k, 1)), self._matrix]),
                        b_eq=np.zeros(self.k))
        if res.status != 0:
            raise InfeasiblePricing(f"pricing LP failed (status {res.status}): {res.message}")
        return float(res.fun), res.x[1:]

    def domination_rows(self, x):
        # one row per (generator, terminal cell): the cell's generator mass
        # against the claim's value there
        x = np.asarray(x, dtype=float)
        space = self.space
        t = space.horizon
        cells = [space.cell_outcomes(t, c) for c in range(space.n_cells(t))]
        P = np.zeros((self.k * len(cells), space.outcome_count))
        bounds = np.empty(len(P))
        for i, p in enumerate(self._matrix):
            for j, idx in enumerate(cells):
                P[i * len(cells) + j, idx] = p[idx]
                bounds[i * len(cells) + j] = x[idx[0]] * p[idx].sum()
        return P, bounds

    def cond_exp_sup(self, x, t):
        x = np.asarray(x, dtype=float)
        rows = np.array([_condexp_row(self.space, p, x, t) for p in self._matrix])
        values = rows.max(axis=0)
        attained = tuple(int(np.argmax(rows[:, r])) for r in cell_reps(self.space, t))
        return EssSupRow(values=values, attained=attained)

    def ess_sup_rows(self, x):
        # a hull is not m-stable, so every time takes its own generator maxima
        x = np.asarray(x, dtype=float)
        return np.array([[_condexp_row(self.space, p, x, t) for p in self._matrix]
                         for t in range(self.space.horizon + 1)]).max(axis=1)

    def step_gaps(self, x, base, t, equality):
        # every member's conditional expectation is a positively weighted
        # average of the generators', so the generators decide
        x = np.asarray(x, dtype=float)
        reps = cell_reps(self.space, t)
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

    def compensator_increments(self, drop, t, scale):
        # a time-t cell with one child (every cell, with one generator) takes
        # the drop's conditional mean, on which the generators must agree.
        # The other cells share one block-diagonal LP, a block per cell with
        # one equality per generator; its least sum separates into each
        # cell's least sum.  An infeasible block is solved cell by cell, to
        # name the cell
        space = self.space
        tol = EQ_TOL * scale
        drop = np.asarray(drop, dtype=float)
        atoms, n_cells = space.atom_index[t], space.n_cells(t)
        means = np.array([np.bincount(atoms, weights=drop * w, minlength=n_cells)
                          / np.bincount(atoms, weights=w, minlength=n_cells)
                          for w in self._matrix])
        lo, hi = means.min(axis=0), means.max(axis=0)
        forced = np.array([len(kids) == 1 for kids in space.children[t]]) | (self.k == 1)
        bad = np.flatnonzero(forced & ((hi - lo > tol) | (lo < -tol)))[:1].tolist()
        gamma = np.maximum(0.5 * (lo + hi), 0.0)[atoms[cell_reps(space, t + 1)]]
        multi = np.flatnonzero(~forced)
        if multi.size:
            systems = [self._cell_system(drop, t, c) for c in multi]
            # column j holds its cell's k generator rows, block after block
            owner = np.repeat(np.arange(len(multi)), [W.shape[1] for W, _ in systems])
            block = sparse.csc_array(
                (np.concatenate([W.T for W, _ in systems]).ravel(),
                 (owner[:, None] * self.k + np.arange(self.k)).ravel(),
                 np.arange(0, len(owner) * self.k + 1, self.k)),
                shape=(len(multi) * self.k, len(owner)))
            solution = _lp.feasible_point(block, np.concatenate([r for _, r in systems]),
                                          len(owner))
            if solution is None:
                parts = []
                for c, (W, r) in zip(multi, systems):
                    x = None if len(multi) == 1 else _lp.feasible_point(W, r, W.shape[1])
                    if x is None:
                        bad.append(int(c))
                        break
                    parts.append(x)
                else:
                    solution = np.concatenate(parts)
            if solution is not None:
                gamma[np.concatenate([space.children[t][c] for c in multi])] = solution
        if bad:
            c = min(bad)
            raise Infeasible(f"no compensator increment on cell {c} at step {t + 1}",
                             time=t + 1, cell=c)
        return gamma[space.atom_index[t + 1]]

    def _cell_system(self, drop: np.ndarray, t: int, c: int) -> tuple[np.ndarray, np.ndarray]:
        """(W, r) of the time-t cell c: per generator, its masses of the
        cell's children and its sum of drop over the cell."""
        idx = list(self.space.cells[t][c])
        kid_cells = [self.space.cell_outcomes(t + 1, k) for k in self.space.children[t][c]]
        W = np.array([[w[kc].sum() for kc in kid_cells] for w in self._matrix])
        r = np.array([float(drop[idx] @ w[idx]) for w in self._matrix])
        return W, r


# A node with more candidate supports than this (only possible with two or
# more assets) gets its one-step sup from a small LP over its children.
_MAX_SUPPORTS = 256

# Relative singular-value cutoff of every node rank, in per-asset units.
_PROJECTION_RCOND = float(np.sqrt(np.finfo(float).eps))


def _asset_units(assets) -> np.ndarray:
    """Per asset, the power of two above its largest absolute price, or 1."""
    return np.ldexp(1.0, np.frexp([np.abs(a.values).max() for a in assets])[1])


@dataclass(frozen=True, eq=False)
class _NodeGroup:
    """The time-t cells with the same child count k, and their candidate
    one-step martingale kernels.

    Candidate c of node g puts weights[g, c] on the children at positions
    support[c] (padding entries carry weight zero); penalty[g, c] is 0 when
    that kernel is a martingale kernel of the node and -inf when it is not.
    The candidates are None for a group solved by LP, node by node.
    projection[g] is the pseudo-inverse of moves[g].T, taken with each
    asset in its own units: it maps the increments of a process towards the
    children to the least-squares asset holdings that replicate them.
    """

    nodes: np.ndarray                # (G,) time-t cell ids
    kids: np.ndarray                 # (G, k) time-(t+1) cell ids
    moves: np.ndarray                # (G, d, k) asset increments towards each child
    projection: np.ndarray           # (G, d, k) pinv(moves^T), per asset unit
    support: np.ndarray | None       # (C, s) child positions of each candidate
    weights: np.ndarray | None       # (G, C, s)
    penalty: np.ndarray | None       # (G, C)
    free: np.ndarray                 # (F,) node position of each kernel direction
    directions: np.ndarray           # (F, k) orthonormal per node; sum 0, moves @ it 0


def _node_table(space: FilteredSpace, assets) -> tuple[tuple[_NodeGroup, ...], ...]:
    """Per time t < N, the time-t cells grouped by child count.

    Increments within MASS_TOL of the asset's scale count as flat: they are
    the rounding residue of equal prices, and a flat child must carry a
    point mass.  Each asset is measured in its unit (_asset_units), and the
    projection drops the singular directions of a node's moves below
    _PROJECTION_RCOND times the largest: two assets across two children
    span one direction, and the rounding residue of the second would
    otherwise turn into holdings of order 1/eps.  The rank it keeps, plus
    one for the total mass, is the node's rank, so the right singular
    vectors of [1; moves] beyond it are the node's kernel directions.
    """
    values = np.array([a.values for a in assets])              # (d, N+1, n)
    flat = MASS_TOL * (1.0 + np.abs(values).max(axis=(1, 2)))
    unit = _asset_units(assets)[:, None]                       # (d, 1)
    table = []
    for t in range(space.horizon):
        reps, reps_next = cell_reps(space, t), cell_reps(space, t + 1)
        by_count: dict[int, list[int]] = {}
        for c, kids in enumerate(space.children[t]):
            by_count.setdefault(len(kids), []).append(c)
        groups = []
        for nodes in by_count.values():
            nodes = np.array(nodes)
            kids = np.array([space.children[t][c] for c in nodes])
            moves = values[:, t + 1, reps_next[kids]] - values[:, t, reps[nodes], None]
            moves = moves.transpose(1, 0, 2)
            moves[np.abs(moves) <= flat[:, None]] = 0.0
            scaled = moves / unit
            pinv = np.linalg.pinv(scaled.transpose(0, 2, 1), rcond=_PROJECTION_RCOND)
            # the trace of pinv(A) @ A counts the singular directions the cutoff kept
            rank = 1 + np.rint(np.einsum("gdk,gdk->g", pinv, scaled)).astype(int)
            kernel = np.arange(kids.shape[1]) >= rank[:, None]        # (G, k)
            some = kernel.any(axis=1)
            system = np.concatenate([np.ones_like(scaled[some, :1]), scaled[some]], axis=1)
            directions = np.linalg.svd(system)[2][kernel[some]]
            groups.append(_NodeGroup(nodes, kids, moves, pinv / unit, *_candidate_kernels(scaled),
                                     np.nonzero(kernel)[0], directions))
        table.append(tuple(groups))
    return tuple(table)


def _candidate_kernels(moves: np.ndarray):
    """(support, weights, penalty) covering every vertex of each node's
    kernel set {q >= 0, sum q = 1, moves @ q = 0}, or Nones for the LP:
    when a multi-asset node has too many supports, or when some node is left
    without a candidate by rounding.

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
    return support, weights, np.where(ok, 0.0, -np.inf)


def _one_step_sups(groups, vals: np.ndarray, unit: np.ndarray, n_kids: int | None = None):
    """One level of the backward induction: per time-t cell, the largest
    kernel expectation of its children's values vals; and, given the
    child cell count n_kids, per child cell its weight under its parent's
    maximising kernel (else None).  A group without candidates takes one LP
    per node, in the asset units unit (d, 1)."""
    out = np.empty(sum(len(g.nodes) for g in groups))
    kernel = None if n_kids is None else np.zeros(n_kids)
    for g in groups:
        v = vals[g.kids]                                              # (G, k)
        if g.support is None:
            for node, kids, moves, row in zip(g.nodes, g.kids, g.moves, v):
                out[node], q = _lp.maximize(
                    row, A_eq=np.vstack([np.ones(len(kids)), moves / unit]),
                    b_eq=np.r_[1.0, np.zeros(len(moves))])
                if kernel is not None:
                    kernel[kids] = q
            continue
        candidates = (g.weights * v[:, g.support]).sum(axis=2) + g.penalty
        best = candidates.argmax(axis=1)
        rows = np.arange(len(best))
        out[g.nodes] = candidates[rows, best]
        if kernel is not None:
            np.add.at(kernel, g.kids[rows[:, None], g.support[best]], g.weights[rows, best])
    return out, kernel


def _one_asset_holdings(moves: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Per node of a one-asset group, with moves and drops of shape (G, k):
    the holdings h that keep every drop + h * move nonnegative with the
    least sum.

    The feasible h form the interval [max over up moves of -drop / move,
    min over down moves of -drop / move], and the sum changes with h by the
    sum of the moves, so the least sum sits at the lower end when the moves
    sum to more than zero and at the upper end otherwise.  A flat node
    trades nothing.  A node whose interval is empty, by rounding or by a
    shortfall within the super-martingale tolerance, takes the h whose
    least entry is largest: where the two entries of some straddling pair
    meet, the pair whose meeting value is lowest.
    """
    ratio = np.divide(-drops, moves, out=np.zeros_like(drops), where=moves != 0.0)
    lo = np.where(moves > 0.0, ratio, -np.inf).max(axis=1)
    hi = np.where(moves < 0.0, ratio, np.inf).min(axis=1)
    h = np.where(moves.sum(axis=1) > 0.0, lo, hi)
    empty = lo > hi
    if empty.any():
        m, v = moves[empty], drops[empty]
        i, j = np.array(list(combinations(range(moves.shape[1]), 2))).T
        straddle = m[:, i] * m[:, j] < 0.0
        span = np.where(straddle, m[:, j] - m[:, i], 1.0)
        meet = np.where(straddle, (v[:, i] * m[:, j] - v[:, j] * m[:, i]) / span, np.inf)
        h[empty] = ((v[:, i] - v[:, j]) / span)[np.arange(len(m)), meet.argmin(axis=1)]
    return np.where(np.isfinite(h), h, 0.0)


def _holdings_lp(moves: np.ndarray, drops: np.ndarray) -> np.ndarray:
    """Per node of a multi-asset group, with moves (G, d, k) and drops
    (G, k): one LP in the d holdings h over the k children, minimising the
    sum of drop + moves.T @ h subject to its being nonnegative.  A node
    that the solver finds infeasible gets the h whose least entry is
    largest instead, for the caller to judge."""
    G, d, k = moves.shape
    h = np.empty((G, d))
    for i, (a, b) in enumerate(zip(moves, drops)):
        res = _lp.solve(a.sum(axis=1), A_ub=-a.T, b_ub=b, bounds=(None, None))
        if res.status == 2:
            # maximise the floor s subject to drop + moves.T @ h >= s
            res = _lp.solve(np.r_[np.zeros(d), -1.0], A_ub=np.hstack([-a.T, np.ones((k, 1))]),
                            b_ub=b, bounds=(None, None))
        if res.status != 0:
            raise UnboundedObjective(f"LP solver failure (status {res.status}): {res.message}")
        h[i] = res.x[:d]
    return h


def _equality_matrix(space: FilteredSpace, assets) -> sparse.csr_array:
    """The closure's equalities as one sparse matrix: a homogeneous row per
    (asset, step t, time-(t-1) cell), in that order, holding the asset's
    increments over the cell's outcomes in the asset's unit (_asset_units),
    then the total-mass row.  Exact zeros are not stored."""
    n, N = space.outcome_count, space.horizon
    rows, data = [], []
    offset = 0
    for proc, unit in zip(assets, _asset_units(assets)):
        for t in range(1, N + 1):
            rows.append(offset + space.atom_index[t - 1])
            data.append((proc.values[t] - proc.values[t - 1]) / unit)
            offset += space.n_cells(t - 1)
    rows.append(np.full(n, offset))
    data.append(np.ones(n))
    rows, data = np.concatenate(rows), np.concatenate(data)
    cols = np.tile(np.arange(n), len(rows) // n)
    keep = data != 0.0
    return sparse.coo_array((data[keep], (rows[keep], cols[keep])),
                            shape=(offset + 1, n)).tocsr()


def _free_directions(space: FilteredSpace, table, q: np.ndarray) -> np.ndarray:
    """Columns spanning the null space of the closure's equalities.

    A node's kernel direction delta is lifted through the strictly positive
    member q's law below each child: v = q * delta_j / q(child j) on child
    j.  Inside a terminal cell each outcome after the first trades mass with
    the one before it.
    """
    n, N = space.outcome_count, space.horizon
    order, starts = space._cell_groups[N]
    later = np.setdiff1d(np.arange(n), starts)              # positions in order
    basis = np.zeros((n, sum(len(g.free) for level in table for g in level) + len(later)))
    col = 0
    for t, level in enumerate(table):
        atoms = space.atom_index[t + 1]
        mass = np.bincount(atoms, weights=q, minlength=space.n_cells(t + 1))[:, None]
        for g in (g for g in level if len(g.free)):
            coef = np.zeros((len(mass), len(g.free)))
            coef[g.kids[g.free], np.arange(len(g.free))[:, None]] = g.directions
            np.multiply(q[:, None], (coef / mass)[atoms], out=basis[:, col:col + len(g.free)])
            col += len(g.free)
    basis[order[later], col + np.arange(len(later))] = 1.0
    basis[order[later - 1], col + np.arange(len(later))] = -1.0
    return basis


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

        self._unit = _asset_units(procs)[:, None]
        self._A_eq = _equality_matrix(space, procs)
        self._b_eq = np.zeros(self._A_eq.shape[0])
        self._b_eq[-1] = 1.0
        self._interior = self._solve_interior()
        self._nodes = _node_table(space, procs)
        self._null_basis = _free_directions(space, self._nodes, self._interior)

    def _solve_interior(self) -> np.ndarray:
        n = self.space.outcome_count
        # maximize the floor t subject to q >= t, equalities, sum q = 1;
        # the variables are (q, t), so the equalities get an empty last column
        c = np.zeros(n + 1)
        c[-1] = -1.0
        A = self._A_eq
        A_eq = sparse.csr_array((A.data, A.indices, A.indptr), shape=(A.shape[0], n + 1))
        # row i of [-I | 1]: -q_i + t <= 0
        A_ub = sparse.csr_array(
            (np.tile([-1.0, 1.0], n), np.stack([np.arange(n), np.full(n, n)], axis=1).ravel(),
             np.arange(0, 2 * n + 1, 2)),
            shape=(n, n + 1),
        )
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

    def expectation_functionals(self) -> list[tuple[np.ndarray, float]]:
        """Pairs (w, kappa), the interior member with 1 and each free direction
        with 0: E^P[c] = r for every member P iff w @ c == kappa * r."""
        return [(self._interior, 1.0)] + [(v, 0.0) for v in self._null_basis.T]

    def dominating_claim(self, x):
        capital = self.superhedge_capital(x)
        return float(capital[0, 0]), capital[-1]

    def domination_rows(self, x):
        # the closure's vertices put each terminal cell's mass on a single
        # outcome, and the interior member charges every cell, so eta
        # dominates under every member iff it dominates pointwise
        return None, np.array(x, dtype=float)

    def cond_exp_sup(self, x, t):
        """Per-cell sup of E^Q{x | F_t} over the closure, by backward induction.

        The closure is m-stable: below a time-t cell a member is any choice
        of one martingale kernel per node and any spread inside each
        terminal cell.  So the sup starts from the max of x on each terminal
        cell and, level by level up to t, takes each node's largest
        expectation of its children's values over its martingale kernels.
        The attaining measure of a cell is the product of the maximising
        kernels, with each terminal cell's mass on its largest outcome.
        """
        x = np.asarray(x, dtype=float)
        space = self.space
        tops = self._terminal_tops(x)
        vals = x[tops]
        weights = np.zeros(space.outcome_count)
        weights[tops] = 1.0
        for s in range(space.horizon - 1, t - 1, -1):
            vals, kernel = _one_step_sups(self._nodes[s], vals, self._unit, space.n_cells(s + 1))
            weights *= kernel[space.atom_index[s + 1]]
        order, starts = space._cell_groups[t]
        attained = tuple(np.split(weights[order], starts[1:]))
        return EssSupRow(values=vals[space.atom_index[t]], attained=attained)

    def ess_sup_rows(self, x):
        # one backward pass visits every level
        x = np.asarray(x, dtype=float)
        space = self.space
        rows = np.empty((space.horizon + 1, space.outcome_count))
        vals = x[self._terminal_tops(x)]
        rows[-1] = vals[space.atom_index[-1]]
        for s in range(space.horizon - 1, -1, -1):
            vals, _ = _one_step_sups(self._nodes[s], vals, self._unit)
            rows[s] = vals[space.atom_index[s]]
        return rows

    def _terminal_tops(self, x: np.ndarray) -> np.ndarray:
        """Per terminal cell, its first outcome with the largest x."""
        space = self.space
        _, starts = space._cell_groups[space.horizon]
        return np.lexsort((-x, space.atom_index[space.horizon]))[starts]

    def step_gaps(self, x, base, t, equality):
        x = np.asarray(x, dtype=float)
        if not equality:
            # x is F_{t+1}-measurable, so one level of the induction decides
            sups, _ = _one_step_sups(self._nodes[t], x[cell_reps(self.space, t + 1)], self._unit)
            return [("lp max", sups - np.broadcast_to(base, x.shape)[cell_reps(self.space, t)])]
        # an identity across the whole polytope is a linear condition on its
        # affine hull: test against the interior point and the free
        # directions, one sum per time-t cell
        order, starts = self.space._cell_groups[t]
        centred = (x - base)[order]
        gaps = np.abs(np.add.reduceat(centred * self._interior[order], starts))
        if self._null_basis.shape[1]:
            res_null = np.add.reduceat(centred[:, None] * self._null_basis[order], starts)
            gaps = np.maximum(gaps, np.abs(res_null).max(axis=1))
        return [("affine hull", gaps)]

    def hedge_ratios(self, values) -> tuple[np.ndarray, list[np.ndarray]]:
        """Asset holdings that replicate the one-step increments of an adapted
        process, in the least-squares sense, and how far they miss.

        values has shape (N+1, n).  Per node, the holdings are the projection
        of the increments towards its children onto the asset moves, one
        batched product per group of nodes.  Returns holdings of shape
        (N, n, d), row m-1 chosen on the time-(m-1) cells, and per step m
        the largest replication residual on each time-(m-1) cell.
        """
        space = self.space
        values = np.asarray(values, dtype=float)
        holdings = np.empty((space.horizon, space.outcome_count, len(self.assets)))
        residuals = []
        for t, level in enumerate(self._nodes):
            reps, reps_next = cell_reps(space, t), cell_reps(space, t + 1)
            h = np.empty((space.n_cells(t), len(self.assets)))
            miss = np.empty(space.n_cells(t))
            for g in level:
                b = values[t + 1, reps_next[g.kids]] - values[t, reps[g.nodes], None]
                h_g = np.einsum("gdk,gk->gd", g.projection, b)
                miss[g.nodes] = np.abs(np.einsum("gdk,gd->gk", g.moves, h_g) - b).max(axis=1)
                h[g.nodes] = h_g
            holdings[t] = h[space.atom_index[t]]
            residuals.append(miss)
        return holdings, residuals

    def superhedge_capital(self, x) -> np.ndarray:
        """Capital M = V + g, shape (N+1, n), of the least superhedge of the
        terminal claim x: V = ess_sup_rows(x) and g the running sum of its
        compensator_increments, so M_0 = V_0 = sup E x and M_N >= x."""
        V = self.ess_sup_rows(x)
        scale = 1.0 + float(np.abs(V).max())
        steps = [self.compensator_increments(V[t] - V[t + 1], t, scale)
                 for t in range(self.space.horizon)]
        return V + np.cumsum([np.zeros(self.space.outcome_count)] + steps, axis=0)

    def compensator_increments(self, drop, t, scale):
        """Node by node: the closure is m-stable, so gamma - drop has zero
        conditional mean under every member iff on each time-t node it is
        h . moves for some holdings h.  gamma is drop + h . moves for the h
        that keeps it nonnegative with the least sum over the node's
        children: in closed form for one asset; for more, the projection's
        h where it replicates the drop (gamma about 0), else a small LP per
        node.  Feasibility is judged in value units, gamma >= -EQ_TOL *
        scale, the tolerance of the super-martingale test."""
        space = self.space
        tol = EQ_TOL * scale
        kids_drop = np.asarray(drop, dtype=float)[cell_reps(space, t + 1)]
        gamma = np.empty(space.n_cells(t + 1))
        for g in self._nodes[t]:
            drops = kids_drop[g.kids]
            if len(self.assets) == 1:
                h = _one_asset_holdings(g.moves[:, 0], drops)[:, None]
            else:
                h = -np.einsum("gdk,gk->gd", g.projection, drops)
                lp = np.abs(drops + np.einsum("gdk,gd->gk", g.moves, h)).max(axis=1) > tol
                if lp.any():
                    h[lp] = _holdings_lp(g.moves[lp] / self._unit, drops[lp]) / self._unit[:, 0]
            gamma[g.kids] = drops + np.einsum("gdk,gd->gk", g.moves, h)
        short = np.flatnonzero(gamma < -tol)
        if short.size:
            c = int(space.atom_index[t][cell_reps(space, t + 1)[short]].min())
            raise Infeasible(f"no compensator increment on cell {c} at step {t + 1}",
                             time=t + 1, cell=c)
        return gamma[space.atom_index[t + 1]]

    def contains_masses(self, masses, t):
        # a strictly positive member supplies the conditional extension
        # beyond time t, so only the equalities up to step t constrain
        return not self.equality_residuals(masses, t)

    def equality_residuals(self, mu: np.ndarray, up_to_time: int) -> list[tuple[int, int, int, float]]:
        """Evaluate the asset equalities with step <= up_to_time on a measure
        given by per-cell masses at up_to_time.  Returns nonzero residuals."""
        space = self.space
        reps = cell_reps(space, up_to_time)
        out = []
        for j, proc in enumerate(self.assets):
            scale = 1.0 + float(np.abs(proc.values).max())
            for t in range(1, up_to_time + 1):
                parents = space.atom_index[t - 1][reps]
                diffs = proc.values[t][reps] - proc.values[t - 1][reps]
                res = np.bincount(parents, weights=diffs * mu, minlength=space.n_cells(t - 1))
                out.extend((j, t, int(c), float(res[c]))
                           for c in np.flatnonzero(np.abs(res) > EQ_TOL * scale))
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
        reps = cell_reps(space, n)
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
    martingale polytope the per-cell supremum across the closure, by
    backward induction over the nodes of the tree.
    """
    x = _nonnegative_claim(X)
    if not 0 <= t <= space.horizon:
        raise IndexError(f"time {t} out of range 0..{space.horizon}")
    return mset.cond_exp_sup(x, t)


def _nonnegative_claim(X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    if x.min() < -EQ_TOL:
        raise ValueError("ess-sup rows are defined here for nonnegative claims")
    return x
