"""Random instance factories shared by the test modules.

build_space_loop validates a partition sequence one cell and one outcome at
a time, against which build_space's array validation is checked.

Hull randomization comes in two flavours: unconstrained, and "compliant"
hulls whose generator density ratios are constant on the first-period cells.
Several results about ess-sup processes only hold on compliant hulls, and
the corresponding suites generate accordingly.

Complete martingale polytopes are generated structurally: a single asset
that is flat except across one branching step inside one branch, which makes
every two-point completion measure satisfy the asset equalities.

multi_asset_tree builds incomplete d-asset trees with k children per node,
whose moves sum to zero at every node when centred.

closure_vertices is a brute-force oracle: it enumerates the vertices of a
polytope's closure over all column subsets, so it is only for the small
instances the tests build.  cond_exp_sup_lp is another polytope oracle:
one LP over the whole closure per cell, against which the library's
node-by-node backward induction is checked.  local_regular_witness_lp
decomposes a super-martingale by one LP per cell over the family's
expectation functionals (a hull's generators), against which the
node-by-node compensator of a polytope and the per-step compensator of a
hull are checked; a polytope's functionals (expectation_functionals) are
its reference member and a null basis of its global equality system.
fair_price_full_lp prices a claim on a polytope by one LP over those
functionals, and sup_expectation_exact by a backward induction in exact
rational arithmetic; the least superhedge is checked against them.
equality_residuals_loop evaluates a polytope's asset equalities one
(asset, step) at a time, over the outcomes below each node, against which
the node-local sums of equality_residuals are checked.
hedge_ratios_lstsq and martingale_representation_lstsq solve the
representation one cell at a time by least squares, against which the
batched projections are checked, and compensator_per_node takes a
polytope's compensator step one node at a time, against which its
whole-tree pass is checked.  step_report_loop and unit_claim_rows_loop
judge a process or a unit claim one step at a time, per generator on a
hull and per node on a polytope, against which the one gaps call per
process is checked; unit_claim_rows_two_pass asks is_unit_claim before
that loop, against which unit_claim_rows' single pass is checked.
is_unit_claim_loop judges one claim at a time, a polytope's by the first
time from which it is measurable, against which is_unit_claim's stacked
pass over a whole family is checked.
is_complete_loop tests each completion measure on its own, by a
feasibility LP on a hull and by the equality residuals on a polytope,
against which the one contains_two_point call per time is checked.
ratio_family_hedge prices a generated superhedge through
fair_price_generated, its family judged claim by claim, against which
superhedge's verdicts through the assets' ratio processes are checked.
strategy_outcomes assembles a superhedge as outcome arrays, (N+1, n) per
process, from its price and holdings; capital_outcomes and
self_financing_outcomes value and check a strategy the same way.  Against
them the strategies, decompositions, capital and self-financing reports
built on the cells are checked bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.linalg import null_space

from superhedge import (
    EQ_TOL,
    FEAS_TOL,
    MASS_TOL,
    AdaptedProcess,
    CompletenessReport,
    Decomposition,
    EmptyCell,
    GeneratorHull,
    Infeasible,
    MartingalePolytope,
    MeasureDependent,
    NoRepresentation,
    NotMartingale,
    NotPartition,
    NotRefining,
    NotUnitClaim,
    PredictableProcess,
    asset_ratio_family,
    build_space,
    conditional_expectation,
    fair_price_generated,
    increment_process,
    is_martingale,
    is_unit_claim,
)
from superhedge import _lp
from superhedge.measures import _condexp_cells
from superhedge.processes import MartingaleReport, StepViolation
from superhedge.spaces import cell_order, cell_reps


def random_space(rng, max_outcomes=12, max_horizon=4, min_outcomes=2, min_horizon=1):
    return build_space(*random_partitions(rng, max_outcomes, max_horizon, min_outcomes,
                                          min_horizon))


def random_partitions(rng, max_outcomes=12, max_horizon=4, min_outcomes=2, min_horizon=1):
    """(outcome count, partitions) of a random refining filtration, each
    cell a list of outcomes in shuffled order: random_space's input."""
    n = int(rng.integers(min_outcomes, max_outcomes + 1))
    horizon = int(rng.integers(min_horizon, max_horizon + 1))
    outcomes = list(rng.permutation(n))
    levels = [[outcomes]]
    for _ in range(horizon):
        level = []
        for cell in levels[-1]:
            if len(cell) > 1 and rng.random() < 0.75:
                k = int(rng.integers(2, min(len(cell), 3) + 1))
                cuts = sorted(rng.choice(range(1, len(cell)), size=k - 1, replace=False))
                parts = np.split(np.array(cell), cuts)
                level.extend([list(p) for p in parts])
            else:
                level.append(list(cell))
        levels.append(level)
    return n, levels


def build_space_loop(outcome_count, partitions):
    """build_space one cell and one outcome at a time, as Python tuples:
    (atom_index, cells, children), or the same error for the same first
    offence."""
    if outcome_count < 1:
        raise NotPartition("outcome_count must be a positive integer")
    partitions = list(partitions)
    if len(partitions) < 2:
        raise NotPartition("a positive horizon needs partitions for times 0 and 1 at least")

    cells = []
    for t, raw_cells in enumerate(partitions):
        level = []
        seen = set()
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

    children = []
    parent = [tuple()]
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
        kids = [[] for _ in cells[t]]
        for c, p in enumerate(parent[t + 1]):
            kids[p].append(c)
        children.append(tuple(tuple(k) for k in kids))
    children.append(tuple())
    return atom_index, tuple(cells), tuple(children)


def random_measure(rng, n):
    p = rng.dirichlet(np.ones(n))
    return 0.9 * p + 0.1 / n


def random_hull(rng, space, k=None):
    k = k or int(rng.integers(1, 5))
    return GeneratorHull(
        space, [random_measure(rng, space.outcome_count) for _ in range(k)]
    )


def compliant_hull(rng, space, k=2):
    """Hull whose density ratios are constant on the first-period cells."""
    n = space.outcome_count
    base = random_measure(rng, n)
    gens = [base]
    atoms = space.atom_index[1]
    for _ in range(k - 1):
        factors = rng.uniform(0.3, 3.0, size=space.n_cells(1))
        p = base * factors[atoms]
        gens.append(p / p.sum())
    return GeneratorHull(space, gens)


def cellwise_unit_claim(rng, space, hull):
    """Claim with conditional expectation one on every first-period cell
    under the base generator; a unit claim for any compliant hull over it."""
    n = space.outcome_count
    base = hull.generators[0].probabilities
    xi = rng.uniform(0.2, 2.0, size=n)
    atoms = space.atom_index[1]
    k = space.n_cells(1)
    mass = np.bincount(atoms, weights=base, minlength=k)
    lift = np.bincount(atoms, weights=base * xi, minlength=k)
    return xi / (lift / mass)[atoms]


def generic_claim(rng, space, low=0.0, high=3.0):
    """Nonnegative terminal-measurable claim with random per-cell values."""
    n = space.outcome_count
    t = space.horizon
    vals = rng.uniform(low, high, size=space.n_cells(t))
    out = np.empty(n)
    for c in range(space.n_cells(t)):
        out[list(space.cells[t][c])] = vals[c]
    return out


def random_supermartingale(rng, space, mset, mart_prob=0.3, shift=0.0):
    """Backward construction: parent value = per-cell sup of the child row
    plus nonnegative slack (zero slack with probability mart_prob)."""
    n = space.outcome_count
    rows = np.empty((space.horizon + 1, n))
    rows[space.horizon] = generic_claim(rng, space) + shift
    for m in range(space.horizon, 0, -1):
        sup = mset.cond_exp_sup(rows[m], m - 1).values
        slack = np.zeros(n)
        for c in range(space.n_cells(m - 1)):
            if rng.random() > mart_prob:
                slack[list(space.cells[m - 1][c])] = rng.uniform(0.0, 0.5)
        rows[m - 1] = sup + slack
    return AdaptedProcess(space, rows)


def complete_polytope(rng, max_outcomes=12, max_horizon=4):
    """Single-asset polytope that is complete for the terminal ratio claim.

    The asset stays at 100 until the final step, where the children of one
    branch cell jump to values straddling 100.  Flat outcomes admit point
    masses in the closure and jumping outcomes admit straddling two-point
    measures, which is exactly what the completion measures require; placing
    the jump at maturity also keeps every degenerate earlier step's ratio
    below its largest expectation, for any super-martingale.
    Returns (space, asset, polytope, xi0).
    """
    while True:
        space = random_space(rng, max_outcomes, max_horizon, min_outcomes=3)
        last = space.horizon
        branching = [
            c for c in range(space.n_cells(last - 1))
            if len(space.children[last - 1][c]) >= 2
        ]
        if branching:
            break
    c_star = branching[int(rng.integers(len(branching)))]

    n = space.outcome_count
    values = np.full((space.horizon + 1, n), 100.0)
    kids = space.children[last - 1][c_star]
    jumps = rng.uniform(55.0, 145.0, size=len(kids))
    jumps[0] = rng.uniform(55.0, 95.0)
    jumps[1] = rng.uniform(105.0, 145.0)
    for k, v in zip(kids, jumps):
        idx = list(space.cells[last][k])
        values[last, idx] = v
    asset = AdaptedProcess(space, values)
    poly = MartingalePolytope(space, [asset], names=("S",))
    xi0 = values[-1] / 100.0
    return space, asset, poly, xi0


def random_market_tree(rng, max_leaves=10, max_horizon=3, branching=(2, 3), flat_prob=0.0):
    """Strictly positive single-asset tree with a nonempty martingale polytope.

    Nodes split into 2..3 children with child prices straddling the parent.
    Each child beyond the first two keeps its parent's price with
    probability flat_prob.  Returns (space, asset, polytope).
    """
    horizon = int(rng.integers(1, max_horizon + 1))
    root = {"price": 100.0, "children": []}
    level_nodes = [[root]]
    count = 1  # projected leaf count
    for _ in range(1, horizon + 1):
        nxt = []
        for node in level_nodes[-1]:
            k = 1
            if rng.random() < 0.9 and count + 1 <= max_leaves:
                k = min(int(rng.integers(branching[0], branching[-1] + 1)),
                        max_leaves - count + 1)
            if k <= 1:
                node["children"] = [{"price": node["price"], "children": []}]
            else:
                count += k - 1
                p = node["price"]
                vals = [p * rng.uniform(0.55, 0.95), p * rng.uniform(1.05, 1.45)]
                for _ in range(k - 2):
                    v = p * rng.uniform(0.6, 1.4)
                    vals.append(p if flat_prob and rng.random() < flat_prob else v)
                node["children"] = [{"price": v, "children": []} for v in vals]
            nxt.extend(node["children"])
        level_nodes.append(nxt)

    for i, node in enumerate(level_nodes[-1]):
        node["leaves"] = [i]
    for lvl in reversed(level_nodes[:-1]):
        for node in lvl:
            node["leaves"] = [w for ch in node["children"] for w in ch["leaves"]]

    n = len(level_nodes[-1])
    space = build_space(n, [[node["leaves"] for node in lvl] for lvl in level_nodes])
    values = np.empty((horizon + 1, n))
    for t, lvl in enumerate(level_nodes):
        for node in lvl:
            values[t, node["leaves"]] = node["price"]
    asset = AdaptedProcess(space, values)
    poly = MartingalePolytope(space, [asset], names=("S",))
    return space, asset, poly


def trinomial_two_asset(rng, steps):
    """Non-recombining two-asset trinomial tree with 3**steps outcomes.  The
    three moves of each node point about 120 degrees apart, so its one-step
    martingale measure is unique and the market is complete.  Returns
    (space, polytope)."""
    n = 3 ** steps
    space = build_space(n, [[tuple(range(c * 3 ** (steps - t), (c + 1) * 3 ** (steps - t)))
                             for c in range(3 ** t)] for t in range(steps + 1)])
    values = np.full((2, steps + 1, n), 100.0)
    for t in range(steps):
        theta = (rng.uniform(0.0, 2.0 * np.pi, size=(3 ** t, 1)) + 2.0 * np.pi * np.arange(3) / 3.0
                 + rng.uniform(-0.4, 0.4, size=(3 ** t, 3)))
        moves = np.stack([np.cos(theta), np.sin(theta)]) * rng.uniform(0.05, 0.15, size=theta.shape)
        values[:, t + 1] = values[:, t] * np.repeat(1.0 + moves.reshape(2, -1),
                                                    3 ** (steps - t - 1), axis=1)
    return space, MartingalePolytope(space, list(values))


def multi_asset_tree(rng, d, k, steps, centred=False):
    """Non-recombining tree with k children per node and d assets from
    prices of 100, incomplete for k > d + 1.  Each node's relative moves are
    rng.normal draws (k, d) minus a Dirichlet mix of themselves, or with
    centred minus their mean, so that each node's moves sum to zero; then
    scaled to at most 10%.  The mix's weights, or the uniform kernel, make
    every node a martingale.  Returns (space, polytope, claim), the claim a
    call struck at 100 on the assets' mean."""
    n = k ** steps
    space = build_space(n, [[tuple(range(c * k ** (steps - t), (c + 1) * k ** (steps - t)))
                             for c in range(k ** t)] for t in range(steps + 1)])
    values = np.full((d, steps + 1, n), 100.0)
    for t in range(steps):
        moves = []
        for _ in range(k ** t):
            z = rng.normal(size=(k, d))
            z -= z.mean(axis=0) if centred else rng.dirichlet(np.ones(k)) @ z
            moves.append(0.1 * z / np.abs(z).max())
        moves = np.repeat(np.concatenate(moves).T, k ** (steps - t - 1), axis=1)
        values[:, t + 1] = values[:, t] * (1.0 + moves)
    claim = np.maximum(values[:, -1].mean(axis=0) - 100.0, 0.0)
    return space, MartingalePolytope(space, list(values)), claim


def _asset_unit(asset):
    """The power of two above the asset's largest absolute price, or 1."""
    peak = float(np.abs(asset.values).max())
    return 2.0 ** (np.floor(np.log2(peak)) + 1.0) if peak > 0.0 else 1.0


def equality_system(poly):
    """(A_eq, b_eq) of a polytope's closure, rebuilt from its assets and
    space: one homogeneous row per (asset, step t, time-(t-1) cell) in that
    order, in the asset's unit, then total mass one."""
    space = poly.space
    n = space.outcome_count
    rows = []
    for asset in poly.assets:
        unit = _asset_unit(asset)
        for t in range(1, space.horizon + 1):
            for cell in space.cells[t - 1]:
                row = np.zeros(n)
                idx = list(cell)
                row[idx] = (asset.values[t, idx] - asset.values[t - 1, idx]) / unit
                rows.append(row)
    A_eq = np.vstack(rows + [np.ones(n)])
    b_eq = np.zeros(len(A_eq))
    b_eq[-1] = 1.0
    return A_eq, b_eq


def equality_residuals_loop(poly, mu, up_to_time):
    """MartingalePolytope.equality_residuals one (asset, step) at a time:
    per asset j and step t <= up_to_time, the sums of its raw increments
    times the masses mu of the time-up_to_time cells over each time-(t-1)
    cell, kept as (j, t, cell, sum) where beyond EQ_TOL * (1 + max |S_j|)."""
    space = poly.space
    reps = cell_reps(space, up_to_time)
    out = []
    for j, proc in enumerate(poly.assets):
        scale = 1.0 + float(np.abs(proc.values).max())
        for t in range(1, up_to_time + 1):
            parents = space.atom_index[t - 1][reps]
            diffs = proc.values[t][reps] - proc.values[t - 1][reps]
            res = np.bincount(parents, weights=diffs * mu, minlength=space.n_cells(t - 1))
            out.extend((j, t, int(c), float(res[c]))
                       for c in np.flatnonzero(np.abs(res) > EQ_TOL * scale))
    return out


def expectation_functionals(poly):
    """Pairs (w, kappa) with E^P[c] = r for every member P of the polytope
    iff w @ c == kappa * r: its reference member with 1, and each vector of
    an orthonormal null basis of equality_system(poly) with 0.  The null
    space of the closure's equalities is the set of directions in which
    members move, so these functionals test an identity on the polytope's
    whole affine hull at once; the global counterpart of the library's
    node-local replication residual."""
    A_eq, _ = equality_system(poly)
    return [(poly.reference(), 1.0)] + [(v, 0.0) for v in null_space(A_eq).T]


def cond_exp_sup_lp(poly, x, t):
    """Per-cell sup of E^Q(x | F_t) over a polytope's closure, one LP per
    time-t cell, as an outcome row.

    The linear-fractional program of a cell A in projective form: maximize
    sum_{w in A} x_w u_w over u >= 0 with the homogeneous asset equalities
    and sum_{w in A} u_w = 1.  Redundant equality rows carry rounding noise
    that HiGHS can reject as infeasible, so such a program is solved once
    more on an orthonormal basis of its row space, as _lp.feasible_point
    does.
    """
    A_eq, _ = equality_system(poly)
    homogeneous = A_eq[:-1]
    x = np.asarray(x, dtype=float)
    n = poly.space.outcome_count
    values = np.empty(n)
    for cell in poly.space.cells[t]:
        idx = list(cell)
        indicator = np.zeros(n)
        indicator[idx] = 1.0
        objective = np.zeros(n)
        objective[idx] = x[idx]
        A_eq = np.vstack([homogeneous, indicator])
        b_eq = np.zeros(len(A_eq))
        b_eq[-1] = 1.0
        res = _lp.solve(-objective, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
        if res.status == 2:
            V, y = _lp._row_space_system(A_eq, b_eq)
            res = _lp.solve(-objective, A_eq=V, b_eq=y, bounds=(0, None))
        assert res.status == 0, res.message
        values[idx] = -res.fun
    return values


def compensator_increments_lp(space, mset, drop, t):
    """Row t of MeasureSet.compensator, for the drop f_t - f_{t+1}, by one
    LP per time-t cell over the family's expectation functionals, a hull's
    generators with kappa = 1: the increment on each child is an unknown,
    nonnegative, one equality per functional, least sum.  A family with a single functional gets the
    constant conditional mean, floored at zero, instead.  Raises
    Infeasible(time=t+1, cell) for the first cell without a solution."""
    if isinstance(mset, GeneratorHull):
        functionals = [(g.probabilities, 1.0) for g in mset.generators]
    else:
        functionals = expectation_functionals(mset)
    gamma = np.zeros(space.outcome_count)
    for c, cell in enumerate(space.cells[t]):
        idx = list(cell)
        if len(functionals) == 1:
            w, _ = functionals[0]
            gamma[idx] = max(float(drop[idx] @ w[idx]) / w[idx].sum(), 0.0)
            continue
        kid_cells = [space.cell_outcomes(t + 1, k) for k in space.children[t][c]]
        W = np.array([[w[kc].sum() for kc in kid_cells] for w, _ in functionals])
        r = np.array([float(drop[idx] @ w[idx]) for w, _ in functionals])
        x = _lp.feasible_point(W, r, len(kid_cells))
        if x is None:
            raise Infeasible(f"no compensator increment on cell {c} at step {t + 1}",
                             time=t + 1, cell=c)
        for k, kc in zip(x, kid_cells):
            gamma[kc] = k
    return gamma


def compensator_per_node(poly, drop, t, scale):
    """Row t of MartingalePolytope.compensator, for the drop f_t - f_{t+1},
    one node at a time, with its holdings: (gamma, holdings) as an outcome row and an
    (n, d) row constant on the time-t cells.

    The library's rules: moves within MASS_TOL of an asset's scale, its
    largest absolute price, count as flat.  With one asset the holdings are
    the end of the interval
    [max over up moves of -drop / move, min over down moves] with the
    least sum (the lower end when the moves sum to more than zero), none
    on a flat node, and on a node whose interval is empty the h where the
    entries of a straddling pair meet, of the pairs the one whose meeting
    value is lowest.  With more assets they are the least-squares
    projection in per-asset units where it replicates the drop within
    EQ_TOL * scale, else one LP per node with the least sum, or the
    largest least entry when that LP is infeasible.  Raises
    Infeasible(time=t+1, cell) for the first node with an entry below
    -EQ_TOL * scale."""
    space = poly.space
    d = len(poly.assets)
    flat = MASS_TOL * np.array([np.abs(a.values).max() for a in poly.assets])
    unit = np.array([_asset_unit(a) for a in poly.assets])
    tol = EQ_TOL * scale
    gamma = np.zeros(space.outcome_count)
    holdings = np.zeros((space.outcome_count, d))
    for c, kids in enumerate(space.children[t]):
        parent = space.cell_rep(t, c)
        reps = [space.cell_rep(t + 1, k) for k in kids]
        A = np.array([[a.values[t + 1, r] - a.values[t, parent] for a in poly.assets]
                      for r in reps])
        A[np.abs(A) <= flat] = 0.0
        b = np.array([float(drop[r]) for r in reps])
        if d == 1:
            h = np.array([_interval_holding(A[:, 0].tolist(), b.tolist())])
        else:
            h, *_ = np.linalg.lstsq(A / unit, -b, rcond=np.sqrt(np.finfo(float).eps))
            h = h / unit
            if np.abs(A @ h + b).max() > tol:
                a = (A / unit).T
                res = _lp.solve(a.sum(axis=1), A_ub=-a.T, b_ub=b, bounds=(None, None))
                if res.status == 2:
                    res = _lp.solve(np.r_[np.zeros(d), -1.0],
                                    A_ub=np.hstack([-a.T, np.ones((len(b), 1))]), b_ub=b,
                                    bounds=(None, None))
                assert res.status == 0, res.message
                h = res.x[:d] / unit
        g = b + A @ h
        if g.min() < -tol:
            raise Infeasible(f"no compensator increment on cell {c} at step {t + 1}",
                             time=t + 1, cell=c)
        for k, value in zip(kids, g):
            gamma[space.cell_outcomes(t + 1, k)] = value
        holdings[list(space.cells[t][c])] = h
    return gamma, holdings


def _interval_holding(moves, drops):
    """The one-asset holding of compensator_per_node on one node."""
    ups = [-v / m for m, v in zip(moves, drops) if m > 0.0]
    downs = [-v / m for m, v in zip(moves, drops) if m < 0.0]
    lo, hi = max(ups, default=-np.inf), min(downs, default=np.inf)
    if lo <= hi:
        h = lo if sum(moves) > 0.0 else hi
        return h if np.isfinite(h) else 0.0
    best = None
    for i, j in combinations(range(len(moves)), 2):
        if moves[i] * moves[j] < 0.0:
            span = moves[j] - moves[i]
            meet = (drops[i] * moves[j] - drops[j] * moves[i]) / span
            if best is None or meet < best[0]:
                best = (meet, (drops[i] - drops[j]) / span)
    return best[1]


def local_regular_witness_lp(space, mset, f):
    """local_regular_witness by compensator_increments_lp at every step.
    Returns the unvalidated Decomposition."""
    values = f.values
    gbar = np.zeros((space.horizon, space.outcome_count))
    for m in range(1, space.horizon + 1):
        gbar[m - 1] = compensator_increments_lp(space, mset, values[m - 1] - values[m], m - 1)
    g = np.vstack([np.zeros(space.outcome_count), np.cumsum(gbar, axis=0)])
    return Decomposition(martingale=AdaptedProcess(space, values + g),
                         compensator=AdaptedProcess(space, g))


def fair_price_full_lp(poly, x):
    """(price, eta) of the terminal claim x on a polytope by one LP in
    (alpha, eta): minimize alpha subject to eta >= max(x, 0) outcome by
    outcome and w @ eta = kappa * alpha for every expectation functional
    (w, kappa)."""
    n = poly.space.outcome_count
    functionals = expectation_functionals(poly)
    res = _lp.solve(np.r_[1.0, np.zeros(n)], A_eq=np.array([np.r_[-k, w] for w, k in functionals]),
                    b_eq=np.zeros(len(functionals)), bounds=(np.r_[0.0, np.maximum(x, 0.0)], None))
    assert res.status == 0, res.message
    return float(res.fun), res.x[1:]


def sup_expectation_exact(poly, x):
    """sup E^Q x over a polytope's closure in exact rational arithmetic, a
    Fraction.  The closure is m-stable, so the sup is a backward induction:
    each terminal cell's largest x, then node by node the largest
    expectation of the children's values over the vertices of the node's
    kernel set {q >= 0, sum q = 1, moves q = 0}, with the moves taken
    exactly from the asset prices (no flat threshold, no units).  A vertex
    is the unique solution on a support whose columns are independent."""
    space = poly.space
    vals = [max(Fraction(float(x[w])) for w in cell) for cell in space.cells[space.horizon]]
    for t in range(space.horizon - 1, -1, -1):
        level = []
        for c, kids in enumerate(space.children[t]):
            reps = [space.cell_rep(t + 1, k) for k in kids]
            rows = [[Fraction(1)] * len(kids)] + [
                [Fraction(a.values[t + 1, r]) - Fraction(a.values[t, space.cell_rep(t, c)])
                 for r in reps] for a in poly.assets]
            best = None
            for s in range(1, min(len(kids), len(rows)) + 1):
                for support in combinations(range(len(kids)), s):
                    q = _unique_solution([[row[i] for i in support] for row in rows],
                                         [1] + [0] * (len(rows) - 1))
                    if q is not None and min(q) >= 0:
                        value = sum(qi * vals[kids[i]] for qi, i in zip(q, support))
                        best = value if best is None else max(best, value)
            assert best is not None, f"no martingale kernel on cell {c} at time {t}"
            level.append(best)
        vals = level
    return vals[0]


def _unique_solution(A, b):
    """The solution of A q = b in exact arithmetic when A's columns are
    independent and the system is consistent, else None."""
    M = [list(row) + [Fraction(v)] for row, v in zip(A, b)]
    s = len(A[0])
    for c in range(s):
        pivot = next((i for i in range(c, len(M)) if M[i][c] != 0), None)
        if pivot is None:
            return None
        M[c], M[pivot] = M[pivot], M[c]
        for i in range(len(M)):
            if i != c and M[i][c] != 0:
                f = M[i][c] / M[c][c]
                M[i] = [u - f * v for u, v in zip(M[i], M[c])]
    if any(row[s] != 0 for row in M[s:]):
        return None
    return [M[i][s] / M[i][i] for i in range(s)]


def hedge_ratios_lstsq(poly, values, raw=False):
    """MartingalePolytope.hedge_ratios, one least-squares solve per cell.

    By default it follows the library's rules: moves within MASS_TOL of an
    asset's scale count as flat, each asset is measured in units of the
    power of two just above its largest price, and singular values below
    sqrt(eps) times the largest are dropped.  With raw=True it is the plain
    lstsq(rcond=None) on the raw moves.
    """
    space = poly.space
    values = np.asarray(values, dtype=float)
    d = len(poly.assets)
    peak = np.array([np.abs(a.values).max() for a in poly.assets])
    flat = MASS_TOL * peak
    unit = np.array([_asset_unit(a) for a in poly.assets])
    holdings = np.zeros((space.horizon, space.outcome_count, d))
    residuals = []
    for m in range(1, space.horizon + 1):
        miss = np.zeros(space.n_cells(m - 1))
        for c, cell in enumerate(space.cells[m - 1]):
            reps = [space.cell_rep(m, k) for k in space.children[m - 1][c]]
            A = np.array(
                [[a.values[m, r] - a.values[m - 1, r] for a in poly.assets] for r in reps]
            )
            b = np.array([values[m, r] - values[m - 1, r] for r in reps])
            if raw:
                h, *_ = np.linalg.lstsq(A, b, rcond=None)
            else:
                A[np.abs(A) <= flat] = 0.0
                h, *_ = np.linalg.lstsq(A / unit, b, rcond=np.sqrt(np.finfo(float).eps))
                h = h / unit
            miss[c] = np.abs(A @ h - b).max()
            holdings[m - 1, list(cell), :] = h
        residuals.append(miss)
    return holdings, residuals


def one_step_sups_lp(poly, values, m):
    """Per time-(m-1) cell, the largest E^Q(values[m] | F_{m-1}) over the
    node's martingale kernels: one LP per node in the children's weights,
    with the library's flat moves and per-asset units."""
    space = poly.space
    flat = MASS_TOL * np.array([np.abs(a.values).max() for a in poly.assets])
    unit = np.array([_asset_unit(a) for a in poly.assets])
    sups = np.empty(space.n_cells(m - 1))
    for c, kids in enumerate(space.children[m - 1]):
        reps = [space.cell_rep(m, k) for k in kids]
        moves = np.array([[a.values[m, r] - a.values[m - 1, r] for r in reps] for a in poly.assets])
        moves[np.abs(moves) <= flat[:, None]] = 0.0
        res = _lp.solve(-values[m, reps], b_eq=np.r_[1.0, np.zeros(len(moves))],
                        A_eq=np.vstack([np.ones(len(reps)), moves / unit[:, None]]))
        assert res.status == 0, res.message
        sups[c] = -res.fun
    return sups


def _step_gaps_loop(space, mset, rows, t, equality=True):
    """(label, gaps) pairs comparing E^P(rows[t + 1] | F_t) with rows[t] on
    the time-t cells: every generator's difference on a hull (absolute with
    equality); on a polytope the one-step LP's excess (one_step_sups_lp),
    or with equality the least-squares replication residual
    (hedge_ratios_lstsq), and below a terminal cell the largest miss of
    its outcomes."""
    reps = cell_reps(space, t)
    if isinstance(mset, GeneratorHull):
        gaps = [(conditional_expectation(space, g, rows[t + 1], t) - rows[t])[reps]
                for g in mset.generators]
        return [(f"generator {i}", np.abs(g) if equality else g) for i, g in enumerate(gaps)]
    if not equality:
        return [("lp max", one_step_sups_lp(mset, rows, t + 1) - rows[t][reps])]
    if t == space.horizon:
        order, starts = cell_order(space, t, t + 1)
        return [("node residual",
                 np.maximum.reduceat(np.abs(rows[t + 1] - rows[t])[order], starts))]
    return [("node residual", hedge_ratios_lstsq(mset, rows[:space.horizon + 1])[1][t])]


def step_report_loop(space, mset, f, equality):
    """is_supermartingale (equality False) or is_martingale of the process
    f, one step and one label at a time (_step_gaps_loop): per generator its
    conditional expectation on a hull; per node on a polytope."""
    values = np.asarray(getattr(f, "values", f), dtype=float)
    scale = 1.0 + float(np.abs(values).max())
    violations = []
    for m in range(1, space.horizon + 1):
        for label, gaps in _step_gaps_loop(space, mset, values, m - 1, equality):
            violations += [StepViolation(m, int(c), label, float(gaps[c]))
                           for c in np.flatnonzero(gaps > EQ_TOL * scale)]
    return MartingaleReport(ok=not violations, equality=equality, violations=tuple(violations))


def unit_claim_rows_loop(space, mset, xi):
    """unit_claim_rows without its unit-claim test, one step and one label
    at a time from N down (_step_gaps_loop): the reference member's
    conditional expectations of xi, t = 0..N, or MeasureDependent for the
    latest time, its first label with a gap, and that label's largest
    gap."""
    xi = np.asarray(xi, dtype=float)
    ref = mset.reference()
    rows = np.array([conditional_expectation(space, ref, xi, t)
                     for t in range(space.horizon + 1)] + [xi])
    tol = EQ_TOL * (1.0 + float(np.abs(xi).max()))
    for t in range(space.horizon, -1, -1):
        for label, gaps in _step_gaps_loop(space, mset, rows, t):
            if gaps.max() > tol:
                c = int(np.argmax(gaps))
                raise MeasureDependent(f"E(claim | F_{t}) differs across measures on cell {c} "
                                       f"({label}, gap {gaps.max():.3e})", time=t, cell=c)
    return rows[:-1]


def unit_claim_rows_two_pass(space, mset, xi):
    """unit_claim_rows as two passes at one tolerance: is_unit_claim
    (NotUnitClaim), then the step loop (unit_claim_rows_loop)."""
    if not is_unit_claim(space, mset, xi):
        raise NotUnitClaim("claim is not nonnegative with unit expectation under every measure")
    return unit_claim_rows_loop(space, mset, xi)


def is_unit_claim_loop(space, mset, xi):
    """is_unit_claim for one claim, as a family was judged member by member
    before the stacked pass: xi >= -EQ_TOL and the equality gaps of the
    process 1 followed by the claim xi within EQ_TOL * (1 + max |xi|).  A
    hull takes its own gaps.  A polytope tests at every time s >= 1 whether
    xi is F_s-measurable, spreads xi - 1 over the reference member's
    conditional means up to the first such s (N + 1 if none), from 0 at time
    0, and takes the largest replication residual (hedge_ratios) of the
    nodes of times < s on that path, which goes on as xi - 1 after s; with
    s = N + 1 also the largest miss of xi - 1 about its terminal cell's
    mean."""
    xi = np.asarray(xi, dtype=float)
    tol = EQ_TOL * (1.0 + float(np.abs(xi).max()))
    if xi.min() < -EQ_TOL:
        return False
    if isinstance(mset, GeneratorHull):
        return bool(mset.gaps(np.ones(1), equality=True, claim=xi)[1].max() <= tol)
    num, N, n = space.numbering, space.horizon, space.outcome_count
    last = xi - 1.0
    measurable = (last[num.firsts[num.ids[1:]] % n] == last).all(axis=1)
    s = 1 + int(measurable.argmax()) if measurable.any() else N + 1
    path = last[num.firsts % n]
    path[0] = 0.0
    if s > 1:
        path[num.offsets[1]:num.offsets[min(s, N + 1)]] = _condexp_cells(
            space, mset.reference(), last, 1, min(s, N + 1))
    miss = np.concatenate(mset.hedge_ratios(path)[1][:s])
    if s == N + 1:
        miss = np.r_[miss, np.abs(last - path[num.ids[N]])]
    return bool(miss.max() <= tol)


def is_complete_loop(space, mset, xi0):
    """is_complete one completion measure at a time: for each time n, each
    cell i with d_i <= EQ_TOL and each cell j with d_j > EQ_TOL, the measure
    d_j / (d_j - d_i) on i and -d_i / (d_j - d_i) on j is tested on its own.
    A hull holds it when some convex combination of the generators' time-n
    cell masses equals it (_lp.feasible_point); a polytope when it meets
    every asset equality up to step n (equality_residuals)."""
    failures, tested = [], 0
    for n, d in enumerate(increment_process(space, mset, xi0), start=1):
        for i in np.flatnonzero(d <= EQ_TOL).tolist():
            for j in np.flatnonzero(d > EQ_TOL).tolist():
                masses = np.zeros(space.n_cells(n))
                masses[i], masses[j] = d[j] / (-d[i] + d[j]), -d[i] / (-d[i] + d[j])
                if isinstance(mset, GeneratorHull):
                    gens = np.array([np.bincount(space.atom_index[n], g.probabilities, len(d))
                                     for g in mset.generators])
                    A_eq = np.vstack([gens.T, np.ones((1, mset.k))])
                    held = _lp.feasible_point(A_eq, np.r_[masses, 1.0], mset.k) is not None
                else:
                    held = not mset.equality_residuals(masses, n)
                tested += 1
                if not held:
                    failures.append((n, i, j))
    return CompletenessReport(complete=not failures, failures=tuple(failures), tested=tested)


def martingale_representation_lstsq(space, poly, mprocess, raw=False):
    """martingale_representation with its holdings from hedge_ratios_lstsq."""
    report = is_martingale(space, poly, mprocess)
    if not report.ok:
        v = report.violations[0]
        raise NotMartingale(f"not a martingale at time {v.time}, cell {v.cell}", report=report)
    holdings, residuals = hedge_ratios_lstsq(poly, mprocess.values, raw=raw)
    scale = 1.0 + float(np.abs(mprocess.values).max())
    for m, miss in enumerate(residuals, start=1):
        for c, residual in enumerate(miss):
            if residual > EQ_TOL * scale:
                raise NoRepresentation(f"not spanned at time {m}, cell {c}",
                                       time=m, cell=c, residual=float(residual))
    return PredictableProcess(space, holdings)


def enumerate_vertices(A_eq, b_eq, tol=FEAS_TOL):
    """All vertices of {x >= 0 : A_eq x = b_eq} as rows, lexicographically sorted.

    Basic-feasible-solution enumeration over column subsets of size rank(A).
    """
    A = np.asarray(A_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    n = A.shape[1]
    r = int(np.linalg.matrix_rank(A, tol=1e-11))
    found = {}
    for cols in combinations(range(n), r):
        sub = A[:, cols]
        x_sub, _, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rank < r:
            continue
        if np.max(np.abs(sub @ x_sub - b)) > tol:
            continue
        if x_sub.min() < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_sub, 0.0, None)
        key = tuple(np.round(x, 10))
        found.setdefault(key, x)
    return np.array([found[k] for k in sorted(found)]) if found else np.empty((0, n))


def closure_vertices(poly):
    """Vertices of the closure of a martingale polytope, one per row."""
    return enumerate_vertices(*equality_system(poly))


def _outcome_prices(assets):
    return np.stack([a.values for a in assets], axis=2)                # (N+1, n, d)


def ratio_family_hedge(space, poly, claim):
    """The generated superhedge's price and holdings by fair_price_generated
    over asset_ratio_family, its members judged as claims in one stacked
    is_unit_claim call: (result, units), units (N, d) the static position
    the weights buy, sum over i > m of beta_{j,i} / S^j_0 units of asset j
    at step m."""
    N, d = space.horizon, len(poly.assets)
    family, index = asset_ratio_family(poly)
    result = fair_price_generated(space, poly, family, claim)
    units = np.zeros((N, d))
    for (j, i), beta in zip(index, result.weights):
        units[:i, j] += beta / poly.assets[j].values[0, 0]
    return result, units


def strategy_outcomes(space, poly, claim, price_mode):
    """(price, cash, risky, capital, compensator) of superhedge(space, poly,
    claim, price_mode) assembled on the outcomes: the price and holdings
    from the library (superhedge_capital's, or ratio_family_hedge's),
    spread to (N, n, d); then stacked prices, einsum gains, their cumulative sum from the price as capital,
    capital minus holdings times prices as cash, and the compensator
    capital - claim at N."""
    num, N, n, d = space.numbering, space.horizon, space.outcome_count, len(poly.assets)
    if price_mode == "full":
        capital, holdings, _ = poly.superhedge_capital(claim)
        price, holdings = float(capital[0]), holdings[num.ids[:N]]
    else:
        result, units = ratio_family_hedge(space, poly, claim)
        price, holdings = result.price, np.broadcast_to(units[:, None, :], (N, n, d))
    prices = _outcome_prices(poly.assets)
    risky = np.zeros((N + 1, n, d))
    risky[1:] = holdings
    gains = np.einsum("tnd,tnd->tn", risky, np.diff(prices, axis=0, prepend=prices[:1]))
    capital = price + np.cumsum(gains, axis=0)
    cash = capital - np.einsum("tnd,tnd->tn", risky, prices)
    g = np.zeros((N + 1, n))
    g[N] = capital[N] - claim
    return price, cash, risky, capital, g


def capital_outcomes(strategy):
    """cash_m + <holdings_m, S_m> on the outcomes, shape (N+1, n)."""
    prices = _outcome_prices(strategy.assets)
    return strategy.cash + np.einsum("tnd,tnd->tn", strategy.risky, prices)


def self_financing_outcomes(strategy):
    """The (time, cell, residual) violations of verify_self_financing from
    the outcome arrays: every step's cash and holdings moves at once, read
    at the first outcome of each time-(m-1) cell."""
    space, n = strategy.space, strategy.space.outcome_count
    prices = _outcome_prices(strategy.assets)
    tol = EQ_TOL * (1.0 + float(np.abs(prices).max()))
    residual = (np.diff(strategy.cash, axis=0)
                + np.einsum("mnd,mnd->mn", np.diff(strategy.risky, axis=0), prices[:-1]))
    t, w = np.nonzero(np.abs(residual) > tol)
    first = space.numbering.firsts[space.numbering.ids[t, w]] == t * n + w
    return list(zip((t[first] + 1).tolist(), space.atom_index[t, w][first].tolist(),
                    residual[t, w][first].tolist()))
