"""Random instance factories shared by the test modules.

Hull randomization comes in two flavours: unconstrained, and "compliant"
hulls whose generator density ratios are constant on the first-period cells.
Several results about ess-sup processes only hold on compliant hulls, and
the corresponding suites generate accordingly.

Complete martingale polytopes are generated structurally: a single asset
that is flat except across one branching step inside one branch, which makes
every two-point completion measure satisfy the asset equalities.

closure_vertices is a brute-force oracle: it enumerates the vertices of a
polytope's closure over all column subsets, so it is only for the small
instances the tests build.  cond_exp_sup_lp is another polytope oracle:
one LP over the whole closure per cell, against which the library's
node-by-node backward induction is checked.  local_regular_witness_lp
decomposes a super-martingale by one LP per cell over the family's
expectation functionals (a hull's generators), against which the
node-by-node compensator of a polytope and the per-step compensator of a
hull are checked.  fair_price_full_lp prices a claim on a polytope by one
LP over those functionals, against which the least superhedge is checked.
hedge_ratios_lstsq and martingale_representation_lstsq solve the
representation one cell at a time by least squares, against which the
batched projections are checked.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from superhedge import (
    EQ_TOL,
    FEAS_TOL,
    MASS_TOL,
    AdaptedProcess,
    Decomposition,
    GeneratorHull,
    Infeasible,
    MartingalePolytope,
    NoRepresentation,
    NotMartingale,
    PredictableProcess,
    build_space,
    is_martingale,
)
from superhedge import _lp


def random_space(rng, max_outcomes=12, max_horizon=4, min_outcomes=2, min_horizon=1):
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
    return build_space(n, levels)


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
    """MeasureSet.compensator_increments by one LP per time-t cell over the
    family's expectation functionals, a hull's generators with kappa = 1:
    the increment on each child is an unknown, nonnegative, one equality
    per functional, least sum.  A family with a single functional gets the
    constant conditional mean, floored at zero, instead.  Raises
    Infeasible(time=t+1, cell) for the first cell without a solution."""
    if isinstance(mset, GeneratorHull):
        functionals = [(g.probabilities, 1.0) for g in mset.generators]
    else:
        functionals = mset.expectation_functionals()
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
    functionals = poly.expectation_functionals()
    box = np.zeros((n + 1, 2))
    box[1:, 0] = np.maximum(x, 0.0)
    box[:, 1] = np.inf
    res = _lp.solve(np.r_[1.0, np.zeros(n)], A_eq=np.array([np.r_[-k, w] for w, k in functionals]),
                    b_eq=np.zeros(len(functionals)), bounds=box)
    assert res.status == 0, res.message
    return float(res.fun), res.x[1:]


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
    flat = MASS_TOL * (1.0 + peak)
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
