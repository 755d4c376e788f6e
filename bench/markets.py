"""Seeded market inputs for the benchmark workloads.

Everything here is plain numpy: a generator returns partitions, value
matrices and claims, and the library only ever sees these arrays (the
workloads pass them through the public constructors during set-up).  The
factories mirror the shapes of the test-suite factories rather than
importing them, so that editing a test cannot change a workload.

Trees are stored as nested nodes; ``tree_inputs`` flattens one into the
partition sequence and adapted value matrices the constructors take.
"""

from __future__ import annotations

import numpy as np


class Node:
    __slots__ = ("price", "children", "leaves")

    def __init__(self, price):
        self.price = np.asarray(price, dtype=float)
        self.children: list[Node] = []
        self.leaves: list[int] = []


def tree_inputs(root: Node, horizon: int):
    """(outcome count, partitions, values (d, N+1, n)) of a tree whose leaves
    all sit at depth ``horizon``.  A node with one child keeps its price."""
    levels = [[root]]
    for _ in range(horizon):
        levels.append([ch for node in levels[-1] for ch in node.children])
    for i, node in enumerate(levels[-1]):
        node.leaves = [i]
    for level in reversed(levels[:-1]):
        for node in level:
            node.leaves = [w for ch in node.children for w in ch.leaves]
    n = len(levels[-1])
    d = root.price.size
    values = np.empty((d, horizon + 1, n))
    for t, level in enumerate(levels):
        for node in level:
            values[:, t, node.leaves] = node.price[:, None]
    partitions = [[node.leaves for node in level] for level in levels]
    return n, partitions, values


def _pad_to_depth(node: Node, depth: int, horizon: int):
    """Give every leaf above ``horizon`` a chain of flat single children."""
    if depth == horizon:
        return
    if not node.children:
        node.children = [Node(node.price)]
    for ch in node.children:
        _pad_to_depth(ch, depth + 1, horizon)


def _straddling_children(rng, price: float, k: int) -> list[float]:
    vals = [price * rng.uniform(0.55, 0.95), price * rng.uniform(1.05, 1.45)]
    vals += [price * rng.uniform(0.6, 1.4) for _ in range(k - 2)]
    return vals


def incomplete_tree(rng, outcomes: int, ternary: int, horizon_range=(3, 5)):
    """Single-asset tree with exactly ``outcomes`` leaves and ``ternary``
    three-way splits; every other split is binary.

    Each split straddles its parent price, so a strictly positive martingale
    measure exists.  The equality system then has rank outcomes - ternary,
    so closure-vertex enumeration visits C(outcomes, ternary) column
    subsets: fixing (outcomes, ternary) fixes the enumeration cost while
    the seed still chooses the shape and the prices.  The horizon is drawn
    from ``horizon_range`` and raised only if the splits cannot fit.
    """
    splits = [3] * ternary + [2] * (outcomes - 1 - 2 * ternary)
    if min(splits, default=2) < 2 or outcomes < 2:
        raise ValueError("outcome count too small for the ternary splits")
    horizon = int(rng.integers(horizon_range[0], horizon_range[1] + 1))
    attempts = 0
    while (root := _split_randomly(rng, splits, horizon)) is None:
        attempts += 1
        if attempts % 50 == 0:
            horizon += 1
    _pad_to_depth(root, 0, horizon)
    n, partitions, values = tree_inputs(root, horizon)
    return {"outcomes": n, "partitions": partitions, "assets": values}


def _split_randomly(rng, splits, horizon: int):
    """Apply the splits, in random order, to random leaves above ``horizon``;
    None when every leaf reached the horizon first."""
    root = Node([100.0])
    frontier = [(root, 0)]  # leaves with their depth
    for k in rng.permutation(splits):
        open_leaves = [i for i, (_, dep) in enumerate(frontier) if dep < horizon]
        if not open_leaves:
            return None
        node, dep = frontier.pop(open_leaves[int(rng.integers(len(open_leaves)))])
        node.children = [Node([v]) for v in _straddling_children(rng, float(node.price[0]), int(k))]
        frontier.extend((ch, dep + 1) for ch in node.children)
    return root


def terminal_option(rng, asset_terminal: np.ndarray, spot: float) -> np.ndarray:
    """A call or a put on the terminal price, struck near the spot."""
    strike = spot * rng.uniform(0.85, 1.15)
    if rng.random() < 0.5:
        return np.maximum(asset_terminal - strike, 0.0)
    return np.maximum(strike - asset_terminal, 0.0)


def random_partitions(rng, outcomes: int, horizon: int):
    """Refining partitions; each cell splits into 2..3 parts with probability
    0.75 per step (the test-suite space factory with fixed sizes).  Retries
    until the terminal partition separates at least half of the outcomes, so
    that a fixed (outcomes, horizon) slot keeps a comparable cell count."""
    while True:
        perm = [int(w) for w in rng.permutation(outcomes)]
        levels = [[perm]]
        for _ in range(horizon):
            level = []
            for cell in levels[-1]:
                if len(cell) > 1 and rng.random() < 0.75:
                    k = int(rng.integers(2, min(len(cell), 3) + 1))
                    cuts = sorted(rng.choice(range(1, len(cell)), size=k - 1, replace=False))
                    level.extend([list(map(int, p)) for p in np.split(np.array(cell), cuts)])
                else:
                    level.append(list(cell))
            levels.append(level)
        if 2 * len(levels[-1]) >= outcomes:
            return levels


def atom_index(partitions, outcomes: int) -> np.ndarray:
    out = np.empty((len(partitions), outcomes), dtype=int)
    for t, level in enumerate(partitions):
        for c, cell in enumerate(level):
            out[t, cell] = c
    return out


def cond_exp(p: np.ndarray, x: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """E^p(x | cells) as an outcome row; atoms maps outcome -> cell."""
    k = int(atoms.max()) + 1
    mass = np.bincount(atoms, weights=p, minlength=k)
    lift = np.bincount(atoms, weights=p * x, minlength=k)
    return (lift / mass)[atoms]


def _random_measure(rng, n: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    return 0.9 * p + 0.1 / n


def compliant_hull_class_k(rng, outcomes: int, horizon: int):
    """Hull of 2..4 generators whose density ratios are constant on the
    first-period cells, plus a class-K super-martingale
    sum_i C_i w_i,m E(xi_i | F_m) with deterministic nonincreasing weights
    and cellwise unit claims xi_i.  Such a process always decomposes."""
    partitions = random_partitions(rng, outcomes, horizon)
    atoms = atom_index(partitions, outcomes)
    base = _random_measure(rng, outcomes)
    gens = [base]
    for _ in range(int(rng.integers(2, 5)) - 1):
        factors = rng.uniform(0.3, 3.0, size=len(partitions[1]))
        p = base * factors[atoms[1]]
        gens.append(p / p.sum())
    f = np.zeros((horizon + 1, outcomes))
    for _ in range(int(rng.integers(1, 3))):
        xi = rng.uniform(0.2, 2.0, size=outcomes)
        xi = xi / cond_exp(base, xi, atoms[1])
        weights = np.empty(horizon + 1)
        weights[0] = rng.uniform(0.5, 2.0)
        for m in range(1, horizon + 1):
            weights[m] = weights[m - 1] - rng.uniform(0.0, 0.3)
        coef = rng.uniform(0.0, 2.0)
        for m in range(horizon + 1):
            f[m] += coef * weights[m] * cond_exp(base, xi, atoms[m])
    return {"outcomes": outcomes, "partitions": partitions, "generators": gens, "process": f}


def _one_step_sup(x_children: np.ndarray, moves: np.ndarray) -> float:
    """sup of sum q x over {q >= 0, sum q = 1, sum q * move = 0}, one asset.

    Vertices of this set are point masses on flat children and two-point
    measures on a pair of children straddling zero."""
    best = -np.inf
    flat = moves == 0.0
    if flat.any():
        best = float(x_children[flat].max())
    down = np.flatnonzero(moves < 0.0)
    up = np.flatnonzero(moves > 0.0)
    for i in down:
        for j in up:
            wi = moves[j] / (moves[j] - moves[i])
            best = max(best, wi * x_children[i] + (1.0 - wi) * x_children[j])
    return best


def one_step_sups(partitions, asset: np.ndarray, row: np.ndarray, t: int) -> np.ndarray:
    """Per time-t cell, the sup over the martingale polytope of E(row | F_t)
    for an F_{t+1}-measurable row, as an outcome row.  The polytope of
    martingale measures of one asset is rectangular, so the conditional sup
    is the one-step problem at that node."""
    out = np.empty_like(row)
    child_cells = partitions[t + 1]
    for cell in partitions[t]:
        members = set(cell)
        kids = [c for c in child_cells if c[0] in members]
        reps = [c[0] for c in kids]
        moves = asset[t + 1, reps] - asset[t, reps]
        out[cell] = _one_step_sup(row[reps], moves)
    return out


def envelope_rows(partitions, asset: np.ndarray, claim: np.ndarray) -> np.ndarray:
    """ess-sup process of a nonnegative claim over a one-asset martingale
    polytope, by backward induction of one-step sups."""
    horizon = len(partitions) - 1
    rows = np.empty((horizon + 1, claim.size))
    rows[horizon] = claim
    for t in range(horizon - 1, -1, -1):
        rows[t] = one_step_sups(partitions, asset, rows[t + 1], t)
    return rows


def envelope_tree(rng, outcomes: int, ternary: int, horizon: int):
    """Incomplete tree with a nonnegative claim whose envelope gets decomposed."""
    spec = incomplete_tree(rng, outcomes, ternary, horizon_range=(horizon, horizon))
    spec["claim"] = terminal_option(rng, spec["assets"][0, -1], 100.0)
    spec["envelope"] = envelope_rows(spec["partitions"], spec["assets"][0], spec["claim"])
    return spec


def complete_polytope_supermartingale(rng, outcomes: int, horizon: int):
    """One-asset market that is complete for the terminal ratio claim, with a
    random super-martingale.

    The asset stays at 100 until the last step, where the children of one
    branching cell jump to prices straddling 100 (the test-suite complete
    polytope).  The process is built backwards: each parent value is the
    one-step sup of its children plus a nonnegative slack, zero with
    probability 0.3."""
    while True:
        partitions = random_partitions(rng, outcomes, horizon)
        last = partitions[-1]
        branching = []
        for cell in partitions[-2]:
            kids = [c for c in last if c[0] in set(cell)]
            if len(kids) >= 2:
                branching.append(kids)
        if branching:
            break
    kids = branching[int(rng.integers(len(branching)))]
    asset = np.full((horizon + 1, outcomes), 100.0)
    jumps = rng.uniform(55.0, 145.0, size=len(kids))
    jumps[0] = rng.uniform(55.0, 95.0)
    jumps[1] = rng.uniform(105.0, 145.0)
    for kid, v in zip(kids, jumps):
        asset[horizon, kid] = v

    shift = rng.uniform(-2.0, 1.0)
    rows = np.empty((horizon + 1, outcomes))
    terminal = rng.uniform(0.0, 3.0, size=len(last))
    for c, cell in enumerate(last):
        rows[horizon, cell] = terminal[c] + shift
    for m in range(horizon, 0, -1):
        sup = one_step_sups(partitions, asset, rows[m], m - 1)
        slack = np.zeros(outcomes)
        for cell in partitions[m - 1]:
            if rng.random() > 0.3:
                slack[cell] = rng.uniform(0.0, 0.5)
        rows[m - 1] = sup + slack
    return {
        "outcomes": outcomes,
        "partitions": partitions,
        "assets": asset[None],
        "process": rows,
        "xi0": asset[horizon] / 100.0,
    }


def binomial_tree(rng, steps: int):
    """Non-recombining one-asset binomial tree; 2**steps outcomes, complete."""
    def grow(node, depth):
        if depth == steps:
            return
        p = float(node.price[0])
        node.children = [Node([p * rng.uniform(1.04, 1.25)]), Node([p * rng.uniform(0.8, 0.96)])]
        for ch in node.children:
            grow(ch, depth + 1)

    root = Node([100.0])
    grow(root, 0)
    n, partitions, values = tree_inputs(root, steps)
    claim = np.maximum(values[0, -1] - 100.0 * rng.uniform(0.9, 1.1), 0.0)
    return {"outcomes": n, "partitions": partitions, "assets": values, "claim": claim,
            "price": complete_tree_price(partitions, values, claim)}


def trinomial_two_asset_tree(rng, steps: int):
    """Non-recombining two-asset trinomial tree; 3**steps outcomes.

    The three moves of each node point in directions about 120 degrees
    apart, so zero lies inside their triangle: the one-step martingale
    measure exists, is unique and strictly positive, and the market is
    complete."""
    def grow(node, depth):
        if depth == steps:
            return
        theta = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(3) / 3.0
        theta += rng.uniform(-0.4, 0.4, size=3)
        radius = rng.uniform(0.05, 0.15, size=3)
        moves = np.stack([np.cos(theta), np.sin(theta)], axis=1) * radius[:, None]
        node.children = [Node(node.price * (1.0 + mv)) for mv in moves]
        for ch in node.children:
            grow(ch, depth + 1)

    root = Node([100.0, 100.0])
    grow(root, 0)
    n, partitions, values = tree_inputs(root, steps)
    basket = 0.5 * (values[0, -1] + values[1, -1])
    claim = np.maximum(basket - 100.0 * rng.uniform(0.9, 1.1), 0.0)
    return {"outcomes": n, "partitions": partitions, "assets": values, "claim": claim,
            "price": complete_tree_price(partitions, values, claim)}


def complete_tree_price(partitions, assets: np.ndarray, claim: np.ndarray) -> float:
    """Price of a claim on a complete tree: backward induction under the
    unique one-step martingale measures, solved node by node."""
    horizon = len(partitions) - 1
    d = assets.shape[0]
    value = claim.astype(float).copy()
    for t in range(horizon - 1, -1, -1):
        nxt = value.copy()
        child_cells = partitions[t + 1]
        for cell in partitions[t]:
            members = set(cell)
            reps = [c[0] for c in child_cells if c[0] in members]
            if len(reps) == 1:
                continue
            moves = assets[:, t + 1, reps] - assets[:, t, reps]
            system = np.vstack([moves, np.ones(len(reps))])
            q = np.linalg.solve(system, np.concatenate([np.zeros(d), [1.0]]))
            nxt[cell] = float(q @ value[reps])
        value = nxt
    return float(value[0])


def desk_market(rng, outcomes, ternary, horizon):
    spec = incomplete_tree(rng, outcomes, ternary, horizon_range=(horizon, horizon))
    spec["claim"] = terminal_option(rng, spec["assets"][0, -1], 100.0)
    return spec


# One round of each workload: a fixed list of (factory, size arguments).  The
# seed draws shapes, prices and claims; the slots fix the sizes, so every
# round carries the same mix of cheap and expensive tasks and the medians
# of a run do not depend on which sizes the seed happened to draw.
ROUNDS = {
    # six book-sized trees (C(n, ternary) from 220 to 1365 column subsets)
    # and three large ones (4368 subsets each)
    "desk_incomplete": [
        (desk_market, 12, 3, 3), (desk_market, 13, 3, 4), (desk_market, 13, 4, 5),
        (desk_market, 14, 4, 3), (desk_market, 15, 4, 4), (desk_market, 15, 3, 5),
        (desk_market, 16, 5, 3), (desk_market, 16, 5, 4), (desk_market, 16, 5, 5),
    ],
    # hulls are the cheapest tasks and envelopes the dearest, so the median
    # falls among the three complete polytopes
    "decompose_verdicts": [
        (compliant_hull_class_k, 10, 3), (compliant_hull_class_k, 16, 4),
        (complete_polytope_supermartingale, 10, 3),
        (complete_polytope_supermartingale, 13, 3),
        (complete_polytope_supermartingale, 16, 4),
        (envelope_tree, 12, 3, 3), (envelope_tree, 16, 5, 4),
    ],
    # half of each round is 512-outcome binomial trees, so the median and
    # the tail both fall among them whatever the number of rounds
    "wide_complete": [
        (trinomial_two_asset_tree, 5), (trinomial_two_asset_tree, 6),
        (binomial_tree, 9), (binomial_tree, 9), (binomial_tree, 9), (binomial_tree, 10),
    ],
}

TINY_ROUNDS = {
    "desk_incomplete": [(desk_market, 6, 1, 2), (desk_market, 8, 2, 3)],
    "decompose_verdicts": [
        (compliant_hull_class_k, 6, 2), (envelope_tree, 6, 1, 2),
        (complete_polytope_supermartingale, 6, 2),
    ],
    "wide_complete": [(binomial_tree, 3), (trinomial_two_asset_tree, 2)],
}


def market_round(workload: str, rng, tiny: bool = False) -> list[dict]:
    """Inputs of one round; each spec carries a label naming its slot."""
    specs = []
    for factory, *sizes in (TINY_ROUNDS if tiny else ROUNDS)[workload]:
        spec = factory(rng, *sizes)
        spec["label"] = f"{factory.__name__}{tuple(sizes)} n={spec['outcomes']}"
        specs.append(spec)
    return specs


def warmup_market(workload: str) -> dict:
    """The one-step binomial market S = 100 -> (120, 80) with a call struck at
    100, shaped for the workload's task."""
    spec = {
        "label": "warm-up binomial",
        "outcomes": 2,
        "partitions": [[[0, 1]], [[0], [1]]],
        "assets": np.array([[[100.0, 100.0], [120.0, 80.0]]]),
        "claim": np.array([20.0, 0.0]),
    }
    if workload == "decompose_verdicts":
        spec["envelope"] = np.array([[10.0, 10.0], [20.0, 0.0]])
    else:
        spec["price"] = 10.0
    return spec
