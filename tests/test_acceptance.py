"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Every tolerance is pinned here and matches the library's contract; nothing
is deferred to calibration.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from superhedge import (
    AdaptedProcess,
    GeneratorHull,
    IncompletenessDetected,
    Infeasible,
    alpha_coefficient,
    asset_ratio_family,
    build_space,
    ess_sup_process,
    euro_call_price,
    euro_put_price,
    fair_price_full,
    fair_price_generated,
    increment_process,
    is_martingale,
    local_regular_witness,
    optional_decomposition_complete,
    strategy_capital,
    sup_expectation,
    superhedge,
    verify_self_financing,
)
from superhedge.cli import main

from conftest import bound_tree as make_bound_tree
from gen import (
    cellwise_unit_claim,
    closure_vertices,
    compliant_hull,
    complete_polytope,
    generic_claim,
    random_hull,
    random_market_tree,
    random_measure,
    random_space,
    random_supermartingale,
)
from test_pricing import grid_oracle_price

DATA = Path(__file__).parent / "data"


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _decomposition_invariants_hold(space, mset, f, dec, tol=1e-9):
    values = f.values
    recon = np.abs(values - (dec.martingale.values - dec.compensator.values)).max()
    g0 = np.abs(dec.compensator.values[0]).max()
    steps = dec.compensator.values[1:] - dec.compensator.values[:-1]
    min_step = steps.min() if steps.size else 0.0
    return (
        recon <= tol * (1.0 + np.abs(values).max())
        and g0 <= tol
        and min_step >= -tol
        and is_martingale(space, mset, dec.martingale).ok
    )


def test_criterion_1_closed_form_call(capsys):
    start = time.perf_counter()
    code = main(
        ["price", str(DATA / "bound_tree.json"), "call90", "--mode", "generated"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    price = float(out.splitlines()[0].split(":")[1])
    closed = euro_call_price(100.0, 120.0, 90.0)
    with capsys.disabled():
        report(
            1,
            code == 0 and abs(price - 25.0) <= 1e-8 and abs(price - closed) <= 1e-8 and elapsed < 1.0,
            f"band tree call K=90: price {price} vs closed form {closed}, {elapsed:.3f}s",
        )


def test_criterion_2_closed_form_put(capsys):
    code = main(["price", str(DATA / "bound_tree.json"), "put90", "--mode", "generated"])
    out = capsys.readouterr().out
    price = float(out.splitlines()[0].split(":")[1])
    closed = euro_put_price(80.0, 90.0)
    with capsys.disabled():
        report(
            2,
            code == 0 and abs(price - 10.0) <= 1e-8 and abs(price - closed) <= 1e-8,
            f"band tree put K=90: price {price} vs closed form {closed}",
        )


def test_criterion_3_complete_market_collapse():
    space = build_space(2, [[(0, 1)], [(0,), (1,)]])
    asset = AdaptedProcess(space, [[100.0, 100.0], [120.0, 80.0]])
    from superhedge import MartingalePolytope

    poly = MartingalePolytope(space, [asset], names=("S",))
    payoff = np.maximum(asset.values[1] - 100.0, 0.0)
    result = fair_price_full(space, poly, payoff)
    strategy, dec, _ = superhedge(space, poly, payoff, price_mode="full")
    ok = (
        abs(result.price - 10.0) <= 1e-9
        and abs(result.price - sup_expectation(space, poly, payoff)) <= 1e-9
        and np.abs(dec.compensator.values[-1]).max() <= 1e-9
        and np.allclose(strategy.risky[1, :, 0], 0.5, atol=1e-9)
    )
    report(3, ok, f"binomial call: price {result.price}, H1 {strategy.risky[1, 0, 0]}")


def test_criterion_4_decomposition_reconstruction_suite():
    rng = np.random.default_rng(4001)
    total = returned = 0
    ok = True
    from superhedge import KTerm, class_k_supermartingale

    while total < 1000:
        total += 1
        kind = total % 3
        space = random_space(rng, max_outcomes=12, max_horizon=4, min_outcomes=2)
        if kind == 0:
            hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
            f = random_supermartingale(rng, space, hull)
        elif kind == 1 and space.outcome_count >= 3:
            hull = compliant_hull(rng, space, k=int(rng.integers(2, 5)))
            terms = []
            for _ in range(int(rng.integers(1, 3))):
                xi = cellwise_unit_claim(rng, space, hull)
                weights = np.empty((space.horizon + 1, space.outcome_count))
                weights[0] = rng.uniform(0.5, 2.0)
                for m in range(1, space.horizon + 1):
                    weights[m] = weights[m - 1] - rng.uniform(0, 0.3)
                terms.append(KTerm(claim=xi, weights=weights, coefficient=float(rng.uniform(0, 2))))
            f = class_k_supermartingale(space, hull, terms)
        else:
            hull = random_hull(rng, space, k=int(rng.integers(2, 5)))
            f = random_supermartingale(rng, space, hull)
        try:
            dec = local_regular_witness(space, hull, f)
        except Infeasible:
            continue
        returned += 1
        if not _decomposition_invariants_hold(space, hull, f, dec):
            ok = False
            break
    report(
        4,
        ok and returned >= 500,
        f"{returned} decompositions returned out of {total} instances, all invariants at 1e-9",
    )


def test_criterion_5_envelope_decomposes_iff_expectations_match():
    rng = np.random.default_rng(5001)
    equal_cases = unequal_cases = 0
    ok = True
    trials = 0
    while (equal_cases < 200 or unequal_cases < 300) and trials < 4000:
        trials += 1
        space = random_space(rng, min_outcomes=3)
        hull = compliant_hull(rng, space, k=2)
        if rng.random() < 0.45:
            xi = cellwise_unit_claim(rng, space, hull) * rng.uniform(0.5, 2.0)
        else:
            xi = rng.uniform(0.0, 3.0, size=space.outcome_count)
        exps = [g.probabilities @ xi for g in hull.generators]
        gap = max(exps) - min(exps)
        envelope = ess_sup_process(space, hull, xi)
        if gap <= 1e-9:
            equal_cases += 1
            try:
                dec = local_regular_witness(space, hull, envelope)
            except Infeasible:
                ok = False
                break
            if not _decomposition_invariants_hold(space, hull, envelope, dec):
                ok = False
                break
        elif gap > 1e-6:
            unequal_cases += 1
            try:
                local_regular_witness(space, hull, envelope)
                ok = False
                break
            except Infeasible:
                pass
    report(
        5,
        ok and equal_cases >= 200 and unequal_cases >= 300,
        f"witness feasible iff expectations agree: {equal_cases} equal, "
        f"{unequal_cases} unequal cases",
    )


def test_criterion_6_step_claim_bound_on_complete_sets():
    rng = np.random.default_rng(6001)
    checked = 0
    ok = True
    for _ in range(50):
        space, asset, poly, xi0 = complete_polytope(rng)
        f = random_supermartingale(rng, space, poly, shift=1.0)
        increments = increment_process(space, poly, xi0)
        for n in range(1, space.horizon + 1):
            ratio = f.values[n] / f.values[n - 1]
            sup = poly.cond_exp_sup(ratio, 0).values[0]
            normalized = ratio / sup
            alpha = alpha_coefficient(space, poly, xi0, n, normalized)
            d_row = np.empty(space.outcome_count)
            for c, cell in enumerate(space.cells[n]):
                d_row[list(cell)] = increments[n - 1][c]
            claim = 1.0 + alpha * d_row
            if (normalized - claim).max() > 1e-9:
                ok = False
            for v in closure_vertices(poly):
                for c, cell in enumerate(space.cells[n - 1]):
                    idx = list(cell)
                    mass = v[idx].sum()
                    if mass > 1e-12 and abs(claim[idx] @ v[idx] / mass - 1.0) > 1e-9:
                        ok = False
            checked += 1
    report(6, ok and checked >= 50, f"{checked} step-claim bounds verified on all vertices")


def test_criterion_7_complete_set_decomposition_never_fails():
    rng = np.random.default_rng(7001)
    ok = True
    done = 0
    for _ in range(200):
        space, asset, poly, xi0 = complete_polytope(rng)
        f = random_supermartingale(rng, space, poly, shift=float(rng.uniform(-2.0, 1.0)))
        try:
            dec = optional_decomposition_complete(space, poly, xi0, f)
        except IncompletenessDetected:
            ok = False
            break
        if not _decomposition_invariants_hold(space, poly, f, dec):
            ok = False
            break
        done += 1
    report(7, ok and done == 200, f"{done} complete-set decompositions, no incompleteness reports")


def test_criterion_8_superhedge_domination():
    rng = np.random.default_rng(8001)
    ok = True
    done = 0

    def check(space, poly, payoff, mode):
        nonlocal ok, done
        strategy, dec, result = superhedge(space, poly, payoff, price_mode=mode)
        capital = strategy_capital(strategy)
        sf = verify_self_financing(strategy)
        residual = max((abs(v.residual) for v in sf.violations), default=0.0)
        if capital.values[0, 0] != result.price:
            ok = False
        if residual > 1e-9 or not sf.ok:
            ok = False
        if (capital.values[-1] - payoff).min() < -1e-9:
            ok = False
        done += 1

    # the three fixed pricing instances
    tree_space, tree_asset, tree_poly = make_bound_tree()
    check(tree_space, tree_poly, np.maximum(tree_asset.values[-1] - 90.0, 0.0), "generated")
    check(tree_space, tree_poly, np.maximum(90.0 - tree_asset.values[-1], 0.0), "generated")
    binom_space = build_space(2, [[(0, 1)], [(0,), (1,)]])
    binom_asset = AdaptedProcess(binom_space, [[100.0, 100.0], [120.0, 80.0]])
    from superhedge import MartingalePolytope

    binom_poly = MartingalePolytope(binom_space, [binom_asset], names=("S",))
    check(binom_space, binom_poly, np.array([20.0, 0.0]), "full")

    for i in range(200):
        space, asset, poly = random_market_tree(rng)
        payoff = generic_claim(rng, space, high=60.0)
        check(space, poly, payoff, "full" if i % 3 == 0 else "generated")
        if not ok:
            break
    report(8, ok and done >= 203, f"{done} superhedges: exact start capital, domination at 1e-9")


def test_criterion_9_micro_grid_oracle():
    separating = build_space(2, [[(0, 1)], [(0,), (1,)]])
    coarse = build_space(2, [[(0, 1)], [(0, 1)]])
    from superhedge import MartingalePolytope

    worst = 0.0
    count = 0
    payoffs = [np.array([2.0, 0.0]), np.array([1.0, 3.0]), np.array([1.5, 1.5]), np.zeros(2)]
    for p0 in (0.2, 0.5, 0.8):
        msets = [GeneratorHull(separating, [[p0, 1 - p0]])]
        if p0 != 0.5:
            msets.append(GeneratorHull(separating, [[p0, 1 - p0], [0.5, 0.5]]))
        for mset in msets:
            for f_N in payoffs:
                lp = fair_price_full(separating, mset, f_N).price
                oracle = grid_oracle_price(separating, mset, f_N)
                worst = max(worst, abs(lp - oracle))
                count += 1
    for up in (110.0, 120.0, 150.0):
        asset = AdaptedProcess(separating, [[100.0, 100.0], [up, 80.0]])
        poly = MartingalePolytope(separating, [asset])
        for f_N in payoffs:
            lp = fair_price_full(separating, poly, f_N).price
            oracle = grid_oracle_price(separating, poly, f_N)
            worst = max(worst, abs(lp - oracle))
            count += 1
    hull = GeneratorHull(coarse, [[0.3, 0.7], [0.6, 0.4]])
    for c in (0.0, 1.0, 2.5):
        f_N = np.full(2, c)
        lp = fair_price_full(coarse, hull, f_N).price
        worst = max(worst, abs(lp - grid_oracle_price(coarse, hull, f_N)))
        count += 1
    report(9, worst <= 1e-6, f"{count} micro instances, max |LP - grid oracle| = {worst:.2e}")


def test_criterion_10_lower_bound_inequality():
    rng = np.random.default_rng(10001)
    ok = True
    count = 0
    for _ in range(60):
        space = random_space(rng)
        mset = random_hull(rng, space)
        f_N = generic_claim(rng, space)
        result = fair_price_full(space, mset, f_N)
        if result.price < result.lower_bound - 1e-9:
            ok = False
        count += 1
    for _ in range(40):
        space, asset, poly = random_market_tree(rng)
        f_N = generic_claim(rng, space, high=40.0)
        full = fair_price_full(space, poly, f_N)
        family, _ = asset_ratio_family(poly)
        gen = fair_price_generated(space, poly, family, f_N)
        if full.price < full.lower_bound - 1e-9 or gen.price < gen.lower_bound - 1e-9:
            ok = False
        count += 2
    report(10, ok, f"{count} pricing instances respect price >= sup expectation - 1e-9")
