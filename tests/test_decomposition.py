import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhedge import (
    EQ_TOL,
    AdaptedProcess,
    GeneratorHull,
    IncompletenessDetected,
    Infeasible,
    MartingalePolytope,
    NotSupermartingale,
    alpha_coefficient,
    build_space,
    ess_sup_process,
    fair_price_full,
    is_martingale,
    local_regular_witness,
    optional_decomposition_complete,
    strategy_capital,
    sup_expectation,
    superhedge,
    validate_decomposition,
    verify_self_financing,
)
from superhedge import measures
from superhedge.spaces import cell_reps

from gen import (
    cellwise_unit_claim,
    closure_vertices,
    compensator_increments_lp,
    compliant_hull,
    complete_polytope,
    generic_claim,
    local_regular_witness_lp,
    random_hull,
    random_market_tree,
    random_measure,
    random_space,
    random_supermartingale,
    trinomial_two_asset,
)


def assert_valid(space, mset, f, dec, tol=1e-9):
    values = f.values if isinstance(f, AdaptedProcess) else np.asarray(f)
    scale = 1.0 + np.abs(values).max()
    assert np.abs(values - (dec.martingale.values - dec.compensator.values)).max() <= tol * scale
    assert np.abs(dec.compensator.values[0]).max() <= tol
    steps = dec.compensator.values[1:] - dec.compensator.values[:-1]
    if steps.size:
        assert steps.min() >= -tol * scale
    assert is_martingale(space, mset, dec.martingale).ok


class TestWitness:
    def test_martingale_gets_zero_compensator(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.5, 0.5]])
        f = AdaptedProcess(binary_space, [[1.0, 1.0], [1.5, 0.5]])
        dec = local_regular_witness(binary_space, hull, f)
        assert np.allclose(dec.compensator.values, 0.0)
        assert np.allclose(dec.martingale.values, f.values)

    def test_singleton_hull_always_feasible(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            space = random_space(rng)
            hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
            f = random_supermartingale(rng, space, hull)
            dec = local_regular_witness(space, hull, f)
            assert_valid(space, hull, f, dec)

    def test_singleton_hull_witness_is_classical(self):
        # one expectation functional: the predictable increment is emitted
        rng = np.random.default_rng(113)
        from superhedge import conditional_expectation

        for _ in range(10):
            space = random_space(rng)
            p = random_measure(rng, space.outcome_count)
            hull = GeneratorHull(space, [p])
            f = random_supermartingale(rng, space, hull)
            dec = local_regular_witness(space, hull, f)
            g = dec.compensator.values
            for m in range(1, space.horizon + 1):
                gbar = g[m] - g[m - 1]
                drop = f.values[m - 1] - conditional_expectation(space, p, f.values[m], m - 1)
                assert np.allclose(gbar, drop, atol=1e-9)
                for cell in space.cells[m - 1]:
                    assert np.ptp(gbar[list(cell)]) <= 1e-12

    def test_requires_supermartingale(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.5, 0.5]])
        f = AdaptedProcess(binary_space, [[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(NotSupermartingale):
            local_regular_witness(binary_space, hull, f)

    def test_two_generator_verdicts_match_grid_oracle(self):
        """Feasibility verdicts cross-checked on 3-outcome spaces.

        Feasible: the returned increment must satisfy the step identity for
        both generators (checked independently here) and a refined grid
        search drives the residual to zero.  Infeasible: the refined grid
        search over witness candidates bottoms out away from zero.
        Borderline residuals are skipped rather than guessed.
        """
        rng = np.random.default_rng(103)
        space = build_space(3, [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1,), (2,)]])
        feasible_seen = infeasible_seen = 0
        for _ in range(60):
            hull = GeneratorHull(space, [random_measure(rng, 3) for _ in range(2)])
            f = random_supermartingale(rng, space, hull)
            try:
                dec = local_regular_witness(space, hull, f)
            except Infeasible as exc:
                residual = _grid_witness_residual(space, hull, f, exc.time, exc.cell)
                if residual > 1e-2:
                    infeasible_seen += 1
                continue
            feasible_seen += 1
            assert_valid(space, hull, f, dec)
            g = dec.compensator.values
            for m in range(1, space.horizon + 1):
                gbar = g[m] - g[m - 1]
                for gen in hull.generators:
                    p = gen.probabilities
                    for cell in space.cells[m - 1]:
                        idx = list(cell)
                        drop = f.values[m - 1, idx] - f.values[m, idx]
                        assert abs((gbar[idx] - drop) @ p[idx]) <= 1e-8
                residual = _grid_witness_residual(space, hull, f, m, None)
                assert residual <= 1e-3
        assert feasible_seen > 0 and infeasible_seen > 0

    def test_cell_system_with_noisy_redundant_rows(self):
        """A rank-2 cell system whose four redundant rows carry rounding
        noise; the pinned solver tolerances alone declare it infeasible."""
        from superhedge import _lp

        W = np.array([
            [0.40470528375359616, 0.3130091257259975, 0.022968431393893745],
            [0.032352612657334065, 0.24018866014423615, -0.2725412728015696],
            [-0.022307021569177965, -0.1656093026939784, 0.1879163242631562],
            [-0.011513018976650469, -0.08547367198765776, 0.09698669096430725],
            [-0.10121482766374804, -0.7514278398710571, 0.8526426675348039],
            [7.810800710352644e-06, 5.798807586814003e-05, -6.579887657785843e-05],
        ])
        r = np.array([
            0.27582713743321513, -3.2729391842251228, 2.2566809595999526,
            1.1647099829776109, 10.23935776049852, -0.0007901765454419199,
        ])
        gamma = _lp.feasible_point(W, r, 3)
        assert gamma is not None
        assert gamma.min() >= 0.0
        assert np.abs(W @ gamma - r).max() <= 1e-9

    def test_inconsistent_cell_system_stays_infeasible(self, lp_calls):
        from superhedge import _lp

        W = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert _lp.feasible_point(W, np.array([1.0, 3.0]), 2) is None
        lp_calls.clear()
        # full row rank: no redundant row, so no second solve
        assert _lp.feasible_point(np.array([[1.0, 1.0]]), np.array([-1.0]), 2) is None
        assert len(lp_calls) == 1

    def test_shift_invariance(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            space = random_space(rng)
            hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
            f = random_supermartingale(rng, space, hull)
            shifted = AdaptedProcess(space, f.values + 2.75)
            g1 = local_regular_witness(space, hull, f).compensator.values
            g2 = local_regular_witness(space, hull, shifted).compensator.values
            assert np.allclose(g1, g2, atol=1e-9)


def _grid_witness_residual(space, hull, f, m, cell_index, steps=21, rounds=10):
    """Best max-residual of the step identity over a refined grid of
    nonnegative witness candidates.  The residual is convex in the candidate,
    so recentering and shrinking the grid converges to the true margin
    (zero iff a witness exists)."""
    cells = range(space.n_cells(m - 1)) if cell_index is None else [cell_index]
    worst = 0.0
    for ci in cells:
        cell = space.cells[m - 1][ci]
        kids = space.children[m - 1][ci]
        kid_cells = [list(space.cells[m][k]) for k in kids]
        idx = list(cell)
        targets = []
        weights = []
        for gen in hull.generators:
            p = gen.probabilities
            drop = f.values[m - 1, idx] - f.values[m, idx]
            targets.append(float(drop @ p[idx]))
            weights.append([p[kc].sum() for kc in kid_cells])
        targets = np.array(targets)
        weights = np.array(weights)
        k = len(kid_cells)
        centre = np.full(k, 3.0)
        radius = 3.0
        best = np.inf
        for _ in range(rounds):
            axes = [
                np.clip(np.linspace(c - radius, c + radius, steps), 0.0, None)
                for c in centre
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            gamma = np.stack([m_.ravel() for m_ in mesh], axis=1)
            residual = np.abs(gamma @ weights.T - targets).max(axis=1)
            i = int(residual.argmin())
            best = float(residual[i])
            centre = gamma[i]
            radius *= 0.4
        worst = max(worst, best)
    return worst


class TestAlphaCoefficient:
    @pytest.fixture
    def half_jump(self):
        space = build_space(2, [[(0, 1)], [(0,), (1,)]])
        asset = AdaptedProcess(space, [[100.0, 100.0], [50.0, 150.0]])
        poly = MartingalePolytope(space, [asset])
        xi0 = np.array([0.5, 1.5])  # increments (-0.5, +0.5)
        return space, poly, xi0

    def test_formula_and_scan(self, half_jump):
        space, poly, xi0 = half_jump
        alpha = alpha_coefficient(space, poly, xi0, 1, np.array([0.8, 1.2]))
        assert alpha == pytest.approx(0.4)
        # verification: 1.2 <= 1 + 0.4 * 0.5

    def test_unit_ratio_gives_zero(self, half_jump):
        space, poly, xi0 = half_jump
        assert alpha_coefficient(space, poly, xi0, 1, np.ones(2)) == pytest.approx(0.0)

    def test_scan_failure_detected(self, half_jump):
        space, poly, xi0 = half_jump
        with pytest.raises(IncompletenessDetected):
            alpha_coefficient(space, poly, xi0, 1, np.array([0.8, 1.3]))

    def test_messages_print_plain_numbers(self, half_jump):
        space, poly, xi0 = half_jump
        with pytest.raises(IncompletenessDetected) as scan:
            alpha_coefficient(space, poly, xi0, 1, np.array([0.8, 1.3]))
        with pytest.raises(IncompletenessDetected) as flat:
            alpha_coefficient(space, poly, np.ones(2), 1, np.array([1.25, 0.5]))
        assert "ratio 1.3 > bound 1.2" in str(scan.value)
        assert "(1.25)" in str(flat.value)
        for err in (scan, flat):
            assert "float64" not in str(err.value)

    def test_bound_claim_has_unit_step_expectation(self):
        rng = np.random.default_rng(109)
        from superhedge import increment_process

        for _ in range(10):
            space, asset, poly, xi0 = complete_polytope(rng)
            f = random_supermartingale(rng, space, poly, shift=1.0)
            increments = increment_process(space, poly, xi0)
            for n in range(1, space.horizon + 1):
                ratio = f.values[n] / f.values[n - 1]
                sup = poly.cond_exp_sup(ratio, 0).values[0]
                alpha = alpha_coefficient(space, poly, xi0, n, ratio / sup)
                d_row = np.empty(space.outcome_count)
                for c, cell in enumerate(space.cells[n]):
                    d_row[list(cell)] = increments[n - 1][c]
                claim = 1.0 + alpha * d_row
                assert claim.min() >= -1e-9
                for v in closure_vertices(poly):
                    for c, cell in enumerate(space.cells[n - 1]):
                        idx = list(cell)
                        mass = v[idx].sum()
                        if mass > 1e-12:
                            cond = (claim[idx] @ v[idx]) / mass
                            assert cond == pytest.approx(1.0, abs=1e-9)


class TestCompleteDecomposition:
    def test_martingale_agrees_with_witness_route(self, binomial):
        space, asset, poly = binomial
        xi0 = asset.values[1] / 100.0
        f = AdaptedProcess(space, asset.values / 10.0)  # a martingale
        dec_c = optional_decomposition_complete(space, poly, xi0, f)
        dec_w = local_regular_witness(space, poly, f)
        assert_valid(space, poly, f, dec_c)
        assert_valid(space, poly, f, dec_w)
        # both routes certify local regularity; expectations of g agree
        ref = poly.interior_measure
        for m in range(space.horizon + 1):
            assert ref @ dec_c.compensator.values[m] == pytest.approx(
                ref @ dec_w.compensator.values[m], abs=1e-9
            )

    def test_ess_sup_of_call_payoff(self, binomial):
        space, asset, poly = binomial
        payoff = np.maximum(asset.values[1] - 90.0, 0.0)
        f = ess_sup_process(space, poly, payoff)
        dec = optional_decomposition_complete(space, poly, asset.values[1] / 100.0, f)
        assert_valid(space, poly, f, dec)
        assert dec.martingale.values[0, 0] == pytest.approx(sup_expectation(space, poly, payoff))

    def test_constant_process(self, binomial):
        space, asset, poly = binomial
        f = AdaptedProcess(space, np.full((2, 2), 4.0))
        dec = optional_decomposition_complete(space, poly, asset.values[1] / 100.0, f)
        assert np.allclose(dec.compensator.values, 0.0)
        assert np.allclose(dec.martingale.values, 4.0)

    def test_step_claims_dominate_shifted_ratio(self):
        rng = np.random.default_rng(211)
        for _ in range(10):
            space, asset, poly, xi0 = complete_polytope(rng)
            f = random_supermartingale(rng, space, poly)
            dec = optional_decomposition_complete(space, poly, xi0, f)
            shifted = f.values + dec.shift
            for n, claim in enumerate(dec.step_claims, start=1):
                ratio = shifted[n] / shifted[n - 1]
                assert (claim - ratio).min() >= -1e-9

    def test_witness_equivalence_on_complete_sets(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            space, asset, poly, xi0 = complete_polytope(rng)
            f = random_supermartingale(rng, space, poly)
            dec_c = optional_decomposition_complete(space, poly, xi0, f)
            dec_w = local_regular_witness(space, poly, f)
            assert_valid(space, poly, f, dec_c)
            assert_valid(space, poly, f, dec_w)
            # expectations pin both routes: E M_m = f_0 and E f_m + E g_m = f_0
            f0 = f.values[0, 0]
            q = poly.interior_measure
            for dec in (dec_c, dec_w):
                for m in range(space.horizon + 1):
                    assert q @ dec.martingale.values[m] == pytest.approx(f0, abs=1e-8)
                    assert q @ f.values[m] + q @ dec.compensator.values[m] == pytest.approx(
                        f0, abs=1e-8
                    )

    def test_shift_preserves_expected_compensator(self, binomial):
        # the ratio construction is not pathwise shift invariant, but the
        # expected compensator is pinned by E g_m = f_0 - E f_m
        space, asset, poly = binomial
        xi0 = asset.values[1] / 100.0
        f = AdaptedProcess(space, [[12.0, 12.0], [20.0, 0.0]])
        shifted = AdaptedProcess(space, f.values + 5.0)
        g1 = optional_decomposition_complete(space, poly, xi0, f).compensator.values
        g2 = optional_decomposition_complete(space, poly, xi0, shifted).compensator.values
        q = poly.interior_measure
        for m in range(2):
            assert q @ g1[m] == pytest.approx(q @ g2[m], abs=1e-9)

    def test_normalizers_come_from_one_induction(self, monkeypatch):
        """The super-martingale guard takes one level of the induction per
        step, and every step's normalizer comes from one more induction over
        the stack of step ratios: 2N one-step sups in all."""
        calls = []
        one_step_sups = measures._one_step_sups

        def counted(*args):
            calls.append(args)
            return one_step_sups(*args)

        monkeypatch.setattr(measures, "_one_step_sups", counted)
        rng = np.random.default_rng(241)
        horizons = []
        for _ in range(10):
            space, _, poly, xi0 = complete_polytope(rng)
            f = random_supermartingale(rng, space, poly)
            calls.clear()
            optional_decomposition_complete(space, poly, xi0, f)
            assert len(calls) == 2 * space.horizon
            horizons.append(space.horizon)
        assert max(horizons) > 1


def _assert_full_superhedge(space, poly, claim):
    result = fair_price_full(space, poly, claim)
    strategy, _, hedged = superhedge(space, poly, claim, price_mode="full")
    capital = strategy_capital(strategy).values
    assert result.witness_bound.ok and hedged.price == capital[0, 0] == result.price
    assert verify_self_financing(strategy).ok
    assert (capital[-1] - claim).min() >= -1e-9 * (1.0 + np.abs(claim).max())


def test_one_asset_polytope_witness_solves_no_lp(lp_calls):
    """One-asset trees with flat children and complete polytopes decompose
    their super-martingales and claim envelopes, and price and superhedge
    the claims, without an LP."""
    rng = np.random.default_rng(307)
    cases = []
    for _ in range(10):
        space, _, poly = random_market_tree(rng, max_leaves=14, branching=(2, 4), flat_prob=0.5)
        cases.append((space, poly, random_supermartingale(rng, space, poly)))
        space, _, poly, _ = complete_polytope(rng)
        cases.append((space, poly, random_supermartingale(rng, space, poly)))
    lp_calls.clear()
    for space, poly, f in cases:
        assert_valid(space, poly, f, local_regular_witness(space, poly, f))
        claim = generic_claim(rng, space)
        envelope = ess_sup_process(space, poly, claim)
        assert_valid(space, poly, envelope, local_regular_witness(space, poly, envelope))
        _assert_full_superhedge(space, poly, claim)
    assert len(lp_calls) == 0


@pytest.mark.parametrize("steps", [2, 3])
def test_complete_two_asset_trinomial_solves_no_lp(lp_calls, steps):
    """On a complete two-asset trinomial the projection replicates every
    drop of a claim's envelope, so its witness and its full superhedge run
    without an LP."""
    rng = np.random.default_rng(311 + steps)
    space, poly = trinomial_two_asset(rng, steps)
    basket = 0.5 * (poly.assets[0].values[-1] + poly.assets[1].values[-1])
    claims = [np.maximum(basket - k, 0.0) for k in (95.0, 100.0, 105.0)]
    lp_calls.clear()
    for claim in claims:
        envelope = ess_sup_process(space, poly, claim)
        assert_valid(space, poly, envelope, local_regular_witness(space, poly, envelope))
        _assert_full_superhedge(space, poly, claim)
    assert len(lp_calls) == 0


HULL_KINDS = ["random", "compliant", "single generator"]


def _hull_instance(rng, kind):
    """A random space, a hull of the given kind on it and a super-martingale
    for the hull.  A compliant hull gets the envelope of a claim that is a
    multiple of a cellwise unit claim half of the time, and so decomposes;
    the other hulls get a random super-martingale."""
    space = random_space(rng, min_outcomes=3)
    if kind == "single generator":
        hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
    elif kind == "random":
        hull = random_hull(rng, space, k=int(rng.integers(2, 5)))
    else:
        hull = compliant_hull(rng, space, k=int(rng.integers(2, 5)))
        if rng.random() < 0.5:
            xi = cellwise_unit_claim(rng, space, hull) * rng.uniform(0.5, 2.0)
        else:
            xi = rng.uniform(0.0, 3.0, size=space.outcome_count)
        return space, hull, ess_sup_process(space, hull, xi)
    return space, hull, random_supermartingale(rng, space, hull)


def _witness_or_infeasible(witness, space, mset, f):
    try:
        return witness(space, mset, f)
    except Infeasible as e:
        return e


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(HULL_KINDS))
def test_hull_witness_matches_per_cell_lp(seed, kind):
    """Forced cells in closed form plus one block LP per step reach the
    verdict of one LP per cell, raise for the same time and cell, and
    otherwise give a valid decomposition whose sum over each cell's
    children is the LP's."""
    rng = np.random.default_rng(seed)
    space, hull, f = _hull_instance(rng, kind)
    got = _witness_or_infeasible(local_regular_witness, space, hull, f)
    want = _witness_or_infeasible(local_regular_witness_lp, space, hull, f)
    if isinstance(want, Infeasible):
        assert isinstance(got, Infeasible)
        assert (got.time, got.cell) == (want.time, want.cell)
        return
    assert not isinstance(got, Infeasible)
    assert_valid(space, hull, f, got)
    scale = 1.0 + float(np.abs(f.values).max())
    ours, lp = (np.diff(d.compensator.values, axis=0) for d in (got, want))
    for m in range(1, space.horizon + 1):
        reps = cell_reps(space, m)
        parent = space.atom_index[m - 1][reps]
        sums = [np.bincount(parent, weights=steps[m - 1][reps]) for steps in (ours, lp)]
        assert np.abs(sums[0] - sums[1]).max() <= 1e-9 * scale


class TestForcedCells:
    """A cell with one child takes the drop's conditional mean, no LP.  At
    step 2 of this space cells 0 and 2 are forced and cell 1 branches."""

    SPACE = build_space(6, [[tuple(range(6))], [(0, 1), (2, 3), (4, 5)],
                            [(0, 1), (2,), (3,), (4, 5)]])
    HULL = GeneratorHull(SPACE, [[0.1, 0.2, 0.1, 0.2, 0.2, 0.2],
                                 [0.2, 0.1, 0.2, 0.1, 0.1, 0.3]])

    @pytest.mark.parametrize("disagree, branch_short, cell",
                             [((0, 2), False, 0), ((2,), False, 2), ((2,), True, 1), ((0,), True, 0)])
    def test_the_lowest_failing_cell_raises(self, disagree, branch_short, cell):
        """The forced cells in disagree carry the drop -0.6, at odds with
        every nonnegative increment: a drop is one value per cell, so on a
        forced cell the generators cannot disagree on its mean, only find
        it negative.  The drop (1, -1) on the branching cell needs a
        negative increment under these masses.  With nothing to compensate
        at step 1, the compensator raises for the lowest failing cell of
        step 2, as the per-cell LP does."""
        drop = np.zeros(6)
        for c in disagree:
            drop[list(self.SPACE.cells[1][c])] = -0.6
        if branch_short:
            drop[[2, 3]] = [1.0, -1.0]
        # the drops of steps 1 and 2, read on the cells of times 1 and 2
        num = self.SPACE.numbering
        drops = np.r_[np.zeros(6), drop][num.firsts[num.offsets[1]:] - 6]
        with pytest.raises(Infeasible) as ours:
            self.HULL.compensator(drops, 1.0)
        with pytest.raises(Infeasible) as lp:
            compensator_increments_lp(self.SPACE, self.HULL, drop, 1)
        assert (ours.value.time, ours.value.cell) == (lp.value.time, lp.value.cell) == (2, cell)

    def test_mean_just_below_zero_gives_zero(self):
        """A forced drop of minus half the tolerance passes the
        super-martingale test, so it decomposes, with gamma 0 there; the
        per-cell LP, which judges in mass units, rejected it."""
        f = np.array([[2.0] * 6, [1.5, 1.5, 1.0, 1.0, 0.5, 0.5], [1.5, 1.5, 0.9, 0.8, 0.5, 0.5]])
        f[2, :2] += 0.5 * EQ_TOL * (1.0 + np.abs(f).max())
        f = AdaptedProcess(self.SPACE, f)
        dec = local_regular_witness(self.SPACE, self.HULL, f)
        assert_valid(self.SPACE, self.HULL, f, dec)
        assert np.array_equal(np.diff(dec.compensator.values, axis=0)[1, :2], [0.0, 0.0])
        with pytest.raises(Infeasible):
            local_regular_witness_lp(self.SPACE, self.HULL, f)


def test_hull_witness_solves_one_lp(lp_calls):
    """A hull witness that exists solves exactly one LP, for every step at
    once, when some cell branches and the hull has two generators or more;
    with one generator, or on a space where no cell branches, it solves
    none."""
    rng = np.random.default_rng(331)
    chain = build_space(3, [[(0, 1, 2)]] * 3)
    counts = {True: [], False: []}
    for i in range(40):
        space = chain if i % 5 == 4 else random_space(rng, min_outcomes=3)
        if i % 4:
            hull = compliant_hull(rng, space, k=int(rng.integers(2, 5)))
            xi = cellwise_unit_claim(rng, space, hull) * rng.uniform(0.5, 2.0)
            f = ess_sup_process(space, hull, xi)
        else:
            hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
            f = random_supermartingale(rng, space, hull)
        lp_calls.clear()
        assert_valid(space, hull, f, local_regular_witness(space, hull, f))
        branching = hull.k > 1 and any(len(kids) > 1 for level in space.children
                                       for kids in level)
        counts[branching].append(len(lp_calls))
    assert counts[True] and set(counts[True]) == {1}
    assert counts[False] and set(counts[False]) == {0}


def test_hull_witness_names_a_later_step_as_the_per_cell_lp():
    """Where the first cell without a compensator increment lies past the
    first step, the one block LP of the whole process names the same
    (time, cell) as one LP per cell, step by step."""
    rng = np.random.default_rng(337)
    later = 0
    for _ in range(120):
        space, hull, f = _hull_instance(rng, "random")
        want = _witness_or_infeasible(local_regular_witness_lp, space, hull, f)
        if isinstance(want, Infeasible) and want.time > 1:
            got = _witness_or_infeasible(local_regular_witness, space, hull, f)
            assert isinstance(got, Infeasible)
            assert (got.time, got.cell) == (want.time, want.cell)
            later += 1
    assert later >= 10


class TestHullDecompositionIff:
    def test_ess_sup_witness_iff_equal_expectations(self):
        """On density-compliant hulls the envelope decomposes exactly when
        the generator expectations of the claim coincide."""
        rng = np.random.default_rng(301)
        equal_seen = unequal_seen = 0
        for _ in range(40):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=2)
            if rng.random() < 0.5:
                xi = cellwise_unit_claim(rng, space, hull) * rng.uniform(0.5, 2.0)
            else:
                xi = rng.uniform(0.0, 3.0, size=space.outcome_count)
            exps = [g.probabilities @ xi for g in hull.generators]
            gap = max(exps) - min(exps)
            if gap <= 1e-9:
                equal_seen += 1
                proc = ess_sup_process(space, hull, xi)
                dec = local_regular_witness(space, hull, proc)
                assert_valid(space, hull, proc, dec)
            elif gap > 1e-6:
                unequal_seen += 1
                proc = ess_sup_process(space, hull, xi)
                with pytest.raises(Infeasible):
                    local_regular_witness(space, hull, proc)
        assert equal_seen > 0 and unequal_seen > 0


def test_validate_decomposition_flags_bad_input(binary_space):
    from superhedge import Decomposition

    hull = GeneratorHull(binary_space, [[0.5, 0.5]])
    f = AdaptedProcess(binary_space, [[1.0, 1.0], [1.5, 0.5]])
    bad = Decomposition(
        martingale=f,
        compensator=AdaptedProcess(binary_space, np.full((2, 2), 1.0)),
    )
    assert not validate_decomposition(binary_space, hull, f, bad).ok


@pytest.mark.parametrize("scale_by", [1e-6, 1.0, 1e6])
def test_initial_compensator_is_judged_in_the_process_units(bound_tree, scale_by):
    """validate_decomposition judges g_0 at EQ_TOL times the process scale,
    as it judges the reconstruction and the steps: the witness
    decomposition of a call's envelope, the process and its decomposition
    scaled by 1e-6, 1 or 1e6 and g_0 moved to one ulp of the scaled
    process's scale, is accepted at every scale.  At 1e6 that ulp, about
    1e-8, lies above an absolute EQ_TOL."""
    from superhedge import Decomposition

    space, asset, poly = bound_tree
    f = ess_sup_process(space, poly, np.maximum(asset.values[-1] - 90.0, 0.0))
    dec = local_regular_witness(space, poly, f)
    scaled = AdaptedProcess.on_cells(space, scale_by * f.cells)
    g = scale_by * dec.compensator.cells
    g[0] = np.spacing(1.0 + np.abs(scaled.cells).max())
    moved = Decomposition(martingale=AdaptedProcess.on_cells(space, scale_by * dec.martingale.cells),
                          compensator=AdaptedProcess.on_cells(space, g))
    report = validate_decomposition(space, poly, scaled, moved)
    assert report.initial_compensator == g[0]
    assert report.ok, report.error()
