from math import comb

import numpy as np
import pytest

from superhedge import measures
from superhedge import (
    GeneratorHull,
    InvalidMeasure,
    MartingalePolytope,
    Measure,
    NoEquivalentMartingaleMeasure,
    NotUnitClaim,
    ValidationError,
    change_of_measure_conditional,
    completion_measures,
    conditional_expectation,
    ess_sup_conditional,
    ess_sup_process,
    increment_process,
    is_complete,
    is_martingale,
    is_supermartingale,
    is_unit_claim,
    optional_decomposition_complete,
    restriction_metric,
    sup_expectation,
    unit_claim_martingale,
    validate_decomposition,
)
from superhedge.spaces import AdaptedProcess, at_cells, build_space

from gen import (
    complete_polytope,
    generic_claim,
    random_hull,
    random_market_tree,
    random_measure,
    random_space,
    random_supermartingale,
)


def brute_condexp(space, p, x, t):
    """Independent per-cell summation oracle."""
    out = np.empty(space.outcome_count)
    for cell in space.cells[t]:
        idx = list(cell)
        out[idx] = sum(p[w] * x[w] for w in idx) / sum(p[w] for w in idx)
    return out


def test_measure_validation():
    Measure(np.array([0.5, 0.5]))
    with pytest.raises(InvalidMeasure):
        Measure(np.array([1.0, 0.0]))
    with pytest.raises(InvalidMeasure):
        Measure(np.array([0.6, 0.6]))


def test_measure_rejects_non_finite_entries():
    with pytest.raises(InvalidMeasure, match="must be finite"):
        Measure(np.array([0.5, np.nan]))


def test_polytope_over_a_non_finite_asset_is_a_validation_error(binary_space):
    with pytest.raises(ValidationError, match="must be finite"):
        MartingalePolytope(binary_space, [[[100.0, 100.0], [np.nan, 80.0]]])


NON_FINITE = [np.array([np.nan, 1.0]), np.array([1.0, np.inf])]


@pytest.mark.parametrize("claim", NON_FINITE)
@pytest.mark.parametrize("family", ["hull", "polytope"])
def test_unit_claim_test_rejects_non_finite_claims(binomial, two_generator_hull, family, claim):
    """A NaN or infinite claim is a validation error, not a verdict."""
    space, _, poly = binomial
    mset = two_generator_hull if family == "hull" else poly
    with pytest.raises(ValidationError, match="claim must be finite"):
        is_unit_claim(space, mset, claim)
    with pytest.raises(ValidationError, match="claim must be finite"):
        is_complete(space, mset, claim)


@pytest.mark.parametrize("claim", NON_FINITE)
def test_ess_sup_conditional_rejects_non_finite_claims(binomial, claim):
    space, _, poly = binomial
    with pytest.raises(ValidationError, match="claim must be finite"):
        ess_sup_conditional(space, poly, claim, 0)


@pytest.mark.parametrize("family", ["hull", "polytope"])
def test_ess_sups_reject_negative_claims(binomial, two_generator_hull, family):
    """A negative claim is the validation error fair_price_full raises."""
    space, _, poly = binomial
    mset = two_generator_hull if family == "hull" else poly
    with pytest.raises(ValidationError, match="claim must be nonnegative"):
        ess_sup_conditional(space, mset, [1.0, -0.5], 0)
    with pytest.raises(ValidationError, match="claim must be nonnegative"):
        ess_sup_process(space, mset, [1.0, -0.5])


@pytest.mark.parametrize("conditional", ["plain", "change of measure"])
@pytest.mark.parametrize("claim, t, error, match", [
    (NON_FINITE[0], 0, ValidationError, "claim must be finite"),
    (NON_FINITE[1], 1, ValidationError, "claim must be finite"),
    (np.ones(2), -1, IndexError, r"time -1 out of range 0\.\.1"),
    (np.ones(2), 2, IndexError, r"time 2 out of range 0\.\.1"),
])
def test_conditional_expectations_check_claim_and_time(binary_space, conditional, claim, t,
                                                       error, match):
    """Both conditional expectations reject a non-finite or mis-shaped
    claim and a time outside 0..N, as restriction_metric does."""
    P, Q = [0.4, 0.6], [0.7, 0.3]
    with pytest.raises(error, match=match):
        if conditional == "plain":
            conditional_expectation(binary_space, P, claim, t)
        else:
            change_of_measure_conditional(binary_space, P, Q, claim, t)


@pytest.mark.parametrize("P, Q, claim, match", [
    ([0.4, 0.6], [0.7, 0.3], np.ones(3), "claim length"),
    ([0.4, 0.6], [0.2, 0.3, 0.5], np.ones(2), "measure length"),
])
def test_change_of_measure_checks_lengths(binary_space, P, Q, claim, match):
    with pytest.raises(ValidationError, match=match):
        change_of_measure_conditional(binary_space, P, Q, claim, 0)


def test_measure_errors_print_plain_numbers():
    with pytest.raises(InvalidMeasure, match=r"\(min=-0\.25\)") as negative:
        Measure(np.array([0.5, -0.25, 0.75]))
    with pytest.raises(InvalidMeasure, match="sum to 1.2, not 1") as total:
        Measure(np.array([0.6, 0.6]))
    for err in (negative, total):
        assert "float64" not in str(err.value)


class TestConditionalExpectation:
    def test_constant_fixed_point(self, binary_space):
        row = conditional_expectation(binary_space, [0.3, 0.7], np.full(2, 5.0), 1)
        assert np.allclose(row, 5.0)

    def test_symmetric_average(self, binary_space):
        row = conditional_expectation(binary_space, [0.5, 0.5], [2.0, 4.0], 0)
        assert np.allclose(row, 3.0)

    def test_weighted_average(self, binary_space):
        # oracle: 0.8 * 2 + 0.2 * 4 = 2.4
        row = conditional_expectation(binary_space, [0.8, 0.2], [2.0, 4.0], 0)
        assert np.allclose(row, 2.4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            space = random_space(rng)
            p = random_measure(rng, space.outcome_count)
            x = rng.normal(size=space.outcome_count)
            for t in range(space.horizon + 1):
                got = conditional_expectation(space, p, x, t)
                assert np.allclose(got, brute_condexp(space, p, x, t), atol=1e-12)


class TestChangeOfMeasure:
    def test_identity_density(self, binary_space):
        p = [0.6, 0.4]
        x = [1.0, 5.0]
        direct = conditional_expectation(binary_space, p, x, 0)
        via = change_of_measure_conditional(binary_space, p, p, x, 0)
        assert np.allclose(direct, via)

    def test_binary_example(self, binary_space):
        row = change_of_measure_conditional(binary_space, [0.8, 0.2], [0.5, 0.5], [2.0, 4.0], 0)
        assert np.allclose(row, 2.4)

    def test_constant_claim(self, binary_space):
        row = change_of_measure_conditional(binary_space, [0.8, 0.2], [0.5, 0.5], [7.0, 7.0], 1)
        assert np.allclose(row, 7.0)

    def test_agrees_with_direct_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            space = random_space(rng)
            p1 = random_measure(rng, space.outcome_count)
            p2 = random_measure(rng, space.outcome_count)
            x = rng.normal(size=space.outcome_count)
            for t in range(space.horizon + 1):
                direct = conditional_expectation(space, p1, x, t)
                via = change_of_measure_conditional(space, p1, p2, x, t)
                assert np.allclose(direct, via, atol=1e-9)


class TestEssSup:
    def test_singleton_hull_is_plain(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.7, 0.3]])
        x = np.array([2.0, 0.0])
        row = ess_sup_conditional(binary_space, hull, x, 0)
        assert np.allclose(row.values, conditional_expectation(binary_space, [0.7, 0.3], x, 0))

    def test_two_generator_maximum(self, binary_space, two_generator_hull):
        # enumeration: max(1.0, 1.6) = 1.6
        row = ess_sup_conditional(binary_space, two_generator_hull, [2.0, 0.0], 0)
        assert np.allclose(row.values, 1.6)
        assert row.attained == (1,)

    def test_constant_claim(self, binary_space, two_generator_hull):
        row = ess_sup_conditional(binary_space, two_generator_hull, np.full(2, 3.0), 1)
        assert np.allclose(row.values, 3.0)

    def test_dominates_every_generator(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            space = random_space(rng)
            hull = GeneratorHull(
                space, [random_measure(rng, space.outcome_count) for _ in range(3)]
            )
            x = rng.uniform(0, 4, size=space.outcome_count)
            for t in range(space.horizon + 1):
                sup = ess_sup_conditional(space, hull, x, t).values
                for g in hull.generators:
                    row = conditional_expectation(space, g, x, t)
                    assert (sup - row).min() > -1e-12

    def test_polytope_attains_and_dominates(self, binomial):
        space, asset, poly = binomial
        row = ess_sup_conditional(space, poly, [20.0, 0.0], 0)
        assert np.allclose(row.values, 10.0)  # unique measure (0.5, 0.5)


class TestNodeLocalSup:
    """The polytope sup is a backward induction over one-step kernels."""

    def test_one_asset_verdicts_sups_and_envelopes_run_no_lp(self, lp_calls):
        rng = np.random.default_rng(11)
        space, _, poly, xi0 = complete_polytope(rng)
        f = random_supermartingale(rng, space, poly)
        claim = generic_claim(rng, space)
        lp_calls.clear()
        assert is_supermartingale(space, poly, f).ok
        envelope = ess_sup_process(space, poly, claim)
        assert sup_expectation(space, poly, claim) == envelope.values[0, 0]
        dec = optional_decomposition_complete(space, poly, xi0, f)
        assert validate_decomposition(space, poly, f, dec).ok
        assert len(lp_calls) == 0

    def test_binomial_kernel_and_flat_child(self):
        # one node, children moving -20, 0 and +30: the sup is the best of
        # the flat child's point mass and the straddling pair (0.6, 0.4)
        space = build_space(3, [[(0, 1, 2)], [(0,), (1,), (2,)]])
        poly = MartingalePolytope(space, [[[100.0] * 3, [80.0, 100.0, 130.0]]])
        pair = poly.cond_exp_sup([10.0, 0.0, 5.0], 0)
        assert pair.values[0] == pytest.approx(8.0)
        assert np.allclose(pair.attained[0], [0.6, 0.0, 0.4])
        point = poly.cond_exp_sup([10.0, 9.0, 5.0], 0)
        assert point.values[0] == pytest.approx(9.0)
        assert np.array_equal(point.attained[0], [0.0, 1.0, 0.0])

    def test_terminal_cell_mass_sits_on_its_largest_outcome(self):
        space = build_space(3, [[(0, 1, 2)], [(0, 1), (2,)]])
        poly = MartingalePolytope(space, [[[100.0] * 3, [90.0, 90.0, 110.0]]])
        row = poly.cond_exp_sup([1.0, 3.0, 2.0], 1)
        assert np.array_equal(row.values, [3.0, 3.0, 2.0])
        assert [list(a) for a in row.attained] == [[0.0, 1.0], [1.0]]

    def test_a_stack_of_claims_takes_each_claims_own_rows(self):
        """ess_sup_cells(X)[i] is ess_sup_cells(X[i]) bit for bit, on hulls,
        one-asset polytopes and a two-asset node with more candidate
        supports than _MAX_SUPPORTS, whose sups come from one LP each."""
        rng = np.random.default_rng(2401)
        families = []
        for _ in range(15):
            space = random_space(rng, 10, 4)
            families.append((space, random_hull(rng, space)))
            space, _, poly = random_market_tree(rng, max_horizon=4)
            families.append((space, poly))
        kids = 12
        assert sum(comb(kids, s) for s in (1, 2, 3)) > measures._MAX_SUPPORTS
        space = build_space(kids, [[tuple(range(kids))], [(w,) for w in range(kids)]])
        angle = np.linspace(0.0, 2.0 * np.pi, kids, endpoint=False) + rng.uniform(0.0, 0.2, kids)
        radius = rng.uniform(0.5, 1.5, kids)
        assets = [[np.full(kids, s0), s0 + step * radius * f(angle)]
                  for s0, step, f in ((100.0, 20.0, np.cos), (50.0, 10.0, np.sin))]
        families.append((space, MartingalePolytope(space, assets)))
        for space, mset in families:
            claims = rng.uniform(0.0, 3.0, size=(4, space.outcome_count))
            claims[1] = claims[0]
            ids = space.numbering.ids
            stacked = mset.ess_sup_cells(claims)[:, ids]
            assert stacked.shape == (4, space.horizon + 1, space.outcome_count)
            for claim, rows in zip(claims, stacked):
                assert rows.tobytes() == mset.ess_sup_cells(claim)[ids].tobytes()


class TestFamilyContract:
    """gaps and contains_two_point, the family-specific half of MeasureSet."""

    def test_step_gap_labels_and_shape(self, binomial, two_generator_hull):
        space, asset, poly = binomial
        cells = at_cells(space, np.vstack([np.full(2, 100.0), asset.values[1]]))
        hull_labels, hull_gaps = two_generator_hull.gaps(cells, equality=False)
        assert hull_labels == ("generator 0", "generator 1")
        assert poly.gaps(cells, equality=False)[0] == ("lp max",)
        assert poly.gaps(cells, equality=True)[0] == ("node residual",)
        assert hull_gaps.shape == (2, space.n_cells(0))

    def test_hull_gaps_are_generator_excesses(self, binary_space, two_generator_hull):
        cells = at_cells(binary_space, np.array([[1.2, 1.2], [2.0, 0.0]]))
        _, signed = two_generator_hull.gaps(cells, equality=False)
        assert signed[:, 0] == pytest.approx([-0.2, 0.4])
        _, absolute = two_generator_hull.gaps(cells, equality=True)
        assert absolute[:, 0] == pytest.approx([0.2, 0.4])

    def test_polytope_gaps_vanish_on_martingale(self, binomial):
        space, asset, poly = binomial
        for equality in (False, True):
            _, (gaps,) = poly.gaps(asset.cells, equality)
            assert np.abs(gaps).max() <= 1e-9
        _, (gaps,) = poly.gaps(at_cells(space, asset.values - [[1.0], [0.0]]), True)
        assert gaps.min() > 0.5

    def test_contains_two_point(self, binomial, two_generator_hull):
        _, _, poly = binomial
        ones, zeros = np.ones(2, dtype=int), np.zeros(2, dtype=int)
        assert poly.contains_two_point(1, zeros, ones, [0.5, 0.9]).tolist() == [True, False]
        # the generators' masses on cell 0 are 0.5 and 0.8: the interval
        # holds (0.6, 0.4) and rejects (0.4, 0.6), either way round
        held = two_generator_hull.contains_two_point(1, zeros, ones, [0.6, 0.4])
        assert held.tolist() == [True, False]
        held = two_generator_hull.contains_two_point(1, ones, zeros, [0.4, 0.6])
        assert held.tolist() == [True, False]

    def test_hull_holds_a_pair_at_the_end_of_its_interval(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.3, 0.7]])
        held = hull.contains_two_point(1, np.array([0, 1, 0]), np.array([1, 0, 1]),
                                       [0.3, 0.7, 0.3 + 1e-6])
        assert held.tolist() == [True, True, False]
        # the unit claim's one completion measure is the generator itself
        report = is_complete(binary_space, hull, [2.0, 4.0 / 7.0])
        assert report.complete and report.tested == 1

    def test_hull_holds_no_pair_on_more_than_two_cells(self):
        space = build_space(3, [[(0, 1, 2)], [(0,), (1,), (2,)]])
        hull = GeneratorHull(space, [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])
        i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
        assert not hull.contains_two_point(1, i, j, [0.2, 0.5, 0.5]).any()
        assert hull.contains_two_point(1, i[:0], j[:0], []).shape == (0,)


class TestRestrictionMetric:
    def test_same_measure(self, binary_space):
        assert restriction_metric(binary_space, [0.5, 0.5], [0.5, 0.5], 1) == 0.0

    def test_trivial_time_zero(self, binary_space):
        assert restriction_metric(binary_space, [0.5, 0.5], [0.8, 0.2], 0) == 0.0

    def test_binary_variation(self, binary_space):
        assert restriction_metric(binary_space, [0.5, 0.5], [0.8, 0.2], 1) == pytest.approx(0.6)


class TestUnitClaims:
    def test_constant_one(self, two_generator_hull, binary_space):
        assert is_unit_claim(binary_space, two_generator_hull, np.ones(2))

    def test_asset_ratio_on_polytope(self, binomial):
        space, asset, poly = binomial
        assert is_unit_claim(space, poly, asset.values[1] / 100.0)

    def test_negative_entry(self, binary_space, two_generator_hull, binomial):
        assert not is_unit_claim(binary_space, two_generator_hull, np.array([2.1, -0.1]))
        # expectation one under the binomial's only martingale measure
        space, _, poly = binomial
        with pytest.raises(NotUnitClaim):
            measures.unit_claim_rows(space, poly, np.array([2.1, -0.1]))

    def test_second_look_returns_the_rows(self, gaps_calls):
        """A hull claim whose pass from one exceeds the tolerance by about
        30%, while each generator's expectation is one and the rows from
        E(xi) are the same under both, within tolerance: the rows come back
        from the second look, after three gaps calls."""
        space = build_space(4, [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]])
        hull = GeneratorHull(space, [[0.28, 0.17, 0.2, 0.35], [0.18, 0.51, 0.2, 0.11]])
        xi = 1.0 + 5.5e-9 * np.array([1.3, 0.2, -2.2, -0.7])
        rows = measures.unit_claim_rows(space, hull, xi)
        assert len(gaps_calls) == 3
        want = [conditional_expectation(space, hull.reference(), xi, t) for t in range(3)]
        assert np.array_equal(rows, want)

    def test_passing_rows_make_one_gaps_call(self, gaps_calls, monkeypatch):
        """A unit claim's rows come from one gaps call, on the rows started
        from one, and is_unit_claim is not asked: on a compliant hull with a
        cellwise unit claim and on a complete polytope with its ratio claim."""
        from gen import cellwise_unit_claim, compliant_hull

        rng = np.random.default_rng(2502)
        space = random_space(rng, min_outcomes=3)
        hull = compliant_hull(rng, space, k=3)
        cases = [(space, hull, cellwise_unit_claim(rng, space, hull))]
        space, _, poly, xi0 = complete_polytope(rng)
        cases.append((space, poly, xi0))

        def not_asked(*args):
            raise AssertionError("is_unit_claim asked for a passing claim")

        monkeypatch.setattr(measures, "is_unit_claim", not_asked)
        for space, mset, xi in cases:
            gaps_calls.clear()
            rows = measures.unit_claim_rows(space, mset, xi)
            assert [(family, equality) for family, _, equality in gaps_calls] == [(mset, True)]
            started = np.vstack([np.ones(space.outcome_count), rows[1:], xi])
            assert np.array_equal(gaps_calls[0][1], started)
            assert np.array_equal(rows[0], conditional_expectation(space, mset.reference(), xi, 0))


class TestIncrements:
    def test_constant_claim_has_zero_increments(self, binomial):
        space, _, poly = binomial
        for d in increment_process(space, poly, np.ones(2)):
            assert np.allclose(d, 0.0)

    def test_binomial_ratio_claim(self, binomial):
        space, asset, poly = binomial
        (d1,) = increment_process(space, poly, asset.values[1] / 100.0)
        assert np.allclose(d1, [0.2, -0.2])

    def test_requires_unit_claim(self, binomial):
        space, _, poly = binomial
        with pytest.raises(NotUnitClaim):
            increment_process(space, poly, np.array([2.0, 0.5]))

    def test_increments_are_martingale_steps(self):
        rng = np.random.default_rng(21)
        from gen import cellwise_unit_claim, compliant_hull

        for _ in range(15):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=3)
            xi0 = cellwise_unit_claim(rng, space, hull)
            rows = unit_claim_martingale(space, hull, xi0).values
            for n in range(1, space.horizon + 1):
                for g in hull.generators:
                    back = conditional_expectation(space, g, rows[n], n - 1)
                    assert np.allclose(back, rows[n - 1], atol=1e-9)


class TestCompletion:
    def test_constant_claim_no_completion(self, binomial):
        space, _, poly = binomial
        assert completion_measures(space, poly, np.ones(2), 1) == []

    def test_binomial_completion_measure(self, binomial):
        space, asset, poly = binomial
        (cm,) = completion_measures(space, poly, asset.values[1] / 100.0, 1)
        # d = (+0.2, -0.2): mass 0.2 / 0.4 on the down atom, rest on the up atom
        assert cm.neg_atom == 1 and cm.pos_atom == 0
        assert np.allclose(cm.atom_probabilities, [0.5, 0.5])
        assert cm.atom_probabilities.sum() == pytest.approx(1.0)

    def test_support_at_most_two(self):
        rng = np.random.default_rng(31)
        from gen import complete_polytope

        for _ in range(10):
            space, asset, poly, xi0 = complete_polytope(rng)
            for n in range(1, space.horizon + 1):
                for cm in completion_measures(space, poly, xi0, n):
                    assert (cm.atom_probabilities > 0).sum() <= 2


class TestIsComplete:
    def test_strictly_positive_hull_incomplete(self):
        rng = np.random.default_rng(41)
        from gen import cellwise_unit_claim, compliant_hull

        found = 0
        for _ in range(10):
            space = random_space(rng, min_outcomes=4, min_horizon=2)
            hull = compliant_hull(rng, space, k=2)
            xi0 = cellwise_unit_claim(rng, space, hull)
            report = is_complete(space, hull, xi0)
            if report.tested:
                found += 1
                # completion measures vanish somewhere; a hull of strictly
                # positive measures contains no such restriction unless the
                # cell structure is degenerate (two cells only)
                if any(space.n_cells(n) > 2 for n in range(1, space.horizon + 1)):
                    assert not report.complete
        assert found > 0

    def test_binomial_polytope_complete(self, binomial):
        space, asset, poly = binomial
        report = is_complete(space, poly, asset.values[1] / 100.0)
        assert report.complete and report.tested == 1

    def test_constant_claim_vacuously_complete(self, binomial):
        space, _, poly = binomial
        report = is_complete(space, poly, np.ones(2))
        assert report.complete and report.tested == 0

    def test_structured_polytopes_complete(self):
        rng = np.random.default_rng(43)
        from gen import complete_polytope

        for _ in range(10):
            space, asset, poly, xi0 = complete_polytope(rng)
            assert is_complete(space, poly, xi0).complete

    def test_solves_no_lp(self, lp_calls):
        rng = np.random.default_rng(47)
        from gen import cellwise_unit_claim, compliant_hull

        space = build_space(4, [[(0, 1, 2, 3)], [(0, 1, 2, 3)], [(0, 1), (2, 3)],
                                [(0,), (1,), (2,), (3,)]])
        hull = compliant_hull(rng, space, k=3)
        hull_claim = cellwise_unit_claim(rng, space, hull)
        _, _, poly, poly_claim = complete_polytope(rng)
        lp_calls.clear()
        for mset, claim in ((hull, hull_claim), (poly, poly_claim)):
            assert is_complete(mset.space, mset, claim).tested
        assert len(lp_calls) == 0

    def test_two_period_binomial_incomplete(self):
        space = build_space(
            4,
            [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]],
        )
        values = np.array(
            [
                [100.0] * 4,
                [120.0, 120.0, 80.0, 80.0],
                [150.0, 100.0, 100.0, 60.0],
            ]
        )
        asset = AdaptedProcess(space, values)
        poly = MartingalePolytope(space, [asset])
        report = is_complete(space, poly, values[-1] / 100.0)
        assert not report.complete


def test_polytope_requires_equivalent_measure():
    space = build_space(2, [[(0, 1)], [(0,), (1,)]])
    rising = AdaptedProcess(space, [[100.0, 100.0], [120.0, 110.0]])
    with pytest.raises(NoEquivalentMartingaleMeasure):
        MartingalePolytope(space, [rising])


class TestAssetScales:
    """A second asset c times a martingale of the first asset's polytope:
    the interior member of that polytope makes both assets martingales, so
    every verdict must be the same whatever c is."""

    @staticmethod
    def _two_asset_tree(seed, c, branching):
        from gen import random_market_tree

        rng = np.random.default_rng(seed)
        space, asset, poly = random_market_tree(rng, branching=branching)
        claim = rng.uniform(50.0, 150.0, size=space.outcome_count)
        rows = [conditional_expectation(space, poly.interior_measure, claim, t)
                for t in range(space.horizon + 1)]
        return rng, space, MartingalePolytope(space, [asset, c * np.array(rows)])

    def test_asset_priced_far_above_another_has_an_equivalent_measure(self):
        for seed in range(20):
            _, _, poly = self._two_asset_tree(seed, 1e8, (2, 3))
            assert poly.interior_measure.min() > 0.0

    def test_asset_priced_far_below_another_keeps_its_martingales(self):
        """Holdings times the asset moves, each asset's holdings of order
        100 over its largest price, is a martingale for every member."""
        for seed in range(30):
            rng, space, poly = self._two_asset_tree(seed, 1e-8, (3, 4))
            N = space.horizon
            peak = np.array([np.abs(a.values).max() for a in poly.assets])[:, None]
            values = np.empty((N + 1, space.outcome_count))
            values[0] = rng.uniform(-10.0, 10.0)
            for m in range(1, N + 1):
                moves = np.array([a.values[m] - a.values[m - 1] for a in poly.assets])
                h = rng.normal(size=(len(poly.assets), space.n_cells(m - 1))) * (100.0 / peak)
                values[m] = values[m - 1] + (h[:, space.atom_index[m - 1]] * moves).sum(axis=0)
            assert is_martingale(space, poly, values).ok, seed
