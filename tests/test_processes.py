import numpy as np
import pytest

from superhedge import (
    EQ_TOL,
    AdaptedProcess,
    GeneratorHull,
    KTerm,
    MartingalePolytope,
    MeasureDependent,
    NotNonincreasing,
    NotUnitClaim,
    ValidationError,
    build_space,
    class_k_supermartingale,
    conditional_expectation,
    ess_sup_process,
    is_martingale,
    is_supermartingale,
    k_representation,
    local_regular_witness,
    unit_claim_martingale,
)

from gen import cellwise_unit_claim, compliant_hull, random_measure, random_space, random_supermartingale


class TestVerdicts:
    def test_constant_process_is_martingale(self, binary_space, two_generator_hull):
        f = AdaptedProcess(binary_space, np.full((2, 2), 3.0))
        assert is_martingale(binary_space, two_generator_hull, f).ok
        assert is_supermartingale(binary_space, two_generator_hull, f).ok

    def test_strict_supermartingale(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.5, 0.5]])
        f = AdaptedProcess(binary_space, [[1.0, 1.0], [0.5, 0.5]])
        assert is_supermartingale(binary_space, hull, f).ok
        assert not is_martingale(binary_space, hull, f).ok

    def test_violation_reported_with_location(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.5, 0.5]])
        f = AdaptedProcess(binary_space, [[1.0, 1.0], [2.0, 2.0]])
        report = is_supermartingale(binary_space, hull, f)
        assert not report.ok
        assert report.violations[0].time == 1 and report.violations[0].cell == 0

    def test_raw_matrix_must_be_adapted(self, binary_space, two_generator_hull):
        from superhedge import NotAdapted

        with pytest.raises(NotAdapted):
            is_supermartingale(binary_space, two_generator_hull, [[1.0, 2.0], [1.0, 2.0]])

    def test_non_finite_process_is_rejected(self, binomial):
        from superhedge import NotAdapted

        space, _, poly = binomial
        with pytest.raises(NotAdapted, match="must be finite"):
            is_supermartingale(space, poly, [[np.nan, np.nan], [1.0, 1.0]])

    def test_tower_process_is_martingale(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            space = random_space(rng)
            p = random_measure(rng, space.outcome_count)
            hull = GeneratorHull(space, [p])
            terminal = rng.uniform(0, 5, size=space.outcome_count)
            rows = [conditional_expectation(space, p, terminal, t) for t in range(space.horizon + 1)]
            f = AdaptedProcess(space, np.array(rows))
            assert is_martingale(space, hull, f).ok

    def test_asset_is_polytope_martingale(self, binomial):
        space, asset, poly = binomial
        assert is_martingale(space, poly, asset).ok

    def test_polytope_supermartingale_lp_check(self, binomial):
        space, asset, poly = binomial
        f = AdaptedProcess(space, [[11.0, 11.0], [20.0, 0.0]])
        assert is_supermartingale(space, poly, f).ok
        g = AdaptedProcess(space, [[9.0, 9.0], [20.0, 0.0]])
        assert not is_supermartingale(space, poly, g).ok


    def test_conditional_miss_on_a_light_node_fails(self):
        """On a 1,024-outcome binomial tree every time-9 node carries mass
        2**-9.  A last-step miss of 45 times EQ_TOL * scale in one node's
        conditional mean is a mass-weighted miss of a tenth of the bound;
        the node's own residual sees all of it."""
        N = 10
        n = 2 ** N
        space = build_space(n, [[tuple(range(c * 2 ** (N - t), (c + 1) * 2 ** (N - t)))
                                 for c in range(2 ** t)] for t in range(N + 1)])
        ups = np.array([[(w >> (N - s)) & 1 for w in range(n)] for s in range(1, N + 1)])
        steps = np.cumsum(2 * ups - 1, axis=0)
        asset = AdaptedProcess(space, 100.0 + 5.0 * np.vstack([np.zeros(n), steps]))
        poly = MartingalePolytope(space, [asset])
        assert is_martingale(space, poly, asset).ok
        values = asset.values.copy()
        scale = 1.0 + np.abs(values).max()
        values[N, 0] += 2 * 45 * EQ_TOL * scale   # one child of a node with moves +-5
        report = is_martingale(space, poly, AdaptedProcess(space, values))
        assert not report.ok
        assert [(v.time, v.cell) for v in report.violations] == [(N, 0)]
        assert report.violations[0].gap == pytest.approx(45 * EQ_TOL * scale, rel=1e-3)


class TestEssSupProcess:
    def test_singleton_hull_gives_conditional_expectations(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.6, 0.4]])
        xi = np.array([2.0, 0.0])
        proc = ess_sup_process(binary_space, hull, xi)
        expected = conditional_expectation(binary_space, [0.6, 0.4], xi, 0)
        assert np.allclose(proc.values[0], expected)
        assert np.allclose(proc.values[1], xi)

    def test_two_generator_example(self, binary_space, two_generator_hull):
        proc = ess_sup_process(binary_space, two_generator_hull, [2.0, 0.0])
        assert np.allclose(proc.values[0], 1.6)
        assert np.allclose(proc.values[1], [2.0, 0.0])

    def test_constant_claim(self, binary_space, two_generator_hull):
        proc = ess_sup_process(binary_space, two_generator_hull, np.full(2, 4.0))
        assert np.allclose(proc.values, 4.0)

    @pytest.mark.parametrize("claim, match", [
        ([np.inf, 0.0], "claim must be finite"),
        ([np.nan, 0.0], "claim must be finite"),
        ([1.0, 0.0, 2.0], "claim length"),
    ])
    def test_bad_claims_are_validation_errors(self, binomial, claim, match):
        space, _, poly = binomial
        with pytest.raises(ValidationError, match=match):
            ess_sup_process(space, poly, claim)

    def test_supermartingale_on_compliant_hulls(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=3)
            xi = rng.uniform(0, 3, size=space.outcome_count)
            proc = ess_sup_process(space, hull, xi)
            assert is_supermartingale(space, hull, proc).ok

    def test_martingale_when_expectations_agree(self):
        # equal generator expectations make the envelope a martingale
        rng = np.random.default_rng(17)
        for _ in range(15):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=2)
            xi = cellwise_unit_claim(rng, space, hull)
            proc = ess_sup_process(space, hull, xi)
            assert is_martingale(space, hull, proc).ok


class TestUnitClaimMartingale:
    def test_constant_claim(self, binary_space, two_generator_hull):
        proc = unit_claim_martingale(binary_space, two_generator_hull, np.ones(2))
        assert np.allclose(proc.values, 1.0)

    def test_binomial_asset_ratio(self, binomial):
        space, asset, poly = binomial
        proc = unit_claim_martingale(space, poly, asset.values[1] / 100.0)
        assert np.allclose(proc.values, asset.values / 100.0)

    def test_unit_expectation_at_every_time(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=3)
            xi0 = cellwise_unit_claim(rng, space, hull)
            proc = unit_claim_martingale(space, hull, xi0)
            for g in hull.generators:
                for t in range(space.horizon + 1):
                    assert g.probabilities @ proc.values[t] == pytest.approx(1.0, abs=1e-9)

    def test_measure_dependent_reported(self):
        # non-compliant hull with a unit claim whose conditionals disagree
        space = build_space(
            4, [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]]
        )
        p1 = np.array([0.25, 0.25, 0.25, 0.25])
        p2 = np.array([0.4, 0.1, 0.1, 0.4])
        hull = GeneratorHull(space, [p1, p2])
        xi = np.array([2.0, 0.0, 2.0, 0.0])  # expectation 1 under both
        assert p1 @ xi == pytest.approx(1.0) and p2 @ xi == pytest.approx(1.0)
        with pytest.raises(MeasureDependent):
            unit_claim_martingale(space, hull, xi)

    def test_rejects_non_unit_claims(self, binomial):
        space, _, poly = binomial
        with pytest.raises(NotUnitClaim):
            unit_claim_martingale(space, poly, np.array([3.0, 0.0]))


class TestClassK:
    def test_constant_term_is_martingale(self, binary_space, two_generator_hull):
        term = KTerm(claim=np.ones(2), weights=np.full((2, 2), 2.5), coefficient=1.0)
        proc = class_k_supermartingale(binary_space, two_generator_hull, [term])
        assert np.allclose(proc.values, 2.5)
        assert is_martingale(binary_space, two_generator_hull, proc).ok

    def test_deterministic_decreasing_weights(self):
        # one-cell filtration keeps the witness unique: g_1 = 0.5
        space = build_space(2, [[(0, 1)], [(0, 1)]])
        hull = GeneratorHull(space, [[0.5, 0.5]])
        term = KTerm(claim=np.ones(2), weights=np.array([[1.0, 1.0], [0.5, 0.5]]))
        proc = class_k_supermartingale(space, hull, [term])
        assert np.allclose(proc.values, [[1.0, 1.0], [0.5, 0.5]])
        dec = local_regular_witness(space, hull, proc)
        assert np.allclose(dec.compensator.values[1], 0.5)

    def test_zero_coefficients(self, binary_space, two_generator_hull):
        term = KTerm(claim=np.ones(2), weights=np.ones((2, 2)), coefficient=0.0)
        proc = class_k_supermartingale(binary_space, two_generator_hull, [term])
        assert np.allclose(proc.values, 0.0)

    def test_rejects_increasing_weights(self, binary_space, two_generator_hull):
        term = KTerm(claim=np.ones(2), weights=np.array([[1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(NotNonincreasing):
            class_k_supermartingale(binary_space, two_generator_hull, [term])

    def test_combinations_are_supermartingales_and_decomposable(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            space = random_space(rng, min_outcomes=3)
            hull = compliant_hull(rng, space, k=2)
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                xi = cellwise_unit_claim(rng, space, hull)
                start = rng.uniform(0.5, 2.0)
                steps = rng.uniform(0, 0.4, size=space.horizon)
                weights = np.empty((space.horizon + 1, space.outcome_count))
                weights[0] = start
                for m in range(1, space.horizon + 1):
                    weights[m] = weights[m - 1] - steps[m - 1]
                terms.append(KTerm(claim=xi, weights=weights, coefficient=float(rng.uniform(0, 2))))
            proc = class_k_supermartingale(space, hull, terms)
            assert is_supermartingale(space, hull, proc).ok
            dec = local_regular_witness(space, hull, proc)
            assert np.allclose(
                proc.values, dec.martingale.values - dec.compensator.values, atol=1e-8
            )


class TestKRepresentation:
    def test_martingale_second_term_vanishes(self, binary_space):
        hull = GeneratorHull(binary_space, [[0.5, 0.5]])
        f = AdaptedProcess(binary_space, [[1.0, 1.0], [1.6, 0.4]])
        dec = local_regular_witness(binary_space, hull, f)
        terms = k_representation(binary_space, hull, f, dec)
        assert np.allclose(terms[0].claim, f.values[1] / f.values[0, 0])
        assert np.allclose(terms[1].weights, 0.0)

    def test_two_step_worked_example(self):
        space = build_space(2, [[(0, 1)], [(0, 1)]])
        hull = GeneratorHull(space, [[0.5, 0.5]])
        f = AdaptedProcess(space, [[1.0, 1.0], [0.5, 0.5]])
        dec = local_regular_witness(space, hull, f)
        terms = k_representation(space, hull, f, dec)
        assert np.allclose(terms[0].claim, 1.0)  # (0.5 + 0.5) / 1
        assert np.allclose(terms[1].weights, [[0.0, 0.0], [-0.5, -0.5]])

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            space = random_space(rng, min_outcomes=3)
            hull = GeneratorHull(space, [random_measure(rng, space.outcome_count)])
            f = random_supermartingale(rng, space, hull, shift=1.0)
            dec = local_regular_witness(space, hull, f)
            terms = k_representation(space, hull, f, dec)
            rebuilt = class_k_supermartingale(space, hull, terms)
            assert np.allclose(rebuilt.values, f.values, atol=1e-8)
