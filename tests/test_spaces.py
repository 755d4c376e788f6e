import numpy as np
import pytest

from superhedge import (
    AdaptedProcess,
    NotAdapted,
    NotPartition,
    NotRefining,
    NotPredictable,
    PredictableProcess,
    ShapeMismatch,
    atom_of,
    build_space,
    check_adapted,
)

from gen import random_space


def test_build_binary_space():
    space = build_space(2, [[(0, 1)], [(0,), (1,)]])
    assert space.horizon == 1
    assert space.cells[1] == ((0,), (1,))


def test_constant_filtration_is_allowed():
    space = build_space(2, [[(0, 1)], [(0, 1)]])
    assert space.n_cells(1) == 1


def test_straddling_cell_rejected():
    with pytest.raises(NotRefining):
        build_space(3, [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2)]])


def test_partition_gap_and_overlap_rejected():
    with pytest.raises(NotPartition):
        build_space(3, [[(0, 1)], [(0, 1)]])
    with pytest.raises(NotPartition):
        build_space(2, [[(0, 1)], [(0, 1), (1,)]])
    with pytest.raises(NotPartition):
        build_space(2, [[(0,), (1,)], [(0,), (1,)]])  # time 0 must be trivial
    with pytest.raises(NotPartition):
        build_space(2, [[(0, 1)]])  # horizon must be positive


def test_atom_of_examples():
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    assert atom_of(binary, 1, 1) == (1,)
    assert atom_of(binary, 0, 1) == (0, 1)
    fixed = build_space(3, [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1,), (2,)]])
    assert atom_of(fixed, 1, 0) == (0, 1)
    with pytest.raises(IndexError):
        atom_of(binary, 2, 0)
    with pytest.raises(IndexError):
        atom_of(binary, 0, 5)


def test_check_adapted_examples():
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    assert check_adapted(binary, [[3.0, 3.0], [3.0, 3.0]]).ok
    report = check_adapted(binary, [[1.0, 2.0], [1.0, 2.0]])
    assert not report.ok and report.violations == ((0, 0),)
    assert check_adapted(binary, [[1.0, 1.0], [3.0, 5.0]]).ok
    with pytest.raises(ShapeMismatch):
        check_adapted(binary, [[1.0, 1.0]])


def test_adapted_process_rejects_unmeasurable_rows():
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    with pytest.raises(NotAdapted):
        AdaptedProcess(binary, [[1.0, 2.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adapted_process_rejects_non_finite_values(bad):
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    with pytest.raises(NotAdapted, match="must be finite"):
        AdaptedProcess(binary, [[bad, bad], [1.0, 1.0]])


def test_predictable_process_rejects_non_finite_holdings():
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    with pytest.raises(NotPredictable, match="must be finite"):
        PredictableProcess(binary, np.array([[[np.nan], [np.nan]]]))


def test_refinement_transitivity_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        space = random_space(rng)
        for t in range(space.horizon):
            for w in range(space.outcome_count):
                finer = set(atom_of(space, t + 1, w))
                coarser = set(atom_of(space, t, w))
                assert finer <= coarser


def test_adaptedness_monotone_under_refinement():
    rng = np.random.default_rng(11)
    for _ in range(25):
        space = random_space(rng, min_horizon=2)
        # a process built on the coarser prefix stays adapted after refinement
        values = np.empty((space.horizon + 1, space.outcome_count))
        for t in range(space.horizon + 1):
            s = max(t - 1, 0)  # value measurable one level coarser
            for c in range(space.n_cells(s)):
                values[t, list(space.cells[s][c])] = c + 0.5 * t
        assert check_adapted(space, values).ok


def test_predictable_process_validation():
    binary = build_space(2, [[(0, 1)], [(0,), (1,)]])
    PredictableProcess(binary, np.array([[[0.5], [0.5]]]))
    with pytest.raises(Exception):
        PredictableProcess(binary, np.array([[[0.5], [0.7]]]))
