import numpy as np
import pytest

from superhedge import (
    EQ_TOL,
    AdaptedProcess,
    EmptyCell,
    NotAdapted,
    NotPartition,
    NotRefining,
    NotPredictable,
    PredictableProcess,
    ShapeMismatch,
    SuperhedgeError,
    TradingStrategy,
    atom_of,
    build_space,
    cell_ranges,
    check_adapted,
)
from superhedge.spaces import cell_order, cell_reps

from gen import build_space_loop, random_partitions, random_space


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
    # too many axes, or too few, is a shape error before any other check
    for values in (np.zeros((1, 2, 1, 3)), np.full((1, 2, 1, 3), np.nan), np.zeros(2)):
        with pytest.raises(ShapeMismatch, match=r"expected shape \(1, 2, d\), got"):
            PredictableProcess(binary, values)


def _outcome(build, n, partitions):
    """(atom_index, cells, children) of a build, or its error's type and message."""
    try:
        space = build(n, partitions)
    except SuperhedgeError as err:
        return type(err), str(err)
    if isinstance(space, tuple):
        return space
    return space.atom_index, space.cells, space.children


def _corrupt(rng, n, levels):
    """One to three random corruptions of a partition sequence, each an
    empty cell, a repeated outcome, an out-of-range outcome, a dropped
    outcome, or an outcome moved to another cell (often a straddle)."""
    levels = [[list(cell) for cell in level] for level in levels]
    for _ in range(int(rng.integers(1, 4))):
        level = levels[int(rng.integers(len(levels)))]
        cell = level[int(rng.integers(len(level)))]
        kind = rng.integers(5)
        if kind == 0:
            level.insert(int(rng.integers(len(level) + 1)), [])
        elif kind == 1:
            other = level[int(rng.integers(len(level)))]
            if other:
                cell.insert(int(rng.integers(len(cell) + 1)), other[int(rng.integers(len(other)))])
        elif kind == 2:
            cell.insert(int(rng.integers(len(cell) + 1)), int(rng.choice([-2, -1, n, n + 3])))
        elif cell and kind == 3:
            cell.pop(int(rng.integers(len(cell))))
        elif cell:
            other = level[int(rng.integers(len(level)))]
            other.append(cell.pop(int(rng.integers(len(cell)))))
    return levels


def _shaped(rng, levels):
    """The cells shuffled within each level, each cell a list, a tuple, a
    set or a numpy array."""
    shapes = [list, tuple, set, lambda c: np.array(c, dtype=int)]
    out = []
    for level in levels:
        level = [shapes[int(rng.integers(len(shapes)))](cell) for cell in level]
        out.append([level[i] for i in rng.permutation(len(level))])
    return out


def test_build_space_matches_the_loop_oracle():
    rng = np.random.default_rng(2024)
    counts = {"built": 0}
    for _ in range(600):
        n, levels = random_partitions(rng, max_outcomes=10, max_horizon=4)
        if rng.random() < 0.6:
            levels = _corrupt(rng, n, levels)
        levels = _shaped(rng, levels)
        got, want = _outcome(build_space, n, levels), _outcome(build_space_loop, n, levels)
        if isinstance(want[0], np.ndarray):
            counts["built"] += 1
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
        else:
            counts[want[0].__name__] = counts.get(want[0].__name__, 0) + 1
            assert got == want
    # every outcome of the oracle is seen
    assert set(counts) == {"built", "EmptyCell", "NotPartition", "NotRefining"}


@pytest.mark.parametrize("n, partitions, error, message", [
    (0, [[()], [()]], NotPartition, "outcome_count must be a positive integer"),
    (2, [[(0, 1)]], NotPartition, "a positive horizon needs partitions for times 0 and 1 at least"),
    (2, [[(0, 1)], [(0,), (), (1,)]], EmptyCell, "empty cell at time 1"),
    (2, [[(0, 1)], [(0,), (1, 2)]], NotPartition, "outcome 2 out of range at time 1"),
    (2, [[(0, 1)], [(-1, 0), (1,)]], NotPartition, "outcome -1 out of range at time 1"),
    (3, [[(0, 1, 2)], [(2, 0), (1, 2)]], NotPartition, "outcome 2 appears in two cells at time 1"),
    (3, [[(0, 1, 2)], [(1, 1), (0, 2)]], NotPartition, "outcome 1 appears in two cells at time 1"),
    (4, [[(0, 1, 2, 3)], [(2,), (0,)]], NotPartition, "outcomes [1, 3] uncovered at time 1"),
    (2, [[(0,), (1,)], [(0,), (1,)]], NotPartition, "time-0 partition must be the single full cell"),
    (3, [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2)]], NotRefining,
     "cell (1, 2) at time 2 straddles cells [(0, 1), (2,)] at time 1"),
    # a cell's outcomes are checked in ascending order, the cells in the given order
    (3, [[(0, 1, 2)], [(2, 5, -1), (0, 1)]], NotPartition, "outcome -1 out of range at time 1"),
    (3, [[(0, 1, 2)], [(0, 1), (), (1, 7)]], EmptyCell, "empty cell at time 1"),
    (3, [[(0, 1, 2)], [(0, 1), (2,)], [(2, 9), (), (0, 1)]], NotPartition,
     "outcome 9 out of range at time 2"),
])
def test_build_space_error_messages(n, partitions, error, message):
    with pytest.raises(error) as info:
        build_space(n, partitions)
    assert str(info.value) == message
    assert _outcome(build_space_loop, n, partitions) == (error, message)


@pytest.mark.parametrize("n, partitions, message", [
    (3, [[(0, 1, 2)], [(0,), (1,), (2.5,)]], "outcome 2.5 at time 1 is not an integer index"),
    (3, [[(0, 1, 2)], [(0,), (1,), (2.0,)]], "outcome 2.0 at time 1 is not an integer index"),
    (3, [[(0, 1, 2)], [(0,), (1,), ("2",)]], "outcome '2' at time 1 is not an integer index"),
    (3, [[(0, 1, 2)], [(0,), (1,), (None,)]], "outcome None at time 1 is not an integer index"),
    (2, [[(0, True)], [(0,), (1,)]], "outcome True at time 0 is not an integer index"),
    (2, [[(0, np.bool_(True))], [(0,), (1,)]],
     "outcome np.True_ at time 0 is not an integer index"),
    (2, [[(0, 1)], [(0,), (np.float64(1.0),)]],
     "outcome np.float64(1.0) at time 1 is not an integer index"),
    (2, [[(0, 1)], 5], "time 1 must be a collection of cells of outcome indices"),
    (2, [[(0, 1)], [0, 1]], "time 1 must be a collection of cells of outcome indices"),
    (2, [[(0, 1)], [None]], "time 1 must be a collection of cells of outcome indices"),
    (2.5, [[(0, 1)], [(0,), (1,)]], "outcome_count must be a positive integer"),
    (True, [[(0,)], [(0,)]], "outcome_count must be a positive integer"),
])
def test_build_space_takes_integer_outcome_indices_only(n, partitions, message):
    with pytest.raises(NotPartition) as info:
        build_space(n, partitions)
    assert str(info.value) == message


def test_build_space_takes_numpy_integers_and_huge_indices():
    space = build_space(np.int32(3), [np.array([[2, 0, 1]]), [[np.uint8(1)], np.array([2, 0])]])
    assert space.outcome_count == 3 and space.cells == (((0, 1, 2),), ((0, 2), (1,)))
    with pytest.raises(NotPartition, match=f"outcome {2**70} out of range at time 1"):
        build_space(3, [[(0, 1, 2)], [(0, 1), (2, 2**70)]])


def test_space_functions_check_the_time():
    space = build_space(2, [[(0, 1)], [(0,), (1,)]])
    for t in (-1, 2):
        for call in (lambda: cell_ranges(space, t, [1.0, 2.0]), lambda: cell_reps(space, t),
                     lambda: cell_order(space, t, t + 1), lambda: atom_of(space, t, 0)):
            with pytest.raises(IndexError, match=f"time {t} out of range 0..1"):
                call()


def _noisy_rows(rng, space, rows, lag):
    """rows (T, n, ...) with row s constant on the time-max(s - lag, 0)
    cells, then a few cells' single outcomes knocked by 1e-6 or 1e-12."""
    values = rng.normal(size=(rows, space.outcome_count, 2))
    for s in range(rows):
        t = max(s - lag, 0)
        values[s] = values[s, cell_reps(space, t)[space.atom_index[t]]]
    for _ in range(int(rng.integers(0, 4))):
        s, w = int(rng.integers(rows)), int(rng.integers(space.outcome_count))
        values[s, w] += rng.choice([1e-6, 1e-12])
    return values


def test_measurability_checks_match_a_per_time_loop():
    rng = np.random.default_rng(99)
    for _ in range(200):
        space = random_space(rng, max_outcomes=10)
        N = space.horizon
        values = _noisy_rows(rng, space, N + 1, 0)[:, :, 0]
        loop = [(t, int(c)) for t in range(N + 1)
                for c in np.flatnonzero(cell_ranges(space, t, values[t]) > EQ_TOL)]
        assert check_adapted(space, values).violations == tuple(loop)

        holdings = _noisy_rows(rng, space, N + 1, 1)[1:]
        loop = [f"time-{t + 1} row varies on time-{t} cell {c}" for t in range(N)
                for c in np.flatnonzero(cell_ranges(space, t, holdings[t]).max(axis=1) > EQ_TOL)]
        try:
            PredictableProcess(space, holdings)
            assert loop == []
        except NotPredictable as err:
            assert str(err) == loop[0]

        asset = AdaptedProcess(space, np.ones((N + 1, space.outcome_count)))
        cash, risky = _noisy_rows(rng, space, N + 1, 1)[:, :, 0], _noisy_rows(rng, space, N + 1, 1)
        cash_tol = EQ_TOL * (1.0 + float(np.abs(cash).max()))
        loop = [f"time-{m} holdings vary on time-{max(m - 1, 0)} cell {c}" for m in range(N + 1)
                for c in np.flatnonzero(
                    (cell_ranges(space, max(m - 1, 0), cash[m]) > cash_tol)
                    | (cell_ranges(space, max(m - 1, 0), risky[m]).max(axis=1) > EQ_TOL))]
        try:
            TradingStrategy(space=space, cash=cash, risky=risky, assets=(asset, asset))
            assert loop == []
        except NotPredictable as err:
            assert str(err) == loop[0]
