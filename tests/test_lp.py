"""_lp.solve against scipy's linprog, on whose HiGHS method it is modelled.

The two hand HiGHS the same model with the same options, presolve on or off
alike, so they must agree on the status of every program and, on an
optimum, on x and the objective bit for bit.  _lp.solve reuses one solver
per thread, cleared before each program, where linprog builds a fresh one
per call; so the agreement also shows that no program starts from what the
last one left.
"""

import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from superhedge import SolverFailure, _lp
from superhedge.cli import main

DATA = Path(__file__).parent / "data"

# "columns": the package's own column-wise form, _lp.Columns; the scipy
# sparse kinds are passed as the Columns of their canonical CSC form
FORMATS = ("dense", "columns", "csr", "csc", "coo")


def _sparse_columns(S):
    """A scipy sparse matrix as _lp.Columns, through its own tocsc and
    sum_duplicates."""
    S = S.tocsc()
    S.sum_duplicates()
    return _lp.Columns(S.indptr, S.indices, S.data, S.shape)


def _matrix(draw, rows, cols):
    # small integer entries, about half of them zero, so that programs are
    # often degenerate, infeasible or unbounded
    values = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    dense = np.array(values, dtype=float).reshape(rows, cols) * draw(st.sampled_from([1.0, 0.37]))
    kind = draw(st.sampled_from(FORMATS))
    if kind == "columns":
        return _lp.Columns.from_dense(dense)
    return dense if kind == "dense" else _sparse_columns(sparse.coo_array(dense).asformat(kind))


def _scipy_input(A):
    # linprog reads the column-wise form as the sparse matrix it is
    if isinstance(A, _lp.Columns):
        return sparse.csc_array((A.value, A.index, A.start), shape=A.shape)
    return A


@st.composite
def programs(draw):
    n = draw(st.integers(1, 5))
    c = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), dtype=float)
    # "none": bounds only, a model with no rows
    blocks = draw(st.sampled_from(["ub", "eq", "both", "none"]))
    lp = {}
    if blocks in ("ub", "both"):
        m = draw(st.integers(1, 4))
        lp["A_ub"] = _matrix(draw, m, n)
        lp["b_ub"] = np.array(draw(st.lists(st.integers(-3, 5), min_size=m, max_size=m)), float)
    if blocks in ("eq", "both"):
        m = draw(st.integers(1, 3))
        lp["A_eq"] = _matrix(draw, m, n)
        lp["b_eq"] = np.array(draw(st.lists(st.integers(-3, 5), min_size=m, max_size=m)), float)
    kind = draw(st.sampled_from(["default", "scalar", "free", "per-variable"]))
    if kind == "scalar":
        lp["bounds"] = (draw(st.sampled_from([0.0, -2.0])), draw(st.sampled_from([None, 3.0])))
    elif kind == "free":
        lp["bounds"] = (None, None)
    elif kind == "per-variable":
        lb = draw(st.lists(st.sampled_from([0.0, -1.0, -np.inf]), min_size=n, max_size=n))
        ub = draw(st.lists(st.sampled_from([2.0, 5.0, np.inf]), min_size=n, max_size=n))
        lp["bounds"] = (np.array(lb), np.array(ub))
    return c, lp


def _linprog_bounds(bounds):
    lb, ub = bounds
    if np.ndim(lb) == 0:
        return bounds
    return np.column_stack([lb, ub])


def _both(c, lp, presolve=True):
    ours = _lp.solve(c, **lp, presolve=presolve)
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
               "presolve": presolve}
    ref_lp = {key: _scipy_input(value) for key, value in lp.items()}
    ref_lp["bounds"] = _linprog_bounds(lp.get("bounds", (0, None)))
    theirs = linprog(c, method="highs", options=options, **ref_lp)
    return ours, theirs


def _assert_same(ours, theirs):
    assert ours.status == theirs.status, (ours.message, theirs.message)
    if ours.status == 0:
        assert np.array_equal(ours.x, theirs.x)
        assert ours.fun == theirs.fun


@settings(max_examples=300, deadline=None)
@given(program=programs(), presolve=st.booleans())
def test_solve_matches_linprog(program, presolve):
    _assert_same(*_both(*program, presolve))


@pytest.mark.parametrize(
    "c, lp, status",
    [
        ([1.0, 1.0], {"A_eq": [[1.0, 2.0]], "b_eq": [2.0]}, 0),
        ([1.0, 1.0], {"A_eq": [[1.0, 1.0]], "b_eq": [-1.0]}, 2),
        ([-1.0, 0.0], {"A_ub": [[0.0, 1.0]], "b_ub": [1.0]}, 3),
        ([1.0, -1.0], {"A_ub": _sparse_columns(sparse.csr_array([[1.0, -1.0]])), "b_ub": [1.0],
                       "bounds": (None, None)}, 3),
    ],
)
def test_each_verdict_is_reached(c, lp, status):
    ours, theirs = _both(np.array(c), lp)
    assert ours.status == status
    _assert_same(ours, theirs)


def test_feasibility_tolerances_are_pinned():
    """Two programs 1e-8 from a verdict: a cost of -1e-8 still pays to move
    to the upper bound, and a row that needs x <= -1e-8 with x >= 0 is
    infeasible.  HiGHS's default 1e-7 tolerances would read the first as
    optimal at 0 and the second as feasible."""
    assert np.array_equal(_lp.solve(np.array([-1e-8]), bounds=(0, 1)).x, [1.0])
    assert _lp.solve(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-1e-8])).status == 2


@pytest.mark.parametrize(
    "lp",
    [
        {"c": [np.nan, 1.0]},
        {"A_ub": [[np.inf, 1.0]], "b_ub": [1.0]},
        {"A_eq": _sparse_columns(sparse.csr_array([[np.nan, 1.0]])), "b_eq": [1.0]},
        {"A_eq": [[1.0, 1.0]], "b_eq": [np.inf]},
    ],
)
def test_non_finite_data_is_rejected(lp):
    lp = dict({"c": [1.0, 1.0]}, **lp)
    with pytest.raises(ValueError):
        _lp.solve(lp.pop("c"), **lp)


def test_one_solver_runs_every_verdict_in_turn():
    """On one thread and its one solver: an infeasible, an unbounded, a
    presolved, an unpresolved, a row-free and an optimal program in turn,
    twice over, each equal to linprog with the same presolve setting."""
    rng = np.random.default_rng(28)
    A, b = rng.integers(-3, 4, size=(6, 4)).astype(float), rng.uniform(1.0, 5.0, 6)
    turn = [
        ([1.0, 1.0], {"A_eq": [[1.0, 1.0]], "b_eq": [-1.0]}, True, 2),
        ([1.0, -1.0], {"A_ub": [[1.0, -1.0]], "b_ub": [1.0], "bounds": (None, None)}, True, 3),
        (rng.uniform(-1.0, 1.0, 4), {"A_ub": A, "b_ub": b, "bounds": (0, 3)}, True, 0),
        (rng.uniform(-1.0, 1.0, 4), {"A_ub": A, "b_ub": b, "bounds": (0, 3)}, False, 0),
        ([1.0, -2.0], {"bounds": (-1.0, 2.0)}, True, 0),
        ([1.0, 1.0], {"A_eq": [[1.0, 2.0]], "b_eq": [2.0]}, False, 0),
    ]
    for c, lp, presolve, status in turn * 2:
        ours, theirs = _both(np.array(c), lp, presolve)
        assert ours.status == status
        _assert_same(ours, theirs)


def _seeded_programs(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m, n = rng.integers(1, 6, size=2)
        out.append((rng.uniform(-1.0, 1.0, n),
                    {"A_ub": rng.integers(-3, 4, size=(m, n)).astype(float),
                     "b_ub": rng.uniform(-1.0, 5.0, m), "bounds": (0, 4)},
                    bool(rng.integers(2))))
    return out


def _answers(programs, wait=lambda: None):
    out = []
    for c, lp, presolve in programs:
        wait()
        res = _lp.solve(c, **lp, presolve=presolve)
        out.append((res.status, None if res.x is None else res.x.tobytes(), res.fun))
    return out


def test_threads_keep_their_own_solvers(monkeypatch):
    """Two threads solving seeded programs in lock step get what one thread
    gets alone, and each thread builds exactly one solver, on its first
    program: none is built before."""
    built = []
    highs = _lp._h._Highs
    monkeypatch.setattr(_lp, "_local", threading.local())
    monkeypatch.setattr(_lp._h, "_Highs", lambda: built.append(threading.get_ident()) or highs())
    programs = [_seeded_programs(seed, 40) for seed in (1, 2)]
    alone = [_answers(p) for p in programs]
    assert len(built) == 1

    step = threading.Barrier(2)
    got = [None, None]

    def run(i):
        got[i] = _answers(programs[i], step.wait)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == alone
    assert len(built) == 3 == len(set(built))


@pytest.fixture
def stalled_solver(monkeypatch):
    """Every LP comes back with status 4, HiGHS's "no verdict"."""
    monkeypatch.setattr(
        _lp, "solve", lambda *args, **kwargs: _lp.LPResult(4, None, None, "stalled"))


def test_no_verdict_is_a_solver_failure(stalled_solver):
    with pytest.raises(SolverFailure):
        _lp.maximize(np.ones(2), A_eq=np.ones((1, 2)), b_eq=np.ones(1))
    with pytest.raises(SolverFailure):
        _lp.feasible_point(np.ones((1, 2)), np.ones(1), 2)


def test_solver_failure_exits_3(stalled_solver, capsys):
    code = main(["decompose", str(DATA / "hull.json"), "drifting", "--method", "witness"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: LP solver failure (status 4)")
    assert "Traceback" not in err
