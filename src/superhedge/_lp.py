"""Linear programs on scipy's HiGHS binding, loaded without scipy.optimize.

The programs of this library are small, or sparse like a polytope's
interior LP, so tolerances are pushed well below the library-wide identity
tolerance.  Nothing here enumerates
polytope vertices: no production path needs them, and the combinatorial
enumeration the tests use as an oracle lives with the tests.

The binding, ``scipy.optimize._highspy._core``, is loaded from its file
alone (``_binding``): importing ``scipy.optimize`` for it would cost a cold
process several times what the rest of the package does.  Where the file
is not where scipy 1.17 keeps it, the ordinary import loads it, and
``scipy.optimize`` with it.  This is the only module that names scipy.

``solve`` hands the model straight to the binding, as plain arrays
through the array overload of ``_Highs.passModel``.
On small programs scipy's generic wrapper costs several times what HiGHS
itself does: it re-validates its options on every call and builds results
nobody reads, and its ``HighsLp`` attribute setters copy entry by entry.
The constraint matrix goes in the canonical column-wise form of
``Columns``, the form the package builds its sparse programs in.
Each thread keeps one solver (``_solver``), made on its first program, not
at import, and cleared with ``clearModel`` before each program: building
a solver and passing it its options costs more than a small program's
solve, and ``clearModel`` discards the model, the basis and the solution,
so no program starts from another's basis, as with a fresh solver.
The model (rows ``A_ub`` over ``A_eq`` in that form, with row bounds
``[-inf, b_eq] .. [b_ub, b_eq]``), the options and the status codes are the
ones ``scipy.optimize``'s own HiGHS method uses, with presolve unless the
caller turns it off, so ``linprog`` with the same presolve setting gives
the same answer bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from typing import NamedTuple

import numpy as np

from .errors import SolverFailure, UnboundedObjective
from .tolerances import FEAS_TOL


def _binding():
    """scipy's HiGHS extension module, loaded from its file under its own
    name, without its package.  importlib.util.find_spec finds scipy's
    directory without importing scipy.  A module already registered under
    that name, as importing scipy.optimize first leaves it, is reused:
    pybind11 registers the binding's types once per process, so it must
    never load twice.  Its package, when already imported, gets it as its
    _core attribute; one imported later lacks the attribute, and scipy's
    own ``from ._highspy._core import ...`` finds the module in sys.modules.
    A missing file means the ordinary import."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                if "scipy.optimize._highspy" in sys.modules:
                    sys.modules["scipy.optimize._highspy"]._core = module
                return module
    from scipy.optimize._highspy import _core
    return _core


_h = _binding()
_MODEL = _h.HighsModelStatus


def _options(presolve: bool):
    options = _h.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.simplex_strategy = _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = 1e-10
    options.dual_feasibility_tolerance = 1e-10
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
    return options


_OPTIONS = {presolve: _options(presolve) for presolve in (True, False)}

# HiGHS model status -> status code, as scipy's linprog maps them: 0 optimal,
# 1 limit reached, 2 infeasible, 3 unbounded; any other status is 4, no verdict
_STATUS = {_MODEL.kOptimal: 0, _MODEL.kTimeLimit: 1, _MODEL.kIterationLimit: 1,
           _MODEL.kModelError: 2, _MODEL.kInfeasible: 2, _MODEL.kUnbounded: 3}
# each thread's solver (_solver)
_local = threading.local()
# how far an "optimal" point may miss its constraints before it counts as
# numerical trouble (status 4), as scipy's linprog has it
_CHECK_TOL = 10 * np.sqrt(1e-9)


class LPResult(NamedTuple):
    """The status code above, and on an optimum the point and its cost."""

    status: int
    x: np.ndarray | None
    fun: float | None
    message: str


class Columns(NamedTuple):
    """A matrix in the canonical column-wise form HiGHS reads: column j's
    entries are value[start[j]:start[j + 1]], in the rows index[...] in
    ascending order, with no zero stored."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, D: np.ndarray) -> Columns:
        column, index = np.nonzero(D.T)
        return cls(np.r_[0, np.cumsum(np.count_nonzero(D, axis=0))], index,
                   D[index, column], D.shape)

    def toarray(self) -> np.ndarray:
        D = np.zeros(self.shape)
        D[self.index, np.repeat(np.arange(self.shape[1]), np.diff(self.start))] = self.value
        return D


def _stacked(blocks: list[Columns]) -> Columns:
    """The blocks one above the other, each column's entries block by block."""
    if len(blocks) == 1:
        return blocks[0]
    counts = np.array([np.diff(B.start) for B in blocks])
    start = np.r_[0, np.cumsum(counts.sum(axis=0))]
    index, value = np.empty(start[-1], dtype=np.int32), np.empty(start[-1])
    # where each column's entries of the next block go, and its first row
    first, row = start[:-1].copy(), 0
    for B, count in zip(blocks, counts):
        at = np.arange(len(B.value)) + np.repeat(first - B.start[:-1], count)
        index[at], value[at] = B.index + row, B.value
        first += count
        row += B.shape[0]
    return Columns(start, index, value, (row, counts.shape[1]))


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None),
          presolve=True) -> LPResult:
    """Minimize c @ x subject to A_ub @ x <= b_ub, A_eq @ x == b_eq and
    lb <= x <= ub, for bounds = (lb, ub); each of lb and ub is a scalar,
    None for no bound, or one entry per variable.  A_ub and A_eq are dense
    or Columns.  presolve=False runs HiGHS without its presolve, as
    ``linprog(..., options={"presolve": False})`` does: where the optimum
    is not unique the point may differ from the presolved one.  The
    program runs on this thread's one solver, cleared first (_solver), so
    it starts from no basis, as on a fresh solver.  Raises ValueError on
    non-finite data or mismatched shapes."""
    c = np.asarray(c, dtype=float).reshape(-1)
    n = len(c)
    lb, ub = (np.broadcast_to(np.asarray(none if v is None else v, dtype=float), n)
              for v, none in zip(bounds, (-np.inf, np.inf)))
    b_ub, b_eq = (np.empty(0) if b is None else np.asarray(b, dtype=float).reshape(-1)
                  for b in (b_ub, b_eq))
    blocks = [np.empty((0, n)) if A is None else A if isinstance(A, Columns)
              else np.asarray(A, dtype=float) for A in (A_ub, A_eq)]
    if [B.shape for B in blocks] != [(len(b_ub), n), (len(b_eq), n)]:
        raise ValueError("LP shapes disagree: constraint matrices "
                         f"{[B.shape for B in blocks]}, right-hand sides "
                         f"{len(b_ub)} and {len(b_eq)}, {n} costs")
    # the stacked rows in canonical column-wise form; a lone block already
    # in that form is read as it is
    present = [B for B in blocks if B.shape[0]] or blocks[:1]
    start, index, value, _ = _stacked([B if isinstance(B, Columns) else Columns.from_dense(B)
                                       for B in present])
    rhs = np.concatenate([b_ub, b_eq])
    if not all(np.isfinite(v).all() for v in (c, value, rhs)):
        raise ValueError("LP data must not contain inf or nan")

    # infinite bounds as HiGHS's infinity
    col_lower, col_upper = np.clip([lb, ub], -_h.kHighsInf, _h.kHighsInf)
    row_lower = np.concatenate([np.full(len(b_ub), -_h.kHighsInf), b_eq])

    highs = _solver()
    highs.passOptions(_OPTIONS[presolve])
    # the LP overload: sizes, column-wise format, minimize with no offset,
    # then the arrays; its integrality array must have one (continuous)
    # entry per column, since an empty one is a model error
    if highs.passModel(n, len(rhs), len(value), _h.MatrixFormat.kColwise.value,
                       _h.ObjSense.kMinimize.value, 0.0, c, col_lower, col_upper,
                       row_lower, rhs, np.asarray(start, np.int32),
                       np.asarray(index, np.int32), value,
                       np.zeros(n, np.int32)) == _h.HighsStatus.kError:
        return _failed(highs, _MODEL.kModelError)
    if highs.run() == _h.HighsStatus.kError or highs.getModelStatus() != _MODEL.kOptimal:
        return _failed(highs, highs.getModelStatus())

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)
    if not (np.isfinite(fun)
            and (x >= lb - _CHECK_TOL).all() and (x <= ub + _CHECK_TOL).all()
            and (slack[:len(b_ub)] >= -_CHECK_TOL).all()
            and (np.abs(slack[len(b_ub):]) <= _CHECK_TOL).all()):
        return LPResult(4, x, fun, "The solution misses the constraints by more than "
                                   f"{_CHECK_TOL:.2E} although HiGHS reports it optimal.")
    return LPResult(0, x, fun, "HiGHS: Optimal")


def _solver():
    """This thread's solver: made on its first program, and on every later
    one cleared of the last program's model, basis and solution."""
    highs = getattr(_local, "highs", None)
    if highs is None:
        highs = _local.highs = _h._Highs()
    else:
        highs.clearModel()
    return highs


def _failed(highs, model_status) -> LPResult:
    # no point comes back, so even an optimal verdict counts as none
    status = _STATUS.get(model_status, 4) or 4
    return LPResult(status, None, None, f"HiGHS: {highs.modelStatusToString(model_status)}")


def maximize(c, **kwargs):
    """Maximize c @ x; returns (value, x).  Raises on unbounded programs."""
    res = solve(-np.asarray(c, dtype=float), **kwargs)
    if res.status == 3:
        raise UnboundedObjective("LP unbounded where a bounded optimum was expected")
    if res.status != 0:
        raise SolverFailure(f"LP solver failure (status {res.status}): {res.message}")
    return -res.fun, res.x


def feasible_point(A_eq, b_eq, n_vars):
    """Nonnegative solution of A_eq x = b_eq with the least sum, or None.

    Redundant equality rows carry rounding noise that the pinned tolerances
    can reject, so a system declared infeasible is solved once more on an
    orthonormal basis of its row space, provided b_eq lies in the column
    space and some row is redundant.
    """
    c = np.ones(n_vars)
    res = solve(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    if res.status == 2:
        reduced = _row_space_system(A_eq, b_eq)
        if reduced is None or len(reduced[1]) == len(b_eq):
            return None
        res = solve(c, A_eq=reduced[0], b_eq=reduced[1], bounds=(0, None))
        if res.status == 2:
            return None
    if res.status != 0:
        raise SolverFailure(f"LP solver failure (status {res.status}): {res.message}")
    return res.x


def _row_space_system(A_eq, b_eq):
    """(V, y) with orthonormal rows V and {V x = y} = {A_eq x = b_eq}, or None
    when b_eq leaves the column space of A_eq by more than FEAS_TOL.  A
    Columns A_eq, a hull's compensator block, is made dense: only small
    infeasible systems get here."""
    A = A_eq.toarray() if hasattr(A_eq, "toarray") else np.asarray(A_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > 1e-12 * s.max(initial=0.0)
    coeffs = U[:, keep].T @ b
    if np.abs(b - U[:, keep] @ coeffs).max(initial=0.0) > FEAS_TOL:
        return None
    return Vt[keep], coeffs / s[keep]
