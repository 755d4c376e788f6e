"""Thin wrappers around scipy's HiGHS LP solver.

The programs of this library are small, or sparse like a polytope's
interior LP, so tolerances are pushed well below the library-wide identity
tolerance.  Nothing here enumerates
polytope vertices: no production path needs them, and the combinatorial
enumeration the tests use as an oracle lives with the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .errors import UnboundedObjective
from .tolerances import FEAS_TOL

_HIGHS_OPTS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """linprog with pinned method and tolerances; returns the scipy result."""
    return linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=dict(_HIGHS_OPTS),
    )


def maximize(c, **kwargs):
    """Maximize c @ x; returns (value, x).  Raises on unbounded programs."""
    res = solve(-np.asarray(c, dtype=float), **kwargs)
    if res.status == 3:
        raise UnboundedObjective("LP unbounded where a bounded optimum was expected")
    if res.status != 0:
        raise UnboundedObjective(f"LP solver failure (status {res.status}): {res.message}")
    return -res.fun, res.x


def feasible_point(A_eq, b_eq, n_vars, objective=None):
    """Least-objective nonnegative solution of A_eq x = b_eq, or None.

    Redundant equality rows carry rounding noise that the pinned tolerances
    can reject, so a system declared infeasible is solved once more on an
    orthonormal basis of its row space, provided b_eq lies in the column
    space.
    """
    c = np.ones(n_vars) if objective is None else np.asarray(objective, dtype=float)
    res = solve(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    if res.status == 2:
        reduced = _row_space_system(A_eq, b_eq)
        if reduced is None:
            return None
        res = solve(c, A_eq=reduced[0], b_eq=reduced[1], bounds=(0, None))
        if res.status == 2:
            return None
    if res.status != 0:
        raise UnboundedObjective(f"LP solver failure (status {res.status}): {res.message}")
    return res.x


def _row_space_system(A_eq, b_eq):
    """(V, y) with orthonormal rows V and {V x = y} = {A_eq x = b_eq}, or None
    when b_eq leaves the column space of A_eq by more than FEAS_TOL.  A
    sparse A_eq is made dense: only small infeasible systems get here."""
    A = A_eq.toarray() if hasattr(A_eq, "toarray") else np.asarray(A_eq, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > 1e-12 * s.max(initial=0.0)
    coeffs = U[:, keep].T @ b
    if np.abs(b - U[:, keep] @ coeffs).max(initial=0.0) > FEAS_TOL:
        return None
    return Vt[keep], coeffs / s[keep]

