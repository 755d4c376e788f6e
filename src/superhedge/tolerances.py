"""Numeric tolerances used throughout the library.

Double precision on small dense problems: probability masses are held to a
much tighter tolerance than derived conditional-expectation identities, and
LP feasibility sits at the same level as the identity tolerance.
"""

import numpy as np

MASS_TOL = 1e-12   # |sum(p) - 1| for probability vectors
EQ_TOL = 1e-9      # conditional-expectation equalities / inequalities
FEAS_TOL = 1e-9    # LP feasibility decisions


def scaled_tol(x):
    """EQ_TOL relative to the scale 1 + max |x| of the values x: a float for
    one row, one tolerance per row for a stack of rows (k, n)."""
    return EQ_TOL * (1.0 + np.abs(x).max(axis=-1))
