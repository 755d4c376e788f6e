"""A cold process loads numpy and HiGHS's binding, not scipy.optimize.

Each test starts a fresh interpreter: the one running the suite has long
since imported scipy.optimize.  Neither the import nor the work below loads
scipy.sparse or numpy.ma (np.unique, for one, imports numpy.ma on its first
call, about 7 ms of a cold process).  The child prices and superhedges a
polytope and decomposes a hull's super-martingale, which takes the interior
LP, the generated pricing LP and the hull's block LP, then prints its
answers as exact hex floats.  The import alone builds no HiGHS solver.
The binding must answer the same whether _lp loaded it from its file or,
when the file is not found, through the ordinary import of scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import superhedge

SRC = Path(superhedge.__file__).parents[1]

CHILD = r"""
import importlib.machinery, importlib.util, json, sys

if sys.argv[1] == "fallback":
    # scipy's directory as one without the binding's file
    real = importlib.util.find_spec

    def find_spec(name, package=None):
        if name != "scipy":
            return real(name, package)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [sys.argv[2]]
        return spec

    importlib.util.find_spec = find_spec

import numpy as np
import superhedge.cli  # noqa: F401
import superhedge as sh
from superhedge import _lp

LEFT_OUT = ("scipy.optimize", "scipy.sparse", "numpy.ma")
loaded = {name: name in sys.modules for name in LEFT_OUT}
# the import builds no solver: _lp makes one per thread on its first program
solver_at_import = bool(vars(_lp._local))

# a two-step trinomial tree: incomplete, so pricing needs its interior LP
space = sh.build_space(9, [[range(9)], [(0, 1, 2), (3, 4, 5), (6, 7, 8)],
                           [(i,) for i in range(9)]])
moves = np.array([1.1, 1.0, 0.9])
S = np.array([np.full(9, 100.0), 100.0 * np.repeat(moves, 3), 100.0 * np.outer(moves, moves).ravel()])
poly = sh.MartingalePolytope(space, [sh.AdaptedProcess(space, S)])
claim = np.maximum(S[-1] - 100.0, 0.0)
full = sh.fair_price_full(space, poly, claim)
strategy, _, generated = sh.superhedge(space, poly, claim, price_mode="generated")
# density ratios constant on the time-1 cells, so that a witness exists
hull = sh.GeneratorHull(space, [np.full(9, 1 / 9), np.repeat([1.0, 2.0, 3.0], 3) / 18.0])
# a class-K super-martingale: weights 2, 1.5, 1 times E(xi | F_m) for a
# claim xi of mean one on every time-1 cell under both generators
xi = np.tile([0.5, 1.0, 1.5], 3)
f = sh.AdaptedProcess(space, [np.full(9, 2.0), np.full(9, 1.5), xi])
witness = sh.local_regular_witness(space, hull, f)
answers = {"interior": poly.interior_measure, "full": [full.price], "generated": [generated.price],
           "weights": generated.weights, "risky": strategy.risky.ravel(),
           "compensator": witness.compensator.values.ravel()}
quiet = {name: name in sys.modules for name in LEFT_OUT}

# then scipy's own wrapper, loaded the way the benchmark's yardstick loads it
from scipy.optimize import linprog

rng = np.random.default_rng(27)
A, b, c = rng.integers(-3, 4, size=(6, 4)).astype(float), rng.uniform(1.0, 5.0, 6), rng.uniform(-1.0, 1.0, 4)
ours = _lp.solve(c, A_ub=A, b_ub=b, bounds=(0, 3))
theirs = linprog(c, A_ub=A, b_ub=b, bounds=(0, 3), method="highs",
                 options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
assert ours.status == theirs.status == 0
assert np.array_equal(ours.x, theirs.x) and ours.fun == theirs.fun
answers["linprog"] = np.r_[theirs.x, theirs.fun]
print(json.dumps({"loaded": loaded, "quiet": quiet, "solver_at_import": solver_at_import,
                  "same_binding": sys.modules["scipy.optimize._highspy._core"] is _lp._h,
                  "answers": {k: [float(v).hex() for v in np.ravel(a)] for k, a in answers.items()}}))
"""


def _child(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_cold_process_skips_scipy_optimize_and_sparse(tmp_path):
    direct = _child("direct")
    assert direct["loaded"] == direct["quiet"] == {"scipy.optimize": False, "scipy.sparse": False,
                                                   "numpy.ma": False}
    assert not direct["solver_at_import"]
    assert direct["same_binding"]
    # the binding's file is not found: scipy.optimize loads it, same answers
    fallback = _child("fallback", str(tmp_path))
    assert fallback["loaded"]["scipy.optimize"]
    assert fallback["same_binding"]
    assert fallback["answers"] == direct["answers"]
