"""A fixed piece of CPU work that tells how fast the core runs right now.

The benchmark shares a host whose per-core speed drifts by up to about 1.8x
over seconds to minutes, as other work on the host comes and goes: far more
than any bound on a timing could absorb.  So every timing the benchmark reports is scaled
to a reference speed: it runs this yardstick next to the timed work, on the
same pinned core, and multiplies the raw time by ``REF_MS / yardstick_ms``.
A timing is then "ms on a core on which the yardstick takes REF_MS ms".

The yardstick solves three small linear programs with scipy's HiGHS
interface: interpreted Python in scipy, numpy array handling and compiled
solver code, the mix the library's own calls go through.  Of the kernels
tried (this one, and one of pure-Python loops, small numpy operations and a
dense SVD), it tracked the workloads' own drift best, on the cold CLI and the
dense linear algebra too.  It runs none of the library's code, so no change
to the library can move it.  Its inputs are fixed and do not depend on the
workload seed.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

REF_MS = 5.0    # the yardstick's duration at the reference speed
REPEATS = 3     # one reading is the median of this many runs of the kernel


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU, so
    that the yardstick and the timed work run on the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Yardstick:
    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._linprog = linprog
        # (c, A_ub, b_ub, A_eq, b_eq): bounded, feasible programs over the
        # simplex-like set {x >= 0, sum x = 1, A_ub x <= 1}
        self._programs = [
            (rng.standard_normal(n), np.abs(rng.standard_normal((m, n))), np.ones(m),
             np.ones((1, n)), np.ones(1))
            for m, n in ((6, 10), (12, 20), (20, 30))
        ]
        self.read()  # the first run pays for lazy imports inside scipy

    def _kernel(self) -> float:
        acc = 0.0
        for c, a_ub, b_ub, a_eq, b_eq in self._programs:
            res = self._linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                                bounds=(0.0, None), method="highs")
            acc += float(res.fun)
        return acc

    def read(self) -> float:
        """The yardstick's duration now, in ms."""
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(1000.0 * (perf_counter() - start))
        return statistics.median(times)


def scale(raw: float, before: float, after: float) -> float:
    """A raw duration in reference units, given yardstick readings taken just
    before and just after it."""
    return raw * REF_MS / (0.5 * (before + after))


class Segments:
    """A duration timed in parts, with a reading after each part: each part
    is scaled by the readings on either side of it, so a drift in speed
    during a long interval is followed part by part."""

    def __init__(self, stick: Yardstick, before: float):
        self.stick = stick
        self.before = before
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def run(self, fn, *args):
        start = perf_counter()
        out = fn(*args)
        raw = perf_counter() - start
        after = self.stick.read()
        self.raw_s += raw
        self.scaled_s += scale(raw, self.before, after)
        self.before = after
        return out


class Readings:
    """Yardstick readings taken between timed tasks, at most one per
    ``every_s`` seconds.  ``after`` notes which reading came last before a
    task and may take the next; ``scaled`` then scales each task's raw time
    by the readings on either side of it."""

    def __init__(self, stick: Yardstick, every_s: float):
        self.stick = stick
        self.every_s = every_s
        self.values = [stick.read()]
        self.last = perf_counter()

    def after(self, record: dict) -> None:
        record["mark"] = len(self.values) - 1
        if perf_counter() - self.last >= self.every_s:
            self.values.append(self.stick.read())
            self.last = perf_counter()

    def scaled(self, records: list[dict]) -> None:
        """Give every record (with ``raw_ms`` and ``mark``) its scaled ``ms``;
        takes the closing reading first."""
        self.values.append(self.stick.read())
        for rec in records:
            i = rec.pop("mark")
            rec["ms"] = scale(rec["raw_ms"], self.values[i], self.values[i + 1])
