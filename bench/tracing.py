"""Spans around the library's public functions, installed from outside.

``install`` wraps every public function of the layer modules, rebinding the
wrapper in every ``superhedge`` namespace that binds the original by name
(``fair_price_full`` is also bound in ``hedging``, ``cli`` and the package),
the public methods and constructors of the measure families on their
classes, and the constructors of the process classes.  ``_lp.solve`` is
wrapped at module level, so the solves behind ``maximize`` and
``feasible_point`` are seen too.  Accessor methods of the space and process
data classes (``n_cells``, ``cell_rep``, ...) are left alone: they run per
cell in inner loops and do no work of their own.

Spans are kept in memory and written out by the caller at the end.  The
library is single-threaded, so a span's time is either its own or its
children's: time spent waiting on another layer is zero by construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb
from time import perf_counter

import numpy as np

LAYERS = ("spaces", "measures", "processes", "decomposition", "pricing",
          "hedging", "market_io", "cli", "_lp")
SPAN_CLASSES = ("MartingalePolytope", "GeneratorHull", "AdaptedProcess", "PredictableProcess")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.task: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": self.stack[-1] if self.stack else None,
                           "task": self.task})
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> dict:
        span = self.spans[idx]
        span["end"] = perf_counter()
        self.stack.pop()
        return span

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = self.close(idx)
                span["array"] = _largest_array((args, kwargs, result))
                if probe is not None and result is not None:
                    probe(span, args, kwargs, result)
                # bookkeeping after the span ends; kept out of the parent's self time
                span["post"] = perf_counter() - span["end"]

        return wrapper


def _largest_array(objs, depth: int = 3) -> int:
    """Element count of the largest ndarray among the objects, their items
    and their attributes, a few levels deep."""
    best = 0
    for obj in objs:
        if isinstance(obj, np.ndarray):
            best = max(best, obj.size)
        elif depth and isinstance(obj, dict):
            best = max(best, _largest_array(obj.values(), depth - 1))
        elif depth and isinstance(obj, (tuple, list)):
            best = max(best, _largest_array(obj, depth - 1))
        elif depth and hasattr(obj, "__dict__") and not inspect.ismodule(obj):
            best = max(best, _largest_array(vars(obj).values(), depth - 1))
    return best


def _probe_vertices(span, args, kwargs, result):
    """Column subsets the enumeration visits, C(n, rank), and vertices found."""
    A = np.asarray(args[0] if args else kwargs["A_eq"], dtype=float)
    rank = int(np.linalg.matrix_rank(A, tol=1e-11))
    span["subsets"] = comb(A.shape[1], rank)
    span["vertices"] = int(len(result))


def _probe_solve(span, args, kwargs, result):
    span["status"] = int(result.status)


PROBES = {"lp.enumerate_vertices": _probe_vertices, "lp.solve": _probe_solve}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public callables."""
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"superhedge.{layer}")
        prefix = layer.lstrip("_")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                originals[obj] = tracer.wrap(f"{prefix}.{attr}", obj)
            elif inspect.isclass(obj) and attr in SPAN_CLASSES:
                _wrap_class(tracer, prefix, obj)
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "superhedge":
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in originals:
                setattr(module, attr, originals[obj])


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    cls.__init__ = tracer.wrap(f"{layer}.{cls.__name__}", cls.__init__)
    if layer == "measures":
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", obj))


def self_times(spans: list[dict]) -> list[float]:
    """Per span, its duration minus the durations of its direct children and
    the tracer's own bookkeeping after each of them."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"] + span.get("post", 0.0)
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
