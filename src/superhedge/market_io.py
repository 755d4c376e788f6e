"""JSON market specifications: one self-contained document per experiment.

Layout::

    {
      "outcomes":   {"count": 2, "labels": ["up", "down"]},
      "filtration": [[[0, 1]], [[0], [1]]],
      "measures":   {"generators": [[0.5, 0.5]]}
                    or {"martingale_assets": ["S"]},
      "processes":  {"S": [[100, 100], [120, 80]]},
      "claims":     {"call": [20, 0]}
    }

Numbers are decimal doubles.  Serialization is canonical (sorted keys, native
float repr), so load -> dump round-trips value-identically and dump output
re-serializes byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .measures import GeneratorHull, MartingalePolytope, Measure, MeasureSet
from .spaces import AdaptedProcess, FilteredSpace, build_space


@dataclass(frozen=True, eq=False)
class MarketModel:
    space: FilteredSpace
    measure_set: MeasureSet
    processes: dict[str, AdaptedProcess]
    claims: dict[str, np.ndarray]
    labels: tuple[str, ...] | None = None
    asset_names: tuple[str, ...] = field(default=())
    generator_vectors: tuple[tuple[float, ...], ...] = field(default=())

    @property
    def is_polytope(self) -> bool:
        return isinstance(self.measure_set, MartingalePolytope)


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_list_of(items, check) -> bool:
    return isinstance(items, (list, tuple)) and all(check(v) for v in items)


def _numbers(section: str, value, ndims: tuple[int, ...]) -> np.ndarray:
    """A rectangular array of finite numbers with one of the given ranks;
    anything else is a ValidationError naming the section."""

    def numeric(v) -> bool:
        return _is_list_of(v, numeric) if isinstance(v, (list, tuple)) else _is_number(v)

    try:
        arr = np.array(value, dtype=float) if numeric(value) else None
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.ndim not in ndims:
        raise ValidationError(f"{section} must be a rectangular array of finite numbers")
    return arr


def _names(section: str, value) -> tuple[str, ...]:
    if not _is_list_of(value, lambda v: isinstance(v, str)):
        raise ValidationError(f"{section} must be a list of names")
    return tuple(value)


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be an object")
    return value


def parse_market(doc: dict) -> MarketModel:
    """Build a validated model from a parsed JSON document."""
    try:
        outcomes = doc["outcomes"]
        count = outcomes["count"]
        filtration = doc["filtration"]
        measures = doc["measures"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing or malformed section: {exc}") from exc
    if not _is_index(count):
        raise ValidationError("outcomes count must be an integer")
    if not isinstance(measures, dict):
        raise ValidationError("measures must be an object")

    labels = _names("outcomes labels", outcomes["labels"]) if "labels" in outcomes else None
    if labels is not None and len(labels) != count:
        raise ValidationError("labels must match the outcome count")

    def is_level(level) -> bool:
        return _is_list_of(level, lambda cell: _is_list_of(cell, _is_index))

    if not _is_list_of(filtration, is_level):
        raise ValidationError("filtration must list, per time, cells of integer outcome indices")
    space = build_space(count, filtration)

    processes = {}
    for name, matrix in sorted(_section(doc, "processes").items()):
        processes[name] = AdaptedProcess(space, _numbers(f"process {name!r}", matrix, (2,)))

    claims = {}
    for name, value in sorted(_section(doc, "claims").items()):
        vec = _numbers(f"claim {name!r}", value, (1,))
        if vec.shape != (count,):
            raise ValidationError(f"claim {name!r} must list one value per outcome")
        claims[name] = vec

    asset_names: tuple[str, ...] = ()
    generator_vectors: tuple[tuple[float, ...], ...] = ()
    if "generators" in measures:
        if not isinstance(measures["generators"], (list, tuple)):
            raise ValidationError("measures generators must be a list")
        gens = [Measure(_numbers(f"generator {i}", g, (1,)))
                for i, g in enumerate(measures["generators"])]
        for g in gens:
            if len(g) != count:
                raise ValidationError("generator length must equal the outcome count")
        mset: MeasureSet = GeneratorHull(space, gens)
        generator_vectors = tuple(tuple(map(float, g.probabilities)) for g in gens)
    elif "martingale_assets" in measures:
        asset_names = _names("measures martingale_assets", measures["martingale_assets"])
        missing = [a for a in asset_names if a not in processes]
        if missing:
            raise ValidationError(f"martingale_assets reference unknown processes {missing}")
        mset = MartingalePolytope(space, [processes[a] for a in asset_names], names=asset_names)
    else:
        raise ValidationError("measures must declare either generators or martingale_assets")

    return MarketModel(
        space=space,
        measure_set=mset,
        processes=processes,
        claims=claims,
        labels=labels,
        asset_names=asset_names,
        generator_vectors=generator_vectors,
    )


def _load_object(path: str) -> dict:
    """The JSON object in the file; malformed JSON or another top-level
    value is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be an object")
    return doc


def load_market(path: str) -> MarketModel:
    return parse_market(_load_object(path))


def market_document(model: MarketModel) -> dict:
    """Canonical document for a model; inverse of parse_market."""
    doc: dict = {
        "outcomes": {"count": model.space.outcome_count},
        "filtration": [
            [list(cell) for cell in level] for level in model.space.cells
        ],
    }
    if model.labels is not None:
        doc["outcomes"]["labels"] = list(model.labels)
    if model.asset_names:
        doc["measures"] = {"martingale_assets": list(model.asset_names)}
    else:
        doc["measures"] = {"generators": [list(g) for g in model.generator_vectors]}
    doc["processes"] = {
        name: [[float(v) for v in row] for row in proc.values]
        for name, proc in sorted(model.processes.items())
    }
    doc["claims"] = {
        name: [float(v) for v in vec] for name, vec in sorted(model.claims.items())
    }
    return doc


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def strategy_document(strategy, claim_name: str, mode: str, price: float, asset_names=()) -> dict:
    return {
        "claim": claim_name,
        "mode": mode,
        "price": float(price),
        "assets": list(asset_names),
        "cash": [[float(v) for v in row] for row in strategy.cash],
        "risky": [
            [[float(v) for v in outcome] for outcome in row] for row in strategy.risky
        ],
    }


def save_strategy(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))


def load_strategy(path: str) -> dict:
    """A strategy document as written by strategy_document, checked for its
    shape: cash and risky numeric arrays, assets a list of names and price
    a number.  Whether the assets exist is a question for the market it is
    checked against."""
    doc = _load_object(path)
    for key in ("cash", "risky"):
        if key not in doc:
            raise ValidationError(f"{path}: strategy lacks {key!r}")
    _numbers("strategy cash", doc["cash"], (2,))
    _numbers("strategy risky", doc["risky"], (2, 3))
    _names("strategy assets", doc.get("assets", []))
    if not _is_number(doc.get("price", 0.0)):
        raise ValidationError("strategy price must be a finite number")
    return doc
