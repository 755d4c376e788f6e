"""Only the measure-family module may tell a hull from a polytope.

Every other module goes through the MeasureSet contract: no isinstance test
against GeneratorHull and no read of a family's private representation.
The MartingalePolytope guards that reject hulls passed to polytope-only
operations are allowed.
"""

import ast
from pathlib import Path

import superhedge

PACKAGE = Path(superhedge.__file__).parent

FAMILY_PRIVATE = {
    "_matrix",
    "_null_basis",
    "_interior",
    "_A_eq",
    "_b_eq",
    "_homogeneous",
    "_vertices",
    "null_basis",
}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def layering_violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and "GeneratorHull" in _names(node.args[1])
        ):
            found.append(f"line {node.lineno}: isinstance(..., GeneratorHull)")
        if isinstance(node, ast.Attribute) and node.attr in FAMILY_PRIVATE:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


def test_checker_flags_family_branches():
    source = (
        "if isinstance(mset, (GeneratorHull, int)):\n"
        "    rows = mset._matrix\n"
        "basis = m.null_basis()\n"
        "ok = isinstance(mset, MartingalePolytope)\n"
    )
    assert layering_violations(source) == [
        "line 1: isinstance(..., GeneratorHull)",
        "line 2: reads ._matrix",
        "line 3: reads .null_basis",
    ]


def test_only_measures_knows_the_family():
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "measures.py":
            continue
        found = layering_violations(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}
