"""Only the measure-family module may tell a hull from a polytope.

Every other module goes through the MeasureSet contract: no isinstance test
against GeneratorHull and no read of a family's private representation,
its expectation functionals included.
The MartingalePolytope guards that reject hulls passed to polytope-only
operations are allowed.
"""

import ast
from pathlib import Path

import superhedge
from superhedge.measures import GeneratorHull, MartingalePolytope, MeasureSet

PACKAGE = Path(superhedge.__file__).parent

FAMILY_PRIVATE = {
    "_matrix",
    "_null_basis",
    "_interior",
    "_A_eq",
    "_b_eq",
    "_homogeneous",
    "_nodes",
    "_vertices",
    "null_basis",
    "expectation_functionals",
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


ORACLE_ONLY = {"enumerate_vertices", "closure_vertices"}


def _identifiers(source: str) -> set[str]:
    tree = ast.parse(source)
    found = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return found


def test_no_module_enumerates_vertices():
    """Vertex enumeration is a test oracle only: no module of the package
    defines, imports or calls it."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        named = _identifiers(path.read_text(encoding="utf-8")) & ORACLE_ONLY
        if named:
            offenders[path.name] = sorted(named)
    assert offenders == {}


def _imports(source: str) -> set[str]:
    """Every module, or module.name, that the source imports; a relative
    "from . import x" gives x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
    return found


def test_no_module_takes_a_dense_null_space():
    """The free directions of a polytope are node-local: no module of the
    package imports scipy.linalg or names null_space."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        named = {m for m in _imports(source) if m.startswith("scipy.linalg")}
        named |= _identifiers(source) & {"null_space"}
        if named:
            offenders[path.name] = sorted(named)
    assert offenders == {}


def test_decomposition_asks_the_family():
    """The witness decomposition takes each step from the family: its module
    imports no LP solver and names neither family."""
    source = (PACKAGE / "decomposition.py").read_text(encoding="utf-8")
    assert {m for m in _imports(source) if "_lp" in m.split(".")} == set()
    assert _identifiers(source) & {"GeneratorHull", "MartingalePolytope"} == set()


CONTRACT = {
    "reference",
    "dominating_claim",
    "domination_rows",
    "cond_exp_sup",
    "ess_sup_rows",
    "step_gaps",
    "contains_masses",
    "compensator_increments",
}


def test_measure_set_contract_is_pinned():
    public = {name for name, value in vars(MeasureSet).items()
              if callable(value) and not name.startswith("_")}
    assert public == CONTRACT


def test_every_family_overrides_the_whole_contract():
    for family in (GeneratorHull, MartingalePolytope):
        assert CONTRACT - set(vars(family)) == set(), family.__name__
