"""Only the measure-family module may tell a hull from a polytope.

Every other module goes through the MeasureSet contract: no isinstance test
against GeneratorHull and no read of a family's private representation,
its expectation functionals included.
The MartingalePolytope guards that reject hulls passed to polytope-only
operations are allowed.
"""

import ast
import re
from pathlib import Path

import superhedge
from superhedge import measures
from superhedge.measures import GeneratorHull, MartingalePolytope, MeasureSet
from superhedge.spaces import FilteredSpace

PACKAGE = Path(superhedge.__file__).parent

FAMILY_PRIVATE = {
    "_matrix",
    "_null_basis",
    "_interior",
    "_equalities",
    "_masses",
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


# the private tree numberings a FilteredSpace has kept, and whatever it keeps now
SPACE_PRIVATE = {"_cell_groups", "_numbering"} | {
    name for name in vars(FilteredSpace) if name.startswith("_") and not name.startswith("__")}


def space_private_reads(source: str) -> list[str]:
    return [f"line {node.lineno}: reads .{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in SPACE_PRIVATE]


def test_only_spaces_reads_the_tree_numbering_privately():
    """The space owns the tree: every other module of the package, and
    every test, reads the numbering through public accessors."""
    assert space_private_reads("order, starts = space._cell_groups[t]\n") == [
        "line 1: reads ._cell_groups"]
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        found = [] if path.name == "spaces.py" else space_private_reads(path.read_text("utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}


MEASURABILITY_CHECKS = {"check_adapted", "level_ranges"}

# where outside data comes in: a whole module, or one function of it
OUTSIDE_DATA = {("spaces.py", None), ("market_io.py", None), ("cli.py", None),
                ("processes.py", "class_k_supermartingale")}


def calls_by_owner(source: str, names) -> list[tuple[str | None, str]]:
    """(owner, "line N: name") of every call of one of names, the owner the
    top-level function or class that makes it, or Class.method for a call
    in a method; None for a call at module level."""
    found = []
    for top in ast.parse(source).body:
        parts = [(top, getattr(top, "name", None))]
        if isinstance(top, ast.ClassDef):
            parts = [(item, f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                      else top.name) for item in top.body]
        for part, owner in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in names:
                        found.append((owner, f"line {node.lineno}: {name}"))
    return found


def measurability_checks(source: str) -> list[tuple[str | None, str]]:
    """(top-level function or class, "line N: name") of every call of
    check_adapted or level_ranges; None for a call at module level."""
    return [(owner and owner.split(".")[0], line)
            for owner, line in calls_by_owner(source, MEASURABILITY_CHECKS)]


def test_checker_finds_measurability_checks():
    source = (
        "def f(space, v):\n"
        "    return check_adapted(space, v)\n"
        "class P:\n"
        "    def g(self, v):\n"
        "        spaces.level_ranges(self.space, v, 0)\n"
        "ok = cell_ranges(space, 0, row)\n"
        "report = check_adapted(space, v)\n"
    )
    assert measurability_checks(source) == [
        ("f", "line 2: check_adapted"),
        ("P", "line 5: level_ranges"),
        (None, "line 7: check_adapted"),
    ]


def test_measurability_is_checked_only_on_outside_data():
    """A process the package computes is built on the cells, measurable by
    construction: check_adapted and level_ranges run only where outside
    data comes in, in spaces.py (the public constructors), market_io.py,
    cli.py and the user weights of processes.class_k_supermartingale.
    hedging.py, decomposition.py and measures.py call neither."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = [line for owner, line in measurability_checks(path.read_text(encoding="utf-8"))
                 if not {(path.name, None), (path.name, owner)} & OUTSIDE_DATA]
        if found:
            offenders[path.name] = found
    assert offenders == {}


# the public constructors, which take outside outcome arrays, and the user
# weights of class_k_supermartingale
OUTSIDE_ARRAYS = {("spaces.py", "AdaptedProcess.__init__"),
                  ("spaces.py", "PredictableProcess.__init__"),
                  ("spaces.py", "TradingStrategy.__init__"),
                  ("processes.py", "class_k_supermartingale")}


def test_checker_names_the_calling_method():
    source = (
        "class P:\n"
        "    def __init__(self, space, v):\n"
        "        self.cells = at_cells(space, v)\n"
        "def f(space, rows):\n"
        "    return spaces.at_cells(space, rows)\n"
    )
    assert calls_by_owner(source, {"at_cells"}) == [("P.__init__", "line 3: at_cells"),
                                                     ("f", "line 5: at_cells")]


def test_outcome_arrays_are_gathered_only_where_outside_data_comes_in():
    """The family contract takes and gives cells, so no process the package
    computes is spread over the outcomes only to be gathered back:
    spaces.at_cells runs only in the public constructors of spaces.py and
    on the user weights of processes.class_k_supermartingale."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = [line for owner, line in calls_by_owner(path.read_text("utf-8"), {"at_cells"})
                 if (path.name, owner) not in OUTSIDE_ARRAYS]
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
    "ess_sup_cells",
    "gaps",
    "contains_two_point",
    "compensator",
}


def test_measure_set_contract_is_pinned():
    public = {name for name, value in vars(MeasureSet).items()
              if callable(value) and not name.startswith("_")}
    assert public == CONTRACT


def test_every_family_overrides_the_whole_contract():
    for family in (GeneratorHull, MartingalePolytope):
        assert CONTRACT - set(vars(family)) == set(), family.__name__


def test_the_docs_name_the_contract():
    """The measures.py module docstring and the README's bullets name
    exactly the pinned contract."""
    sentence = re.search(r"eight methods:(.*?)\.", " ".join(measures.__doc__.split())).group(1)
    assert sorted(re.split(r",\s*|\s+and\s+", sentence.strip())) == sorted(CONTRACT)
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = re.search(r"eight methods,.*?\n\n(\* .*?)\n\n(?!\* )", readme, re.S).group(1)
    assert sorted(re.findall(r"^\* `(\w+)\(", bullets, re.M)) == sorted(CONTRACT)


def test_only_lp_module_reaches_the_solver():
    """_lp is the one door to HiGHS and to scipy: no other module of the
    package imports anything from scipy, and none names scipy's linprog
    wrapper."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        named = set() if path.name == "_lp.py" else {
            m for m in _imports(source) if m.split(".")[0] == "scipy"}
        named |= _identifiers(source) & {"linprog"}
        if named:
            offenders[path.name] = sorted(named)
    assert offenders == {}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as "line N: name".  Imports
    from __future__ and lines marked "# noqa" are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_import_checker():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.sparse\n"
        "from . import _lp  # noqa: F401\n"
        "from .spaces import (\n"
        "    AdaptedProcess,\n"
        "    cell_reps,\n"
        ")\n"
        "x = np.zeros(cell_reps)\n"
    )
    assert unused_imports(source) == ["line 3: scipy", "line 5: AdaptedProcess"]


def test_no_module_imports_an_unused_name():
    """Every module reads what it imports; __init__.py re-exports its
    imports, so it is left out."""
    offenders = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found = unused_imports(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}
