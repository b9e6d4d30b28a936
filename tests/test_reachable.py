"""Every public top-level def or class in ``src/ndsolve`` is referenced by
some module of ``src/ndsolve`` or by a ``bench/*.py`` script, apart from a
pinned set of names that only tests read.  A new test-only name fails here,
and moving one of the pinned names out of ``src`` shrinks the set.

A reference is an imported name, a name or an attribute; a string in
``__all__`` is none.  A definition's own name is no reference to it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ndsolve").glob("*.py"))
SCRIPTS = sorted((ROOT / "bench").glob("*.py"))

# read only by tests (acceptance criteria 5 and 6, and unit tests)
TEST_ONLY = {
    "algorithms.capacity_reorder",
    "algorithms.is_capacity_ordered",
    "graphs.are_twins",
    "graphs.build_type_graph",
    "graver.g_inf_norm",
    "matrices.dual_graph",
    "matrices.verify_decomposition",
    "matrices.stacked_path_decomposition",
}


def public_defs(tree):
    """Names of the public top-level functions and classes of a module."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(tree):
    """Every imported name, name and attribute a module reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def unreferenced(modules, scripts=()):
    """module.name of each public top-level def or class of the modules
    (stem -> source) that no module and no script (sources) references."""
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    read = set().union(*map(references, trees.values()),
                       *(references(ast.parse(source)) for source in scripts))
    return sorted(f"{stem}.{name}" for stem, tree in trees.items()
                  for name in public_defs(tree) - read)


def test_scan_counts_imports_names_and_attributes_but_not_all():
    modules = {
        "a": "__all__ = ['lonely']\ndef lonely():\n    pass\ndef called():\n    pass\n"
             "class Imported:\n    pass\ndef _private():\n    pass\n",
        "b": "from .a import Imported\ndef user(m):\n    return m.attr() + called()\n"
             "def attr():\n    pass\n",
    }
    assert unreferenced(modules) == ["a.lonely", "b.user"]
    assert unreferenced(modules, ["import ndsolve.b\nndsolve.b.user()\n"]) == ["a.lonely"]


def test_only_the_pinned_names_are_test_only():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    scripts = [path.read_text(encoding="utf-8") for path in SCRIPTS]
    assert set(unreferenced(modules, scripts)) == TEST_ONLY
