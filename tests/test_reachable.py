"""Every public top-level def or class in ``src/ndsolve`` is referenced by
some module of ``src/ndsolve`` or by a ``bench/*.py`` script: a name that
only tests read belongs in ``tests/``, and a new one fails here.

A reference is a name or an attribute that a module reads.  An imported
name counts only where its module reads it, under its own name or its
alias: an import kept only to re-export the name, in ``__all__`` or not,
reads nothing, and neither does a string in ``__all__``.  A definition's
own name is no reference to it.  Members (methods, properties, fields) are
outside the scan."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ndsolve").glob("*.py"))
SCRIPTS = sorted((ROOT / "bench").glob("*.py"))

# read only by tests: none
TEST_ONLY = set()


def public_defs(tree):
    """Names of the public top-level functions and classes of a module."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def references(tree):
    """Every name and attribute a module reads, and the imported name
    behind each alias it reads."""
    read = set()
    aliases = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname is not None:
            aliases.append(node)
    return read | {alias.name.rpartition(".")[2] for alias in aliases if alias.asname in read}


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
             "class Imported:\n    pass\ndef aliased():\n    pass\ndef _private():\n    pass\n",
        "b": "from .a import Imported, aliased as renamed\n"
             "def user(m):\n    return m.attr() + called() + Imported() + renamed()\n"
             "def attr():\n    pass\n",
    }
    assert unreferenced(modules) == ["a.lonely", "b.user"]
    assert unreferenced(modules, ["import ndsolve.b\nndsolve.b.user()\n"]) == ["a.lonely"]


def test_scan_counts_no_import_that_only_reexports():
    modules = {
        "a": "def shown():\n    pass\n",
        "b": "from .a import shown\n__all__ = ['shown']\n",
        "c": "from .a import shown as alias\n",
    }
    assert unreferenced(modules) == ["a.shown"]
    assert unreferenced(modules, ["from ndsolve.b import shown\n"]) == ["a.shown"]
    assert unreferenced(modules, ["from ndsolve.b import shown\nshown()\n"]) == []


def test_only_the_pinned_names_are_test_only():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    scripts = [path.read_text(encoding="utf-8") for path in SCRIPTS]
    assert set(unreferenced(modules, scripts)) == TEST_ONLY
