"""No function in ``src/ndsolve`` calls itself by name, so no route's depth
is bounded by the interpreter's recursion limit; searches keep their own
stacks.  The brute-force oracles are the exception: they are reference
code, and their size guards bound their depth."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ndsolve").glob("*.py"))

ALLOWED = {
    # one level per vertex, at most COLORING_SIZE_GUARD (9) of them
    "algorithms.sumcol_brute.rec",
    # one level per vertex, at most CUT_SIZE_GUARD (10) of them
    "algorithms.maxqcut_brute.rec",
}


def self_calls(source, module):
    """Qualified names (module.outer.inner) of the functions in one module's
    source whose body calls the function's own name."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == child.name for call in ast.walk(child)):
                    found.append(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(source), module)
    return found


def test_scan_finds_self_calls_at_any_nesting():
    source = ("def top(n):\n    return top(n - 1)\n"
              "class C:\n    def m(self):\n        def rec(d):\n            return [rec(d - 1)]\n"
              "        return rec\n"
              "def other():\n    return top(1) + C().m()\n")
    assert self_calls(source, "probe") == ["probe.top", "probe.C.m.rec"]


def test_only_the_oracles_recurse():
    found = [name for path in SOURCES
             for name in self_calls(path.read_text(encoding="utf-8"), path.stem)]
    assert sorted(found) == sorted(ALLOWED)
