"""A ladder in n at fixed k, measured by work counters rather than clocks.

One template, k = 3: (clique, independent, clique) with n/3 vertices each,
cross edges {0,1} and {1,2}, vertex labels shuffled with seed 1; the
domination rungs give the three classes capacities 2, 1 and 3.  The
type-level rungs build the template's type graph directly, with no graph,
so they reach n = 3*10^4 in milliseconds.  Counters are deterministic, so
each ceiling below is today's count: a change that makes a route do more
work on a rung fails here, and one that makes it do less lowers the
ceiling on purpose.
"""

import contextlib
import io

import pytest

from ndsolve import algorithms, backends
from ndsolve.algorithms import cds_proximity_solve, check_cds, cut_value, maxqcut_brute
from ndsolve.backends import Budget, solve_boxed, solve_nfold
from ndsolve.cli import main
from ndsolve.errors import BudgetError
from ndsolve.graphs import CLIQUE, TypeGraph, type_graph
from ndsolve.instances import INDEPENDENT, BlowupTemplate, Instance, generate_blowup, write_instance
from ndsolve.models import (
    build_cds_ilp,
    build_maxqcut,
    build_sumcol_convex,
    build_sumcol_graver,
    build_sumcol_nfold,
    class_slots,
)

LADDER_BUDGET = Budget(max_nodes=2_000_000)


def ladder_graph(n, capacities=None):
    w = n // 3
    caps = None if capacities is None else tuple((c,) * w for c in capacities)
    template = BlowupTemplate((w, w, w), (CLIQUE, INDEPENDENT, CLIQUE),
                              frozenset({(0, 1), (1, 2)}), caps)
    return generate_blowup(template, seed=1)


def ladder_type_graph(n):
    """The ladder template's type graph built directly, classes as ranges,
    with no Graph: the front end, O(n + m), does not run."""
    w = n // 3
    return TypeGraph(k=3, classes=tuple(range(i * w, (i + 1) * w) for i in range(3)),
                     weights=(w, w, w), kinds=(CLIQUE, INDEPENDENT, CLIQUE),
                     edges=frozenset({(0, 0), (2, 2), (0, 1), (1, 2)}))


def ladder_sumcol_value(n):
    # the independent class takes colour 1, then w colours of one vertex
    # from each clique: w + 2 * (2 + ... + (w + 1))
    w = n // 3
    return w + (w + 1) * (w + 2) - 2


# (B&B nodes, value) of max-q-cut at q = 3.  Before quadratic objectives
# had a bound the search enumerated: 646, 8,436, 205,030 and 632,490 nodes
# at n = 6, 12, 24 and 30 (same values), and more than 2,000,000 at n = 75.
MAXQCUT_Q3 = {6: (40, 10), 12: (89, 40), 24: (484, 160), 30: (719, 250), 75: (14_844, 1562)}


@pytest.mark.parametrize("n", sorted(MAXQCUT_Q3))
def test_maxqcut_q3_nodes(n):
    g = ladder_graph(n)
    res = solve_boxed(build_maxqcut(type_graph(g), 3), LADDER_BUDGET)
    ceiling, value = MAXQCUT_Q3[n]
    assert res.nodes <= ceiling
    assert -res.value == value  # the model minimizes -cut
    if n <= 6:
        assert -res.value == cut_value(g, maxqcut_brute(g, 3))


# (B&B nodes, value) of the n-fold sum-coloring model on solve_boxed, which
# prunes from the model's greedy start.  At n = 30 the search took 46,199
# nodes with one brick per vertex (30 bricks) and 19,091 with 21; without
# the start it took 1,911,139 nodes at n = 150.  The model has five
# variables per brick, 5(2n/3 + 1) in all, one search level each: while the
# search recursed once per level, n = 300 (1,005 variables) passed the
# interpreter's recursion limit; it keeps its own stack now.
NFOLD_BOXED = {30: (128, 140), 75: (268, 725), 150: (519, 2700), 300: (1028, 10_400),
               600: (2018, 40_800)}


def test_sumcol_nfold_boxed_nodes():
    for n, (ceiling, value) in NFOLD_BOXED.items():
        res = solve_boxed(build_sumcol_nfold(type_graph(ladder_graph(n))), LADDER_BUDGET)
        assert res.nodes <= ceiling, n
        assert res.value == value == ladder_sumcol_value(n)


def test_sumcol_nfold_boxed_budget_stop_leaves_nothing_behind():
    # a budget stop deep in the n = 600 search, then the same model solved
    # in full: the second search starts from its own empty stack
    model = build_sumcol_nfold(type_graph(ladder_graph(600)))
    with pytest.raises(BudgetError, match="branch-and-bound node budget exceeded"):
        solve_boxed(model, Budget(max_nodes=1000))
    res = solve_boxed(model, LADDER_BUDGET)
    ceiling, value = NFOLD_BOXED[600]
    assert res.nodes <= ceiling
    assert res.value == value


# (B&B nodes, value) of the sum-coloring catalog models on solve_boxed.
# Without catalog_remainder_bound the searches took 35, 105 and 205 nodes
# (convexfd) and 58, 158 and 308 (graver), growing with n.
CATALOG_BOXED = {
    "convexfd": (build_sumcol_convex, {30: (5, 140), 75: (17, 725), 150: (22, 2700)}),
    "graver": (build_sumcol_graver, {30: (8, 140), 75: (20, 725), 150: (25, 2700)}),
}


@pytest.mark.parametrize("model,n", [(m, n) for m in CATALOG_BOXED for n in (30, 75, 150)])
def test_sumcol_catalog_boxed_nodes(model, n):
    build, rungs = CATALOG_BOXED[model]
    res = solve_boxed(build(type_graph(ladder_graph(n))), LADDER_BUDGET)
    ceiling, value = rungs[n]
    assert res.nodes <= ceiling
    assert res.value == value == ladder_sumcol_value(n)


# B&B nodes of the catalog models on type-level rungs; at n = 150 they are
# the vertex-level rung's.  Without catalog_remainder_bound they
# took 4n/3 + 5 (convexfd) and 2n + 8 (graver) nodes.
CATALOG_TYPE_LEVEL = {
    "convexfd": (build_sumcol_convex, {150: 22, 3_000: 81, 30_000: 246}),
    "graver": (build_sumcol_graver, {150: 25, 3_000: 84, 30_000: 249}),
}


@pytest.mark.parametrize("model,n", [(m, n) for m in CATALOG_TYPE_LEVEL
                                     for n in (150, 3_000, 30_000)])
def test_sumcol_catalog_boxed_nodes_at_type_level(model, n):
    build, ceilings = CATALOG_TYPE_LEVEL[model]
    res = solve_boxed(build(ladder_type_graph(n)), LADDER_BUDGET)
    assert res.nodes <= ceilings[n]
    assert res.value == ladder_sumcol_value(n)


def test_cds_ilp_boxed_nodes():
    # the branching runs over the y variables, whose boxes grow with n
    res = solve_boxed(build_cds_ilp(type_graph(ladder_graph(30, capacities=(2, 1, 3)))),
                      LADDER_BUDGET)
    assert res.value == 9
    assert res.nodes <= 10_066


# (value, augmentation steps, largest surviving layer of the brick DP) of
# nfold/nfold: Budget(max_dp_states=L) solves and L - 1 raises.  The greedy
# start is optimal here, so the one DP finds no step; from the start that
# gave each class its own colors it took one step.
NFOLD = {30: (140, 0, 242), 75: (725, 0, 1352)}


@pytest.mark.parametrize("n", sorted(NFOLD))
def test_sumcol_nfold_dp_states(n):
    model = build_sumcol_nfold(type_graph(ladder_graph(n)))
    value, steps, largest = NFOLD[n]
    res = solve_nfold(model, Budget(max_dp_states=largest))
    assert (res.value, res.nodes) == (value, steps)
    with pytest.raises(BudgetError, match="n-fold DP state budget exceeded"):
        solve_nfold(model, Budget(max_dp_states=largest - 1))


@pytest.mark.parametrize("n", [6, 30, 75])
def test_sumcol_nfold_bricks_are_class_slots(n):
    t = type_graph(ladder_graph(n))
    bricks = build_sumcol_nfold(t).nfold.n
    assert bricks == sum(class_slots(t, i) for i in range(t.k)) == 2 * (n // 3) + 1


# (solve_boxed nodes, value) of cds_proximity_solve's one box search, each
# node a candidate box tested on the type graph.  Its own enumeration
# before tested 180, 1,308 and 1,323 candidates at n = 30, 75 and 150, and
# before the type-level check each went through a vertex-level matching
# (8.3 s at n = 150).
PROXIMITY = {30: (35, 9), 75: (80, 21), 150: (164, 42)}


def record_calls(monkeypatch, owner, *names):
    """{name: the result of each call}, kept by wrappers of owner's functions."""
    calls = {name: [] for name in names}
    for name in names:
        def recorded(*args, _real=getattr(owner, name), _results=calls[name], **kwargs):
            _results.append(_real(*args, **kwargs))
            return _results[-1]

        monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("n", sorted(PROXIMITY))
def test_cds_proximity_tests_candidates_on_the_type_graph(n, monkeypatch):
    calls = record_calls(monkeypatch, algorithms, "solve_boxed", "decode_cds")
    g = ladder_graph(n, capacities=(2, 1, 3))
    t = type_graph(g)
    sol = cds_proximity_solve(t, g)
    ceiling, value = PROXIMITY[n]
    assert len(calls["decode_cds"]) == 1
    [search] = calls["solve_boxed"]
    assert search.nodes <= ceiling and search.value == value
    assert sol.size == value and check_cds(g, sol)
    if n <= 30:
        assert solve_boxed(build_cds_ilp(t), LADDER_BUDGET).value == value


def solve_default(tmp_path, problem, capacities=None, n=150):
    """stdout of `ndsolve solve FILE`, no route flag, on the ladder file."""
    path = str(tmp_path / f"{problem}.txt")
    write_instance(Instance(ladder_graph(n, capacities), problem), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", "--no-timing", path]) == 0
    return out.getvalue().splitlines()


def test_cds_default_route_is_proximity(tmp_path, monkeypatch):
    # the default's rung: ilp/boxed stops at a 2M-node budget on this file
    calls = record_calls(monkeypatch, algorithms, "solve_boxed", "decode_cds")
    lines = solve_default(tmp_path, "cds", capacities=(2, 1, 3))
    assert lines[2].startswith("algo: proximity value: 42 witness: D={")
    assert lines[3] == "nodes: 0 millis: 0"
    assert len(calls["decode_cds"]) == 1
    assert [res.nodes <= PROXIMITY[150][0] for res in calls["solve_boxed"]] == [True]


def test_sumcol_default_route_is_graver_augment(tmp_path, monkeypatch):
    # the default's rung: nfold/boxed takes 519 nodes on this file, and
    # 1,028 and 2,018 on the n = 300 and 600 rungs (NFOLD_BOXED)
    calls = record_calls(monkeypatch, backends, "cached_graver_basis")
    lines = solve_default(tmp_path, "sumcol")
    assert lines[2:4] == ["model: sumcol/graver backend: augment", "value: 2700"]
    assert lines[5] == "nodes: 1 millis: 0"  # augmentation steps
    assert [len(basis) for basis in calls["cached_graver_basis"]] == [2]
