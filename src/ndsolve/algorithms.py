"""Problem-level algorithms and the brute-force oracles that arbitrate them.

The oracles are assumption-free: the domination oracle checks arbitrary
vertex subsets by bipartite matching (it does not restrict itself to
capacity-ordered solutions, so it also arbitrates the exchange argument
that justifies them), the coloring oracle enumerates proper colorings
directly on the graph, and the cut oracle enumerates partitions.  Each
refuses a graph above its size guard, a module constant (CDS_SIZE_GUARD,
COLORING_SIZE_GUARD, CUT_SIZE_GUARD).

On top of the LP relaxation of the linear domination model (relax_model:
the model's own integer rows over its finite boxes, minimized, which
lp.solve_lp answers as optimal or infeasible) sit the CDS routes that run
in f(k) poly(n): a proximity search for the smallest class sizes that pass
the Hall conditions in the box around the fractional optimum, and a
rounding of the served counts.  Each LP has O(k^2) variables and k rows
plus one per distinct capacity of a class.  Both return class sizes, which
cli.Route decodes at type level (models.decode_cds); only the domination
oracle matches vertices to dominators.  The ilp model under solve_boxed is
an exact cross-check, not such a route: its branch-and-bound branches over
the served counts y, whose boxes grow with the class sizes.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left
from collections import Counter
from operator import countOf

from .backends import solve_boxed
from .graphs import Graph, TypeGraph
from .ipmodel import Linear
from .lp import LpProblem, solve_lp
from .matching import max_bipartite_matching
from .models import (
    CdsSolution,
    build_cds_convex,
    build_cds_ilp,
    cds_pairs,
    check_coloring,
    decode_cds,  # noqa: F401  (bench/spans.py hooks this name)
)

CDS_SIZE_GUARD = 10
COLORING_SIZE_GUARD = 9
CUT_SIZE_GUARD = 10

__all__ = [
    "cds_brute",
    "cds_proximity_solve",
    "cds_rounding_approx",
    "check_cds",
    "check_coloring",
    "cut_value",
    "max_bipartite_matching",
    "maxqcut_brute",
    "proximity_box",
    "relax_model",
    "sumcol_brute",
]


# ---------------------------------------------------------------------------
# witness checkers (always on the original graph)
# ---------------------------------------------------------------------------

def check_cds(g: Graph, sol: CdsSolution) -> bool:
    """Valid iff the assignment covers exactly V minus D, maps along edges
    into D, and respects every dominator's capacity."""
    if g.capacity is None:
        raise ValueError("graph carries no capacities")
    dom = sol.dominators
    if not all(0 <= v < g.n for v in dom):
        return False
    delta = dict(sol.assignment)
    if set(delta) != set(range(g.n)) - dom:
        return False
    if not all(y in dom and g.has_edge(x, y) for x, y in delta.items()):
        return False
    loads = Counter(delta.values())
    return all(loads[y] <= g.capacity[y] for y in loads)


def cut_value(g: Graph, partition) -> int:
    """Number of edges whose endpoints land in distinct parts: per run of
    g, the count of its larger ends outside the part of its head."""
    part = partition.__getitem__
    return sum(
        len(run) - countOf(map(part, run), part(u)) for u, run in zip(g.heads, g.runs)
    )


def coloring_cost(coloring) -> int:
    return sum(coloring.values())


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _guard(g, limit, what):
    if g.n > limit:
        raise ValueError(f"{what} oracle guard: {g.n} > {limit}")


def _match_subset(g: Graph, dominators):
    """Assignment for an explicit dominator set, or None."""
    outside = [v for v in range(g.n) if v not in dominators]
    nbrs = g.neighbors
    adj = {v: [u for u in nbrs[v] if u in dominators] for v in outside}
    cap = {v: g.capacity[v] for v in dominators}
    size, assignment = max_bipartite_matching(outside, adj, cap)
    return assignment if size == len(outside) else None


def cds_brute(g: Graph) -> CdsSolution:
    """Smallest capacitated dominating set by subset enumeration."""
    _guard(g, CDS_SIZE_GUARD, "domination")
    for size in range(g.n + 1):
        for d in itertools.combinations(range(g.n), size):
            assignment = _match_subset(g, set(d))
            if assignment is not None:
                return CdsSolution.make(d, assignment)
    raise AssertionError("the full vertex set always dominates")


def sumcol_brute(g: Graph) -> dict:
    """Minimum-sum proper coloring by exhaustive search.

    Colors range over 1..n; restricting early vertices to low colors would
    be wrong here, since color values carry cost (the cheapest coloring may
    give its first vertex a high color when a larger class takes color 1).
    Branches are cut by the trivial remaining-cost bound.
    """
    _guard(g, COLORING_SIZE_GUARD, "coloring")
    n = g.n
    below = [nb[:bisect_left(nb, v)] for v, nb in enumerate(g.neighbors)]
    colors = [0] * n
    best_cost = [n * (n + 1) // 2 + 1]
    best = [None]

    def rec(d, cost):
        if cost + (n - d) >= best_cost[0]:
            return
        if d == n:
            best_cost[0] = cost
            best[0] = dict(enumerate(colors))
            return
        for c in range(1, n + 1):
            if all(colors[u] != c for u in below[d]):
                colors[d] = c
                rec(d + 1, cost + c)
        colors[d] = 0

    try:
        rec(0, 0)
    finally:
        del rec  # it holds itself through its cell
    return dict(best[0]) if n else {}


def maxqcut_brute(g: Graph, q: int) -> dict:
    """Partition into q parts maximizing cross edges, by exhaustive search."""
    _guard(g, CUT_SIZE_GUARD, "cut")
    if q < 2:
        raise ValueError("need at least two parts")
    n = g.n
    below = [nb[:bisect_left(nb, v)] for v, nb in enumerate(g.neighbors)]
    open_above = [0] * (n + 1)  # edges whose larger endpoint is >= d
    for v in range(n - 1, -1, -1):
        open_above[v] = open_above[v + 1] + len(below[v])
    parts = [0] * n
    best_val = [-1]
    best = [None]

    def rec(d, cut):
        if cut + open_above[d] <= best_val[0]:
            return
        if d == n:
            best_val[0] = cut
            best[0] = dict(enumerate(parts))
            return
        for p in range(1, q + 1):
            parts[d] = p
            rec(d + 1, cut + sum(1 for u in below[d] if parts[u] != p))
        parts[d] = 0

    try:
        rec(0, 0)
    finally:
        del rec  # it holds itself through its cell
    return best[0] if n else {}


# ---------------------------------------------------------------------------
# LP relaxation plumbing
# ---------------------------------------------------------------------------

def relax_model(model, pins=None) -> LpProblem:
    """The continuous relaxation of a linear model: its own integer rows
    over its finite boxes, minimized; pins fix chosen variables."""
    if model.convex_rows:
        raise ValueError("relaxation needs a fully linear model")
    if not isinstance(model.objective, Linear):
        raise ValueError("relaxation needs a linear objective")
    lower = list(model.lower)
    upper = list(model.upper)
    for i, v in (pins or {}).items():
        lower[i] = upper[i] = v
    return LpProblem.make(model.objective.coeffs, model.rows, lower, upper)


def proximity_box(t: TypeGraph, lp_point):
    """Per-class integer bounds (lo, hi) around the fractional class sizes:
    each within k^2 of the relaxation, clamped to [0, w_i]."""
    ksq = t.k * t.k
    lo = tuple(max(0, math.floor(lp_point[i]) - ksq) for i in range(t.k))
    hi = tuple(min(t.weights[i], math.ceil(lp_point[i]) + ksq) for i in range(t.k))
    return lo, hi


def cds_proximity_solve(t: TypeGraph, budget=None):
    """(x, nodes): the smallest class sizes x inside the proximity box
    around the relaxation optimum that pass the Hall conditions, and the
    nodes of the search that found them.

    solve_boxed searches models.build_cds_convex with its class box cut
    down to the proximity box, and returns the lexicographically smallest
    optimum there, certified.  Candidates are tested on the type graph,
    O(2^k) each.  Its cost is one LP over O(k^2) variables and a search of
    at most (2k^2 + 2)^k points, so f(k) poly(n).  The search runs under
    budget (a backends.Budget, the default when None).  The answer is
    optimal only if an optimum lies in the box: that k^2 proximity bound is
    tested (acceptance criterion 5), not proved.  The convex/boxed route
    searches the whole class box and is exact by the proof in
    models.cds_hall_row.
    """
    res = solve_lp(relax_model(build_cds_ilp(t)))
    if not res.optimal:
        raise RuntimeError("domination relaxation must be feasible and bounded")
    lo, hi = proximity_box(t, res.point)
    found = solve_boxed(dataclasses.replace(build_cds_convex(t), lower=lo, upper=hi), budget)
    if not found.optimal:
        raise RuntimeError("no valid point inside the proximity box")
    return found.point, found.nodes


def cds_rounding_approx(t: TypeGraph):
    """(x, 0): round the relaxation, served counts go up and class sizes x
    follow; no search, so no nodes.

    x_hat_i is the smallest prefix whose capacity covers the rounded-up
    demand served by class i, then raised so every class is fully covered.
    A class whose total capacity cannot cover its rounded demand is pinned
    to full size and the relaxation is re-solved (at most k times).
    """
    model = build_cds_ilp(t)
    pairs = cds_pairs(t)
    prefix = t.capacity_prefix
    k = t.k
    pins = set()
    while True:
        res = solve_lp(relax_model(model, pins={i: t.weights[i] for i in pins}))
        if not res.optimal:
            raise RuntimeError("domination relaxation must be feasible and bounded")
        y_hat = {p: math.ceil(res.point[k + idx]) for idx, p in enumerate(pairs)}
        need = [sum(y_hat[(i, j)] for j in sorted(t.neighbors(i))) for i in range(k)]
        fails = {i for i in range(k) if prefix[i][-1] < need[i]}
        if not fails <= pins:
            pins |= fails
            continue
        # the shortest prefix covering need[i] (f_i is non-decreasing), or all of class i
        x_hat = [min(bisect_left(prefix[i], need[i]), t.weights[i]) for i in range(k)]
        for j in range(k):
            cover = sum(y_hat[(i, j)] for i in sorted(t.neighbors(j)))
            x_hat[j] = max(x_hat[j], t.weights[j] - cover)
        return tuple(x_hat), 0
