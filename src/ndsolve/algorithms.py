"""Problem-level algorithms and the brute-force oracles that arbitrate them.

The oracles are assumption-free: the domination oracle checks arbitrary
vertex subsets by bipartite matching (it does not restrict itself to
capacity-ordered solutions, so exchange arguments can be tested against it),
the coloring oracle enumerates proper colorings directly on the graph, and
the cut oracle enumerates partitions.  All three refuse graphs above a size
guard.

On top of the LP relaxation of the linear domination model (relax_model:
the model's own integer rows over its finite boxes, minimized, which
lp.solve_lp answers as optimal or infeasible) sit the polynomial-time
routines: a proximity search for the smallest decodable class sizes in the
box around the fractional optimum (each coordinate within k^2, clamped to
the class size), and a rounding scheme that rounds the served-counts up,
takes per class the cheapest prefix with enough capacity, pins a class to
its full size whenever its capacity cannot keep up, and re-solves; after
at most k pins the rounding succeeds.

These two are the CDS routes that run in f(k) poly(n).  Each LP has O(k^2)
variables and k rows plus one per distinct capacity of a class.  Proximity
searches its box with backends.solve_boxed on a k-variable model whose one
convex row is the Hall conditions (models.cds_hall_row, O(2^k) per test),
and decodes only the optimum it returns; rounding decodes once, so each
makes one vertex-level matching.  The ilp and convex models under
solve_boxed are exact cross-checks, not such routes: their
branch-and-bound branches over the y variables, whose boxes grow with the
class sizes.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from operator import countOf

from .backends import solve_boxed
from .graphs import Graph, TypeGraph, twin_partition
from .ipmodel import IpModel, Linear
from .lp import LpProblem, solve_lp
from .matching import max_bipartite_matching
from .models import (
    CdsSolution,
    _match_subset,
    build_cds_ilp,
    cds_hall_row,
    cds_pairs,
    check_coloring,
    decode_cds,
)

CDS_SIZE_GUARD = 10
COLORING_SIZE_GUARD = 9
CUT_SIZE_GUARD = 10

__all__ = [
    "capacity_reorder",
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


def cds_brute(g: Graph, max_n: int = CDS_SIZE_GUARD) -> CdsSolution:
    """Smallest capacitated dominating set by subset enumeration."""
    _guard(g, max_n, "domination")
    for size in range(g.n + 1):
        for d in itertools.combinations(range(g.n), size):
            assignment = _match_subset(g, set(d))
            if assignment is not None:
                return CdsSolution.make(d, assignment)
    raise AssertionError("the full vertex set always dominates")


def sumcol_brute(g: Graph, max_n: int = COLORING_SIZE_GUARD) -> dict:
    """Minimum-sum proper coloring by exhaustive search.

    Colors range over 1..n; restricting early vertices to low colors would
    be wrong here, since color values carry cost (the cheapest coloring may
    give its first vertex a high color when a larger class takes color 1).
    Branches are cut by the trivial remaining-cost bound.
    """
    _guard(g, max_n, "coloring")
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


def maxqcut_brute(g: Graph, q: int, max_n: int = CUT_SIZE_GUARD) -> dict:
    """Partition into q parts maximizing cross edges, by exhaustive search."""
    _guard(g, max_n, "cut")
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
# capacity-ordered exchange
# ---------------------------------------------------------------------------

def _capacity_order(g: Graph):
    classes = twin_partition(g).classes
    return [sorted(c, key=lambda v: (-g.capacity[v], v)) for c in classes]


def capacity_reorder(g: Graph, sol: CdsSolution) -> CdsSolution:
    """Exchange dominators until each class holds a capacity-ordered prefix.

    One exchange swaps a chosen vertex v for an unchosen higher-capacity
    twin u; u inherits v's load and v inherits u's old dominator (or u
    itself when u was served by v).  Size is preserved and the number of
    out-of-prefix picks strictly drops, so this terminates.
    """
    if not check_cds(g, sol):
        raise ValueError("input is not a valid solution")
    classes = _capacity_order(g)
    dom = set(sol.dominators)
    delta = dict(sol.assignment)

    def mismatch():
        score = 0
        for cls in classes:
            inside = set(v for v in cls if v in dom)
            prefix = set(cls[: len(inside)])
            score += len(prefix.symmetric_difference(inside))
        return score

    while True:
        swap = None
        for cls in classes:
            inside = [v for v in cls if v in dom]
            prefix = cls[: len(inside)]
            extra = [v for v in inside if v not in set(prefix)]
            missing = [u for u in prefix if u not in dom]
            if extra:
                swap = (missing[0], extra[0])
                break
        if swap is None:
            break
        u, v = swap
        before = mismatch()
        new_delta = {}
        for x, y in delta.items():
            if x == u:
                continue
            new_delta[x] = u if y == v else y
        y0 = delta[u]
        new_delta[v] = u if y0 == v else y0
        dom.discard(v)
        dom.add(u)
        delta = new_delta
        if mismatch() >= before:
            raise RuntimeError(f"exchange {u}<->{v} did not reduce the out-of-prefix picks")
    out = CdsSolution.make(dom, delta)
    if not check_cds(g, out) or out.size != sol.size:
        raise RuntimeError("capacity reorder produced an invalid or resized solution")
    return out


def is_capacity_ordered(g: Graph, dominators) -> bool:
    dom = set(dominators)
    return all(
        set(cls[: len([v for v in cls if v in dom])]) == {v for v in cls if v in dom}
        for cls in _capacity_order(g)
    )


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


def cds_proximity_solve(t: TypeGraph, g: Graph, budget=None) -> CdsSolution:
    """The smallest class sizes inside the proximity box around the
    relaxation optimum that pass the Hall conditions, decoded.

    solve_boxed searches the box on a k-variable model: minimize sum x with
    no rows and one convex row, models.cds_hall_row.  It returns the
    lexicographically smallest optimum, the first smallest decodable x, and
    certifies it.  Candidates are tested on the type graph, O(2^k) each,
    never by a vertex-level matching: only the optimum goes through
    decode_cds.  Its cost is one LP over O(k^2) variables and a search of a
    box of at most (2k^2 + 2)^k points, so f(k) poly(n).  The search runs
    under budget (a backends.Budget, the default when None).
    """
    res = solve_lp(relax_model(build_cds_ilp(t)))
    if not res.optimal:
        raise RuntimeError("domination relaxation must be feasible and bounded")
    lo, hi = proximity_box(t, res.point)
    box = IpModel(objective=Linear((1,) * t.k), n_vars=t.k, lower=lo, upper=hi, rows=(),
                  convex_rows=(cds_hall_row(t),))
    found = solve_boxed(box, budget)
    if not found.optimal:
        raise RuntimeError("no valid point inside the proximity box")
    sol = decode_cds(t, g, found.point)
    if sol is None:
        raise RuntimeError(f"class sizes {list(found.point)} pass the Hall conditions but do not decode")
    return sol


def cds_rounding_approx(t: TypeGraph, g: Graph) -> CdsSolution:
    """Round the relaxation: served counts go up, class sizes follow.

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
        new_pins = pins | fails
        if fails and new_pins != pins and len(pins) < k:
            pins = new_pins
            continue
        # the shortest prefix covering need[i] (f_i is non-decreasing), or all of class i
        x_hat = [min(bisect_left(prefix[i], need[i]), t.weights[i]) for i in range(k)]
        for j in range(k):
            cover = sum(y_hat[(i, j)] for i in sorted(t.neighbors(j)))
            x_hat[j] = max(x_hat[j], t.weights[j] - cover)
        sol = decode_cds(t, g, tuple(x_hat))
        if sol is None:
            raise RuntimeError(f"rounded class sizes {x_hat} do not decode to a dominating set")
        return sol
