"""IP models over type graphs, and decoders back to combinatorial witnesses.

Capacitated domination comes in two equivalent flavors: a convex model whose
capacity rows bound the demand served by class i by the concave function
f_i(x_i), and a fully linear model where each concave bound is replaced by
its tangents, one per distinct capacity of the class.

Sum coloring comes in three.  The color-indexed model has one 0/1 variable
per (class, color) pair and an n-fold row layout (bricks = colors).  The
catalog models instead count how many color classes realize each independent
set I of the type graph: the size sigma(I) of such a color class is fixed,
so sorting classes by decreasing size makes the total cost sum_j cc(y_j)
over columns j of the size histogram, where y_j counts classes of size >= j
and cc(y) = y(y+1)/2 is the cost of a column of height y.  Only the sizes in
Gamma = {sigma(I)} matter; chaining counters z_i over consecutive critical
sizes i keeps every row short, which is what the stacked (F over L) variant
exploits.

Max-q-cut counts, per class pair and part pair, the product of how many
vertices land in each side; the cut is an indefinite quadratic to maximize
(cross edges are being counted, not avoided).  Like every model, this one
minimizes: its objective is -cut, and the max-q-cut route in cli.ROUTES
flips the sign back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul, sub

from .graphs import CLIQUE, Graph, TypeGraph, domination_capacity
from .ipmodel import (
    EQ,
    GE,
    ConvexRow,
    GeneralConvex,
    IpModel,
    Linear,
    LinearRow,
    NFoldBlocks,
    Quadratic,
    SeparableConvex,
    StackedBlocks,
    dump_model,
)
from .matching import max_bipartite_matching
from .matrices import IntMatrix

__all__ = [
    "CdsSolution",
    "ColorClassCatalog",
    "DecodeError",
    "build_catalog",
    "build_cds_convex",
    "build_cds_ilp",
    "build_maxqcut",
    "build_sumcol_convex",
    "build_sumcol_graver",
    "build_sumcol_nfold",
    "cds_hall_sets",
    "cds_hall_row",
    "column_cost",
    "decode_cds",
    "decode_coloring",
    "decode_partition",
    "dump_model",
    "split_stacked_blocks",
]


class DecodeError(ValueError):
    """A model point could not be materialized into a valid witness."""


# ---------------------------------------------------------------------------
# capacitated dominating set (models "cds")
# ---------------------------------------------------------------------------

def cds_pairs(t: TypeGraph):
    """Ordered (i, j) with j in N(i): y_ij counts vertices of class j served
    by dominators in class i."""
    return [(i, j) for i in range(t.k) for j in sorted(t.neighbors(i))]


def _cds_frame(t: TypeGraph):
    if t.sorted_capacities is None:
        raise ValueError("domination models need vertex capacities")
    k = t.k
    pairs = cds_pairs(t)
    pos = {p: k + idx for idx, p in enumerate(pairs)}
    lower = [0] * (k + len(pairs))
    upper = list(t.weights) + [
        min(t.weights[j], domination_capacity(t, i, t.weights[i])) for i, j in pairs
    ]
    rows = []
    for j in range(t.k):
        coeffs = {pos[(i, j)]: 1 for i in sorted(t.neighbors(j))}
        coeffs[j] = 1  # x_j: vertices inside the set need no dominator
        rows.append(LinearRow.make(coeffs, GE, t.weights[j]))
    return k, pairs, pos, lower, upper, rows


def build_cds_convex(t: TypeGraph) -> IpModel:
    """Linear objective |D|, domination rows, and one concave capacity bound
    per class kept as a convex feasibility rule."""
    k, pairs, pos, lower, upper, rows = _cds_frame(t)
    convex_rows = []
    for i in range(k):
        served = tuple(pos[(i, j)] for j in sorted(t.neighbors(i)))
        f_i = t.capacity_prefix[i]  # f_i(x_i) = f_i[x_i], as 0 <= x_i <= w_i in the box

        def fn(point, i=i, served=served, f_i=f_i):
            return sum(point[p] for p in served) - f_i[point[i]]

        def box_min(lo, hi, i=i, served=served, f_i=f_i):
            return sum(lo[p] for p in served) - f_i[hi[i]]

        convex_rows.append(ConvexRow(fn, box_min, name=f"cap_{i}"))
    return IpModel(
        objective=Linear(tuple([1] * k + [0] * len(pairs))),
        n_vars=k + len(pairs),
        lower=tuple(lower),
        upper=tuple(upper),
        rows=tuple(rows),
        convex_rows=tuple(convex_rows),
        tag="cds",
    )


def build_cds_ilp(t: TypeGraph) -> IpModel:
    """Same variables; each concave capacity bound becomes its tangents.

    For class i with capacities c_1 >= c_2 >= ... the tangent at prefix
    length l is  sum_j y_ij <= f_i(l-1) + c_l * (x_i - l + 1).  When c_l =
    c_{l+1} the tangent at l+1 is the same row, as f_i(l) = f_i(l-1) + c_l,
    so only the first l of each run of equal capacities gets a row: one per
    distinct capacity of the class, however large the class.
    """
    k, pairs, pos, lower, upper, rows = _cds_frame(t)
    rows = list(rows)
    for i in range(k):
        caps = t.sorted_capacities[i]
        served = [pos[(i, j)] for j in sorted(t.neighbors(i))]
        for ell in range(1, t.weights[i] + 1):
            c_l = caps[ell - 1]
            if ell > 1 and caps[ell - 2] == c_l:
                continue  # the tangent at ell - 1 is this row
            coeffs = {p: 1 for p in served}
            coeffs[i] = coeffs.get(i, 0) - c_l
            rhs = domination_capacity(t, i, ell - 1) - c_l * (ell - 1)
            rows.append(LinearRow.make(coeffs, "<=", rhs))
    return IpModel(
        objective=Linear(tuple([1] * k + [0] * len(pairs))),
        n_vars=k + len(pairs),
        lower=tuple(lower),
        upper=tuple(upper),
        rows=tuple(rows),
        tag="cds",
    )


@dataclass(frozen=True)
class CdsSolution:
    """A dominating set plus the assignment of each outside vertex to its
    dominator; stored as a sorted tuple of (vertex, dominator) pairs."""

    dominators: frozenset
    assignment: tuple

    @property
    def size(self):
        return len(self.dominators)

    def delta(self):
        return dict(self.assignment)

    @classmethod
    def make(cls, dominators, assignment):
        return cls(frozenset(dominators), tuple(sorted(assignment.items())))


def _match_subset(g: Graph, dominators):
    """Assignment for an explicit dominator set, or None."""
    outside = [v for v in range(g.n) if v not in dominators]
    nbrs = g.neighbors
    adj = {v: [u for u in nbrs[v] if u in dominators] for v in outside}
    cap = {v: g.capacity[v] for v in dominators}
    size, assignment = max_bipartite_matching(outside, adj, cap)
    return assignment if size == len(outside) else None


def decode_cds(t: TypeGraph, g: Graph, point) -> CdsSolution | None:
    """Materialize x into capacity-ordered prefixes and check by matching.

    Every vertex outside D must be matched to an adjacent dominator, each
    dominator v absorbing at most c(v).  Returns None when that fails.
    """
    if t.sorted_capacities is None:
        raise ValueError("decode_cds needs capacities")
    dominators = set()
    for i in range(t.k):
        x_i = point[i]
        if not 0 <= x_i <= t.weights[i]:
            raise DecodeError(f"x_{i}={x_i} outside class bounds")
        dominators.update(t.classes[i][:x_i])
    assignment = _match_subset(g, dominators)
    if assignment is None:
        return None
    return CdsSolution.make(dominators, assignment)


def cds_hall_sets(t: TypeGraph):
    """The 2^k sets S of classes, as bitmasks s, each with its type
    neighbourhood N_t(S), loops included: entry s is (s without its lowest
    class j, j, the bitmask of N_t(S)), and entry 0 is the empty set.  The
    conditions of cds_hall_row, built once per type graph."""
    table = [(0, -1, 0)]
    for s in range(1, 1 << t.k):
        low = s & -s
        j = low.bit_length() - 1
        nbrs = table[s ^ low][2]
        for i in t.neighbors(j):
            nbrs |= 1 << i
        table.append((s ^ low, j, nbrs))
    return tuple(table)


def cds_hall_row(t: TypeGraph) -> ConvexRow:
    """The Hall conditions of CDS class sizes x as one convex row over the
    k class variables: fn(x) is the largest violation, over every set S of
    classes (cds_hall_sets(t)), of
    sum_{j in S} (w_j - x_j) <= sum_{i in N_t(S)} f_i(x_i),
    0 for the empty set, so fn(x) <= 0 iff decode_cds(t, g, x) finds an
    assignment.

    Proof.  An outside vertex of class j and a dominator of class i are
    adjacent iff i is in N_t(j): across classes by the type edge, inside a
    class by its loop.  So a vertex-level assignment sums to a class-level
    flow F_ij, i in N_t(j), with sum_i F_ij = w_j - x_j and sum_j F_ij <=
    f_i(x_i), the total capacity of the x_i dominators of class i.
    Conversely, an integral class-level flow splits onto the vertices: class
    i receives at most f_i(x_i) outside vertices, each adjacent to every
    dominator of class i, so filling those dominators one by one up to their
    capacities places them all, whatever the capacities of the twins.  Such
    a flow is a transportation problem, so by Gale's supply-demand theorem
    (max-flow min-cut, with integral flows) it exists iff the inequality
    holds for every S.

    box_min(lo, hi) = fn(hi) is the least fn on the box.  Raising one x_i
    lowers the demand w_i - x_i of every S holding i and, as capacities are
    >= 0, does not lower the prefix sum f_i(x_i) of any N_t(S) holding i,
    so every violation, and with it their maximum, is nonincreasing in
    every coordinate.

    Both sides are summed over all 2^k bitmasks, each from the entry
    without its lowest class: O(2^k) per point, independent of n.  A point
    outside the class bounds raises DecodeError.
    """
    hall_sets = cds_hall_sets(t)
    weights, prefix = t.weights, t.capacity_prefix
    steps = tuple((rest, j, weights[j], prefix[j]) for rest, j, _ in hall_sets[1:])
    nbrs = tuple(nb for _, _, nb in hall_sets)

    def fn(point):
        for j, (x_j, w_j) in enumerate(zip(point, weights)):
            if not 0 <= x_j <= w_j:
                raise DecodeError(f"x_{j}={x_j} outside class bounds")
        need = [0]
        supply = [0]
        for rest, j, w_j, f_j in steps:
            x_j = point[j]
            need.append(need[rest] + w_j - x_j)
            supply.append(supply[rest] + f_j[x_j])
        return max(map(sub, need, map(supply.__getitem__, nbrs)))

    return ConvexRow(fn, lambda lo, hi: fn(hi), name="hall")


# ---------------------------------------------------------------------------
# sum coloring (models "sumcol")
# ---------------------------------------------------------------------------

def column_cost(y: int) -> int:
    """Cost of one histogram column of height y: the classes crossing it
    occupy colors 1..y, contributing 1 + 2 + ... + y."""
    if y < 0:
        raise ValueError("column height must be non-negative")
    return y * (y + 1) // 2


def class_slots(t: TypeGraph, i: int) -> int:
    """How many color classes touch class i: all |V_i| for a clique, one for
    an independent class."""
    return t.weights[i] if t.kinds[i] == CLIQUE else 1


@dataclass(frozen=True)
class ColorClassCatalog:
    """Independent sets of the type graph with their color-class sizes.

    sigma[i] is the number of vertices a color class of shape sets[i]
    contains.  gamma lists the distinct sizes ("critical sizes").
    gap_below[i] is gamma[i] - gamma[i-1] (gamma[0] for i = 0): the number
    of histogram columns whose height equals the counter of critical size
    gamma[i], which is the weight the separable objective puts on that
    counter.
    """

    sets: tuple
    sigma: tuple
    gamma: tuple
    gap_below: tuple

    @property
    def size(self):
        return len(self.sets)


def build_catalog(t: TypeGraph) -> ColorClassCatalog:
    """Enumerate independent sets of the type graph (loops ignored: a clique
    class may appear, contributing a single vertex per color class)."""
    sets = []
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(t.k), sz) for sz in range(1, t.k + 1)
    ):
        if all(not t.has_edge(i, j) for i, j in itertools.combinations(members, 2)):
            sets.append(members)
    sets.sort()
    sigma = tuple(sum(1 if t.kinds[i] == CLIQUE else t.weights[i] for i in s) for s in sets)
    gamma = tuple(sorted(set(sigma)))
    gap_below = tuple(
        gamma[idx] - (gamma[idx - 1] if idx else 0) for idx in range(len(gamma))
    )
    return ColorClassCatalog(tuple(sets), sigma, gamma, gap_below)


def _catalog_upper_bounds(t, cat):
    return [min(class_slots(t, i) for i in s) for s in cat.sets]


def _catalog_rows(t, cat):
    rows = []
    for i in range(t.k):
        coeffs = {idx: 1 for idx, s in enumerate(cat.sets) if i in s}
        rows.append(LinearRow.make(coeffs, EQ, class_slots(t, i)))
    return rows


def catalog_remainder_bound(t: TypeGraph, cat: ColorClassCatalog):
    """The remainder hook of both catalog models: a lower bound on the
    column cost sum_g gap_g * cc(z_g) of every completion of point[:depth],
    z_g = sum of x_j over the entries j with sigma_j >= g, the catalog
    entries being the first cat.size variables.  Past them it returns 0.

    At depth d <= cat.size the entries j < d are fixed.  Let
    - A_g = sum of x_j over j < d with sigma_j >= g, the height fixed so far;
    - r_i = class_slots(t, i) - sum of x_j over j < d with i in I_j, the
      slots of class i still uncovered;
    - F_g = the classes that lie in some entry j >= d and whose entries
      j >= d all have sigma_j >= g.
    The bound is sum_g gap_g * cc(A_g + max(0, max of r_i over F_g)).

    Proof.  Take a completion that satisfies the covering rows.  Row i says
    sum of x_j over j >= d with i in I_j equals r_i.  For i in F_g each such
    entry counts toward z_g, and every x_j >= 0, so z_g >= A_g + r_i; and
    z_g >= A_g >= 0 always.  cc increases on y >= 0 and every gap_g is > 0,
    so each term, and with it the sum, is at most the completion's cost.
    So the bound is admissible for the general convex model, whose hook
    bounds the whole objective.  In the stacked model the catalog entries'
    terms are 0, so while depth <= cat.size the fixed prefix costs 0 and the
    same value bounds the remainder; past the entries only counter terms
    cc(z) * gap >= 0 remain, so 0 is admissible there.  At depth cat.size
    every F_g is empty and every A_g is z_g: the bound is the exact cost.

    The tables, the class slots, per entry its members and critical-size
    index, and per depth the classes with a later entry and the index of
    their least later size, are built on the first call in O(|catalog| * k), so a model that is
    never searched does not pay for them.  A call is O(depth * k + |Gamma|).
    """
    nx = cat.size
    kgam = len(cat.gamma)
    tables = None

    def build_tables():
        # critical sizes are indexed in decreasing order, so the heights
        # and the forced slots accumulate in one forward pass
        rank = {g: kgam - 1 - gi for gi, g in enumerate(cat.gamma)}
        entries = tuple(zip(cat.sets, (rank[s] for s in cat.sigma)))
        least = [None] * t.k  # the largest rank (least size) of a later entry
        forced = [()] * (nx + 1)
        for d in range(nx - 1, -1, -1):
            members, gd = entries[d]
            for i in members:
                if least[i] is None or gd > least[i]:
                    least[i] = gd
            forced[d] = tuple((gd, i) for i, gd in enumerate(least) if gd is not None)
        slots = [class_slots(t, i) for i in range(t.k)]
        return slots, entries, forced, cat.gap_below[::-1]

    def bound(point, depth):
        nonlocal tables
        if depth > nx:
            return 0
        if tables is None:
            tables = build_tables()
        slots, entries, forced, gaps = tables
        r = slots[:]
        heights = [0] * kgam
        for x, (members, gd) in zip(point[:depth], entries):
            if x:
                heights[gd] += x
                for i in members:
                    r[i] -= x
        tops = [0] * kgam
        for gd, i in forced[depth]:
            if r[i] > tops[gd]:
                tops[gd] = r[i]
        total = height = top = 0
        for h, tp, gap in zip(heights, tops, gaps):
            height += h
            if tp > top:
                top = tp
            y = height + top
            total += gap * (y * (y + 1) // 2)  # gap * column_cost(y)
        return total

    return bound


def build_sumcol_convex(t: TypeGraph) -> IpModel:
    """One variable per catalog entry; the cost is evaluated through the at
    most 2^k distinct column heights.  The objective does not separate, so
    the search is bounded by catalog_remainder_bound alone: the column
    heights fixed so far, each raised by the most slots still uncovered in a
    class whose later entries all reach that height."""
    cat = build_catalog(t)
    n = cat.size
    rows = _catalog_rows(t, cat)
    by_size = [
        tuple(idx for idx, s in enumerate(cat.sigma) if s >= gval) for gval in cat.gamma
    ]

    def s_convex(x):
        total = 0
        for gi, members in enumerate(by_size):
            total += cat.gap_below[gi] * column_cost(sum(x[idx] for idx in members))
        return total

    return IpModel(
        objective=GeneralConvex(s_convex, name="sumcol-column-cost"),
        n_vars=n,
        lower=tuple([0] * n),
        upper=tuple(_catalog_upper_bounds(t, cat)),
        rows=tuple(rows),
        tag="sumcol_convex",
        remainder_bound=catalog_remainder_bound(t, cat),
    )


def build_sumcol_graver(t: TypeGraph) -> IpModel:
    """The catalog model with chained size counters z_i, i in Gamma.

    Row block F holds the covering rows (zero columns for z); block L holds
    the counter recurrence z_i = z_i' + sum of x_I with sigma(I) = i, i' the
    next larger critical size (no z_i' for the largest), one row per
    critical size in increasing order.  The z columns are laid out in
    decreasing critical size, so each one is pinned as soon as it is reached
    in the fixed branching order.  The x terms are 0 and the z columns come
    last, so over the x columns only catalog_remainder_bound bounds a
    search.
    """
    cat = build_catalog(t)
    nx = cat.size
    gamma = cat.gamma
    kgam = len(gamma)
    zpos = {gval: nx + (kgam - 1 - gi) for gi, gval in enumerate(gamma)}
    n = nx + kgam

    rows = _catalog_rows(t, cat)  # F block
    for gi, gval in enumerate(gamma):  # L block, increasing critical size
        coeffs = {zpos[gval]: 1}
        if gi + 1 < kgam:
            coeffs[zpos[gamma[gi + 1]]] = -1
        for idx, s in enumerate(cat.sigma):
            if s == gval:
                coeffs[idx] = coeffs.get(idx, 0) - 1
        rows.append(LinearRow.make(coeffs, EQ, 0))

    ub_x = _catalog_upper_bounds(t, cat)
    ub_z = [0] * kgam
    for gi, gval in enumerate(gamma):
        ub_z[kgam - 1 - gi] = sum(
            ub_x[idx] for idx, s in enumerate(cat.sigma) if s >= gval
        )
    weight_of = {zpos[gval]: cat.gap_below[gi] for gi, gval in enumerate(gamma)}
    terms = []
    for j in range(n):
        if j < nx:
            terms.append(lambda v: 0)
        else:
            w = weight_of[j]
            terms.append(lambda v, w=w: w * column_cost(v))

    # canonical start: every class keeps to itself, one singleton color
    # class per slot
    x0 = [0] * n
    for idx, s in enumerate(cat.sets):
        if len(s) == 1:
            x0[idx] = class_slots(t, s[0])
    for gi, gval in enumerate(gamma):
        x0[zpos[gval]] = sum(
            x0[idx] for idx, s in enumerate(cat.sigma) if s >= gval
        )

    return IpModel(
        objective=SeparableConvex(tuple(terms)),
        n_vars=n,
        lower=tuple([0] * n),
        upper=tuple(ub_x + ub_z),
        rows=tuple(rows),
        stacked=StackedBlocks(f_rows=t.k, l_rows=kgam),
        tag="sumcol_graver",
        initial_point=tuple(x0),
        remainder_bound=catalog_remainder_bound(t, cat),
    )


def split_stacked_blocks(model: IpModel):
    """Split a stacked sum-coloring model into its (F, L) matrices."""
    if model.stacked is None:
        raise ValueError("model carries no stacked annotation")
    full = model.matrix()
    f_rows = model.stacked.f_rows
    d_f, d_l = {}, {}
    for (r, c), v in full.entries:
        if r < f_rows:
            d_f[(r, c)] = v
        else:
            d_l[(r - f_rows, c)] = v
    return (
        IntMatrix.from_dict(f_rows, full.n, d_f),
        IntMatrix.from_dict(full.m - f_rows, full.n, d_l),
    )


def build_sumcol_nfold(t: TypeGraph) -> IpModel:
    """Color-indexed model: bricks are colors, each with a 0/1 variable per
    class and a slack per non-loop type edge.

    The loop rows x_i + x_i <= 1 are dropped: 0/1 bounds already say that a
    color meets a clique class at most once.

    There are S = sum_i class_slots(t, i) bricks, not one per vertex, and
    the optimum, and the lexicographically smallest optimum truncated to its
    first S bricks, are those of the model with any more bricks:
    - Every brick used by an optimum holds a slot, so at most S bricks are
      used.
    - Say an optimum used a brick b >= S.  Then at most S - 1 of the bricks
      0..S-1 are used, so one of them, b' < b, is empty.  Moving the classes
      of brick b to brick b' (with their edge slacks) keeps every edge row
      and every class row, and lowers the cost, as (b + 1) * per_class grows
      with b and per_class >= 1.  So no optimum uses a brick >= S.
    - Variables are ordered brick-major, so the bricks >= S come last, and
      every optimum has the same empty tail there (classes 0, slacks 1).
      Lexicographic order among the optima is therefore decided on the first
      S bricks, where it is the order of the model with S bricks.

    The start point is a greedy coloring of the type graph: the classes go
    in decreasing per-color cost, ties by index, and each takes its
    class_slots lowest colors that no adjacent class holds.  Adjacent
    classes share no color, so every edge slack is 0 or 1, and each class
    takes distinct colors, so every box holds.  It never needs more than S
    bricks: when class i is placed, the other classes hold at most
    S - slots_i colors between them, so at least slots_i of the colors
    0..S-1 are free for it, and its slots_i lowest free colors all lie
    below S.
    """
    k = t.k
    slots = [class_slots(t, i) for i in range(k)]
    n_colors = sum(slots)
    edges_nl = sorted(e for e in t.edges if e[0] != e[1])
    s = len(edges_nl)
    tt = k + s
    a1 = IntMatrix.from_dict(k, tt, {(i, i): 1 for i in range(k)})
    a2 = IntMatrix.from_dict(
        s,
        tt,
        {
            **{(e_idx, i): 1 for e_idx, (i, j) in enumerate(edges_nl)},
            **{(e_idx, j): 1 for e_idx, (i, j) in enumerate(edges_nl)},
            **{(e_idx, k + e_idx): 1 for e_idx in range(s)},
        },
    )
    n = n_colors * tt

    rows = []
    for i in range(k):
        coeffs = {b * tt + i: 1 for b in range(n_colors)}
        rows.append(LinearRow.make(coeffs, EQ, slots[i]))
    for b in range(n_colors):
        for e_idx, (i, j) in enumerate(edges_nl):
            coeffs = {b * tt + i: 1, b * tt + j: 1, b * tt + k + e_idx: 1}
            rows.append(LinearRow.make(coeffs, EQ, 1))

    cost = [0] * n
    per_class = [1 if t.kinds[i] == CLIQUE else t.weights[i] for i in range(k)]
    for b in range(n_colors):
        for i in range(k):
            cost[b * tt + i] = (b + 1) * per_class[i]

    colors = [()] * k  # class i's own colors are () until it is placed
    for i in sorted(range(k), key=lambda i: (-per_class[i], i)):
        held = set().union(*(colors[j] for j in t.neighbors(i)))
        free = (c for c in itertools.count() if c not in held)
        colors[i] = tuple(itertools.islice(free, slots[i]))
    start = [0] * n
    for i, cs in enumerate(colors):
        for c in cs:
            start[c * tt + i] = 1
    for b in range(n_colors):
        for e_idx, (i, j) in enumerate(edges_nl):
            start[b * tt + k + e_idx] = 1 - start[b * tt + i] - start[b * tt + j]

    def remainder_bound(point, depth, tt=tt, k=k, per_class=per_class, slots=slots):
        # cheapest completion: each class takes its remaining colors
        # consecutively starting at the first brick still open for it
        total = 0
        for i in range(k):
            need = slots[i] - sum(point[i:depth:tt])
            if need <= 0:
                continue
            first = (depth - i + tt - 1) // tt  # first brick with position >= depth
            total += per_class[i] * (need * first + need * (need + 1) // 2)
        return total

    return IpModel(
        objective=Linear(tuple(cost)),
        n_vars=n,
        lower=tuple([0] * n),
        upper=tuple([1] * n),
        rows=tuple(rows),
        nfold=NFoldBlocks(r=k, s=s, t=tt, n=n_colors, a1=a1, a2=a2),
        tag="sumcol_nfold",
        initial_point=tuple(start),
        remainder_bound=remainder_bound,
    )


# ---------------------------------------------------------------------------
# max-q-cut (model "maxqcut")
# ---------------------------------------------------------------------------

def build_maxqcut(t: TypeGraph, q: int) -> IpModel:
    """x_{i,a} = how many vertices of class i land in part a; the cut is the
    sum of the cross products over type edges, and the model minimizes -cut,
    each product carrying coefficient -1 (the max-q-cut route flips the sign
    back).

    A loop edge contributes x_{i,a} * x_{i,b} once per unordered part pair;
    a proper edge {i, j} contributes both orientations.  As sum_a x_{i,a} =
    w_i, the cut is

        sum over cross ij of (w_i w_j - sum_a x_{i,a} x_{j,a})
        + sum over loops i of (w_i^2 - sum_a x_{i,a}^2) / 2,

    so an upper bound U on the cut of every completion of point[:depth]
    follows from lower bounds on the overlaps sum_a x_{i,a} x_{j,a}, and the
    remainder hook returns -U, a lower bound on the objective -cut.  The
    variables are laid out class-major, x_{i,a} at i*q + a, so at depth =
    c*q + f the classes before c are complete and class c has its first f
    parts fixed.

    Why -U is admissible.  Take any completion x with x >= 0 and every class
    sum w_i.
    - Loop i: sum_a x_{i,a}^2 is the fixed parts' squares plus the free
      parts' squares, and m >= 1 free parts summing to r cannot have
      squares summing to less than the balanced split (r mod m parts of
      r//m + 1, the rest of r//m), by convexity of v^2.  A class with no
      free part is its fixed squares, exactly.
    - Cross ij with i < j and class i complete: x_{i,.} is fixed, so
      sum_a x_{i,a} x_{j,a} is the fixed parts of j weighted by x_{i,a}, plus
      a sum over the free parts of j of nonnegative weights x_{i,a} times
      values summing to w_j - fixed_j, which is at least that remainder
      times the least such weight.  With every part of j fixed the term is
      exact.
    - Any other cross edge: the overlap is >= 0.
    Each overlap bound is at most the completion's overlap, so U is at least
    its cut, and as the cut is an integer, so is floor(U).  At depth n = k*q
    every class is complete, every bound is exact, and the hook is -cut.
    """
    if q < 2:
        raise ValueError("need at least two parts")
    k = t.k
    n = k * q
    w = t.weights
    rows = [
        LinearRow.make({i * q + a: 1 for a in range(q)}, EQ, w[i])
        for i in range(k)
    ]
    terms = []
    for a, b in itertools.combinations(range(q), 2):
        for i, j in sorted(t.edges):
            if i == j:
                terms.append((i * q + a, i * q + b, -1))
            else:
                terms.append((i * q + a, j * q + b, -1))
                terms.append((i * q + b, j * q + a, -1))
    loops = [i for i, j in sorted(t.edges) if i == j]
    cross = [(i, j) for i, j in sorted(t.edges) if i != j]

    def least_squares(r, m):
        """The least sum of squares of m >= 1 nonnegative integers summing to r."""
        b, e = divmod(r, m)
        return m * b * b + e * (2 * b + 1)

    def part(i, a=0, b=q):
        return slice(i * q + a, i * q + b)

    # Per depth, the terms of twice the overlap bounds (see above), with all
    # that does not read the point summed into top2: twice the cut when every
    # overlap is 0, less the free loop classes' least squares.  The class c
    # being filled is kept apart as (its fixed parts, w_c, its free part
    # count if it has a loop else 0, its cross edges to complete classes as
    # (fixed, free) slices of the complete class), or None with no term.
    full2 = sum(2 * w[i] * w[j] for i, j in cross) + sum(w[i] * w[i] for i in loops)
    plans = []
    for depth in range(n + 1):
        c, f = divmod(depth, q)
        top2 = full2 - sum(least_squares(w[i], q) for i in loops if i > c)
        edges = tuple((part(i, 0, f), part(i, f)) for i, j in cross if j == c)
        current = None
        if c < k and (c in loops or edges):
            current = (slice(c * q, depth), w[c], q - f if c in loops else 0, edges)
        plans.append((
            top2,
            tuple(part(i) for i in loops if i < c),
            tuple((part(i), part(j)) for i, j in cross if j < c),
            tuple((part(i), 2 * w[j]) for i, j in cross if i < c < j),
            current,
        ))

    def remainder_bound(point, depth):
        top2, done_loops, done_cross, done_free, current = plans[depth]
        for s in done_loops:
            x = point[s]
            top2 -= sum(map(mul, x, x))
        for s, r in done_cross:
            top2 -= 2 * sum(map(mul, point[s], point[r]))
        for s, w2 in done_free:
            top2 -= w2 * min(point[s])
        if current is not None:
            s, wc, free, edges = current
            fixed = point[s]
            rest = wc - sum(fixed)
            if free:
                top2 -= sum(map(mul, fixed, fixed)) + least_squares(rest, free)
            for s_fixed, s_free in edges:
                top2 -= 2 * (sum(map(mul, point[s_fixed], fixed)) + rest * min(point[s_free]))
        return -(top2 // 2)

    return IpModel(
        objective=Quadratic(tuple(sorted(terms))),
        n_vars=n,
        lower=tuple([0] * n),
        upper=tuple(w[i] for i in range(k) for _ in range(q)),
        rows=tuple(rows),
        tag="maxqcut",
        remainder_bound=remainder_bound,
    )


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------

def check_coloring(g: Graph, coloring) -> bool:
    """Whether coloring gives exactly the vertices of g colours >= 1, and
    the two ends of every edge different colours.

    Each colour class must be an independent set.  An edge inside a class
    has an end other than the class's first vertex, so every other member's
    sorted neighbor tuple is tested against the class as a set: one C-level
    isdisjoint per vertex, no Python step per edge, and none at all for a
    class of one vertex.
    """
    if set(coloring) != set(range(g.n)):
        return False
    if any(c < 1 for c in coloring.values()):
        return False
    members = {}
    for v, c in coloring.items():
        members.setdefault(c, []).append(v)
    nbrs = g.neighbors.__getitem__
    return all(
        all(map(set(cls).isdisjoint, map(nbrs, cls[1:])))
        for cls in members.values()
        if len(cls) > 1
    )


def decode_coloring(t: TypeGraph, g: Graph, point, model_tag: str) -> dict:
    """Materialize a model point into a proper coloring of g.

    Catalog points order their color classes by decreasing size before
    assigning color numbers; within a clique class, vertices are consumed in
    class order.  The result is re-checked against g.
    """
    coloring = {}
    cursors = [0] * t.k  # next unused vertex per clique class

    def give(i, color):
        if t.kinds[i] == CLIQUE:
            if cursors[i] >= t.weights[i]:
                raise DecodeError(f"class {i} used more colors than vertices")
            coloring[t.classes[i][cursors[i]]] = color
            cursors[i] += 1
        else:
            for v in t.classes[i]:
                if v in coloring:
                    raise DecodeError(f"independent class {i} colored twice")
                coloring[v] = color

    if model_tag == "sumcol_nfold":
        edges_nl = sorted(e for e in t.edges if e[0] != e[1])
        tt = t.k + len(edges_nl)
        for b in range(len(point) // tt if tt else 0):  # tt = 0: no class, no brick
            for i in range(t.k):
                if point[b * tt + i]:
                    give(i, b + 1)
    elif model_tag in ("sumcol_convex", "sumcol_graver"):
        cat = build_catalog(t)
        classes = []
        for idx, s in enumerate(cat.sets):
            mult = point[idx]
            if mult < 0:
                raise DecodeError("negative multiplicity")
            classes += [(cat.sigma[idx], s)] * mult
        classes.sort(key=lambda it: (-it[0], it[1]))
        for color, (_, members) in enumerate(classes, start=1):
            for i in members:
                give(i, color)
    else:
        raise DecodeError(f"unknown sum-coloring model tag {model_tag!r}")

    if not check_coloring(g, coloring):
        raise DecodeError("decoded point is not a proper coloring")
    return coloring


def decode_partition(t: TypeGraph, g: Graph, point) -> dict:
    """Materialize a max-q-cut point: the first x_{i,1} vertices of class i
    go to part 1, and so on."""
    q = len(point) // t.k if t.k else 0
    partition = {}
    for i in range(t.k):
        counts = point[i * q : (i + 1) * q]
        if sum(counts) != t.weights[i] or any(c < 0 for c in counts):
            raise DecodeError(f"counts for class {i} do not partition it")
        at = 0
        for part, c in enumerate(counts, start=1):
            for v in t.classes[i][at : at + c]:
                partition[v] = part
            at += c
    return partition
