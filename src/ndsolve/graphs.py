"""Graphs, twin classes, and the compressed type-graph representation.

Two vertices u, v are twins when N(u) \\ {v} = N(v) \\ {u}.  Twin-ness is an
equivalence; its classes are each a clique or an independent set, and the
number of classes is the neighborhood diversity of the graph.  A graph is
compressed into its type graph: one weighted vertex per twin class, an edge
{i, j} when the two classes are fully adjacent, and a loop on every clique
class of size >= 2.

For capacitated instances each class additionally keeps its vertices sorted
by non-increasing capacity, so that "the first l vertices of class i" is a
well-defined prefix.  The domination capacity f_i(l) is the total capacity
of that prefix; it is concave piecewise-linear in l.  The type graph keeps
the prefix sums of each class's sorted capacities (TypeGraph.capacity_prefix),
so f_i(l) is one lookup.

A Graph's edges are the strictly increasing tuple of pairs (u, v),
0 <= u < v < n: the order of the instance file format.  Graph() checks this
once, in __post_init__, the one place that owns the invariant, by whole-list
comparisons with no Python step per edge, and stores edges and capacities as
tuples.  Producers that know their pairs in that order hand them straight to
Graph(): the instance parser, and the blow-up generator, which emits them
from the class structure (instances.generate_blowup).  Graph.from_edges is
the one constructor that normalises (orients each pair, sorts, drops
repeats), for pairs from anywhere else (tests, matrices.primal_graph).

Costs: the neighborhoods are one tuple of sorted neighbor tuples
(Graph.neighbors), built on first use by one append pass over the m edges in
sorted order; nothing on a solve path builds a set per vertex.  The twin
partition groups vertices by hashing their open and closed neighborhoods,
O(n + m) for a graph with m edges; the type graph adds O(k^2) binary-search
probes of the neighbor tuples and the capacity sort.  The colouring check
(models.check_coloring) tests neighbor tuples against colour classes held
as sets: O(n) C-level isdisjoint calls, not a Python step per edge.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, starmap
from operator import itemgetter, lt

CLIQUE = "clique"
INDEPENDENT = "independent"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1, optional vertex capacities.

    ``edges`` is the strictly increasing tuple of pairs (u, v) with
    0 <= u < v < n, so each edge appears once, oriented and in sorted order.
    Graph(n, edges) takes the pairs in exactly that form (any sequence; it
    is stored as a tuple) and raises ValueError naming the first bad pair;
    Graph.from_edges(n, edges) accepts the pairs in any order and
    orientation, with repeats.  ``capacity``, when given, is any sequence of
    n non-negative integers, likewise stored as a tuple, so graphs compare
    and hash alike whatever sequence built them.
    """

    n: int
    edges: tuple
    capacity: tuple | None = None

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = tuple(self.edges)
        if edges and not (
            all(starmap(lt, edges))
            and all(map(lt, edges, edges[1:]))
            and edges[0][0] >= 0
            and max(map(itemgetter(1), edges)) < n
        ):
            raise ValueError(_first_bad_edge(n, edges))
        object.__setattr__(self, "edges", edges)
        if self.capacity is not None:
            capacity = tuple(self.capacity)
            if len(capacity) != n:
                raise ValueError("capacity must be defined on all vertices or none")
            if any(c < 0 for c in capacity):
                raise ValueError("capacities must be non-negative")
            object.__setattr__(self, "capacity", capacity)

    @classmethod
    def from_edges(cls, n, edges, capacity=None):
        """Build a graph, normalizing each edge to a sorted pair."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n, sorted(norm), capacity)

    @cached_property
    def neighbors(self):
        """Sorted neighbor tuples, indexed by vertex.

        One append pass over ``edges``, with no sort: the edges are strictly
        increasing, so vertex w first receives the u of each (u, w), u < w,
        in ascending order, then the v of each (w, v), v > w, in ascending
        order.
        """
        nbr = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(map(tuple, nbr))

    @cached_property
    def adj(self):
        """Neighbor frozensets, indexed by vertex: a view derived from
        ``neighbors`` that only the benchmark's checker (``bench/check.py``)
        reads; nothing in the package builds it."""
        return tuple(map(frozenset, self.neighbors))

    def has_edge(self, u, v):
        return 0 <= u < self.n and 0 <= v < self.n and _contains(self.neighbors[u], v)

    @property
    def m(self):
        return len(self.edges)


def _first_bad_edge(n, edges):
    """The message for the first pair of edges that breaks Graph's invariant."""
    prev = None
    for e in edges:
        u, v = e
        if not 0 <= u < v < n:
            return f"bad edge {e!r} for n={n}"
        if prev is not None and e <= prev:
            return f"edge {e!r} after {prev!r}: edges must be strictly increasing"
        prev = e


def _contains(nbrs, v):
    """Whether v is in the sorted tuple nbrs, by binary search."""
    i = bisect_left(nbrs, v)
    return i < len(nbrs) and nbrs[i] == v


def are_twins(g: Graph, u: int, v: int) -> bool:
    """True when u and v have identical neighborhoods outside {u, v}."""
    nbr = g.neighbors
    return [w for w in nbr[u] if w != v] == [w for w in nbr[v] if w != u]


@dataclass(frozen=True)
class TypePartition:
    """The twin-equivalence classes of a graph, in order of smallest member.

    Each class is homogeneous: either a clique or an independent set.
    Singletons are canonically labeled independent.
    """

    classes: tuple
    kinds: tuple

    @property
    def k(self):
        return len(self.classes)


def twin_partition(g: Graph) -> TypePartition:
    """Compute the coarsest twin partition; class count equals nd(g).

    One pass in O(n + m): false twins share their open neighborhood N(v),
    true twins their closed neighborhood N[v].  A vertex never has both a
    true and a false twin (if N(u) = N(v) and N[w] = N[v], then w is in
    N(u), so u is in N[w] = N[v], contradicting u not adjacent to v), so
    each vertex joins the class of the first earlier vertex sharing either
    key, or starts a new class.
    """
    classes = []
    kinds = []
    by_open = {}     # N(v) of each class's first vertex -> class index
    by_closed = {}   # N[v] of each class's first vertex -> class index
    for v, nbrs in enumerate(g.neighbors):
        idx = by_open.get(nbrs)
        if idx is None:
            i = bisect_left(nbrs, v)
            closed = nbrs[:i] + (v,) + nbrs[i:]
            idx = by_closed.get(closed)
            if idx is None:
                by_open[nbrs] = by_closed[closed] = len(classes)
                classes.append([v])
                kinds.append(INDEPENDENT)
                continue
            kinds[idx] = CLIQUE
        classes[idx].append(v)
    return TypePartition(tuple(map(tuple, classes)), tuple(kinds))


@dataclass(frozen=True)
class TypeGraph:
    """Type graph: k classes with weights, kinds, edges (loops included).

    ``classes[i]`` lists the vertices of class i; for capacitated inputs the
    list is sorted by (-capacity, vertex), so prefixes realize "the l
    highest-capacity vertices".  ``edges`` holds pairs (i, j) with i <= j;
    (i, i) is the loop marking a clique class of size >= 2.
    """

    k: int
    classes: tuple
    weights: tuple
    kinds: tuple
    edges: frozenset
    sorted_capacities: tuple | None = None

    @property
    def n(self):
        return sum(self.weights)

    def loop_at(self, i):
        return (i, i) in self.edges

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    @cached_property
    def neighbor_sets(self):
        """N(i) in the type graph; contains i itself iff i carries a loop."""
        nbr = [set() for _ in range(self.k)]
        for i, j in self.edges:
            nbr[i].add(j)
            nbr[j].add(i)
        return tuple(frozenset(s) for s in nbr)

    def neighbors(self, i):
        return self.neighbor_sets[i]

    @cached_property
    def capacity_prefix(self):
        """Prefix sums of each class's sorted capacities: capacity_prefix[i][l]
        is f_i(l), for 0 <= l <= |V_i|."""
        if self.sorted_capacities is None:
            raise ValueError("type graph carries no capacities")
        return tuple(tuple(accumulate(caps, initial=0)) for caps in self.sorted_capacities)


def build_type_graph(g: Graph, p: TypePartition) -> TypeGraph:
    """Compress g along its twin partition p.

    Rejects any p that is not the twin partition of g (wrong classes or
    wrong kinds).
    """
    expected = twin_partition(g)
    if frozenset(map(frozenset, p.classes)) != frozenset(map(frozenset, expected.classes)):
        raise ValueError("partition classes are not the twin classes of the graph")
    canon_kind = {frozenset(c): knd for c, knd in zip(expected.classes, expected.kinds)}
    for c, knd in zip(p.classes, p.kinds):
        if canon_kind[frozenset(c)] != knd:
            raise ValueError(f"class {c!r} has kind {knd!r}, expected {canon_kind[frozenset(c)]!r}")
    return _compress(g, p)


def type_graph(g: Graph) -> TypeGraph:
    """The type graph of g: build_type_graph(g, twin_partition(g)) without
    re-deriving the partition to check it."""
    return _compress(g, twin_partition(g))


def _compress(g: Graph, p: TypePartition) -> TypeGraph:
    k = p.k
    if g.capacity is not None:
        classes = tuple(tuple(sorted(c, key=lambda v: (-g.capacity[v], v))) for c in p.classes)
        caps = tuple(tuple(g.capacity[v] for v in c) for c in classes)
    else:
        classes = tuple(tuple(sorted(c)) for c in p.classes)
        caps = None

    nbrs = g.neighbors
    edges = set()
    for i in range(k):
        if p.kinds[i] == CLIQUE:
            edges.add((i, i))
        for j in range(i + 1, k):
            if _contains(nbrs[classes[i][0]], classes[j][0]):
                edges.add((i, j))

    return TypeGraph(
        k=k,
        classes=classes,
        weights=tuple(len(c) for c in classes),
        kinds=tuple(p.kinds),
        edges=frozenset(edges),
        sorted_capacities=caps,
    )


def domination_capacity(t: TypeGraph, i: int, ell: int) -> int:
    """f_i(ell): total capacity of the ell highest-capacity vertices of class i.

    Clamped at ell = |V_i| for larger ell.  The increments are the sorted
    capacities themselves, so f_i is concave.  One lookup in
    TypeGraph.capacity_prefix.
    """
    if t.sorted_capacities is None:
        raise ValueError("type graph carries no capacities")
    if not 0 <= i < t.k:
        raise ValueError(f"unknown class index {i}")
    if ell < 0:
        raise ValueError("prefix length must be non-negative")
    prefix = t.capacity_prefix[i]
    return prefix[min(ell, len(prefix) - 1)]
