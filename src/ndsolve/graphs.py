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
the prefix sums of each class's sorted capacities, and f_i(l) is the lookup
TypeGraph.capacity_prefix[i][l], for 0 <= l <= |V_i|: the one rule that
every domination model and route reads.

A Graph holds its edges as runs, the edge block of the instance file format
grouped by smaller endpoint: the strictly ascending heads u, and for each
head the strictly increasing run of its larger neighbours v > u, with the
edge count m stored.  No (u, v) pair is built to hold a graph.  Every
producer goes through one check, Graph._store, the one place that owns the
invariant (0 <= u < v < n, heads ascending, runs increasing): a few C-level
passes over the heads and over each run, with no Python step per run or
per edge.  The instance parser and the blow-up generator
(instances.generate_blowup) hand their runs straight to Graph.from_runs;
Graph(n, pairs) cuts strictly increasing pairs into runs where u changes
(cut_runs) and goes through the same check; Graph.from_edges is the one
constructor that normalises (orients each pair, sorts, drops repeats), for
pairs from anywhere else (the tests).  Graph.edges, the pair tuple, is a
view built on first use for the few readers that want pairs; no solve path
and no file writer builds it.

Costs: holding a graph is O(m) whatever the header's n; the first O(n)
allocation is Graph.neighbors, one tuple of sorted neighbor tuples built on
first use by one pass over the runs (one extend per run, one append per
edge); nothing on a solve path builds a set per vertex.  The twin
partition groups vertices by hashing their open and closed neighborhoods,
O(n + m) for a graph with m edges; the type graph adds O(k^2) binary-search
probes of the neighbor tuples and the capacity sort.  The colouring check
(models.check_coloring) tests neighbor tuples against colour classes held
as sets: O(n) C-level isdisjoint calls, not a Python step per edge.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, lt, ne

CLIQUE = "clique"
INDEPENDENT = "independent"


@dataclass(frozen=True, init=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1, optional vertex capacities.

    The edges are stored as runs, grouped by their smaller endpoint:
    ``heads`` is the strictly ascending tuple of the vertices u that are the
    smaller end of some edge, and ``runs[i]`` the strictly increasing tuple
    of the larger ends v > heads[i] of its edges; ``m`` is the edge count.
    Graph.from_runs(n, heads, runs) takes the runs in exactly that form
    (any sequences, stored as tuples); Graph(n, edges) takes the strictly
    increasing pairs (u, v), 0 <= u < v < n, and cuts them into runs where u
    changes; both raise ValueError naming the first bad pair.
    Graph.from_edges(n, edges) accepts the pairs in any order and
    orientation, with repeats.  ``edges`` is the pair tuple, a view built on
    first use.  ``capacity``, when given, is any sequence of n non-negative
    integers, stored as a tuple, so graphs compare and hash alike whatever
    sequences built them.
    """

    n: int
    heads: tuple
    runs: tuple
    capacity: tuple | None
    m: int = field(compare=False, repr=False)

    def __init__(self, n, edges=(), capacity=None):
        edges = tuple(edges)
        us = tuple(map(itemgetter(0), edges))
        starts, runs = cut_runs(us, tuple(map(itemgetter(1), edges)))
        self._store(n, tuple(map(us.__getitem__, starts)), tuple(runs), capacity)

    @classmethod
    def from_runs(cls, n, heads, runs, capacity=None):
        """The graph whose edges are (heads[i], v) for v in runs[i]."""
        g = cls.__new__(cls)
        g._store(n, tuple(heads), tuple(map(tuple, runs)), capacity)
        return g

    def _store(self, n, heads, runs, capacity):
        """Check the runs, the one place that owns the edge invariant, and
        set the fields.  One C-level pass over the heads and over each run,
        with no Python step per run or per edge."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(heads) != len(runs) or heads and not (
            all(runs)  # no run is empty
            and heads[0] >= 0
            and all(map(lt, heads, heads[1:]))  # heads strictly ascending
            and all(map(lt, heads, map(itemgetter(0), runs)))  # u < first v
            # each run strictly increasing: all(map(lt, run, run[1:])) per run
            and all(map(all, map(map, repeat(lt), runs, map(itemgetter(_TAIL), runs))))
            and max(map(itemgetter(-1), runs)) < n  # last v < n
        ):
            raise ValueError(_first_bad_edge(n, heads, runs))
        if capacity is not None:
            capacity = tuple(capacity)
            if len(capacity) != n:
                raise ValueError("capacity must be defined on all vertices or none")
            if any(c < 0 for c in capacity):
                raise ValueError("capacities must be non-negative")
        # one update of the frozen instance's fields, cheaper than a
        # object.__setattr__ call per field
        self.__dict__.update(n=n, heads=heads, runs=runs, capacity=capacity, m=sum(map(len, runs)))

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
    def edges(self):
        """The strictly increasing tuple of pairs (u, v), u < v: a view of
        the runs for the readers that want pairs; no solve path builds it."""
        return tuple(chain.from_iterable(map(zip, map(repeat, self.heads), self.runs)))

    @cached_property
    def neighbors(self):
        """Sorted neighbor tuples, indexed by vertex.

        One pass over the runs in ascending order of their heads, with no
        sort: when the run of u is reached, u has already received every
        smaller neighbour, in ascending order, so its run is its upper part,
        added by one C-level extend, and u is appended to the list of each
        vertex of the run, one append per edge.  (On CPython 3.11 this plain
        loop beats appending through a C-level map of list.append.)
        """
        nbr = [[] for _ in range(self.n)]
        for u, run in zip(self.heads, self.runs):
            nbr[u] += run
            for v in run:
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


_TAIL = slice(1, None)


def cut_runs(firsts, seconds):
    """Cut seconds where firsts changes: the start of each run, and the runs.

    firsts and seconds are sequences of one length (seconds sliceable into
    tuples, firsts comparable by !=); a run is a maximal stretch of equal
    firsts.  One C-level != per pair and one slice per run.
    """
    starts = list(compress(range(len(firsts)), map(ne, firsts, chain((None,), firsts))))
    ends = starts[1:]
    ends.append(len(firsts))
    return starts, [seconds[i:j] for i, j in zip(starts, ends)]


def _first_bad_edge(n, heads, runs):
    """The message for the first pair of edges that breaks Graph's invariant."""
    if len(heads) != len(runs) or not all(runs):
        return "every head needs one non-empty run"
    prev = None
    for u, run in zip(heads, runs):
        for v in run:
            e = (u, v)
            if not 0 <= u < v < n:
                return f"bad edge {e!r} for n={n}"
            if prev is not None and e <= prev:
                return f"edge {e!r} after {prev!r}: edges must be strictly increasing"
            prev = e
    return "a head repeats: heads must be strictly increasing, one run each"


def _contains(nbrs, v):
    """Whether v is in the sorted tuple nbrs, by binary search."""
    i = bisect_left(nbrs, v)
    return i < len(nbrs) and nbrs[i] == v


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


def type_graph(g: Graph) -> TypeGraph:
    """The type graph of g: g compressed along its twin partition."""
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
