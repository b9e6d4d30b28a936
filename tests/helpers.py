"""Small graph constructors and brute-force helpers shared by the tests."""

import itertools
import random

from ndsolve.graphs import Graph
from ndsolve.graver import _kernel_vectors_within, _minimal_filter


def complete_graph(n, capacity=None):
    return Graph.from_edges(n, itertools.combinations(range(n), 2), capacity)


def empty_graph(n, capacity=None):
    return Graph.from_edges(n, [], capacity)


def path_graph(n, capacity=None):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], capacity)


def cycle_graph(n, capacity=None):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, capacity)


def star_graph(leaves, capacity=None):
    """K_{1,leaves} with the center as vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)], capacity)


def random_graph(rng: random.Random, n, p=0.5, max_capacity=None):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    cap = None
    if max_capacity is not None:
        cap = [rng.randint(0, max_capacity) for _ in range(n)]
    return Graph.from_edges(n, edges, cap)


def set_partitions(items):
    """Yield all partitions of a list, each as a list of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_min_twin_partition(g: Graph):
    """Independent oracle: the minimum number of classes over all partitions
    whose classes consist of pairwise twins."""
    from ndsolve.graphs import are_twins

    best = None
    for part in set_partitions(range(g.n)):
        if all(are_twins(g, u, v) for cls in part for u in cls for v in cls if u < v):
            if best is None or len(part) < best:
                best = len(part)
    return 0 if best is None else best


def graver_by_enumeration(a, cap):
    """Independent oracle: the conformally minimal non-zero kernel vectors of
    a with infinity-norm <= cap.  It equals the Graver basis once cap
    reaches the basis' largest infinity-norm."""
    return set(_minimal_filter(_kernel_vectors_within(a, cap, 10**7)))
