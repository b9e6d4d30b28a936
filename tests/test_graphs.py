import random
import re

import pytest

from ndsolve.graphs import (
    CLIQUE,
    INDEPENDENT,
    Graph,
    TypePartition,
    are_twins,
    build_type_graph,
    cut_runs,
    domination_capacity,
    twin_partition,
    type_graph,
)

from helpers import (
    brute_min_twin_partition,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    random_graph,
    star_graph,
)


class TestGraph:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_edge_normalization(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    @pytest.mark.parametrize(
        "edges, bad",
        [
            ([(0, 1), (0, 1)], (0, 1)),  # repeated pair
            ([(0, 1), (1, 2), (0, 2)], (0, 2)),  # unsorted pairs
            ([(0, 1), (1, 1)], (1, 1)),  # u == v
            ([(2, 1)], (2, 1)),  # u > v
            ([(0, 1), (1, 3)], (1, 3)),  # v >= n
            ([(-1, 1), (0, 2)], (-1, 1)),  # u < 0
        ],
    )
    def test_constructor_checks_sorted_pairs(self, edges, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "heads, runs, message",
        [
            ((1, 0), ((2,), (1,)), "edge (0, 1) after (1, 2)"),  # heads not ascending
            ((0, 0), ((1,), (2,)), "a head repeats"),  # the pairs alone are in order
            ((0,), ((2, 1),), "edge (0, 1) after (0, 2)"),  # run not increasing
            ((0,), ((1, 1),), "edge (0, 1) after (0, 1)"),  # repeated end
            ((1,), ((1,),), "bad edge (1, 1) for n=3"),  # v == u
            ((1,), ((0, 2),), "bad edge (1, 0) for n=3"),  # v < u
            ((0,), ((1, 3),), "bad edge (0, 3) for n=3"),  # v >= n
            ((-1,), ((1,),), "bad edge (-1, 1) for n=3"),  # u < 0
            ((0,), ((),), "every head needs one non-empty run"),
            ((0, 1), ((1,),), "every head needs one non-empty run"),
            ((), ((1,),), "every head needs one non-empty run"),
        ],
    )
    def test_from_runs_checks_runs(self, heads, runs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph.from_runs(3, heads, runs)

    def test_from_runs_stores_tuples(self):
        g = Graph.from_runs(3, [0, 1], [[1, 2], [2]], [1, 2, 3])
        assert (g.heads, g.runs, g.capacity, g.m) == ((0, 1), ((1, 2), (2,)), (1, 2, 3), 3)
        ref = Graph(3, [(0, 1), (0, 2), (1, 2)], (1, 2, 3))
        assert g == ref and hash(g) == hash(ref)
        assert Graph.from_runs(3, (), ()) == Graph(3, ()) == Graph(3, iter(()))

    def test_cut_runs(self):
        assert cut_runs((), ()) == ([], [])
        assert cut_runs(("1", "1", "2", "1"), (4, 5, 6, 7)) == ([0, 2, 3], [(4, 5), (6,), (7,)])

    def test_list_input_stored_as_tuple(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g == Graph.from_edges(3, [(2, 1), (1, 0), (0, 1)])

    def test_capacity_stored_as_tuple(self):
        listed = Graph(3, [(0, 1)], [1, 2, 3])
        tupled = Graph(3, [(0, 1)], (1, 2, 3))
        assert listed.capacity == (1, 2, 3)
        assert listed == tupled and hash(listed) == hash(tupled)
        with pytest.raises(ValueError, match="all vertices or none"):
            Graph(3, [(0, 1)], [1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            Graph(3, [(0, 1)], [1, -1, 2])

    def test_has_edge_out_of_range(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert not g.has_edge(-1, 0) and not g.has_edge(0, -1)
        assert not g.has_edge(3, 0) and not g.has_edge(0, 3)
        assert not g.has_edge(1, 1)

    def test_capacity_all_or_none(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [], capacity=[1, 2])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [], capacity=[1, -1])


def _random_with_isolated(seed):
    """A random graph on 0..12 vertices, density 0.1..0.9, with 0..2 extra
    isolated vertices at the end."""
    rng = random.Random(seed)
    g = random_graph(rng, n=rng.randint(0, 10), p=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
    return Graph(g.n + rng.randint(0, 2), g.edges)


class TestNeighborsByDefinition:
    @pytest.mark.parametrize("seed", range(60))
    def test_neighbors_adj_and_has_edge(self, seed):
        g = _random_with_isolated(seed)
        edge_set = set(g.edges)
        assert g.neighbors == tuple(
            tuple(sorted([v for u, v in g.edges if u == w] + [u for u, v in g.edges if v == w]))
            for w in range(g.n)
        )
        assert g.adj == tuple(map(frozenset, g.neighbors))
        for u in range(-1, g.n + 1):
            for v in range(-1, g.n + 1):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edge_set)

    def test_seeds_reach_isolated_vertices_and_dense_graphs(self):
        graphs = [_random_with_isolated(seed) for seed in range(60)]
        assert any(g.n == 0 for g in graphs)
        assert any(() in g.neighbors for g in graphs if g.m)
        assert max(2 * g.m / (g.n * (g.n - 1)) for g in graphs if g.n > 1) > 0.8


class TestTwinPartition:
    def test_complete_graph_single_class(self):
        assert twin_partition(complete_graph(5)).k == 1

    def test_path_all_singletons(self):
        assert twin_partition(path_graph(5)).k == 5

    def test_cycle4_two_classes(self):
        # independent oracle over all partitions into twin classes
        g = cycle_graph(4)
        assert brute_min_twin_partition(g) == 2
        p = twin_partition(g)
        assert p.k == 2
        assert sorted(map(sorted, p.classes)) == [[0, 2], [1, 3]]
        assert p.kinds == (INDEPENDENT, INDEPENDENT)

    def test_empty_graph(self):
        assert twin_partition(empty_graph(0)).k == 0

    def test_class_order_by_smallest_vertex(self):
        p = twin_partition(star_graph(3))
        assert p.classes == ((0,), (1, 2, 3))
        assert p.kinds == (INDEPENDENT, INDEPENDENT)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_partition_count(self, seed):
        g = random_graph(random.Random(seed), n=6, p=0.5)
        assert twin_partition(g).k == brute_min_twin_partition(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_coarsest_merging_two_classes_fails(self, seed):
        g = random_graph(random.Random(100 + seed), n=7, p=0.4)
        p = twin_partition(g)
        for a in range(p.k):
            for b in range(a + 1, p.k):
                merged = p.classes[a] + p.classes[b]
                assert not all(
                    are_twins(g, u, v) for u in merged for v in merged if u < v
                )


def _random_gnp(seed):
    rng = random.Random(seed)
    return random_graph(rng, n=rng.randint(0, 9), p=rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))


@pytest.mark.parametrize("seed", range(40))
def test_are_twins_by_definition(seed):
    g = _random_gnp(seed)
    nbr = [{v for e in g.edges if w in e for v in e if v != w} for w in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            assert are_twins(g, u, v) == (nbr[u] - {v} == nbr[v] - {u})


def pairwise_twin_classes(g):
    """The equivalence classes of are_twins, by definition: each vertex with
    every vertex it is a twin of, classes ordered by smallest member."""
    classes = sorted(
        {tuple(v for v in range(g.n) if v == u or are_twins(g, u, v)) for u in range(g.n)}
    )
    kinds = tuple(
        CLIQUE
        if len(c) >= 2 and all(g.has_edge(u, v) for u in c for v in c if u < v)
        else INDEPENDENT
        for c in classes
    )
    return tuple(classes), kinds


class TestTwinPartitionByDefinition:
    @pytest.mark.parametrize("seed", range(80))
    def test_equals_pairwise_twin_classes(self, seed):
        g = _random_gnp(seed)
        p = twin_partition(g)
        assert (p.classes, p.kinds) == pairwise_twin_classes(g)

    @pytest.mark.parametrize("seed", range(80))
    def test_type_graph_matches_checked_build(self, seed):
        g = _random_gnp(seed)
        assert type_graph(g) == build_type_graph(g, twin_partition(g))

    def test_seeds_reach_both_kinds_of_twins(self):
        kinds = set()
        for seed in range(80):
            p = twin_partition(_random_gnp(seed))
            kinds.update(knd for c, knd in zip(p.classes, p.kinds) if len(c) >= 2)
        assert kinds == {CLIQUE, INDEPENDENT}


class TestTypeGraph:
    def test_complete_graph(self):
        t = type_graph(complete_graph(5))
        assert (t.k, t.weights) == (1, (5,))
        assert t.loop_at(0)
        assert t.kinds == (CLIQUE,)

    def test_edgeless(self):
        t = type_graph(empty_graph(5))
        assert (t.k, t.weights) == (1, (5,))
        assert not t.loop_at(0)
        assert t.edges == frozenset()

    def test_star(self):
        t = type_graph(star_graph(3))
        assert t.k == 2
        assert sorted(t.weights) == [1, 3]
        assert t.edges == frozenset({(0, 1)})

    def test_weights_sum_to_n(self):
        for seed in range(8):
            g = random_graph(random.Random(seed), n=7, p=0.6)
            assert type_graph(g).n == 7

    def test_rejects_non_twin_partition(self):
        g = complete_graph(4)
        bad = TypePartition(((0, 1), (2, 3)), (CLIQUE, CLIQUE))
        with pytest.raises(ValueError):
            build_type_graph(g, bad)

    def test_rejects_wrong_kind(self):
        g = complete_graph(3)
        bad = TypePartition(((0, 1, 2),), (INDEPENDENT,))
        with pytest.raises(ValueError):
            build_type_graph(g, bad)

    def test_neighbors_include_self_only_with_loop(self):
        t = type_graph(complete_graph(4))
        assert t.neighbors(0) == {0}
        t2 = type_graph(empty_graph(4))
        assert t2.neighbors(0) == frozenset()


class TestDominationCapacity:
    def _single_class(self, caps):
        g = empty_graph(len(caps), capacity=caps)
        return type_graph(g)

    def test_empty_prefix(self):
        t = self._single_class([3, 1, 0])
        assert domination_capacity(t, 0, 0) == 0

    def test_two_largest(self):
        t = self._single_class([3, 1, 0])
        assert domination_capacity(t, 0, 2) == 4

    def test_clamping(self):
        t = self._single_class([3, 1, 0])
        assert domination_capacity(t, 0, 10) == 4

    def test_unknown_class(self):
        t = self._single_class([1])
        with pytest.raises(ValueError):
            domination_capacity(t, 3, 0)

    def test_requires_capacities(self):
        t = type_graph(empty_graph(3))
        with pytest.raises(ValueError):
            domination_capacity(t, 0, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_concave_increments(self, seed):
        rng = random.Random(seed)
        caps = [rng.randint(0, 5) for _ in range(6)]
        t = self._single_class(caps)
        incs = [
            domination_capacity(t, 0, ell + 1) - domination_capacity(t, 0, ell)
            for ell in range(8)
        ]
        assert all(a >= b for a, b in zip(incs, incs[1:]))

    def test_capacity_order_ties_by_vertex_index(self):
        g = empty_graph(3, capacity=[2, 3, 2])
        t = type_graph(g)
        assert t.classes[0] == (1, 0, 2)
        assert t.sorted_capacities[0] == (3, 2, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_prefix_sums_are_the_sorted_capacity_sums(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), max_capacity=4)
        t = type_graph(g)
        for i, caps in enumerate(t.sorted_capacities):
            assert t.capacity_prefix[i] == tuple(sum(caps[:ell]) for ell in range(len(caps) + 1))
            for ell in range(len(caps) + 3):
                assert domination_capacity(t, i, ell) == sum(caps[:ell])

    def test_prefix_sums_require_capacities(self):
        with pytest.raises(ValueError, match="no capacities"):
            type_graph(empty_graph(3)).capacity_prefix
