import hashlib
import itertools
import random
from collections import Counter

import pytest

from ndsolve import algorithms, cli
from ndsolve.algorithms import (
    cds_brute,
    cds_proximity_solve,
    cds_rounding_approx,
    check_cds,
    check_coloring,
    coloring_cost,
    cut_value,
    max_bipartite_matching,
    maxqcut_brute,
    proximity_box,
    relax_model,
    sumcol_brute,
)
from ndsolve.backends import solve_boxed
from ndsolve.graphs import Graph, type_graph
from ndsolve.lp import solve_lp
from ndsolve.instances import Instance, generate_blowup, random_template
from ndsolve.models import (
    CdsSolution,
    build_cds_ilp,
    cds_hall_row,
    cds_hall_sets,
    decode_cds,
)

import helpers
from helpers import (
    capacity_reorder,
    complete_graph,
    decoded,
    empty_graph,
    is_capacity_ordered,
    path_graph,
    pinned_cds_instances,
    random_graph,
    star_graph,
)


# sha256 over repr(sorted dominators) of the proximity route's witness on
# each pinned instance, which the vertex-level decode gave as well.  The
# route prints no assignment, so only the dominators are pinned, and the
# assignment is checked by check_cds.
PINNED_PROXIMITY_WITNESSES = "a6aa0504d6ba125a5a712487d95545591454dbd027b591b4d7625768fc3576d6"


# sha256 over repr((size, sorted(assignment.items()))) of max_bipartite_matching
# on random_matching_input(seed) for seed in range(2000), as computed when
# the matching recursed once per vertex of an augmenting path.
PINNED_MATCHING_DIGEST = "587e1b7656e7f7002a59db39d5651f671f524caa1a3badd52ef709def4fa4f38"


def random_matching_input(seed):
    """(left, adj, capacity) of a capacitated bipartite input: the left
    vertices unsorted, some with no adjacency entry and some right vertices
    with no capacity entry, capacities 0 to 3, and mostly small degrees so
    that augmenting paths run long."""
    rng = random.Random(seed)
    right = list(range(100, 100 + rng.randint(0, 12)))
    left = rng.sample(range(100), rng.randint(0, 20))
    top = rng.choice([2, 3, len(right)])
    adj = {l: rng.sample(right, rng.randint(0, min(top, len(right))))
           for l in left if rng.random() < 0.9}
    capacity = {r: rng.randint(0, 3) for r in right if rng.random() < 0.9}
    return left, adj, capacity


def random_cds_graph(seed, n_max=7, cap_max=3):
    rng = random.Random(seed)
    return random_graph(rng, n=rng.randint(1, n_max), p=0.5, max_capacity=cap_max)


class TestCheckers:
    def test_valid_star_solution(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        sol = CdsSolution.make({0}, {1: 0, 2: 0, 3: 0})
        assert check_cds(g, sol)

    def test_capacity_violation(self):
        g = star_graph(3, capacity=[2, 0, 0, 0])
        sol = CdsSolution.make({0}, {1: 0, 2: 0, 3: 0})
        assert not check_cds(g, sol)

    def test_non_edge_assignment(self):
        g = path_graph(3, capacity=[1, 1, 1])
        sol = CdsSolution.make({0}, {1: 0, 2: 0})
        assert not check_cds(g, sol)

    def test_monochromatic_edge_rejected(self):
        g = path_graph(3)
        assert not check_coloring(g, {0: 1, 1: 1, 2: 2})
        assert check_coloring(g, {0: 1, 1: 2, 2: 1})

    def test_cut_value_k4(self):
        g = complete_graph(4)
        assert cut_value(g, {0: 1, 1: 1, 2: 2, 3: 2}) == 4

    @pytest.mark.parametrize("seed", range(20))
    def test_check_coloring_agrees_with_edge_walk(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 9), p=rng.random())

        def by_edges(coloring):
            return (
                set(coloring) == set(range(g.n))
                and all(c >= 1 for c in coloring.values())
                and all(coloring[u] != coloring[v] for u, v in g.edges)
            )

        proper = dict(enumerate(rng.sample(range(1, g.n + 1), g.n)))
        few_colours = {v: rng.randint(1, 3) for v in range(g.n)}
        missing = dict(proper)
        del missing[rng.randrange(g.n)]
        extra = {**proper, g.n: 1}
        zero = {**proper, rng.randrange(g.n): 0}
        cases = [proper, few_colours, missing, extra, zero]
        if g.edges:
            u, v = rng.choice(sorted(g.edges))
            cases.append({**proper, v: proper[u]})  # one clash
        assert by_edges(proper)
        for coloring in cases:
            assert check_coloring(g, coloring) == by_edges(coloring), coloring

    @pytest.mark.parametrize("seed", range(20))
    def test_cut_value_agrees_with_edge_walk(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(0, 9), p=rng.random())
        q = rng.randint(2, 4)
        partitions = [
            {v: 1 for v in range(g.n)},  # a single part
            {v: rng.randint(1, q) for v in range(g.n)},
            {v: rng.randint(q + 1, q + 4) for v in range(g.n)},  # parts above q
        ]
        for partition in partitions:
            by_edges = sum(1 for u, v in g.edges if partition[u] != partition[v])
            assert cut_value(g, partition) == by_edges


class TestMatching:
    def test_empty_right_side(self):
        size, assignment = max_bipartite_matching([0, 1], {0: [], 1: []}, {})
        assert size == 0 and assignment == {}

    def test_star_feasibility(self):
        size, _ = max_bipartite_matching(
            [1, 2, 3], {1: [0], 2: [0], 3: [0]}, {0: 3}
        )
        assert size == 3

    def test_saturated_dominator_leaves_unmatched(self):
        size, _ = max_bipartite_matching(
            [1, 2, 3], {1: [0], 2: [0], 3: [0]}, {0: 2}
        )
        assert size == 2

    def test_relocation(self):
        # l0 can go to r0 or r1; l1 only to r0: augmenting must relocate l0
        size, assignment = max_bipartite_matching(
            [0, 1], {0: [10, 11], 1: [10]}, {10: 1, 11: 1}
        )
        assert size == 2 and assignment[1] == 10 and assignment[0] == 11

    def test_pinned_assignments(self):
        h = hashlib.sha256()
        for seed in range(2000):
            size, assignment = max_bipartite_matching(*random_matching_input(seed))
            assert size == len(assignment)
            h.update(repr((size, sorted(assignment.items()))).encode())
        assert h.hexdigest() == PINNED_MATCHING_DIGEST

    def test_augmenting_path_of_5000_vertices(self):
        # left j < 5000 is adjacent to r + j and r + j + 1 and takes r + j;
        # the last left vertex reaches only r, so its augmenting path moves
        # every earlier one up by one
        r, n = 10_000, 5000
        adj = {j: [r + j, r + j + 1] for j in range(n)}
        adj[n] = [r]
        capacity = {r + j: 1 for j in range(n + 1)}
        size, assignment = max_bipartite_matching(range(n + 1), adj, capacity)
        assert size == n + 1
        assert list(assignment.items()) == [(j, r + j + 1) for j in range(n)] + [(n, r)]


class TestBrutes:
    def test_cds_single_vertex(self):
        g = empty_graph(1, capacity=[0])
        sol = cds_brute(g)
        assert sol.dominators == {0} and sol.size == 1

    def test_sumcol_path(self):
        assert coloring_cost(sumcol_brute(path_graph(3))) == 4

    def test_maxqcut_k4(self):
        g = complete_graph(4)
        assert cut_value(g, maxqcut_brute(g, 2)) == 4

    def test_size_guards(self):
        with pytest.raises(ValueError):
            cds_brute(empty_graph(11, capacity=[0] * 11))
        with pytest.raises(ValueError):
            sumcol_brute(empty_graph(10))
        with pytest.raises(ValueError):
            maxqcut_brute(empty_graph(11), 2)

    def test_brute_solutions_check_out(self):
        for seed in range(10):
            g = random_cds_graph(seed)
            assert check_cds(g, cds_brute(g))
            assert check_coloring(g, sumcol_brute(g))


class TestCapacityReorder:
    def test_already_ordered_unchanged(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        sol = CdsSolution.make({0}, {1: 0, 2: 0, 3: 0})
        out = capacity_reorder(g, sol)
        assert out == sol

    def test_low_capacity_pick_is_swapped(self):
        # two twins 0,1 with capacities 2,1; picking 1 must swap to 0
        g = complete_graph(2, capacity=[2, 1])
        sol = CdsSolution.make({1}, {0: 1})
        assert check_cds(g, sol)
        out = capacity_reorder(g, sol)
        assert out.dominators == {0}
        assert check_cds(g, out) and out.size == 1

    def test_swap_inside_larger_class(self):
        g = complete_graph(4, capacity=[3, 1, 2, 1])
        sol = CdsSolution.make({1, 3}, {0: 1, 2: 3})
        assert check_cds(g, sol)
        out = capacity_reorder(g, sol)
        assert check_cds(g, out) and out.size == 2
        assert is_capacity_ordered(g, out.dominators)

    def test_rejects_invalid_input(self):
        g = complete_graph(2, capacity=[0, 0])
        with pytest.raises(ValueError):
            capacity_reorder(g, CdsSolution.make({0}, {1: 0}))

    def test_exchange_that_does_not_progress_raises(self, monkeypatch):
        # vertex 0 in two classes: each exchange undoes the other's progress,
        # so without the guard the loop would swap forever
        monkeypatch.setattr(helpers, "_capacity_order", lambda g: [[1, 0], [0, 1]])
        g = complete_graph(2, capacity=[1, 1])
        with pytest.raises(RuntimeError, match="did not reduce"):
            capacity_reorder(g, CdsSolution.make({0}, {1: 0}))

    def test_invalid_result_raises(self, monkeypatch):
        verdicts = iter([True, False])  # the input passes, the result fails
        monkeypatch.setattr(helpers, "check_cds", lambda g, sol: next(verdicts))
        g = star_graph(3, capacity=[3, 0, 0, 0])
        with pytest.raises(RuntimeError, match="invalid or resized"):
            capacity_reorder(g, CdsSolution.make({0}, {1: 0, 2: 0, 3: 0}))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_valid_solutions(self, seed):
        rng = random.Random(seed)
        g = random_cds_graph(seed)
        # random valid solution: add random vertices on top of the optimum
        base = cds_brute(g)
        extra = {v for v in range(g.n) if rng.random() < 0.3}
        dom = set(base.dominators) | extra
        from ndsolve.algorithms import _match_subset

        assignment = _match_subset(g, dom)
        sol = CdsSolution.make(dom, assignment)
        out = capacity_reorder(g, sol)
        assert check_cds(g, out)
        assert out.size == sol.size
        assert is_capacity_ordered(g, out.dominators)


class TestRelaxation:
    def test_star_relaxation_bounded_by_integer_optimum(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        res = solve_lp(relax_model(build_cds_ilp(t)))
        assert res.optimal and res.value <= 1

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bound_direction(self, seed):
        g = random_cds_graph(seed)
        t = type_graph(g)
        model = build_cds_ilp(t)
        lp = solve_lp(relax_model(model))
        ip = solve_boxed(model)
        assert lp.optimal and ip.optimal
        assert lp.value <= ip.value

    def test_pins_are_respected(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        center_class = t.classes.index((0,))
        res = solve_lp(relax_model(build_cds_ilp(t), pins={center_class: 1}))
        assert res.point[center_class] == 1


def route_lines(name, g):
    """The report lines of the CDS route named name on g."""
    return list(cli.ROUTES["cds"][1][name].solve(Instance(g, "cds"), type_graph(g))[2])


class TestProximity:
    def test_star(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        assert cds_proximity_solve(t) == ((1, 0), 3)
        assert decoded(t, cds_proximity_solve(t)).dominators == {0}

    def test_zero_capacity_clique(self):
        g = complete_graph(5, capacity=[0] * 5)
        t = type_graph(g)
        assert decoded(t, cds_proximity_solve(t)).size == 5

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_and_boxed(self, seed):
        g = random_cds_graph(seed)
        t = type_graph(g)
        sol = decoded(t, cds_proximity_solve(t))
        assert check_cds(g, sol)
        assert sol.size == cds_brute(g).size
        assert sol.size == solve_boxed(build_cds_ilp(t)).value

    @pytest.mark.parametrize("seed", range(15))
    def test_box_contains_an_ordered_optimum(self, seed):
        g = random_cds_graph(seed)
        t = type_graph(g)
        res = solve_lp(relax_model(build_cds_ilp(t)))
        lo, hi = proximity_box(t, res.point)
        opt = cds_brute(g).size
        found = False
        for xhat in itertools.product(*map(range, lo, (h + 1 for h in hi))):
            if sum(xhat) == opt and decode_cds(t, xhat) is not None:
                found = True
                break
        assert found


    def test_pinned_witnesses_with_one_decode_each(self, monkeypatch):
        decodes = []
        real = cli.decode_cds

        def decode(t, point):
            decodes.append(real(t, point))
            return decodes[-1]

        monkeypatch.setattr(cli, "decode_cds", decode)
        h = hashlib.sha256()
        for t, g in pinned_cds_instances():
            decodes.clear()
            [line] = route_lines("proximity", g)
            [sol] = decodes
            assert check_cds(g, sol)
            dominators = ",".join(str(v + 1) for v in sorted(sol.dominators))
            assert line == f"algo: proximity value: {sol.size} witness: D={{{dominators}}}"
            h.update(repr(sorted(sol.dominators)).encode())
        assert h.hexdigest() == PINNED_PROXIMITY_WITNESSES

    def test_type_check_disagreeing_with_decode_is_loud(self, monkeypatch):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        monkeypatch.setattr(cli, "decode_cds", lambda t, x: None)
        with pytest.raises(RuntimeError, match=r"proximity returned an invalid dominating set for \[1, 0\]"):
            route_lines("proximity", g)

    def test_empty_instance_takes_the_empty_point(self):
        g = Graph.from_edges(0, [], [])
        t = type_graph(g)
        assert t.k == 0 and proximity_box(t, ()) == ((), ())
        assert cds_proximity_solve(t) == ((), 1)
        sol = decoded(t, cds_proximity_solve(t))
        assert sol.dominators == frozenset() and sol.assignment == ()

    def test_box_search_is_the_first_smallest_decodable_point(self):
        # the plain enumeration the branch-and-bound replaces: the
        # lexicographically first x of least sum x that decodes
        sizes = Counter()
        for seed in range(240):
            rng = random.Random(31_000 + seed)
            template = random_template(rng, max_k=5, max_n=12, with_capacities=True, max_capacity=4)
            g = generate_blowup(template, seed=rng.randrange(2**30))
            t = type_graph(g)
            sizes[t.k] += 1
            lo, hi = proximity_box(t, solve_lp(relax_model(build_cds_ilp(t))).point)
            want = min(
                (x for x in itertools.product(*map(range, lo, (h + 1 for h in hi)))
                 if decode_cds(t, x) is not None),
                key=sum,
            )
            assert cds_proximity_solve(t)[0] == want, (g, want)
        assert sum(sizes.values()) == 240 and sizes[5] >= 20

    def test_hall_row_box_min_is_admissible(self):
        # box_min(lo, hi) <= fn(x) for every x of random sub-boxes
        checked = 0
        for seed in range(200):
            rng = random.Random(32_000 + seed)
            template = random_template(rng, max_k=5, max_n=12, with_capacities=True, max_capacity=4)
            g = generate_blowup(template, seed=rng.randrange(2**30))
            t = type_graph(g)
            row = cds_hall_row(t)
            for _ in range(3):
                ends = [sorted((rng.randint(0, w), rng.randint(0, w))) for w in t.weights]
                lo, hi = [a for a, _ in ends], [b for _, b in ends]
                least = row.box_min(lo, hi)
                for x in itertools.product(*map(range, lo, (h + 1 for h in hi))):
                    assert least <= row.fn(x), (g, lo, hi, x)
                    checked += 1
        assert checked >= 2_000


class TestTypeLevelCheck:
    """The Hall row of cds_hall_row and the type-level decode of decode_cds
    against each other and against the domination oracle's vertex-level
    matching."""

    def test_agrees_with_decode_on_every_point(self):
        vectors = outcomes = 0
        zero_capacity = self_serving = 0
        for seed in range(300):
            rng = random.Random(7_000 + seed)
            template = random_template(rng, max_k=4, max_n=10, with_capacities=True, max_capacity=4)
            g = generate_blowup(template, seed=rng.randrange(2**30))
            t = type_graph(g)
            zero_capacity += 0 in g.capacity
            self_serving += any(t.loop_at(i) for i in range(t.k))
            fn = cds_hall_row(t).fn
            for x in itertools.product(*(range(w + 1) for w in t.weights)):
                ok = fn(x) <= 0
                assert ok == (decode_cds(t, x) is not None), (g, x)
                vectors += 1
                outcomes += ok
        assert vectors >= 7_000 and 0 < outcomes < vectors
        assert zero_capacity >= 100 and self_serving >= 100

    def test_decode_agrees_with_the_vertex_matching(self):
        # decode_cds matches outside vertices to classes, the oracle's
        # _match_subset matches them to the dominators themselves
        points = decodable = 0
        for seed in range(300):
            rng = random.Random(9_000 + seed)
            template = random_template(rng, max_k=4, max_n=9, with_capacities=True, max_capacity=4)
            g = generate_blowup(template, seed=rng.randrange(2**30))
            t = type_graph(g)
            for x in itertools.product(*(range(w + 1) for w in t.weights)):
                prefixes = {v for members, x_i in zip(t.classes, x) for v in members[:x_i]}
                sol = decode_cds(t, x)
                assert (sol is None) == (algorithms._match_subset(g, prefixes) is None), (g, x)
                if sol is not None:
                    assert sol.dominators == prefixes and check_cds(g, sol), (g, x)
                    decodable += 1
                points += 1
        assert points >= 5_000 and 0 < decodable < points

    def test_hall_sets_are_the_type_neighbourhoods(self):
        # classes: clique {0, 1} (looped), then 2 and 3, each joined to it
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], [1, 1, 5, 0])
        t = type_graph(g)
        assert t.k == 2 and t.loop_at(0) and not t.loop_at(1)
        # bitmask 1 = {0} -> N = {0, 1}; 2 = {1} -> {0}; 3 = {0, 1} -> {0, 1}
        assert cds_hall_sets(t) == ((0, -1, 0), (0, 0, 0b11), (0, 1, 0b01), (2, 0, 0b11))
        # f_0 = (0, 1, 2), f_1 = (0, 5, 5): at x = (0, 0) all four vertices
        # are outside with no dominator; class 1 is served by class 0 only,
        # so at (0, 1) its outside vertex has none, and at (1, 1) one
        row = cds_hall_row(t)
        assert row.fn((0, 0)) == 4 and row.fn((0, 1)) == 1 and row.fn((1, 1)) == 0
        assert row.box_min((0, 0), (2, 1)) == row.fn((2, 1)) == 0

    def test_out_of_bounds_point_is_rejected(self):
        g = star_graph(2, capacity=[2, 0, 0])
        t = type_graph(g)
        with pytest.raises(ValueError, match="outside class bounds"):
            cds_hall_row(t).fn((2, 0))


class TestRounding:
    def test_integral_relaxation_is_exact(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        assert cds_rounding_approx(t) == ((1, 0), 0)
        sol = decoded(t, cds_rounding_approx(t))
        assert check_cds(g, sol) and sol.size == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_additive_gap_within_k_squared(self, seed):
        g = random_cds_graph(seed)
        t = type_graph(g)
        sol = decoded(t, cds_rounding_approx(t))
        assert check_cds(g, sol)
        gap = sol.size - cds_brute(g).size
        assert 0 <= gap <= t.k * t.k

    def test_undecodable_rounding_is_loud(self, monkeypatch):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        monkeypatch.setattr(cli, "decode_cds", lambda t, x: None)
        with pytest.raises(RuntimeError, match=r"rounding returned an invalid dominating set for \[1, 0\]"):
            route_lines("rounding", g)
