import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ndsolve.backends import solve_boxed, solve_nfold
from ndsolve.graphs import CLIQUE, INDEPENDENT, TypeGraph, type_graph
from ndsolve.instances import BlowupTemplate, generate_blowup
from ndsolve.ipmodel import LE, IpModel
from ndsolve.models import (
    DecodeError,
    build_catalog,
    build_cds_convex,
    build_cds_ilp,
    build_maxqcut,
    build_sumcol_convex,
    build_sumcol_graver,
    build_sumcol_nfold,
    class_slots,
    column_cost,
    decode_cds,
    decode_coloring,
    decode_partition,
    split_stacked_blocks,
)
from ndsolve.algorithms import (
    check_cds,
    check_coloring,
    coloring_cost,
    cut_value,
    cds_brute,
    maxqcut_brute,
    sumcol_brute,
)

from helpers import (
    cds_served_count_convex,
    complete_graph,
    cycle_graph,
    dump_model,
    empty_graph,
    path_graph,
    pinned_cds_instances,
    random_graph,
    star_graph,
)


def two_k2():
    from ndsolve.graphs import Graph

    return Graph.from_edges(4, [(0, 1), (2, 3)])


class TestCdsModels:
    def star(self):
        return star_graph(3, capacity=[3, 0, 0, 0])

    def test_star_optimum_one_both_models(self):
        g = self.star()
        t = type_graph(g)
        for build in (build_cds_convex, build_cds_ilp):
            res = solve_boxed(build(t))
            assert res.optimal and res.value == 1

    def test_complete_graph_high_capacity(self):
        g = complete_graph(5, capacity=[4] * 5)
        t = type_graph(g)
        for build in (build_cds_convex, build_cds_ilp):
            assert solve_boxed(build(t)).value == 1

    def test_zero_capacity_clique_needs_everyone(self):
        g = complete_graph(3, capacity=[0, 0, 0])
        t = type_graph(g)
        for build in (build_cds_convex, build_cds_ilp):
            assert solve_boxed(build(t)).value == 3

    def test_requires_capacities(self):
        t = type_graph(complete_graph(3))
        with pytest.raises(ValueError):
            build_cds_convex(t)

    def test_first_tangent_is_steepest(self):
        # one class with capacities (3,1,0) and a looped neighborhood
        g = complete_graph(3, capacity=[3, 1, 0])
        t = type_graph(g)
        m = build_cds_ilp(t)
        tangents = [r for r in m.rows if r.rel == LE]
        # tangent at l=1: sum_y - 3 x <= 0
        first = tangents[0]
        assert dict(first.coeffs)[0] == -3 and first.rhs == 0

    def test_uniform_capacities_collapse_tangents(self):
        g = complete_graph(3, capacity=[2, 2, 2])
        t = type_graph(g)
        m = build_cds_ilp(t)
        tangents = [r for r in m.rows if r.rel == LE]
        assert len(set(tangents)) == 1  # all rows equal sum_y <= 2 x

    @pytest.mark.parametrize("seed", range(15))
    def test_model_equivalence_random(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n=rng.randint(1, 6), p=0.5, max_capacity=3)
        t = type_graph(g)
        a = solve_boxed(build_cds_convex(t))
        b = solve_boxed(build_cds_ilp(t))
        assert a.value == b.value == cds_brute(g).size


    def test_convex_model_is_k_dimensional(self):
        t = type_graph(self.star())
        m = build_cds_convex(t)
        assert (m.n_vars, m.lower, m.upper, m.rows) == (t.k, (0,) * t.k, t.weights, ())
        assert [row.name for row in m.convex_rows] == ["hall"]

    def test_convex_model_is_the_served_count_model_projected(self):
        # the same value, and the x part of the old model's lexicographically
        # smallest optimum, on the acceptance gate's 100 pinned instances
        for t, g in pinned_cds_instances():
            new = solve_boxed(build_cds_convex(t))
            old = solve_boxed(cds_served_count_convex(t))
            assert new.optimal and old.optimal, g
            assert (new.value, new.point) == (old.value, old.point[:t.k]), g


class TestDecodeCds:
    def test_full_set_trivially_valid(self):
        g = complete_graph(3, capacity=[0, 0, 0])
        t = type_graph(g)
        sol = decode_cds(t, tuple(t.weights))
        assert sol is not None and sol.size == 3 and sol.assignment == ()
        assert check_cds(g, sol)

    def test_star_center_dominates(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        x = [0] * t.k
        x[t.classes.index((0,))] = 1
        sol = decode_cds(t, tuple(x))
        assert sol is not None and sol.dominators == {0}
        assert sorted(dict(sol.assignment)) == [1, 2, 3]
        assert check_cds(g, sol)

    def test_leaf_cannot_dominate_center(self):
        g = star_graph(3, capacity=[3, 0, 0, 0])
        t = type_graph(g)
        x = [0] * t.k
        x[t.classes.index((1, 2, 3))] = 1
        assert decode_cds(t, tuple(x)) is None


class TestDecodeMatchingCompleteness:
    @pytest.mark.parametrize("seed", range(8))
    def test_decode_succeeds_exactly_on_feasible_size_vectors(self, seed):
        # decode(x) must succeed iff some y completes (x, y) in the model
        import itertools

        from ndsolve.backends import solve_boxed as _solve
        from ndsolve.ipmodel import IpModel

        g = random_graph(random.Random(400 + seed), n=5, p=0.5, max_capacity=2)
        t = type_graph(g)
        model = build_cds_ilp(t)
        for x in itertools.product(*(range(w + 1) for w in t.weights)):
            lower = list(model.lower)
            upper = list(model.upper)
            for i, v in enumerate(x):
                lower[i] = upper[i] = v
            pinned = IpModel(
                **{**model.__dict__, "lower": tuple(lower), "upper": tuple(upper)}
            )
            model_feasible = _solve(pinned).optimal
            assert (decode_cds(t, x) is not None) == model_feasible


class TestCatalog:
    def test_star_catalog(self):
        t = type_graph(star_graph(3))
        cat = build_catalog(t)
        assert cat.sets == ((0,), (1,))  # the cross edge kills {0,1}
        assert sorted(cat.sigma) == [1, 3]
        assert cat.gamma == (1, 3)
        assert cat.gap_below == (1, 2)

    def test_loops_do_not_block_membership(self):
        t = type_graph(complete_graph(4))
        cat = build_catalog(t)
        assert cat.sets == ((0,),)
        assert cat.sigma == (1,)  # a clique class contributes one vertex

    def test_size_bound(self):
        for g in (empty_graph(6), path_graph(5), cycle_graph(6)):
            t = type_graph(g)
            assert 0 < build_catalog(t).size < 2 ** t.k


class TestColumnCost:
    def test_base_cases(self):
        assert column_cost(0) == 0
        assert column_cost(1) == 1
        assert column_cost(3) == 6

    @given(st.integers(min_value=0, max_value=500))
    def test_increments_grow_by_one(self, y):
        # a column one taller adds exactly one class at color y+1
        assert column_cost(y + 1) - column_cost(y) == y + 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            column_cost(-1)

    def test_single_vertex_arbitrates_formula(self):
        # K_1 has sum-coloring cost 1; the binomial variant would say 0
        g = empty_graph(1)
        t = type_graph(g)
        res = solve_boxed(build_sumcol_convex(t))
        assert res.value == 1 == coloring_cost(sumcol_brute(g))

    @pytest.mark.parametrize("seed", range(20))
    def test_formula_matches_oracle_on_random_instances(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n=rng.randint(1, 6), p=0.5)
        t = type_graph(g)
        res = solve_boxed(build_sumcol_convex(t))
        assert res.value == coloring_cost(sumcol_brute(g))


SUMCOL_CASES = [
    (complete_graph(3), 6),
    (path_graph(3), 4),
    (star_graph(3), 5),
    (two_k2(), 6),
    (empty_graph(4), 4),
]


class TestSumColoringModels:
    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_nfold_model_boxed(self, g, expected):
        t = type_graph(g)
        assert solve_boxed(build_sumcol_nfold(t)).value == expected

    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_nfold_model_nfold_backend(self, g, expected):
        t = type_graph(g)
        assert solve_nfold(build_sumcol_nfold(t)).value == expected

    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_convex_model(self, g, expected):
        t = type_graph(g)
        assert solve_boxed(build_sumcol_convex(t)).value == expected

    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_graver_model(self, g, expected):
        t = type_graph(g)
        assert solve_boxed(build_sumcol_graver(t)).value == expected

    def test_single_independent_type(self):
        t = type_graph(empty_graph(5))
        assert solve_boxed(build_sumcol_graver(t)).value == 5

    def test_single_clique_type(self):
        m = 4
        t = type_graph(complete_graph(m))
        assert solve_boxed(build_sumcol_graver(t)).value == m * (m + 1) // 2

    def test_nfold_annotation_dimensions(self):
        t = type_graph(star_graph(3))
        m = build_sumcol_nfold(t)
        assert m.nfold.r == t.k
        assert m.nfold.s == 1  # one cross edge, loops dropped
        assert m.nfold.t == t.k + 1
        assert m.nfold.n == 2  # one brick per class slot: center 1, leaves 1

    def test_initial_point_is_feasible(self):
        t = type_graph(star_graph(3))
        m = build_sumcol_nfold(t)
        for row in m.rows:
            assert sum(c * m.initial_point[i] for i, c in row.coeffs) == row.rhs


def random_type_graph(rng, k, max_weight):
    """A type graph built directly: random kinds, weights in [1, max_weight],
    cross edges with probability 0.3, and the loop of every clique class of
    two or more vertices."""
    kinds = tuple(rng.choice((CLIQUE, INDEPENDENT)) for _ in range(k))
    weights = tuple(rng.randint(1, max_weight) for _ in range(k))
    starts = list(itertools.accumulate(weights, initial=0))
    edges = {(i, i) for i in range(k) if kinds[i] == CLIQUE and weights[i] > 1}
    edges |= {e for e in itertools.combinations(range(k), 2) if rng.random() < 0.3}
    return TypeGraph(k=k, classes=tuple(range(a, b) for a, b in zip(starts, starts[1:])),
                     weights=weights, kinds=kinds, edges=frozenset(edges))


def catalog_type_graph(seed):
    """Seeds 0-39 draw k in 2..4 with weights <= 4; seeds 40-45 draw k = 5
    with weights <= 2."""
    rng = random.Random(3300 + seed)
    if seed < 40:
        return random_type_graph(rng, rng.randint(2, 4), 4)
    return random_type_graph(rng, 5, 2)


def catalog_points(t, cat):
    """Every catalog vector that covers each class's slots exactly, by
    exhaustive enumeration entry by entry."""
    left = [class_slots(t, i) for i in range(t.k)]
    x = []

    def rec(j):
        if j == cat.size:
            if not any(left):
                yield tuple(x)
            return
        members = cat.sets[j]
        for v in range(min(left[i] for i in members) + 1):
            for i in members:
                left[i] -= v
            x.append(v)
            yield from rec(j + 1)
            x.pop()
            for i in members:
                left[i] += v

    return list(rec(0))


class TestCatalogRemainderBound:
    @pytest.mark.parametrize("seed", range(46))
    def test_is_admissible_and_exact_at_the_last_entry(self, seed):
        # every feasible point completes each of its prefixes, so the hook on
        # a prefix is at most the remainder of every completion
        t = catalog_type_graph(seed)
        cat = build_catalog(t)
        convex, stacked = build_sumcol_convex(t), build_sumcol_graver(t)
        terms = stacked.objective.terms
        for x in catalog_points(t, cat):
            cost = convex.objective_value(x)
            assert all(convex.remainder_bound(x, d) <= cost for d in range(cat.size))
            assert convex.remainder_bound(x, cat.size) == cost
            z = [sum(v for v, s in zip(x, cat.sigma) if s >= g) for g in reversed(cat.gamma)]
            point = x + tuple(z)
            assert stacked.objective_value(point) == cost
            fixed = 0
            for d in range(stacked.n_vars + 1):
                assert stacked.remainder_bound(point, d) <= cost - fixed
                if d < stacked.n_vars:
                    fixed += terms[d](point[d])

    @pytest.mark.parametrize("seed", range(46))
    def test_prunes_and_keeps_the_optimum(self, seed):
        t = catalog_type_graph(seed)
        for m in (build_sumcol_convex(t), build_sumcol_graver(t)):
            res = solve_boxed(m)
            plain = solve_boxed(IpModel(**{**m.__dict__, "remainder_bound": None}))
            assert (res.status, res.point, res.value) == (plain.status, plain.point, plain.value)
            assert res.nodes <= plain.nodes


class TestSplitStackedBlocks:
    def test_split_shapes(self):
        t = type_graph(star_graph(3))
        m = build_sumcol_graver(t)
        f, l = split_stacked_blocks(m)
        cat = build_catalog(t)
        assert f.m == t.k and l.m == len(cat.gamma)
        assert f.n == l.n == m.n_vars

    def test_f_block_has_zero_z_columns(self):
        t = type_graph(star_graph(3))
        m = build_sumcol_graver(t)
        f, _ = split_stacked_blocks(m)
        cat = build_catalog(t)
        for (r, c), _v in f.entries:
            assert c < cat.size

    def test_two_type_norm_window(self):
        # stacked basis norms stay inside the product window
        # (4k+1)^k * (|Gamma|+1); the lower block's x-parts stay at l1 <= 2
        from ndsolve.graver import g1_norm, graver_basis

        g = two_k2()
        t = type_graph(g)
        m = build_sumcol_graver(t)
        cat = build_catalog(t)
        k, n_gamma = t.k, len(cat.gamma)
        full = graver_basis(m.matrix())
        assert g1_norm(full) <= (4 * k + 1) ** k * (n_gamma + 1)
        _, l_block = split_stacked_blocks(m)
        lower_basis = graver_basis(l_block)
        assert g1_norm(lower_basis) <= n_gamma + 1
        assert all(
            sum(abs(v) for v in elem[: cat.size]) <= 2 for elem in lower_basis.elements
        )


class TestMaxqcut:
    def test_k4_two_parts(self):
        t = type_graph(complete_graph(4))
        res = solve_boxed(build_maxqcut(t, 2))
        assert -res.value == 4  # the model minimizes -cut
        brute = maxqcut_brute(complete_graph(4), 2)
        assert cut_value(complete_graph(4), brute) == 4

    def test_edgeless_any_q(self):
        t = type_graph(empty_graph(5))
        assert solve_boxed(build_maxqcut(t, 3)).value == 0

    def test_cycle4_bipartition(self):
        g = cycle_graph(4)
        t = type_graph(g)
        assert -solve_boxed(build_maxqcut(t, 2)).value == 4

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            build_maxqcut(type_graph(empty_graph(2)), 1)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("q", [2, 3])
    def test_agrees_with_brute(self, seed, q):
        g = random_graph(random.Random(seed), n=6, p=0.5)
        t = type_graph(g)
        res = solve_boxed(build_maxqcut(t, q))
        assert -res.value == cut_value(g, maxqcut_brute(g, q))

    @pytest.mark.parametrize("seed", range(40))
    def test_remainder_bound_is_admissible_and_exact_at_full_depth(self, seed):
        # every feasible point is a completion of each of its prefixes, so
        # the hook on each prefix is at most -cut, and -cut at full depth
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        template = BlowupTemplate(
            tuple(rng.randint(1, 3) for _ in range(k)),
            tuple(rng.choice((CLIQUE, INDEPENDENT)) for _ in range(k)),
            frozenset((i, j) for i, j in itertools.combinations(range(k), 2)
                      if rng.random() < 0.6),
        )
        t = type_graph(generate_blowup(template, seed=seed))
        q = rng.choice((2, 3))
        m = build_maxqcut(t, q)
        splits = [
            [c for c in itertools.product(range(w + 1), repeat=q) if sum(c) == w]
            for w in t.weights
        ]
        for classes in itertools.product(*splits):
            x = [v for split in classes for v in split]
            cut = -m.objective_value(x)
            assert all(m.remainder_bound(x, d) <= -cut for d in range(m.n_vars))
            assert m.remainder_bound(x, m.n_vars) == -cut

    def test_remainder_bound_prunes_and_keeps_the_optimum(self):
        for seed in range(30):
            g = random_graph(random.Random(seed), n=6, p=0.5)
            t = type_graph(g)
            m = build_maxqcut(t, 3)
            res = solve_boxed(m)
            plain = solve_boxed(IpModel(**{**m.__dict__, "remainder_bound": None}))
            assert (res.status, res.point, res.value) == (plain.status, plain.point, plain.value)
            assert res.nodes <= plain.nodes
            assert -res.value == cut_value(g, maxqcut_brute(g, 3))


class TestDecoders:
    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_decode_catalog_models(self, g, expected):
        t = type_graph(g)
        for build, tag in (
            (build_sumcol_convex, "sumcol_convex"),
            (build_sumcol_graver, "sumcol_graver"),
        ):
            res = solve_boxed(build(t))
            coloring = decode_coloring(t, g, res.point, tag)
            assert check_coloring(g, coloring)
            assert coloring_cost(coloring) == expected

    @pytest.mark.parametrize("g,expected", SUMCOL_CASES)
    def test_decode_nfold_model(self, g, expected):
        t = type_graph(g)
        res = solve_boxed(build_sumcol_nfold(t))
        coloring = decode_coloring(t, g, res.point, "sumcol_nfold")
        assert check_coloring(g, coloring)
        assert coloring_cost(coloring) == expected

    def test_decode_partition_matches_objective(self):
        g = cycle_graph(4)
        t = type_graph(g)
        m = build_maxqcut(t, 2)
        res = solve_boxed(m)
        part = decode_partition(t, res.point)
        assert cut_value(g, part) == -res.value

    def test_decode_partition_edgeless(self):
        g = empty_graph(3)
        t = type_graph(g)
        res = solve_boxed(build_maxqcut(t, 2))
        part = decode_partition(t, res.point)
        assert cut_value(g, part) == 0 and set(part) == {0, 1, 2}

    def test_bad_point_raises(self):
        g = path_graph(3)
        t = type_graph(g)
        with pytest.raises(DecodeError):
            decode_coloring(t, g, (99,) * 10, "sumcol_convex")

    def test_unknown_tag_raises(self):
        g = path_graph(3)
        t = type_graph(g)
        with pytest.raises(DecodeError):
            decode_coloring(t, g, (0,), "nope")


class TestDump:
    def test_dump_is_deterministic_and_complete(self):
        t = type_graph(star_graph(2, capacity=[2, 0, 0]))
        text = dump_model(build_cds_ilp(t))
        assert text == dump_model(build_cds_ilp(t))
        assert text.startswith("vars ") and "obj linear" in text
        assert text.count("row ") == len(build_cds_ilp(t).rows)

    def test_dump_quadratic(self):
        t = type_graph(complete_graph(2))
        text = dump_model(build_maxqcut(t, 2))
        assert "obj quadratic" in text and "qterm" in text

    def test_dump_sepconvex_lists_values(self):
        t = type_graph(complete_graph(2))
        text = dump_model(build_sumcol_graver(t))
        assert "obj sepconvex" in text and "objterm" in text
