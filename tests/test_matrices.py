import random
from dataclasses import dataclass

import pytest

from ndsolve.matrices import (
    DecompositionReport,
    IntMatrix,
    PathDecomposition,
    dual_graph,
    stacked_path_decomposition,
    primal_graph,
    verify_decomposition,
)

from helpers import empty_graph, complete_graph


def identity(n):
    return IntMatrix.from_dict(n, n, {(i, i): 1 for i in range(n)})


def random_matrix(rng, m, n, density=0.5, span=2):
    d = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    d[(i, j)] = v
    return IntMatrix.from_dict(m, n, d)


class TestIntMatrix:
    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 1, (((0, 0), 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntMatrix.from_dict(1, 1, {(0, 1): 2})

    def test_roundtrip_rows(self):
        rows = [[1, 0, -2], [0, 3, 0]]
        assert IntMatrix.from_rows(rows).to_rows() == rows

    def test_transpose_involution(self):
        a = random_matrix(random.Random(0), 4, 6)
        assert a.transpose().transpose() == a

    def test_mul_vec(self):
        a = IntMatrix.from_rows([[1, 1, -1]])
        assert a.mul_vec([2, 3, 5]) == [0]

    def test_stack(self):
        f = IntMatrix.from_rows([[1, 1]])
        l = IntMatrix.from_rows([[1, -1]])
        assert f.stack(l).to_rows() == [[1, 1], [1, -1]]


class TestPrimalDual:
    def test_identity_primal_edgeless(self):
        assert primal_graph(identity(4)).m == 0

    def test_all_ones_row_triangle(self):
        a = IntMatrix.from_rows([[1, 1, 1]])
        g = primal_graph(a)
        assert g.edges == complete_graph(3).edges

    def test_incidence_transpose_gives_line_graph_adjacency(self):
        # type path 0-1-2; columns are the two edges, sharing type 1
        inc_t = IntMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
        g = primal_graph(inc_t)
        assert g.edges == ((0, 1),)

    def test_identity_dual_edgeless(self):
        assert dual_graph(identity(3)).m == 0

    def test_two_rows_sharing_column(self):
        a = IntMatrix.from_rows([[1, 0], [2, 0]])
        assert dual_graph(a).edges == ((0, 1),)

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_is_primal_of_transpose(self, seed):
        a = random_matrix(random.Random(seed), 5, 7)
        assert dual_graph(a).edges == primal_graph(a.transpose()).edges


@dataclass
class _Stub:
    stacked: object


@dataclass
class _Blocks:
    f_rows: int
    l_rows: int


class TestDecompositions:
    def test_edgeless_accepts_singletons(self):
        g = empty_graph(3)
        d = PathDecomposition((frozenset({0}), frozenset({1}), frozenset({2})))
        assert verify_decomposition(g, d) == DecompositionReport(True, 0)

    def test_uncovered_edge_rejected(self):
        g = complete_graph(3)
        d = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        rep = verify_decomposition(g, d)
        assert not rep.valid and "edge" in rep.reason

    def test_non_contiguous_rejected(self):
        g = empty_graph(2)
        d = PathDecomposition((frozenset({0}), frozenset({1}), frozenset({0})))
        assert not verify_decomposition(g, d).valid

    def test_missing_vertex_rejected(self):
        g = empty_graph(2)
        d = PathDecomposition((frozenset({0}),))
        rep = verify_decomposition(g, d)
        assert not rep.valid and "vertex" in rep.reason

    def test_stacked_decomposition_requires_annotation(self):
        with pytest.raises(ValueError):
            stacked_path_decomposition(_Stub(stacked=None))

    def test_stacked_decomposition_single_l_row(self):
        d = stacked_path_decomposition(_Stub(_Blocks(f_rows=1, l_rows=1)))
        assert d.bags == (frozenset({0, 1}),)
        assert d.width == 1

    def test_stacked_decomposition_two_l_rows(self):
        d = stacked_path_decomposition(_Stub(_Blocks(f_rows=2, l_rows=2)))
        assert d.bags == (frozenset({0, 1, 2, 3}),)
        assert d.width == 3

    def test_stacked_decomposition_bag_count(self):
        d = stacked_path_decomposition(_Stub(_Blocks(f_rows=3, l_rows=5)))
        assert len(d.bags) == 4
        assert d.width == 4  # k + 1 with k = 3

    def test_two_clique_types_dual_graph_is_full_join(self):
        # two disjoint K_2's: covering rows form a clique, counter rows a
        # path, and every covering row shares a column with every counter row
        from ndsolve.graphs import Graph, type_graph
        from ndsolve.models import build_sumcol_graver

        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        model = build_sumcol_graver(type_graph(g))
        dual = dual_graph(model.matrix())
        assert sorted(dual.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("seed", range(20))
    def test_stacked_decomposition_valid_on_random_type_graphs(self, seed):
        from ndsolve.graphs import type_graph
        from ndsolve.instances import generate_blowup, random_template
        from ndsolve.models import build_sumcol_graver

        rng = random.Random(900 + seed)
        template = random_template(rng, max_k=4, max_n=8)
        g = generate_blowup(template, seed=seed)
        t = type_graph(g)
        model = build_sumcol_graver(t)
        d = stacked_path_decomposition(model)
        report = verify_decomposition(dual_graph(model.matrix()), d)
        assert report.valid and report.width <= t.k + 1
