import pytest

from ndsolve.graphs import Graph, type_graph
from ndsolve.ipmodel import (
    EQ,
    GE,
    IpModel,
    Linear,
    LinearRow,
    NFoldBlocks,
    dump_model,
)
from ndsolve.matrices import IntMatrix
from ndsolve.models import build_cds_ilp


def tiny_model(rows, nfold=None, n=2):
    return IpModel(
        objective=Linear(tuple([1] * n)),
        n_vars=n,
        lower=tuple([0] * n),
        upper=tuple([3] * n),
        rows=tuple(rows),
        nfold=nfold,
    )


class TestValidation:
    """A model is validated when it is constructed."""

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            IpModel(Linear((1,)), 1, (2,), (0,), ())

    def test_rejects_row_index_out_of_range(self):
        with pytest.raises(ValueError):
            tiny_model([LinearRow.make({5: 1}, GE, 0)])

    def test_nfold_layout_checked_against_rows(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        tiny_model(
            [LinearRow.make({0: 1, 1: 1}, EQ, 3)],
            nfold=NFoldBlocks(1, 0, 1, 2, a1, a2),
        )
        # wrong coefficient in the repeated top block
        with pytest.raises(ValueError):
            tiny_model(
                [LinearRow.make({0: 1, 1: 2}, EQ, 3)],
                nfold=NFoldBlocks(1, 0, 1, 2, a1, a2),
            )

    def test_nfold_requires_equalities(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        with pytest.raises(ValueError):
            tiny_model(
                [LinearRow.make({0: 1, 1: 1}, GE, 3)],
                nfold=NFoldBlocks(1, 0, 1, 2, a1, a2),
            )

    def test_nfold_dimension_mismatch(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        with pytest.raises(ValueError):
            tiny_model(
                [LinearRow.make({0: 1, 1: 1}, EQ, 3)],
                nfold=NFoldBlocks(1, 0, 1, 3, a1, a2),
            )


GOLDEN_DUMP = """vars 2
bound 0 0 2
bound 1 0 1
obj linear 1 0
row 0 >= 2
entry 0 0 1
entry 0 1 1
row 1 <= 0
entry 1 0 -1
entry 1 1 1
row 2 <= 1
entry 2 1 1
tag cds
"""


class TestGoldenDump:
    def test_frozen_serialization(self):
        # K_2 with capacities (1, 0): one clique class of weight 2
        g = Graph.from_edges(2, [(0, 1)], capacity=[1, 0])
        assert dump_model(build_cds_ilp(type_graph(g))) == GOLDEN_DUMP
