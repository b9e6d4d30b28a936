"""Sparse integer matrices, their primal/dual graphs, and path decompositions.

The primal graph of a matrix has one vertex per column, two columns adjacent
when some row is non-zero in both; the dual graph is the primal graph of the
transpose.  A path decomposition of such a graph is an ordered list of bags
subject to the usual three conditions (vertex coverage, edge coverage,
contiguity of each vertex's occurrences); its width is the largest bag size
minus one.

For the stacked sum-coloring matrix A = (F over L) there is an explicit path
decomposition of the dual graph: every bag holds all k F-rows plus two
consecutive L-rows, giving width at most k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class IntMatrix:
    """Sparse integer matrix; only non-zero entries are stored."""

    m: int
    n: int
    entries: tuple  # of ((row, col), value), sorted

    def __post_init__(self):
        for (r, c), v in self.entries:
            if not (0 <= r < self.m and 0 <= c < self.n):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ValueError("stored entries must be non-zero")

    @classmethod
    def from_dict(cls, m, n, d):
        items = tuple(sorted((rc, v) for rc, v in d.items() if v != 0))
        return cls(m, n, items)

    @classmethod
    def from_rows(cls, rows):
        m = len(rows)
        n = len(rows[0]) if rows else 0
        d = {}
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v != 0:
                    d[(i, j)] = v
        return cls.from_dict(m, n, d)

    def to_dict(self):
        return dict(self.entries)

    def to_rows(self):
        rows = [[0] * self.n for _ in range(self.m)]
        for (r, c), v in self.entries:
            rows[r][c] = v
        return rows

    def transpose(self):
        return IntMatrix.from_dict(self.n, self.m, {(c, r): v for (r, c), v in self.entries})

    def row_support(self):
        """Non-zero column indices of each row."""
        sup = [[] for _ in range(self.m)]
        for (r, c), _ in self.entries:
            sup[r].append(c)
        return [tuple(s) for s in sup]

    def mul_vec(self, x):
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        out = [0] * self.m
        for (r, c), v in self.entries:
            out[r] += v * x[c]
        return out

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        """Vertical stack; column counts must agree."""
        if self.n != other.n:
            raise ValueError("column counts differ")
        d = self.to_dict()
        for (r, c), v in other.entries:
            d[(self.m + r, c)] = v
        return IntMatrix.from_dict(self.m + other.m, self.n, d)


def primal_graph(a: IntMatrix) -> Graph:
    """Graph over columns; i ~ j when some row is non-zero in both."""
    edges = set()
    for sup in a.row_support():
        for x in range(len(sup)):
            for y in range(x + 1, len(sup)):
                edges.add((sup[x], sup[y]))
    return Graph.from_edges(a.n, edges)


def dual_graph(a: IntMatrix) -> Graph:
    """Graph over rows; equals the primal graph of the transpose."""
    return primal_graph(a.transpose())


@dataclass(frozen=True)
class PathDecomposition:
    """Ordered bags over the vertices of some graph."""

    bags: tuple  # of frozensets

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    reason: str = ""


def verify_decomposition(g: Graph, d: PathDecomposition) -> DecompositionReport:
    """Check the three path-decomposition conditions for g; report width."""
    width = d.width
    covered = set().union(*d.bags) if d.bags else set()
    missing = set(range(g.n)) - covered
    if missing:
        return DecompositionReport(False, width, f"vertex {min(missing)} in no bag")
    for u, run in zip(g.heads, g.runs):
        for v in run:
            if not any(u in b and v in b for b in d.bags):
                return DecompositionReport(False, width, f"edge ({u},{v}) in no bag")
    for v in range(g.n):
        hits = [i for i, b in enumerate(d.bags) if v in b]
        if hits != list(range(hits[0], hits[-1] + 1)):
            return DecompositionReport(False, width, f"occurrences of {v} not contiguous")
    return DecompositionReport(True, width)


def stacked_path_decomposition(model) -> PathDecomposition:
    """The explicit decomposition of the dual graph of a stacked (F over L) model.

    Row i of L only shares columns with rows i-1 and i+1 of L (through the
    chained counter variables), so bags of {all F-rows, L_i, L_{i+1}} for
    consecutive i cover every dual edge with width <= k+1.
    """
    blocks = getattr(model, "stacked", None)
    if blocks is None:
        raise ValueError("model carries no stacked F/L block annotation")
    f_rows, l_rows = blocks.f_rows, blocks.l_rows
    f_bag = frozenset(range(f_rows))
    if l_rows == 0:
        return PathDecomposition((f_bag,) if f_rows else ())
    if l_rows == 1:
        return PathDecomposition((f_bag | {f_rows},))
    bags = tuple(
        f_bag | {f_rows + i, f_rows + i + 1} for i in range(l_rows - 1)
    )
    return PathDecomposition(bags)
