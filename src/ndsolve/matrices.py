"""Sparse integer matrices: only the non-zero entries are stored.

The models hold their constraint blocks as IntMatrix (IpModel.matrix, the
n-fold blocks A1 and A2, split_stacked_blocks' F and L); the Graver layer
and the backends read them as dense rows or as entries, and the stacking
check stacks F over L and multiplies by vectors.
"""

from __future__ import annotations

from dataclasses import dataclass


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
