"""Bounded-box integer programs with linear rows and pluggable objectives.

Every model minimizes its objective: a problem that maximizes, max-q-cut,
is modelled by its negation, and its route in cli.ROUTES flips the sign
back.  Every variable carries finite integer bounds.  Constraints are
linear equalities/inequalities; on top of those a model may carry convex
feasibility rows (an evaluation rule that must be <= 0, with a convexity
promise and a box lower bound for pruning).  Objectives come in four forms:
linear, separable convex (per-variable evaluation rules), quadratic, and
general convex (a bare evaluation rule).

Models may be annotated with block structure: the n-fold layout (top block
A1 repeated per brick over a diagonal of A2 blocks) or a stacked (F over L)
row split.  The annotations are validated against the literal row layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import IntMatrix

LE, EQ, GE = "<=", "=", ">="


@dataclass(frozen=True)
class Linear:
    coeffs: tuple

    def value(self, x):
        return sum(c * v for c, v in zip(self.coeffs, x))


@dataclass(frozen=True)
class SeparableConvex:
    """Per-variable convex integer functions, given as evaluation rules."""

    terms: tuple

    def value(self, x):
        return sum(f(v) for f, v in zip(self.terms, x))


@dataclass(frozen=True)
class Quadratic:
    """Sum of c * x_p * x_q over stored (p, q, c) with p <= q."""

    terms: tuple

    def value(self, x):
        return sum(c * x[p] * x[q] for p, q, c in self.terms)


@dataclass(frozen=True)
class GeneralConvex:
    fn: object
    name: str = "general"

    def value(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class LinearRow:
    coeffs: tuple  # ((index, coefficient), ...) sorted, coefficients non-zero
    rel: str
    rhs: int

    @classmethod
    def make(cls, coeffs, rel, rhs):
        if rel not in (LE, EQ, GE):
            raise ValueError(f"bad relation {rel!r}")
        cleaned = tuple(sorted((i, c) for i, c in dict(coeffs).items() if c))
        return cls(cleaned, rel, rhs)


@dataclass(frozen=True)
class ConvexRow:
    """Feasibility rule fn(point) <= 0; box_min(lo, hi) bounds fn from below."""

    fn: object
    box_min: object
    name: str = "convex-row"


@dataclass(frozen=True)
class NFoldBlocks:
    r: int
    s: int
    t: int
    n: int
    a1: IntMatrix
    a2: IntMatrix


@dataclass(frozen=True)
class StackedBlocks:
    f_rows: int
    l_rows: int


@dataclass(frozen=True)
class IpModel:
    """A model to minimize, checked by validate() when it is constructed, so
    a model that exists is a valid one."""

    objective: object
    n_vars: int
    lower: tuple
    upper: tuple
    rows: tuple
    convex_rows: tuple = ()
    nfold: NFoldBlocks | None = None
    stacked: StackedBlocks | None = None
    tag: str | None = None
    # start point: solve_nfold and solve_augment need one and augment from
    # it, rejecting it unless it satisfies the boxes and rows; solve_boxed
    # takes its value + 1 as its first limit and checks it only when it
    # finds no leaf below that limit
    initial_point: tuple | None = None
    # optional remainder_bound(point, depth): a lower bound on the objective
    # of every completion of point[:depth] that satisfies the boxes and rows,
    # less the objective of point[:depth] when the objective separates (for
    # a quadratic or general convex objective, the whole objective); it
    # reads only point[:depth]
    remainder_bound: object = None

    def __post_init__(self):
        self.validate()

    def objective_value(self, point):
        return self.objective.value(point)

    def validate(self):
        n = self.n_vars
        if len(self.lower) != n or len(self.upper) != n:
            raise ValueError("bound dimension mismatch")
        for l, u in zip(self.lower, self.upper):
            if not isinstance(l, int) or not isinstance(u, int):
                raise ValueError("variable boxes must be finite integers")
            if l > u:
                raise ValueError("empty variable box")
        for row in self.rows:
            for i, c in row.coeffs:
                if not 0 <= i < n:
                    raise ValueError("row index out of range")
                if c == 0:
                    raise ValueError("stored row coefficient is zero")
        if isinstance(self.objective, Linear) and len(self.objective.coeffs) != n:
            raise ValueError("objective dimension mismatch")
        if isinstance(self.objective, SeparableConvex) and len(self.objective.terms) != n:
            raise ValueError("objective dimension mismatch")
        if self.nfold is not None:
            self._validate_nfold()
        if self.stacked is not None:
            if self.stacked.f_rows + self.stacked.l_rows != len(self.rows):
                raise ValueError("stacked annotation does not match row count")
        if self.initial_point is not None and len(self.initial_point) != n:
            raise ValueError("initial point dimension mismatch")

    def _validate_nfold(self):
        nf = self.nfold
        if self.n_vars != nf.n * nf.t:
            raise ValueError("n-fold annotation: variable count mismatch")
        if len(self.rows) != nf.r + nf.n * nf.s:
            raise ValueError("n-fold annotation: row count mismatch")
        a1 = nf.a1.to_rows()
        a2 = nf.a2.to_rows()
        if nf.a1.m != nf.r or nf.a1.n != nf.t or nf.a2.m != nf.s or nf.a2.n != nf.t:
            raise ValueError("n-fold annotation: block shape mismatch")
        for i in range(nf.r):
            want = tuple(
                (b * nf.t + j, a1[i][j])
                for b in range(nf.n)
                for j in range(nf.t)
                if a1[i][j]
            )
            if self.rows[i].coeffs != want or self.rows[i].rel != EQ:
                raise ValueError(f"n-fold annotation: top row {i} does not match")
        for b in range(nf.n):
            for i in range(nf.s):
                row = self.rows[nf.r + b * nf.s + i]
                want = tuple((b * nf.t + j, a2[i][j]) for j in range(nf.t) if a2[i][j])
                if row.coeffs != want or row.rel != EQ:
                    raise ValueError(f"n-fold annotation: brick row ({b},{i}) does not match")

    def matrix(self) -> IntMatrix:
        """The constraint matrix of the linear rows, dense over all variables."""
        d = {}
        for r, row in enumerate(self.rows):
            for i, c in row.coeffs:
                d[(r, i)] = c
        return IntMatrix.from_dict(len(self.rows), self.n_vars, d)
