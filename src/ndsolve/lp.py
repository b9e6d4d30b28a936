"""Exact rational linear programming via two-phase simplex with Bland's rule.

The tableau is kept in integer rows: every row, the reduced-cost rows
included, is a list of Python ints over one positive int denominator, and
after each update it is divided by the gcd of its ints and denominator (the
integer-preserving elimination of Edmonds and Bareiss, in per-row form).
Every value is exact, so the three outcomes (optimal / infeasible /
unbounded) are decided without tolerances, and only the returned point and
value are built as fractions.Fraction.  Bland's pivoting rule (smallest
eligible index enters, ties on the ratio test broken by smallest basic
variable) guarantees termination.  The tableau is dense: these LPs have
tens of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LE, EQ, GE = "<=", "=", ">="


@dataclass(frozen=True)
class LpConstraint:
    coeffs: tuple
    rel: str
    rhs: Fraction

    @classmethod
    def make(cls, coeffs, rel, rhs):
        if rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {rel!r}")
        return cls(tuple(Fraction(c) for c in coeffs), rel, Fraction(rhs))


@dataclass(frozen=True)
class LpProblem:
    """min/max objective . x subject to rows and per-variable bounds.

    Bounds may be None for unbounded-in-that-direction variables.
    """

    sense: str
    objective: tuple
    constraints: tuple
    lower: tuple
    upper: tuple

    @classmethod
    def make(cls, sense, objective, constraints, lower=None, upper=None):
        n = len(objective)
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        obj = tuple(Fraction(c) for c in objective)
        cons = tuple(
            c if isinstance(c, LpConstraint) else LpConstraint.make(*c)
            for c in constraints
        )
        for c in cons:
            if len(c.coeffs) != n:
                raise ValueError("constraint dimension mismatch")
        lo = tuple((None if l is None else Fraction(l)) for l in (lower or [0] * n))
        hi = tuple((None if u is None else Fraction(u)) for u in (upper or [None] * n))
        if len(lo) != n or len(hi) != n:
            raise ValueError("bound dimension mismatch")
        return cls(sense, obj, cons, lo, hi)

    @property
    def n(self):
        return len(self.objective)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    point: tuple | None = None
    value: Fraction | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


INFEASIBLE = LpResult("infeasible")
UNBOUNDED = LpResult("unbounded")


def _scaled(values):
    """Integer row and positive denominator whose quotients are values (ints
    or Fractions); the denominator is the lcm of theirs, so it shares no
    factor with all of the row."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _normalized(ints, den):
    g = math.gcd(den, *ints)
    if g > 1:
        return [x // g for x in ints], den // g
    return ints, den


def _eliminate(row, prow, p, c):
    """Clear column c of row ([ints, den], in place) with the pivot row prow/p,
    whose column c holds p, that is, the value 1."""
    ints, den = row
    f = ints[c]
    if f:
        row[0], row[1] = _normalized([a * p - f * b for a, b in zip(ints, prow)], den * p)


def _pivot(tab, basis, r, c):
    """Row-reduce the tableau so column c becomes the unit vector of row r.

    Each row of tab is [ints, den].  The pivot row's new denominator is its
    own column-c entry, negated with the row when that entry is negative."""
    prow = tab[r][0]
    p = prow[c]
    if p < 0:
        prow, p = [-x for x in prow], -p
    prow, p = _normalized(prow, p)
    tab[r] = [prow, p]
    for i, row in enumerate(tab):
        if i != r:
            _eliminate(row, prow, p, c)
    basis[r] = c


def _bland_min(tab, basis, cost, ncols):
    """Minimize cost (a mutable [ints, den] reduced-cost row, rhs last) over
    the tableau.

    Returns "optimal" or "unbounded"; tab/basis/cost are updated in place.
    The ratio test compares rhs_i/a_i across rows by cross-multiplying, as a
    row's denominator cancels from its own ratio.
    """
    m = len(tab)
    while True:
        reduced = cost[0]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = best_rhs = best_a = None
        for i in range(m):
            row = tab[i][0]
            a = row[enter]
            if a > 0:
                rhs = row[-1]
                if leave is not None:
                    mine, best = rhs * best_a, best_rhs * a
                    if mine > best or (mine == best and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_a = i, rhs, a
        if leave is None:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
        _eliminate(cost, *tab[leave], enter)


def solve_lp(p: LpProblem) -> LpResult:
    """Solve exactly; the returned point is re-substituted as a self-check."""
    n = p.n
    minimize = p.sense == "min"
    obj = list(p.objective) if minimize else [-c for c in p.objective]

    # Substitute variables so everything is >= 0:
    #   finite lower l:        x = l + z          (upper becomes a row)
    #   upper only:            x = u - z
    #   free:                  x = z+ - z-
    cols = []      # per structural variable: ("shift", j, l) | ("flip", j, u) | ("split", j, j2)
    col_cost = []
    const = Fraction(0)
    extra_rows = []  # (z, u - l) for finite upper bounds
    for j in range(n):
        l, u = p.lower[j], p.upper[j]
        if l is not None:
            cols.append(("shift", len(col_cost), l))
            col_cost.append(obj[j])
            const += obj[j] * l
            if u is not None:
                extra_rows.append((len(col_cost) - 1, u - l))
        elif u is not None:
            cols.append(("flip", len(col_cost), u))
            col_cost.append(-obj[j])
            const += obj[j] * u
        else:
            cols.append(("split", len(col_cost), len(col_cost) + 1))
            col_cost.append(obj[j])
            col_cost.append(-obj[j])

    # Each structural variable owns its own z columns, so a row's entries are
    # assigned, not summed; ints stand for the zeros.
    rows = []
    for con in p.constraints:
        dense = [0] * len(col_cost)
        rhs = con.rhs
        for j, a in enumerate(con.coeffs):
            if not a:
                continue
            kind, z1, arg = cols[j]
            if kind == "split":
                dense[z1] = a
                dense[arg] = -a
                continue
            dense[z1] = a if kind == "shift" else -a
            if arg:
                rhs -= a * arg
        rows.append((dense, con.rel, rhs))
    for z, ub in extra_rows:
        dense = [0] * len(col_cost)
        dense[z] = 1
        rows.append((dense, LE, ub))

    # Integer rows: the structural part of each row scaled by the lcm of its
    # denominators, then slack variables, then one artificial per row (rhs
    # made non-negative); the unit entries become the row's denominator.
    nz = len(col_cost)
    nslack = sum(1 for _, rel, _ in rows if rel != EQ)
    m = len(rows)
    ncols = nz + nslack + m
    tab = []
    s = 0
    for i, (dense, rel, rhs) in enumerate(rows):
        ints, den = _scaled(dense + [rhs])
        row = ints[:-1] + [0] * (nslack + m) + ints[-1:]
        if rel == LE:
            row[nz + s] = den
            s += 1
        elif rel == GE:
            row[nz + s] = -den
            s += 1
        if row[-1] < 0:
            row = [-x for x in row]
        row[nz + nslack + i] = den
        tab.append([row, den])
    basis = [nz + nslack + i for i in range(m)]

    # Phase 1: minimize the sum of artificials.  Its reduced costs are minus
    # the sum of the rows, taken over their common denominator.
    den1 = math.lcm(*(den for _, den in tab))
    ints1 = [0] * (ncols + 1)
    for row, den in tab:
        f = den1 // den
        ints1 = [a - f * b for a, b in zip(ints1, row)]
    for j in range(nz + nslack, ncols):
        ints1[j] = 0
    cost1 = list(_normalized(ints1, den1))
    if _bland_min(tab, basis, cost1, ncols) != "optimal" or cost1[0][-1] != 0:
        return INFEASIBLE

    # Drive leftover artificials out of the basis; drop redundant rows.  The
    # entry pivoted on here may be negative.
    keep = []
    for i in range(m):
        if basis[i] >= nz + nslack:
            row = tab[i][0]
            c = next((j for j in range(nz + nslack) if row[j] != 0), None)
            if c is None:
                continue  # redundant row
            _pivot(tab, basis, i, c)
        keep.append(i)
    ncols = nz + nslack
    tab = [[tab[i][0][:ncols] + tab[i][0][-1:], tab[i][1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2.
    ints2, den2 = _scaled(col_cost)
    cost2 = [ints2 + [0] * (nslack + 1), den2]
    for i, b in enumerate(basis):
        _eliminate(cost2, *tab[i], b)
    if _bland_min(tab, basis, cost2, ncols) == "unbounded":
        return UNBOUNDED

    z = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        row, den = tab[i]
        z[b] = Fraction(row[-1], den)
    point = []
    for j in range(n):
        kind, z1, arg = cols[j]
        if kind == "shift":
            point.append(arg + z[z1])
        elif kind == "flip":
            point.append(arg - z[z1])
        else:
            point.append(z[z1] - z[arg])
    value = const - Fraction(cost2[0][-1], cost2[1])
    if not minimize:
        value = -value

    result = LpResult("optimal", tuple(point), value)
    _check_result(p, result)
    return result


def _check_result(p: LpProblem, res: LpResult):
    """Exact re-substitution of the reported optimum (internal guard)."""
    x = res.point
    ok = all(
        (p.lower[j] is None or x[j] >= p.lower[j])
        and (p.upper[j] is None or x[j] <= p.upper[j])
        for j in range(p.n)
    )
    for con in p.constraints:
        lhs = sum(a * v for a, v in zip(con.coeffs, x))
        ok = ok and (
            (con.rel == LE and lhs <= con.rhs)
            or (con.rel == GE and lhs >= con.rhs)
            or (con.rel == EQ and lhs == con.rhs)
        )
    obj = sum(c * v for c, v in zip(p.objective, x))
    if not ok or obj != res.value:
        raise AssertionError("simplex returned an invalid optimum")
