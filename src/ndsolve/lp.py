"""Exact rational linear programming via a two-phase bounded simplex with
Bland's rule.

Variables are first made non-negative: x = l + z/q for a finite lower bound
l, x = u - z for an upper bound only, and x = z+ - z- for a free variable.
A finite box l <= x <= u leaves z an upper bound, its width q(u - l), where
q is the denominator of u - l, so every width is an integer.

The tableau holds only the problem's own rows.  Upper bounds live in the
ratio test (Dantzig's upper-bounding method): every nonbasic variable sits
at its lower or its upper bound, and one at its upper bound is kept
complemented (z = w - z'), so the tableau always reads with every nonbasic
variable at zero.  An entering variable stops at the first of: a basic
variable reaching zero, a basic variable reaching its upper bound (which is
complemented, then leaves), or its own upper bound, where it flips to that
bound with no pivot.  Phase 1 starts from the slack basis wherever a slack
is feasible (a <= row with rhs >= 0 after the substitution, or a >= row
with rhs <= 0); only the other rows carry an artificial variable.

Problem data stay ints wherever they are integral: LpProblem.make keeps an
int as it is and turns any other number into a fractions.Fraction, or into
an int when it is integral, so the usual CDS relaxation, all ints, builds
no Fraction until its result.  A coefficient over a box of fractional width
q(u - l) becomes Fraction(a, q), never a float.  The tableau is kept in
integer rows: every row, the reduced-cost rows included, is a list of
Python ints over one positive int denominator, and after each pivot it is
divided by the gcd of its ints and denominator (the integer-preserving
elimination of Edmonds and Bareiss, in per-row form).  Every value is
exact, so the three outcomes (optimal / infeasible / unbounded) are decided
without tolerances, and the returned point and value are always built as
Fractions.  Bland's rule (the smallest eligible index enters; every
ratio-test tie, the entering variable's own flip included, goes to the
smallest index) guarantees termination.  Every optimum is re-checked on
integers against the problem as given: boxes, rows and the objective.

The tableau is dense: these LPs have tens of rows.  The relaxations behind
the CDS routes (algorithms.cds_proximity_solve and cds_rounding_approx)
have O(k^2) variables and, besides the k domination rows, one tangent row
per distinct capacity of each class, however large the classes are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

LE, EQ, GE = "<=", "=", ">="
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")
_INT = frozenset({int})


def _number(v):
    """v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def _numbers(values):
    """values as a tuple of _number(v) (None kept)."""
    values = tuple(values)
    if _INT.issuperset(map(type, values)):
        return values
    return tuple(v if v is None else _number(v) for v in values)


@dataclass(frozen=True)
class LpConstraint:
    coeffs: tuple
    rel: str
    rhs: int | Fraction

    @classmethod
    def make(cls, coeffs, rel, rhs):
        if rel not in (LE, EQ, GE):
            raise ValueError(f"unknown relation {rel!r}")
        return cls(_numbers(coeffs), rel, _number(rhs))


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
        obj = _numbers(objective)
        cons = tuple(
            c if isinstance(c, LpConstraint) else LpConstraint.make(*c)
            for c in constraints
        )
        for c in cons:
            if len(c.coeffs) != n:
                raise ValueError("constraint dimension mismatch")
        lo = _numbers(lower or [0] * n)
        hi = _numbers(upper or [None] * n)
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
    den = math.lcm(*map(_denominator, values))
    if den == 1:
        return list(map(_numerator, values)), 1
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


def _flip(tab, cost, c, w):
    """Move nonbasic column c to its other bound: substitute z_c = w - z'_c in
    every row and the cost row, which keeps each rhs the value of its basic
    variable with every nonbasic at zero."""
    for ints, _ in (*tab, cost):
        a = ints[c]
        if a:
            ints[-1] -= a * w
            ints[c] = -a


def _bland_min(tab, basis, cost, ncols, width, flipped):
    """Minimize cost (a mutable [ints, den] reduced-cost row, rhs last) over
    the tableau, with width[j] the integer upper bound of column j or None.

    Returns "optimal" or "unbounded"; tab/basis/cost/flipped are updated in
    place.  The entering column j grows by the least of: rhs_i/a_ij over
    rows with a_ij > 0 (the basic variable falls to zero), (w*den_i -
    rhs_i)/-a_ij over rows with a_ij < 0 whose basic variable has width w
    (it rises to w), and width[j] (a flip).  Each ratio is an int quotient, a
    row's denominator cancelling from it, and ratios are compared by
    cross-multiplying.
    """
    m = len(tab)
    while True:
        reduced = cost[0]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            return "optimal"
        w = width[enter]
        leave = to_upper = None
        best_num, best_den, best_var = w, 1, enter
        for i in range(m):
            row, den = tab[i]
            a = row[enter]
            if a > 0:
                num = row[-1]
            elif a < 0 and width[basis[i]] is not None:
                num, a = width[basis[i]] * den - row[-1], -a
            else:
                continue
            var = basis[i]
            if best_num is not None:
                mine, best = num * best_den, best_num * a
                if mine > best or (mine == best and var > best_var):
                    continue
            best_num, best_den, best_var, leave, to_upper = num, a, var, i, row[enter] < 0
        if best_num is None:
            return "unbounded"
        if leave is None:
            _flip(tab, cost, enter, w)
            flipped[enter] = not flipped[enter]
            continue
        if to_upper:
            # complement the leaving variable; it is basic, so only its row holds it
            row, den = tab[leave]
            row[best_var] = -den
            row[-1] -= width[best_var] * den
            flipped[best_var] = not flipped[best_var]
        _pivot(tab, basis, leave, enter)
        _eliminate(cost, *tab[leave], enter)


@dataclass
class _Tableau:
    """The phase-1 start of solve_lp: substitutions, integer rows and basis.

    cols[j] is ("shift", z, l, q), ("flip", z, u, 1) or ("split", z, z2, 1)
    for variable j of the problem; cost and const give the objective over
    the z columns, in minimize orientation.  Columns are the z variables,
    one slack per inequality row, then one artificial per row whose slack
    is infeasible at the start.
    """

    cols: list
    cost: list
    const: int | Fraction
    width: list
    tab: list
    basis: list
    nz: int
    nslack: int
    nart: int


def _tableau(p: LpProblem) -> _Tableau:
    minimize = p.sense == "min"
    obj = p.objective if minimize else [-c for c in p.objective]
    cols = []
    cost = []
    width = []
    const = 0
    for j in range(p.n):
        l, u = p.lower[j], p.upper[j]
        if l is not None:
            w = None if u is None else u - l
            q = 1 if w is None else w.denominator
            cols.append(("shift", len(cost), l, q))
            cost.append(obj[j] if q == 1 else Fraction(obj[j], q))
            width.append(None if w is None else w.numerator)
            const += obj[j] * l
        elif u is not None:
            cols.append(("flip", len(cost), u, 1))
            cost.append(-obj[j])
            width.append(None)
            const += obj[j] * u
        else:
            cols.append(("split", len(cost), len(cost) + 1, 1))
            cost += [obj[j], -obj[j]]
            width += [None, None]
    nz = len(cost)

    # Integer rows over the z columns, each scaled by the lcm of its
    # denominators, with its rhs made the start value of its basic variable:
    # the slack where that value is >= 0, else an artificial.  Each
    # structural variable owns its own z columns, so a row's entries are
    # assigned, not summed; ints stand for the zeros.
    rows = []
    for con in p.constraints:
        dense = [0] * nz
        rhs = con.rhs
        for j, a in enumerate(con.coeffs):
            if not a:
                continue
            kind, z1, arg, q = cols[j]
            if kind == "split":
                dense[z1] = a
                dense[arg] = -a
            else:
                if kind == "shift":
                    dense[z1] = a if q == 1 else Fraction(a, q)
                else:
                    dense[z1] = -a
                if arg:
                    rhs -= a * arg
        ints, den = _scaled(dense + [rhs])
        slack = {LE: den, GE: -den, EQ: 0}[con.rel]
        if ints[-1] < 0 or (ints[-1] == 0 and slack < 0):
            ints, slack = [-x for x in ints], -slack
        rows.append((ints, den, slack))
    nslack = sum(1 for con in p.constraints if con.rel != EQ)
    nart = sum(1 for _, _, slack in rows if slack <= 0)
    tab, basis = [], []
    s = r = 0
    for ints, den, slack in rows:
        row = ints[:-1] + [0] * (nslack + nart) + ints[-1:]
        if slack:
            row[nz + s] = slack
            s += 1
        if slack > 0:
            basis.append(nz + s - 1)
        else:
            row[nz + nslack + r] = den
            basis.append(nz + nslack + r)
            r += 1
        tab.append([row, den])
    width += [None] * (nslack + nart)
    return _Tableau(cols, cost, const, width, tab, basis, nz, nslack, nart)


def solve_lp(p: LpProblem) -> LpResult:
    """Solve exactly; the returned optimum is re-checked against p, and a
    wrong one raises RuntimeError."""
    if any(l is not None and u is not None and l > u for l, u in zip(p.lower, p.upper)):
        return INFEASIBLE  # an empty box
    t = _tableau(p)
    tab, basis, width = t.tab, t.basis, t.width
    nz, nslack = t.nz, t.nslack
    ncols = nz + nslack + t.nart
    flipped = [False] * ncols

    # Phase 1: minimize the sum of artificials.  Its reduced costs are minus
    # the sum of their rows, taken over a common denominator.
    if t.nart:
        art = [tab[i] for i, b in enumerate(basis) if b >= nz + nslack]
        den1 = math.lcm(*(den for _, den in art))
        ints1 = [0] * (ncols + 1)
        for row, den in art:
            f = den1 // den
            ints1 = [x - f * y for x, y in zip(ints1, row)]
        for j in range(nz + nslack, ncols):
            ints1[j] = 0
        cost1 = list(_normalized(ints1, den1))
        _bland_min(tab, basis, cost1, ncols, width, flipped)
        if cost1[0][-1] != 0:
            return INFEASIBLE

        # Drive leftover artificials out of the basis; drop redundant rows.
        # The entry pivoted on here may be negative.
        keep = []
        for i in range(len(tab)):
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

    # Phase 2, from the columns' present bounds.
    ints2, den2 = _scaled(t.cost)
    cost2 = [ints2 + [0] * (nslack + 1), den2]
    for j in range(nz):
        if flipped[j]:
            _flip((), cost2, j, width[j])
    for i, b in enumerate(basis):
        _eliminate(cost2, *tab[i], b)
    if _bland_min(tab, basis, cost2, ncols, width, flipped) == "unbounded":
        return UNBOUNDED

    z = [Fraction(0)] * nz
    for i, b in enumerate(basis):
        if b < nz:
            row, den = tab[i]
            z[b] = Fraction(row[-1], den)
    for j in range(nz):
        if flipped[j]:
            z[j] = width[j] - z[j]
    point = []
    for kind, z1, arg, q in t.cols:
        if kind == "shift":
            point.append(arg + z[z1] / q)
        elif kind == "flip":
            point.append(arg - z[z1])
        else:
            point.append(z[z1] - z[arg])
    value = t.const - Fraction(cost2[0][-1], cost2[1])
    if p.sense == "max":
        value = -value

    result = LpResult("optimal", tuple(point), value)
    _check_result(p, result)
    return result


def _check_result(p: LpProblem, res: LpResult):
    """Exact re-check of the reported optimum on integers: the point over
    its common denominator D against the boxes, every row scaled to
    integers, and the objective recomputed against res.value."""
    x = res.point
    d = math.lcm(*(v.denominator for v in x))
    xs = [v.numerator * (d // v.denominator) for v in x]
    ok = all(
        (lo is None or lo.numerator * d <= v * lo.denominator)
        and (hi is None or v * hi.denominator <= hi.numerator * d)
        for v, lo, hi in zip(xs, p.lower, p.upper)
    )
    for con in p.constraints:
        if not ok:
            break
        ints, _ = _scaled(con.coeffs + (con.rhs,))
        lhs = sum(a * v for a, v in zip(ints, xs) if a)
        rhs = ints[-1] * d
        ok = lhs <= rhs if con.rel == LE else lhs >= rhs if con.rel == GE else lhs == rhs
    ints, den = _scaled(p.objective)
    obj = sum(c * v for c, v in zip(ints, xs) if c)
    if not ok or obj * res.value.denominator != res.value.numerator * den * d:
        raise RuntimeError("simplex returned an invalid optimum")
