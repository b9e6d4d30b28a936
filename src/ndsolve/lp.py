"""Exact rational linear programming for the relaxations of linear integer
models: minimize an integer objective over integer rows and finite integer
boxes, by a two-phase bounded simplex with Bland's rule.

The rows are the model's own ipmodel.LinearRows: sparse, sorted, non-zero
int coefficients and an int rhs.  Every box l <= x <= u is finite, so
every column is z = x - l with the integer upper bound u - l.

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

The tableau is kept in integer rows: every row, the reduced-cost rows
included, is a list of Python ints over one positive int denominator, and
after each pivot it is divided by the gcd of its ints and denominator (the
integer-preserving elimination of Edmonds and Bareiss, in per-row form).
Every value is exact, so the two outcomes (optimal / infeasible) are
decided without tolerances, and the returned point and value are always
built as Fractions.  Both phases minimize an objective that is bounded on
the feasible set, which the finite boxes keep bounded, so the simplex never
meets a ray.  Bland's rule (the smallest eligible index enters; every
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

from .ipmodel import EQ, GE, LE


@dataclass(frozen=True)
class LpProblem:
    """min objective . x subject to the rows (ipmodel.LinearRows) and the
    boxes lower <= x <= upper; every datum is an int."""

    objective: tuple
    constraints: tuple
    lower: tuple
    upper: tuple

    @classmethod
    def make(cls, objective, constraints, lower, upper):
        p = cls(tuple(objective), tuple(constraints), tuple(lower), tuple(upper))
        n = p.n
        if len(p.lower) != n or len(p.upper) != n:
            raise ValueError("bound dimension mismatch")
        data = [*p.objective, *p.lower, *p.upper]
        for row in p.constraints:
            data.append(row.rhs)
            for i, a in row.coeffs:
                if not 0 <= i < n:
                    raise ValueError("row index out of range")
                data.append(a)
        if any(type(v) is not int for v in data):
            raise ValueError("LP data must be ints")
        return p

    @property
    def n(self):
        return len(self.objective)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible"
    point: tuple | None = None
    value: Fraction | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


INFEASIBLE = LpResult("infeasible")


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
    the tableau, with width[j] the integer upper bound of column j or None
    for a slack or an artificial.

    tab/basis/cost/flipped are updated in place.  The entering column j
    grows by the least of: rhs_i/a_ij over rows with a_ij > 0 (the basic
    variable falls to zero), (w*den_i - rhs_i)/-a_ij over rows with a_ij < 0
    whose basic variable has width w (it rises to w), and width[j] (a flip).
    Each ratio is an int quotient, a row's denominator cancelling from it,
    and ratios are compared by cross-multiplying.
    """
    m = len(tab)
    while True:
        reduced = cost[0]
        enter = next((j for j in range(ncols) if reduced[j] < 0), None)
        if enter is None:
            return
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
            raise RuntimeError("the simplex met a ray of a bounded LP")
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
    """The phase-1 start of solve_lp: integer rows, widths and basis.

    Columns are the nz variables z = x - l, one slack per inequality row,
    then one artificial per row whose slack is infeasible at the start.
    """

    width: list
    tab: list
    basis: list
    nz: int
    nslack: int
    nart: int


def _tableau(p: LpProblem) -> _Tableau:
    nz = p.n
    lower = p.lower
    # One integer row per constraint over the z columns, with its rhs made
    # the start value of its basic variable: the slack where that value is
    # >= 0, else an artificial.
    rows = []
    for con in p.constraints:
        ints = [0] * (nz + 1)
        rhs = con.rhs
        for j, a in con.coeffs:
            ints[j] = a
            rhs -= a * lower[j]
        ints[-1] = rhs
        slack = {LE: 1, GE: -1, EQ: 0}[con.rel]
        if rhs < 0 or (rhs == 0 and slack < 0):
            ints, slack = [-x for x in ints], -slack
        rows.append((ints, slack))
    nslack = sum(1 for con in p.constraints if con.rel != EQ)
    nart = sum(1 for _, slack in rows if slack <= 0)
    tab, basis = [], []
    s = r = 0
    for ints, slack in rows:
        row = ints[:-1] + [0] * (nslack + nart) + ints[-1:]
        if slack:
            row[nz + s] = slack
            s += 1
        if slack > 0:
            basis.append(nz + s - 1)
        else:
            row[nz + nslack + r] = 1
            basis.append(nz + nslack + r)
            r += 1
        tab.append([row, 1])
    width = [u - l for l, u in zip(lower, p.upper)] + [None] * (nslack + nart)
    return _Tableau(width, tab, basis, nz, nslack, nart)


def solve_lp(p: LpProblem) -> LpResult:
    """Solve exactly; the returned optimum is re-checked against p, and a
    wrong one raises RuntimeError."""
    if any(l > u for l, u in zip(p.lower, p.upper)):
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
    cost2 = [list(p.objective) + [0] * (nslack + 1), 1]
    for j in range(nz):
        if flipped[j]:
            _flip((), cost2, j, width[j])
    for i, b in enumerate(basis):
        _eliminate(cost2, *tab[i], b)
    _bland_min(tab, basis, cost2, ncols, width, flipped)

    z = [Fraction(0)] * nz
    for i, b in enumerate(basis):
        if b < nz:
            row, den = tab[i]
            z[b] = Fraction(row[-1], den)
    for j in range(nz):
        if flipped[j]:
            z[j] = width[j] - z[j]
    point = tuple(l + v for l, v in zip(p.lower, z))
    const = sum(c * l for c, l in zip(p.objective, p.lower))
    value = const - Fraction(cost2[0][-1], cost2[1])

    result = LpResult("optimal", point, value)
    _check_result(p, result)
    return result


def _check_result(p: LpProblem, res: LpResult):
    """Exact re-check of the reported optimum on integers: the point over
    its common denominator D against the boxes and every row, and the
    objective recomputed against res.value."""
    x = res.point
    d = math.lcm(*(v.denominator for v in x))
    xs = [v.numerator * (d // v.denominator) for v in x]
    ok = all(lo * d <= v <= hi * d for v, lo, hi in zip(xs, p.lower, p.upper))
    for con in p.constraints:
        if not ok:
            break
        lhs = sum(a * xs[i] for i, a in con.coeffs)
        rhs = con.rhs * d
        ok = lhs <= rhs if con.rel == LE else lhs >= rhs if con.rel == GE else lhs == rhs
    obj = sum(c * v for c, v in zip(p.objective, xs))
    if not ok or obj * res.value.denominator != res.value.numerator * d:
        raise RuntimeError("simplex returned an invalid optimum")
