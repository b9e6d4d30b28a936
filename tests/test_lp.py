import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndsolve import algorithms, lp as lp_module
from ndsolve.algorithms import cds_rounding_approx, relax_model
from ndsolve.graphs import type_graph
from ndsolve.instances import generate_blowup, random_template
from ndsolve.lp import LE, GE, EQ, LpProblem, solve_lp
from ndsolve.models import build_cds_ilp


def lp(sense, objective, constraints, lower=None, upper=None):
    return solve_lp(LpProblem.make(sense, objective, constraints, lower, upper))


class TestBasics:
    def test_max_with_upper(self):
        res = lp("max", [1], [([1], LE, 5)])
        assert res.optimal and res.value == 5 and res.point == (5,)

    def test_infeasible(self):
        res = lp("min", [1], [([1], GE, 1), ([1], LE, 0)])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = lp("max", [1], [])
        assert res.status == "unbounded"

    def test_fractional_vertex_exact(self):
        res = lp("min", [1, 1], [([2, 1], GE, 1), ([1, 3], GE, 2)])
        assert res.value == Fraction(4, 5)
        assert res.point == (Fraction(1, 5), Fraction(3, 5))

    def test_equality_row(self):
        res = lp("min", [1, 0], [([1, 1], EQ, 4), ([0, 1], LE, 1)])
        assert res.value == 3

    def test_free_variable(self):
        res = lp("min", [1], [([1], GE, -7)], lower=[None])
        assert res.value == -7

    def test_negative_lower_bound(self):
        res = lp("min", [1], [], lower=[-3], upper=[9])
        assert res.value == -3

    def test_upper_bounded_only_variable(self):
        res = lp("max", [1], [], lower=[None], upper=[2])
        assert res.value == 2

    def test_beale_cycling_example_terminates(self):
        # classic degenerate instance that cycles without an anti-cycling rule
        res = lp(
            "min",
            [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
                ([0, 0, 1, 0], LE, 1),
            ],
        )
        assert res.value == Fraction(-1, 20)

    def test_redundant_equalities(self):
        res = lp("min", [1, 1], [([1, 1], EQ, 2), ([2, 2], EQ, 4)])
        assert res.value == 2


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def holds(row, rel, rhs, pt):
    lhs = sum(a * x for a, x in zip(row, pt))
    return lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs


def brute_min_over_vertices(objective, rows):
    """Least objective over the vertices of {x : every (row, rel, rhs)}, or
    None when no vertex is feasible."""
    n = len(objective)
    best = None
    for idx in itertools.combinations(range(len(rows)), n):
        pt = solve_square([rows[i][0] for i in idx], [rows[i][2] for i in idx])
        if pt is None or not all(holds(row, rel, rhs, pt) for row, rel, rhs in rows):
            continue
        val = sum(c * x for c, x in zip(objective, pt))
        if best is None or val < best:
            best = val
    return best


class TestAgainstVertexEnumeration:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_bounded_lp(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 3)
        rows, rhs = [], []
        for _ in range(rng.randint(1, 4)):
            rows.append([rng.randint(-3, 3) for _ in range(n)])
            rhs.append(rng.randint(-2, 6))
        # box rows keep the region bounded
        for j in range(n):
            rows.append([1 if i == j else 0 for i in range(n)])
            rhs.append(5)
            rows.append([-1 if i == j else 0 for i in range(n)])
            rhs.append(0)
        objective = [rng.randint(-4, 4) for _ in range(n)]

        constraints = [(row, LE, b) for row, b in zip(rows, rhs)]
        expected = brute_min_over_vertices(objective, constraints)
        res = lp("min", objective, constraints, lower=[0] * n, upper=[None] * n)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.optimal and res.value == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_duality_direction(self, seed):
        # any feasible point gives an upper bound on a minimum
        rng = random.Random(1000 + seed)
        n = 3
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
        rhs = [rng.randint(2, 8) for _ in range(3)]
        objective = [rng.randint(0, 4) for _ in range(n)]
        res = lp(
            "max",
            objective,
            [(row, LE, b) for row, b in zip(rows, rhs)],
            upper=[10] * n,
        )
        assert res.optimal
        assert res.value >= 0  # x = 0 is feasible


BIG = 10**9  # beyond every vertex coordinate of the small random LPs below


def brute_lp(sense, objective, constraints, lower, upper):
    """(status, value) of any LP with LE/GE/EQ rows and optional bounds, by
    vertex enumeration.

    A box of half-width BIG makes the region pointed and bounded; no vertex
    inside it means infeasible.  The LP is unbounded exactly when some
    direction d of its recession cone, cut to |d_j| <= 1, has c.d < 0.
    """
    n = len(objective)
    c = [Fraction(x) for x in objective]
    if sense == "max":
        c = [-x for x in c]
    unit = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    bounds = [(unit[j], GE, lower[j]) for j in range(n) if lower[j] is not None]
    bounds += [(unit[j], LE, upper[j]) for j in range(n) if upper[j] is not None]
    rows = list(constraints) + bounds
    box = [(unit[j], rel, sign * BIG) for j in range(n) for rel, sign in ((LE, 1), (GE, -1))]
    best = brute_min_over_vertices(c, rows + box)
    if best is None:
        return "infeasible", None
    cone = [(row, rel, 0) for row, rel, _ in rows]
    cone += [(unit[j], rel, sign) for j in range(n) for rel, sign in ((LE, 1), (GE, -1))]
    if brute_min_over_vertices(c, cone) < 0:
        return "unbounded", None
    return "optimal", best if sense == "min" else -best


def random_lp(seed):
    """A small LP with fractional data, every relation, every kind of
    variable and, now and then, a redundant or a degenerate row.

    Kinds: "zero" (x >= 0), "shift" (x >= l, l != 0), "box" (l <= x <= u),
    "flip" (x <= u only) and "free"; solve_lp substitutes the last two by
    x = u - z and x = z+ - z-.
    """
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))

    n = rng.randint(1, 3)
    kinds = [rng.choice(("zero", "shift", "box", "flip", "free")) for _ in range(n)]
    lower, upper = [], []
    for kind in kinds:
        lo = hi = None
        if kind == "zero":
            lo = 0
        elif kind == "shift":
            lo = frac() or Fraction(1, 2)
        elif kind == "box":
            lo = frac()
            hi = lo + abs(frac())
        elif kind == "flip":
            hi = frac()
        lower.append(lo)
        upper.append(hi)
    constraints = []
    for _ in range(rng.randint(1, 3)):
        row = [frac() if rng.random() < 0.7 else 0 for _ in range(n)]
        constraints.append((row, rng.choice((LE, GE, EQ)), frac()))
    extras = []
    if rng.random() < 0.25:
        row, rel, rhs = constraints[0]
        f = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        constraints.append(([f * a for a in row], rel, f * rhs))
        extras.append("redundant")
    same = [con for con in constraints if con[1] == constraints[0][1]]
    if len(same) >= 2 and rng.random() < 0.5:
        (r1, rel, b1), (r2, _, b2) = same[:2]
        constraints.append(([a + b for a, b in zip(r1, r2)], rel, b1 + b2))
        extras.append("degenerate")
    objective = [frac() for _ in range(n)]
    sense = rng.choice(("min", "max"))
    return (sense, objective, constraints, lower, upper), kinds, extras


RANDOM_SEEDS = range(80)


class TestAgainstGeneralVertexEnumeration:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_lp(self, seed):
        args, _, _ = random_lp(seed)
        status, value = brute_lp(*args)
        res = lp(*args)
        assert res.status == status
        if status == "optimal":
            assert res.value == value

    def test_random_lps_reach_every_case(self):
        kinds, rels, extras, statuses = Counter(), Counter(), Counter(), Counter()
        for seed in RANDOM_SEEDS:
            args, k, e = random_lp(seed)
            kinds.update(k)
            rels.update(rel for _, rel, _ in args[2])
            extras.update(e)
            statuses[lp(*args).status] += 1
        assert set(kinds) == {"zero", "shift", "box", "flip", "free"}
        assert set(rels) == {LE, GE, EQ}
        assert set(extras) == {"redundant", "degenerate"}
        assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 5

    def test_fractional_lower_bound_shift(self):
        res = lp("min", [2, 1], [([1, 1], GE, Fraction(7, 2))], lower=[Fraction(5, 3), Fraction(-1, 2)])
        assert res.value == Fraction(31, 6)
        assert res.point == (Fraction(5, 3), Fraction(11, 6))

    def test_drive_out_pivots_on_a_negative_entry(self, monkeypatch):
        # Phase 1 ends with the artificial of -x1 - 2 x2 = 0 basic at level
        # 0 and only non-positive entries in its row, so driving it out must
        # pivot on the -1 of x1.
        pivots = []
        real = lp_module._pivot

        def recording(tab, basis, r, c):
            pivots.append(tab[r][0][c])
            real(tab, basis, r, c)

        monkeypatch.setattr(lp_module, "_pivot", recording)
        res = lp("min", [1, 0, -1], [([-1, -2, 0], EQ, 0), ([1, 1, 1], LE, 3)])
        assert res.value == -3 and res.point == (0, 0, 3)
        assert any(p < 0 for p in pivots)


# sha256 over the repr of (status, point, value) of every LP below, as
# computed by the simplex over a Fraction tableau that preceded the integer
# rows, with the same pivots.  A change of pivot order that moves any
# returned vertex changes it.
PINNED_CDS_INSTANCES = 100
PINNED_CDS_DIGEST = "678b8c9f697268af8026cb8ad532890cc0ebd95ebe5d404124571817766d5bae"


def pinned_cds_lp_results():
    """The CDS relaxations of the acceptance-gate generator (the suite of its
    criterion 1) and the pinned re-solves of cds_rounding_approx on them."""
    results = []
    real = algorithms.solve_lp

    def recording(p):
        res = real(p)
        results.append(res)
        return res

    for i in range(PINNED_CDS_INSTANCES):
        rng = random.Random(11_000 + i)
        template = random_template(rng, max_k=4, max_n=8, with_capacities=True, max_capacity=4)
        g = generate_blowup(template, seed=rng.randrange(2**30))
        t = type_graph(g)
        results.append(solve_lp(relax_model(build_cds_ilp(t))))
        algorithms.solve_lp = recording
        try:
            cds_rounding_approx(t, g)
        finally:
            algorithms.solve_lp = real
    return results


def lp_digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(repr((res.status, res.point, res.value)).encode())
    return h.hexdigest()


def test_cds_relaxation_outputs_are_pinned():
    results = pinned_cds_lp_results()
    # each instance: its relaxation, rounding's unpinned solve, and pins
    assert len(results) > 2 * PINNED_CDS_INSTANCES
    assert lp_digest(results) == PINNED_CDS_DIGEST
