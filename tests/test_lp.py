import dataclasses
import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndsolve import algorithms, lp as lp_module
from ndsolve.algorithms import cds_rounding_approx, relax_model
from ndsolve.backends import solve_boxed
from ndsolve.graphs import type_graph
from ndsolve.ipmodel import EQ, GE, LE, LinearRow
from ndsolve.lp import LpProblem, solve_lp
from ndsolve.models import build_cds_ilp

from helpers import PINNED_CDS_INSTANCES, pinned_cds_instances, star_graph


def problem(objective, constraints, lower, upper):
    """The LpProblem of dense (row, rel, rhs) constraints."""
    rows = [LinearRow.make(enumerate(row), rel, rhs) for row, rel, rhs in constraints]
    return LpProblem.make(objective, rows, lower, upper)


def lp(objective, constraints, lower, upper):
    return solve_lp(problem(objective, constraints, lower, upper))


class TestBasics:
    def test_max_with_upper(self):
        # max x, x <= 5 as min -x
        res = lp([-1], [([1], LE, 5)], [0], [9])
        assert res.optimal and res.value == -5 and res.point == (5,)

    def test_infeasible(self):
        res = lp([1], [([1], GE, 1), ([1], LE, 0)], [0], [5])
        assert res.status == "infeasible"

    def test_fractional_vertex_exact(self):
        res = lp([1, 1], [([2, 1], GE, 1), ([1, 3], GE, 2)], [0, 0], [5, 5])
        assert res.value == Fraction(4, 5)
        assert res.point == (Fraction(1, 5), Fraction(3, 5))

    def test_equality_row(self):
        res = lp([1, 0], [([1, 1], EQ, 4), ([0, 1], LE, 1)], [0, 0], [9, 9])
        assert res.value == 3

    def test_negative_lower_bound(self):
        res = lp([1], [], [-3], [9])
        assert res.value == -3

    def test_beale_cycling_example_terminates(self):
        # classic degenerate instance that cycles without an anti-cycling
        # rule, its data scaled by 100 to ints
        res = lp(
            [-75, 15000, -2, 600],
            [
                ([25, -6000, -4, 900], LE, 0),
                ([50, -9000, -2, 300], LE, 0),
                ([0, 0, 1, 0], LE, 1),
            ],
            [0] * 4,
            [100] * 4,
        )
        assert res.value == -5

    def test_redundant_equalities(self):
        res = lp([1, 1], [([1, 1], EQ, 2), ([2, 2], EQ, 4)], [0, 0], [9, 9])
        assert res.value == 2


class TestContract:
    """Every datum of an LpProblem is an int and every box is finite; the
    only producer in the package is relax_model."""

    @pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, None], ids=["fraction", "float", "none"])
    def test_make_rejects_a_non_int_datum(self, bad):
        with pytest.raises(ValueError, match="must be ints"):
            problem([1, 1], [([1, 1], LE, 3)], [0, 0], [2, bad])
        with pytest.raises(ValueError, match="must be ints"):
            problem([1, bad], [([1, 1], LE, 3)], [0, 0], [2, 2])
        with pytest.raises(ValueError, match="must be ints"):
            problem([1, 1], [([1, 1], LE, bad)], [0, 0], [2, 2])

    def test_make_rejects_a_dimension_mismatch_and_an_index_out_of_range(self):
        with pytest.raises(ValueError, match="dimension"):
            problem([1, 1], [], [0], [2, 2])
        with pytest.raises(ValueError, match="out of range"):
            LpProblem.make([1], [LinearRow.make({1: 1}, LE, 3)], [0], [2])


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
        # box rows, which the boxes repeat
        for j in range(n):
            rows.append([1 if i == j else 0 for i in range(n)])
            rhs.append(5)
            rows.append([-1 if i == j else 0 for i in range(n)])
            rhs.append(0)
        objective = [rng.randint(-4, 4) for _ in range(n)]

        constraints = [(row, LE, b) for row, b in zip(rows, rhs)]
        expected = brute_min_over_vertices(objective, constraints)
        res = lp(objective, constraints, [0] * n, [5] * n)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.optimal and res.value == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_duality_direction(self, seed):
        # any feasible point bounds a minimum from above; here max as min
        # of the negated objective
        rng = random.Random(1000 + seed)
        n = 3
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
        rhs = [rng.randint(2, 8) for _ in range(3)]
        objective = [rng.randint(0, 4) for _ in range(n)]
        res = lp(
            [-c for c in objective],
            [(row, LE, b) for row, b in zip(rows, rhs)],
            [0] * n,
            [10] * n,
        )
        assert res.optimal
        assert res.value <= 0  # x = 0 is feasible


def brute_lp(objective, constraints, lower, upper):
    """(status, value) of a min LP with LE/GE/EQ rows over finite boxes, by
    vertex enumeration: the boxes make the region a polytope, so it is
    infeasible exactly when it has no vertex.  Rational data are fine."""
    n = len(objective)
    unit = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    bounds = [(unit[j], GE, lower[j]) for j in range(n)]
    bounds += [(unit[j], LE, upper[j]) for j in range(n)]
    best = brute_min_over_vertices(objective, list(constraints) + bounds)
    return ("infeasible", None) if best is None else ("optimal", best)


def random_lp(seed):
    """A small min LP with int data over finite boxes, every relation and,
    now and then, a redundant or a degenerate row.  Each rhs lies near the
    row's value at a random integer point of the boxes, so about half of
    these LPs are feasible.

    Kinds of box: "zero" (0 <= x <= u), "negative" (l < 0 <= u or l <= u <
    0), "positive" (0 < l <= u) and "pinned" (l = u).
    """
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    kinds = [rng.choice(("zero", "negative", "positive", "pinned")) for _ in range(n)]
    lower, upper = [], []
    for kind in kinds:
        if kind == "zero":
            lo = 0
        elif kind == "negative":
            lo = rng.randint(-12, -1)
        elif kind == "positive":
            lo = rng.randint(1, 12)
        else:
            lo = rng.randint(-12, 12)
        lower.append(lo)
        upper.append(lo if kind == "pinned" else lo + rng.randint(1, 12))
    constraints = []
    for _ in range(rng.randint(1, 3)):
        row = [rng.randint(-12, 12) if rng.random() < 0.7 else 0 for _ in range(n)]
        rhs = sum(a * rng.randint(lo, hi) for a, lo, hi in zip(row, lower, upper))
        constraints.append((row, rng.choice((LE, GE, EQ)), rhs + rng.randint(-6, 6)))
    extras = []
    if rng.random() < 0.25:
        row, rel, rhs = constraints[0]
        f = rng.randint(2, 3)
        constraints.append(([f * a for a in row], rel, f * rhs))
        extras.append("redundant")
    same = [con for con in constraints if con[1] == constraints[0][1]]
    if len(same) >= 2 and rng.random() < 0.5:
        (r1, rel, b1), (r2, _, b2) = same[:2]
        constraints.append(([a + b for a, b in zip(r1, r2)], rel, b1 + b2))
        extras.append("degenerate")
    objective = [rng.randint(-12, 12) for _ in range(n)]
    return (objective, constraints, lower, upper), kinds, extras


RANDOM_SEEDS = range(80)


def on_integer_boxes(objective, constraints, lower, upper):
    """A min LP with rational data over finite boxes as an LP that solve_lp
    takes, and the map of its result back.

    Each variable becomes x = l + z/q, with q the denominator of its width
    u - l, so z has the integer box [0, q(u - l)]; each row and the
    objective are then scaled to ints by the lcm of their denominators.
    back(result) is (status, point, value) of the rational LP.
    """
    q = [Fraction(u - l).denominator for l, u in zip(lower, upper)]

    def scaled(values):
        den = math.lcm(*(v.denominator for v in values))
        return [int(v * den) for v in values], den

    rows = []
    for row, rel, rhs in constraints:
        shifted = rhs - sum(a * l for a, l in zip(row, lower))
        ints, _ = scaled([Fraction(a) / qj for a, qj in zip(row, q)] + [Fraction(shifted)])
        rows.append((ints[:-1], rel, ints[-1]))
    cost, den = scaled([Fraction(c) / qj for c, qj in zip(objective, q)])
    const = sum(Fraction(c) * l for c, l in zip(objective, lower))
    width = [int((u - l) * qj) for l, u, qj in zip(lower, upper, q)]

    def back(res):
        if not res.optimal:
            return res.status, None, None
        point = tuple(l + z / qj for l, z, qj in zip(lower, res.point, q))
        return res.status, point, const + res.value / den

    return (cost, rows, [0] * len(q), width), back


def rational_lp(*args):
    """(status, point, value) of a min LP with rational data, solved as the
    int LP of on_integer_boxes."""
    int_args, back = on_integer_boxes(*args)
    return back(lp(*int_args))


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
            rels.update(rel for _, rel, _ in args[1])
            extras.update(e)
            statuses[lp(*args).status] += 1
        assert set(kinds) == {"zero", "negative", "positive", "pinned"}
        assert set(rels) == {LE, GE, EQ}
        assert set(extras) == {"redundant", "degenerate"}
        assert min(statuses[s] for s in ("optimal", "infeasible")) >= 5

    def test_fractional_lower_bound_shift(self):
        # rational data reach solve_lp shifted and scaled to ints
        status, point, value = rational_lp(
            [2, 1], [([1, 1], GE, Fraction(7, 2))],
            [Fraction(5, 3), Fraction(-1, 2)], [9, 9],
        )
        assert status == "optimal" and value == Fraction(31, 6)
        assert point == (Fraction(5, 3), Fraction(11, 6))

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
        res = lp([1, 0, -1], [([-1, -2, 0], EQ, 0), ([1, 1, 1], LE, 3)], [0] * 3, [5] * 3)
        assert res.value == -3 and res.point == (0, 0, 3)
        assert any(p < 0 for p in pivots)


def recorded_steps(monkeypatch):
    """The list that every pivot and bound flip of solve_lp is appended to."""
    steps = []
    real_pivot, real_flip = lp_module._pivot, lp_module._flip

    def pivot(tab, basis, r, c):
        steps.append(("pivot", basis[r], c))
        real_pivot(tab, basis, r, c)

    def flip(tab, cost, c, w):
        steps.append(("flip", c))
        real_flip(tab, cost, c, w)

    monkeypatch.setattr(lp_module, "_pivot", pivot)
    monkeypatch.setattr(lp_module, "_flip", flip)
    return steps


class TestBoundedPaths:
    """Upper bounds live in the ratio test: each case is checked against
    brute_lp, and its simplex steps show which bounded path it took.  A
    max case is min of the negated objective, on the same tableau."""

    @staticmethod
    def solve(monkeypatch, *args):
        steps = recorded_steps(monkeypatch)
        res = lp(*args)
        assert (res.status, res.value) == brute_lp(*args)
        return res, steps

    @staticmethod
    def solve_rational(monkeypatch, *args):
        steps = recorded_steps(monkeypatch)
        status, point, value = rational_lp(*args)
        assert (status, value) == brute_lp(*args)
        return point, value, steps

    def test_optimum_with_a_nonbasic_variable_at_its_upper_bound(self, monkeypatch):
        # max x + y, x + 2y <= 4, x in [0, 1]: x flips to 1 and stays nonbasic
        res, steps = self.solve(monkeypatch, [-1, -1], [([1, 2], LE, 4)], [0, 0], [1, 5])
        assert res.value == Fraction(-5, 2) and res.point == (1, Fraction(3, 2))
        assert steps == [("flip", 0), ("pivot", 2, 1)]

    def test_fractional_box_widths(self, monkeypatch):
        # x0 in [1/3, 7/4] is x0 = 1/3 + z/12 with z in [0, 17]
        point, value, steps = self.solve_rational(
            monkeypatch, [-1, -2], [([1, 1], LE, Fraction(5, 2))],
            [Fraction(1, 3), Fraction(-1, 2)], [Fraction(7, 4), Fraction(3, 2)],
        )
        assert value == -4 and point == (1, Fraction(3, 2))
        assert ("flip", 0) in steps

    def test_basic_variable_leaves_at_its_upper_bound(self, monkeypatch):
        # max x, x <= y: x enters at 0, then y lifts it to its bound 2
        res, steps = self.solve(monkeypatch, [-1, 0], [([1, -1], LE, 0)], [0, 0], [2, 5])
        assert res.point == (2, 2)
        assert steps == [("pivot", 2, 0), ("pivot", 0, 1)]

    def test_tie_between_a_flip_and_a_slack_goes_to_the_flip(self, monkeypatch):
        # min -x, x + y <= 2, x in [0, 2]: the flip of x (index 0) and the
        # slack (index 2) both stop at 2; the smaller index wins, no pivot
        res, steps = self.solve(monkeypatch, [-1, 0], [([1, 1], LE, 2)], [0, 0], [2, 3])
        assert res.point == (2, 0) and steps == [("flip", 0)]

    def test_tie_between_a_flip_and_a_basic_variable_goes_to_the_variable(self, monkeypatch):
        # max x, x <= y, both in [0, 2]: y entering reaches its own bound
        # just as basic x (index 0 < 1) reaches its, so x leaves
        res, steps = self.solve(monkeypatch, [-1, 0], [([1, -1], LE, 0)], [0, 0], [2, 2])
        assert res.value == -2 and steps == [("pivot", 2, 0), ("pivot", 0, 1)]

    def test_beale_cycling_example_with_finite_boxes(self, monkeypatch):
        # Beale's instance, its data scaled by 100 to ints, with its row
        # x3 <= 1 turned into boxes
        res, _ = self.solve(
            monkeypatch, [-75, 15000, -2, 600],
            [
                ([25, -6000, -4, 900], LE, 0),
                ([50, -9000, -2, 300], LE, 0),
            ],
            [0] * 4, [1, 1, 1, 1],
        )
        assert res.value == -5
        assert res.point == (Fraction(1, 25), 0, 1, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_lp_with_fractional_boxes(self, seed, monkeypatch):
        rng = random.Random(5000 + seed)

        def frac():
            return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5)))

        n = rng.randint(2, 3)
        lower = [frac() for _ in range(n)]
        upper = [lo + abs(frac()) for lo in lower]
        rows = [([frac() for _ in range(n)], rng.choice((LE, GE, EQ)), frac())
                for _ in range(rng.randint(1, 3))]
        objective = [frac() for _ in range(n)]
        if rng.choice(("min", "max")) == "max":
            objective = [-c for c in objective]
        self.solve_rational(monkeypatch, objective, rows, lower, upper)

    def test_empty_box_is_infeasible(self):
        assert lp([1], [], [2], [1]).status == "infeasible"

    def test_wrong_optimum_raises(self):
        p = problem([1], [([1], GE, 1)], [0], [5])
        with pytest.raises(RuntimeError, match="invalid optimum"):
            lp_module._check_result(p, lp_module.LpResult("optimal", (Fraction(1, 2),), Fraction(1, 2)))
        with pytest.raises(RuntimeError, match="invalid optimum"):
            lp_module._check_result(p, lp_module.LpResult("optimal", (Fraction(1),), Fraction(2)))
        with pytest.raises(RuntimeError, match="invalid optimum"):
            lp_module._check_result(p, lp_module.LpResult("optimal", (Fraction(6),), Fraction(6)))


def as_fractions(args):
    """LP arguments with every number a Fraction."""
    objective, constraints, lower, upper = args

    def conv(values):
        return [Fraction(v) for v in values]

    rows = [(conv(row), rel, Fraction(rhs)) for row, rel, rhs in constraints]
    return conv(objective), rows, conv(lower), conv(upper)


class TestIntegerData:
    """LpProblem.make keeps int data as they are and rejects any other
    number; rational data reach solve_lp only as the int LP of
    on_integer_boxes."""

    def test_make_keeps_integers(self):
        rows = [LinearRow.make(enumerate([3, 0, 2]), LE, 5)]
        p = LpProblem.make([1, 2, -3], rows, [0, -2, 1], [2, 4, 7])
        assert p.constraints == tuple(rows) and p.constraints[0] is rows[0]
        assert p.constraints[0].coeffs == ((0, 3), (2, 2))
        assert all(type(v) is int for v in (*p.objective, *p.lower, *p.upper))

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_int_and_fraction_data_give_the_same_result(self, seed):
        # solve_lp's own shift z = x - l and the caller's give one vertex
        args, _, _ = random_lp(seed)
        with pytest.raises(ValueError, match="must be ints"):
            problem(*as_fractions(args))
        res = lp(*args)
        assert rational_lp(*as_fractions(args)) == (res.status, res.point, res.value)


# sha256 over the repr of (status, point, value) of every LP below.  Re-pinned
# when the bounded simplex replaced the one with a row per finite box: 32 of
# the 202 results moved their vertex, and none its status or value.  A
# change of pivot order that moves any returned vertex changes it.
PINNED_CDS_DIGEST = "f8b06ba594143fe05d334a7156be56666682261871d2eabc0ab9bf5f1ae909da"
# sha256 over the repr of (status, value) of each instance's relaxation, and
# over (status, point, value, nodes) of solve_boxed on its ilp model; both
# as computed before the bounded simplex and the one-tangent-per-capacity
# model, which must move neither.
PINNED_CDS_RELAXATION_DIGEST = "75faf7e8f1d497798b29484427b821b73112331e274b74c8aaa30c4a76cd1169"
PINNED_CDS_BOXED_DIGEST = "aecb0bd47adc9749575163462fe1ca91171fd973af738409e357ad49fe62e56f"


def pinned_cds_lp_results():
    """The CDS relaxations of the pinned instances and the re-solves of
    cds_rounding_approx on them."""
    results = []
    real = algorithms.solve_lp

    def recording(p):
        res = real(p)
        results.append(res)
        return res

    for t, g in pinned_cds_instances():
        results.append(solve_lp(relax_model(build_cds_ilp(t))))
        algorithms.solve_lp = recording
        try:
            cds_rounding_approx(t)
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


def test_cds_relaxation_values_and_boxed_searches_are_pinned():
    relaxations, boxed = hashlib.sha256(), hashlib.sha256()
    for t, _ in pinned_cds_instances():
        res = solve_lp(relax_model(build_cds_ilp(t)))
        relaxations.update(repr((res.status, res.value)).encode())
        ip = solve_boxed(build_cds_ilp(t))
        boxed.update(repr((ip.status, ip.point, ip.value, ip.nodes)).encode())
    assert relaxations.hexdigest() == PINNED_CDS_RELAXATION_DIGEST
    assert boxed.hexdigest() == PINNED_CDS_BOXED_DIGEST


# Pivots plus bound flips over the 100 pinned relaxations.  The simplex with
# a row and a slack per finite box and an artificial per row took 1,822
# pivots (and no flips) on the one-tangent-per-vertex models.
PINNED_CDS_SIMPLEX_STEPS = 935


def test_cds_relaxation_simplex_steps_stay_bounded(monkeypatch):
    steps = Counter()
    real_pivot, real_flip = lp_module._pivot, lp_module._flip

    def pivot(*args):
        steps["pivot"] += 1
        real_pivot(*args)

    def flip(*args):
        steps["flip"] += 1
        real_flip(*args)

    monkeypatch.setattr(lp_module, "_pivot", pivot)
    monkeypatch.setattr(lp_module, "_flip", flip)
    for t, _ in pinned_cds_instances():
        assert solve_lp(relax_model(build_cds_ilp(t))).optimal
    assert steps["flip"] > 0
    assert steps["pivot"] + steps["flip"] <= PINNED_CDS_SIMPLEX_STEPS


def test_cds_tableau_has_only_the_model_rows():
    for t, _ in pinned_cds_instances()[:20]:
        p = relax_model(build_cds_ilp(t))
        tab = lp_module._tableau(p)
        assert all(lo is not None and hi is not None for lo, hi in zip(p.lower, p.upper))
        assert len(tab.tab) == len(p.constraints)  # no row per finite box
        assert tab.nslack == len(p.constraints) and tab.nart == t.k
        # the artificials start basic in exactly the k domination rows
        artificial = [b >= tab.nz + tab.nslack for b in tab.basis]
        assert artificial == [c.rel == GE for c in p.constraints]
