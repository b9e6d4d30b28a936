import dataclasses
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ndsolve import algorithms, lp as lp_module
from ndsolve.algorithms import cds_rounding_approx, relax_model
from ndsolve.backends import solve_boxed
from ndsolve.lp import LE, GE, EQ, LpProblem, solve_lp
from ndsolve.models import build_cds_ilp

from helpers import PINNED_CDS_INSTANCES, pinned_cds_instances


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


class TestBoundedPaths:
    """Upper bounds live in the ratio test: each case is checked against
    brute_lp, and its simplex steps show which bounded path it took."""

    @staticmethod
    def solve(monkeypatch, *args):
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
        res = lp(*args)
        status, value = brute_lp(*args)
        assert res.status == status and res.value == value
        return res, steps

    def test_optimum_with_a_nonbasic_variable_at_its_upper_bound(self, monkeypatch):
        # max x + y, x + 2y <= 4, x in [0, 1]: x flips to 1 and stays nonbasic
        res, steps = self.solve(monkeypatch, "max", [1, 1], [([1, 2], LE, 4)], [0, 0], [1, 5])
        assert res.value == Fraction(5, 2) and res.point == (1, Fraction(3, 2))
        assert steps == [("flip", 0), ("pivot", 2, 1)]

    def test_fractional_box_widths(self, monkeypatch):
        res, steps = self.solve(
            monkeypatch, "min", [-1, -2], [([1, 1], LE, Fraction(5, 2))],
            [Fraction(1, 3), Fraction(-1, 2)], [Fraction(7, 4), Fraction(3, 2)],
        )
        assert res.value == -4 and res.point == (1, Fraction(3, 2))
        assert ("flip", 0) in steps

    def test_basic_variable_leaves_at_its_upper_bound(self, monkeypatch):
        # max x, x <= y: x enters at 0, then y lifts it to its bound 2
        res, steps = self.solve(monkeypatch, "max", [1, 0], [([1, -1], LE, 0)], [0, 0], [2, 5])
        assert res.point == (2, 2)
        assert steps == [("pivot", 2, 0), ("pivot", 0, 1)]

    def test_tie_between_a_flip_and_a_slack_goes_to_the_flip(self, monkeypatch):
        # min -x, x + y <= 2, x in [0, 2]: the flip of x (index 0) and the
        # slack (index 2) both stop at 2; the smaller index wins, no pivot
        res, steps = self.solve(monkeypatch, "min", [-1, 0], [([1, 1], LE, 2)], [0, 0], [2, 3])
        assert res.point == (2, 0) and steps == [("flip", 0)]

    def test_tie_between_a_flip_and_a_basic_variable_goes_to_the_variable(self, monkeypatch):
        # max x, x <= y, both in [0, 2]: y entering reaches its own bound
        # just as basic x (index 0 < 1) reaches its, so x leaves
        res, steps = self.solve(monkeypatch, "max", [1, 0], [([1, -1], LE, 0)], [0, 0], [2, 2])
        assert res.value == 2 and steps == [("pivot", 2, 0), ("pivot", 0, 1)]

    def test_beale_cycling_example_with_finite_boxes(self, monkeypatch):
        # Beale's instance with its row x3 <= 1 turned into boxes
        res, _ = self.solve(
            monkeypatch, "min", [Fraction(-3, 4), 150, Fraction(-1, 50), 6],
            [
                ([Fraction(1, 4), -60, Fraction(-1, 25), 9], LE, 0),
                ([Fraction(1, 2), -90, Fraction(-1, 50), 3], LE, 0),
            ],
            [0] * 4, [1, 1, 1, 1],
        )
        assert res.value == Fraction(-1, 20)
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
        self.solve(monkeypatch, rng.choice(("min", "max")), [frac() for _ in range(n)],
                   rows, lower, upper)

    def test_empty_box_is_infeasible(self):
        assert lp("min", [1], [], lower=[2], upper=[1]).status == "infeasible"

    def test_wrong_optimum_raises(self):
        p = LpProblem.make("min", [1], [([1], GE, 1)])
        with pytest.raises(RuntimeError, match="invalid optimum"):
            lp_module._check_result(p, lp_module.LpResult("optimal", (Fraction(1, 2),), Fraction(1, 2)))
        with pytest.raises(RuntimeError, match="invalid optimum"):
            lp_module._check_result(p, lp_module.LpResult("optimal", (Fraction(1),), Fraction(2)))


def as_fractions(args):
    """LP arguments with every number a Fraction (None kept)."""
    sense, objective, constraints, lower, upper = args

    def conv(values):
        return [v if v is None else Fraction(v) for v in values]

    rows = [(conv(row), rel, Fraction(rhs)) for row, rel, rhs in constraints]
    return sense, conv(objective), rows, conv(lower), conv(upper)


def as_numbers(args):
    """LP arguments with every integral number an int."""
    sense, objective, constraints, lower, upper = args

    def conv(values):
        return [v if v is None or Fraction(v).denominator != 1 else int(v) for v in values]

    rows = [(conv(row), rel, conv([rhs])[0]) for row, rel, rhs in constraints]
    return sense, conv(objective), rows, conv(lower), conv(upper)


FRACTIONAL_WIDTHS = ("min", [-1, -2], [([1, 1], LE, Fraction(5, 2))],
                     [Fraction(1, 3), Fraction(-1, 2)], [Fraction(7, 4), Fraction(3, 2)])


class TestIntegerData:
    """Integral problem data stay ints from LpProblem.make to the re-check;
    only data that are not integral, and the result, are Fractions."""

    def test_make_keeps_integers(self):
        p = LpProblem.make("min", [1, Fraction(4, 2), Fraction(1, 2)],
                           [([3, 0, Fraction(6, 3)], LE, Fraction(5))],
                           [0, Fraction(-2), None], [2, None, Fraction(7, 2)])
        assert [type(v) for v in p.objective] == [int, int, Fraction]
        assert [type(v) for v in p.constraints[0].coeffs] == [int, int, int]
        assert type(p.constraints[0].rhs) is int
        assert p.lower == (0, -2, None) and type(p.lower[1]) is int
        assert p.upper == (2, None, Fraction(7, 2))

    def test_integer_coefficient_over_a_fractional_width_stays_exact(self):
        # x0 in [1/3, 7/4] is x0 = 1/3 + z/12 with z in [0, 17]: the int
        # cost -1 and row coefficient 1 of x0 become -1/12 and 1/12
        t = lp_module._tableau(LpProblem.make(*FRACTIONAL_WIDTHS))
        assert t.cost == [Fraction(-1, 12), -2] and type(t.cost[0]) is Fraction
        assert t.width[:2] == [17, 2]
        assert all(type(v) is int for row, den in t.tab for v in row + [den])

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_int_and_fraction_data_give_the_same_result(self, seed):
        args, _, _ = random_lp(seed)
        results = {repr(dataclasses.astuple(lp(*conv(args)))) for conv in (as_fractions, as_numbers)}
        assert len(results) == 1

    def test_fractional_box_widths_in_both_forms(self):
        results = {repr(dataclasses.astuple(lp(*conv(FRACTIONAL_WIDTHS))))
                   for conv in (as_fractions, as_numbers)}
        assert results == {repr(("optimal", (Fraction(1), Fraction(3, 2)), Fraction(-4)))}


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
