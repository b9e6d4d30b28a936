import dataclasses
import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ndsolve import backends
from ndsolve.backends import Budget, solve_augment, solve_boxed, solve_nfold
from ndsolve.errors import BudgetError
from ndsolve.graphs import type_graph
from ndsolve.graver import GraverBasis
from ndsolve.instances import generate_blowup, random_template
from ndsolve.ipmodel import (
    EQ,
    GE,
    LE,
    ConvexRow,
    GeneralConvex,
    IpModel,
    Linear,
    LinearRow,
    NFoldBlocks,
    Quadratic,
    SeparableConvex,
)
from ndsolve.matrices import IntMatrix
from ndsolve.models import (
    build_cds_convex,
    build_maxqcut,
    build_sumcol_convex,
    build_sumcol_graver,
    build_sumcol_nfold,
    decode_coloring,
)

from helpers import nfold_reference_step, pinned_cds_instances


def simple_model(objective, n, lower, upper, rows=(), **kw):
    return IpModel(
        objective=objective,
        n_vars=n,
        lower=tuple(lower),
        upper=tuple(upper),
        rows=tuple(LinearRow.make(*r) for r in rows),
        **kw,
    )


def _holds_all(model, pt):
    return all(backends._holds(row, sum(c * pt[i] for i, c in row.coeffs))
               for row in model.rows)


def brute_optimum(model):
    """Exhaustive oracle over the whole box: (value, lexicographically
    smallest optimal point), or (None, None) when infeasible."""
    best = best_pt = None
    ranges = [range(l, u + 1) for l, u in zip(model.lower, model.upper)]
    for pt in itertools.product(*ranges):
        ok = True
        for row in model.rows:
            lhs = sum(c * pt[i] for i, c in row.coeffs)
            if row.rel == LE and lhs > row.rhs:
                ok = False
            elif row.rel == GE and lhs < row.rhs:
                ok = False
            elif row.rel == EQ and lhs != row.rhs:
                ok = False
        if ok:
            for cr in model.convex_rows:
                if cr.fn(pt) > 0:
                    ok = False
                    break
        if ok:
            val = model.objective_value(pt)
            if best is None or val < best:
                best, best_pt = val, pt
    return best, best_pt


def with_first_start(model):
    """model started at its lexicographically first point that satisfies
    the boxes and rows, found by enumeration; None as the start when there
    is no such point."""
    ranges = [range(l, u + 1) for l, u in zip(model.lower, model.upper)]
    start = next((pt for pt in itertools.product(*ranges) if _holds_all(model, pt)), None)
    return dataclasses.replace(model, initial_point=start)


def table_term(values, lo):
    """The integer function that takes values[v - lo] at v."""
    return lambda v: values[v - lo]


def random_separable_convex_model(rng, n_rows, rel=None):
    """1-3 variables, boxes of width <= 4, convex terms given by their
    tables (sorted increments), and n_rows random rows."""
    n = rng.randint(1, 3)
    lower = [rng.randint(-2, 2) for _ in range(n)]
    upper = [lo + rng.randint(0, 4) for lo in lower]
    terms = []
    for lo, hi in zip(lower, upper):
        values = [rng.randint(-5, 5)]
        for step in sorted(rng.randint(-4, 4) for _ in range(hi - lo)):
            values.append(values[-1] + step)
        terms.append(table_term(tuple(values), lo))
    rows = [({j: rng.randint(-2, 2) for j in range(n)}, rel or rng.choice([LE, EQ, GE]),
             rng.randint(-3, 5)) for _ in range(n_rows)]
    return simple_model(SeparableConvex(tuple(terms)), n, lower, upper, rows=rows)


def budget_boundary_model(name):
    if name == "several-last-values":
        # min x0 - x1 + 2 x2, x0 + x1 + x2 >= 4: the last variable ranges
        return simple_model(Linear((1, -1, 2)), 3, [0] * 3, [3] * 3,
                            rows=[({0: 1, 1: 1, 2: 1}, GE, 4)])
    if name == "hook-only-quadratic":
        t, _ = pinned_sumcol_instances()[3]
        return build_maxqcut(t, 3)
    if name == "convex-rows":
        t, _ = pinned_cds_instances()[0]
        return build_cds_convex(t)
    return simple_model(Linear(()), 0, [], [])


class TestSolveBoxed:
    def test_trivial_min(self):
        m = simple_model(Linear((1,)), 1, [0], [9])
        res = solve_boxed(m)
        assert res.optimal and res.point == (0,) and res.value == 0

    def test_infeasible(self):
        m = simple_model(Linear((1,)), 1, [0], [9], rows=[({0: 1}, GE, 4), ({0: 1}, LE, 2)])
        assert solve_boxed(m).status == "infeasible"

    def test_lexicographically_smallest_optimum(self):
        # x + y = 3 with flat objective: (0, 3) is the lex-min optimum
        m = simple_model(Linear((0, 0)), 2, [0, 0], [3, 3], rows=[({0: 1, 1: 1}, EQ, 3)])
        assert solve_boxed(m).point == (0, 3)

    def test_maximize_quadratic(self):
        # max xy as min -xy
        m = simple_model(Quadratic(((0, 1, -1),)), 2, [0, 0], [4, 4],
                         rows=[({0: 1, 1: 1}, EQ, 4)])
        res = solve_boxed(m)
        assert res.value == -4 and res.point == (2, 2)

    def test_separable_convex(self):
        terms = (lambda v: (v - 3) ** 2, lambda v: 2 * abs(v - 1))
        m = simple_model(SeparableConvex(terms), 2, [0, 0], [5, 5])
        res = solve_boxed(m)
        assert res.value == 0 and res.point == (3, 1)

    def test_general_convex_enumeration(self):
        fn = lambda p: (p[0] - 2) ** 2 + (p[1] + p[0] - 3) ** 2
        m = simple_model(GeneralConvex(fn, "test"), 2, [0, 0], [4, 4])
        res = solve_boxed(m)
        assert res.value == 0 and res.point == (2, 1)

    def test_convex_feasibility_row(self):
        # y <= f(x) with f concave: f(0)=0, f(1)=3, f(2)=4
        f = {0: 0, 1: 3, 2: 4}
        cr = ConvexRow(
            fn=lambda p: p[1] - f[p[0]],
            box_min=lambda lo, hi: lo[1] - f[hi[0]],
            name="cap",
        )
        m = simple_model(
            Linear((1, 0)), 2, [0, 0], [2, 4],
            rows=[({1: 1}, GE, 4)], convex_rows=(cr,),
        )
        res = solve_boxed(m)
        assert res.optimal and res.point == (2, 4)

    def test_incumbent_is_certified(self, monkeypatch):
        # min x, x >= 2: a row pruning that never raises a lower bound
        # admits the leaf x = 0, and the certificate stops it
        m = simple_model(Linear((1,)), 1, [0], [5], rows=[({0: 1}, GE, 2)])
        assert solve_boxed(m).point == (2,)
        monkeypatch.setattr(backends, "_ceil_div", lambda a, b: -10**9)
        with pytest.raises(RuntimeError, match="breaks a box or a row"):
            solve_boxed(m)

    def test_certify_recomputes_the_objective(self):
        m = simple_model(Linear((-1, -2)), 2, [0, 0], [3, 3])
        assert backends._certify(m, (1, 3), -7) == -7
        with pytest.raises(RuntimeError, match="reached objective"):
            backends._certify(m, (1, 3), 7)

    def test_budget_error(self):
        m = simple_model(Linear((-1, -1, -1)), 3, [0] * 3, [9] * 3)
        with pytest.raises(BudgetError):
            solve_boxed(m, budget=Budget(max_nodes=5))

    def test_constant_infeasible_row(self):
        m = simple_model(Linear((1,)), 1, [0], [9], rows=[({}, EQ, 5)])
        assert solve_boxed(m).status == "infeasible"

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_exhaustive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, 3)):
            coeffs = {j: rng.randint(-2, 2) for j in range(n) if rng.random() < 0.8}
            rows.append((coeffs, rng.choice([LE, EQ, GE]), rng.randint(-3, 6)))
        sign = rng.choice([1, -1])  # -1: a maximization, as the minimization of its negation
        obj = Linear(tuple(sign * rng.randint(-3, 3) for _ in range(n)))
        m = simple_model(obj, n, [0] * n, [4] * n, rows=rows)
        expected, expected_pt = brute_optimum(m)
        res = solve_boxed(m)
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.value == expected and res.point == expected_pt

    @pytest.mark.parametrize("seed", range(8))
    def test_value_invariant_under_variable_permutation(self, seed):
        rng = random.Random(500 + seed)
        n = 4
        rows = [({j: rng.randint(-2, 2) for j in range(n)}, rng.choice([LE, GE]), rng.randint(0, 6))
                for _ in range(2)]
        obj = tuple(rng.randint(-2, 3) for _ in range(n))
        m = simple_model(Linear(obj), n, [0] * n, [3] * n, rows=rows)
        base = solve_boxed(m)

        perm = list(range(n))
        rng.shuffle(perm)
        prows = [({perm[j]: c for j, c in row[0].items()}, row[1], row[2]) for row in rows]
        pobj = [0] * n
        for j in range(n):
            pobj[perm[j]] = obj[j]
        pm = simple_model(Linear(tuple(pobj)), n, [0] * n, [3] * n, rows=prows)
        permuted = solve_boxed(pm)
        assert (base.status, base.value) == (permuted.status, permuted.value)

    @pytest.mark.parametrize("seed", range(20))
    def test_quadratic_with_a_hook_prunes_and_keeps_the_optimum(self, seed):
        # an admissible hook changes no answer and adds no node; whether it
        # drops one depends on the model (test_exact_hook_drops_nodes)
        m, plain, hooked = hooked_quadratic(seed)
        assert (hooked.status, hooked.point, hooked.value) == (
            plain.status, plain.point, plain.value)
        assert (plain.value, plain.point) == brute_optimum(m)
        assert hooked.nodes <= plain.nodes

    def test_exact_hook_drops_nodes(self):
        # seed 13 has two feasible points; once the first is the incumbent,
        # the exact hook drops the values whose completions are no better
        _, plain, hooked = hooked_quadratic(13)
        assert (hooked.nodes, plain.nodes) == (5, 8)

    def test_general_convex_without_a_hook_is_enumerated(self):
        fn = lambda p: (p[0] - 2) ** 2 + (p[1] + p[0] - 3) ** 2
        m = simple_model(GeneralConvex(fn, "test"), 2, [0, 0], [4, 4])
        assert solve_boxed(m).nodes == 1 + 5 + 25

    def test_convex_catalog_searches_keep_their_node_count(self):
        # the sum-coloring catalog model with a general convex objective is
        # bounded by catalog_remainder_bound alone; 2,049 nodes without it
        nodes = sum(solve_boxed(build_sumcol_convex(t)).nodes
                    for t, _ in pinned_sumcol_instances())
        assert nodes == 1197

    @pytest.mark.parametrize("seed", range(6))
    def test_separable_convex_agrees_with_exhaustive_oracle(self, seed):
        rng = random.Random(1700 + seed)
        for _ in range(500):
            m = random_separable_convex_model(rng, rng.randint(0, 2))
            res = solve_boxed(m)
            assert (res.value, res.point) == brute_optimum(m)

    @pytest.mark.parametrize("model", ["several-last-values", "hook-only-quadratic",
                                       "convex-rows", "no-variables"])
    def test_budget_boundary(self, model):
        # every node counts, the leaves in their parent's loop included: the
        # exact count solves, one fewer stops
        m = budget_boundary_model(model)
        res = solve_boxed(m)
        assert res.optimal
        assert solve_boxed(m, Budget(max_nodes=res.nodes)) == res
        with pytest.raises(BudgetError):
            solve_boxed(m, Budget(max_nodes=res.nodes - 1))

    def test_remainder_bound_hook_preserves_optimum(self):
        # admissible hook (true remaining minimum is >= 0 here)
        m = simple_model(
            Linear((1, 1)), 2, [0, 0], [5, 5],
            rows=[({0: 1, 1: 1}, GE, 4)],
        )
        hooked = IpModel(**{**m.__dict__, "remainder_bound": lambda pt, d: 0})
        assert solve_boxed(hooked).value == solve_boxed(m).value == 4

    def test_start_prunes_the_pinned_sumcol_searches(self):
        # the n-fold model's greedy start cuts its searches 32,805 -> 4,489
        # nodes; the stacked model's start never prunes
        nodes = {}
        for build in (build_sumcol_nfold, build_sumcol_graver):
            counts = [start_only_prunes(build(t)) for t, _ in pinned_sumcol_instances()]
            nodes[build] = [sum(column) for column in zip(*counts)]
        assert nodes[build_sumcol_nfold] == [4_489, 32_805]
        assert nodes[build_sumcol_graver] == [1_715, 1_715]

    def test_start_prunes_widened_nfold_models(self):
        counts = [start_only_prunes(widened_nfold_model(seed)) for seed in range(300)]
        assert sum(seeded < plain for seeded, plain in counts) > 50

    @pytest.mark.parametrize("seed", range(4))
    def test_any_start_is_answered_exactly_or_rejected(self, seed):
        # a start in the box, feasible or not: one valued better than the
        # optimum, or on an infeasible model, breaks a row and is rejected;
        # any other leaves the answer and the search of the model without it
        rng = random.Random(2400 + seed)
        rejected = 0
        for _ in range(100):
            m = random_separable_convex_model(rng, rng.randint(0, 2))
            start = tuple(rng.randint(lo, hi) for lo, hi in zip(m.lower, m.upper))
            seeded = dataclasses.replace(m, initial_point=start)
            value, _ = brute_optimum(m)
            v0 = m.objective_value(start)
            if value is None or v0 < value:
                with pytest.raises(ValueError, match="initial point"):
                    solve_boxed(seeded)
                rejected += 1
            else:
                start_only_prunes(seeded)
        assert 0 < rejected < 100

    @pytest.mark.parametrize("seed", range(4))
    def test_start_keeps_the_answer_on_fraction_values(self, seed):
        # objectives valued in thirds, so leaves lie between V0 and the
        # first limit V0 + 1: a feasible start still leaves the point and
        # the value of the search without it, and adds no node
        rng = random.Random(2500 + seed)
        counts = []
        for _ in range(100):
            m = random_separable_convex_model(rng, rng.randint(0, 2))
            if rng.random() < 0.5:
                objective = Linear(tuple(Fraction(rng.randint(-6, 6), 3) for _ in range(m.n_vars)))
            else:
                objective = SeparableConvex(tuple(
                    (lambda v, f=f: Fraction(f(v), 3)) for f in m.objective.terms))
            m = dataclasses.replace(m, objective=objective)
            ranges = [range(l, u + 1) for l, u in zip(m.lower, m.upper)]
            feasible = [pt for pt in itertools.product(*ranges) if _holds_all(m, pt)]
            if feasible:
                counts.append(start_only_prunes(
                    dataclasses.replace(m, initial_point=rng.choice(feasible))))
        assert any(seeded < plain for seeded, plain in counts)

    def test_start_off_the_rows(self):
        # min x + 2y, x + y = 2, optimum 2 at (2, 0): (0, 0) breaks the row
        # and is valued below it, (3, 3) breaks it and is valued above
        m = simple_model(Linear((1, 2)), 2, [0, 0], [3, 3], rows=[({0: 1, 1: 1}, EQ, 2)])
        with pytest.raises(ValueError, match="initial point"):
            solve_boxed(dataclasses.replace(m, initial_point=(0, 0)))
        res = solve_boxed(dataclasses.replace(m, initial_point=(3, 3)))
        assert (res.point, res.value) == ((2, 0), 2) == brute_optimum(m)[::-1]

    def test_start_off_the_box(self):
        m = simple_model(Linear((-1, -1)), 2, [0, 0], [3, 3], rows=[({0: 1, 1: -1}, LE, 0)])
        with pytest.raises(ValueError, match="initial point"):
            solve_boxed(dataclasses.replace(m, initial_point=(4, 4)))
        assert solve_boxed(dataclasses.replace(m, initial_point=(-1, -1))).point == (3, 3)

    def test_a_pruned_feasible_start_is_reported(self):
        # a hook that overstates every remainder prunes the start itself
        m = simple_model(Linear((1, 1)), 2, [0, 0], [3, 3], initial_point=(1, 1),
                         remainder_bound=lambda pt, d: 10)
        with pytest.raises(RuntimeError, match="pruned the feasible start point"):
            solve_boxed(m)


def hooked_quadratic(seed):
    """(model, plain result, hooked result) of solve_boxed on a seeded
    quadratic model of 3-4 variables in [0, 3] and one row, without and with
    the exact hook: the minimum over the feasible completions, found by
    enumeration, the strongest admissible bound."""
    rng = random.Random(900 + seed)
    n = rng.randint(3, 4)
    terms = tuple((p, q, rng.randint(-3, 3))
                  for p, q in itertools.combinations_with_replacement(range(n), 2))
    rows = [({j: rng.randint(-1, 2) for j in range(n)}, rng.choice([LE, EQ, GE]),
             rng.randint(0, 5))]
    sign = rng.choice([1, -1])  # -1: a maximization, as the minimization of its negation
    terms = tuple((p, q, sign * c) for p, q, c in terms)
    m = simple_model(Quadratic(terms), n, [0] * n, [3] * n, rows=rows)
    feasible = [pt for pt in itertools.product(range(4), repeat=n) if _holds_all(m, pt)]

    def hook(point, depth):
        values = [m.objective_value(pt) for pt in feasible
                  if list(pt[:depth]) == list(point[:depth])]
        return min(values, default=10**9)

    return m, solve_boxed(m), solve_boxed(dataclasses.replace(m, remainder_bound=hook))


def start_only_prunes(model):
    """(nodes, nodes without the start) of solve_boxed on model, once the
    two searches are seen to return the same status, point and value."""
    seeded = solve_boxed(model)
    plain = solve_boxed(dataclasses.replace(model, initial_point=None))
    assert (seeded.status, seeded.point, seeded.value) == (plain.status, plain.point, plain.value)
    assert seeded.nodes <= plain.nodes
    return seeded.nodes, plain.nodes


class TestSolveAugment:
    def test_rejects_initial_point_off_the_rows(self):
        # min x + 2y, x + y = 2: (0, 0) breaks the row, so it is no start
        m = simple_model(Linear((1, 2)), 2, [0, 0], [3, 3],
                         rows=[({0: 1, 1: 1}, EQ, 2)], initial_point=(0, 0))
        with pytest.raises(ValueError, match="initial point"):
            solve_augment(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_exhaustive_oracle_or_rejects(self, seed):
        # separable convex and linear objectives are exact from the first
        # feasible point; a quadratic objective is rejected, and so is an
        # infeasible model, which has no start
        rng = random.Random(1800 + seed)
        infeasible = solved = 0
        for _ in range(100):
            m = with_first_start(random_separable_convex_model(rng, 1, rel=EQ))
            draw = rng.random()
            if draw < 0.25:
                m = dataclasses.replace(m, objective=Linear(
                    tuple(rng.randint(-3, 3) for _ in range(m.n_vars))))
            elif draw < 0.5:
                m = dataclasses.replace(m, objective=Quadratic(((0, 0, -1),)))
                with pytest.raises(ValueError, match="linear or separable convex"):
                    solve_augment(m)
                continue
            if m.initial_point is None:
                assert brute_optimum(m) == (None, None)
                with pytest.raises(ValueError, match="augmentation needs a start point"):
                    solve_augment(m)
                infeasible += 1
                continue
            res = solve_augment(m)
            assert res.value == brute_optimum(m)[0]
            solved += 1
        assert infeasible and solved

    def test_final_point_is_rechecked(self, monkeypatch):
        # min -x - y, x - y = 0; a "basis" holding (1, 0), which is no kernel
        # vector, walks off the row to (3, 0), and the last check stops it
        m = simple_model(Linear((-1, -1)), 2, [0, 0], [3, 3],
                         rows=[({0: 1, 1: -1}, EQ, 0)], initial_point=(0, 0))
        assert solve_augment(m).point == (3, 3)
        monkeypatch.setattr(backends, "cached_graver_basis",
                            lambda matrix: GraverBasis(matrix, frozenset({(1, 0)})))
        with pytest.raises(RuntimeError, match="breaks a box or a row"):
            solve_augment(m)


def nfold_model(obj, a1, a2, n_bricks, rhs_top, rhs_brick, lower, upper, initial=None):
    r, s, t = a1.m, a2.m, a1.n
    rows = []
    a1_rows = a1.to_rows()
    a2_rows = a2.to_rows()
    for i in range(r):
        coeffs = {b * t + j: a1_rows[i][j] for b in range(n_bricks) for j in range(t)}
        rows.append(LinearRow.make(coeffs, EQ, rhs_top[i]))
    for b in range(n_bricks):
        for i in range(s):
            coeffs = {b * t + j: a2_rows[i][j] for j in range(t)}
            rows.append(LinearRow.make(coeffs, EQ, rhs_brick[b][i]))
    return IpModel(
        objective=obj,
        n_vars=n_bricks * t,
        lower=tuple(lower),
        upper=tuple(upper),
        rows=tuple(rows),
        nfold=NFoldBlocks(r, s, t, n_bricks, a1, a2),
        initial_point=initial,
    )


class TestSolveNFold:
    def test_requires_annotation(self):
        m = simple_model(Linear((1,)), 1, [0], [1])
        with pytest.raises(ValueError):
            solve_nfold(m)

    def test_rejects_quadratic(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Quadratic(()), a1, a2, 2, [3], [[] for _ in range(2)],
                        [0, 0], [3, 3])
        with pytest.raises(ValueError):
            solve_nfold(m)

    def test_separable_convex_bricks(self):
        # three bricks, one variable each, sum pinned to 5
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        targets = [0, 2, 5]
        terms = tuple((lambda v, c=c: (v - c) ** 2) for c in targets)
        m = with_first_start(nfold_model(SeparableConvex(terms), a1, a2, 3, [5], [[], [], []],
                                         [0] * 3, [5] * 3))
        res = solve_nfold(m)
        assert res.optimal
        assert res.value == solve_boxed(m).value

    def test_brick_rows(self):
        # per brick x + y = 3, top row couples the x's
        a1 = IntMatrix.from_rows([[1, 0]])
        a2 = IntMatrix.from_rows([[1, 1]])
        terms = (
            lambda v: v * v, lambda v: 3 * v,
            lambda v: (v - 3) ** 2, lambda v: 0,
        )
        m = with_first_start(nfold_model(SeparableConvex(terms), a1, a2, 2, [3], [[3], [3]],
                                         [0] * 4, [3] * 4))
        res = solve_nfold(m)
        assert res.optimal and res.value == solve_boxed(m).value

    def test_long_step(self):
        # independent bricks want to travel 8; A1 is a single zero row
        a1 = IntMatrix.from_dict(1, 1, {})
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Linear((-1, -1)), a1, a2, 2, [0], [[], []],
                        [0, 0], [8, 8], initial=(0, 0))
        res = solve_nfold(m)
        assert res.value == -16
        assert res.nodes <= 2  # one long step per direction at most

    @pytest.mark.parametrize("rhs", [3, 9])
    def test_both_augmenting_backends_require_a_start(self, rhs):
        # x0 + x1 = rhs over [0, 3]^2, feasible at 3 and infeasible at 9:
        # without a start both backends raise, naming themselves, and
        # neither answers infeasible
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Linear((1, 1)), a1, a2, 2, [rhs], [[], []], [0, 0], [3, 3])
        with pytest.raises(ValueError, match="n-fold backend needs a start point"):
            solve_nfold(m)
        with pytest.raises(ValueError, match="augmentation needs a start point"):
            solve_augment(m)

    def test_brick_move_longer_than_a2_graver_norm(self):
        # A1 = [1 2], A2 empty, brick 2 boxed to 0, start (0,1,0,0): reaching
        # (2,0,0,0) takes the brick move (2,-1), longer than g_inf(A2) = 1
        a1 = IntMatrix.from_rows([[1, 2]])
        a2 = IntMatrix.from_dict(0, 2, {})
        terms = (lambda v: (v - 2) ** 2, lambda v: v * v, lambda v: 0, lambda v: 0)
        m = nfold_model(SeparableConvex(terms), a1, a2, 2, [2], [[], []],
                        [0] * 4, [3, 3, 0, 0], initial=(0, 1, 0, 0))
        res = solve_nfold(m)
        assert res.optimal and res.value == 0 and res.point == (2, 0, 0, 0)

    def test_rejects_convex_rows(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Linear((1, 2)), a1, a2, 2, [2], [[], []], [0, 0], [3, 3])
        m = IpModel(**{**m.__dict__, "convex_rows": (ConvexRow(sum, lambda lo, hi: sum(lo)),)})
        with pytest.raises(ValueError, match="linear rows only"):
            solve_nfold(m)

    def test_rejects_initial_point_off_the_rows(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Linear((1, 2)), a1, a2, 2, [2], [[], []],
                        [0, 0], [3, 3], initial=(0, 0))
        with pytest.raises(ValueError, match="initial point"):
            solve_nfold(m)

    def test_final_point_is_rechecked(self, monkeypatch):
        # per brick x + y = 3; unit brick moves, which are no A2-kernel
        # vectors, let the DP lower y of brick 1 and break its brick row
        a1 = IntMatrix.from_rows([[1, 0]])
        a2 = IntMatrix.from_rows([[1, 1]])
        terms = (lambda v: v * v, lambda v: 3 * v, lambda v: (v - 3) ** 2, lambda v: 0)
        m = with_first_start(nfold_model(SeparableConvex(terms), a1, a2, 2, [3], [[3], [3]],
                                         [0] * 4, [3] * 4))
        assert solve_nfold(m).optimal
        units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        monkeypatch.setattr(backends, "_kernel_vectors_within", lambda a, cap, max_nodes: units)
        with pytest.raises(RuntimeError, match="breaks a box or a row"):
            solve_nfold(m)

    def test_kernel_enumeration_obeys_the_budget(self):
        # boxes of width 6 around one brick row x - y = 0: the A2-kernel
        # enumeration alone takes more than ten nodes
        a1 = IntMatrix.from_rows([[1, 0]])
        a2 = IntMatrix.from_rows([[1, -1]])
        m = nfold_model(Linear((1, 1, 1, 1)), a1, a2, 2, [3], [[0], [0]],
                        [0] * 4, [6] * 4, initial=(3, 3, 0, 0))
        assert solve_nfold(m).value == 6
        with pytest.raises(BudgetError, match="kernel enumeration budget exceeded"):
            solve_nfold(m, budget=Budget(max_nodes=10))

    def test_dp_state_budget(self):
        m = self._four_bricks_summing_to_five()
        with pytest.raises(BudgetError, match="n-fold DP state budget exceeded"):
            solve_nfold(m, budget=Budget(max_dp_states=5))

    def test_dp_state_budget_counts_states_that_can_return_to_zero(self):
        # without the pruning the last layers hold every sum 0..15 and -5..15
        m = self._four_bricks_summing_to_five()
        point, sizes = nfold_reference_step(m, m.initial_point)
        assert sizes == [6, 11, 16, 21] and point is not None
        res = solve_nfold(m, budget=Budget(max_dp_states=6))
        assert res.optimal and res.value == solve_boxed(m).value == 34

    @staticmethod
    def _four_bricks_summing_to_five():
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        terms = tuple((lambda v, c=c: (v - c) ** 2) for c in (5, 5, 5, 0))
        return nfold_model(SeparableConvex(terms), a1, a2, 4, [5], [[]] * 4,
                           [0] * 4, [5] * 4, initial=(0, 0, 0, 5))

    def test_rejects_initial_point_off_the_box(self):
        a1 = IntMatrix.from_rows([[1]])
        a2 = IntMatrix.from_dict(0, 1, {})
        m = nfold_model(Linear((1, 2)), a1, a2, 2, [2], [[], []],
                        [0, 0], [3, 3], initial=(4, -2))
        with pytest.raises(ValueError, match="initial point"):
            solve_nfold(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_boxed_on_random_instances(self, seed):
        rng = random.Random(seed)
        n_bricks = rng.randint(2, 3)
        t = rng.randint(1, 2)
        a1 = IntMatrix.from_dict(
            1, t, {(0, j): rng.randint(0, 1) for j in range(t) if rng.random() < 0.8}
        )
        a2 = IntMatrix.from_dict(0, t, {})
        lower = [0] * (n_bricks * t)
        upper = [3] * (n_bricks * t)
        x0 = tuple(rng.randint(0, 3) for _ in range(n_bricks * t))
        a1r = a1.to_rows()[0]
        rhs_top = [sum(a1r[j] * x0[b * t + j] for b in range(n_bricks) for j in range(t))]
        targets = [rng.randint(0, 3) for _ in range(n_bricks * t)]
        terms = tuple((lambda v, c=c: (v - c) ** 2) for c in targets)
        m = nfold_model(SeparableConvex(terms), a1, a2, n_bricks, rhs_top,
                        [[] for _ in range(n_bricks)], lower, upper, initial=x0)
        assert solve_nfold(m).value == solve_boxed(m).value

    def test_agrees_with_boxed_on_widened_instances(self):
        # A1 entries in [-2,2], one A2 row, negative lower bounds, box widths
        # up to 3 and targets outside the box
        bad = []
        for seed in range(300):
            m = widened_nfold_model(seed)
            if solve_nfold(m).value != solve_boxed(m).value:
                bad.append(seed)
        assert bad == []

    def test_agrees_with_the_unpruned_dp_on_deeper_instances(self):
        # 4-6 bricks, so the reachable ranges of the bricks still to come
        # are narrower than the states the bricks before can reach
        pruned = 0
        for seed in range(300):
            m = widened_nfold_model(seed, bricks=(4, 6))
            x, steps, largest = m.initial_point, 0, 0
            while True:
                nxt, sizes = nfold_reference_step(m, x)
                largest = max(largest, *sizes)
                if nxt is None:
                    break
                x, steps = nxt, steps + 1
            res = solve_nfold(m)
            assert (res.status, res.point, res.value, res.nodes) == (
                "optimal", x, m.objective_value(x), steps), seed
            try:
                solve_nfold(m, budget=Budget(max_dp_states=largest - 1))
                pruned += 1  # no layer was as large as the unpruned one
            except BudgetError:
                pass
        assert pruned > 100

    def test_packed_states_agree_with_the_tuple_dp(self):
        # three A1 rows with entries of both signs up to 3 and 6-8 bricks, so
        # the packed fields hold sums of either sign next to each other; the
        # first variable's term raises outside its box
        for seed in range(100):
            m = widened_nfold_model(seed, bricks=(6, 8), rows=(3, 3), entries=3, guarded=True)
            x, steps = m.initial_point, 0
            while (nxt := nfold_reference_step(m, x)[0]) is not None:
                x, steps = nxt, steps + 1
            res = solve_nfold(m)
            assert (res.status, res.point, res.value, res.nodes) == (
                "optimal", x, m.objective_value(x), steps), seed
            assert res.value == solve_boxed(m).value, seed

    def test_sumcol_results_are_pinned(self):
        h = hashlib.sha256()
        for t, _ in pinned_sumcol_instances():
            res = solve_nfold(build_sumcol_nfold(t))
            h.update(repr((res.status, res.point, res.value, res.nodes)).encode())
        assert h.hexdigest() == PINNED_SUMCOL_DIGEST


# sha256 over the repr of (status, point, value, nodes) of solve_nfold on the
# 200 sum-coloring instances of the acceptance gate (its criterion 2).  First
# computed by the brick DP whose moves stopped at g_inf(A2) and whose step
# lengths were scaled by doubling (on these 0/1 boxes both move sets agree);
# re-pinned when the model went from one brick per vertex to
# sum(class_slots) bricks, which shortens every point.  The values, the
# decoded colourings (PINNED_SUMCOL_NFOLD_COLORING_DIGEST) and the 111 steps
# in all stayed the same.  Re-pinned when the model's start became a greedy
# type-level coloring: the steps went 111 -> 6 in all, and no value moved.
PINNED_SUMCOL_DIGEST = "7e7587402168ca1ade853281754f87fa5bdc94931c6ec888a4d16b5c00e9b06c"


@functools.cache
def pinned_sumcol_instances():
    """(type graph, graph) of the 200 sum-coloring instances of the
    acceptance gate (its criterion 2)."""
    out = []
    for i in range(200):
        rng = random.Random(22_000 + i)
        template = random_template(rng, max_k=4, max_n=8, with_capacities=False,
                                   max_capacity=4)
        g = generate_blowup(template, seed=rng.randrange(2**30))
        out.append((type_graph(g), g))
    return out


def coloring_digest(solve):
    """sha256 over the repr of (status, value, decoded colouring) of solve
    on the n-fold model of each pinned sum-coloring instance."""
    h = hashlib.sha256()
    for t, g in pinned_sumcol_instances():
        res = solve(build_sumcol_nfold(t))
        coloring = sorted(decode_coloring(t, g, res.point, "sumcol_nfold").items())
        h.update(repr((res.status, res.value, coloring)).encode())
    return h.hexdigest()


def maxqcut_digest():
    """sha256 over the repr of (status, point, cut) of solve_boxed on the
    max-q-cut model of the first 100 pinned instances, for q = 2 and 3; the
    model minimizes -cut."""
    h = hashlib.sha256()
    for t, _ in pinned_sumcol_instances()[:100]:
        for q in (2, 3):
            res = solve_boxed(build_maxqcut(t, q))
            h.update(repr((res.status, res.point, -res.value)).encode())
    return h.hexdigest()


# Computed before solve_boxed bounded quadratic objectives and before the
# n-fold model was cut to sum(class_slots) bricks; neither may move a value,
# a colouring or a max-q-cut point.  The n-fold colourings were re-pinned
# when the model's start became a greedy type-level coloring: augmentation
# from it ends at another optimum on 25 of the 200 instances, at the same
# value.
PINNED_SUMCOL_BOXED_COLORING_DIGEST = "191c6acc0f0ff23e7f2632dbedc5d783d39f02344aaf5dcb3d2720029f661d1c"
PINNED_SUMCOL_NFOLD_COLORING_DIGEST = "3a2f529bbd303818ef1441da96dd9a222eae67da819d4b195491e6351d27b05d"
PINNED_MAXQCUT_DIGEST = "ea4f06d881604984cb0b4cb9c52a32381c5b31382cffc87f254d91bea6fa239c"


def test_sumcol_colorings_are_pinned():
    assert coloring_digest(solve_boxed) == PINNED_SUMCOL_BOXED_COLORING_DIGEST
    assert coloring_digest(solve_nfold) == PINNED_SUMCOL_NFOLD_COLORING_DIGEST


def test_maxqcut_results_are_pinned():
    assert maxqcut_digest() == PINNED_MAXQCUT_DIGEST


def reported(res, sign):
    """The value of a solve as its route reports it: sign times the model's
    value, which max-q-cut's route negates back into the cut."""
    return res.value if res.value is None else sign * res.value


def boxed_digest(models, sign=1):
    """sha256 over the repr of (status, point, reported value, nodes) of
    solve_boxed on each model."""
    h = hashlib.sha256()
    for m in models:
        res = solve_boxed(m)
        h.update(repr((res.status, res.point, reported(res, sign), res.nodes)).encode())
    return h.hexdigest()


def boxed_outcome_digest(models, sign=1):
    """boxed_digest without the nodes: what a sharper bound may not move."""
    h = hashlib.sha256()
    for m in models:
        res = solve_boxed(m)
        h.update(repr((res.status, res.point, reported(res, sign))).encode())
    return h.hexdigest()


# Computed with the search that filled per-row tables of rows x (vars + 1)
# suffix ranges and made one call per leaf: the per-depth row checks, with
# leaves evaluated in their parent's loop, must walk the same tree.  The
# cds convex digest equals PINNED_CDS_BOXED_DIGEST of the ilp model: on
# these instances each capacity rule's box_min prunes exactly where its
# tangent rows do.  The two catalog digests were re-pinned when both
# catalog models got catalog_remainder_bound (2,049 -> 1,197 and
# 3,063 -> 1,715 nodes); their outcomes are pinned apart, below.  The n-fold
# digest was re-pinned when solve_boxed began to prune from the model's
# greedy start (32,805 -> 4,489 nodes); the stacked model's start prunes
# nothing.
PINNED_BOXED_SEARCH_DIGESTS = {
    "sumcol/nfold": "ad90f772c19ea1d0b9b462887395bb8b228b1a4ecdb48a5f80090ffc7a15363d",
    "sumcol/convexfd": "afbaa8f1ef09770ec2333af3bc1e43b6daca260cc4427c0f4807719d7a4c0b08",
    "sumcol/graver": "3fb4e81e22c8aed5ca87e9b37fcdb9e73393a112b4363a428c39b15799124ca3",
    "maxqcut/quadratic": "b0895a85ac877cd4a4c8de69025899b1cd39f73715a8d5f5e11bb5ee54dea4c2",
    "cds/convex": "aecb0bd47adc9749575163462fe1ca91171fd973af738409e357ad49fe62e56f",
}


def route_sign(route):
    return -1 if route == "maxqcut/quadratic" else 1


def pinned_boxed_models(route):
    sumcol = [t for t, _ in pinned_sumcol_instances()]
    if route == "sumcol/nfold":
        return map(build_sumcol_nfold, sumcol)
    if route == "sumcol/convexfd":
        return map(build_sumcol_convex, sumcol)
    if route == "sumcol/graver":
        return map(build_sumcol_graver, sumcol)
    if route == "maxqcut/quadratic":
        return (build_maxqcut(t, q) for t in sumcol[:100] for q in (2, 3))
    return (build_cds_convex(t) for t, _ in pinned_cds_instances())


# (status, point, value) of the same searches, computed before the catalog
# models got a remainder bound: a bound moves nodes only.
PINNED_BOXED_OUTCOME_DIGESTS = {
    "sumcol/nfold": "4d2d10b9295ee4bc94a299be6a6a9d2319bef400fb04f4d6dd0c7340f1c56e14",
    "sumcol/convexfd": "026b1c1b560efe2f00d72c22554406dc932c800d90aef43959a698cfee198615",
    "sumcol/graver": "e9585ad436a29545ba36b05eecf7ed0ec04b2734854b94fa66d83b49354cc446",
    "maxqcut/quadratic": "ea4f06d881604984cb0b4cb9c52a32381c5b31382cffc87f254d91bea6fa239c",
    "cds/convex": "455602246da432436dd84e87f7f40157ee7f06259b9bc43db0034fb183b0f23c",
}


@pytest.mark.parametrize("route", sorted(PINNED_BOXED_SEARCH_DIGESTS))
def test_boxed_searches_are_pinned(route):
    assert (boxed_digest(pinned_boxed_models(route), route_sign(route))
            == PINNED_BOXED_SEARCH_DIGESTS[route])


@pytest.mark.parametrize("route", sorted(PINNED_BOXED_OUTCOME_DIGESTS))
def test_boxed_outcomes_are_pinned(route):
    assert (boxed_outcome_digest(pinned_boxed_models(route), route_sign(route))
            == PINNED_BOXED_OUTCOME_DIGESTS[route])


def widened_nfold_model(seed, bricks=(2, 3), rows=(1, 2), entries=2, guarded=False):
    """A random n-fold model: A1 entries in [-entries, entries], one A2 row,
    negative lower bounds, box widths up to 3 and targets outside the box.
    With guarded, the first variable's term raises outside its box."""
    rng = random.Random(seed)
    n_bricks = rng.randint(*bricks)
    t = rng.randint(2, 3)
    r = rng.randint(*rows)
    a1 = IntMatrix.from_rows([[rng.randint(-entries, entries) for _ in range(t)]
                              for _ in range(r)])
    a2 = IntMatrix.from_rows([[rng.randint(-1, 1) for _ in range(t)]])
    lower = [rng.randint(-2, 0) for _ in range(n_bricks * t)]
    upper = [lo + rng.randint(0, 3) for lo in lower]
    x0 = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
    rhs_top = [
        sum(row[j] * x0[b * t + j] for b in range(n_bricks) for j in range(t))
        for row in a1.to_rows()
    ]
    rhs_brick = [
        [sum(row[j] * x0[b * t + j] for j in range(t)) for row in a2.to_rows()]
        for b in range(n_bricks)
    ]
    targets = [rng.randint(lo - 1, hi + 1) for lo, hi in zip(lower, upper)]
    terms = [(lambda v, c=c: (v - c) ** 2) for c in targets]
    if guarded:
        terms[0] = boxed_term(terms[0], lower[0], upper[0])
    return nfold_model(SeparableConvex(tuple(terms)), a1, a2, n_bricks, rhs_top,
                       rhs_brick, lower, upper, initial=tuple(x0))


def boxed_term(f, lo, hi):
    """f, raising AssertionError when evaluated outside [lo, hi]."""
    def term(v):
        if not lo <= v <= hi:
            raise AssertionError(f"term evaluated at {v}, outside [{lo}, {hi}]")
        return f(v)
    return term
