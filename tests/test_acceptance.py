"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The instance suites are
seeded blow-ups (templates with at most 4 classes, at most 8 vertices,
capacities at most 4 where applicable), generated once per session and
shared across criteria.
"""

import functools
import itertools
import random

from ndsolve.algorithms import (
    cds_brute,
    cds_proximity_solve,
    cds_rounding_approx,
    check_cds,
    check_coloring,
    coloring_cost,
    cut_value,
    maxqcut_brute,
    proximity_box,
    relax_model,
    sumcol_brute,
    _match_subset,
)
from ndsolve.backends import (
    cached_graver_basis,
    solve_augment,
    solve_boxed,
    solve_nfold,
)
from ndsolve.graphs import CLIQUE, type_graph
from ndsolve.graver import g1_norm, stacking_check
from ndsolve.instances import generate_blowup, random_template
from ndsolve.ipmodel import EQ, IpModel, Linear, LinearRow, SeparableConvex
from ndsolve.lp import solve_lp
from ndsolve.matrices import IntMatrix
from ndsolve.models import (
    CdsSolution,
    build_catalog,
    build_cds_convex,
    build_cds_ilp,
    build_maxqcut,
    build_sumcol_convex,
    build_sumcol_graver,
    build_sumcol_nfold,
    decode_cds,
    decode_coloring,
    split_stacked_blocks,
)

from helpers import (
    capacity_reorder,
    decoded,
    dual_graph,
    is_capacity_ordered,
    stacked_path_decomposition,
    verify_decomposition,
)

SUITE_SIZE = 200


def _report(number, ok, detail=""):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def _suite(base_seed, count, with_capacities):
    out = []
    i = 0
    while len(out) < count:
        rng = random.Random(base_seed + i)
        i += 1
        template = random_template(
            rng, max_k=4, max_n=8, with_capacities=with_capacities, max_capacity=4
        )
        g = generate_blowup(template, seed=rng.randrange(2**30))
        out.append((g, type_graph(g)))
    return tuple(out)


@functools.cache
def cds_suite():
    return _suite(11_000, SUITE_SIZE, True)


@functools.cache
def sumcol_suite():
    return _suite(22_000, SUITE_SIZE, False)


@functools.cache
def cds_results():
    """Shared per-instance data for criteria 1, 4, 5, 9."""
    out = []
    for g, t in cds_suite():
        brute = cds_brute(g)
        lp = solve_lp(relax_model(build_cds_ilp(t)))
        out.append({"g": g, "t": t, "brute": brute, "lp": lp})
    return out


@functools.cache
def sumcol_results():
    out = []
    for g, t in sumcol_suite():
        out.append({"g": g, "t": t, "brute": sumcol_brute(g)})
    return out


def test_criterion_1_cds_oracle_agreement():
    bad = 0
    for rec in cds_results():
        g, t = rec["g"], rec["t"]
        opt = rec["brute"].size
        m1 = solve_boxed(build_cds_convex(t)).value
        m2 = solve_boxed(build_cds_ilp(t)).value
        prox = decoded(t, cds_proximity_solve(t))
        if not (m1 == m2 == prox.size == opt and check_cds(g, prox)):
            bad += 1
    _report(1, bad == 0, f"{len(cds_results())} instances, {bad} disagreements")


def test_criterion_2_sumcol_oracle_agreement():
    bad = 0
    augment_runs = 0
    for rec in sumcol_results():
        g, t = rec["g"], rec["t"]
        opt = coloring_cost(rec["brute"])
        m3 = build_sumcol_nfold(t)
        values = [
            solve_boxed(m3).value,
            solve_nfold(m3).value,
            solve_boxed(build_sumcol_convex(t)).value,
            solve_boxed(build_sumcol_graver(t)).value,
        ]
        if t.k <= 3:
            values.append(solve_augment(build_sumcol_graver(t)).value)
            augment_runs += 1
        if any(v != opt for v in values):
            bad += 1
    ok = bad == 0 and augment_runs >= 100
    _report(
        2,
        ok,
        f"{len(sumcol_results())} instances, {bad} disagreements, "
        f"{augment_runs} augment runs",
    )


def test_criterion_3_maxqcut_oracle_agreement():
    bad = 0
    total = 0
    for g, t in sumcol_suite()[:100]:
        for q in (2, 3):
            total += 1
            model_value = -solve_boxed(build_maxqcut(t, q)).value  # the model minimizes -cut
            if model_value != cut_value(g, maxqcut_brute(g, q)):
                bad += 1
    _report(3, bad == 0, f"{total} (instance, q) pairs, {bad} disagreements")


def test_criterion_4_rounding_bound():
    bad = 0
    witness = None
    for rec in cds_results():
        g, t = rec["g"], rec["t"]
        sol = decoded(t, cds_rounding_approx(t))
        gap = sol.size - rec["brute"].size
        if not (0 <= gap <= t.k * t.k) or not check_cds(g, sol):
            bad += 1
        elif gap > 0 and witness is None:
            witness = (g.n, t.k, gap)
    note = f"positive-gap example n={witness[0]} k={witness[1]} gap={witness[2]}" if witness else "no positive gap found"
    _report(4, bad == 0, f"{len(cds_results())} instances, {bad} violations; {note}")


def test_criterion_5_proximity_box_contains_ordered_optimum():
    bad = 0
    for rec in cds_results():
        g, t = rec["g"], rec["t"]
        opt = rec["brute"].size
        lo, hi = proximity_box(t, rec["lp"].point)
        found = False
        for xhat in itertools.product(*map(range, lo, (h + 1 for h in hi))):
            if sum(xhat) == opt and decode_cds(t, xhat) is not None:
                found = True
                break
        if not found:
            bad += 1
    _report(5, bad == 0, f"{len(cds_results())} instances, {bad} empty boxes")


def test_criterion_6_stacked_path_decomposition():
    checked = 0
    bad = 0
    widths = {}
    for g, t in sumcol_suite()[:60]:
        model = build_sumcol_graver(t)
        decomp = stacked_path_decomposition(model)
        report = verify_decomposition(dual_graph(model.matrix()), decomp)
        checked += 1
        widths.setdefault(t.k, 0)
        widths[t.k] = max(widths[t.k], report.width)
        if not report.valid or report.width > t.k + 1:
            bad += 1
    assert checked >= 50
    _report(6, bad == 0, f"{checked} instances, widths per k: {sorted(widths.items())}")


def test_criterion_7_graver_bounds():
    bad = 0
    checked = 0
    for g, t in sumcol_suite():
        if t.k > 3:
            continue
        checked += 1
        model = build_sumcol_graver(t)
        cat = build_catalog(t)
        _, l_block = split_stacked_blocks(model)
        basis = cached_graver_basis(l_block)
        if g1_norm(basis) > len(cat.gamma) + 1:
            bad += 1
            continue
        nx = cat.size
        if any(sum(abs(v) for v in elem[:nx]) > 2 for elem in basis.elements):
            bad += 1

    pair_fails = 0
    rng = random.Random(7_777)
    pairs = 0
    while pairs < 12:
        n = rng.randint(2, 4)
        f = IntMatrix.from_dict(
            1, n, {(0, j): rng.randint(-2, 2) for j in range(n) if rng.random() < 0.8}
        )
        l = IntMatrix.from_dict(
            1, n, {(0, j): rng.randint(-2, 2) for j in range(n) if rng.random() < 0.8}
        )
        pairs += 1
        if not stacking_check(f, l).holds:
            pair_fails += 1
    ok = bad == 0 and pair_fails == 0 and checked >= 50
    _report(
        7,
        ok,
        f"{checked} lower blocks, {bad} violations; {pairs} stacked pairs, {pair_fails} violations",
    )


def _random_standard_form(seed):
    rng = random.Random(90_000 + seed)
    m = rng.randint(1, 3)
    n = rng.randint(2, 6)
    entries = {
        (i, j): rng.randint(-2, 2) for i in range(m) for j in range(n) if rng.random() < 0.8
    }
    a = IntMatrix.from_dict(m, n, entries)
    lower = [rng.randint(-5, 0) for _ in range(n)]
    upper = [rng.randint(l, 5) for l in lower]
    x0 = tuple(rng.randint(lower[j], upper[j]) for j in range(n))
    b = a.mul_vec(list(x0))
    a_rows = a.to_rows()
    rows = tuple(
        LinearRow.make({j: a_rows[i][j] for j in range(n)}, EQ, b[i]) for i in range(m)
    )
    if seed % 2:
        objective = Linear(tuple(rng.randint(-3, 3) for _ in range(n)))
    else:
        targets = [rng.randint(-4, 4) for _ in range(n)]
        scales = [rng.randint(1, 3) for _ in range(n)]
        objective = SeparableConvex(
            tuple(
                (lambda v, c=c, s=s: s * (v - c) * (v - c))
                for c, s in zip(targets, scales)
            )
        )
    return IpModel(
        objective=objective,
        n_vars=n,
        lower=tuple(lower),
        upper=tuple(upper),
        rows=rows,
        initial_point=x0,
    )


def test_criterion_8_graver_optimality():
    bad = 0
    count = 120
    for seed in range(count):
        model = _random_standard_form(seed)
        via_augment = solve_augment(model)
        via_boxed = solve_boxed(model)
        if via_augment.value != via_boxed.value:
            bad += 1
    _report(8, bad == 0, f"{count} standard-form instances, {bad} disagreements")


def _canonical_recolor(coloring):
    """Relabel colors so class sizes are non-increasing (ties by smallest
    vertex); preserves cost exactly on size-monotone colorings."""
    classes = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    order = sorted(classes.values(), key=lambda vs: (-len(vs), min(vs)))
    return {v: idx + 1 for idx, vs in enumerate(order) for v in vs}


def _essential(g, t, coloring):
    for i in range(t.k):
        members = t.classes[i]
        per_color = {}
        for v in members:
            per_color.setdefault(coloring[v], []).append(v)
        if t.kinds[i] == CLIQUE:
            if any(len(vs) > 1 for vs in per_color.values()):
                return False
        else:
            if any(0 < len(vs) < len(members) for vs in per_color.values()):
                return False
    return True


def _mu_monotone(coloring):
    if not coloring:
        return True
    mu = {}
    for c in coloring.values():
        mu[c] = mu.get(c, 0) + 1
    top = max(mu)
    if set(mu) != set(range(1, top + 1)):
        return False
    return all(mu[p] >= mu[p + 1] for p in range(1, top))


def test_criterion_9_structural_properties():
    bad = 0
    for rec in sumcol_results():
        g, t, coloring = rec["g"], rec["t"], rec["brute"]
        canon = _canonical_recolor(coloring)
        if not (
            _essential(g, t, coloring)
            and _mu_monotone(coloring)
            and check_coloring(g, canon)
            and coloring_cost(canon) == coloring_cost(coloring)
            and _essential(g, t, canon)
            and _mu_monotone(canon)
        ):
            bad += 1

    reorder_bad = 0
    for idx, rec in enumerate(cds_results()):
        g, t = rec["g"], rec["t"]
        rng = random.Random(33_000 + idx)
        extra = set(rec["brute"].dominators) | {
            v for v in range(g.n) if rng.random() < 0.3
        }
        solutions = [rec["brute"], CdsSolution.make(extra, _match_subset(g, extra))]
        for sol in solutions:
            out = capacity_reorder(g, sol)
            if not (
                check_cds(g, out)
                and out.size == sol.size
                and is_capacity_ordered(g, out.dominators)
            ):
                reorder_bad += 1
    ok = bad == 0 and reorder_bad == 0
    _report(
        9,
        ok,
        f"{len(sumcol_results())} colorings ({bad} violations), "
        f"{2 * len(cds_results())} reorders ({reorder_bad} violations)",
    )


def test_criterion_10_column_cost_arbitration():
    bad = 0
    for rec in sumcol_results():
        g, t = rec["g"], rec["t"]
        res = solve_boxed(build_sumcol_convex(t))
        coloring = decode_coloring(t, g, res.point, "sumcol_convex")
        if res.value != coloring_cost(coloring) or res.value != coloring_cost(rec["brute"]):
            bad += 1
    _report(10, bad == 0, f"{len(sumcol_results())} instances, {bad} mismatches")
