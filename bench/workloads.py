"""Seeded workload content: instance files, expected values and op lists.

An op is one literal ``ndsolve`` command line.  Every op names its route in
full (``--model``/``--backend`` or ``--algo``, ``--q`` for max-q-cut, a fixed
``--budget``), so a change of the CLI's defaults cannot change a workload.

* ``desk``: the acceptance-gate generator (``random_template``, k <= 4,
  n <= 8, capacities <= 4), every CLI route of every problem.  The suite is
  fixed, as the acceptance gate's is; the seed permutes capacities inside
  each class of the domination instances.
* ``graver``: sum-coloring catalog routes plus ``ndsolve graver FILE`` on
  48 random k <= 4 templates with up to 120 vertices from the fixed suite;
  the seed shuffles the op order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from ndsolve.algorithms import (
    COLORING_SIZE_GUARD,
    CUT_SIZE_GUARD,
    CDS_SIZE_GUARD,
    cds_brute,
    coloring_cost,
    cut_value,
    maxqcut_brute,
    sumcol_brute,
)
from ndsolve.graphs import Graph, twin_partition, type_graph
from ndsolve.instances import Instance, generate_blowup, random_template, write_instance

BUDGET = 2_000_000
GRAVER_MAX_ELEMENTS = 200_000

CDS_ROUTES = (
    ("convex/boxed", ("--model", "convex", "--backend", "boxed")),
    ("ilp/boxed", ("--model", "ilp", "--backend", "boxed")),
    ("proximity", ("--algo", "proximity")),
    ("rounding", ("--algo", "rounding")),
)
SUMCOL_ROUTES = (
    ("nfold/boxed", ("--model", "nfold", "--backend", "boxed")),
    ("nfold/nfold", ("--model", "nfold", "--backend", "nfold")),
    ("convexfd/boxed", ("--model", "convexfd", "--backend", "boxed")),
    ("graver/boxed", ("--model", "graver", "--backend", "boxed")),
    ("graver/augment", ("--model", "graver", "--backend", "augment")),
)
CATALOG_ROUTES = SUMCOL_ROUTES[2:]
MAXQCUT_QS = (2, 3)

SUITE_SEED = 171102032
DESK_PER_PROBLEM = 6
GRAVER_CASES = 48
GRAVER_MAX_N = 120


@dataclass
class Case:
    """One instance file with what the gate needs to judge answers on it.

    ``expected`` maps q (None outside max-q-cut) to the oracle value, or is
    empty when the instance is beyond the oracle's size guard; then the
    exact routes must agree with each other.
    """

    name: str
    inst: Instance
    path: str
    k: int
    expected: dict


@dataclass(frozen=True)
class Op:
    case: str
    problem: str
    route: str
    q: int | None
    argv: tuple


def _oracle(inst: Instance, q):
    g = inst.graph
    if inst.problem == "cds":
        return cds_brute(g).size if g.n <= CDS_SIZE_GUARD else None
    if inst.problem == "sumcol":
        return coloring_cost(sumcol_brute(g)) if g.n <= COLORING_SIZE_GUARD else None
    return cut_value(g, maxqcut_brute(g, q)) if g.n <= CUT_SIZE_GUARD else None


def _solve_ops(case: Case, routes):
    problem = case.inst.problem
    base = ("solve", case.path, "--problem", problem, "--budget", str(BUDGET), "--no-timing")
    if problem == "maxqcut":
        return [
            Op(case.name, problem, f"quadratic/boxed/q{q}", q,
               base + ("--model", "quadratic", "--backend", "boxed", "--q", str(q)))
            for q in MAXQCUT_QS
        ]
    return [Op(case.name, problem, route, None, base + flags) for route, flags in routes]


def _graver_op(case: Case):
    return Op(case.name, "sumcol", "graver", None,
              ("graver", case.path, "--max-elements", str(GRAVER_MAX_ELEMENTS)))


def _case(workdir, name, graph, problem):
    q = MAXQCUT_QS[0] if problem == "maxqcut" else None
    inst = Instance(graph, problem, q)
    path = os.path.join(workdir, f"{name}.txt")
    write_instance(inst, path)
    qs = MAXQCUT_QS if problem == "maxqcut" else (None,)
    expected = {}
    for qq in qs:
        value = _oracle(inst, qq)
        if value is not None:
            expected[qq] = value
    return Case(name, inst, path, type_graph(graph).k, expected)


def _permute_capacities(rng, graph):
    """Shuffle capacities among the twins of each class.

    The type graph keeps each class's sorted capacities, so the models and
    the work stay the same while the instance file changes.
    """
    capacity = list(graph.capacity)
    for members in twin_partition(graph).classes:
        caps = [capacity[v] for v in members]
        rng.shuffle(caps)
        for v, c in zip(members, caps):
            capacity[v] = c
    return Graph(graph.n, graph.edges, tuple(capacity))


def desk(seed, workdir, per_problem=DESK_PER_PROBLEM):
    suite = random.Random(SUITE_SEED)
    rng = random.Random(seed)
    cases, ops = [], []
    for problem, routes in (("cds", CDS_ROUTES), ("sumcol", SUMCOL_ROUTES), ("maxqcut", None)):
        for idx in range(per_problem):
            template = random_template(
                suite, max_k=4, max_n=8, with_capacities=problem == "cds", max_capacity=4
            )
            graph = generate_blowup(template, seed=suite.randrange(2**30))
            if problem == "cds":
                graph = _permute_capacities(rng, graph)
            case = _case(workdir, f"desk-{problem}-{idx}", graph, problem)
            cases.append(case)
            ops += _solve_ops(case, routes)
    return cases, ops


def graver(seed, workdir, count=GRAVER_CASES, max_n=GRAVER_MAX_N):
    suite = random.Random(SUITE_SEED)
    cases, ops = [], []
    for idx in range(count):
        template = random_template(suite, max_k=4, max_n=max_n)
        graph = generate_blowup(template, seed=suite.randrange(2**30))
        case = _case(workdir, f"graver-{idx}", graph, "sumcol")
        cases.append(case)
        ops += _solve_ops(case, CATALOG_ROUTES) + [_graver_op(case)]
    random.Random(seed).shuffle(ops)
    return cases, ops


WORKLOADS = {"desk": desk, "graver": graver}
