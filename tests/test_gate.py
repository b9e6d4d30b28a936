"""A medium-n cross-route gate for capacitated domination.

The acceptance gate stops at n <= 8, where the brute-force oracle runs.
Here the classes are larger (k <= 4, n <= 24, capacities <= 6) and the
routes are checked against each other: `proximity` must equal the optimum
of `ilp/boxed`, `rounding` must lie within k^2 above it, and every witness
must pass check_cds.  The exact cross-check runs under a node budget, never
a clock; an instance it cannot finish is counted, and a floor on the
instances answered keeps the budget from quietly emptying the gate.
"""

import random

from ndsolve.algorithms import cds_proximity_solve, cds_rounding_approx, check_cds
from ndsolve.backends import Budget, solve_boxed
from ndsolve.errors import BudgetError
from ndsolve.graphs import type_graph
from ndsolve.instances import generate_blowup, random_template
from ndsolve.models import build_cds_ilp, decode_cds

GATE_INSTANCES = 400
GATE_BUDGET = Budget(max_nodes=5_000)
# at this budget ilp/boxed answers 396 of the 400 instances
GATE_FLOOR = 390


def gate_instances():
    for seed in range(GATE_INSTANCES):
        rng = random.Random(40_000 + seed)
        template = random_template(rng, max_k=4, max_n=24, with_capacities=True, max_capacity=6)
        g = generate_blowup(template, seed=rng.randrange(2**30))
        yield type_graph(g), g


def test_cds_routes_agree_at_medium_n():
    answered = large = 0
    for t, g in gate_instances():
        large += g.n > 8
        proximity = cds_proximity_solve(t, g)
        rounding = cds_rounding_approx(t, g)
        assert check_cds(g, proximity) and check_cds(g, rounding), g
        try:
            res = solve_boxed(build_cds_ilp(t), GATE_BUDGET)
        except BudgetError:
            continue
        answered += 1
        sol = decode_cds(t, g, res.point)
        assert sol is not None and check_cds(g, sol) and sol.size == res.value, g
        assert proximity.size == res.value, g
        assert res.value <= rounding.size <= res.value + t.k * t.k, g
    assert answered >= GATE_FLOOR
    assert large == GATE_INSTANCES  # all above the acceptance gate's n <= 8

