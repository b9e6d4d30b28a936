"""The names that the benchmark hooks exist, and its hooks put them back.

While a pass runs, ``bench/run.py`` (``PieceClock``) and ``bench/spans.py``
(``Tracer``) replace functions of ``ndsolve`` by timing wrappers, looked up
by name.  A renamed or deleted name would only break the benchmark; here it
fails the test suite instead.
"""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ndsolve import algorithms, backends, cli  # noqa: E402
from ndsolve.algorithms import cds_brute  # noqa: E402
from ndsolve.instances import read_instance  # noqa: E402


def snapshot():
    """Every name of the hooked namespaces, bound to its current object."""
    owners = {"algorithms": algorithms, "backends": backends, "cli": cli, "workloads": workloads}
    snap = {owner: dict(vars(module)) for owner, module in owners.items()}
    snap["cli.SOLVERS"] = dict(cli.SOLVERS)
    return snap


def rebound(before, after):
    return {
        f"{owner}.{name}"
        for owner, names in before.items()
        for name, value in names.items()
        if after[owner].get(name) is not value
    }


@pytest.mark.parametrize(
    "hooks, some_hooked",
    [
        (spans.Tracer, {"backends.solve_lp", "backends.graver_basis", "cli.SOLVERS.nfold",
                        "cli.read_instance", "algorithms.solve_lp"}),
        (run.PieceClock, {"backends.solve_lp", "algorithms.solve_lp", "workloads._case"}),
    ],
)
def test_hooks_patch_and_restore(hooks, some_hooked):
    before = snapshot()
    with hooks():
        inside = snapshot()
    assert some_hooked <= rebound(before, inside)
    assert rebound(before, snapshot()) == set()


@pytest.mark.parametrize("seed", [5, 23])
def test_workload_setup_builds_and_reads_back(seed, tmp_path):
    """Both workloads' set-up runs on the current API (``desk`` rebuilds its
    domination graphs with ``Graph(n, edges, capacity)``), and every file it
    writes reads back to its instance."""
    desk_cases, desk_ops = workloads.desk(seed, tmp_path, per_problem=1)
    graver_cases, graver_ops = workloads.graver(seed, tmp_path, count=2, max_n=12)
    assert [c.inst.problem for c in desk_cases] == ["cds", "sumcol", "maxqcut"]
    assert len(graver_cases) == 2 and desk_ops and graver_ops
    for case in desk_cases + graver_cases:
        assert read_instance(case.path) == case.inst
    assert {op.argv[1] for op in desk_ops + graver_ops} == {c.path for c in desk_cases + graver_cases}


def test_checker_judges_dominator_only_cds_witness(tmp_path):
    """The gate rebuilds a dominator-only witness (what ``--algo`` prints)
    by matching over ``g.adj[v] & dom``, so ``Graph.adj`` must stay a tuple
    of sets: an optimal dominating set passes, the empty set does not."""
    cases, ops = workloads.desk(5, tmp_path, per_problem=1)
    case = next(c for c in cases if c.inst.problem == "cds")
    op = next(o for o in ops if o.case == case.name and o.route == "proximity")
    dom = cds_brute(case.inst.graph).dominators
    text = "D={" + ",".join(str(v + 1) for v in sorted(dom)) + "}"
    value = case.expected[None]
    assert len(dom) == value
    assert check._cds_witness(case.inst.graph, text).dominators == dom
    assert check.witness_error(op, case.inst, value, text) is None
    assert check.witness_error(op, case.inst, 0, "D={}") == "invalid dominating set"


def test_workload_lines_are_plain_lines(tmp_path):
    """Every op line of both workloads is read by the option-table parser
    into the Namespace argparse gives it, so no op pays for argparse."""
    ops = workloads.desk(5, tmp_path)[1] + workloads.graver(5, tmp_path)[1]
    assert {op.argv[0] for op in ops} == {"solve", "graver"}
    for op in ops:
        argv = list(op.argv)
        args = cli.parse_plain(argv)
        assert args is not None and args == cli.build_parser().parse_args(argv)


def test_cli_main_runs_the_workload_lines(tmp_path, monkeypatch):
    """cli.main still accepts the ops the benchmark sends it, without argparse."""
    def no_argparse():
        raise AssertionError("a workload line reached argparse")

    ops = workloads.desk(5, tmp_path, per_problem=1)[1]
    graver_ops = workloads.graver(5, tmp_path, count=2, max_n=12)[1]
    monkeypatch.setattr(cli, "build_parser", no_argparse)
    for op in ops + graver_ops:
        assert run.call(cli.main, op.argv)[0] == 0, op.argv


def test_traced_cds_ops_count_their_lps(tmp_path):
    """The traced benchmark reads every LpProblem it counts (its boxes, its
    rows and their relations) in ``spans._tableau_cells``: the ``desk``
    proximity and rounding ops of one CDS case solve one LP each, and the
    tracer counts both and their tableau cells.  Each of the case's four
    ops, model or algorithm route, decodes its answer once (``cli.Route``),
    so ``models.decode`` counts one call per op."""
    cases, ops = workloads.desk(5, tmp_path, per_problem=1)
    case = next(c for c in cases if c.inst.problem == "cds")
    tracer = spans.Tracer()
    lps, decodes, cells = {}, {}, 0
    with tracer:
        for op in (o for o in ops if o.case == case.name):
            tracer.reset()
            assert run.call(tracer.main, op.argv)[0] == 0, op.argv
            metrics = tracer.layer_metrics()
            lps[op.route] = metrics["lp.in_algorithms.calls"]
            decodes[op.route] = metrics["models.decode.calls"]
            cells += metrics["lp.tableau_cells"]
    assert decodes == dict.fromkeys(("convex/boxed", "ilp/boxed", "proximity", "rounding"), 1)
    assert lps["proximity"] == lps["rounding"] == 1
    assert cells > 0
