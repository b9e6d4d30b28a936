import contextlib
import csv
import gc
import io
import os
import random
import subprocess
import sys

import pytest

import ndsolve
from ndsolve import cli, graphs
from ndsolve.algorithms import check_cds
from ndsolve.cli import COMMANDS, build_parser, main, parse_plain
from ndsolve.graphs import type_graph
from ndsolve.instances import Instance, generate_blowup, random_template, read_instance, write_instance
from ndsolve.models import decode_cds

from helpers import complete_graph, path_graph, star_graph


@pytest.fixture
def star_cds(tmp_path):
    path = tmp_path / "star.txt"
    write_instance(Instance(star_graph(3, capacity=[3, 0, 0, 0]), "cds"), path)
    return str(path)


@pytest.fixture
def p3_sumcol(tmp_path):
    path = tmp_path / "p3.txt"
    write_instance(Instance(path_graph(3), "sumcol"), path)
    return str(path)


@pytest.fixture(scope="module")
def clique_400():
    g = complete_graph(400, capacity=[1] * 400)
    return Instance(g, "cds"), type_graph(g)


@pytest.fixture
def k4_cut(tmp_path):
    path = tmp_path / "k4.txt"
    write_instance(Instance(complete_graph(4), "maxqcut", q=2), path)
    return str(path)


class TestNd:
    def test_prints_classes(self, star_cds, capsys):
        assert main(["nd", star_cds]) == 0
        out = capsys.readouterr().out
        assert "nd: 2" in out and "class 1" in out

    def test_missing_file(self, capsys):
        assert main(["nd", "no-such-file"]) == 3

    def test_out_of_memory_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        """A header far above its edges makes the neighborhoods allocate a
        slot per vertex; running out of memory there is exit 3, not a
        traceback.  The allocation is stood in for by a raising property."""
        path = tmp_path / "huge.txt"
        path.write_text("p sumcol 1000000000 1\ne 1 2\n")

        def out_of_memory(self):
            raise MemoryError

        monkeypatch.setattr(graphs.Graph, "neighbors", property(out_of_memory))
        assert main(["nd", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: out of memory")
        assert "Traceback" not in err


def run_module(*argv):
    """python -m ndsolve argv in a fresh interpreter, with this test run's
    ndsolve first on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndsolve.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "ndsolve", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


class TestEntryPoint:
    """python -m ndsolve runs __main__.py, which calls cli.main with no
    arguments, so that cli.main reads sys.argv[1:], and exits with its code."""

    def test_nd_prints_the_decomposition(self, star_cds, capsys):
        proc = run_module("nd", star_cds)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["nd", star_cds]) == 0
        assert proc.stdout == capsys.readouterr().out
        assert "nd: 2" in proc.stdout and "class 1" in proc.stdout

    def test_unknown_option_exits_3(self, star_cds):
        proc = run_module("solve", star_cds, "--bogus")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "unrecognized arguments: --bogus" in proc.stderr


class TestSolve:
    def test_cds_default_model(self, star_cds, capsys):
        assert main(["solve", star_cds]) == 0
        out = capsys.readouterr().out
        assert "value: 1" in out and "D={1}" in out

    def test_sumcol_nfold_backend(self, p3_sumcol, capsys):
        assert main(["solve", "--model", "nfold", "--backend", "nfold", p3_sumcol]) == 0
        assert "value: 4" in capsys.readouterr().out

    def test_sumcol_graver_augment(self, p3_sumcol, capsys):
        assert main(["solve", "--model", "graver", "--backend", "augment", p3_sumcol]) == 0
        assert "value: 4" in capsys.readouterr().out

    def test_maxqcut(self, k4_cut, capsys):
        assert main(["solve", k4_cut]) == 0
        assert "value: 4" in capsys.readouterr().out

    def test_proximity_matches_brute(self, star_cds, capsys):
        assert main(["solve", "--algo", "proximity", star_cds]) == 0
        first = capsys.readouterr().out
        assert main(["solve", "--algo", "brute", star_cds]) == 0
        second = capsys.readouterr().out
        assert "value: 1" in first and "value: 1" in second

    @pytest.mark.parametrize("model", ["convex", "ilp"])
    def test_undecodable_model_optimum_raises(self, star_cds, model, monkeypatch, capsys):
        # a cds model optimum always decodes, so a failure is an internal fault
        monkeypatch.setattr(cli, "decode_cds", lambda t, x: None)
        with pytest.raises(RuntimeError, match=rf"{model}/boxed returned an invalid dominating set for \[1, 0\]"):
            main(["solve", "--model", model, star_cds])
        assert "witness" not in capsys.readouterr().out

    def test_invalid_witness_raises(self, star_cds, monkeypatch):
        monkeypatch.setattr(cli, "check_cds", lambda g, sol: False)
        with pytest.raises(RuntimeError, match="proximity returned an invalid dominating set"):
            main(["solve", "--algo", "proximity", star_cds])

    def test_invalid_model_witness_raises(self, star_cds, monkeypatch, capsys):
        # a model route's witness is checked as an algorithm route's is
        monkeypatch.setattr(cli, "check_cds", lambda g, sol: False)
        with pytest.raises(RuntimeError, match="convex/boxed returned an invalid dominating set"):
            main(["solve", "--model", "convex", star_cds])
        assert "value" not in capsys.readouterr().out

    def test_wrong_partition_raises(self, k4_cut, monkeypatch, capsys):
        # every vertex in part 1 cuts no edge of K4, whose 2-cut is 4
        monkeypatch.setattr(cli, "decode_partition", lambda t, x: dict.fromkeys(range(4), 1))
        with pytest.raises(RuntimeError, match="quadratic/boxed witness is worth 0, not 4"):
            main(["solve", k4_cut])
        assert "witness" not in capsys.readouterr().out

    def test_costlier_colouring_raises(self, p3_sumcol, monkeypatch, capsys):
        # a proper colouring of the path 1-2-3 that costs 6, where the optimum is 4
        monkeypatch.setattr(cli, "decode_coloring", lambda t, g, x, tag: {0: 1, 1: 2, 2: 3})
        with pytest.raises(RuntimeError, match="graver/augment witness is worth 6, not 4"):
            main(["solve", p3_sumcol])
        assert "witness" not in capsys.readouterr().out

    @pytest.mark.parametrize("route", [["--algo", "proximity"], ["--model", "ilp"], []])
    def test_same_run_without_asserts(self, star_cds, route):
        """python -O drops every assert, so a check kept in one would vanish
        from the second run; both runs must print and exit the same."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ndsolve.__file__)))
        argv = ["-m", "ndsolve", "solve", "--no-timing", *route, star_cds]
        runs = [
            subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True,
                           env=env, timeout=60)
            for flags in ([], ["-O"])
        ]
        assert runs[0].returncode == 0 and "value: 1" in runs[0].stdout
        assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)

    def test_wrong_problem_flag(self, star_cds, capsys):
        assert main(["solve", "--problem", "sumcol", star_cds]) == 3

    def test_wrong_model_for_problem(self, star_cds):
        assert main(["solve", "--model", "nfold", star_cds]) == 3

    def test_search_deeper_than_the_recursion_limit_solves(self, tmp_path, capsys):
        """The n-fold model of a 1,100-vertex clique has a variable per
        brick, 1,100 of them, more than the interpreter's recursion limit:
        boxed keeps its own stack, so the search goes one level per variable
        and ends at the optimum 1 + 2 + ... + 1100."""
        n = 1100
        path = tmp_path / "clique.txt"
        edges = "".join(f"e {u} {v}\n" for u in range(1, n + 1) for v in range(u + 1, n + 1))
        path.write_text(f"p sumcol {n} {n * (n - 1) // 2}\n{edges}")
        argv = ["solve", "--model", "nfold", "--backend", "boxed", "--budget", "200000",
                "--no-timing", str(path)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err == ""
        assert lines[3] == f"value: {n * (n + 1) // 2}" == "value: 605550"
        assert lines[5] == "nodes: 1101 millis: 0"

    def test_budget_exit_code(self, p3_sumcol):
        assert main(["solve", "--model", "nfold", "--budget", "3", p3_sumcol]) == 2

    def test_budget_bounds_the_proximity_search(self, tmp_path, capsys):
        # a 4-vertex star of capacity 1: the box search needs more than its
        # root, so one node stops it, as it stops the ilp model's search
        path = tmp_path / "star.txt"
        write_instance(Instance(star_graph(3, capacity=[1] * 4), "cds"), path)
        assert main(["solve", "--algo", "proximity", "--no-timing", str(path)]) == 0
        capsys.readouterr()
        for route in (["--algo", "proximity"], ["--model", "ilp"]):
            assert main(["solve", *route, "--budget", "1", str(path)]) == 2
            assert capsys.readouterr().err == (
                "budget exhausted: branch-and-bound node budget exceeded\n")

    def test_q_is_rejected_off_maxqcut(self, p3_sumcol, star_cds, k4_cut, capsys):
        for path, problem in ((p3_sumcol, "sumcol"), (star_cds, "cds")):
            assert main(["solve", "--q", "5", path]) == 3
            assert capsys.readouterr().err == (
                f"input error: --q applies to maxqcut instances only, not {problem!r}\n")
        assert main(["solve", "--q", "4", "--no-timing", k4_cut]) == 0
        assert "value: 6\n" in capsys.readouterr().out  # K4 split into 4 parts cuts every edge

    @pytest.mark.parametrize("line, flag, budget", [
        pytest.param(["solve", "--model", "nfold", "--backend", "nfold"], "--budget", "0", id="0"),
        pytest.param(["solve", "--model", "nfold", "--backend", "nfold"], "--budget", "-1", id="-1"),
        pytest.param(["graver"], "--max-elements", "0", id="max-elements-0"),
        pytest.param(["graver"], "--max-elements", "-3", id="max-elements--3"),
    ])
    def test_budget_must_be_positive(self, p3_sumcol, capsys, line, flag, budget):
        assert main([*line, flag, budget, p3_sumcol]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {flag} must be positive, got {budget}\n"

    def test_csv_schema_and_rows(self, star_cds, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["solve", "--csv", str(out), "--no-timing", star_cds]) == 0
        assert main(["solve", "--csv", str(out), "--no-timing", star_cds]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "problem", "model", "backend", "value", "nodes", "millis"]
        assert len(rows) == 3  # header once, two data rows
        assert rows[1] == rows[2]

    def test_no_timing_deterministic_output(self, p3_sumcol, capsys):
        assert main(["solve", "--no-timing", p3_sumcol]) == 0
        first = capsys.readouterr().out
        assert main(["solve", "--no-timing", p3_sumcol]) == 0
        assert capsys.readouterr().out == first

    def test_parser_keeps_no_state_after_a_rejected_command_line(self, p3_sumcol, capsys):
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as err:
            main(["solve", "--budget", "3", "--model", "no-such-model", p3_sumcol])
        assert err.value.code == 3
        capsys.readouterr()
        assert main(["solve", "--no-timing", p3_sumcol]) == 0
        after_rejection = capsys.readouterr().out
        assert build_parser() is build_parser()
        build_parser.cache_clear()
        assert main(["solve", "--no-timing", p3_sumcol]) == 0
        assert capsys.readouterr().out == after_rejection


def _spelling(problem, name):
    """The route flags that name the route of ROUTES[problem] called name."""
    route = cli.ROUTES[problem][1][name]
    if route.kind == cli.MODEL:
        return ["--model", route.model, "--backend", route.method]
    return ["--algo", route.method]


ROUTE_NAMES = [(p, name) for p, (_, routes) in cli.ROUTES.items() for name in routes]


class TestRoutes:
    """Every way `ndsolve solve` answers is one entry of cli.ROUTES."""

    @pytest.fixture
    def files(self, star_cds, p3_sumcol, k4_cut):
        return {"cds": star_cds, "sumcol": p3_sumcol, "maxqcut": k4_cut}

    def test_defaults_and_oracles(self):
        assert [(p, default) for p, (default, _) in cli.ROUTES.items()] == [
            ("cds", "proximity"), ("sumcol", "graver/augment"), ("maxqcut", "quadratic/boxed")]
        for _, routes in cli.ROUTES.values():
            assert [name for name, r in routes.items() if r.kind == cli.ORACLE] == ["brute"]

    @pytest.mark.parametrize("problem, name", ROUTE_NAMES)
    def test_each_route_runs_by_its_spelling_and_prints_its_entry(self, files, problem, name):
        """The spelled route prints the file's sizes, then exactly the lines
        of its entry, then its nodes; the default spelling prints the same
        bytes as the default route's own spelling."""
        route = cli.ROUTES[problem][1][name]
        argv = ["solve", "--no-timing", *_spelling(problem, name), files[problem]]
        code, out, err = _run(argv)
        assert (code, err) == (0, "")
        stats = _run(["nd", files[problem]])[1].splitlines(keepends=True)[:2]
        inst = read_instance(files[problem])
        value, nodes, lines = route.solve(inst, type_graph(inst.graph))
        assert out == "".join(stats) + "".join(f"{line}\n" for line in lines) + f"nodes: {nodes} millis: 0\n"
        if name == cli.ROUTES[problem][0]:
            assert _run(["solve", "--no-timing", files[problem]]) == (0, out, "")

    @pytest.mark.parametrize("problem", list(cli.ROUTES))
    def test_verify_runs_every_route_but_the_oracle(self, files, problem):
        code, out, _ = _run(["verify", files[problem]])
        assert code == 0
        checked = [line.split(":")[0] for line in out.splitlines()[3:-1]]
        routes = cli.ROUTES[problem][1]
        assert checked == [name for name, r in routes.items() if r.kind != cli.ORACLE]

    @pytest.mark.parametrize("problem", list(cli.ROUTES))
    def test_bench_runs_every_model_route(self, problem):
        code, out, _ = _run(["bench", "--problem", problem, "--count", "2", "--no-timing", "--max-n", "5"])
        assert code == 0
        rows = [line.split(" ") for line in out.splitlines()]
        models = [[r.model, r.method] for r in cli.ROUTES[problem][1].values() if r.kind == cli.MODEL]
        assert [row[2:4] for row in rows] == models * 2

    @pytest.mark.parametrize("problem, flags, spelled", [
        ("sumcol", ["--algo", "proximity"], "proximity"),
        ("maxqcut", ["--algo", "rounding"], "rounding"),
        ("cds", ["--model", "nfold"], "nfold/*"),
        ("sumcol", ["--model", "nfold", "--backend", "augment"], "nfold/augment"),
        ("maxqcut", ["--backend", "augment"], "*/augment"),
    ])
    def test_a_route_outside_the_problem_is_an_input_error(self, files, problem, flags, spelled):
        code, out, err = _run(["solve", *flags, files[problem]])
        assert (code, out) == (3, _run(["nd", files[problem]])[1].split("class")[0])
        assert err == f"input error: route {spelled!r} does not fit problem {problem!r}\n"

    def test_no_op_leaves_cyclic_garbage(self, files):
        """Every route, every budget stop of a model route and the graver
        command free all they built by reference counting: the recursive
        closures drop their own cells when they return or raise."""
        runs = [["solve", *_spelling(p, name), files[p]] for p, name in ROUTE_NAMES]
        runs.append(["graver", "--stacking", files["sumcol"]])
        stops = [["solve", *_spelling(p, name), "--budget", "1", files[p]] for p, name in ROUTE_NAMES
                 if cli.ROUTES[p][1][name].kind == cli.MODEL and name != "graver/augment"]
        stops.append(["graver", "--max-elements", "1", files["sumcol"]])
        gc.collect()
        gc.disable()
        try:
            left = [(argv, _run(argv)[0], gc.collect()) for argv in runs + stops]
        finally:
            gc.enable()
        assert [code for _, code, _ in left] == [0] * len(runs) + [2] * len(stops)
        assert [(argv, garbage) for argv, _, garbage in left if garbage] == []

    @pytest.mark.parametrize("flags, route", [
        (["--model", "nfold"], "nfold/boxed"),
        (["--model", "graver"], "graver/boxed"),
        (["--backend", "nfold"], "nfold/nfold"),
        (["--backend", "boxed"], "nfold/boxed"),
        (["--backend", "augment"], "graver/augment"),
        (["--algo", "brute", "--model", "nfold"], "brute"),
    ])
    def test_partial_spellings_name_the_first_matching_route(self, p3_sumcol, flags, route):
        expected = _run(["solve", "--no-timing", *_spelling("sumcol", route), p3_sumcol])
        assert _run(["solve", "--no-timing", *flags, p3_sumcol]) == expected

    @pytest.mark.parametrize("name", [n for n, r in cli.ROUTES["cds"][1].items() if r.kind != cli.ORACLE])
    def test_cds_routes_need_no_recursion_on_a_clique(self, clique_400, name):
        # k = 1, 400 vertices of capacity 1: 200 dominate; matched to the
        # dominators themselves, the i-th outside vertex's augmenting path
        # would run through i of them, past the lowered limit
        inst, t = clique_400
        g = inst.graph
        route = cli.ROUTES["cds"][1][name]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            if route.kind == cli.MODEL:
                res = cli.SOLVERS[route.method](route.build(inst, t))
                value, x = res.value, res.point
            else:
                x = route.build(inst, t)[0]
                value = sum(x)
            sol = decode_cds(t, x)
        finally:
            sys.setrecursionlimit(limit)
        assert value == sol.size == 200 and check_cds(g, sol)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestVerify:
    def test_verify_ok(self, p3_sumcol, capsys):
        assert main(["verify", p3_sumcol]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_verify_cds(self, star_cds, capsys):
        assert main(["verify", star_cds]) == 0


class TestEmptyInstance:
    """The instance with no vertex: every route answers 0."""

    @pytest.fixture
    def empty(self, tmp_path):
        paths = {}
        for problem in cli.ROUTES:
            paths[problem] = str(tmp_path / f"{problem}.txt")
            q = 2 if problem == "maxqcut" else None
            graph = complete_graph(0, capacity=[] if problem == "cds" else None)
            write_instance(Instance(graph, problem, q), paths[problem])
        return paths

    @pytest.mark.parametrize("name", [name for name, r in cli.ROUTES["sumcol"][1].items()
                                      if r.kind == cli.MODEL])
    def test_every_sumcol_route_answers_zero(self, empty, name):
        code, out, err = _run(["solve", "--no-timing", *_spelling("sumcol", name), empty["sumcol"]])
        assert (code, err) == (0, "")
        assert "value: 0\nwitness: \n" in out

    @pytest.mark.parametrize("problem", list(cli.ROUTES))
    def test_verify_agrees_with_the_oracle(self, empty, problem):
        code, out, err = _run(["verify", empty[problem]])
        assert (code, err) == (0, "")
        assert "oracle: 0\n" in out and out.endswith("verdict: ok\n")


class TestGraver:
    def test_norms_reported(self, p3_sumcol, capsys):
        assert main(["graver", "--stacking", p3_sumcol]) == 0
        out = capsys.readouterr().out
        assert "g1(L)" in out and "holds" in out

    def test_max_elements_bounds_the_counter_basis(self, tmp_path):
        """--max-elements bounds the basis of the counter block L, an
        incidence matrix: |G(L)| finishes with the same lines, one less stops."""
        graph = generate_blowup(random_template(random.Random(6), max_k=3, max_n=10), seed=6)
        path = str(tmp_path / "blowup.txt")
        write_instance(Instance(graph, "sumcol"), path)
        code, out, err = _run(["graver", path])
        assert (code, err) == (0, "")
        assert "basis size 56" in out
        assert _run(["graver", "--max-elements", "56", path]) == (0, out, "")
        assert _run(["graver", "--max-elements", "55", path]) == (
            2, "", "budget exhausted: Graver basis budget exceeded\n")


class TestPairView:
    def test_sumcol_routes_and_graver_never_build_the_pair_view(self, tmp_path, monkeypatch, capsys):
        """Graph.edges is a view for the few readers that want pairs: every
        sum-coloring route of solve, and the graver command, read the runs
        and the neighbor tuples only, so the view is never built on them."""
        graph = generate_blowup(random_template(random.Random(3), max_k=3, max_n=10), seed=3)
        assert graph.m >= 10
        path = str(tmp_path / "blowup.txt")
        write_instance(Instance(graph, "sumcol"), path)
        built = []
        pairs = graphs.Graph.edges.func
        monkeypatch.setattr(graphs.Graph, "edges", property(lambda g: built.append(g) or pairs(g)))
        routes = [
            ["solve", "--model", route.model, "--backend", route.method, "--no-timing", path]
            for route in cli.ROUTES["sumcol"][1].values() if route.kind == cli.MODEL
        ]
        assert len(routes) == 5
        for argv in routes + [["graver", path]]:
            assert main(argv) == 0, argv
        assert built == []
        read_instance(path).graph.edges
        assert len(built) == 1  # the hook sees a read


class TestBench:
    def test_bench_deterministic(self, tmp_path, capsys):
        args = ["bench", "--problem", "sumcol", "--count", "2", "--seed", "5", "--no-timing"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        args = [
            "bench", "--problem", "cds", "--count", "2", "--seed", "1",
            "--csv", str(out), "--no-timing", "--max-n", "6",
        ]
        assert main(args) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "instance"
        assert len(rows) == 1 + 2 * 2  # two instances x two cds models

    @pytest.mark.parametrize("flags, message", [
        (["--count", "-1"], "--count must be non-negative, got -1"),
        (["--max-k", "0"], "max_k and max_n must be at least 1, got 0 and 8"),
        (["--max-n", "0"], "max_k and max_n must be at least 1, got 4 and 0"),
    ])
    def test_bench_rejects_bad_sizes(self, flags, message):
        code, out, err = _run(["bench", "--problem", "sumcol", *flags])
        assert (code, out, err) == (3, "", f"input error: {message}\n")

    def test_bench_keeps_to_max_n(self, tmp_path):
        args = ["bench", "--problem", "sumcol", "--count", "20", "--max-k", "4", "--max-n", "2",
                "--no-timing", "--out-dir", str(tmp_path)]
        assert _run(args)[0] == 0
        sizes = [read_instance(tmp_path / f"blowup-0-{i}.txt").graph.n for i in range(20)]
        assert 1 <= min(sizes) and max(sizes) <= 2

    def test_bench_survives_a_failing_route(self, monkeypatch, capsys):
        def broken(model, budget=None):
            raise RuntimeError("solver broke")

        monkeypatch.setitem(cli.SOLVERS, "nfold", broken)
        args = ["bench", "--problem", "sumcol", "--count", "2", "--seed", "5", "--no-timing"]
        assert main(args) == 3
        captured = capsys.readouterr()
        rows = [line.split(" ") for line in captured.out.splitlines()]
        assert len(rows) == 2 * 5  # two instances x five sumcol routes
        for row in rows:
            if row[3] == "nfold":
                assert row[4:6] == ["error", "-"]
            else:
                assert row[4].isdigit()
        assert captured.err.count("nfold/nfold: solver broke") == 2


# The help of `ndsolve -h` and of each `ndsolve COMMAND -h` at COLUMNS=80,
# byte for byte, as argparse printed it from the hand-written add_argument
# calls that the option table replaced (Python 3.11).
HELP = {
    None: """\
usage: ndsolve [-h] {nd,solve,verify,graver,bench} ...

positional arguments:
  {nd,solve,verify,graver,bench}
    nd                  print the twin-class decomposition
    solve               solve one instance
    verify              cross-check models against the oracle
    graver              Graver diagnostics for the stacked matrix
    bench               bulk seeded run

options:
  -h, --help            show this help message and exit
""",
    "nd": """\
usage: ndsolve nd [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "solve": """\
usage: ndsolve solve [-h] [--problem {cds,sumcol,maxqcut}]
                     [--model {convex,ilp,nfold,convexfd,graver,quadratic}]
                     [--backend {boxed,nfold,augment}]
                     [--algo {proximity,rounding,brute}] [--q Q]
                     [--budget BUDGET] [--csv CSV] [--no-timing]
                     file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --problem {cds,sumcol,maxqcut}
                        must match the file header
  --model {convex,ilp,nfold,convexfd,graver,quadratic}
  --backend {boxed,nfold,augment}
  --algo {proximity,rounding,brute}
  --q Q                 override part count (maxqcut)
  --budget BUDGET
  --csv CSV
  --no-timing
""",
    "verify": """\
usage: ndsolve verify [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
    "graver": """\
usage: ndsolve graver [-h] [--stacking] [--max-elements MAX_ELEMENTS] file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --stacking            also check the stacked matrix; a general completion on
                        F.G(L), which may not finish from k = 3 on
  --max-elements MAX_ELEMENTS
""",
    "bench": """\
usage: ndsolve bench [-h] --problem {cds,sumcol,maxqcut} [--count COUNT]
                     [--seed SEED] [--max-n MAX_N] [--max-k MAX_K] [--csv CSV]
                     [--out-dir OUT_DIR] [--no-timing]

options:
  -h, --help            show this help message and exit
  --problem {cds,sumcol,maxqcut}
  --count COUNT
  --seed SEED
  --max-n MAX_N
  --max-k MAX_K
  --csv CSV
  --out-dir OUT_DIR
  --no-timing
""",
}


def _run(argv):
    """(exit code, stdout, stderr) of main(argv), whether it returns or exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _usage(command):
    """The usage block that opens the pinned help of `command`."""
    return HELP[command].split("\n\n")[0] + "\n"


def _plain_line(rng, name, command):
    """A random plain line of `command`: its positionals and a random set of
    its options, each with a valid value, some options twice, in a random
    order."""
    groups = []
    for arg in command.args:
        option = arg.is_option
        if option and not arg.required and rng.random() < 0.5:
            continue
        for _ in range(rng.choice((1, 1, 2)) if option else 1):
            if arg.switch:
                value = ()
            elif arg.choices:
                value = (rng.choice(arg.choices),)
            elif arg.type is int:
                value = (str(rng.randint(0, 10**6)),)
            else:
                value = (rng.choice(("x.txt", "runs/out.csv", "a b", "", "0", "=")),)
            groups.append((arg.flag, *value) if option else value)
    rng.shuffle(groups)
    return [name] + [token for group in groups for token in group]


class TestCommandLine:
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_is_pinned(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["-h"] if command is None else [command, "-h"]
        assert parse_plain(argv) is None
        assert _run(argv) == (0, HELP[command], "")

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_plain_lines_parse_as_argparse_does(self, name):
        rng = random.Random(name)
        command = COMMANDS[name]
        used = set()
        for _ in range(300):
            argv = _plain_line(rng, name, command)
            args = parse_plain(argv)
            assert args is not None, argv
            assert args == build_parser().parse_args(argv), argv
            used.update(token for token in argv if token.startswith("--"))
        assert used == {arg.flag for arg in command.args if arg.is_option}

    @pytest.mark.parametrize("argv, field, value", [
        (["solve", "f.txt", "--mod", "ilp"], "model", "ilp"),
        (["solve", "f.txt", "--no-t"], "no_timing", True),
        (["solve", "f.txt", "--q=3"], "q", 3),
        (["graver", "--max-elements=7", "f.txt"], "max_elements", 7),
        (["nd", "--", "-f"], "file", "-f"),
        (["solve", "f.txt", "--budget", "-5"], "budget", -5),
        (["solve", "-3"], "file", "-3"),
        (["bench", "--prob", "cds", "--seed", "-1"], "seed", -1),
    ])
    def test_other_accepted_lines_are_left_to_argparse(self, argv, field, value):
        assert parse_plain(argv) is None
        assert getattr(build_parser().parse_args(argv), field) == value

    def test_abbreviated_line_runs(self, p3_sumcol, capsys):
        assert main(["solve", "--mod", "graver", "--back=augment", "--no-t", p3_sumcol]) == 0
        assert "value: 4" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, command, message", [
        ([], None, "ndsolve: error: the following arguments are required: command"),
        (["solve"], "solve", "ndsolve solve: error: the following arguments are required: file"),
        (["frob", "x"], None, "ndsolve: error: argument command: invalid choice: 'frob' "
                              "(choose from 'nd', 'solve', 'verify', 'graver', 'bench')"),
        (["solve", "f.txt", "--q"], "solve", "ndsolve solve: error: argument --q: expected one argument"),
        (["solve", "f.txt", "--budget", "-x"], "solve",
         "ndsolve solve: error: argument --budget: expected one argument"),
        (["solve", "f.txt", "--model", "nope"], "solve",
         "ndsolve solve: error: argument --model: invalid choice: 'nope' "
         "(choose from 'convex', 'ilp', 'nfold', 'convexfd', 'graver', 'quadratic')"),
        (["solve", "--mod", "nope", "f"], "solve",
         "ndsolve solve: error: argument --model: invalid choice: 'nope' "
         "(choose from 'convex', 'ilp', 'nfold', 'convexfd', 'graver', 'quadratic')"),
        (["solve", "f.txt", "--q", "x"], "solve", "ndsolve solve: error: argument --q: invalid int value: 'x'"),
        (["bench", "--count", "1.5", "--problem", "cds"], "bench",
         "ndsolve bench: error: argument --count: invalid int value: '1.5'"),
        (["graver", "f", "--max-elements=zz"], "graver",
         "ndsolve graver: error: argument --max-elements: invalid int value: 'zz'"),
        (["bench"], "bench", "ndsolve bench: error: the following arguments are required: --problem"),
        (["solve", "f.txt", "--bogus"], None, "ndsolve: error: unrecognized arguments: --bogus"),
        (["solve", "f.txt", "g.txt"], None, "ndsolve: error: unrecognized arguments: g.txt"),
    ])
    def test_rejected_lines_print_argparse_errors_and_exit_3(self, argv, command, message, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert parse_plain(argv) is None
        assert _run(argv) == (3, "", _usage(command) + message + "\n")
