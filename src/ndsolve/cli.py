"""Command-line entry points.

Subcommands:
  nd FILE        print the neighborhood-diversity decomposition
  solve FILE     answer the instance by one route of its problem (ROUTES)
  verify FILE    check every route of the problem against its oracle
  graver FILE    Graver diagnostics of the stacked sum-coloring matrix
  bench          generate seeded blow-up instances and solve them in bulk

Exit codes: 0 ok, 1 infeasible (or verify mismatch), 2 budget exhausted,
3 input error, including a rejected command line and an instance too
large for memory (such as a header whose vertex count is far above its
edges).  CSV reports use the fixed schema
instance,problem,model,backend,value,nodes,millis (header written once);
pass --no-timing to zero the millis column when byte-identical output
matters more than timing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from fnmatch import fnmatchcase

from .algorithms import (
    cds_brute,
    cds_proximity_solve,
    cds_rounding_approx,
    check_cds,
    coloring_cost,
    cut_value,
    maxqcut_brute,
    sumcol_brute,
)
from .backends import Budget, solve_augment, solve_boxed, solve_nfold
from .errors import BudgetError
from .graphs import type_graph
from .graver import g1_norm, graver_basis, stacking_check
from .instances import Instance, ParseError, generate_blowup, random_template, read_instance, write_instance
from .models import (
    build_catalog,
    build_cds_convex,
    build_cds_ilp,
    build_maxqcut,
    build_sumcol_convex,
    build_sumcol_graver,
    build_sumcol_nfold,
    decode_cds,
    decode_coloring,
    decode_partition,
    split_stacked_blocks,
)

OK, INFEASIBLE, BUDGET, INPUT_ERROR = 0, 1, 2, 3
MODEL, ALGORITHM, ORACLE = "model", "algorithm", "oracle"
SOLVERS = {"boxed": solve_boxed, "nfold": solve_nfold, "augment": solve_augment}


def _read(path, problem=None):
    """The instance in the file and its type graph, whose sizes are printed;
    a problem given must be the file's."""
    inst = read_instance(path)
    if problem and problem != inst.problem:
        raise ValueError(f"file holds a {inst.problem!r} instance, not {problem!r}")
    t = type_graph(inst.graph)
    kinds = ", ".join(f"{w}x{kind}" for w, kind in zip(t.weights, t.kinds))
    print(f"instance: {inst.problem} n={inst.graph.n} m={inst.graph.m}")
    print(f"nd: {t.k} [{kinds}]")
    return inst, t


def _dominators(sol):
    return "D={" + ",".join(str(v + 1) for v in sorted(sol.dominators)) + "}"


@dataclass(frozen=True)
class Route:
    """One way to answer a problem.  ``build(inst, t)`` makes the model of a
    MODEL route, which the backend ``SOLVERS[method]`` solves, or runs the
    ORACLE (brute force); ``build(inst, t, budget)`` runs an ALGORITHM (a
    dominating set from the type graph) under the budget.  ``model`` and
    ``method`` fill a CSV row's model and backend columns.  Every model
    minimizes, so a problem that maximizes is modelled by its negation and
    its route's ``sign`` of -1 turns the model's value back into the answer.
    An answer is at most ``gap(t)`` above the optimum."""

    kind: str
    model: str
    method: str
    build: Callable
    gap: Callable = lambda t: 0
    sign: int = 1

    def solve(self, inst, t, budget=None):
        """(value, nodes, the report lines of `ndsolve solve`); the value is
        None on an infeasible model, whose witness is decoded only when the
        lines are iterated."""
        if self.kind == MODEL:
            model = self.build(inst, t)
            res = SOLVERS[self.method](model, budget=budget)
            if not res.optimal:
                return None, res.nodes, ["infeasible"]
            value = self.sign * res.value
            return value, res.nodes, self._report(inst, t, model, res.point, value)
        if self.kind == ORACLE:
            found = self.build(inst, t)
            return found, 0, [f"algo: {self.method} value: {found}"]
        found = self.build(inst, t, budget)
        if not check_cds(inst.graph, found):
            raise RuntimeError(f"{self.method} returned an invalid dominating set")
        return found.size, 0, [f"algo: {self.method} value: {found.size} witness: {_dominators(found)}"]

    def _report(self, inst, t, model, x, value):
        yield f"model: {inst.problem}/{self.model} backend: {self.method}"
        yield f"value: {value}"
        g = inst.graph
        if inst.problem != "cds":
            sumcol = inst.problem == "sumcol"
            labels = decode_coloring(t, g, x, model.tag) if sumcol else decode_partition(t, g, x)
            yield "witness: " + " ".join(f"{v + 1}:{labels[v]}" for v in range(g.n))
        elif (sol := decode_cds(t, g, x)) is None:
            # a point of either cds model meets the Hall conditions, so it decodes
            raise RuntimeError(f"{self.model}/{self.method} optimum {list(x[:t.k])} does not decode")
        else:
            pairs = " ".join(f"{a + 1}->{b + 1}" for a, b in sol.assignment)
            yield f"witness: {_dominators(sol)} {pairs}"


def _table(default, *routes):
    """A model route is named "model/backend", any other by its method."""
    return default, {f"{r.model}/{r.method}" if r.kind == MODEL else r.method: r for r in routes}


# problem -> (default route name, {name: route}), in the order in which
# verify and bench run the routes: every way `ndsolve solve` answers.  The
# builds are lambdas so that each name they call is looked up at call time.
ROUTES = {
    "cds": _table(
        "proximity",
        Route(MODEL, "convex", "boxed", lambda inst, t: build_cds_convex(t)),
        Route(MODEL, "ilp", "boxed", lambda inst, t: build_cds_ilp(t)),
        Route(ALGORITHM, "-", "proximity",
              lambda inst, t, budget=None: cds_proximity_solve(t, inst.graph, budget)),
        Route(ALGORITHM, "-", "rounding",
              lambda inst, t, budget=None: cds_rounding_approx(t, inst.graph),
              gap=lambda t: t.k * t.k),
        Route(ORACLE, "-", "brute", lambda inst, t: cds_brute(inst.graph).size),
    ),
    "sumcol": _table(
        "graver/augment",
        Route(MODEL, "nfold", "boxed", lambda inst, t: build_sumcol_nfold(t)),
        Route(MODEL, "nfold", "nfold", lambda inst, t: build_sumcol_nfold(t)),
        Route(MODEL, "convexfd", "boxed", lambda inst, t: build_sumcol_convex(t)),
        Route(MODEL, "graver", "boxed", lambda inst, t: build_sumcol_graver(t)),
        Route(MODEL, "graver", "augment", lambda inst, t: build_sumcol_graver(t)),
        Route(ORACLE, "-", "brute", lambda inst, t: coloring_cost(sumcol_brute(inst.graph))),
    ),
    "maxqcut": _table(
        "quadratic/boxed",
        Route(MODEL, "quadratic", "boxed", lambda inst, t: build_maxqcut(t, inst.q), sign=-1),
        Route(ORACLE, "-", "brute",
              lambda inst, t: cut_value(inst.graph, maxqcut_brute(inst.graph, inst.q))),
    ),
}


def _route(args, problem) -> Route:
    """The problem's first route whose name the line spells: ``--algo X``
    spells X; ``--model M``/``--backend B`` spell "M/B", "*" for a half not
    given (a model alone runs on boxed, its first backend); none, the default."""
    default, routes = ROUTES[problem]
    spelled = args.algo or (args.model or args.backend) and f"{args.model or '*'}/{args.backend or '*'}"
    for name, route in routes.items():
        if fnmatchcase(name, spelled or default):
            return route
    raise ValueError(f"route {spelled!r} does not fit problem {problem!r}")


def _csv_row(path, row):
    header = ["instance", "problem", "model", "backend", "value", "nodes", "millis"]
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerow(row)


def cmd_nd(args) -> int:
    t = _read(args.file)[1]
    for i in range(t.k):
        members = ",".join(str(v + 1) for v in sorted(t.classes[i]))
        print(f"class {i + 1}: weight={t.weights[i]} kind={t.kinds[i]} vertices={{{members}}}")
    return OK


def run_solve(args) -> int:
    """Solve one instance; prints the report and appends a CSV row on request."""
    if args.budget is not None and args.budget <= 0:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    inst, t = _read(args.file, args.problem)
    if args.q is not None:
        if inst.problem != "maxqcut":
            raise ValueError(f"--q applies to maxqcut instances only, not {inst.problem!r}")
        inst = Instance(inst.graph, inst.problem, args.q)
    route = _route(args, inst.problem)
    budget = Budget(max_nodes=args.budget, max_dp_states=args.budget) if args.budget else Budget()

    started = time.perf_counter()
    value, nodes, report = route.solve(inst, t, budget=budget)
    for line in report:
        print(line)
    if value is None:
        return INFEASIBLE
    millis = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
    print(f"nodes: {nodes} millis: {millis}")
    if args.csv:
        _csv_row(args.csv, [args.file, inst.problem, route.model, route.method, value, nodes, millis])
    return OK


def cmd_verify(args) -> int:
    """Cross-check every route but the oracle against the oracle."""
    inst, t = _read(args.file)
    routes = ROUTES[inst.problem][1]
    expected = routes["brute"].solve(inst, t)[0]
    print(f"oracle: {expected}")
    ok = True
    for name, route in routes.items():
        if route.kind != ORACLE:
            value = route.solve(inst, t)[0]
            agree = value is not None and 0 <= value - expected <= route.gap(t)
            ok = ok and agree
            print(f"{name}: {value} {'ok' if agree else 'MISMATCH'}")
    print("verdict:", "ok" if ok else "MISMATCH")
    return OK if ok else INFEASIBLE


def cmd_graver(args) -> int:
    """Norm diagnostics of the stacked sum-coloring matrix of the instance."""
    if args.max_elements <= 0:
        raise ValueError(f"--max-elements must be positive, got {args.max_elements}")
    inst = read_instance(args.file)
    t = type_graph(inst.graph)
    model = build_sumcol_graver(t)
    cat = build_catalog(t)
    f_block, l_block = split_stacked_blocks(model)
    basis = graver_basis(l_block, max_elements=args.max_elements)
    nx = cat.size
    g1 = g1_norm(basis)
    xmax = max((sum(abs(v) for v in g[:nx]) for g in basis.elements), default=0)
    print(f"critical sizes: {list(cat.gamma)}")
    print(f"lower block: {l_block.m} rows, {l_block.n} cols, basis size {len(basis)}")
    print(f"g1(L) = {g1} (bound {len(cat.gamma) + 1})")
    print(f"max l1 of x-part = {xmax} (bound 2)")
    if args.stacking:
        rep = stacking_check(f_block, l_block, max_elements=args.max_elements)
        print(
            f"stacking: g1(stack)={rep.g1_stack} bound={rep.bound} "
            f"({'holds' if rep.holds else 'VIOLATED'})"
        )
    return OK


def cmd_bench(args) -> int:
    """Seeded bulk run; one CSV row per (instance, model route), build timed.

    Rows are emitted in instance order (solves could run in parallel, the
    report order would not change).  A route that raises ValueError,
    RuntimeError or BudgetError gets the value "error" and its message on
    stderr, the run goes on, and the exit code is INPUT_ERROR.
    """
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    rng_master = random.Random(args.seed)
    rows = []
    failed = False
    for idx in range(args.count):
        template = random_template(rng_master, max_k=args.max_k, max_n=args.max_n,
                                   with_capacities=args.problem == "cds")
        g = generate_blowup(template, seed=rng_master.randrange(2**30))
        inst = Instance(g, args.problem, 2 if args.problem == "maxqcut" else None)
        t = type_graph(g)
        name = f"blowup-{args.seed}-{idx}"
        for route_name, route in ROUTES[args.problem][1].items():
            if route.kind != MODEL:
                continue
            started = time.perf_counter()
            try:
                value, nodes, _ = route.solve(inst, t)
            except (ValueError, RuntimeError, BudgetError) as exc:
                print(f"{name} {route_name}: {exc}", file=sys.stderr)
                value, nodes, failed = "error", "-", True
            millis = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
            rows.append([name, args.problem, route.model, route.method, value, nodes, millis])
        if args.out_dir:
            write_instance(inst, os.path.join(args.out_dir, f"{name}.txt"))
    for row in rows:
        if args.csv:
            _csv_row(args.csv, row)
        print(" ".join(str(x) for x in row))
    return INPUT_ERROR if failed else OK


@dataclass(frozen=True)
class Arg:
    """One argument of a command: a positional when ``flag`` has no leading
    dash, else an option that takes one value, or none when it is a switch."""

    flag: str
    type: Callable = str
    choices: tuple | None = None
    default: object = None
    required: bool = False
    switch: bool = False
    help: str | None = None

    @property
    def is_option(self):
        return self.flag.startswith("-")

    @property
    def dest(self):
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Command:
    """A command: what runs it, its help line and its arguments in order."""

    run: Callable
    help: str
    args: tuple


PROBLEMS = tuple(ROUTES)
FILE = Arg("file")
_ROUTES = [r for _, routes in ROUTES.values() for r in routes.values()]

# The one description of the command line.  build_parser() turns it into
# argparse parsers, and parse_plain() reads it directly.  The choices are
# the names in ROUTES; commands look up routes and solvers when they run.
COMMANDS = {
    "nd": Command(cmd_nd, "print the twin-class decomposition", (FILE,)),
    "solve": Command(run_solve, "solve one instance", (
        FILE,
        Arg("--problem", choices=PROBLEMS, help="must match the file header"),
        Arg("--model", choices=tuple(dict.fromkeys(r.model for r in _ROUTES if r.kind == MODEL))),
        Arg("--backend", choices=tuple(dict.fromkeys(r.method for r in _ROUTES if r.kind == MODEL))),
        Arg("--algo", choices=tuple(dict.fromkeys(r.method for r in _ROUTES if r.kind != MODEL))),
        Arg("--q", type=int, help="override part count (maxqcut)"),
        Arg("--budget", type=int),
        Arg("--csv"),
        Arg("--no-timing", switch=True),
    )),
    "verify": Command(cmd_verify, "cross-check models against the oracle", (FILE,)),
    "graver": Command(cmd_graver, "Graver diagnostics for the stacked matrix", (
        FILE,
        Arg("--stacking", switch=True, help="also check the stacked matrix; a general completion "
            "on F.G(L), which may not finish from k = 3 on"),
        Arg("--max-elements", type=int, default=200_000),
    )),
    "bench": Command(cmd_bench, "bulk seeded run", (
        Arg("--problem", choices=PROBLEMS, required=True),
        Arg("--count", type=int, default=10),
        Arg("--seed", type=int, default=0),
        Arg("--max-n", type=int, default=8),
        Arg("--max-k", type=int, default=4),
        Arg("--csv"),
        Arg("--out-dir"),
        Arg("--no-timing", switch=True),
    )),
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits with INPUT_ERROR on a rejected command line, so
    that it is not taken for a budget stop; usage and message are argparse's."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argparse parser of COMMANDS, built once per process."""
    parser = _Parser(prog="ndsolve")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            if arg.switch:
                p.add_argument(arg.flag, action="store_true", help=arg.help)
            elif arg.is_option:
                p.add_argument(arg.flag, type=arg.type, choices=arg.choices, default=arg.default,
                               required=arg.required, help=arg.help)
            else:
                p.add_argument(arg.flag, type=arg.type, choices=arg.choices, help=arg.help)
    return parser


def _plain_forms():
    """command -> (its options by flag, its positionals, the dests a line
    must give, the defaults of the rest): what parse_plain looks up."""
    forms = {}
    for name, command in COMMANDS.items():
        options = {a.flag: a for a in command.args if a.is_option}
        positionals = tuple(a for a in command.args if not a.is_option)
        needed = tuple(a.dest for a in command.args if a.required or not a.is_option)
        defaults = {
            a.dest: False if a.switch else a.default
            for a in options.values() if not a.required
        }
        forms[name] = (options, positionals, needed, defaults)
    return forms


_PLAIN_FORMS = _plain_forms()


def parse_plain(argv):
    """The Namespace build_parser() makes of a plain command line, else None.

    A plain line is a command of COMMANDS, then its arguments in any order:
    options spelled exactly, each value option followed by one value that
    does not start with "-" and passes the option's type and choices, every
    positional and every required option given.  A repeated option keeps
    its last value, as in argparse.  Any other line (help, abbreviations,
    "--opt=value", "--", values starting with "-", every line argparse
    rejects) gets None, and is left to argparse.
    """
    form = _PLAIN_FORMS.get(argv[0]) if argv else None
    if form is None:
        return None
    options, positionals, needed, defaults = form
    values = dict(defaults)
    given = 0
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if given == len(positionals):
                return None
            arg = positionals[given]
            given += 1
        else:
            arg = options.get(token)
            if arg is None:
                return None
            if arg.switch:
                values[arg.dest] = True
                continue
            token = next(tokens, None)
            if token is None or token[:1] == "-":
                return None
        try:
            value = arg.type(token)
        except (TypeError, ValueError):
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
    if not all(map(values.__contains__, needed)):
        return None
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return BUDGET
    except MemoryError:
        print("input error: out of memory: the instance is too large to hold", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
