"""Command-line entry points.

Subcommands:
  nd FILE        print the neighborhood-diversity decomposition
  solve FILE     build a model for the instance's problem and solve it
  verify FILE    solve with every applicable model/backend plus the
                 brute-force oracle and check they agree
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

# problem -> (default model, {model: (builder, backends)}).  Dict order is the
# order in which verify and bench run a problem's models.  The builders are
# lambdas so that each build_* name is looked up in this module at call time.
ROUTES = {
    "cds": ("ilp", {
        "convex": (lambda t, q: build_cds_convex(t), ("boxed",)),
        "ilp": (lambda t, q: build_cds_ilp(t), ("boxed",)),
    }),
    "sumcol": ("nfold", {
        "nfold": (lambda t, q: build_sumcol_nfold(t), ("boxed", "nfold")),
        "convexfd": (lambda t, q: build_sumcol_convex(t), ("boxed",)),
        "graver": (lambda t, q: build_sumcol_graver(t), ("boxed", "augment")),
    }),
    "maxqcut": ("quadratic", {
        "quadratic": (lambda t, q: build_maxqcut(t, q), ("boxed",)),
    }),
}
SOLVERS = {"boxed": solve_boxed, "nfold": solve_nfold, "augment": solve_augment}


def _print_stats(inst: Instance, t):
    g = inst.graph
    kinds = ", ".join(f"{w}x{kind}" for w, kind in zip(t.weights, t.kinds))
    print(f"instance: {inst.problem} n={g.n} m={g.m}")
    print(f"nd: {t.k} [{kinds}]")


def _witness(inst, t, res, model_tag):
    g = inst.graph
    if res.point is None:
        return "none"
    if inst.problem == "cds":
        sol = decode_cds(t, g, res.point)
        if sol is None:
            return "undecodable"
        dom = ",".join(str(v + 1) for v in sorted(sol.dominators))
        pairs = " ".join(f"{x + 1}->{y + 1}" for x, y in sol.assignment)
        return f"D={{{dom}}} {pairs}"
    if inst.problem == "sumcol":
        coloring = decode_coloring(t, g, res.point, model_tag)
        return " ".join(f"{v + 1}:{coloring[v]}" for v in range(g.n))
    partition = decode_partition(t, g, res.point)
    return " ".join(f"{v + 1}:{partition[v]}" for v in range(g.n))


def _csv_row(path, row):
    header = ["instance", "problem", "model", "backend", "value", "nodes", "millis"]
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(header)
        writer.writerow(row)


def _brute_value(inst: Instance):
    g = inst.graph
    if inst.problem == "cds":
        return cds_brute(g).size
    if inst.problem == "sumcol":
        return coloring_cost(sumcol_brute(g))
    return cut_value(g, maxqcut_brute(g, inst.q))


def cmd_nd(args) -> int:
    inst = read_instance(args.file)
    t = type_graph(inst.graph)
    _print_stats(inst, t)
    for i in range(t.k):
        members = ",".join(str(v + 1) for v in sorted(t.classes[i]))
        print(f"class {i + 1}: weight={t.weights[i]} kind={t.kinds[i]} vertices={{{members}}}")
    return OK


def run_solve(args) -> int:
    """Solve one instance; prints the report and appends a CSV row on request."""
    if args.budget is not None and args.budget <= 0:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    inst = read_instance(args.file)
    if args.problem and args.problem != inst.problem:
        print(f"file holds a {inst.problem!r} instance, not {args.problem!r}", file=sys.stderr)
        return INPUT_ERROR
    if args.q is not None:
        inst = Instance(inst.graph, inst.problem, args.q)
    g = inst.graph
    t = type_graph(g)
    _print_stats(inst, t)
    budget = Budget(max_nodes=args.budget, max_dp_states=args.budget) if args.budget else Budget()

    started = time.perf_counter()
    if args.algo:
        if inst.problem != "cds" and args.algo != "brute":
            print(f"algo {args.algo!r} applies to cds only", file=sys.stderr)
            return INPUT_ERROR
        label_model, label_backend = "-", args.algo
        if args.algo == "brute":
            value = _brute_value(inst)
            nodes = 0
            print(f"algo: brute value: {value}")
        else:
            solver = cds_proximity_solve if args.algo == "proximity" else cds_rounding_approx
            sol = solver(t, g)
            if not check_cds(g, sol):
                raise RuntimeError(f"{args.algo} returned an invalid dominating set")
            value, nodes = sol.size, 0
            dom = ",".join(str(v + 1) for v in sorted(sol.dominators))
            print(f"algo: {args.algo} value: {value} witness: D={{{dom}}}")
    else:
        default_model, routes = ROUTES[inst.problem]
        model_name = args.model or default_model
        if model_name not in routes:
            print(f"model {model_name!r} does not fit problem {inst.problem!r}", file=sys.stderr)
            return INPUT_ERROR
        build, backends = routes[model_name]
        backend = args.backend or "boxed"
        if backend not in backends:
            print(f"backend {backend!r} does not fit model {model_name!r}", file=sys.stderr)
            return INPUT_ERROR
        label_model, label_backend = model_name, backend
        model = build(t, inst.q)
        res = SOLVERS[backend](model, budget=budget)
        if res.status == "infeasible":
            print("infeasible")
            return INFEASIBLE
        value, nodes = res.value, res.nodes
        print(f"model: {inst.problem}/{model_name} backend: {backend}")
        print(f"value: {value}")
        print(f"witness: {_witness(inst, t, res, model.tag)}")
    millis = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
    print(f"nodes: {nodes} millis: {millis}")
    if args.csv:
        _csv_row(args.csv, [args.file, inst.problem, label_model, label_backend, value, nodes, millis])
    return OK


def cmd_verify(args) -> int:
    """Cross-check every applicable model/backend against the oracle."""
    inst = read_instance(args.file)
    g = inst.graph
    t = type_graph(g)
    _print_stats(inst, t)
    expected = _brute_value(inst)
    print(f"oracle: {expected}")
    ok = True
    for model_name, (build, backends) in ROUTES[inst.problem][1].items():
        model = build(t, inst.q)
        for backend in backends:
            res = SOLVERS[backend](model)
            agree = res.optimal and res.value == expected
            ok = ok and agree
            print(f"{model_name}/{backend}: {res.value} {'ok' if agree else 'MISMATCH'}")
    if inst.problem == "cds":
        for name, fn in (("proximity", cds_proximity_solve), ("rounding", cds_rounding_approx)):
            sol = fn(t, g)
            if name == "proximity":
                agree = sol.size == expected
            else:
                agree = 0 <= sol.size - expected <= t.k * t.k
            ok = ok and agree
            print(f"{name}: {sol.size} {'ok' if agree else 'MISMATCH'}")
    print("verdict:", "ok" if ok else "MISMATCH")
    return OK if ok else INFEASIBLE


def cmd_graver(args) -> int:
    """Norm diagnostics of the stacked sum-coloring matrix of the instance."""
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
    """Seeded bulk run; one CSV row per (instance, model, backend).

    Rows are emitted in instance order (solves could run in parallel, the
    report order would not change).  A route that raises ValueError,
    RuntimeError or BudgetError gets the value "error" and its message on
    stderr, the run goes on, and the exit code is INPUT_ERROR.
    """
    rng_master = random.Random(args.seed)
    rows = []
    failed = False
    for idx in range(args.count):
        template = random_template(
            rng_master,
            max_k=args.max_k,
            max_n=args.max_n,
            with_capacities=args.problem == "cds",
        )
        g = generate_blowup(template, seed=rng_master.randrange(2**30))
        q = 2 if args.problem == "maxqcut" else None
        inst = Instance(g, args.problem, q)
        t = type_graph(g)
        name = f"blowup-{args.seed}-{idx}"
        for model_name, (build, backends) in ROUTES[args.problem][1].items():
            model = None
            for backend in backends:
                started = time.perf_counter()
                try:
                    if model is None:
                        model = build(t, q)
                        started = time.perf_counter()
                    res = SOLVERS[backend](model)
                    value, nodes = res.value, res.nodes
                except (ValueError, RuntimeError, BudgetError) as exc:
                    print(f"{name} {model_name}/{backend}: {exc}", file=sys.stderr)
                    value, nodes, failed = "error", "-", True
                millis = 0 if args.no_timing else int((time.perf_counter() - started) * 1000)
                rows.append([name, args.problem, model_name, backend, value, nodes, millis])
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

# The one description of the command line.  build_parser() turns it into
# argparse parsers, and parse_plain() reads it directly.  The choices read
# only the keys of ROUTES and SOLVERS; commands look up builders and solvers
# in those tables when they run.
COMMANDS = {
    "nd": Command(cmd_nd, "print the twin-class decomposition", (FILE,)),
    "solve": Command(run_solve, "solve one instance", (
        FILE,
        Arg("--problem", choices=PROBLEMS, help="must match the file header"),
        Arg("--model", choices=tuple(m for _, routes in ROUTES.values() for m in routes)),
        Arg("--backend", choices=tuple(SOLVERS)),
        Arg("--algo", choices=("proximity", "rounding", "brute")),
        Arg("--q", type=int, help="override part count (maxqcut)"),
        Arg("--budget", type=int),
        Arg("--csv"),
        Arg("--no-timing", switch=True),
    )),
    "verify": Command(cmd_verify, "cross-check models against the oracle", (FILE,)),
    "graver": Command(cmd_graver, "Graver diagnostics for the stacked matrix", (
        FILE,
        Arg("--stacking", switch=True),
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
