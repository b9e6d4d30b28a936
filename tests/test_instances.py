import ast
import hashlib
import os
import random
import subprocess
import sys

import pytest

import ndsolve
from ndsolve.graphs import CLIQUE, INDEPENDENT, Graph, twin_partition
from ndsolve.instances import (
    BlowupTemplate,
    Instance,
    ParseError,
    format_instance,
    generate_blowup,
    parse_instance,
    random_template,
    read_instance,
    write_instance,
)

from helpers import complete_graph, random_graph, reference_parse, star_graph


CDS_TEXT = """p cds 4 3
c 1 3
c 2 0
c 3 0
c 4 0
e 1 2
e 1 3
e 1 4
"""


class TestParsing:
    def test_cds_roundtrip_bytes(self):
        inst = parse_instance(CDS_TEXT)
        assert inst.problem == "cds"
        assert inst.graph.capacity == (3, 0, 0, 0)
        assert format_instance(inst) == CDS_TEXT

    def test_empty_edge_set(self):
        inst = parse_instance("p sumcol 3 0\n")
        assert inst.graph.n == 3 and inst.graph.m == 0

    def test_maxqcut_q_line(self):
        inst = parse_instance("p maxqcut 2 1\ne 1 2\nq 3\n")
        assert inst.q == 3

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p sumcol 3 2\ne 1 2\ne 1 2\n")
        assert err.value.line_no == 3

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p sumcol 3 2\ne 1 3\ne 1 2\n")

    def test_unknown_problem(self):
        with pytest.raises(ParseError):
            parse_instance("p tsp 3 0\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p sumcol 1 0\nhello\n")
        assert err.value.line_no == 2

    def test_capacity_lines_must_be_in_order(self):
        with pytest.raises(ParseError):
            parse_instance("p cds 2 0\nc 2 1\nc 1 1\n")

    def test_loop_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p sumcol 2 1\ne 1 1\n")

    def test_missing_q_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("p maxqcut 2 0\n")

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("", 1, "empty file"),
            ("p sumcol 3\n", 1, "expected header 'p <problem> <n> <m>'"),
            ("x sumcol 3 0\n", 1, "expected header 'p <problem> <n> <m>'"),
            ("p tsp 3 0\n", 1, "unknown problem 'tsp'"),
            ("p sumcol three 0\n", 1, "bad vertex count: 'three'"),
            ("p sumcol 3 1.5\n", 1, "bad edge count: '1.5'"),
            ("p sumcol -1 0\n", 1, "negative counts"),
            ("p sumcol 3 -2\n", 1, "negative counts"),
            ("p cds 2 0\nc 1 1\n", 3, "unexpected end of file, wanted a 'c' line"),
            ("p cds 1 0\nc 1\n", 2, "expected 'c' line with 3 fields"),
            ("p cds 1 0\nx 1 1\n", 2, "expected 'c' line with 3 fields"),
            ("p cds 1 0\nc one 1\n", 2, "bad vertex: 'one'"),
            ("p cds 2 0\nc 2 1\nc 1 1\n", 2, "capacity lines must cover vertices in order; wanted 1"),
            ("p cds 1 0\nc 1 x\n", 2, "bad capacity: 'x'"),
            ("p cds 1 0\nc 1 -1\n", 2, "negative capacity"),
            ("p sumcol 3 2\ne 1 2\n", 3, "unexpected end of file, wanted a 'e' line"),
            ("p sumcol 3 1\n", 2, "unexpected end of file, wanted a 'e' line"),
            ("p sumcol 3 1\nf 1 2\n", 2, "expected 'e' line with 3 fields"),
            ("p sumcol 3 1\ne 1 2 3\n", 2, "expected 'e' line with 3 fields"),
            ("p sumcol 3 1\ne 1\n", 2, "expected 'e' line with 3 fields"),
            ("p sumcol 3 1\ne  1 2\n", 2, "expected 'e' line with 3 fields"),
            ("p sumcol 3 2\ne 1 2\ne x 3\n", 3, "bad endpoint: 'x'"),
            ("p sumcol 3 1\ne 1 2.0\n", 2, "bad endpoint: '2.0'"),
            ("p sumcol 3 1\ne a b\n", 2, "bad endpoint: 'a'"),
            ("p sumcol 3 1\ne 2 1\n", 2, "edge (2,1) not sorted or out of range"),
            ("p sumcol 3 1\ne 1 1\n", 2, "edge (1,1) not sorted or out of range"),
            ("p sumcol 3 1\ne 0 1\n", 2, "edge (0,1) not sorted or out of range"),
            ("p sumcol 3 1\ne 2 4\n", 2, "edge (2,4) not sorted or out of range"),
            ("p sumcol 3 2\ne 1 3\ne 1 2\n", 3, "edges must be strictly sorted (duplicates forbidden)"),
            ("p sumcol 3 2\ne 1 2\ne 1 2\n", 3, "edges must be strictly sorted (duplicates forbidden)"),
            ("p maxqcut 2 0\n", 2, "unexpected end of file, wanted a 'q' line"),
            ("p maxqcut 2 0\nq\n", 2, "expected 'q' line with 2 fields"),
            ("p maxqcut 2 0\nq two\n", 2, "bad part count: 'two'"),
            ("p maxqcut 2 0\nq 1\n", 2, "need at least two parts"),
            ("p sumcol 1 0\nhello\n", 2, "unexpected trailing line 'hello'"),
            ("p sumcol 2 1\ne 1 2\ne 1 2\n", 3, "unexpected trailing line 'e 1 2'"),
            ("p sumcol 3 1\ne +1 2\n", 2, "non-canonical endpoint: '+1'"),
            ("p sumcol 3 1\ne 1 0_3\n", 2, "non-canonical endpoint: '0_3'"),
            ("p sumcol 3 2\ne 1 2\ne 1 03\n", 3, "non-canonical endpoint: '03'"),
            ("p sumcol 3 1\ne 1 2\t\n", 2, "non-canonical endpoint: '2\\t'"),
            ("p sumcol 3 1\ne 1 ٢\n", 2, "non-canonical endpoint: '٢'"),
            ("p sumcol 03 0\n", 1, "non-canonical vertex count: '03'"),
            ("p sumcol -0 0\n", 1, "non-canonical vertex count: '-0'"),
            ("p sumcol 2 +0\n", 1, "non-canonical edge count: '+0'"),
            ("p cds 1 0\nc 1 -0\n", 2, "non-canonical capacity: '-0'"),
            ("p cds 1 0\nc １ 1\n", 2, "non-canonical vertex: '１'"),
            ("p maxqcut 2 0\nq 0_2\n", 2, "non-canonical part count: '0_2'"),
            ("p sumcol 3 1\r\ne 1 2\r\n", 1, "bad line break '\\r'"),
            ("p sumcol 3 1\ne 1 2\r\n", 2, "bad line break '\\r'"),
            ("p sumcol 3 1\ne 1 2", 2, "missing final newline"),
            ("p sumcol 1 0", 1, "missing final newline"),
            ("p sumcol 3 1\ne 1 2\n\n", 3, "unexpected trailing line ''"),
            ("p sumcol 3 1\ne 1 2\x0b", 2, "bad line break '\\x0b'"),
            ("p sumcol 3 1\x0ce 1 2\n", 1, "bad line break '\\x0c'"),
            ("p sumcol 3 1\ne 1 2\n\x1c", 3, "bad line break '\\x1c'"),
            ("p sumcol 3 1\ne 1 2\x1d\n", 2, "bad line break '\\x1d'"),
            ("p sumcol 3 1\ne 1 2\x1e\n", 2, "bad line break '\\x1e'"),
            ("p sumcol 3 1\x85e 1 2\n", 1, "bad line break '\\x85'"),
            ("p sumcol 3 1\ne 1 2\u2028\n", 2, "bad line break '\\u2028'"),
            ("p sumcol 3 1\ne 1 2\u2029\n", 2, "bad line break '\\u2029'"),
            (b"p sumcol 3 1\ne 1 \xd9\xa2\n", 2, "non-ASCII byte 0xd9"),
            (b"p cds 1 0\nc 1 \xef\xbc\x91\n", 2, "non-ASCII byte 0xef"),
            (b"\x80", 1, "non-ASCII byte 0x80"),
        ],
    )
    def test_error_line_and_message(self, tmp_path, text, line_no, message):
        """Text goes through parse_instance and, when it is ASCII, through
        read_instance as a file of the same bytes; bytes only as a file."""
        expected = f"line {line_no}: {message}"
        if isinstance(text, str):
            with pytest.raises(ParseError) as err:
                parse_instance(text)
            assert err.value.line_no == line_no
            assert str(err.value) == expected
            if not text.isascii():
                return  # as a file, its first non-ASCII byte is the error
            text = text.encode("ascii")
        path = tmp_path / "instance"
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            read_instance(path)
        assert err.value.line_no == line_no
        assert str(err.value) == expected

    @pytest.mark.parametrize("problem", ["cds", "sumcol", "maxqcut"])
    @pytest.mark.parametrize("seed", range(10))
    def test_blowup_text_roundtrip(self, problem, seed):
        rng = random.Random(seed)
        template = random_template(rng, max_k=4, max_n=12, with_capacities=problem == "cds")
        graph = generate_blowup(template, seed=seed)
        text = format_instance(Instance(graph, problem, 3 if problem == "maxqcut" else None))
        inst = parse_instance(text)
        assert inst.graph == graph
        assert format_instance(inst) == text

    @pytest.mark.parametrize("problem", ["cds", "sumcol", "maxqcut"])
    @pytest.mark.parametrize("seed", range(10))
    def test_parsed_graph_equals_from_edges(self, problem, seed):
        """The parser, Graph(n, pairs), Graph.from_edges and Graph.from_runs
        build one graph from one edge set: equal in ==, hash, edges, m,
        neighbors and adj, with the neighborhoods of the pairs' definition.
        Covered: a blow-up, the same with isolated vertices after it, an
        edgeless graph, and a sparse graph whose labels run above the edge
        block's token count, so that its block is read line by line."""
        rng = random.Random(seed)
        cap = problem == "cds"
        template = random_template(rng, max_k=4, max_n=12, with_capacities=cap)
        blowup = generate_blowup(template, seed=seed)
        n = 30
        pairs = {(0, n - 1)} | {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2)}
        sparse = Graph.from_edges(n, pairs)
        assert max(v for _, v in sparse.edges) + 1 > 3 * sparse.m
        isolated = Graph(blowup.n + 3, blowup.edges)
        for graph in (blowup, isolated, Graph(rng.randint(0, 4), ()), sparse):
            capacity = [rng.randint(0, 3) for _ in range(graph.n)] if cap else None
            edges = sorted(graph.edges)
            text = format_instance(Instance(Graph(graph.n, edges, capacity), problem,
                                            3 if problem == "maxqcut" else None))
            heads = sorted({u for u, _ in edges})
            runs = [[v for u, v in edges if u == h] for h in heads]
            flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            built = [
                parse_instance(text).graph,
                Graph(graph.n, edges, capacity),
                Graph.from_edges(graph.n, flipped + flipped[:2], capacity),
                Graph.from_runs(graph.n, heads, runs, capacity),
            ]
            nbrs = tuple(
                tuple(sorted([v for u, v in edges if u == w] + [u for u, v in edges if v == w]))
                for w in range(graph.n)
            )
            for g in built:
                assert g == built[0] and hash(g) == hash(built[0])
                assert g.edges == tuple(edges) and g.m == len(edges)
                assert (g.heads, g.runs) == (tuple(heads), tuple(map(tuple, runs)))
                assert g.neighbors == nbrs
                assert g.adj == tuple(map(frozenset, nbrs))

    @pytest.mark.parametrize("problem", ["cds", "sumcol", "maxqcut"])
    def test_mutated_edge_blocks(self, problem):
        """Each mutated text writes back byte for byte, or fails on the line
        and with the message of the line-by-line reference parser."""
        outcomes = {"accepted": 0, "rejected": 0}
        for seed in range(150):
            rng = random.Random(seed)
            text = _blowup_text(rng, problem)
            for _ in range(3):
                mutated = _mutate_edge_block(rng, text)
                try:
                    expected = reference_parse(mutated)
                except ParseError as err:
                    expected = err
                try:
                    inst = parse_instance(mutated)
                except ParseError as err:
                    assert isinstance(expected, ParseError), mutated
                    assert (err.line_no, str(err)) == (expected.line_no, str(expected)), mutated
                    outcomes["rejected"] += 1
                else:
                    assert inst == expected, mutated
                    assert format_instance(inst) == mutated
                    outcomes["accepted"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_reference_parser_reads_blowups(self):
        for problem in ("cds", "sumcol", "maxqcut"):
            for seed in range(20):
                text = _blowup_text(random.Random(seed), problem)
                assert reference_parse(text) == parse_instance(text)

    def test_vertex_count_far_above_the_edges(self):
        # labels past the edge block's token count take the line-by-line path;
        # the parse and the write-back run in a child process whose address
        # space is capped, so work or memory per header vertex fails the test
        text = "p sumcol 1000000000000 2\ne 1 7\ne 5 999999999999\n"
        edges, written = run_capped(
            "from ndsolve.instances import format_instance, parse_instance\n"
            f"inst = parse_instance({text!r})\n"
            "print(repr((inst.graph.edges, format_instance(inst))))\n"
        )
        assert edges == ((0, 6), (4, 999999999998))
        assert written == text

    def test_parse_is_linear_in_the_edges(self):
        # labels within the edge block's token count take the bulk path; the
        # parse, the edge count, the pair view and the write-back run in a
        # child process whose address space is capped, so work or memory
        # per header vertex fails the test
        text = "p sumcol 1000000000 1\ne 1 2\n"
        m, edges, written = run_capped(
            "from ndsolve.instances import format_instance, parse_instance\n"
            f"inst = parse_instance({text!r})\n"
            "g = inst.graph\n"
            "print(repr((g.m, g.edges, format_instance(inst))))\n"
        )
        assert (m, edges) == (1, ((0, 1),))
        assert written == text

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "star.cds"
        inst = Instance(star_graph(3, capacity=[3, 0, 0, 0]), "cds")
        write_instance(inst, path)
        assert read_instance(path) == inst
        write_instance(read_instance(path), tmp_path / "copy.cds")
        assert (tmp_path / "copy.cds").read_bytes() == path.read_bytes()


ADDRESS_SPACE_CAP = 256 * 2**20


def run_capped(code):
    """The literal that code prints, run in a fresh interpreter whose address
    space is capped at ADDRESS_SPACE_CAP (after it checks that the cap
    holds), with this test run's ndsolve first on its path."""
    guard = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))\n"
        "try:\n"
        f"    bytearray({2 * ADDRESS_SPACE_CAP})\n"
        "except MemoryError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('address space cap not in force')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ndsolve.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", guard + code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def _blowup_text(rng, problem):
    """A seeded blow-up with at least two edges, as instance text."""
    while True:
        template = random_template(rng, max_k=4, max_n=12, with_capacities=problem == "cds")
        graph = generate_blowup(template, seed=rng.randrange(2**30))
        if graph.m >= 2:
            q = rng.randint(2, 4) if problem == "maxqcut" else None
            return format_instance(Instance(graph, problem, q))


def _mutate_edge_block(rng, text):
    """text with one of its edge lines, or a pair of them, changed."""
    lines = text.split("\n")[:-1]
    n = int(lines[0].split(" ")[2])
    first = next(i for i, line in enumerate(lines) if line.startswith("e "))
    last = max(i for i, line in enumerate(lines) if line.startswith("e "))
    i = rng.randint(first, last)
    j = rng.randint(first, last)
    kind = rng.choice(["move token", "drop", "duplicate", "swap", "double space", "tag",
                       "endpoint", "token count"])
    parts = lines[i].split(" ")
    if kind == "move token" and i < last:
        nxt = lines[i + 1].split(" ")
        if rng.random() < 0.5:  # 'e 1' then '2 e 3 4'
            lines[i], lines[i + 1] = " ".join(parts[:-1]), " ".join(parts[-1:] + nxt)
        else:  # 'e 1 2 e' then '3 4'
            lines[i], lines[i + 1] = " ".join(parts + nxt[:1]), " ".join(nxt[1:])
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "double space":
        at = rng.choice([1, 2])
        lines[i] = " ".join(parts[:at]) + "  " + " ".join(parts[at:])
    elif kind == "tag":
        lines[i] = " ".join([rng.choice(["c", "q", "p", "f", "E", "", "ee"])] + parts[1:])
    elif kind == "endpoint":
        at = rng.choice([1, 2])
        t = parts[at]
        parts[at] = rng.choice([
            "0" + t, "+" + t, "-" + t, t + "\t", "0", "-0", "", "x", "\u0663",
            str(n + 1), str(n + rng.randint(2, 10**6)), "1" + "0" * 30,
            str(int(t) + 1), str(int(t) - 1),
        ])
        lines[i] = " ".join(parts)
    elif kind == "token count":  # 'e 1 2 3' or 'e 1'
        lines[i] = " ".join(parts + [parts[2]] if rng.random() < 0.5 else parts[:2])
    return "\n".join(lines) + "\n"


class TestBlowup:
    def test_single_clique_is_complete_graph(self):
        template = BlowupTemplate((5,), (CLIQUE,), frozenset())
        g = generate_blowup(template, seed=7)
        assert g.edges == complete_graph(5).edges

    def test_two_independents_with_cross_edge_is_complete_bipartite(self):
        template = BlowupTemplate((2, 3), (INDEPENDENT, INDEPENDENT), frozenset({(0, 1)}))
        g = generate_blowup(template, seed=0)
        assert g.m == 6
        assert twin_partition(g).k == 2

    def test_deterministic_in_seed(self):
        template = BlowupTemplate((2, 2), (CLIQUE, INDEPENDENT), frozenset({(0, 1)}))
        assert generate_blowup(template, 3) == generate_blowup(template, 3)
        shuffled = generate_blowup(template, 4)
        assert shuffled.n == 4

    def test_capacities_follow_vertices(self):
        template = BlowupTemplate(
            (2,), (INDEPENDENT,), frozenset(), capacities=((5, 1),)
        )
        g = generate_blowup(template, seed=9)
        assert sorted(g.capacity) == [1, 5]

    def test_invalid_templates(self):
        with pytest.raises(ValueError):
            BlowupTemplate((0,), (CLIQUE,), frozenset()).validate()
        with pytest.raises(ValueError):
            BlowupTemplate((2,), ("blob",), frozenset()).validate()
        with pytest.raises(ValueError):
            BlowupTemplate((2, 2), (CLIQUE, CLIQUE), frozenset({(1, 0)})).validate()
        with pytest.raises(ValueError):
            BlowupTemplate((2,), (CLIQUE,), frozenset(), capacities=((1,),)).validate()

    def test_random_template_keeps_to_max_n_when_max_k_is_larger(self):
        rng = random.Random(0)
        for _ in range(50):
            template = random_template(rng, max_k=4, max_n=2)
            assert 1 <= template.k <= sum(template.weights) <= 2

    @pytest.mark.parametrize("max_k, max_n", [(0, 8), (4, 0), (-1, -1)])
    def test_random_template_needs_positive_limits(self, max_k, max_n):
        with pytest.raises(ValueError, match="at least 1"):
            random_template(random.Random(0), max_k=max_k, max_n=max_n)

    @pytest.mark.parametrize("seed", range(25))
    def test_twin_partition_never_exceeds_template_classes(self, seed):
        rng = random.Random(seed)
        template = random_template(rng, max_k=4, max_n=8, with_capacities=True)
        g = generate_blowup(template, seed=seed)
        assert twin_partition(g).k <= template.k
        assert g.n == sum(template.weights)


def blowup_streams():
    """Every graph of the pinned generator streams, in order: the
    acceptance gate's domination and sum-coloring suites (the max-q-cut
    criterion reads the latter), the desk suite of all three problems, the
    48 graver-suite draws, and the ROADMAP ladder at n = 6, 30, 75, 150."""
    for base, caps in ((11_000, True), (22_000, False)):
        for i in range(200):
            rng = random.Random(base + i)
            template = random_template(rng, max_k=4, max_n=8, with_capacities=caps,
                                       max_capacity=4)
            yield generate_blowup(template, seed=rng.randrange(2**30))
    suite = random.Random(171102032)
    for problem in ("cds", "sumcol", "maxqcut"):
        for _ in range(6):
            template = random_template(suite, max_k=4, max_n=8,
                                       with_capacities=problem == "cds", max_capacity=4)
            yield generate_blowup(template, seed=suite.randrange(2**30))
    suite = random.Random(171102032)
    for _ in range(48):
        template = random_template(suite, max_k=4, max_n=120)
        yield generate_blowup(template, seed=suite.randrange(2**30))
    for n in (6, 30, 75, 150):
        w = n // 3
        template = BlowupTemplate((w, w, w), (CLIQUE, INDEPENDENT, CLIQUE),
                                  frozenset({(0, 1), (1, 2)}))
        yield generate_blowup(template, seed=1)


# sha256 over the repr of (n, edges, capacity) of every graph of
# blowup_streams(), computed when generate_blowup still listed every joined
# pair and normalised them with Graph.from_edges.
PINNED_BLOWUP_DIGEST = "c780fff7b19f698f40215dd05be7f8cebe8431ebf018a0e45cc3ec4de3278f37"


def test_blowup_streams_are_pinned():
    h = hashlib.sha256()
    count = 0
    for g in blowup_streams():
        h.update(repr((g.n, g.edges, g.capacity)).encode())
        count += 1
    assert count == 400 + 18 + 48 + 4
    assert h.hexdigest() == PINNED_BLOWUP_DIGEST


# sha256 of format_instance over every graph of blowup_streams(), written as a
# sum-coloring and a max-q-cut (q = 2) instance, and as a domination instance
# when it has capacities, as computed when each edge line had its own f-string.
PINNED_FORMAT_DIGEST = "ed30ff7352d639ec4cabf2aabc4b689e7ef3e6230a49bea9e84ed57c1d38a17b"


def test_formatted_streams_are_pinned():
    h = hashlib.sha256()
    count = 0
    for g in blowup_streams():
        problems = [("sumcol", None), ("maxqcut", 2)]
        if g.capacity is not None:
            problems.append(("cds", None))
        for problem, q in problems:
            h.update(format_instance(Instance(g, problem, q)).encode())
            count += 1
    assert count == 1146
    assert h.hexdigest() == PINNED_FORMAT_DIGEST


def _definitional_template(rng):
    """A template with k <= 6 classes of weight 1..15, kinds all clique, all
    independent or mixed, no cross edges, all of them or a random set, and
    capacities or none."""
    k = rng.randint(1, 6)
    weights = tuple(rng.randint(1, 15) for _ in range(k))
    mix = rng.choice([(CLIQUE,), (INDEPENDENT,), (CLIQUE, INDEPENDENT)])
    kinds = tuple(rng.choice(mix) for _ in range(k))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cross = rng.choice(["empty", "complete", "random"])
    if cross == "empty":
        pairs = []
    elif cross == "random":
        pairs = [p for p in pairs if rng.random() < 0.5]
    caps = None
    if rng.random() < 0.5:
        caps = tuple(tuple(rng.randint(0, 9) for _ in range(w)) for w in weights)
    return BlowupTemplate(weights, kinds, frozenset(pairs), caps)


def test_blowup_matches_its_definition():
    """The vertices are shuffled labels cut into consecutive blocks by
    weight, and u, v are joined exactly when their blocks are one clique
    class or two classes joined by a cross edge."""
    rng = random.Random(13_013)
    for _ in range(300):
        template = _definitional_template(rng)
        seed = rng.randrange(2**30)
        n = sum(template.weights)
        labels = list(range(n))
        random.Random(seed).shuffle(labels)
        cls = [0] * n
        capacity = [0] * n
        at = 0
        for i, w in enumerate(template.weights):
            for x, v in enumerate(labels[at:at + w]):
                cls[v] = i
                if template.capacities is not None:
                    capacity[v] = template.capacities[i][x]
            at += w
        joined = [
            (u, v) for u in range(n) for v in range(n)
            if u != v and (
                template.kinds[cls[u]] == CLIQUE if cls[u] == cls[v]
                else (min(cls[u], cls[v]), max(cls[u], cls[v])) in template.cross_edges
            )
        ]
        expected = Graph.from_edges(
            n, joined, None if template.capacities is None else capacity)
        assert generate_blowup(template, seed) == expected, (template, seed)


def test_blowup_needs_no_normalising_constructor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Graph.from_edges called")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    assert sum(1 for _ in blowup_streams()) == 400 + 18 + 48 + 4
