"""Instance files and blow-up generators.

The on-disk format is line oriented and canonical (so write . read is the
identity on bytes):

    p <problem> <n> <m>
    c <vertex> <capacity>        # cds only, one line per vertex, ascending
    e <u> <v>                    # m lines, u < v, sorted
    q <parts>                    # maxqcut only

Vertices are 1-indexed in files, 0-indexed in memory.  Parsing is strict:
unknown or out-of-order lines are errors carrying their line number, and so
is every integer not written canonically (``0``, or an optional ``-`` and
ASCII digits without a leading zero), since int() also takes ``+1``,
``0_3``, ``03``, ``-0``, a tab after the digits and non-ASCII digits, which
would write back as other bytes.  For the same reason every line ends in a
newline, the last one included, no line holds a carriage return or another
character that str.splitlines breaks on, and files are read as bytes, so a
non-ASCII byte is an error on its line.

The edge block, nearly all of a file, is read in bulk and never split into
lines: it is the text from the first edge line on, less the q line if the
problem has one.  Its tokens are split once, and the line structure is
checked by whole-list operations (see _edge_block), with no Python loop
over the lines.  The block is cut into runs where the smaller endpoint's
token changes; the larger endpoints, and the token that starts each run,
are looked up in one table of canonical labels.  No (u, v) pair is built:
the runs go straight to Graph.from_runs, which owns the edge invariant
(0 <= u < v < n, heads ascending, runs increasing) and checks it once per
run.  A block that fails either step is read again line by line, which
names its first bad line (or reads labels above the block's token count,
which the table leaves out).  The few other lines are read one by one, and
each integer in them is matched against the canonical form.  Parsing is
O(m), whatever the header's n: nothing allocates per header vertex (the
first such allocation is Graph.neighbors, on first use), and the writer
makes one label per vertex that ends an edge.

Blow-up templates prescribe a type graph (weights, kinds, cross edges,
optional per-class capacities); realizing one yields a graph whose twin
partition has at most as many classes.  Vertex labels are shuffled by the
seed so class structure does not align with index order.  Every
neighbourhood of a blow-up is a union of whole classes, so the generator
emits the graph's runs straight from the class structure: per class the
sorted labels it reaches, per vertex one bisection and the suffix above
it, its run, O(k n log n) plus O(m) C-level work with no Python step, set
or sort per edge.  Graph checks the runs once, as it does the parser's;
generate_blowup proves they are the blow-up's edges in order.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

from .graphs import CLIQUE, INDEPENDENT, Graph, cut_runs

PROBLEMS = ("cds", "sumcol", "maxqcut")

_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")
_OTHER_BREAK = re.compile("[\r\v\f\x1c-\x1e\x85\u2028\u2029]")


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Instance:
    graph: Graph
    problem: str
    q: int | None = None


def _integer(line_no, text, what):
    """int(text), for text written canonically."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {text!r}") from None
    if not _CANONICAL_INT.fullmatch(text):
        raise ParseError(line_no, f"non-canonical {what}: {text!r}")
    return value


def _fields(lines, i, line_no, expect_tag, n_fields):
    """The fields after the tag of lines[i], which is line line_no."""
    if i >= len(lines):
        raise ParseError(line_no, f"unexpected end of file, wanted a '{expect_tag}' line")
    parts = lines[i].split(" ")
    if parts[0] != expect_tag or len(parts) != n_fields:
        raise ParseError(line_no, f"expected '{expect_tag}' line with {n_fields} fields")
    return parts[1:]


def _edge_block(rest, m, n, q_line):
    """The 0-based heads and runs of a block of m lines 'e <u> <v>' at the
    start of rest, and the lines after it; or None.

    rest is the text from the first edge line on.  In a well-formed file the
    block is all of rest but the q line, if the problem has one, so its end
    is found from the end of rest, and it is checked as a whole, with no
    Python loop over its lines.  Endpoint tokens are looked up in one table
    from the canonical labels '1', '2', ... to vertices, so a hit is a
    canonical label in range.  Only the larger endpoints are looked up one
    by one: the smaller endpoints' tokens are cut into runs where the token
    changes (cut_runs), and only the token that starts each run is looked
    up, since every other token of the run is the same string.  So every
    endpoint token is in the table once these lookups hit.  If the block
    holds m newlines, starts with 'e ', every newline but its last is
    followed by 'e ', there are 3 tokens per line and every endpoint token
    is in the table, then no 'e' token sits at an endpoint position, so the
    lines start at tokens 0, 3, 6, ... and each one is 'e <u> <v>'.  The
    table stops at the token count, so that its cost is bounded by the
    block's; a block with a label above that goes to _edge_lines, which
    reads it.  Any other block this rejects, _edge_lines rejects too, and
    names its first bad line.  No pair is built, and whether the runs are
    ordered is Graph's check, not this one's: the table maps distinct
    tokens to distinct vertices, so a smaller endpoint that comes back after
    another one starts a second run with a repeated head, which Graph
    rejects.
    """
    end = rest.rfind("\n", 0, len(rest) - 1) + 1 if q_line else len(rest)
    block = rest[:end]
    if block.count("\n") != m:
        return None
    after = rest[end:].split("\n")[:-1]
    if not m:
        return ((), ()), after
    if not block.startswith("e ") or block.count("\ne ") != m - 1:
        return None
    tokens = block.replace("\n", " ").split(" ")
    if len(tokens) != 3 * m + 1:
        return None
    vertex = {str(v + 1): v for v in range(min(n, 3 * m))}
    label = vertex.__getitem__
    firsts = tokens[1::3]
    try:
        starts, runs = cut_runs(firsts, tuple(map(label, tokens[2::3])))
        heads = tuple(map(label, map(firsts.__getitem__, starts)))
    except KeyError:
        return None
    return (heads, runs), after


def _edge_lines(rest, first_line_no, m, n):
    """The 0-based pairs of the m edge lines at the start of rest, and the
    lines after them, read line by line; raises at the first bad line."""
    lines = rest.split("\n")[:-1]
    pairs = []
    prev = (-1, -1)
    for line_no, line in enumerate(lines[:m], first_line_no):
        parts = line.split(" ")
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(line_no, "expected 'e' line with 3 fields")
        u = _integer(line_no, parts[1], "endpoint") - 1
        v = _integer(line_no, parts[2], "endpoint") - 1
        if not 0 <= u < v < n:
            raise ParseError(line_no, f"edge ({u + 1},{v + 1}) not sorted or out of range")
        if (u, v) <= prev:
            raise ParseError(line_no, "edges must be strictly sorted (duplicates forbidden)")
        prev = (u, v)
        pairs.append(prev)
    if len(lines) < m:
        raise ParseError(first_line_no + len(lines), "unexpected end of file, wanted a 'e' line")
    return pairs, lines[m:]


def _check_breaks(text):
    """Raise unless every line of text ends in a newline and holds no other break.

    ASCII text can only hold the ASCII breaks, and a substring test for each
    is cheaper than the regex scan, which then only runs to find the first.
    """
    if not text:
        raise ParseError(1, "empty file")
    if not text.isascii() or any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e")):
        brk = _OTHER_BREAK.search(text)
        if brk is not None:
            raise ParseError(text.count("\n", 0, brk.start()) + 1, f"bad line break {brk.group()!r}")
    if not text.endswith("\n"):
        raise ParseError(text.count("\n") + 1, "missing final newline")


def parse_instance(text: str) -> Instance:
    _check_breaks(text)

    # The lines before the edge block, one string each, and the rest of the
    # text, from the first edge line on, as one string.
    lines = text.split("\n", 1)
    rest = lines.pop()
    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "p":
        raise ParseError(1, "expected header 'p <problem> <n> <m>'")
    problem = head[1]
    if problem not in PROBLEMS:
        raise ParseError(1, f"unknown problem {problem!r}")
    n = _integer(1, head[2], "vertex count")
    m = _integer(1, head[3], "edge count")
    if n < 0 or m < 0:
        raise ParseError(1, "negative counts")

    at = 2
    capacity = None
    if problem == "cds":
        lines += rest.split("\n", min(n, len(rest)))
        rest = lines.pop()
        capacity = []
        for v in range(1, n + 1):
            got = _fields(lines, at - 1, at, "c", 3)
            if _integer(at, got[0], "vertex") != v:
                raise ParseError(at, f"capacity lines must cover vertices in order; wanted {v}")
            cap = _integer(at, got[1], "capacity")
            if cap < 0:
                raise ParseError(at, "negative capacity")
            capacity.append(cap)
            at += 1
        capacity = tuple(capacity)

    graph = None
    parsed = _edge_block(rest, m, n, problem == "maxqcut")
    if parsed is not None:
        try:
            graph = Graph.from_runs(n, *parsed[0], capacity)
        except ValueError:
            pass
    if graph is None:
        # Raises at the block's first bad line, or reads labels above its
        # token count.
        parsed = _edge_lines(rest, at, m, n)
        graph = Graph(n, parsed[0], capacity)
    after = parsed[1]
    at += m

    q = None
    if problem == "maxqcut":
        got = _fields(after, 0, at, "q", 2)
        q = _integer(at, got[0], "part count")
        if q < 2:
            raise ParseError(at, "need at least two parts")
        after = after[1:]
        at += 1

    if after:
        raise ParseError(at, f"unexpected trailing line {after[0]!r}")

    return Instance(graph, problem, q)


def format_instance(inst: Instance) -> str:
    """The instance file text.

    The edge block is written one run of the graph (Graph.runs) at a time,
    as one join of the larger endpoints' labels with "\ne u " between them.
    Labels are made once per vertex that ends an edge, not per vertex of the
    header, which may be far above the edges.
    """
    g = inst.graph
    out = [f"p {inst.problem} {g.n} {g.m}"]
    if inst.problem == "cds":
        if g.capacity is None:
            raise ValueError("cds instance without capacities")
        out += [f"c {v + 1} {g.capacity[v]}" for v in range(g.n)]
    ends = set(chain.from_iterable(g.runs))
    labels = dict(zip(ends, map(str, map((1).__add__, ends))))
    for u, run in zip(g.heads, g.runs):
        head = f"e {u + 1} "
        out.append(head + ("\n" + head).join(map(labels.__getitem__, run)))
    if inst.problem == "maxqcut":
        if inst.q is None:
            raise ValueError("maxqcut instance without part count")
        out.append(f"q {inst.q}")
    return "\n".join(out) + "\n"


def read_instance(path) -> Instance:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"non-ASCII byte {data[exc.start]:#04x}") from None
    return parse_instance(text)


def write_instance(inst: Instance, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_instance(inst))


# ---------------------------------------------------------------------------
# blow-up generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupTemplate:
    """A prescribed type graph: class weights, kinds, cross edges, and
    (optionally) the capacity multiset of each class."""

    weights: tuple
    kinds: tuple
    cross_edges: frozenset
    capacities: tuple | None = None

    @property
    def k(self):
        return len(self.weights)

    def validate(self):
        if len(self.kinds) != self.k:
            raise ValueError("kinds and weights differ in length")
        if any(w < 1 for w in self.weights):
            raise ValueError("class weights must be at least 1")
        if any(kind not in (CLIQUE, INDEPENDENT) for kind in self.kinds):
            raise ValueError("unknown class kind")
        for i, j in self.cross_edges:
            if not 0 <= i < j < self.k:
                raise ValueError(f"bad template edge ({i},{j})")
        if self.capacities is not None:
            if len(self.capacities) != self.k:
                raise ValueError("capacities and weights differ in length")
            for caps, w in zip(self.capacities, self.weights):
                if len(caps) != w:
                    raise ValueError("class capacity tuple does not match its weight")
                if any(c < 0 for c in caps):
                    raise ValueError("negative capacity")
        return self


def generate_blowup(template: BlowupTemplate, seed: int) -> Graph:
    """Realize the template; the seed shuffles vertex labels only.

    The labels 0..n-1 are shuffled by random.Random(seed) and cut into
    consecutive blocks, one per class, by weight.  Vertices u != v are
    joined when their blocks are one clique class, or two classes joined by
    a cross edge.  So a vertex's neighbourhood is a union of whole blocks:
    reach[i], the sorted labels of every block joined to class i (its cross
    neighbours, and its own block if i is a clique), holds the neighbours of
    each vertex of class i, with the vertex itself when i is a clique.

    The edges are emitted straight from reach as runs, in the form
    Graph.from_runs checks: for each u in ascending order, its run is the
    suffix of reach[class of u] above u, if not empty.  Proof that these
    are Graph's runs: u < v are adjacent exactly when v is in reach[class
    of u]; each edge is emitted once, from its smaller end; u ascends and
    each suffix of a sorted tuple is sorted, so the heads ascend and each
    run increases.  They are the runs Graph.from_edges would build from
    every joined pair.

    Cost: k sorts of at most n labels, O(k n log n), and one Python step
    with one bisection per vertex, plus O(m) C-level work to slice the
    suffixes and check the runs in Graph; no Python step, set or sort per
    edge.

    The result's twin partition never has more classes than the template
    (classes with identical outside-neighborhoods may merge, so it can have
    fewer).
    """
    template.validate()
    n = sum(template.weights)
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)

    blocks = []
    at = 0
    for w in template.weights:
        blocks.append(labels[at : at + w])
        at += w

    joined = [[i] if kind == CLIQUE else [] for i, kind in enumerate(template.kinds)]
    for i, j in template.cross_edges:
        joined[i].append(j)
        joined[j].append(i)
    reach_of = [None] * n
    for block, classes in zip(blocks, joined):
        reach = tuple(sorted(chain.from_iterable(map(blocks.__getitem__, classes))))
        for v in block:
            reach_of[v] = reach
    heads, runs = [], []
    for u, reach in enumerate(reach_of):
        run = reach[bisect_right(reach, u) :]
        if run:
            heads.append(u)
            runs.append(run)

    capacity = None
    if template.capacities is not None:
        capacity = [0] * n
        for block, caps in zip(blocks, template.capacities):
            for v, c in zip(block, caps):
                capacity[v] = c
    return Graph.from_runs(n, heads, runs, capacity)


def random_template(
    rng: random.Random,
    max_k: int = 4,
    max_n: int = 8,
    with_capacities: bool = False,
    max_capacity: int = 4,
) -> BlowupTemplate:
    """Draw a template with k <= min(max_k, max_n) classes and at most max_n
    vertices; both limits must be at least 1."""
    if max_k < 1 or max_n < 1:
        raise ValueError(f"max_k and max_n must be at least 1, got {max_k} and {max_n}")
    k = rng.randint(1, min(max_k, max_n))
    weights = [1] * k
    for _ in range(max_n - k):
        if rng.random() < 0.6:
            weights[rng.randrange(k)] += 1
    kinds = tuple(rng.choice((CLIQUE, INDEPENDENT)) for _ in range(k))
    cross = frozenset(
        (i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5
    )
    caps = None
    if with_capacities:
        caps = tuple(
            tuple(rng.randint(0, max_capacity) for _ in range(w)) for w in weights
        )
    return BlowupTemplate(tuple(weights), kinds, cross, caps).validate()
