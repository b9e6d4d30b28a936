"""Small graph constructors and brute-force helpers shared by the tests."""

import itertools
import operator
import random
import re

from ndsolve.graphs import Graph, type_graph
from ndsolve.graver import conformal
from ndsolve.ipmodel import SeparableConvex
from ndsolve.instances import PROBLEMS, Instance, ParseError, generate_blowup, random_template


def complete_graph(n, capacity=None):
    return Graph.from_edges(n, itertools.combinations(range(n), 2), capacity)


def empty_graph(n, capacity=None):
    return Graph.from_edges(n, [], capacity)


def path_graph(n, capacity=None):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], capacity)


def cycle_graph(n, capacity=None):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, capacity)


def star_graph(leaves, capacity=None):
    """K_{1,leaves} with the center as vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)], capacity)


def random_graph(rng: random.Random, n, p=0.5, max_capacity=None):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    cap = None
    if max_capacity is not None:
        cap = [rng.randint(0, max_capacity) for _ in range(n)]
    return Graph.from_edges(n, edges, cap)


PINNED_CDS_INSTANCES = 100


def pinned_cds_instances():
    """(type graph, graph) of the acceptance-gate generator (the suite of
    its criterion 1)."""
    out = []
    for i in range(PINNED_CDS_INSTANCES):
        rng = random.Random(11_000 + i)
        template = random_template(rng, max_k=4, max_n=8, with_capacities=True, max_capacity=4)
        g = generate_blowup(template, seed=rng.randrange(2**30))
        out.append((type_graph(g), g))
    return out


def set_partitions(items):
    """Yield all partitions of a list, each as a list of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_min_twin_partition(g: Graph):
    """Independent oracle: the minimum number of classes over all partitions
    whose classes consist of pairwise twins."""
    from ndsolve.graphs import are_twins

    best = None
    for part in set_partitions(range(g.n)):
        if all(are_twins(g, u, v) for cls in part for u in cls for v in cls if u < v):
            if best is None or len(part) < best:
                best = len(part)
    return 0 if best is None else best


def conformally_minimal(vectors):
    """The vectors to which no other one of them is conformal.

    A vector conformal to v and distinct from it has a smaller l1-norm, so
    in order of l1-norm it suffices to test v against the vectors kept.
    """
    kept = []
    for v in sorted(set(vectors), key=lambda v: sum(map(abs, v))):
        if not any(conformal(u, v) for u in kept):
            kept.append(v)
    return set(kept)


def kernel_vectors_by_product(a, cap):
    """Independent oracle: the non-zero kernel vectors of a with
    infinity-norm <= cap, in lexicographic order, by testing every point of
    the box."""
    rows = a.to_rows()
    return [h for h in itertools.product(range(-cap, cap + 1), repeat=a.n)
            if any(h) and all(sum(map(operator.mul, row, h)) == 0 for row in rows)]


def graver_by_enumeration(a, cap):
    """Independent oracle: the conformally minimal non-zero kernel vectors of
    a with infinity-norm <= cap.  It equals the Graver basis once cap
    reaches the basis' largest infinity-norm."""
    return conformally_minimal(kernel_vectors_by_product(a, cap))


def nfold_reference_step(model, x):
    """Independent oracle for one step of backends.solve_nfold: the brick DP
    that keeps every state, with no test whether the bricks still to come
    can bring the A1-sum back to zero.

    Returns the point after the best strictly improving step (None when
    there is none) and the number of DP states in each layer.
    """
    nf = model.nfold
    obj = model.objective
    if isinstance(obj, SeparableConvex):
        fns = obj.terms
    else:
        fns = [(lambda v, c=c: c * v) for c in obj.coeffs]
    lower, upper = model.lower, model.upper
    width = max((u - l for l, u in zip(lower, upper)), default=0)
    moves = sorted([(0,) * nf.t] + kernel_vectors_by_product(nf.a2, width))
    a1_rows = nf.a1.to_rows()
    a1h = {h: tuple(sum(r[j] * h[j] for j in range(nf.t)) for r in a1_rows) for h in moves}
    zero = (0,) * nf.r
    per_brick = []
    for b in range(nf.n):
        base = b * nf.t
        cands = {}
        for h in moves:
            delta = 0
            for j in range(nf.t):
                if h[j]:
                    v = x[base + j] + h[j]
                    if not lower[base + j] <= v <= upper[base + j]:
                        break
                    delta += fns[base + j](v) - fns[base + j](x[base + j])
            else:
                key = a1h[h]
                if key not in cands or delta < cands[key][0]:
                    cands[key] = (delta, h)
        per_brick.append(cands)
    layers = []
    sizes = []
    states = {zero: 0}
    for b in range(nf.n):
        nxt = {}
        back = {}
        for sigma in sorted(states):
            sdelta = states[sigma]
            for key in sorted(per_brick[b]):
                delta, h = per_brick[b][key]
                new = tuple(a + d for a, d in zip(sigma, key))
                cand = sdelta + delta
                if new not in nxt or cand < nxt[new]:
                    nxt[new] = cand
                    back[new] = (sigma, h)
        layers.append(back)
        sizes.append(len(nxt))
        states = nxt
    if zero not in states or states[zero] >= 0:
        return None, sizes
    point = list(x)
    sigma = zero
    for b in range(nf.n - 1, -1, -1):
        sigma, h = layers[b][sigma]
        for j, d in enumerate(h):
            point[b * nf.t + j] += d
    return tuple(point), sizes


def reference_parse(text):
    """Independent oracle for instances.parse_instance: the same format, the
    same errors, read one line and one field at a time with no shortcut."""
    if not text:
        raise ParseError(1, "empty file")
    for at, ch in enumerate(text):
        if ch in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
            raise ParseError(text.count("\n", 0, at) + 1, f"bad line break {ch!r}")
    lines = text.split("\n")
    if lines.pop():
        raise ParseError(len(lines) + 1, "missing final newline")

    def integer(line_no, field, what):
        try:
            value = int(field)
        except ValueError:
            raise ParseError(line_no, f"bad {what}: {field!r}") from None
        if not re.fullmatch(r"0|-?[1-9][0-9]*", field):
            raise ParseError(line_no, f"non-canonical {what}: {field!r}")
        return value

    def fields(line_no, tag, count):
        if line_no > len(lines):
            raise ParseError(line_no, f"unexpected end of file, wanted a '{tag}' line")
        parts = lines[line_no - 1].split(" ")
        if parts[0] != tag or len(parts) != count:
            raise ParseError(line_no, f"expected '{tag}' line with {count} fields")
        return parts[1:]

    head = lines[0].split(" ")
    if len(head) != 4 or head[0] != "p":
        raise ParseError(1, "expected header 'p <problem> <n> <m>'")
    problem = head[1]
    if problem not in PROBLEMS:
        raise ParseError(1, f"unknown problem {problem!r}")
    n = integer(1, head[2], "vertex count")
    m = integer(1, head[3], "edge count")
    if n < 0 or m < 0:
        raise ParseError(1, "negative counts")
    at = 2
    capacity = None
    if problem == "cds":
        capacity = []
        for v in range(1, n + 1):
            vertex, cap = fields(at, "c", 3)
            if integer(at, vertex, "vertex") != v:
                raise ParseError(at, f"capacity lines must cover vertices in order; wanted {v}")
            cap = integer(at, cap, "capacity")
            if cap < 0:
                raise ParseError(at, "negative capacity")
            capacity.append(cap)
            at += 1
        capacity = tuple(capacity)
    edges = []
    for _ in range(m):
        a, b = fields(at, "e", 3)
        u, v = integer(at, a, "endpoint"), integer(at, b, "endpoint")
        if not 1 <= u < v <= n:
            raise ParseError(at, f"edge ({u},{v}) not sorted or out of range")
        if edges and (u - 1, v - 1) <= edges[-1]:
            raise ParseError(at, "edges must be strictly sorted (duplicates forbidden)")
        edges.append((u - 1, v - 1))
        at += 1
    q = None
    if problem == "maxqcut":
        (parts,) = fields(at, "q", 2)
        q = integer(at, parts, "part count")
        if q < 2:
            raise ParseError(at, "need at least two parts")
        at += 1
    if at - 1 != len(lines):
        raise ParseError(at, f"unexpected trailing line {lines[at - 1]!r}")
    return Instance(Graph(n, edges, capacity), problem, q)
