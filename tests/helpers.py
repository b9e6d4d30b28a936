"""Small graph constructors, brute-force helpers, and the checks that only
the tests read, shared by the tests.

The checks are the exchange behind capacity-ordered solutions (acceptance
criterion 5), path decompositions of a model's dual graph (criterion 6, the
paper's bounded-dual-treewidth claim for the stacked model), twins and a
type graph built from a partition that is checked first, the domination
capacity f_i(l) with its argument checks, the y-variable convex CDS model
that the k-variable one replaced, the decoded witness of a CDS algorithm,
the Graver basis' infinity norm and normal form, and a canonical
serialization of a model for golden-file comparisons.
"""

import dataclasses
import itertools
import operator
import random
import re
from dataclasses import dataclass

from ndsolve.algorithms import check_cds
from ndsolve.graphs import Graph, TypeGraph, TypePartition, _compress, twin_partition, type_graph
from ndsolve.graver import GraverBasis, _entry, _normal_form, conformal
from ndsolve.ipmodel import ConvexRow, GeneralConvex, IpModel, Linear, Quadratic, SeparableConvex
from ndsolve.instances import PROBLEMS, Instance, ParseError, generate_blowup, random_template
from ndsolve.matrices import IntMatrix
from ndsolve.models import CdsSolution, build_cds_ilp, cds_pairs, decode_cds


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


def decoded(t, found):
    """The dominating set of a CDS algorithm's (class sizes, nodes), decoded
    as cli.Route decodes it; the class sizes must decode."""
    sol = decode_cds(t, found[0])
    assert sol is not None, f"class sizes {list(found[0])} do not decode"
    return sol


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


# ---------------------------------------------------------------------------
# twins, a checked type graph, and f_i(l) with its argument checks
# ---------------------------------------------------------------------------

def are_twins(g: Graph, u: int, v: int) -> bool:
    """True when u and v have identical neighborhoods outside {u, v}."""
    nbr = g.neighbors
    return [w for w in nbr[u] if w != v] == [w for w in nbr[v] if w != u]


def build_type_graph(g: Graph, p: TypePartition) -> TypeGraph:
    """Compress g along its twin partition p.

    Rejects any p that is not the twin partition of g (wrong classes or
    wrong kinds).
    """
    expected = twin_partition(g)
    if frozenset(map(frozenset, p.classes)) != frozenset(map(frozenset, expected.classes)):
        raise ValueError("partition classes are not the twin classes of the graph")
    canon_kind = {frozenset(c): knd for c, knd in zip(expected.classes, expected.kinds)}
    for c, knd in zip(p.classes, p.kinds):
        if canon_kind[frozenset(c)] != knd:
            raise ValueError(f"class {c!r} has kind {knd!r}, expected {canon_kind[frozenset(c)]!r}")
    return _compress(g, p)


def domination_capacity(t: TypeGraph, i: int, ell: int) -> int:
    """f_i(ell): total capacity of the ell highest-capacity vertices of class i.

    Clamped at ell = |V_i| for larger ell.  The increments are the sorted
    capacities themselves, so f_i is concave.  One lookup in
    TypeGraph.capacity_prefix.
    """
    if t.sorted_capacities is None:
        raise ValueError("type graph carries no capacities")
    if not 0 <= i < t.k:
        raise ValueError(f"unknown class index {i}")
    if ell < 0:
        raise ValueError("prefix length must be non-negative")
    prefix = t.capacity_prefix[i]
    return prefix[min(ell, len(prefix) - 1)]


def cds_served_count_convex(t: TypeGraph) -> IpModel:
    """The y-variable convex CDS model that models.build_cds_convex replaced,
    kept as its reference: build_cds_ilp's variables, boxes and domination
    rows, with each class's tangent rows read as one convex row, its
    concave capacity bound sum_j y_ij - f_i(x_i) <= 0."""
    ilp = build_cds_ilp(t)
    pos = {p: t.k + idx for idx, p in enumerate(cds_pairs(t))}
    convex_rows = []
    for i in range(t.k):
        served = tuple(pos[(i, j)] for j in sorted(t.neighbors(i)))
        f_i = t.capacity_prefix[i]  # f_i(x_i) = f_i[x_i], as 0 <= x_i <= w_i in the box

        def fn(point, i=i, served=served, f_i=f_i):
            return sum(point[p] for p in served) - f_i[point[i]]

        def box_min(lo, hi, i=i, served=served, f_i=f_i):
            return sum(lo[p] for p in served) - f_i[hi[i]]

        convex_rows.append(ConvexRow(fn, box_min, name=f"cap_{i}"))
    return dataclasses.replace(ilp, rows=ilp.rows[:t.k], convex_rows=tuple(convex_rows))


# ---------------------------------------------------------------------------
# capacity-ordered exchange (acceptance criterion 5)
# ---------------------------------------------------------------------------

def _capacity_order(g: Graph):
    classes = twin_partition(g).classes
    return [sorted(c, key=lambda v: (-g.capacity[v], v)) for c in classes]


def capacity_reorder(g: Graph, sol: CdsSolution) -> CdsSolution:
    """Exchange dominators until each class holds a capacity-ordered prefix.

    One exchange swaps a chosen vertex v for an unchosen higher-capacity
    twin u; u inherits v's load and v inherits u's old dominator (or u
    itself when u was served by v).  Size is preserved and the number of
    out-of-prefix picks strictly drops, so this terminates.
    """
    if not check_cds(g, sol):
        raise ValueError("input is not a valid solution")
    classes = _capacity_order(g)
    dom = set(sol.dominators)
    delta = dict(sol.assignment)

    def mismatch():
        score = 0
        for cls in classes:
            inside = set(v for v in cls if v in dom)
            prefix = set(cls[: len(inside)])
            score += len(prefix.symmetric_difference(inside))
        return score

    while True:
        swap = None
        for cls in classes:
            inside = [v for v in cls if v in dom]
            prefix = cls[: len(inside)]
            extra = [v for v in inside if v not in set(prefix)]
            missing = [u for u in prefix if u not in dom]
            if extra:
                swap = (missing[0], extra[0])
                break
        if swap is None:
            break
        u, v = swap
        before = mismatch()
        new_delta = {}
        for x, y in delta.items():
            if x == u:
                continue
            new_delta[x] = u if y == v else y
        y0 = delta[u]
        new_delta[v] = u if y0 == v else y0
        dom.discard(v)
        dom.add(u)
        delta = new_delta
        if mismatch() >= before:
            raise RuntimeError(f"exchange {u}<->{v} did not reduce the out-of-prefix picks")
    out = CdsSolution.make(dom, delta)
    if not check_cds(g, out) or out.size != sol.size:
        raise RuntimeError("capacity reorder produced an invalid or resized solution")
    return out


def is_capacity_ordered(g: Graph, dominators) -> bool:
    dom = set(dominators)
    return all(
        set(cls[: len([v for v in cls if v in dom])]) == {v for v in cls if v in dom}
        for cls in _capacity_order(g)
    )


# ---------------------------------------------------------------------------
# path decompositions of a dual graph (acceptance criterion 6)
# ---------------------------------------------------------------------------

def primal_graph(a: IntMatrix) -> Graph:
    """Graph over columns; i ~ j when some row is non-zero in both."""
    support = [[] for _ in range(a.m)]
    for (r, c), _ in a.entries:
        support[r].append(c)
    edges = set()
    for sup in support:
        edges.update(itertools.combinations(sup, 2))
    return Graph.from_edges(a.n, edges)


def dual_graph(a: IntMatrix) -> Graph:
    """Graph over rows; equals the primal graph of the transpose."""
    return primal_graph(a.transpose())


@dataclass(frozen=True)
class PathDecomposition:
    """Ordered bags over the vertices of some graph."""

    bags: tuple  # of frozensets

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class DecompositionReport:
    valid: bool
    width: int
    reason: str = ""


def verify_decomposition(g: Graph, d: PathDecomposition) -> DecompositionReport:
    """Check the three path-decomposition conditions for g; report width."""
    width = d.width
    covered = set().union(*d.bags) if d.bags else set()
    missing = set(range(g.n)) - covered
    if missing:
        return DecompositionReport(False, width, f"vertex {min(missing)} in no bag")
    for u, run in zip(g.heads, g.runs):
        for v in run:
            if not any(u in b and v in b for b in d.bags):
                return DecompositionReport(False, width, f"edge ({u},{v}) in no bag")
    for v in range(g.n):
        hits = [i for i, b in enumerate(d.bags) if v in b]
        if hits != list(range(hits[0], hits[-1] + 1)):
            return DecompositionReport(False, width, f"occurrences of {v} not contiguous")
    return DecompositionReport(True, width)


def stacked_path_decomposition(model) -> PathDecomposition:
    """The explicit decomposition of the dual graph of a stacked (F over L) model.

    Row i of L only shares columns with rows i-1 and i+1 of L (through the
    chained counter variables), so bags of {all F-rows, L_i, L_{i+1}} for
    consecutive i cover every dual edge with width <= k+1.
    """
    blocks = getattr(model, "stacked", None)
    if blocks is None:
        raise ValueError("model carries no stacked F/L block annotation")
    f_rows, l_rows = blocks.f_rows, blocks.l_rows
    f_bag = frozenset(range(f_rows))
    if l_rows == 0:
        return PathDecomposition((f_bag,) if f_rows else ())
    if l_rows == 1:
        return PathDecomposition((f_bag | {f_rows},))
    bags = tuple(
        f_bag | {f_rows + i, f_rows + i + 1} for i in range(l_rows - 1)
    )
    return PathDecomposition(bags)


# ---------------------------------------------------------------------------
# Graver bases: infinity norm and conformal normal form
# ---------------------------------------------------------------------------

def _conformal_normal_form(s, basis_list):
    """Greedily subtract conformal elements; the remainder is the normal form."""
    return _normal_form(_entry(tuple(s)), [_entry(tuple(g)) for g in basis_list])


def g_inf_norm(b: GraverBasis) -> int:
    """Largest infinity-norm over the basis."""
    return max((max(abs(x) for x in v) for v in b.elements), default=0)


# ---------------------------------------------------------------------------
# canonical model serialization for golden-file comparisons
# ---------------------------------------------------------------------------

def dump_model(m: IpModel) -> str:
    """Canonical line-oriented serialization for golden-file comparisons."""
    out = [f"vars {m.n_vars}"]
    for i in range(m.n_vars):
        out.append(f"bound {i} {m.lower[i]} {m.upper[i]}")
    obj = m.objective
    if isinstance(obj, Linear):
        out.append("obj linear " + " ".join(str(c) for c in obj.coeffs))
    elif isinstance(obj, SeparableConvex):
        out.append("obj sepconvex")
        for i, f in enumerate(obj.terms):
            vals = " ".join(str(f(v)) for v in range(m.lower[i], m.upper[i] + 1))
            out.append(f"objterm {i} {vals}")
    elif isinstance(obj, Quadratic):
        out.append("obj quadratic")
        for p, q, c in sorted(obj.terms):
            out.append(f"qterm {p} {q} {c}")
    elif isinstance(obj, GeneralConvex):
        out.append(f"obj general {obj.name}")
    else:
        raise ValueError("unknown objective form")
    for r, row in enumerate(m.rows):
        out.append(f"row {r} {row.rel} {row.rhs}")
        for i, c in row.coeffs:
            out.append(f"entry {r} {i} {c}")
    for cr in m.convex_rows:
        out.append(f"convexrow {cr.name}")
    if m.nfold is not None:
        out.append(f"nfold {m.nfold.r} {m.nfold.s} {m.nfold.t} {m.nfold.n}")
    if m.stacked is not None:
        out.append(f"stacked {m.stacked.f_rows} {m.stacked.l_rows}")
    if m.tag:
        out.append(f"tag {m.tag}")
    return "\n".join(out) + "\n"
