"""Conformal order, Graver bases, and Graver-best iterative augmentation.

The Graver basis of an integer matrix A is the set of conformally minimal
non-zero integer kernel vectors: x is conformal to y when they lie in the
same orthant and |x_i| <= |y_i| coordinatewise.  In general the basis is
computed by a completion procedure in the style of Pottier's normal-form
algorithm, which starts from a lattice basis of the kernel and closes the
set under conformal reduction of pairwise sums; the result is always
complete.

A node-arc incidence matrix, where each column has entries in {-1, +1} with
at most one of each sign, is answered without the completion.  Such a matrix
is totally unimodular, so its Graver basis is its set of circuits (Sturmfels,
Groebner Bases and Convex Polytopes, 1996, Prop. 8.11), and the circuits of
an incidence matrix are the signed simple cycles of its graph, which are
listed directly.  The counter block L of the stacked sum-coloring model is
such a matrix.

The completion keeps each vector with its absolute values and its sign mask
(one bit per positive and one per negative coordinate).  A conformal test
g <= s is then one test that g's mask is a subset of s's, which rejects
most pairs with one integer operation, and only then a comparison of the
absolute values at C speed.  A pair v, g whose masks show a common orthant
is skipped before its sum is formed, since both are conformal to the sum.
Graver-basis codes such as 4ti2 filter on sign supports in the same way
(Hemmecke, Math. Prog. 96, 2003).

Optimization over a fixed matrix proceeds by iterative augmentation: from a
feasible point, repeatedly apply the best improving step lambda * g with g a
basis element; absence of such a step certifies global optimality for
linear and separable convex objectives.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, le, neg, sub

from .errors import BudgetError
from .matrices import IntMatrix


def conformal(x, y) -> bool:
    """True when x and y lie in the same orthant and |x| <= |y| coordinatewise."""
    if len(x) != len(y):
        raise ValueError("vector lengths differ")
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(x, y))


def _l1(v):
    return sum(map(abs, v))


def _neg(v):
    return tuple(map(neg, v))


# ---------------------------------------------------------------------------
# kernel lattice
# ---------------------------------------------------------------------------

def kernel_lattice_basis(a: IntMatrix):
    """Integer lattice basis of {x : Ax = 0}, by unimodular column reduction.

    Column operations are mirrored on an identity matrix; once every row has
    at most one non-zero among the still-active columns, the active columns
    of the transform are a basis of the kernel lattice.
    """
    m, n = a.m, a.n
    work = a.to_rows()
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    active = list(range(n))
    for r in range(m):
        while True:
            nz = [j for j in active if work[r][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(work[r][j]), j))
            for j in nz:
                if j == j0:
                    continue
                q = work[r][j] // work[r][j0]
                if q:
                    for i in range(m):
                        work[i][j] -= q * work[i][j0]
                    for i in range(n):
                        trans[i][j] -= q * trans[i][j0]
        nz = [j for j in active if work[r][j] != 0]
        if nz:
            active.remove(nz[0])
    return [tuple(trans[i][j] for i in range(n)) for j in active]


# ---------------------------------------------------------------------------
# basis computation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraverBasis:
    """The Graver basis of ``matrix``: closed under negation, conformally minimal."""

    matrix: IntMatrix
    elements: frozenset

    def __len__(self):
        return len(self.elements)

    def validate(self):
        """Re-check the definitional invariants (used by tests)."""
        for v in self.elements:
            if any(self.matrix.mul_vec(list(v))) or not any(v):
                raise AssertionError("element not a non-zero kernel vector")
            if _neg(v) not in self.elements:
                raise AssertionError("not closed under negation")
        for v in self.elements:
            for u in self.elements:
                if u != v and conformal(u, v):
                    raise AssertionError("stored element dominated by another")


def _entry(v):
    """(v, |v|, sign mask of v, sign mask of -v): a vector as the completion stores it.

    The sign mask has bit i set when v_i > 0 and bit len(v) + i when v_i < 0.
    g is conformal to s exactly when g's mask is a subset of s's and
    |g| <= |s| coordinatewise; the mask test rejects most pairs at once.
    """
    n = len(v)
    up = down = 0
    for i, x in enumerate(v):
        if x > 0:
            up |= 1 << i
        elif x < 0:
            down |= 1 << i
    return v, tuple(map(abs, v)), up | down << n, down | up << n


def _neg_entry(e):
    """The entry of -v, from that of v."""
    v, size, mask, flip = e
    return _neg(v), size, flip, mask


def _first_below(size, mask, entries):
    """The first of entries conformal to a vector with |.| = size and sign mask mask."""
    outside = ~mask
    for g in entries:
        if not g[2] & outside and all(map(le, g[1], size)):
            return g
    return None


def _minimal_filter(vectors):
    """Keep the conformally minimal vectors (dominators have smaller l1)."""
    out = []
    for v in sorted(set(vectors), key=lambda v: (_l1(v), v)):
        e = _entry(v)
        if _first_below(e[1], e[2], out) is None:
            out.append(e)
    return [e[0] for e in out]


def _kernel_vectors_within(a: IntMatrix, cap: int, max_nodes: int):
    """All non-zero kernel vectors with infinity-norm <= cap, in
    lexicographic order.

    A depth-first search over the columns that keeps its own stack: with d
    the deepest column set, vec[c] for c <= d holds column c's current
    value, walked from -cap to cap, and partial the rows' sums over
    vec[:d + 1].  A node is cut when some row's partial sum exceeds what the
    later columns can still add.  Every node counts against max_nodes, the
    root and the leaves included.
    """
    m, n = a.m, a.n
    rows = a.to_rows()
    cols = [[row[d] for row in rows] for d in range(n)]
    # slack[d][r]: largest |contribution| columns d.. can still make to row r
    slack = [[0] * m for _ in range(n + 1)]
    for d in range(n - 1, -1, -1):
        slack[d] = [s + abs(c) * cap for s, c in zip(slack[d + 1], cols[d])]
    vec = [0] * n
    partial = [0] * m
    out = []
    nodes = 0
    d = -1  # the deepest column set: none at the root
    while True:
        nodes += 1
        if nodes > max_nodes:
            raise BudgetError("kernel enumeration budget exceeded")
        if all(map(le, map(abs, partial), slack[d + 1])):
            if d + 1 == n:
                if any(vec):
                    out.append(tuple(vec))
            else:
                d += 1
                vec[d] = -cap
                partial = [p - c * cap for p, c in zip(partial, cols[d])]
                continue
        # next value of the deepest column that has one left
        while d >= 0 and vec[d] == cap:
            partial = [p - c * cap for p, c in zip(partial, cols[d])]
            d -= 1
        if d < 0:
            return out
        vec[d] += 1
        partial = list(map(add, partial, cols[d]))


def _normal_form(s, basis):
    """Subtract the first conformal element of basis until none is.

    s and the basis elements are entries; the remainder is returned as a
    vector.  The sign mask of s is not updated: subtracting a conformal
    element only moves coordinates towards 0, and an element that needs a
    coordinate that has reached 0 fails the |g| <= |s| test.
    """
    v, size, mask, _ = s
    while any(size):
        g = _first_below(size, mask, basis)
        if g is None:
            break
        v = tuple(map(sub, v, g[0]))
        size = tuple(map(sub, size, g[1]))
    return v


def _pottier_completion(a: IntMatrix, max_elements: int):
    """Close a kernel lattice basis under conformal reduction of sums.

    Elements are stored as entries (see _entry), so that most conformal
    tests end at one bitmask test.  A sum v + g is queued only when v and g
    lie in no common orthant: otherwise v and g are both conformal to it and
    its normal form is 0.  Sums are taken smallest l1 first and reduced by
    the first conformal element in basis order.

    The basis is pushed in pairs e, -e, so the sums come in pairs s, -s,
    and only the smaller tuple of each pair is queued.  This is the one of
    the pair that a queue of both would pop first (both have the same l1),
    and it pushes the same elements: the first element conformal to -s is
    the partner of the first conformal to s, so NF(-s) = -NF(s), and once
    NF(s) and its negative are pushed, -s reduces to 0.  For the same
    reason the sums of -r are the negatives of the sums of r, so each
    reduced r enqueues its own sums alone.  The bases, and the point where
    max_elements stops the completion, are those of queueing both.
    """
    gens = [v for v in kernel_lattice_basis(a) if any(v)]
    basis = []
    seen = set()

    def push(e):
        if e[0] not in seen:
            basis.append(e)
            seen.add(e[0])
            if len(basis) > max_elements:
                raise BudgetError("Graver completion budget exceeded")

    for v in gens:
        e = _entry(v)
        push(e)
        push(_neg_entry(e))

    queue = []  # pairwise sums, smallest l1 first
    in_queue = set()

    def enqueue_sums(e):
        v, _, _, flip = e
        for g, _, gmask, _ in basis:
            if not flip & gmask:
                continue  # a common orthant: v and g are conformal to v + g
            s = tuple(map(add, v, g))
            if not any(s):
                continue
            s = min(s, _neg(s))
            if s in in_queue:
                continue
            in_queue.add(s)
            heapq.heappush(queue, (_l1(s), s))

    for e in basis[::2]:
        enqueue_sums(e)

    while queue:
        _, s = heapq.heappop(queue)
        r = _normal_form(_entry(s), basis)
        if any(r):
            r = _entry(r)
            push(r)
            push(_neg_entry(r))
            enqueue_sums(r)

    return _minimal_filter(e[0] for e in basis)


def _incidence_arcs(a: IntMatrix):
    """The arc (tail, head) of each column when a is a node-arc incidence
    matrix, else None.

    Nodes are the rows and a ground node m.  A column holds entries in
    {-1, +1}, at most one of each sign: its -1 row is the tail, its +1 row
    the head, and a missing end is the ground node, so that a zero column
    is a loop at the ground node.  a is then the incidence matrix of that
    graph less the ground row, which is minus the sum of the other rows, so
    both have the same kernel.
    """
    ground = a.m
    tail = [ground] * a.n
    head = [ground] * a.n
    for (r, c), v in a.entries:
        if v == 1 and head[c] == ground:
            head[c] = r
        elif v == -1 and tail[c] == ground:
            tail[c] = r
        else:
            return None
    return list(zip(tail, head))


def _reach(nbr, goal, avoid):
    """Bitmask of the nodes joined to goal by a path that meets no node of
    the mask avoid (goal included); nbr[w] is the neighbour mask of node w."""
    seen = frontier = 1 << goal
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = new & ~avoid & ~seen
        seen |= frontier
    return seen


def _signed_cycles(arcs, nodes: int, max_elements: int):
    """Both signs of the signed simple cycles of a graph on nodes 0..nodes-1.

    A cycle traversed in one direction is the vector with +1 on its arcs
    run from tail to head, -1 on those run backwards and 0 elsewhere; a
    loop gives the unit vector of its arc.  Each cycle is found once, from
    its smallest arc e0 = (t0, h0): a depth-first search over the larger
    arcs for the paths from h0 back to t0 whose nodes are distinct.  It
    steps only to nodes joined to t0 by the larger arcs through nodes not on
    the path, so every branch it explores ends in a cycle.  With m + 1
    nodes and n arcs, a search node costs one breadth-first search, O(m)
    operations on node bitmasks, and a scan of its arcs, O(n); every search
    node lies at most m + 1 levels above a cycle, and writing out a cycle
    costs O(n), so the work is O(n (m + n)) for the starts and
    O(m (m + n)) per element.  No recursion: the search keeps its own stack.
    Stops with BudgetError as soon as the element count would pass
    max_elements.
    """
    n = len(arcs)
    adj = [[] for _ in range(nodes)]  # (x, e, sign of e run from w to x), e > e0
    nbr = [0] * nodes  # neighbour masks over the same arcs
    vec = [0] * n  # the signs of the current path's arcs
    out = []

    def emit():
        if len(out) + 2 > max_elements:
            raise BudgetError("Graver basis budget exceeded")
        v = tuple(vec)
        out.append(v)
        out.append(_neg(v))

    for e0 in range(n - 1, -1, -1):
        t0, h0 = arcs[e0]
        vec[e0] = 1
        if t0 == h0:
            emit()
            vec[e0] = 0
            continue
        if nbr[t0] and nbr[h0]:
            path = [(e0, h0)]  # (arc, node it leads to)
            used = 1 << h0
            reach = _reach(nbr, t0, used)
            stack = [iter([s for s in adj[h0] if reach >> s[0] & 1])]
            while stack:
                step = next(stack[-1], None)
                if step is None:
                    stack.pop()
                    e, x = path.pop()
                    vec[e] = 0
                    used ^= 1 << x
                    continue
                x, e, vec[e] = step
                if x == t0:
                    emit()
                    vec[e] = 0
                else:
                    path.append((e, x))
                    used |= 1 << x
                    reach = _reach(nbr, t0, used)
                    stack.append(iter([s for s in adj[x] if reach >> s[0] & 1]))
        vec[e0] = 0
        adj[t0].append((h0, e0, 1))
        adj[h0].append((t0, e0, -1))
        nbr[t0] |= 1 << h0
        nbr[h0] |= 1 << t0
    return out


def graver_basis(a: IntMatrix, max_elements: int = 200_000) -> GraverBasis:
    """Compute the Graver basis of a.

    A node-arc incidence matrix (see _incidence_arcs) is totally unimodular,
    and the Graver basis of a unimodular matrix is its set of circuits
    (Sturmfels, Groebner Bases and Convex Polytopes, 1996, Prop. 8.11); the
    circuits of an incidence matrix are the signed simple cycles of its
    graph, which _signed_cycles lists.  Every other matrix goes through the
    completion.  Exceeding ``max_elements`` raises BudgetError: for an
    incidence matrix it bounds the basis, for the completion the set it
    builds on the way.
    """
    if a.n == 0:
        return GraverBasis(a, frozenset())
    arcs = _incidence_arcs(a)
    if arcs is not None:
        return GraverBasis(a, frozenset(_signed_cycles(arcs, a.m + 1, max_elements)))
    return GraverBasis(a, frozenset(_pottier_completion(a, max_elements)))


def g1_norm(b: GraverBasis) -> int:
    """Largest l1-norm over the basis (0 for a trivial kernel)."""
    return max((_l1(v) for v in b.elements), default=0)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def _convex_argmin(f, lo: int, hi: int) -> int:
    """Smallest integer minimizer of a convex f on [lo, hi], by bisection
    on the discrete slope f(mid + 1) - f(mid)."""
    while lo < hi:
        mid = (lo + hi) // 2
        if f(mid + 1) >= f(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _smallest_minimizer(phi, lam_max: int) -> int:
    """Smallest integer minimizer of a convex phi on [1, lam_max].

    Doubling stops at lam_max or at the first hi with phi(2*hi) >= phi(hi).
    By convexity the smallest minimizer then lies in [hi//2, 2*hi]: phi fell
    on the last doubling step, which started at hi//2 or above, and does not
    fall past 2*hi.  Bisection on the discrete slope pins it in that bracket.
    """
    hi = 1
    while hi < lam_max and phi(min(2 * hi, lam_max)) < phi(hi):
        hi = min(2 * hi, lam_max)
    return _convex_argmin(phi, max(1, hi // 2), min(2 * hi, lam_max))


def graver_best_step(basis: GraverBasis, x, f, bounds):
    """Best augmenting pair (g, lambda), or None when x is Graver-optimal.

    f must be linear or separable convex so that f(x + lambda*g) is convex
    in lambda.  Ties on improvement go to the lexicographically smallest g
    (and then the smallest lambda).
    """
    lower, upper = bounds
    if any(not lower[i] <= x[i] <= upper[i] for i in range(len(x))):
        raise ValueError("point violates variable bounds")
    fx = f(x)
    best = None  # (improvement, g, lam)
    for g in sorted(basis.elements):
        lam_max = None
        for i, gi in enumerate(g):
            if gi > 0:
                room = (upper[i] - x[i]) // gi
            elif gi < 0:
                room = (x[i] - lower[i]) // (-gi)
            else:
                continue
            lam_max = room if lam_max is None else min(lam_max, room)
        if lam_max is None or lam_max < 1:
            continue
        cache = {}

        def phi(lam, g=g):
            if lam not in cache:
                cache[lam] = f(tuple(xi + lam * gi for xi, gi in zip(x, g)))
            return cache[lam]

        lam = _smallest_minimizer(phi, lam_max)
        gain = fx - phi(lam)
        if gain > 0 and (best is None or gain > best[0]):
            best = (gain, g, lam)
    if best is None:
        return None
    return best[1], best[2]


@dataclass(frozen=True)
class AugmentResult:
    point: tuple
    value: object
    steps: int


def augment_to_optimum(x0, f, bounds, basis, max_steps=100_000) -> AugmentResult:
    """Apply Graver-best steps of basis until none improves; the fixpoint is
    optimal."""
    x = tuple(x0)
    steps = 0
    while True:
        move = graver_best_step(basis, x, f, bounds)
        if move is None:
            return AugmentResult(x, f(x), steps)
        g, lam = move
        x = tuple(xi + lam * gi for xi, gi in zip(x, g))
        steps += 1
        if steps > max_steps:
            raise BudgetError("augmentation step budget exceeded")


# ---------------------------------------------------------------------------
# stacked matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StackingReport:
    g1_stack: int
    g1_lower: int
    g1_projected: int
    bound: int
    holds: bool


def stacking_check(f: IntMatrix, l: IntMatrix, max_elements: int = 200_000) -> StackingReport:
    """Compare g1(stack(F, L)) against the product bound g1(F.G(L)) * g1(L).

    F.G(L) is the matrix whose columns are F applied to the Graver basis
    elements of L (duplicates collapsed).
    """
    if f.n != l.n:
        raise ValueError("column counts differ")
    basis_stack = graver_basis(f.stack(l), max_elements=max_elements)
    basis_l = graver_basis(l, max_elements=max_elements)
    cols = sorted(set(tuple(f.mul_vec(list(g))) for g in basis_l.elements))
    projected = IntMatrix.from_dict(
        f.m, len(cols), {(r, j): col[r] for j, col in enumerate(cols) for r in range(f.m) if col[r]}
    )
    basis_projected = graver_basis(projected, max_elements=max_elements)
    g1_stack = g1_norm(basis_stack)
    g1_l = g1_norm(basis_l)
    g1_p = g1_norm(basis_projected)
    bound = g1_p * g1_l
    return StackingReport(g1_stack, g1_l, g1_p, bound, g1_stack <= bound)
