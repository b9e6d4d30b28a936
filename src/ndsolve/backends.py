"""Exact finite-domain IP backends.

solve_boxed is a depth-first branch-and-bound over the variable boxes in
index order with ascending values, so the first point attaining the optimal
value is the lexicographically smallest optimum.  It keeps its own stack,
one entry per variable, so no interpreter recursion limit bounds the number
of variables.  Its set-up is O(nnz + n):
one backward pass over each row's nonzeros builds a per-depth table whose
entry for variable d holds the checks of the rows with a nonzero at d,
each with the interval the row's later variables can add, so a node
narrows its variable's box by interval arithmetic over the unassigned
suffix with no table of rows x variables.  Objective pruning reads the
model's optional remainder hook, an admissible lower bound on the
objective still to come given point[:depth].  Every model minimizes (see
ipmodel), so no backend handles an orientation.  Linear and separable
objectives add the hook to their partial sum and take the larger of that
and the sum of the later variables' least values: slope bisection finds
those of separable convex terms, and the box ends those of linear terms.
Quadratic and general convex objectives do not separate, so their partial
sum is 0 and the hook alone bounds the whole objective, at every variable
but the last, whose leaves evaluate the objective itself; without a hook
they are enumerated.  The
hooks are the models' own: max-q-cut's, the n-fold colouring model's, and
models.catalog_remainder_bound, which the general convex catalog model and
the stacked one, whose catalog terms are 0, share.  A value is dropped when
its bound is >= the limit, the rule that keeps the first optimum found, so
the lexicographically smallest optimum is returned with or without the
hook.  The limit is the incumbent's value; a model's start point
(initial_point) valued V0 sets the first limit to V0 + 1, with no
incumbent point.  The result is the same as without the start and no node
is added (see solve_boxed).  solve_boxed takes every model.

solve_nfold runs iterative augmentation on models with an n-fold block
annotation.  Each step is a brick DP over the moves within the box, keeping
only states that can still return to zero: the moves per brick are the
A2-kernel vectors with infinity-norm at most the largest box width W, the DP
state is the running sum of A1 times the chosen moves, packed into one int,
and a state is kept only while the bricks still to come can bring that sum
back to zero.  A step is taken only when the sum ends at zero, the box
holds, and the objective strictly decreases.  This is exact, since every
Graver element of the full n-fold matrix that moves a point within the box
is such a step (see solve_nfold).

solve_nfold and solve_augment need a linear or separable convex objective,
as augmentation is exact only for those, linear rows only, and a start
point that satisfies the boxes and rows, as augmentation walks from one:
they reject quadratic and general convex objectives, convex rows and a
missing or broken start with ValueError, so neither returns infeasible.
solve_nfold also needs the n-fold annotation, and solve_augment equality
rows only.

Every optimal result of the three backends is certified before it is
returned: its point is checked against the boxes, the rows and the convex
rows, and its objective is recomputed from the model and compared with the
value the backend reached (_certify, which raises RuntimeError).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import lshift, mul, sub

from .errors import BudgetError
from .graver import augment_to_optimum, graver_basis, _convex_argmin, _kernel_vectors_within
from .ipmodel import EQ, GE, LE, IpModel, Linear, SeparableConvex
from .lp import solve_lp  # noqa: F401  (bench/run.py and bench/spans.py hook this name)


@dataclass(frozen=True)
class Budget:
    """Work limits; a solve that reaches one raises BudgetError.

    max_nodes bounds the branch-and-bound nodes of solve_boxed and the nodes
    of the A2-kernel enumeration in solve_nfold.  max_dp_states bounds the
    states of one layer of the n-fold brick DP; it counts the states that
    survive, those from which the remaining bricks can still return to zero.
    max_steps bounds the augmentation steps.
    """

    max_nodes: int = 50_000_000
    max_dp_states: int = 2_000_000
    max_steps: int = 100_000


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "infeasible"
    point: tuple | None
    value: object
    nodes: int

    @property
    def optimal(self):
        return self.status == "optimal"


def _holds(row, lhs) -> bool:
    """Whether a row whose left-hand side is lhs is satisfied."""
    return (row.rel == GE or lhs <= row.rhs) and (row.rel == LE or lhs >= row.rhs)


def _is_feasible(model: IpModel, point) -> bool:
    """Whether point lies in the boxes and satisfies every row and convex row."""
    if not all(lo <= v <= hi for v, lo, hi in zip(point, model.lower, model.upper)):
        return False
    return all(
        _holds(row, sum(c * point[i] for i, c in row.coeffs)) for row in model.rows
    ) and all(cr.fn(point) <= 0 for cr in model.convex_rows)


def _certify(model: IpModel, point, claimed):
    """The model's objective value at point, once point is seen to satisfy
    the boxes, the rows and the convex rows and that value equals claimed,
    the value the backend reached; raises RuntimeError otherwise.  Every
    optimal result passes through here."""
    if not _is_feasible(model, point):
        raise RuntimeError("solver ended at a point that breaks a box or a row of the model")
    value = model.objective_value(point)
    if value != claimed:
        raise RuntimeError(f"solver reached objective {claimed}, but the point's is {value}")
    return value


def _ceil_div(a, b):
    return -((-a) // b)


def _unary_min(f, lo, hi):
    """Minimum of a convex integer function on [lo, hi] by slope bisection."""
    return f(_convex_argmin(f, lo, hi))


def _end_min(f, lo, hi):
    """Minimum of a concave integer function on [lo, hi], taken at an end."""
    return min(f(lo), f(hi))


def _objective_terms(model: IpModel, backend: str | None = None):
    """The per-variable evaluation rules of a linear or separable convex
    objective, or None when the objective does not separate; with a backend
    named, ValueError names it instead of None, as augmentation is exact
    only for those objectives."""
    obj = model.objective
    if isinstance(obj, Linear):
        return [(lambda v, c=c: c * v) for c in obj.coeffs]
    if isinstance(obj, SeparableConvex):
        return list(obj.terms)
    if backend is not None:
        raise ValueError(f"{backend} needs a linear or separable convex objective")
    return None


def solve_boxed(model: IpModel, budget: Budget | None = None) -> SolveResult:
    """Exact optimum over the box by depth-first branch-and-bound.

    Takes every model, whatever its objective, rows and convex rows.
    Returns the lexicographically smallest optimal point; raises BudgetError
    when the node budget runs out, and ValueError when it finds no leaf
    valued below V0 + 1, V0 being the value of a start point that breaks a
    box, a row or a convex row.  Every node counts against budget.max_nodes, the root and
    the leaves included.

    The set-up is O(nnz + n): one backward pass over each row's nonzeros
    gives, per depth, the checks (row, coef, rhs, upper side?, lower side?,
    rest_lo, rest_hi) of the rows that hold that variable, rest_lo and
    rest_hi being the least and the greatest the row's later variables can
    add.  The search keeps its own stack, not the interpreter's: one loop
    over the depths, with per depth the iterator of the values still to walk
    and the objective of point[:d].  A node at depth d narrows variable d's
    box by those checks, then walks its values in ascending order, going
    down a level at each value it keeps and undoing that value's activity
    updates when it comes back; a value whose box breaks a convex row's
    box_min is dropped, and so is one whose objective bound is >= the
    limit.  The limit is the incumbent's value; with a start point valued
    V0, the first limit is V0 + 1, with no incumbent point.  A leaf valued
    below the limit becomes the incumbent.  The start itself is checked
    only when the search ends with no leaf.  The children at the last
    variable are leaves, evaluated in their parent's value loop.  The
    per-variable least values behind the suffix minima come from slope
    bisection for separable convex terms and from the box ends for linear
    terms.  At a level whose term is linear with a coefficient >= 0,
    partial + term(v) + rest_min does not fall as v rises, and the limit
    does not change while no child is searched, so once that sum alone
    drops a value it drops every later one: the loop ends there, and the
    tree is the same.

    Why the start changes neither the result nor the tree.  Call a leaf
    good when it satisfies the boxes, the rows and the convex rows.  Every
    bound is admissible, so a dropped value's subtree holds only good
    leaves valued at least its bound.  Any first limit L above V0 will do,
    and the argument assumes no integer values.  A good start is a good
    leaf valued below L, so the lexicographically smallest optimum x*, of
    value V*, is valued below L as well.  Every good leaf before x* is
    valued above V*, so every limit before x* is, while the bounds on the
    path to x* are <= V*: x* is accepted, and no later leaf is valued below
    it.  The result is x*, as without the start.  If no leaf is accepted,
    the start is no good leaf, and ValueError says so (a good start missed
    means a bound was not admissible: RuntimeError).  Walk both searches in
    the same order to a node p.  A good leaf the unseeded search has
    visited is valued no lower than the seeded limit now: the seeded search
    has visited it, or dropped it in a subtree at a limit no lower, as
    limits only fall.  So the unseeded limit, the least value of those
    leaves (none before the first), is no lower than the seeded one, and
    each value the seeded search keeps the unseeded one keeps.  The row
    checks and box_min tests read no limit.  So the start adds no node.  With the integer
    objective values and bounds of every model here, L = V0 + 1 drops
    exactly the values whose bound is above V0.
    """
    budget = budget or Budget()
    n = model.n_vars
    lower, upper = model.lower, model.upper
    terms = _objective_terms(model)
    value_of = model.objective.value
    hook = model.remainder_bound
    convex_rows = model.convex_rows
    rows = model.rows
    # constant rows are never reached by the row checks
    if not all(_holds(row, 0) for row in rows if not row.coeffs):
        return _no_leaf(model, 0)

    checks = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        up, low = row.rel != GE, row.rel != LE
        rest_lo = rest_hi = 0
        for i, c in sorted(row.coeffs, reverse=True):
            checks[i].append((r, c, row.rhs, up, low, rest_lo, rest_hi))
            a, b = c * lower[i], c * upper[i]
            rest_lo += min(a, b)
            rest_hi += max(a, b)
    # per depth: box, term, least objective of the later variables, hook
    # (the last variable's leaf evaluates a non-separable objective itself),
    # row checks, activity updates (none at the last: no check reads them)
    # and whether the term is linear and does not fall as the value rises
    last = n - 1
    least = _unary_min if isinstance(model.objective, SeparableConvex) else _end_min
    rising = ([c >= 0 for c in model.objective.coeffs]
              if isinstance(model.objective, Linear) else [False] * n)
    rest_min = 0
    levels = [None] * n
    for d in range(last, -1, -1):
        term = None if terms is None else terms[d]
        level_hook = hook if term is not None or d < last else None
        updates = () if d == last else tuple((r, c) for r, c, *_ in checks[d])
        levels[d] = (lower[d], upper[d], term, rest_min, level_hook, tuple(checks[d]), updates,
                     rising[d])
        if term is not None:
            rest_min += least(term, lower[d], upper[d])

    ceil_div = _ceil_div
    max_nodes = budget.max_nodes
    acts = [0] * len(rows)
    point = [0] * n
    lo_box = list(lower)
    hi_box = list(upper)
    nodes = 1  # the root
    if nodes > max_nodes:
        raise BudgetError("branch-and-bound node budget exceeded")
    # the limit: the start's value + 1 until the first leaf, None with no start
    start = model.initial_point
    best_val = None if start is None else value_of(start) + 1
    best_pt = None

    if n:
        its = [None] * n  # per depth, the values still to walk
        partials = [0] * n  # per depth, the objective of point[:d], 0 when it does not separate
        d = partial = new = 0  # new stays 0 when the objective does not separate
        down = True  # whether the loop reaches d from its parent (else from its child)
        while True:
            vlo, vhi, term, rest_min, level_hook, row_checks, updates, rising = levels[d]
            if down:
                for r, c, rhs, up, low, rest_lo, rest_hi in row_checks:
                    base = rhs - acts[r]
                    if up:  # c*v <= base - rest_lo
                        if c > 0:
                            t = (base - rest_lo) // c
                            if t < vhi:
                                vhi = t
                        else:
                            t = ceil_div(base - rest_lo, c)
                            if t > vlo:
                                vlo = t
                    if low:  # c*v >= base - rest_hi
                        if c > 0:
                            t = ceil_div(base - rest_hi, c)
                            if t > vlo:
                                vlo = t
                        else:
                            t = (base - rest_hi) // c
                            if t < vhi:
                                vhi = t
                its[d] = iter(range(vlo, vhi + 1))
                partials[d] = partial
                down = False
            else:  # back from a child: undo its value's activity updates
                partial = partials[d]
                v = point[d]
                for r, c in updates:
                    acts[r] -= c * v
            for v in its[d]:
                point[d] = v
                if term is not None:
                    new = partial + term(v)
                    if best_val is not None:
                        if new + rest_min >= best_val:
                            if rising:
                                break  # so do the later values, whose new is no less
                            continue
                        if level_hook is not None and new + level_hook(point, d + 1) >= best_val:
                            continue
                elif level_hook is not None and best_val is not None:
                    if level_hook(point, d + 1) >= best_val:
                        continue
                if convex_rows:
                    lo_box[d] = hi_box[d] = v
                    if any(cr.box_min(lo_box, hi_box) > 0 for cr in convex_rows):
                        continue
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetError("branch-and-bound node budget exceeded")
                if d == last:
                    if convex_rows and any(cr.fn(point) > 0 for cr in convex_rows):
                        continue
                    val = new if term is not None else value_of(point)
                    if best_val is not None and val >= best_val:
                        continue
                    best_val = val
                    best_pt = tuple(point)
                else:
                    for r, c in updates:
                        acts[r] += c * v
                    down = True
                    break
            if down:
                d += 1
                partial = new
                continue
            # d has no value left: back to its parent
            if convex_rows:
                lo_box[d] = lower[d]
                hi_box[d] = upper[d]
            if not d:
                break
            d -= 1
    elif all(cr.fn(point) <= 0 for cr in convex_rows):
        best_val, best_pt = (0 if terms is not None else value_of(point)), ()
    if best_pt is None:
        return _no_leaf(model, nodes)
    return SolveResult("optimal", best_pt, _certify(model, best_pt, best_val), nodes)


def _no_leaf(model: IpModel, nodes):
    """The result of a solve_boxed search that accepted no leaf: infeasible
    when the model has no start point.  A start that breaks a box, a row or
    a convex row raises ValueError; a start that satisfies them all is a
    leaf below the first limit, its value + 1, so RuntimeError says that a
    bound was not admissible."""
    if model.initial_point is None:
        return SolveResult("infeasible", None, None, nodes)
    if not _is_feasible(model, model.initial_point):
        raise ValueError("initial point breaks a box, a row or a convex row")
    raise RuntimeError("the search pruned the feasible start point: a bound is not admissible")


# ---------------------------------------------------------------------------
# n-fold augmentation backend
# ---------------------------------------------------------------------------

def _start(model: IpModel, backend: str):
    """The model's start point, which augmentation walks from; ValueError
    when there is none or it breaks a box, a row or a convex row."""
    x = model.initial_point
    if x is None:
        raise ValueError(f"{backend} needs a start point (initial_point)")
    if not _is_feasible(model, x):
        raise ValueError("initial point breaks a box, a row or a convex row")
    return x


def solve_nfold(model: IpModel, budget: Budget | None = None) -> SolveResult:
    """Exact augmentation over the n-fold block structure.

    Needs the n-fold annotation, linear rows only, a linear or separable
    convex objective and a feasible start point.  Let W be the largest box width max(u - l).  The
    moves per brick are the zero vector and every h with A2 h = 0 and
    ||h||_inf <= W; each step is the best choice of one move per brick that
    stays in the box and whose A1-parts cancel, found by a DP over bricks,
    at step length 1.

    Why the fixpoint is optimal: if x is feasible and x* is a better point,
    x* - x is a conformal sum of Graver elements g_i of the full n-fold
    matrix, each x + g_i is feasible, and for a separable convex objective
    some g_i improves on x.  Each brick of g_i is an A2-kernel vector with
    ||.||_inf <= W, as |g_i| <= |x* - x| <= u - l, and the A1-parts of its
    bricks sum to zero, so the DP sees g_i.  A longer feasible step
    lambda*h is itself such a move, so no step length needs a search.  Each
    step strictly lowers the objective over a finite box, so the loop ends.

    Why the pruning changes nothing: per A1 row, let [lo_b, hi_b] be the
    range of sums that bricks b.. can add, the sum of the least and of the
    greatest A1-part among each brick's moves.  A state sigma after brick b
    is dropped unless -sigma lies in the range of bricks b+1...  That range
    is the range of brick b+1's keys plus the range of bricks b+2.., so a
    dropped state has only dropped successors, and a kept state has only
    kept predecessors.  Every kept state therefore gets the same value and
    back-pointer as without the pruning, written in the same order (states
    in sorted order, each brick's keys in sorted order, the first best
    kept).  The step chosen, the final point, the lexicographic tie-breaking
    and the step count are the same.  The A2-kernel enumeration is bounded
    by budget.max_nodes.

    Why the packing changes nothing: a state, the A1 sum of the moves of
    the bricks so far, is held as one int, the sum of one field per A1 row
    shifted into place, row 0 in the highest.  Let R be the largest
    |A1-part| of a move in a row; the move set is symmetric (h and -h), so
    -R is the least A1-part and n*R the row's bias.  A state after b <= n
    bricks, and every window bound (the bricks after the first add at most
    (n - 1)*R), lies in [-n*R, n*R], so biased it lies in [0, 2*n*R] and
    fits bit_length(2*n*R) bits, under one guard bit that stays 0.  A key,
    the packed A1-part of a move, is the sum of its unbiased, possibly
    negative, rows shifted alike, so a transition is the one addition
    sigma + key, and its sum is the packed new state.  As no field leaves
    its range, comparing two states compares their rows in order: int order
    is tuple order, so the sorted states, the sorted keys and the first best
    kept are those of tuples.  Setting every guard bit G of one operand,
    the subtraction (new | G) - lo borrows inside each field only, and
    leaves a field's guard bit set exactly when that field of new is at
    least that of lo; so ((new | G) - lo) & G == G and
    ((hi | G) - new) & G == G test every row of the window at once.  The
    DP forms sigma + (G - lo) and (hi + G) - sigma once per state, so a
    (state, key) pair costs one addition and one subtraction before its
    test, and a kept state stores only the state it came from: the move is
    the one kept for the key new - sigma.

    The objective change of a move is summed from one table per coordinate
    and step, the change of each value within the coordinate's box, so no
    term is evaluated outside its box.
    """
    if model.nfold is None:
        raise ValueError("model carries no n-fold annotation")
    if model.convex_rows:
        raise ValueError("n-fold backend needs linear rows only")
    budget = budget or Budget()
    nf = model.nfold
    n, t = nf.n, nf.t
    fns = _objective_terms(model, "n-fold backend")
    lower, upper = model.lower, model.upper

    x = list(_start(model, "n-fold backend"))

    width = max(map(sub, upper, lower), default=0)
    moves = sorted([(0,) * t] + _kernel_vectors_within(nf.a2, width, budget.max_nodes))
    # per A1 row, the A1-part of each move; the packing layout is built
    # from the lowest field, the last row's, up
    a1_parts = [[sum(map(mul, row, h)) for h in moves] for row in nf.a1.to_rows()]
    shifts = []
    shift = guard = origin = 0
    for col in reversed(a1_parts):
        bias = n * max(map(abs, col))
        shifts.append(shift)
        origin += bias << shift  # the packed zero state
        shift += (2 * bias).bit_length() + 1
        guard |= 1 << (shift - 1)
    shifts.reverse()

    def pack(part):
        return sum(map(lshift, part, shifts))

    part_of = {}  # packed A1-part -> A1-part
    move_list = []  # per move: (move, packed A1-part, non-zero (coordinate, value) pairs)
    for h, part in zip(moves, zip(*a1_parts) if a1_parts else [()] * len(moves)):
        key = pack(part)
        part_of[key] = part
        move_list.append((h, key, tuple(compress(enumerate(h), h))))

    def improve():
        """Take the best strictly improving step, if there is one, and return
        its objective change (0 when there is none)."""
        tables = []  # per coordinate: move value -> objective change, inside the box only
        for f, v, l, u in zip(fns, x, lower, upper):
            f0 = f(v)
            tables.append({d: f(v + d) - f0 for d in range(l - v, u - v + 1) if d})
        per_brick = []  # per brick: packed A1-part -> (objective change, move), best change kept
        for b in range(n):
            change = tables[b * t:(b + 1) * t]
            cands = {}
            for h, key, support in move_list:
                delta = 0
                for j, d in support:
                    c = change[j].get(d)
                    if c is None:
                        break  # the move leaves the box
                    delta += c
                else:
                    best = cands.get(key)
                    if best is None or delta < best[0]:
                        cands[key] = (delta, h)
            per_brick.append(cands)
        if all(len(c) == 1 and next(iter(c.values()))[0] >= 0 for c in per_brick):
            return 0  # every brick is pinned to a non-improving move
        # window[b]: the packed least and greatest A1 sums a state after
        # brick b may hold and still return to zero over bricks b+1..
        lo = hi = origin
        window = [(lo, hi)]
        for cands in per_brick[:0:-1]:
            cols = list(zip(*map(part_of.__getitem__, cands)))
            lo -= pack(map(max, cols))
            hi -= pack(map(min, cols))
            window.append((lo, hi))
        window.reverse()
        layers = []
        states = {origin: 0}
        for cands, (lo, hi) in zip(per_brick, window):
            items = sorted(cands.items())
            # new = sigma + key holds no guard bit, so (new | G) - lo is
            # sigma + (G - lo) + key and (hi | G) - new is (hi + G - sigma) - key
            floor, ceiling = guard - lo, hi + guard
            nxt = {}
            back = {}  # new state -> the state it came from
            for sigma in sorted(states):
                sdelta = states[sigma]
                above, below = sigma + floor, ceiling - sigma
                for key, (delta, _) in items:
                    if (above + key) & (below - key) & guard != guard:
                        continue  # bricks b+1.. cannot bring new back to zero
                    new = sigma + key
                    cand = sdelta + delta
                    old = nxt.get(new)
                    if old is None or cand < old:
                        nxt[new] = cand
                        back[new] = sigma
            if len(nxt) > budget.max_dp_states:
                raise BudgetError("n-fold DP state budget exceeded")
            layers.append(back)
            states = nxt
        if origin not in states or states[origin] >= 0:
            return 0
        sigma = origin
        for b in range(n - 1, -1, -1):
            prev = layers[b][sigma]
            h = per_brick[b][sigma - prev][1]
            sigma = prev
            for j, d in enumerate(h):
                x[b * t + j] += d
        return states[origin]

    value = model.objective_value(x)
    steps = 0
    while delta := improve():
        value += delta
        steps += 1
        if steps > budget.max_steps:
            raise BudgetError("n-fold augmentation step budget exceeded")

    x = tuple(x)
    return SolveResult("optimal", x, _certify(model, x, value), steps)


# ---------------------------------------------------------------------------
# explicit Graver augmentation backend
# ---------------------------------------------------------------------------

_BASIS_CACHE = {}


def cached_graver_basis(matrix):
    """graver_basis of the matrix (the signed simple cycles of a node-arc
    incidence matrix, the completion for any other), memoized on the exact
    matrix.  Every entry is computed under graver_basis's default element
    budget, so a hit answers the call it would have made."""
    key = (matrix.m, matrix.n, matrix.entries)
    hit = _BASIS_CACHE.get(key)
    if hit is None:
        hit = _BASIS_CACHE[key] = graver_basis(matrix)
    return hit


def clear_graver_cache():
    _BASIS_CACHE.clear()


def solve_augment(model: IpModel, budget: Budget | None = None) -> SolveResult:
    """Graver-best augmentation over the model's full constraint matrix.

    Needs equality rows only, a linear or separable convex objective and a
    feasible start point.  The basis comes from cached_graver_basis: the signed simple cycles when
    the matrix is a node-arc incidence matrix, else the completion, cached
    because models built from the same type-graph shape share their matrix.
    """
    budget = budget or Budget()
    if any(row.rel != EQ for row in model.rows) or model.convex_rows:
        raise ValueError("augmentation needs a pure equality standard form")
    _objective_terms(model, "augmentation")

    x0 = _start(model, "augmentation")
    basis = cached_graver_basis(model.matrix())
    res = augment_to_optimum(x0, model.objective.value, (model.lower, model.upper), basis,
                             max_steps=budget.max_steps)
    return SolveResult("optimal", res.point, _certify(model, res.point, res.value), res.steps)
