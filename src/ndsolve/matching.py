"""Maximum bipartite matching with capacitated right-hand vertices.

Kuhn's augmenting-path scheme; a right vertex r may absorb up to
capacity[r] left vertices, which is equivalent to matching against
capacity[r] copies of r.  Deterministic: left vertices and neighbor lists
are processed in sorted order, each list sorted once per call.  The search
for an augmenting path keeps its own stack, one level per left vertex on
the path, so no interpreter recursion limit bounds the path's length.
"""

from __future__ import annotations


def max_bipartite_matching(left, adj, capacity):
    """Match each left vertex to a right vertex from adj[l].

    Returns (size, assignment) where assignment maps matched left vertices
    to their right vertex and size = len(assignment).

    The path from a root is a stack of levels: a left vertex, the iterator
    of its neighbors still to try, the right vertex it tries, and the
    iterator of that vertex's occupants still to move; the top level is
    held in locals.  Each right vertex is tried once per root.  When a
    tried vertex has a free slot, every left vertex on the path takes the
    right vertex it tries, which the left vertex of the level above leaves.
    """
    assigned = {}
    load = {}
    order = sorted(left)
    neighbors = {l: sorted(adj.get(l, ())) for l in order}
    done = iter(())

    for root in order:
        visited = set()
        path = []
        l, rs = root, iter(neighbors[root])
        while True:
            for r in rs:
                if r not in visited and capacity.get(r, 0) != 0:
                    break
            else:
                # no path through l: move the next occupant of the level
                # below, or go on with that level's own neighbors
                if not path:
                    break
                below = path[-1]
                for l in below[3]:
                    rs = iter(neighbors[l])
                    break
                else:
                    path.pop()
                    l, rs = below[0], below[1]
                continue
            visited.add(r)
            occupants = load.get(r, ())
            if len(occupants) < capacity[r]:
                assigned[l] = r
                load.setdefault(r, []).append(l)
                for below, _, r, _ in reversed(path):
                    slot = load[r]
                    slot.remove(l)
                    slot.append(below)
                    assigned[below] = r
                    l = below
                break
            # load does not change while the search walks its lists
            path.append((l, rs, r, iter(occupants)))
            rs = done  # the next turn moves r's first occupant
    return len(assigned), assigned
