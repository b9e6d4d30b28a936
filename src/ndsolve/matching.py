"""Maximum bipartite matching with capacitated right-hand vertices.

Kuhn's augmenting-path scheme; a right vertex r may absorb up to
capacity[r] left vertices, which is equivalent to matching against
capacity[r] copies of r.  Deterministic: left vertices and neighbor lists
are processed in sorted order, each list sorted once per call.
"""

from __future__ import annotations


def max_bipartite_matching(left, adj, capacity):
    """Match each left vertex to a right vertex from adj[l].

    Returns (size, assignment) where assignment maps matched left vertices
    to their right vertex and size = len(assignment).
    """
    assigned = {}
    load = {}
    order = sorted(left)
    neighbors = {l: sorted(adj.get(l, ())) for l in order}

    def place(l, r):
        assigned[l] = r
        load.setdefault(r, []).append(l)

    def try_augment(l, visited):
        for r in neighbors[l]:
            if r in visited or capacity.get(r, 0) == 0:
                continue
            visited.add(r)
            if len(load.get(r, ())) < capacity[r]:
                place(l, r)
                return True
            for occupant in list(load[r]):
                if try_augment(occupant, visited):
                    load[r].remove(occupant)
                    place(l, r)
                    return True
        return False

    try:
        for l in order:
            try_augment(l, set())
    finally:
        del try_augment  # it holds itself through its cell
    return len(assigned), assigned
