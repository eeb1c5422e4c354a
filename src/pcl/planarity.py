"""The left-right planarity test on integer arrays.

de Fraysseix, Ossona de Mendez and Rosenstiehl, "Trémaux trees and
planarity" (2006); Brandes, "The left-right planarity test" (2009).

``lr_planarity`` follows networkx 3.6.1's non-recursive
``LRPlanarity.lr_planarity`` step for step, so the rotation it returns is
``check_planarity(G)[1].neighbors_cw_order`` exactly, where G is the
``networkx.Graph`` built by adding the same edges in the same order to the
vertices 0..n-1.  What fixes that rotation:

- the graph is copied twice: once in edge order, loops and repeats
  dropped, and once more in the first copy's ``G.edges`` order, which
  reorders the neighbour lists (``simple_neighbours``, then the second
  copy in ``lr_planarity``);
- a graph with more than 3n - 6 edges is refused before any search;
- the out-edges of a vertex are sorted stably by nesting depth, once
  before and once after the sides are resolved;
- a conflict pair is recognised as the stack bottom by identity;
- a vertex's clockwise list starts at its leftmost neighbour, which moves
  only when a half-edge is inserted right before it.

Vertices are ints 0..n-1 and edges are numbered in the second copy's
order; the depth-first search orients each edge from ``src`` to ``dst``.
"No edge" is -1 (networkx's None), and ``lowpt`` and ``ref`` carry a spare
slot at the end, which -1 addresses: networkx files some references under
the key None and never reads them.  A conflict pair is a list [left low,
left high, right low, right high]; an interval is empty when both of its
ends are -1.
"""

from __future__ import annotations

from collections.abc import Iterable


def simple_neighbours(n: int,
                      edges: Iterable[tuple[int, int]]) -> list[dict[int, None]]:
    """Each vertex's neighbours in the order edges first join them, loops
    and repeated pairs dropped: ``networkx.Graph``'s adjacency order."""
    adj: list[dict[int, None]] = [{} for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u][v] = None
            adj[v][u] = None
    return adj


def lr_planarity(n: int, edges: Iterable[tuple[int, int]],
                 embed: bool = True) -> list[list[int]] | bool | None:
    """Each vertex's neighbours in clockwise order in a plane embedding of
    the simple graph underlying ``edges`` on the vertices 0..n-1, or None
    if it is not planar.  With ``embed=False`` only the verdict, True or
    False, after the testing phase.  Iterative; O(n + m log m)."""
    # the second copy: edge u-v, u < v, at u's turn, so each list is its
    # smaller neighbours in increasing order, then its larger ones in the
    # first copy's order
    inc: list[list[int]] = [[] for _ in range(n)]  # edge ids at v
    ends: list[int] = []  # u + v of edge u-v
    for u, nbrs in enumerate(simple_neighbours(n, edges)):
        for v in nbrs:
            if v > u:
                inc[u].append(len(ends))
                inc[v].append(len(ends))
                ends.append(u + v)
    m = len(ends)
    if n > 2 and m > 3 * n - 6:
        return None if embed else False

    # -- orientation: DFS, heights, lowpoints, nesting depths -------------
    height = [-1] * n
    parent = [-1] * n  # the tree edge into v
    src = [-1] * m
    dst = [-1] * m
    lowpt = [0] * (m + 1)  # with the spare slot
    lowpt2 = [0] * m
    nest = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]  # oriented edges, in order
    ind = [0] * n
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            ks = inc[v]
            i = ind[v]
            while i < len(ks):
                k = ks[i]
                if src[k] < 0:  # orient v -> w
                    w = ends[k] - v
                    src[k] = v
                    dst[k] = w
                    out[v].append(k)
                    lowpt[k] = lowpt2[k] = hv
                    if height[w] < 0:  # tree edge: finish w first
                        parent[w] = k
                        height[w] = hv + 1
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[k] = height[w]  # back edge
                elif src[k] != v:  # oriented from the other end
                    i += 1
                    continue
                # else the tree edge from v whose subtree is finished
                lk = lowpt[k]
                nest[k] = 2 * lk + (lowpt2[k] < hv)  # +1 if chordal
                if e >= 0:
                    le = lowpt[e]
                    if lk < le:
                        lowpt2[e] = min(le, lowpt2[k])
                        lowpt[e] = lk
                    elif lk > le:
                        lowpt2[e] = min(lowpt2[e], lk)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[k])
                i += 1
            ind[v] = i
    del inc, ends, lowpt2

    # -- testing: constraints of the LR partition -----------------------------
    ordered = [sorted(ks, key=nest.__getitem__) for ks in out]
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [-1] * m
    bottom: list[list[int] | None] = [None] * m
    resume = bytearray(m)
    S: list[list[int]] = []

    def lowest(P: list[int]) -> int:
        if P[0] == -1 and P[1] == -1:
            return lowpt[P[2]]
        if P[2] == -1 and P[3] == -1:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def conflicting(low: int, high: int, b: int) -> bool:
        return (low != -1 or high != -1) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [-1, -1, -1, -1]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False
            if lowpt[Q[2]] > lowpt[e]:  # merge intervals
                if P[2] == -1 and P[3] == -1:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of the earlier siblings into
        # P's left interval
        while conflicting(S[-1][0], S[-1][1], ei) or \
                conflicting(S[-1][2], S[-1][3], ei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            # merge the interval below lowpt(ei) into P's right
            ref[P[2]] = Q[3]
            if Q[2] != -1:
                P[2] = Q[2]
            if P[0] == -1 and P[1] == -1:  # topmost interval
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P != [-1, -1, -1, -1]:
            S.append(P)
        return True

    def remove_back_edges(e: int) -> None:
        u = src[e]
        hu = height[u]
        # drop whole conflict pairs of back edges ending at u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] != -1:
                side[P[0]] = -1
        if S:  # trim the next one in place
            P = S[-1]
            while P[1] != -1 and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] == -1 and P[0] != -1:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = -1
            while P[3] != -1 and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] == -1 and P[2] != -1:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = -1
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:
            hl, hr = S[-1][1], S[-1][3]
            if hl != -1 and (hr == -1 or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent[v]
            hv = height[v]
            ks = ordered[v]
            i = ind[v]
            while i < len(ks):
                ei = ks[i]
                if not resume[ei]:
                    bottom[ei] = S[-1] if S else None
                    if parent[dst[ei]] == ei:  # tree edge
                        stack.append(v)
                        stack.append(dst[ei])
                        resume[ei] = 1
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([-1, -1, ei, ei])
                # integrate the new return edges
                if lowpt[ei] < hv:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None if embed else False
                i += 1
            else:
                if e >= 0:  # v is not a root
                    remove_back_edges(e)
            ind[v] = i
    if not embed:
        return True

    # -- embedding --------------------------------------------------------
    for e in range(m):  # resolve each side along its refs, then sign
        chain = []
        f = e
        while ref[f] != -1:
            chain.append(f)
            ref[f], f = -1, ref[f]
        s = side[f]
        for c in reversed(chain):
            s = side[c] = side[c] * s
        nest[e] *= side[e]
    ordered = [sorted(ks, key=nest.__getitem__) for ks in out]

    # half-edge 2e sits at src[e], 2e+1 at dst[e]; a circular list per vertex
    cw = [-1] * (2 * m)
    ccw = [-1] * (2 * m)
    leftmost = [-1] * n

    def insert_before(v: int, h: int, r: int) -> None:
        """h counterclockwise of r; h becomes leftmost if r was."""
        c = ccw[r]
        cw[h], ccw[h] = r, c
        cw[c] = ccw[r] = h
        if r == leftmost[v]:
            leftmost[v] = h

    def insert_after(h: int, r: int) -> None:
        """h clockwise of r."""
        c = cw[r]
        cw[h], ccw[h] = c, r
        ccw[c] = cw[r] = h

    for v, ks in enumerate(ordered):
        prev = -1
        for e in ks:
            h = 2 * e
            if prev < 0:
                cw[h] = ccw[h] = leftmost[v] = h
            else:
                insert_after(h, prev)
            prev = h

    ind = [0] * n
    left_ref = [-1] * n
    right_ref = [-1] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            ks = ordered[v]
            i = ind[v]
            while i < len(ks):
                ei = ks[i]
                i += 1
                w = dst[ei]
                h = 2 * ei + 1
                if parent[w] == ei:  # tree edge: v becomes w's leftmost
                    if leftmost[w] < 0:
                        cw[h] = ccw[h] = leftmost[w] = h
                    else:
                        insert_before(w, h, leftmost[w])
                    left_ref[v] = right_ref[v] = 2 * ei
                    stack.append(v)
                    stack.append(w)
                    break
                if side[ei] == 1:
                    insert_after(h, right_ref[w])
                else:
                    insert_before(w, h, left_ref[w])
                    left_ref[w] = h
            ind[v] = i

    rotation = []
    for v in range(n):
        nbrs = []
        h = start = leftmost[v]
        if h >= 0:
            while True:
                nbrs.append(dst[h >> 1] if not h & 1 else src[h >> 1])
                h = cw[h]
                if h == start:
                    break
        rotation.append(nbrs)
    return rotation
