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
  reorders the neighbour lists
  (``simple_neighbours``, then the second copy in ``lr_planarity``);
- the out-edges of a vertex are sorted stably by nesting depth, once
  before and once after the sides are resolved;
- a conflict pair is recognised as the stack bottom by identity;
- a vertex's clockwise list starts at its leftmost neighbour, which moves
  only when a half-edge is inserted right before it.

The verdict does not depend on the order of the neighbours, so the
verdict entry ``is_planar`` takes each vertex's neighbours as a collection
(a set, say) and makes no copy.  Either entry refuses a graph with more than 3n' - 6
edges, n' > 2 the vertices that have an edge, before any search.

Vertices are ints 0..n-1.  One depth-first search orients each edge from
``src`` to ``dst`` and numbers the edges in the order it orients them, so
a vertex's out-edges are numbered in its neighbour order and a stable sort
of all edges sorts each vertex's.  "No edge" is -1 (networkx's None), and
``lowpt`` and ``ref`` carry a spare slot at the end, which -1 addresses:
networkx files some references under the key None and never reads them.
A conflict pair is a list [left low, left high, right low, right high];
an interval is empty when both of its ends are -1.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence


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


def lr_planarity(n: int,
                 edges: Iterable[tuple[int, int]]) -> list[list[int]] | None:
    """Each vertex's neighbours in clockwise order in a plane embedding of
    the simple graph underlying ``edges`` on the vertices 0..n-1, or None
    if it is not planar.  Iterative; O(n + m log m)."""
    adj = simple_neighbours(n, edges)
    # the second copy: edge u-v, u < v, at u's turn, so each list is its
    # smaller neighbours in increasing order, then its larger ones in the
    # first copy's order
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, ws in enumerate(adj):
        for v in ws:
            if v > u:
                nbrs[u].append(v)
                nbrs[v].append(u)
    return _left_right(nbrs, True)


def is_planar(adj: Sequence[Collection[int]]) -> bool:
    """Whether the simple graph with neighbours ``adj[v]`` of each vertex
    v is planar: the testing phase of the left-right test, on the
    collections as given (sets, say), in any order of their members."""
    return _left_right(adj, False)


def _left_right(adj: Sequence[Collection[int]],
                embed: bool) -> list[list[int]] | bool | None:
    n = len(adj)
    m = sum(map(len, adj)) // 2
    used = sum(map(bool, adj))  # vertices with an edge
    if used > 2 and m > 3 * used - 6:
        return None if embed else False

    # -- orientation: DFS, heights, lowpoints, nesting depths -------------
    # An edge v-w met at v is a tree edge if w is unvisited, already
    # oriented if w is deeper or v's parent, and otherwise a back edge to
    # an ancestor: a simple graph's non-tree edges join ancestor and
    # descendant.
    height = [-1] * n
    parent = [-1] * n  # the tree edge into v
    src = [-1] * m
    dst = [-1] * m
    lowpt = [0] * (m + 1)  # with the spare slot
    lowpt2 = [0] * m
    nest = [0] * m
    roots = []
    k = 0  # the next edge id
    for root in range(n):
        if height[root] >= 0 or not adj[root]:
            continue
        height[root] = 0
        roots.append(root)
        # v at height hv, its neighbours still to meet, its tree edge e
        # from its parent pv; the same of each vertex above it in ``up``
        v, it, e, pv, hv = root, iter(adj[root]), -1, -1, 0
        up = []
        while True:
            for w in it:
                hw = height[w]
                if hw < 0:  # tree edge v -> w: finish w first
                    src[k] = v
                    dst[k] = w
                    lowpt[k] = lowpt2[k] = hv
                    parent[w] = k
                    up.append((v, it, e, pv))
                    v, it, e, pv = w, iter(adj[w]), k, v
                    hv += 1
                    height[w] = hv
                    k += 1
                    break
                if hw > hv or w == pv:  # oriented from w already
                    continue
                # back edge v -> w: lowpt hw, lowpt2 hv, not chordal; e's
                # lowpt2 is below hv already
                src[k] = v
                dst[k] = w
                lowpt[k] = hw
                lowpt2[k] = hv
                nest[k] = 2 * hw
                le = lowpt[e]
                if hw < le:
                    lowpt2[e] = le
                    lowpt[e] = hw
                elif le < hw < lowpt2[e]:
                    lowpt2[e] = hw
                k += 1
            else:  # v is finished: back to its parent
                if not up:
                    break
                t = e
                v, it, e, pv = up.pop()
                lt = lowpt[t]
                l2 = lowpt2[t]
                nest[t] = 2 * lt + (l2 < hv - 1)  # +1 if chordal
                hv -= 1
                if e >= 0:
                    le = lowpt[e]
                    if lt < le:
                        lowpt2[e] = le if le < l2 else l2
                        lowpt[e] = lt
                    else:
                        if lt == le:
                            lt = l2
                        if lt < lowpt2[e]:
                            lowpt2[e] = lt
    del lowpt2

    # -- testing: constraints of the LR partition -----------------------------
    ordered = _out_edges(n, src, nest)
    ref = [-1] * (m + 1)
    side = [1] * m
    lowpt_edge = [-1] * m
    S: list[list[int]] = []

    def lowest(P: list[int]) -> int:
        if P[0] == -1 and P[1] == -1:
            return lowpt[P[2]]
        if P[2] == -1 and P[3] == -1:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei: int, e: int, bottom: list[int] | None) -> bool:
        P = [-1, -1, -1, -1]
        le = lowpt[e]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] != -1 or Q[1] != -1:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] != -1 or Q[1] != -1:
                return False
            if lowpt[Q[2]] > le:  # merge intervals
                if P[2] == -1 and P[3] == -1:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge the conflicting return edges of the earlier siblings into
        # P's left interval; an interval conflicts with ei if its high end
        # returns above lowpt(ei), and an empty one reads the spare slot's 0
        li = lowpt[ei]
        while lowpt[S[-1][1]] > li or lowpt[S[-1][3]] > li:
            Q = S.pop()
            if lowpt[Q[3]] > li:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if lowpt[Q[3]] > li:
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

    for root in roots:
        # v at height hv, its out-edges ks from the i-th on, its tree edge
        # e; per vertex above it, the same and the stack top when its
        # tree edge was entered
        v, ks, i, e, hv = root, ordered[root], 0, -1, 0
        up = []
        while True:
            while i < len(ks):
                ei = ks[i]
                w = dst[ei]
                if parent[w] == ei:  # tree edge: finish w first
                    up.append((v, ks, i, e, S[-1] if S else None))
                    v, ks, i, e = w, ordered[w], 0, ei
                    hv += 1
                    continue
                # a back edge, returning below hv: integrate it
                bottom = S[-1] if S else None
                S.append([-1, -1, ei, ei])
                if i == 0:
                    lowpt_edge[e] = ei
                elif not add_constraints(ei, e, bottom):
                    return None if embed else False
                i += 1
            if not up:  # the root
                break
            remove_back_edges(e)
            ei = e
            v, ks, i, e, bottom = up.pop()
            hv -= 1
            if lowpt[ei] < hv:  # integrate the returns of tree edge ei
                if i == 0:
                    lowpt_edge[e] = lowpt_edge[ei]
                elif not add_constraints(ei, e, bottom):
                    return None if embed else False
            i += 1
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
    ordered = _out_edges(n, src, nest)

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


def _out_edges(n: int, src: list[int], key: list[int]) -> list[list[int]]:
    """Each vertex's out-edges sorted stably by ``key``: one sort of all
    edges, ties in id order, which is the order the vertex oriented them."""
    out: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(range(len(src)), key=key.__getitem__):
        out[src[e]].append(e)
    return out
