"""Rotation systems, face tracing, planarity, consistent embeddings.

A rotation system lists the darts with tail v in cyclic order, per vertex;
an ``Embedding`` keeps each dart's successor in it.  Faces are counted with
the successor rule

    next(d) = rotation-successor of twin(d) at the twin's tail,

which recovers the usual face boundaries of an orientable embedding.  Spin
enters only when a rotation is *built* from a shared label order: a vertex
of spin -1 uses the mirrored reference order, after which tracing proceeds
with the same rule.  Genus comes from Euler's formula.  On a simple Cayley
graph of degree >= 3 the same rule runs on the generator slots instead of
the darts (``cayley_map``), which gives the faces without a planarity run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .cayley import build_ball
from .graph import CayleyGraph, MultiGraph
from .planarity import is_planar, lr_planarity, simple_neighbours


class RotationError(ValueError):
    """Rotation system does not cover the graph's darts exactly."""


class SearchBudgetError(RuntimeError):
    """Consistent-embedding search space exceeds the configured budget."""


RotationSystem = list[list[int]]  # per-vertex cyclic dart order


@dataclass
class FacialWalk:
    darts: tuple[int, ...]
    finite: bool = True


@dataclass
class Embedding:
    """A rotation system of ``graph`` as ``succ``, each dart's successor
    at its tail, and ``first[v]``, v's first dart (-1 if it has none),
    from which ``rotation`` and ``faces`` are walked on demand.  Face i,
    in the order of least darts, has ``sizes[i]`` darts and, if
    ``finite[i]``, no vertex on the frontier."""
    graph: MultiGraph
    succ: list[int]
    first: list[int]
    sizes: list[int]
    finite: list[bool]
    genus: int

    @property
    def rotation(self) -> RotationSystem:
        """Each vertex's darts in cyclic order from its first dart."""
        out = [[d] if d >= 0 else [] for d in self.first]
        for cycle in out:
            while cycle and (d := self.succ[cycle[-1]]) != cycle[0]:
                cycle.append(d)
        return out

    @cached_property
    def faces(self) -> list[FacialWalk]:
        """The facial walks in face order, each from its least dart."""
        succ, seen, darts = self.succ, bytearray(len(self.succ)), []
        for d in range(len(succ)):
            while not seen[d]:
                seen[d] = 1
                darts.append(d)
                d = succ[d ^ 1]
        darts, ends = tuple(darts), itertools.accumulate(self.sizes)
        return [FacialWalk(darts[end - size:end], inner)
                for size, end, inner in zip(self.sizes, ends, self.finite)]

    def face_vector(self) -> dict[int, int]:
        return dict(Counter(self.sizes))

    def mirror(self) -> "Embedding":
        return trace_faces(self.graph, [r[::-1] for r in self.rotation])

    def to_json_dict(self) -> dict:
        return {
            "rotation": {str(v): r for v, r in enumerate(self.rotation)},
            "faces": [list(f.darts) for f in self.faces],
            "genus": self.genus,
        }


@dataclass
class KuratowskiWitness:
    kind: str  # "K5" or "K3,3"
    branch_vertices: list[int]
    paths: list[list[int]]  # vertex sequences between branch vertices


def trace_faces(g: MultiGraph, rot: Iterable[list[int]]) -> Embedding:
    """Count the faces of the rotation system, each one's length and
    whether it misses the frontier, and compute the genus.  `rot` is read
    once, so each vertex's cycle may be made and dropped as it is folded."""
    nd = g.n_darts
    tail = g.dart_tail
    succ = [None] * nd  # rotation successor at the dart's tail
    first = []
    for v, cycle in enumerate(rot):
        first.append(cycle[0] if cycle else -1)
        d = cycle[-1] if cycle else None
        for nxt in cycle:  # d is checked, then handed its successor nxt
            if not 0 <= d < nd:
                raise RotationError(f"unknown dart {d}")
            if tail[d] != v:
                raise RotationError(f"dart {d} not incident to vertex {v}")
            if succ[d] is not None:
                raise RotationError(f"dart {d} appears twice")
            succ[d] = d = nxt
    if None in succ:
        missing = [d for d in range(nd) if succ[d] is None]
        raise RotationError(f"rotation missing darts {missing[:5]}")

    frontier = g.frontier
    seen = bytearray(nd)
    sizes, finite = [], []
    for d in range(nd):
        if not seen[d]:
            size, inner = 0, True
            while not seen[d]:
                seen[d] = 1
                size += 1
                if tail[d] in frontier:  # a closed walk's heads are its tails
                    inner = False
                d = succ[d ^ 1]  # the twin's rotation successor
            sizes.append(size)
            finite.append(inner)
    if not sizes and g.n_vertices:  # one vertex, no edges: one face at 0
        sizes, finite = [0], [0 not in frontier]

    if not g.is_connected():
        raise ValueError("face tracing requires a connected graph")
    euler = g.n_vertices - g.n_edges + len(sizes)
    if (2 - euler) % 2 != 0:
        raise AssertionError("odd Euler defect; rotation inconsistent")
    genus = (2 - euler) // 2
    return Embedding(g, succ, first, sizes, finite, genus)


# -- planarity -------------------------------------------------------------


def planarity_test(g: MultiGraph) -> Embedding | KuratowskiWitness:
    """Genus-0 embedding of g (``plane_embedding``), or a Kuratowski
    subdivision witness: the edge-minimal non-planar subgraph of
    ``_kuratowski_edges``, independently re-checkable with
    ``verify_witness``.  Raises ValueError on a disconnected graph.
    """
    emb = plane_embedding(g)
    if emb is None:
        adj = simple_neighbours(g.n_vertices, g.edges())
        return _classify_witness(g, _kuratowski_edges(g, adj))
    return emb


def plane_embedding(g: MultiGraph) -> Embedding | None:
    """Genus-0 embedding of g, or None if g is not planar.

    Planarity of the underlying simple graph is decided by one run of the
    left-right algorithm (``planarity.lr_planarity``, whose rotation is
    networkx's for the same graph); the returned multigraph rotation
    places parallel edges in nested slots and loops in their own corners,
    so the traced genus is 0.  Raises ValueError on a disconnected graph.
    """
    if not g.is_connected():
        raise ValueError("planarity test requires a connected graph")
    order = lr_planarity(g.n_vertices, g.edges())
    if order is None:
        return None

    # darts from v to w, grouped
    darts_to: dict[tuple[int, int], list[int]] = {}
    loops_at: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(g.edges()):
        if u == v:
            loops_at.setdefault(u, []).append(e)
        else:
            darts_to.setdefault((u, v), []).append(2 * e)
            darts_to.setdefault((v, u), []).append(2 * e + 1)

    rot: RotationSystem = []
    for v in range(g.n_vertices):
        cycle: list[int] = []
        for w in order[v]:
            slot = darts_to[(v, w)]  # in edge order
            cycle.extend(slot[::-1] if v > w else slot)
        for e in loops_at.get(v, []):
            cycle.extend((2 * e + 1, 2 * e))
        rot.append(cycle)
    emb = trace_faces(g, rot)
    if emb.genus != 0:
        raise AssertionError("planar rotation traced to nonzero genus")
    return emb


def _kuratowski_edges(g: MultiGraph, adj: list[dict[int, None]]) -> set[int]:
    """Edge ids of an edge-minimal non-planar subgraph of the non-planar
    simple graph with neighbours ``adj`` (``simple_neighbours`` of g).

    Greedy deletion in networkx's order (``get_counterexample``): edge u-v
    is tried at its earlier endpoint u, neighbours in adjacency order, and
    stays deleted while the rest H is non-planar.  The kept set is the
    same as networkx's, with fewer planarity questions:

    - a pendant edge is deleted untested (the rest stays non-planar);
    - an edge sharing a degree-2 vertex with a kept edge is kept untested
      (deleting either edge of a degree-2 vertex has the same effect);
    - runs of deletable edges go in doubling blocks: if the graph minus a
      block is non-planar, the one-by-one pass would delete every edge of
      the block as well;
    - H only loses edges, except that a block found planar is put back.
      So H stays a subgraph of H0, the rest when ``_reduced_planar`` last
      found a block B0 planar, and a question whose graph H - B has no
      edge of B0 asks about a subgraph of the planar H0 - B0: it is
      planar, without a run.

    Every other question is answered by ``_reduced_planar``, which gives
    the verdict of a left-right run on H from H's reduced core.

    Every kept edge was essential when tried, so the result is
    edge-minimal, i.e. a Kuratowski subdivision.
    """
    first_edge: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edges()):
        first_edge.setdefault((min(u, v), max(u, v)), e)
    order = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u]
    H = [set(nbrs) for nbrs in adj]  # the rest
    kept: set[tuple[int, int]] = set()
    last: list[tuple[int, int]] = []  # B0

    def remove(edges: list[tuple[int, int]]) -> None:
        for a, b in edges:
            H[a].remove(b)
            H[b].remove(a)

    def forced(u: int, v: int) -> bool:
        for w, other in ((u, v), (v, u)):
            if len(H[w]) == 2:
                x = next(y for y in H[w] if y != other)
                if (min(w, x), max(w, x)) in kept:
                    return True
        return False

    i, step = 0, 1
    while i < len(order):
        u, v = order[i]
        if len(H[u]) == 1 or len(H[v]) == 1:
            remove([(u, v)])
            i += 1
            continue
        if forced(u, v):
            kept.add((u, v))
            i += 1
            step = 1
            continue
        block = order[i:i + step]
        remove(block)
        known = bool(last) and all(b not in H[a] for a, b in last)
        if not known and not _reduced_planar(H):
            i += len(block)
            step *= 2
            continue
        for a, b in block:
            H[a].add(b)
            H[b].add(a)
        if not known:
            last = block
        if step > 1:
            step //= 2
        else:
            kept.add((u, v))
            i += 1
    return {first_edge[e] for e in kept}


def _reduced_planar(H: list[set[int]]) -> bool:
    """Whether the simple graph with neighbour sets H is planar, from at
    most one left-right verdict (``is_planar``) on H's reduced core R.

    R is H with these reductions, each of which keeps planarity either way:

    - isolated vertices and pendant trees are dropped (repeatedly a vertex
      of degree <= 1): a plane drawing of the rest extends to the tree by
      drawing it inside one face at its attachment vertex;
    - a degree-2 vertex v with neighbours x, y is smoothed, the chain
      x-v-y replaced by the edge x-y: a drawing of either graph gives one
      of the other by drawing the chain along the edge or back;
    - where x-y is already an edge, the new copy is dropped and the graph
      stays simple: a parallel edge is drawn next to its twin.

    So every vertex of R has degree >= 3.  A non-planar graph contains a
    subdivision of K5 or K3,3 (Kuratowski 1930), whose branch vertices
    have degree >= 4 or >= 3 in it: R with fewer than five vertices of
    degree >= 4 and fewer than six of degree >= 3 is planar, without a
    run; every other R goes to the kernel.  R is H's list of sets with a
    dropped vertex's set emptied and a changed set copied first, and the
    kernel takes it as it is.
    """
    adj: list = list(H)  # () once dropped; a set is copied when changed
    low = list(itertools.compress(range(len(H)),
                                  map({1, 2}.__contains__, map(len, H))))
    while low:
        v = low.pop()
        nbrs = adj[v]
        if not nbrs:  # queued twice, already dropped
            continue
        adj[v] = ()
        for w in nbrs:
            if adj[w] is H[w]:
                adj[w] = H[w] - {v}
            else:
                adj[w].discard(v)
        if len(nbrs) == 2:
            x, y = nbrs
            if y not in adj[x]:
                adj[x].add(y)
                adj[y].add(x)
                continue
        low.extend(w for w in nbrs if len(adj[w]) <= 2)
    if sum(map(bool, adj)) < 6 and sum(len(nbrs) >= 4 for nbrs in adj) < 5:
        return True
    return is_planar(adj)


def _classify_witness(g: MultiGraph, edges: set[int]) -> KuratowskiWitness:
    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.edge_ends(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, nbrs in adj.items() if len(nbrs) >= 3)
    ends = set(branch)
    chains: set[tuple[int, ...]] = set()  # each walked from both its ends
    for b in branch:
        for cur in adj[b]:
            path = [b, cur]
            while cur not in ends:
                nxt = [w for w in adj[cur] if w != path[-2]]
                if len(nxt) != 1:
                    raise AssertionError("degree-2 chain expected")
                cur = nxt[0]
                path.append(cur)
            chains.add(min(tuple(path), tuple(reversed(path))))
    paths = sorted(map(list, chains))
    degrees = sorted(len(adj[b]) for b in branch)
    if degrees == [4] * 5:
        kind = "K5"
    elif degrees == [3] * 6:
        kind = "K3,3"
    else:
        raise AssertionError(f"unexpected branch degrees {degrees}")
    return KuratowskiWitness(kind, branch, paths)


def verify_witness(g: MultiGraph, w: KuratowskiWitness) -> bool:
    """Independent witness check: paths in g, internally disjoint,
    contracting them yields K5 or K3,3 exactly."""
    adj = simple_neighbours(g.n_vertices, g.edges())
    internal: list[set[int]] = []
    for p in w.paths:
        for a, b in zip(p, p[1:]):
            if b not in adj[a]:
                return False
        if p[0] not in w.branch_vertices or p[-1] not in w.branch_vertices:
            return False
        mid = set(p[1:-1])
        if mid & set(w.branch_vertices):
            return False
        for other in internal:
            if mid & other:
                return False
        internal.append(mid)
    # K: the paths contracted to edges between branch vertices
    K: dict[int, set[int]] = {b: set() for b in w.branch_vertices}
    for p in w.paths:
        a, b = p[0], p[-1]
        if a == b or b in K[a]:
            return False
        K[a].add(b)
        K[b].add(a)
    if w.kind == "K5":
        return len(K) == 5 and len(w.paths) == 10
    if sorted(map(len, K.values())) != [3] * 6:
        return False
    # two-coloured from one branch vertex: its neighbours on one side, the
    # rest on the other, each of which must see exactly the first side
    nbrs = K[w.branch_vertices[0]]
    return all(K[v] == nbrs for v in K if v not in nbrs)


# -- consistent (covariant-candidate) embeddings ---------------------------

LabelItem = tuple[int, int]  # (generator position, +1 out / -1 in / 0 undirected)


def local_label_items(cg: CayleyGraph) -> list[LabelItem]:
    """The label slots of ``_label_slots``, in its order."""
    return list(_label_slots(cg))


def _label_slots(cg: CayleyGraph) -> dict[LabelItem, list[int]]:
    """Per label slot, its dart at every vertex, sliced off out_dart: the
    in-slot at v is the twin of the out-dart that ends at v.  A slot that
    a ball's frontier vertex lacks holds -1 there.  In generator order,
    out-slot (i, 1) before in-slot (i, -1)."""
    k = len(cg.generators)
    tail = cg.dart_tail
    slots: dict[LabelItem, list[int]] = {}
    for i in range(k):
        lane = cg.out_dart[i::k]
        d = max(lane, default=-1)
        if d < 0:  # a one-vertex ball has no darts
            continue
        if cg.edge_directed[d >> 1]:
            back = [-1] * len(lane)
            for d in lane:
                if d >= 0:
                    back[tail[d ^ 1]] = d ^ 1
            slots[(i, 1)] = lane
            slots[(i, -1)] = back
        else:
            slots[(i, 0)] = lane
    return slots


def _rotation(slots: dict[LabelItem, list[int]], order: tuple[LabelItem, ...],
              spins: list[int]) -> Iterator[list[int]]:
    """Each vertex's darts in the label order, reversed at spin -1, with
    the slots it lacks left out, one vertex at a time."""
    lanes = [slots[item] for item in order]
    back = lanes[::-1]
    return ([d for darts in (lanes if spin > 0 else back)
             if (d := darts[v]) >= 0]
            for v, spin in enumerate(spins))


_SEARCH_BUDGET = 1 << 22  # label orders times spin patterns

Consistent = tuple[tuple[LabelItem, ...], list[int], Embedding]  # order, spins


def search_consistent_embeddings(cg: CayleyGraph) -> list[Consistent]:
    """All genus-0 (label cyclic order, spin) pairs, gauge-reduced.

    Gauge: the reference order's first slot is fixed and the identity,
    vertex 0, has spin +1, so candidates are counted once per rotation
    class and once per global mirror flip.

    On a ``simple_cayley`` graph the answer is its ``cayley_map`` (chi,
    pi) and the reverse of pi with the same spins, in the order the brute
    force meets them, each traced once on the read-off's slot table; none
    if it is not planar.  Its plane embedding is unique up to mirror
    image, and each label slot is one neighbour at every vertex, so an
    order with vertex 0 at spin +1 is vertex 0's slot sequence or its
    reverse.  Cost: the read-off, O(V*deg) and two face tracings, without
    a planarity run.  Multigraphs and graphs of degree at most 2 go
    through ``brute_force_consistent_embeddings``.

    Copies of a repeated generator are distinct labels, one slot each.  A
    repeated orientation-reversing involution has consistent embeddings
    (4 for z4xz2 on (1,0),(0,1),(0,1)); a repeated orientation-preserving
    one has none (0 for a4 on k,k,r): the digon of the copies k0, k1
    between v and v*k needs the slot order k0,k1 at one end and k1,k0 at
    the other.
    """
    if cg.group is None or cg.radius != "complete":
        raise ValueError("consistent-embedding search needs a complete Cayley graph")
    if not simple_cayley(cg):
        return brute_force_consistent_embeddings(cg)
    cmap = cayley_map(cg)
    if cmap is None:
        return []
    items = list(cmap.slots)
    orders = (cmap.order, cmap.order[:1] + cmap.order[:0:-1])
    results = []
    for order in sorted(orders, key=lambda o: [items.index(x) for x in o]):
        found = trace_faces(cg, _rotation(cmap.slots, order, cmap.spins))
        if found.genus != 0:
            raise AssertionError("label order read off the slots traced to "
                                 "nonzero genus")
        results.append((order, list(cmap.spins), found))
    return results


def brute_force_consistent_embeddings(cg: CayleyGraph) -> list[Consistent]:
    """``search_consistent_embeddings`` by tracing every one of the
    (m-1)! label orders times 2^(V-1) spin patterns, in that order;
    SearchBudgetError beyond ``_SEARCH_BUDGET`` or 6 label slots."""
    slots = _label_slots(cg)
    items = list(slots)
    m, n = len(items), cg.n_vertices
    if m > 6 or math.factorial(m - 1) << (n - 1) > _SEARCH_BUDGET:
        raise SearchBudgetError(
            f"search space (m-1)!*2^(V-1) = {math.factorial(m - 1)}*2^{n - 1} "
            f"with m = {m} label slots and V = {n} vertices exceeds the "
            f"budget of {_SEARCH_BUDGET} candidates with at most 6 slots")

    results = []
    first, rest = items[0], items[1:]
    for perm in itertools.permutations(rest):
        order = (first,) + perm
        ccw = list(_rotation(slots, order, [1] * n))
        cw = [r[::-1] for r in ccw]
        for spin_bits in itertools.product((1, -1), repeat=n - 1):
            spins = [1] + list(spin_bits)
            rot = [(ccw if spin > 0 else cw)[v] for v, spin in enumerate(spins)]
            emb = trace_faces(cg, rot)
            if emb.genus == 0:
                results.append((order, spins, emb))
    return results


def simple_part(cg: CayleyGraph) -> tuple[list[int], int]:
    """The positions of the generators that span the simple part of a
    complete Cayley graph, and the identity's degree in it.

    A generator is dropped if it is the identity (its edges are loops), or
    equals or inverts an earlier one (its edges are parallel to that
    one's).  The identity's neighbours are the generators and the
    inverses of the directed ones, and left multiplication moves them to
    every vertex's, so the identity decides: O(k) inversions for k
    generators."""
    inv = cg.group.inv
    near = {0}  # the identity, vertex 0, and its neighbours so far
    keep = []
    for i, d in enumerate(cg.out_dart[:len(cg.generators)]):
        s = cg.head(d)
        if s not in near:
            keep.append(i)
            near.update((s, inv(s)))
    return keep, len(near) - 1


def simple_cayley(cg: CayleyGraph) -> bool:
    """Whether cg is a complete Cayley graph without loops or parallel
    edges whose identity has at least three neighbours: its
    ``simple_part`` keeps every generator and has degree >= 3."""
    if cg.group is None or cg.radius != "complete":
        return False
    keep, degree = simple_part(cg)
    return len(keep) == len(cg.generators) and degree >= 3


@dataclass
class CayleyMap:
    """A plane embedding transported from the identity: vertex v takes the
    label ``order`` of the slot table ``slots``, reversed where
    ``spins[v]`` is -1.  ``sizes`` maps face length to the number of
    faces."""
    order: tuple[LabelItem, ...]
    spins: list[int]
    sizes: dict[int, int]
    slots: dict[LabelItem, list[int]]

    def face_vector(self) -> dict[int, int]:
        return dict(self.sizes)


def cayley_map(cg: CayleyGraph) -> CayleyMap | None:
    """The plane embedding of a ``simple_cayley`` graph, read off its m
    label slots without a planarity run; None if cg is not
    ``simple_cayley`` or is not planar.

    Such a graph is 3-connected: a connected vertex-transitive graph of
    degree d has connectivity at least 2(d+1)/3 (Watkins 1970;
    Godsil-Royle, Algebraic Graph Theory, 3.4.2).  If it is planar, its
    plane embedding is unique up to mirror image (Whitney 1933) and kept
    by every left multiplication, so it is one transported pair: a
    character chi of the generators, carried to the vertices by
    ``_transported_spins``, and a label order pi.  The pairs are tried
    with the characters in ``itertools.product`` order from the trivial
    one and, per character, the label orders as
    ``brute_force_consistent_embeddings`` lists them;
    the first pair whose faces satisfy V - E + F = 2 is the embedding, and
    if none does the graph is not planar.  With m >= 6 it is not planar
    without a pair tried, since a planar graph has a vertex of degree <= 5.

    Faces (Gross-Tucker, Topological Graph Theory, 1987, ch. 4): the face
    walk from the dart in slot s at a vertex of spin e moves, at the next
    vertex, to the pi-successor of s^-1 if e*chi(s) = +1 and to its
    predecessor otherwise, with spin e*chi(s).  So the 2m states (s, e)
    fall into cycles; a cycle C, with w_C the product of the labels along
    it and N_C the darts in its states, holds N_C / (|C| * ord(w_C)) faces
    of length |C| * ord(w_C).  ord(w_C) is found by walking the identity
    along C, and the walk stops once the face count can no longer reach
    the Euler target.  A character is checked on every edge only when one
    of its pairs passes, and skipped if it fails there.
    """
    if not simple_cayley(cg):
        return None
    slots = _label_slots(cg)
    items = list(slots)
    m, n = len(items), cg.n_vertices
    if m >= 6:
        return None
    lanes = list(slots.values())
    inverse = [items.index((i, -s)) for i, s in items]
    tail = cg.dart_tail
    target = 2 - n + cg.n_edges  # the face count of genus 0

    def face_sizes(order: tuple[int, ...], sign: list[int],
                   darts: tuple[int, int]) -> dict[int, int] | None:
        """The face vector of the pair, or None unless it has genus 0;
        darts[0] and darts[1] count the darts of spin +1 and -1 per
        slot."""
        after = [0] * m  # pi-position of each slot
        for p, j in enumerate(order):
            after[j] = p
        seen = [False] * (2 * m)
        classes = []  # (slots along the cycle, darts in its states)
        for start in range(2 * m):
            seq, count, s = [], 0, start
            while not seen[s]:
                seen[s] = True
                j, e = s >> 1, sign[s >> 1] * (1 - 2 * (s & 1))
                seq.append(j)
                count += darts[s & 1]
                s = 2 * order[(after[inverse[j]] + e) % m] + (e < 0)
            if count:
                classes.append((seq, count))
        # a face of a simple graph of degree >= 3 has length >= 3, so a
        # class whose walk has not closed after r rounds holds at most
        # count // max(3, |C|*(r+1)) faces; the largest bounds go first
        classes.sort(key=lambda c: c[1] // max(3, len(c[0])), reverse=True)
        rest = sum(count // max(3, len(seq)) for seq, count in classes)
        out: dict[int, int] = {}
        found = 0
        for seq, count in classes:
            rest -= count // max(3, len(seq))
            v, rounds = 0, 0
            while True:
                if (found + count // max(3, len(seq) * (rounds + 1)) + rest
                        < target):
                    return None
                for j in seq:
                    v = tail[lanes[j][v] ^ 1]
                rounds += 1
                if v == 0:
                    break
            size = len(seq) * rounds
            out[size] = out.get(size, 0) + count // size
            found += count // size
        return out if found == target else None

    for chi in itertools.product((1, -1), repeat=len(cg.generators)):
        sign = [chi[i] for i, _ in items]
        darts = (n, 0) if -1 not in chi else (n // 2, n // 2)
        for perm in itertools.permutations(range(1, m)):
            found = face_sizes((0,) + perm, sign, darts)
            if found is None:
                continue
            spins = _transported_spins(cg, slots, chi)
            if spins is None:
                break
            return CayleyMap(tuple(items[j] for j in (0,) + perm), spins,
                             found, slots)
    return None


def ball_embedding(cg: CayleyGraph) -> Embedding | None:
    """Genus-0 embedding of a ball read off the group by transport, or
    None: on a complete graph, and on a ball that the transport does not
    embed in the plane (the amalgam's), where ``planarity_test`` decides.

    Every vertex v takes one label order of the slots of
    ``_label_slots``, reversed where its spin is -1 and restricted to the
    darts v has (a frontier vertex lacks some).  Spins are a character chi
    of the generators carried from the identity along the generator
    edges, spin(v*s) = spin(v)*chi(s), and checked on every edge.  The
    pair is the first that traces to genus 0 on Ball(2) of the ball's
    family (the ball itself up to radius 2, else ``build_ball`` of its
    ``engine``, and ValueError on a larger ball without one): characters
    in ``itertools.product`` order from the trivial one, and per character
    the label orders as ``brute_force_consistent_embeddings`` lists them;
    None after ``_PROBE_BUDGET`` pairs, which bounds the probe on a ball
    with many generators (``z --steps 1,2,3,4`` contains K5).  The whole
    ball is then traced once, and its Euler count certifies genus 0.  The
    choice reads labels only, so the faces do not depend on how the
    vertices and edges are numbered.  O(V*deg) for a ball of V vertices,
    without a left-right run.
    """
    if cg.group is not None:
        return None
    if cg.radius > 2 and cg.engine is None:
        raise ValueError(f"ball of radius {cg.radius} has no family engine "
                         "to build Ball(2) from (build it with build_ball)")
    inner = cg if cg.radius <= 2 else build_ball(cg.engine, 2)
    slots = _label_slots(inner)
    for chi, order, spins in itertools.islice(
            _probe_pairs(inner, slots, len(cg.generators)), _PROBE_BUDGET):
        if trace_faces(inner, _rotation(slots, order, spins)).genus == 0:
            break
    else:
        return None
    if inner is not cg:
        slots = _label_slots(cg)
        spins = _transported_spins(cg, slots, chi)
        if spins is None:
            return None
    emb = trace_faces(cg, _rotation(slots, order, spins))
    return emb if emb.genus == 0 else None


# (character, label order) pairs traced on Ball(2) before ball_embedding
# gives up: every pair of three directed generators, 2^3 * 5!
_PROBE_BUDGET = 960


def _probe_pairs(inner: CayleyGraph, slots: dict[LabelItem, list[int]],
                 k: int) -> Iterator[tuple[tuple[int, ...],
                                           tuple[LabelItem, ...], list[int]]]:
    """(chi, order, spins) in the order ``ball_embedding`` tries them,
    skipping the characters that are not consistent on inner."""
    items = list(slots)
    for chi in itertools.product((1, -1), repeat=k):
        spins = _transported_spins(inner, slots, chi)
        if spins is not None:
            for perm in itertools.permutations(items[1:]):
                yield chi, tuple(items[:1]) + perm, spins


def _transported_spins(cg: CayleyGraph, slots: dict[LabelItem, list[int]],
                       chi: tuple[int, ...]) -> list[int] | None:
    """chi carried from the identity along the generator edges, or None
    unless spin(v*s) = spin(v)*chi(s) holds on every edge."""
    lanes = [(darts, chi[i]) for (i, _), darts in slots.items()]
    tail = cg.dart_tail
    root = cg.depth.index(0) if cg.depth else 0  # complete: no depths
    spin = [0] * cg.n_vertices
    spin[root] = 1
    stack = [root]
    while stack:
        v = stack.pop()
        for darts, sign in lanes:
            d = darts[v]
            if d < 0:
                continue
            w, s = tail[d ^ 1], spin[v] * sign
            if not spin[w]:
                spin[w] = s
                stack.append(w)
            elif spin[w] != s:
                return None
    return spin


# -- face classification on balls ------------------------------------------


@dataclass
class FaceReport:
    finite_count: int
    frontier_touching_count: int
    max_finite_face_length: int

    def to_json_dict(self) -> dict:
        return {
            "finite_faces": self.finite_count,
            "frontier_touching_faces": self.frontier_touching_count,
            "max_finite_face_length": self.max_finite_face_length,
        }


def classify_faces(emb: Embedding) -> FaceReport:
    """Count fully interior faces of an embedded ball.

    A facial walk is frontier-touching iff it visits a frontier vertex;
    only fully interior walks are certified finite (face finiteness of the
    infinite graph is approximated through the truncation).
    """
    finite_count = sum(emb.finite)
    return FaceReport(finite_count, len(emb.finite) - finite_count, max(
        itertools.compress(emb.sizes, emb.finite), default=0))
