"""GF(2) cycle/cut space algebra and separation checks on plane graphs.

Edge vectors are int bitmasks over edge ids; addition is xor.  Crossing
parity counts how often a cycle crosses a dual path between two faces,
mod 2, which decides whether the cycle separates the faces; a dual
flood-fill serves as the independent oracle.  The cycle separating two
faces is read off the faces themselves: a face boundary that is a single
cycle separates its face from all others.  The rank of the vertex-star
cuts is read off a spanning forest; GF(2) elimination is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import Embedding
from .graph import MultiGraph


def edge_vector(edges) -> int:
    vec = 0
    for e in edges:
        vec ^= 1 << e
    return vec


def support(vec: int) -> list[int]:
    out = []
    while vec:
        low = vec & -vec
        out.append(low.bit_length() - 1)
        vec ^= low
    return out


def is_single_cycle(g: MultiGraph, vec: int) -> bool:
    """True iff the support induces a connected subgraph with all degrees
    2: every touched vertex is the tail of two of the support's darts (a
    loop's two at its vertex), and the walk that enters a vertex by one of
    them and leaves by the other comes back to its first dart after
    crossing every support edge once."""
    edges = support(vec)
    if not edges:
        return False
    tail = g.dart_tail
    out: dict[int, list[int]] = {}  # vertex -> support darts with that tail
    for e in edges:
        out.setdefault(tail[2 * e], []).append(2 * e)
        out.setdefault(tail[2 * e + 1], []).append(2 * e + 1)
    if any(len(darts) != 2 for darts in out.values()):
        return False
    first = d = 2 * edges[0]
    steps = 0
    while True:
        steps += 1
        a, b = out[tail[d ^ 1]]  # arrive by the twin, leave by the other
        d = b if a == d ^ 1 else a
        if d == first:
            return steps == len(edges)


# -- dual structure --------------------------------------------------------


def face_of_darts(emb: Embedding) -> list[int]:
    """Per dart, the index of the face it lies in; the twin of dart d lies
    in the face across edge d // 2."""
    face_of = [-1] * emb.graph.n_darts
    for fi, f in enumerate(emb.faces):
        for d in f.darts:
            face_of[d] = fi
    return face_of


class NotACycleError(ValueError):
    pass


def crossing_parity(emb: Embedding, cyc: int, f1: int, f2: int) -> int:
    """1 iff the cycle separates faces f1 and f2.

    Labels each face, in breadth-first order from f1, with the parity of
    the cycle edges crossed on its search-tree path, and returns f2's
    label; well-defined because cycles cross every dual cycle (a primal
    cut) an even number of times.
    """
    if not is_single_cycle(emb.graph, cyc):
        raise NotACycleError("edge vector is not a single cycle")
    if f1 == f2:
        raise ValueError("faces must be distinct")
    face_of = face_of_darts(emb)
    faces = emb.faces
    parity = {f1: 0}
    queue = [f1]
    for f in queue:
        if f == f2:
            return parity[f2]
        here = parity[f]
        for d in faces[f].darts:
            f_next = face_of[d ^ 1]
            if f_next not in parity:
                parity[f_next] = here ^ (cyc >> (d >> 1) & 1)
                queue.append(f_next)
    raise ValueError("dual graph disconnected; embedding inconsistent")


def crossing_parity_floodfill(emb: Embedding, cyc: int, f1: int, f2: int) -> int:
    """Oracle: flood-fill the dual graph without crossing the cycle's
    edges; parity 0 iff f2 is reached from f1."""
    if not is_single_cycle(emb.graph, cyc):
        raise NotACycleError("edge vector is not a single cycle")
    face_of = face_of_darts(emb)
    faces = emb.faces
    seen = {f1}
    stack = [f1]
    while stack:
        f = stack.pop()
        for d in faces[f].darts:
            if not cyc >> (d >> 1) & 1:
                f_next = face_of[d ^ 1]
                if f_next not in seen:
                    seen.add(f_next)
                    stack.append(f_next)
    return 0 if f2 in seen else 1


def separating_cycle_between_faces(emb: Embedding, f1: int, f2: int) -> int:
    """The GF(2) boundary of face f1, else of f2, whichever is a single
    cycle first.

    A face boundary that is a single cycle separates its face from every
    other face: a dual path out of the face crosses the boundary an odd
    number of times.  Every face of a 2-connected loopless plane graph is
    bounded by a cycle (Mohar-Thomassen, Graphs on Surfaces, 2.1); off
    that domain, when neither boundary is a cycle, ValueError.
    """
    g = emb.graph
    if f1 == f2:
        raise ValueError("faces must be distinct")
    for f in (f1, f2):
        vec = edge_vector(d // 2 for d in emb.faces[f].darts)
        if is_single_cycle(g, vec):
            return vec
    raise ValueError(f"neither face {f1} nor face {f2} is bounded by a "
                     "cycle; separating cycles need a 2-connected loopless "
                     "plane graph")


@dataclass
class CutSpaceReport:
    rank: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.rank == self.expected

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "expected": self.expected, "ok": self.ok}


def star_generation_check(g: MultiGraph) -> CutSpaceReport:
    """Rank over GF(2) of the vertex-star cuts.

    On a connected finite Cayley graph they are the orbit of the
    identity's star and must generate the whole cut space, of dimension
    |V| - 1.  Their rank is |V| minus the number of components, certified
    by a rooted spanning forest: each non-root star holds its parent edge,
    which no other star of a vertex as deep or deeper in the forest holds,
    so ordered deepest first the non-root stars are independent; and the
    stars of one component sum to zero, every edge inside it lying in two
    of them (a loop in none), so each root star is the sum of the others.
    O(V + E); ``gf2_rank`` of the stars is the test oracle.  The count
    is read off the graph's kept ``is_connected`` verdict where it holds.
    """
    n = g.n_vertices
    components = min(n, 1) if g.is_connected() else g.component_count()
    return CutSpaceReport(n - components, n - 1)
