"""Vertex connectivity and ladder augmentation to 3-connectivity.

The augmentation inserts a matched copy of each facial cycle inside its
face.  The infinite construction also handles facial double rays with two
copies; at finite scale only the cycle case arises, and faces of a
truncated ball that touch the frontier are deliberately left untouched.
"""

from __future__ import annotations

from .embedding import Embedding, simple_part, trace_faces
from .graph import CayleyGraph, MultiGraph, twin


class TooFewVerticesError(ValueError):
    """Vertex connectivity is undefined on fewer than two vertices."""

    def __init__(self, n_vertices: int):
        super().__init__(f"vertex connectivity needs at least 2 vertices, "
                         f"got {n_vertices}")


def _nx_graph(g: MultiGraph) -> "networkx.Graph":
    """The simple graph underlying g, edges added in edge order."""
    import networkx as nx
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    for e in range(g.n_edges):
        u, v = g.edge_ends(e)
        if u != v:
            G.add_edge(u, v)
    return G


def vertex_connectivity(g: MultiGraph) -> int:
    """Exact vertex connectivity of the underlying simple graph
    (max-flow based); >= 3 certifies 3-connectedness."""
    if g.n_vertices < 2:
        raise TooFewVerticesError(g.n_vertices)
    import networkx as nx
    return nx.node_connectivity(_nx_graph(g))


def cayley_connectivity(cg: CayleyGraph) -> int:
    """Vertex connectivity of a complete Cayley graph.

    A connected vertex-transitive graph whose simple degree is d (the
    identity's, from ``simple_part``) has connectivity at least 2(d+1)/3
    (Watkins 1970; Godsil-Royle, Algebraic Graph Theory, 3.4.2), and at
    most d: so it is d when d <= 4.  Above that the flow of
    ``vertex_connectivity`` decides it.
    """
    if cg.group is None or cg.radius != "complete":
        raise ValueError("Cayley connectivity needs a complete Cayley graph")
    if cg.n_vertices < 2:
        raise TooFewVerticesError(cg.n_vertices)
    d = simple_part(cg)[1]
    return d if d <= 4 else vertex_connectivity(cg)


def ladder_augment(g: MultiGraph, emb: Embedding) -> tuple[MultiGraph, Embedding]:
    """Insert a matched copy of each facial cycle inside its face.

    Skips faces with at most two edges (parallel-edge digons and loop
    faces) and, on truncated balls, faces touching the frontier.  The
    output embedding stays genus 0 (checked).  The output graph is
    3-connected for 2-connected inputs; that is not assumed but checked
    where it is printed, by ``covariance.plane_connectivity``.
    """
    if emb.genus != 0:
        raise ValueError("ladder augmentation needs a genus-0 embedding")

    out = MultiGraph()
    out.radius = g.radius
    out.frontier = set(g.frontier)
    for name in g.vertex_names:
        out.add_vertex(name)
    # copy edges; dart ids coincide for the shared part
    for e in range(g.n_edges):
        u, v = g.edge_ends(e)
        out.add_edge(u, v, g.edge_label[e], g.edge_directed[e])

    taken = set(g.vertex_names)  # copy names f{fi}c{i} are primed if taken
    rot = emb.rotation
    for fi, face in enumerate(emb.faces):
        k = len(face.darts)
        if k <= 2 or not face.finite:
            continue
        boundary = [g.dart_tail[d] for d in face.darts]
        copies = []
        for i in range(k):
            name = f"f{fi}c{i}"
            while name in taken:
                name += "'"
            copies.append(out.add_vertex(name))
        rung = []  # m_i: dart v_i -> u_i
        for i in range(k):
            e = out.add_edge(boundary[i], copies[i], f"rung{fi}", False)
            rung.append(2 * e)
            # into this face's corner at v_i, right after twin(d_{i-1}); a
            # corner is one face's, so no two rungs compete for one
            cycle = rot[boundary[i]]
            cycle.insert(cycle.index(twin(face.darts[i - 1])) + 1, 2 * e)
        ring = []  # e_i: dart u_i -> u_{i+1}
        for i in range(k):
            e = out.add_edge(copies[i], copies[(i + 1) % k], f"ring{fi}", False)
            ring.append(2 * e)
        for i in range(k):
            rot.append([ring[i], twin(rung[i]), twin(ring[(i - 1) % k])])

    new_emb = trace_faces(out, rot)
    if new_emb.genus != 0:
        raise AssertionError("augmentation broke planarity")
    return out, new_emb
