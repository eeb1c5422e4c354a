"""Straight-line drawings of plane graphs via Tutte's barycentric layout.

The outer face's vertices are pinned to a convex polygon and every other
vertex is placed at the average of its neighbours; for a 3-connected
plane graph this yields a planar straight-line drawing.  Layout is
cosmetic: geometry is excluded from the package's determinism contract.
"""

from __future__ import annotations

import math

from .embedding import Embedding
from .graph import MultiGraph
from .planarity import simple_neighbours


def tutte_layout(emb: Embedding) -> list[complex]:
    """A point x + iy per vertex; the longest face is used as outer face.

    The free vertices solve deg(v)*z(v) - (free neighbours) = (pinned
    neighbours), positive definite when the graph is connected, by
    conjugate gradients (Hestenes-Stiefel 1952): one solve for both
    coordinates, stopped at a residual of 1e-10 of the first one, and
    after two steps per free vertex (exact arithmetic needs one)."""
    g = emb.graph
    n = g.n_vertices
    outer = emb.faces[emb.sizes.index(max(emb.sizes))]
    # the dartless face of the one-vertex graph is at vertex 0
    ring = list(dict.fromkeys(g.dart_tail[d] for d in outer.darts)) or [0]
    z = [0j] * n
    for i, v in enumerate(ring):
        ang = 2 * math.pi * i / len(ring)
        z[v] = complex(math.cos(ang), math.sin(ang))

    adj = simple_neighbours(n, g.edges())
    free = sorted(set(range(n)).difference(ring))
    r = [0j] * n  # the residual: 0 where pinned, as is the direction p
    for v in free:
        r[v] = sum(map(z.__getitem__, adj[v]))  # z is still 0 where free
    p, rr = r[:], sum(abs(x) ** 2 for x in r)
    stop = 1e-20 * rr
    for _ in range(2 * len(free)):
        if rr <= stop:
            break
        ap = {v: len(adj[v]) * p[v] - sum(map(p.__getitem__, adj[v]))
              for v in free}
        alpha = rr / sum((p[v].conjugate() * a).real for v, a in ap.items())
        for v, a in ap.items():
            z[v] += alpha * p[v]
            r[v] -= alpha * a
        rr, last = sum(abs(x) ** 2 for x in r), rr
        for v in free:
            p[v] = r[v] + rr / last * p[v]
    return z


_SVG_SIZE = 480  # width and height in pixels


def to_svg(g: MultiGraph, emb: Embedding) -> str:
    pos = tutte_layout(emb)
    pad = 30
    scale = (_SVG_SIZE - 2 * pad) / 2

    def pt(v: int) -> tuple[float, float]:
        z = pos[v]
        return (pad + scale * (z.real + 1), pad + scale * (z.imag + 1))

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">']
    for e in range(g.n_edges):
        u, v = g.edge_ends(e)
        if u == v:
            continue
        (x1, y1), (x2, y2) = pt(u), pt(v)
        lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                     f'y2="{y2:.2f}" stroke="black" stroke-width="1"/>')
    for v in range(g.n_vertices):
        x, y = pt(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="black">'
                     f'<title>{g.vertex_names[v]}</title></circle>')
    lines.append("</svg>")
    return "\n".join(lines)
