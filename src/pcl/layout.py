"""Straight-line drawings of plane graphs via Tutte's barycentric layout.

The outer face's vertices are pinned to a convex polygon and every other
vertex is placed at the average of its neighbours; for a 3-connected
plane graph this yields a planar straight-line drawing.  Layout is
cosmetic: geometry is excluded from the package's determinism contract.
"""

from __future__ import annotations

import numpy as np

from .embedding import Embedding, _edge_ends
from .graph import MultiGraph
from .planarity import simple_neighbours


def tutte_layout(emb: Embedding) -> list[tuple[float, float]]:
    """Coordinates per vertex; the longest face is used as outer face."""
    g = emb.graph
    n = g.n_vertices
    outer = max(emb.faces,
                key=lambda f: (len(f.darts), -min(f.darts, default=0)))
    # the dartless face of the one-vertex graph is at vertex 0
    ring = list(dict.fromkeys(g.dart_tail[d] for d in outer.darts)) or [0]
    pos = np.zeros((n, 2))
    fixed = np.zeros(n, dtype=bool)
    for i, v in enumerate(ring):
        ang = 2 * np.pi * i / len(ring)
        pos[v] = (np.cos(ang), np.sin(ang))
        fixed[v] = True

    adj = simple_neighbours(n, _edge_ends(g))
    free = [v for v in range(n) if not fixed[v]]
    if free:
        idx = {v: i for i, v in enumerate(free)}
        a = np.zeros((len(free), len(free)))
        b = np.zeros((len(free), 2))
        for v in free:
            i = idx[v]
            a[i, i] = len(adj[v])
            for w in adj[v]:
                if fixed[w]:
                    b[i] += pos[w]
                else:
                    a[i, idx[w]] -= 1
        sol = np.linalg.solve(a, b)
        for v in free:
            pos[v] = sol[idx[v]]
    return [tuple(p) for p in pos]


_SVG_SIZE = 480  # width and height in pixels


def to_svg(g: MultiGraph, emb: Embedding) -> str:
    pos = tutte_layout(emb)
    pad = 30
    scale = (_SVG_SIZE - 2 * pad) / 2

    def pt(v: int) -> tuple[float, float]:
        x, y = pos[v]
        return (pad + scale * (x + 1), pad + scale * (y + 1))

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
