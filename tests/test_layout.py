"""Tutte's barycentric layout: the outer face on the unit circle, every
other vertex at the mean of its simple neighbours."""

import pytest

from pcl.cayley import InfiniteFamilySpec, build_ball, build_cayley
from pcl.embedding import ball_embedding, plane_embedding
from pcl.groups import a4_model, coset_enumerate
from pcl.layout import tutte_layout
from pcl.planarity import simple_neighbours
from pcl.presentation import parse_presentation


def _prism():
    return build_cayley(coset_enumerate(parse_presentation(
        "group P { gens: a b; rels: a^6, b^2, a*b*a^-1*b^-1; "
        "involutions: b; }"), 100), ["a", "b"])


def _ball(family, radius, **params):
    return lambda: build_ball(InfiniteFamilySpec(family, params), radius)


@pytest.mark.parametrize("graph", [
    lambda: build_cayley(a4_model(), ["k", "r"]), _prism,
    _ball("z-cross-z", 10), _ball("cn-cross-z", 8, n=5),
    _ball("amalgam", 4),  # no rotation read off the group: plane_embedding
    _ball("z-cross-z", 0)],
    ids=["a4", "prism", "Z2-R10", "C5xZ-R8", "amalgam-R4", "Z2-R0"])
def test_free_vertices_sit_at_their_neighbours_mean(graph):
    g = graph()
    emb = ball_embedding(g) or plane_embedding(g)
    z = tutte_layout(emb)
    outer = max(emb.faces,
                key=lambda f: (len(f.darts), -min(f.darts, default=0)))
    pinned = {g.dart_tail[d] for d in outer.darts} or {0}
    assert all(abs(abs(z[v]) - 1) < 1e-12 for v in pinned)
    adj = simple_neighbours(g.n_vertices, g.edges())
    free = [v for v in range(g.n_vertices) if v not in pinned]
    assert all(abs(z[v] - sum(z[w] for w in adj[v]) / len(adj[v])) < 1e-9
               for v in free)
