from pcl.augment import ladder_augment, vertex_connectivity
from pcl.cayley import build_cayley
from pcl.embedding import planarity_test
from pcl.graph import graph_from_edges
from pcl.groups import a4_model, coset_enumerate, cyclic_group, z4xz2_model
from pcl.presentation import parse_presentation
from util import (brute_force_connectivity, check_embedding_bookkeeping,
                  make_rng, random_plane_graph)


def test_connectivity_known_values():
    k4 = graph_from_edges(4, [(i, j) for i in range(4)
                              for j in range(i + 1, 4)])
    assert vertex_connectivity(k4) == 3
    cycle = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert vertex_connectivity(cycle) == 2
    path = graph_from_edges(3, [(0, 1), (1, 2)])
    assert vertex_connectivity(path) == 1
    assert vertex_connectivity(build_cayley(a4_model(), ["k", "r"])) == 3
    assert vertex_connectivity(
        build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])) == 3


def test_connectivity_matches_brute_force():
    rng = make_rng(7)
    for _ in range(10):
        g, _ = random_plane_graph(rng, max_vertices=10, steps=6)
        assert vertex_connectivity(g) == brute_force_connectivity(g)


def _augment_counts(g, emb):
    """Expected counts: each augmented face of length k adds k vertices
    and 2k edges."""
    ks = [len(f.darts) for f in emb.faces
          if len(f.darts) > 2 and f.finite]
    return (g.n_vertices + sum(ks), g.n_edges + 2 * sum(ks))


def test_ladder_augment_cycle():
    g = build_cayley(cyclic_group(4, "g"), ["g"])
    emb = planarity_test(g)
    aug, aemb = ladder_augment(g, emb)
    ev, ee = _augment_counts(g, emb)
    assert (aug.n_vertices, aug.n_edges) == (ev, ee) == (12, 20)
    assert aemb.genus == 0
    assert vertex_connectivity(aug) >= 3
    check_embedding_bookkeeping(aemb)


def test_ladder_augment_random_suite():
    rng = make_rng(11)
    for trial in range(20):
        g, emb = random_plane_graph(rng, max_vertices=30, steps=10)
        aug, aemb = ladder_augment(g, emb)
        ev, ee = _augment_counts(g, emb)
        assert (aug.n_vertices, aug.n_edges) == (ev, ee)
        assert aemb.genus == 0
        assert vertex_connectivity(aug) >= 3
        check_embedding_bookkeeping(aemb)


def test_ladder_augment_primes_face_copy_names_that_are_taken():
    text = ("group G { gens: f0c0 b; rels: f0c0^4, b^2, f0c0*b*f0c0^-1*b^-1; "
            "involutions: b; }")
    g = build_cayley(coset_enumerate(parse_presentation(text), 100),
                     ["f0c0", "b"])
    aug, _ = ladder_augment(g, planarity_test(g))
    copies = aug.vertex_names[g.n_vertices:]
    assert "f0c0'" in copies and "f0c0" not in copies
    assert "f1c0" in copies  # a free name is kept
    assert len(set(aug.vertex_names)) == aug.n_vertices
