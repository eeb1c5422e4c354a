import pytest
from hypothesis import given, strategies as st

from pcl.augment import (TooFewVerticesError, cayley_connectivity,
                         ladder_augment, vertex_connectivity)
from pcl.cayley import InfiniteFamilySpec, build_ball, build_cayley
from pcl.embedding import planarity_test
from pcl.groups import a4_model, coset_enumerate, cyclic_group, z4xz2_model
from pcl.planarity import simple_neighbours
from pcl.presentation import parse_presentation
from util import (brute_force_connectivity, check_embedding_bookkeeping,
                  graph_from_edges, make_rng, random_plane_graph)


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


def _enumerated(text):
    return coset_enumerate(parse_presentation(text), 500)


_GROUPS_TO_60 = [
    *(cyclic_group(n) for n in (2, 3, 6, 12)),
    a4_model(),
    z4xz2_model(),
    *(_enumerated(f"group D {{ gens: a b; rels: a^{n}, b^2, (a*b)^2; }}")
      for n in (5, 15)),
    _enumerated("group C { gens: a b; rels: a^6, b^3, a*b*a^-1*b^-1; }"),
    _enumerated("group T { gens: a b; rels: a^2, b^3, (a*b)^5; }"),
]


@st.composite
def _generating_multisets(draw):
    """A group of order <= 60 and a multiset of its elements holding its
    presentation generators once or twice, and up to four random
    elements (inverses, repeats and the identity, a loop, included)."""
    g = draw(st.sampled_from(_GROUPS_TO_60))
    gens = [s for s in g.gens for _ in range(draw(st.integers(1, 2)))]
    gens += draw(st.lists(st.sampled_from(g.element_names), max_size=4))
    return g, draw(st.permutations(gens))


@given(_generating_multisets())
def test_cayley_connectivity_equals_flow(case):
    g, gens = case
    cg = build_cayley(g, gens)
    assert cayley_connectivity(cg) == vertex_connectivity(cg)


@pytest.mark.parametrize("n, gens, degree", [
    (2, ["a"], 1), (6, ["a", "a", "a^5"], 2), (6, ["a", "a^2"], 4),
    (6, ["a", "a^2", "a^3"], 5), (12, ["a", "a^2", "a^3"], 6),
    (12, ["a", "a^2", "a^3", "a^6", "e"], 7),
])
def test_cayley_connectivity_by_degree(n, gens, degree):
    """Degrees 1-7 of cyclic groups; the complete graphs K2 and K6 and
    the circulants of degree 6 and 7 have connectivity d."""
    cg = build_cayley(cyclic_group(n), gens)
    assert len(simple_neighbours(cg.n_vertices, cg.edges())[0]) == degree
    assert cayley_connectivity(cg) == vertex_connectivity(cg) == degree


def test_cayley_connectivity_refusals():
    with pytest.raises(ValueError, match="complete Cayley graph"):
        cayley_connectivity(build_ball(InfiniteFamilySpec("free", {}), 2))
    trivial = build_cayley(_enumerated("group T { gens: a; rels: a; }"), ["a"])
    with pytest.raises(TooFewVerticesError,
                       match="needs at least 2 vertices, got 1"):
        cayley_connectivity(trivial)


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


def test_ladder_augment_leaves_input_rotation_unchanged():
    """Augmenting inserts rungs into a rotation read off the input
    embedding; the input embedding must not change."""
    rng = make_rng(13)
    for _ in range(10):
        g, emb = random_plane_graph(rng, max_vertices=20, steps=8)
        before = [list(r) for r in emb.rotation]
        ladder_augment(g, emb)
        assert emb.rotation == before


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
