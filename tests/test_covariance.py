from collections import Counter

import pytest

from pcl.cayley import build_cayley
from pcl.covariance import (NonPlanarError, NotThreeConnectedError,
                            is_covariant, orientation_class,
                            orientation_table, whitney_unique)
from pcl.embedding import (KuratowskiWitness,
                           brute_force_consistent_embeddings,
                           planarity_test, trace_faces)
from pcl.graph import graph_from_edges
from pcl.groups import (a4_model, coset_enumerate, cyclic_group,
                        z4xz2_model)
from pcl.presentation import parse_presentation

from util import covariance_by_face_keys, make_rng


def test_whitney_unique_rejects_low_connectivity():
    cycle = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotThreeConnectedError):
        whitney_unique(cycle)


def test_whitney_unique_rejects_nonplanar():
    k5 = graph_from_edges(5, [(i, j) for i in range(5)
                              for j in range(i + 1, 5)])
    with pytest.raises(NonPlanarError) as ei:
        whitney_unique(k5)
    assert ei.value.witness.kind == "K5"


def test_whitney_canonical_is_mirror_stable():
    cg = build_cayley(a4_model(), ["k", "r"])
    e1 = whitney_unique(cg)
    e2 = whitney_unique(cg)
    assert e1.rotation == e2.rotation


def test_a4_covariant_and_all_preserving():
    cg = build_cayley(a4_model(), ["k", "r"])
    emb = whitney_unique(cg)
    assert is_covariant(cg, emb) is True
    table = orientation_table(cg)
    assert set(table.values()) == {"preserving"}


def test_prism_orientation_classes():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])
    table = orientation_table(cg)
    assert table["(0,1)"] == "reversing"
    assert table["(2,0)"] == "preserving"
    assert table["(0,0)"] == "preserving"


def test_orientation_is_homomorphism_on_prism():
    g = z4xz2_model()
    cg = build_cayley(g, ["(1,0)", "(0,1)"])
    table = orientation_table(cg)
    sign = {name: (1 if c == "preserving" else -1)
            for name, c in table.items()}
    for x in range(g.order):
        for y in range(g.order):
            xy = g.element_names[g.mul(x, y)]
            assert sign[xy] == sign[g.element_names[x]] * sign[g.element_names[y]]


def test_prism_covariant():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])
    emb = whitney_unique(cg)
    assert is_covariant(cg, emb) is True


def test_orientation_class_accepts_symbols():
    cg = build_cayley(a4_model(), ["k", "r"])
    emb = whitney_unique(cg)
    assert orientation_class(cg, "k", emb) == "preserving"


def test_cube_as_z2_cubed_style_graph():
    # Cay(Z6, {1,3}): 6-cycle plus three diameters = K3,3 -> non-planar
    cg = build_cayley(cyclic_group(6, "g"), ["g", "g^3"]) \
        if False else None  # symbolic powers unsupported; construct directly
    g6 = cyclic_group(6, "g")
    x3 = g6.mul(g6.mul(g6.element("g"), g6.element("g")), g6.element("g"))
    cg = build_cayley(g6, ["g", g6.element_names[x3]])
    with pytest.raises(NonPlanarError):
        whitney_unique(cg)


def _enumerated(text: str, gens: list[str]):
    return build_cayley(coset_enumerate(parse_presentation(text), 500), gens)


@pytest.mark.parametrize("cg", [
    *(_enumerated(f"group D {{ gens: r s; rels: r^{n}, s^2, (r*s)^2; "
                  "involutions: s; }", ["r", "s"]) for n in (3, 4, 7)),
    *(_enumerated(f"group C {{ gens: a b; rels: a^{n}, b^2, a*b*a^-1*b^-1; "
                  "involutions: b; }", ["a", "b"]) for n in (3, 5, 8)),
    *(_enumerated(f"group T {{ gens: a b; rels: a^2, b^3, (a*b)^{m}; "
                  "involutions: a; }", ["a", "b"]) for m in (3, 4, 5)),
    # reflection groups: every generator reverses
    *(_enumerated(f"group W {{ gens: a b c; rels: (a*b)^{m}, (b*c)^{k}, "
                  "(a*c)^2; involutions: a b c; }", ["a", "b", "c"])
      for m, k in ((2, 3), (2, 4), (3, 3))),
    build_cayley(a4_model(), ["k", "r"]),
    build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"]),
], ids=["D3", "D4", "D7", "C3xC2", "C5xC2", "C8xC2", "T233", "T234", "T235",
        "W223", "W224", "W233", "a4", "prism"])
def test_orientation_table_matches_per_element_classes(cg):
    emb = whitney_unique(cg)
    assert orientation_table(cg) == {
        name: orientation_class(cg, x, emb)
        for x, name in enumerate(cg.group.element_names)}


@pytest.mark.parametrize("cg", [
    *(_enumerated(f"group D {{ gens: r s; rels: r^{n}, s^2, (r*s)^2; "
                  "involutions: s; }", ["r", "s"]) for n in (3, 4, 6)),
    *(_enumerated(f"group C {{ gens: a b; rels: a^{n}, b^2, a*b*a^-1*b^-1; "
                  "involutions: b; }", ["a", "b"]) for n in (3, 5, 6)),
    _enumerated("group W { gens: a b c; rels: (a*b)^2, (b*c)^3, (a*c)^2; "
                "involutions: a b c; }", ["a", "b", "c"]),
    build_cayley(a4_model(), ["k", "r"]),
    # multisets: a repeated reversing involution bounds a digon
    _enumerated("group C { gens: a b; rels: a^3, b^2, a*b*a^-1*b^-1; "
                "involutions: b; }", ["a", "b", "b"]),
    build_cayley(z4xz2_model(), ["(1,0)", "(0,1)", "(0,1)"]),
], ids=["D3", "D4", "D6", "C3xC2", "C5xC2", "C6xC2", "W223", "a4", "C3xC2-abb",
        "prism-multiset"])
def test_orientation_table_matches_brute_force_spins(cg):
    """In a consistent embedding the label order at x is the identity's
    (spin 1) or its reverse (spin -1): x preserves orientation iff its
    spin is 1.  The brute force traces every spin pattern (V <= 12)."""
    table = orientation_table(cg)
    expected = [table[name] for name in cg.group.element_names]
    consistent = brute_force_consistent_embeddings(cg)
    assert consistent
    for _, spins, _ in consistent:
        assert ["preserving" if s > 0 else "reversing"
                for s in spins] == expected


def _dihedral(n: int):
    return _enumerated(f"group D {{ gens: r s; rels: r^{n}, s^2, (r*s)^2; "
                       "involutions: s; }", ["r", "s"])


def test_is_covariant_matches_face_key_oracle_on_random_rotations():
    """Random dart orders, and the planar rotation (the incidence order of
    K5 = Cay(Z5, {a, a^2})) with 1-3 vertices flipped, on simple graphs,
    multisets, loops and degree-2 cycles."""
    cases = [build_cayley(a4_model(), ["k", "r"]),
             build_cayley(a4_model(), ["k", "k", "r"]),
             build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"]),
             build_cayley(z4xz2_model(), ["(1,0)", "(0,1)", "(0,0)"]),
             build_cayley(cyclic_group(6, "a"), ["a"]),
             build_cayley(cyclic_group(5, "a"), ["a", "a^2"]),
             *(_dihedral(n) for n in (3, 4, 5, 6))]
    rng = make_rng(9)
    verdicts = Counter()
    for cg in cases:
        emb = planarity_test(cg)
        base = (cg.incidence() if isinstance(emb, KuratowskiWitness)
                else emb.rotation)
        rotations = [base]
        for _ in range(12):
            rotations.append([rng.sample(r, len(r)) for r in base])
            flipped = set(rng.sample(range(cg.n_vertices), rng.randint(1, 3)))
            rotations.append([r[::-1] if v in flipped else r
                              for v, r in enumerate(base)])
        for rot in rotations:
            emb = trace_faces(cg, rot)
            verdict = is_covariant(cg, emb)
            assert verdict == covariance_by_face_keys(cg, emb), \
                (cg.group.name, cg.generators, rot)
            verdicts[verdict is True] += 1
    assert verdicts[True] and verdicts[False], verdicts


def test_is_covariant_refuses_a_ball():
    from pcl.cayley import build_ball
    from pcl.families import engine_for
    ball = build_ball(engine_for("z-cross-z"), 2)
    with pytest.raises(ValueError, match="needs a complete Cayley graph"):
        is_covariant(ball, planarity_test(ball))
