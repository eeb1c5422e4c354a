import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pcl.groups import (EnumerationBudgetError, a4_model, coset_enumerate,
                        cyclic_group, direct_product, z4xz2_model)
from pcl.presentation import PresentationError, parse_presentation
from util import (coset_enumerate_with_finds, eager_element_names,
                  find_isomorphism, grp_resource)


def test_a4_enumeration():
    g = a4_model()
    assert g.order == 12
    g.check_axioms()
    assert g.element_order(g.element("k")) == 2
    assert g.element_order(g.element("r")) == 3


def test_alternate_presentation_isomorphic():
    p = parse_presentation("group A4alt { gens: r s; rels: r^3, s^3, (r*s)^2; }")
    h = coset_enumerate(p, 200)
    assert h.order == 12
    assert find_isomorphism(a4_model(), h) is not None


def test_bundled_a4_presentations_are_isomorphic():
    a4, alt = (coset_enumerate(parse_presentation(grp_resource(name)), 200)
               for name in ("a4.grp", "a4-alt.grp"))
    assert find_isomorphism(a4, alt) is not None
    d6 = coset_enumerate(parse_presentation(
        "group D6 { gens: a b; rels: a^6, b^2, (a*b)^2; }"), 200)
    assert d6.order == 12 and find_isomorphism(a4, d6) is None


def test_cyclic_and_product():
    g = z4xz2_model()
    assert g.order == 8
    g.check_axioms()
    assert g.element_order(g.element("(1,0)")) == 4
    assert g.element_order(g.element("(0,1)")) == 2
    assert g.mul(g.element("(1,0)"), g.element("(0,1)")) == g.element("(1,1)")


def test_trivial_and_small_enumerations():
    p = parse_presentation("group T { gens: a; rels: a; }")
    assert coset_enumerate(p, 10).order == 1
    p = parse_presentation("group Z6 { gens: a; rels: a^6; }")
    g = coset_enumerate(p, 50)
    assert g.order == 6
    assert find_isomorphism(g, cyclic_group(6)) is not None


def test_infinite_presentation_exceeds_budget():
    p = parse_presentation("group ZZ { gens: a b; rels: a*b*a^-1*b^-1; }")
    with pytest.raises(EnumerationBudgetError):
        coset_enumerate(p, 64)


def test_dihedral_from_involutions():
    p = parse_presentation(
        "group D4 { gens: s t; rels: (s*t)^4; involutions: s t; }")
    g = coset_enumerate(p, 100)
    assert g.order == 8
    assert find_isomorphism(g, z4xz2_model()) is None  # D4 is not Z4xZ2


def test_eval_word_and_closure():
    g = a4_model()
    p = g.presentation
    for rel in p.all_relators():
        assert g.eval_word(rel) == g.identity
    assert len(g.closure([g.element("k"), g.element("r")])) == 12
    assert len(g.closure([g.element("r")])) == 3


def test_element_names_deterministic():
    a, b = a4_model(), a4_model()
    assert a.element_names == b.element_names
    assert ([a.right(x) for x in range(a.order)]
            == [b.right(x) for x in range(b.order)])


def _replay_table(g):
    """Word-replay oracle: x*y applies y's name, read as a word, to x one
    generator letter at a time (the right action of the generators)."""
    gens = list(g.presentation.generators)
    right = {}
    for sym in gens:
        s = g.element(sym)
        right[(sym, 1)] = [g.mul(x, s) for x in range(g.order)]
        right[(sym, -1)] = [g.mul(x, g.inv(s)) for x in range(g.order)]
    words = [[]] + [
        list(parse_presentation(
            f"group W {{ gens: {' '.join(gens)}; rels: {name}; }}"
        ).relators[0])
        for name in g.element_names[1:]]
    table = []
    for x in range(g.order):
        row = []
        for word in words:
            acc = x
            for letter in word:
                acc = right[letter][acc]
            row.append(acc)
        table.append(row)
    return table


@pytest.mark.parametrize("gens,rels,invol", [
    ("s t", ["s^2", "t^2", "(s*t)^5"], ""),
    ("s t", ["(s*t)^12"], "s t"),
    ("a b", ["a^6", "b^2", "a*b*a^-1*b^-1"], "b"),
    ("a b", ["a^9", "b^2", "a*b*a^-1*b^-1"], ""),
    ("a b", ["a^2", "b^3", "(a*b)^3"], ""),
    ("a b", ["a^2", "b^3", "(a*b)^4"], "a"),
    ("a b", ["a^2", "b^3", "(a*b)^5"], ""),
])
def test_mul_table_matches_word_replay(gens, rels, invol):
    for order in itertools.permutations(rels):
        text = f"group G {{ gens: {gens}; rels: {', '.join(order)};"
        if invol:
            text += f" involutions: {invol};"
        g = coset_enumerate(parse_presentation(text + " }"), 500)
        table = _replay_table(g)
        elements = range(g.order)
        assert [[g.mul(x, y) for y in elements] for x in elements] == table
        assert [g.left(x) for x in elements] == table
        assert [g.right(y) for y in elements] == [list(c) for c in zip(*table)]
        assert all(table[x][g.inv(x)] == g.identity for x in elements)


# -- the permutation model against the word-replay oracle ------------------

@st.composite
def dihedral_and_product_presentations(draw) -> tuple[str, int, int]:
    """A D_n or C_n x C_m presentation with shuffled relators, as
    (text, n, m); m is 0 for D_n."""
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        m = 0
        rels = [f"r^{n}", "s^2", "(r*s)^2"]
        gens, invol = "r s", draw(st.sampled_from(["", "s"]))
    else:
        m = draw(st.integers(1, 6))
        rels = [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"]
        gens, invol = "a b", ""
    rels = draw(st.permutations(rels))
    text = f"group G {{ gens: {gens}; rels: {', '.join(rels)};"
    if invol:
        text += f" involutions: {invol};"
    return text + " }", n, m


@given(dihedral_and_product_presentations())
def test_group_core_matches_word_replay(case):
    text, n, m = case
    g = coset_enumerate(parse_presentation(text), 200)
    assert g.order == (n * m if m else 2 * n)
    table = _replay_table(g)
    elements = range(g.order)
    for x in elements:
        assert g.left(x) == table[x]
        assert g.right(x) == [row[x] for row in table]
        assert [g.mul(x, y) for y in elements] == table[x]
        assert table[x][g.inv(x)] == g.identity == table[g.inv(x)][x]


@given(st.integers(1, 6), st.integers(1, 6), st.permutations([0, 1, 2]))
def test_product_presentation_isomorphic_to_direct_product(n, m, perm):
    rels = [[f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"][i] for i in perm]
    g = coset_enumerate(parse_presentation(
        f"group C {{ gens: a b; rels: {', '.join(rels)}; }}"), 100)
    h = direct_product(cyclic_group(n), cyclic_group(m))
    h.check_axioms()
    assert find_isomorphism(g, h) is not None


# -- names on demand -------------------------------------------------------

@st.composite
def named_presentations(draw) -> str:
    """A D_n, C_n x C_m or finite triangle-group presentation with
    shuffled relators."""
    kind = draw(st.sampled_from(["dihedral", "product", "triangle"]))
    if kind == "dihedral":
        n = draw(st.integers(1, 12))
        gens, rels = "r s", [f"r^{n}", "s^2", "(r*s)^2"]
        invol = draw(st.sampled_from(["", "s"]))
    elif kind == "product":
        n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        gens, rels = "a b", [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"]
        invol = "b" if m == 2 and draw(st.booleans()) else ""
    else:  # (l, m, n) with 1/l + 1/m + 1/n > 1
        l, m, n = draw(st.sampled_from(
            [(2, 2, 2), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5)]))
        gens, rels = "x y", [f"x^{l}", f"y^{m}", f"(x*y)^{n}"]
        invol = "x" if draw(st.booleans()) else ""
    rels = draw(st.permutations(rels))
    text = f"group G {{ gens: {gens}; rels: {', '.join(rels)};"
    if invol:
        text += f" involutions: {invol};"
    return text + " }"


@given(named_presentations())
def test_names_on_demand_equal_eager_names_and_resolve(text):
    g = coset_enumerate(parse_presentation(text), 200)
    assert "element_names" not in vars(g)  # nothing rendered yet
    assert g.element_names == eager_element_names(g.gens)
    for x, name in enumerate(g.element_names):
        assert g.element(name) == x


def test_element_evaluates_any_word():
    g = a4_model()
    k, r = g.element("k"), g.element("r")
    assert g.element("k*r^2*k") == g.mul(g.mul(k, g.mul(r, r)), k)
    assert g.element("(k*r)^3") == g.element("e") == g.element("r^0") == 0
    assert g.element("r^-1") == g.inv(r)
    for text in ("a", "k^", "k*(r", "k r", ""):
        with pytest.raises(PresentationError):
            g.element(text)
    with pytest.raises(ValueError, match=r"'\(9,9\)'"):
        z4xz2_model().element("(9,9)")


# -- the live-coset enumeration against the one that re-finds every coset --

@st.composite
def enumeration_inputs(draw) -> tuple[str, int]:
    """A D_n, C_n x C_m or (2,3,m) presentation, or one of random words on
    two or three generators with a power of each, relators shuffled and
    some generators declared involutions; and a coset budget."""
    kind = draw(st.sampled_from(["dihedral", "product", "triangle",
                                 "random"]))
    if kind == "dihedral":
        n = draw(st.integers(1, 30))
        gens, rels = ["r", "s"], [f"r^{n}", "s^2", "(r*s)^2"]
    elif kind == "product":
        n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        gens, rels = ["a", "b"], [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"]
    elif kind == "triangle":
        m = draw(st.integers(2, 5))
        gens, rels = ["x", "y"], ["x^2", "y^3", f"(x*y)^{m}"]
    else:
        gens = ["a", "b", "c"][:draw(st.integers(2, 3))]
        letters = [s for g in gens for s in (g, f"{g}^-1")]
        words = st.lists(st.sampled_from(letters), min_size=1,
                         max_size=8).map("*".join)
        rels = [f"{g}^{draw(st.integers(1, 5))}" for g in gens]
        rels += draw(st.lists(words, min_size=1, max_size=3))
    invol = draw(st.lists(st.sampled_from(gens), unique=True))
    rels = draw(st.permutations(rels))
    text = f"group G {{ gens: {' '.join(gens)}; rels: {', '.join(rels)};"
    if invol:
        text += f" involutions: {' '.join(invol)};"
    return text + " }", draw(st.sampled_from([50, 500, 4096]))


def _outcome(enumerate_, p, max_cosets):
    try:
        return enumerate_(p, max_cosets).gens
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=100)
@given(enumeration_inputs())
def test_enumeration_equals_enumeration_with_finds(case):
    text, max_cosets = case
    p = parse_presentation(text)
    assert (_outcome(coset_enumerate, p, max_cosets)
            == _outcome(coset_enumerate_with_finds, p, max_cosets))
