import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pcl.groups import (EnumerationBudgetError, GroupModel, a4_model,
                        coset_enumerate, cyclic_group, direct_product,
                        z4xz2_model)
from pcl.presentation import PresentationError, parse_presentation
from util import (check_axioms_by_walk, coset_enumerate_with_finds,
                  eager_element_names, find_isomorphism, grp_resource)


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


# -- powers of compound words: the skipped scans, the squaring certificate
# -- and the names built from strings

@st.composite
def compound_power_inputs(draw, random_words: bool = True
                          ) -> tuple[str, int]:
    """A presentation with relators that are powers of compound words,
    shuffled, with some generators declared involutions, and a coset
    budget: D_n as r^n, s^2 and (r*s)^2 or (r*s^-1)^2; C_n x C_m with
    (a*b)^lcm(n,m) or (a*b^-1)^lcm(n,m) added; the (2,2,n) and (2,3,m)
    triangle groups as (k*r)^n; or, with random_words, powers of random
    words on two or three generators, which may present an infinite
    group and so get the budgets under which a refusal is quick."""
    kinds = ["dihedral", "product", "triangle"]
    kind = draw(st.sampled_from(kinds + ["random"] * random_words))
    if kind == "dihedral":
        n = draw(st.integers(1, 60))
        gens, rels = ["r", "s"], [f"r^{n}", "s^2",
                                  draw(st.sampled_from(["(r*s)^2",
                                                        "(r*s^-1)^2"]))]
    elif kind == "product":
        n, m = draw(st.integers(1, 60)), draw(st.integers(1, 6))
        word = draw(st.sampled_from(["a*b", "a*b^-1"]))
        gens = ["a", "b"]
        rels = [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1",
                f"({word})^{math.lcm(n, m)}"]
    elif kind == "triangle":
        l, m = draw(st.sampled_from([(2, n) for n in range(1, 61)]
                                    + [(3, m) for m in (2, 3, 4, 5)]))
        gens, rels = ["k", "r"], ["k^2", f"r^{l}", f"(k*r)^{m}"]
    else:
        gens = ["a", "b", "c"][:draw(st.integers(2, 3))]
        letters = [s for g in gens for s in (g, f"{g}^-1")]
        words = st.lists(st.sampled_from(letters), min_size=1,
                         max_size=4).map("*".join)
        rels = [f"{g}^{draw(st.integers(1, 6))}" for g in gens]
        rels += [f"({w})^{draw(st.integers(1, 6))}"
                 for w in draw(st.lists(words, min_size=1, max_size=3))]
    invol = draw(st.lists(st.sampled_from(gens), unique=True))
    rels = draw(st.permutations(rels))
    text = f"group G {{ gens: {' '.join(gens)}; rels: {', '.join(rels)};"
    if invol:
        text += f" involutions: {' '.join(invol)};"
    budgets = [50, 500] if kind == "random" else [50, 500, 4096]
    return text + " }", draw(st.sampled_from(budgets))


@settings(max_examples=150, deadline=None)
@given(compound_power_inputs())
def test_compound_power_enumeration_equals_enumeration_with_finds(case):
    text, max_cosets = case
    p = parse_presentation(text)
    assert (_outcome(coset_enumerate, p, max_cosets)
            == _outcome(coset_enumerate_with_finds, p, max_cosets))


def _verdict(check, g):
    try:
        check(g)
    except AssertionError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(compound_power_inputs(random_words=False))
def test_squaring_certificate_equals_relator_walk(case):
    text, max_cosets = case
    try:
        g = coset_enumerate(parse_presentation(text), max_cosets)
    except EnumerationBudgetError:
        return
    assert _verdict(GroupModel.check_axioms, g) is None
    assert _verdict(check_axioms_by_walk, g) is None


@st.composite
def broken_models(draw) -> GroupModel:
    """A model on a, b whose relator w^k fails on a cycle of w away from
    0 only: b is the cycle x -> x+1, and a is chosen so that w (a or a*b)
    has the cycle of 0 of a length dividing k and some other cycle of a
    length that does not divide k."""
    k = draw(st.integers(2, 12))
    lengths = [draw(st.sampled_from([d for d in range(1, k + 1)
                                     if k % d == 0]))]
    lengths.append(draw(st.sampled_from([d for d in range(2, 9)
                                         if k % d])))
    lengths += draw(st.lists(st.integers(1, 8), max_size=3))
    n = sum(lengths)
    points = [0] + draw(st.permutations(range(1, n)))
    w_perm, at = [0] * n, 0
    for d in lengths:
        cycle = points[at:at + d]
        for i, x in enumerate(cycle):
            w_perm[x] = cycle[(i + 1) % d]
        at += d
    word = draw(st.sampled_from(["a", "a*b"]))
    # x*a*b = w(x) when a(x) = w(x) - 1
    a = w_perm if word == "a" else [(y - 1) % n for y in w_perm]
    rels = draw(st.permutations([f"({word})^{k}", f"b^{n}"]))
    p = parse_presentation(f"group G {{ gens: a b; rels: {', '.join(rels)}; }}")
    return GroupModel("G", {"a": a, "b": [(x + 1) % n for x in range(n)]}, p)


@given(broken_models())
def test_squaring_certificate_finds_what_the_walk_finds(g):
    verdict = _verdict(GroupModel.check_axioms, g)
    assert verdict is not None and verdict.startswith("relator ")
    assert verdict == _verdict(check_axioms_by_walk, g)


@settings(max_examples=60, deadline=None)
@given(compound_power_inputs(random_words=False))
def test_names_from_strings_equal_eager_names(case):
    text, max_cosets = case
    try:
        g = coset_enumerate(parse_presentation(text), max_cosets)
    except EnumerationBudgetError:
        return
    assert g.element_names == eager_element_names(g.gens)


@pytest.mark.parametrize("text,name", [
    # three letters that are no power print letter by letter
    ("group D4 { gens: a b; rels: (a*b)^2, a^4; involutions: b; }",
     "a*a*b"),
    ("group D4 { gens: a b; rels: (a*b)^2, a^4; involutions: b; }", "a^2"),
    ("group S4 { gens: k r; rels: k^2, r^3, (k*r)^4; involutions: k; }",
     "(k*r)^2"),
    ("group A5 { gens: k r; rels: k^2, r^3, (k*r)^5; involutions: k; }",
     "(r^-1*k)^2"),
    ("group C5 { gens: a; rels: a^5; }", "a^-2"),
])
def test_names_from_strings_pinned(text, name):
    g = coset_enumerate(parse_presentation(text), 100)
    assert name in g.element_names
    assert g.element_names == eager_element_names(g.gens)


def _enumeration_calls(n: int) -> int:
    """The Python calls made while ``coset_enumerate`` runs on the
    presentation of C_n x C_2, its certificate included."""
    p = parse_presentation(f"group C {{ gens: a b; rels: a^{n}, b^2, "
                           "a*b*a^-1*b^-1; involutions: b; }")
    calls = []
    sys.setprofile(lambda _, event, __: event == "call" and calls.append(1))
    try:
        coset_enumerate(p, 2 * n)
    finally:
        sys.setprofile(None)
    return len(calls)


def test_enumeration_calls_grow_linearly():
    # a relator a^n scanned at every coset makes the count quadratic in n:
    # it then grows about 15 times from n = 250 to 1000
    assert _enumeration_calls(1000) <= 4.5 * _enumeration_calls(250)
