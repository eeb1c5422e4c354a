import pytest
from hypothesis import given, strategies as st

from pcl.cayley import build_ball
from pcl.families import (AmalgamEngine, CnxZEngine, FreeGroupEngine, ZEngine,
                          ZxZEngine, bundled_amalgam, engine_for)
from pcl.groups import a4_model, coset_enumerate, z4xz2_model
from pcl.presentation import parse_presentation

from util import (TupleAmalgamEngine, amalgam_key_by_divmod,
                  free_name_by_divmod)


def _name(e, key):
    return e.names([key])[0]


def _times(e, key, label, sign):
    """key times the generator `label` to the power sign, by e.moves()."""
    gen = next(gen for gen in e.moves() if gen[0] == label)
    return gen[2 if sign > 0 else 3](key)


@pytest.mark.parametrize("tag,params,identity", [
    *(("free", {"rank": rank}, "e") for rank in (1, 2, 3)),
    *(("z", {"steps": steps}, "0")
      for steps in ((1,), (2, 3), (0, 1), (1, -1))),
    ("z-cross-z", {}, "(0,0)"),
    ("z-cross-z3", {}, "(0,0)"),
    *(("cn-cross-z", {"n": n}, "(0,0)") for n in (2, 3, 5)),
    ("amalgam", {}, "e"),
])
def test_engine_contract(tag, params, identity):
    """Key 0 is the identity; on Ball(3), found breadth-first over the
    records, each generator's two moves are mutually inverse and equal for
    an involution; build_ball numbers key 0 first and finds that ball."""
    e = engine_for(tag, **params)
    gens = e.moves()
    assert e.names([0]) == [identity]
    ball, shell = {0}, [0]
    for _ in range(3):
        shell = [w for key in shell for _, _, times, times_inv in gens
                 for w in (times(key), times_inv(key)) if w not in ball]
        ball.update(shell)
    for _, involution, times, times_inv in gens:
        for key in ball:
            assert times_inv(times(key)) == key == times(times_inv(key))
            assert not involution or times(key) == times_inv(key)
    cg = build_ball(e, 3)
    assert cg.vertex_names[0] == identity and cg.depth[0] == 0
    assert cg.n_vertices == len(ball)


def test_free_group_reduction():
    e = FreeGroupEngine(2)
    k = 0
    k = _times(e, k, "a", 1)
    k = _times(e, k, "b", 1)
    k = _times(e, k, "b", -1)
    assert _name(e, k) == "a"
    assert _times(e, k, "a", -1) == 0
    assert _name(e, 0) == "e"


def test_free_group_names_are_shortlex_words():
    e = FreeGroupEngine(5)
    k = 0
    for label, sign in (("f", -1), ("a", 1), ("d", -1), ("d", -1)):
        k = _times(e, k, label, sign)
    assert _name(e, k) == "f'ad'd'"


@given(st.integers(1, 4), st.data())
def test_free_names_equal_names_by_divmod(rank, data):
    """Any sequence of keys, in any order and with repeats, is named as
    the digit-by-digit reading names each key."""
    e = FreeGroupEngine(rank)
    words = st.lists(st.integers(1, 2 * rank), max_size=8)
    keys = data.draw(st.lists(words.map(
        lambda codes: sum(c * e.base ** i for i, c in enumerate(codes)))))
    assert e.names(keys) == [free_name_by_divmod(e, k) for k in keys]


def test_free_group_ball_growth():
    # |B_r| in F2 is 1 + 4*(3^r - 1)/2
    e = FreeGroupEngine(2)
    frontier = {0}
    seen = {0}
    for r in range(1, 4):
        nxt = set()
        for k in frontier:
            for label, _, _, _ in e.moves():
                for s in (1, -1):
                    w = _times(e, k, label, s)
                    if w not in seen:
                        nxt.add(w)
        seen |= nxt
        frontier = nxt
        assert len(seen) == 1 + 2 * (3 ** r - 1)
        assert len(set(e.names(list(seen)))) == len(seen)


def test_z_engine_steps():
    e = ZEngine((1, 2))
    labels = [label for label, _, _, _ in e.moves()]
    assert labels == ["z", "z2"]
    assert _name(e, _times(e, 0, "z2", -1)) == "-2"


def test_zxz_engine():
    e = ZxZEngine()
    k = _times(e, _times(e, 0, "x", 1), "y", -1)
    assert _name(e, k) == "(1,-1)"
    for label, sign in (("x", 1), ("y", -1), ("x", -1), ("x", -1)):
        k = _times(e, k, label, sign)
    assert _name(e, k) == "(0,-2)"


def test_zxz_keys_stay_apart_up_to_the_ball_budget():
    # x and y add fixed ints, so m x-steps and n y-steps give m*X + n*Y
    from pcl.families import BALL_BUDGET
    e = ZxZEngine()
    (_, _, x, _), (_, _, y, _) = e.moves()
    X, Y = x(0), y(0)
    assert x(5 * Y) == X + 5 * Y and y(-3 * X) == Y - 3 * X
    far = BALL_BUDGET + 1
    for m, n in ((far, -far), (-far, far), (-far, 3), (-2, far), (0, -far)):
        assert _name(e, m * X + n * Y) == f"({m},{n})"


def test_cnxz_involution_flag():
    assert CnxZEngine(2).moves()[1][1]
    assert not CnxZEngine(3).moves()[1][1]
    e = CnxZEngine(3)
    k = _times(e, _times(e, 0, "r", -1), "z", -1)
    assert _name(e, k) == "(-1,2)"
    assert _name(e, _times(e, k, "r", 1)) == "(-1,0)"
    assert _times(e, _times(e, k, "r", 1), "z", 1) == 0


def test_engine_for_tags():
    assert isinstance(engine_for("free", rank=2), FreeGroupEngine)
    assert isinstance(engine_for("z-cross-z"), ZxZEngine)
    assert isinstance(engine_for("z-cross-z3"), CnxZEngine)
    with pytest.raises(ValueError):
        engine_for("nope")


def _amalgam():
    a, b = a4_model(), z4xz2_model()
    return AmalgamEngine(a, b, ["k", "r"], ["(1,0)", "(0,1)"],
                         a.element("k"), b.element("(0,1)"))


def test_amalgam_identity_and_merged_involution():
    e = _amalgam()
    involution = {label: inv for label, inv, _, _ in e.moves()}
    assert involution["b"]
    k = _times(e, 0, "b", 1)
    assert _name(e, k) == "b"
    assert _times(e, k, "b", 1) == 0


def test_amalgam_normal_form_alternation():
    e = _amalgam()
    # r then (1,0) then r again: three syllables, alternating factors
    k = 0
    for lab in ("r", "(1,0)", "r"):
        k = _times(e, k, lab, 1)
    assert "." in _name(e, k)
    # walking back cancels to the identity
    for lab in ("r", "(1,0)", "r"):
        k = _times(e, k, lab, -1)
    assert k == 0


def test_packed_amalgam_moves_equal_the_tuple_moves():
    """On every key of the bundled amalgam's Ball(7), each move, read off
    digit by digit, is the tuple oracle's move, and the names are the
    oracle's names."""
    e, oracle = engine_for("amalgam"), TupleAmalgamEngine(**bundled_amalgam())
    assert ([(label, inv) for label, inv, _, _ in e.moves()]
            == [(g.label, g.is_involution) for g in oracle.gens()])
    shell, ball = [0], {0}
    for _ in range(7):
        shell = [w for key in shell for _, _, times, times_inv in e.moves()
                 for w in (times(key), times_inv(key)) if w not in ball]
        ball.update(shell)
    keys = sorted(ball)
    assert len(keys) == 3228  # |Ball(7)|
    for key in keys:
        tup = amalgam_key_by_divmod(e, key)
        for label, _, times, times_inv in e.moves():
            for sign, move in ((1, times), (-1, times_inv)):
                assert (amalgam_key_by_divmod(e, move(key))
                        == oracle.apply(tup, label, sign))
    assert e.names(keys) == [oracle.name(amalgam_key_by_divmod(e, key))
                             for key in keys]


def test_amalgam_rejects_non_involution():
    a, b = a4_model(), z4xz2_model()
    with pytest.raises(ValueError):
        AmalgamEngine(a, b, ["k", "r"], ["(1,0)", "(0,1)"],
                      a.element("r"), b.element("(0,1)"))


def test_amalgam_word_problem_against_free_rewriting():
    # random walks that freely reduce to the empty word must return to e
    import random
    rng = random.Random(1)
    e = _amalgam()
    for _ in range(50):
        moves = []
        for _ in range(rng.randrange(1, 6)):
            moves.append((rng.choice(["b", "r", "(1,0)"]),
                          rng.choice([1, -1])))
        k = 0
        for lab, s in moves:
            k = _times(e, k, lab, s)
        for lab, s in reversed(moves):
            k = _times(e, k, lab, -s)
        assert k == 0


@pytest.mark.parametrize("steps", [(0,), (2, 4), (3, -6), ()])
def test_z_engine_refuses_steps_that_do_not_generate_z(steps):
    with pytest.raises(ValueError, match="do not generate Z"):
        ZEngine(steps)


def test_z_engine_accepts_coprime_steps():
    assert ZEngine((2, 3)).steps == (2, 3)
    assert ZEngine((-1,)).steps == (-1,)


def test_amalgam_refuses_shared_generator_label():
    # both factors are A4: their labels k, r and element names coincide
    a = a4_model()
    with pytest.raises(ValueError, match="generator labels repeat"):
        AmalgamEngine(a, a4_model(), ["k", "r"], ["k", "r"],
                      a.element("k"), a.element("k"))


def _enumerated(text):
    return coset_enumerate(parse_presentation(text), 100)


def test_amalgam_refuses_a_factor_generator_named_b():
    # C4's generator b would overwrite the merged involution's label
    a, c4 = a4_model(), _enumerated("group C4 { gens: b; rels: b^4; }")
    with pytest.raises(ValueError,
                       match=r"generator labels repeat: \['b', 'r', 'b'\]"):
        AmalgamEngine(a, c4, ["k", "r"], ["b"], a.element("k"),
                      c4.element("b^2"))


def test_amalgam_refuses_shared_element_names():
    # S3 = <k, t> names an element k, as A4 does; the labels b, r, t differ
    a = a4_model()
    s3 = _enumerated(
        "group S3 { gens: k t; rels: k^2, t^3, (k*t)^2; involutions: k; }")
    with pytest.raises(ValueError, match=r"share element names \['k'\]"):
        AmalgamEngine(a, s3, ["k", "r"], ["k", "t"], a.element("k"),
                      s3.element("k"))
