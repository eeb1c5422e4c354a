import string

import pytest
from hypothesis import given, settings, strategies as st

from pcl.presentation import (Presentation, PresentationError, Word, _Lexer,
                              parse_presentation, parse_word)
from util import _Lexer as CharWalkLexer
from util import word_str_by_periods

A4 = "group A4 { gens: k r; rels: k^2, r^3, (k*r)^3; involutions: k; }"


def test_parse_basic():
    p = parse_presentation(A4)
    assert p.name == "A4"
    assert p.generators == ["k", "r"]
    assert p.involutions == ["k"]
    assert [str(r) for r in p.relators] == ["k^2", "r^3", "(k*r)^3"]


def test_emit_round_trip():
    p = parse_presentation(A4)
    assert parse_presentation(p.emit()) == p


def test_comments_and_whitespace():
    text = """# leading comment
    group G {
      gens: a b;   # trailing comment
      rels: a^4, b^2, a*b*a^-1*b^-1;
    }"""
    p = parse_presentation(text)
    assert p.generators == ["a", "b"]
    assert str(p.relators[2]) == "a*b*a^-1*b^-1"


def test_negative_exponents_expand():
    p = parse_presentation("group G { gens: a; rels: a^-3; }")
    assert p.relators[0].letters == (("a", -1),) * 3


def test_error_carries_position():
    with pytest.raises(PresentationError) as ei:
        parse_presentation("group G { gens: a;\n rels: a^; }")
    assert ei.value.line == 2


def test_undeclared_generator_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("group G { gens: a; rels: b^2; }")


def test_duplicate_generator_rejected():
    with pytest.raises(PresentationError):
        Presentation("G", ["a", "a"], [])
    # the parser keeps repeated names as they are: a#1 and a#2 would be
    # independent generators, not copies of a
    with pytest.raises(PresentationError, match="duplicate generator"):
        parse_presentation("group G { gens: a b a; rels: a^2, b^3; }")


def test_undeclared_involution_rejected():
    with pytest.raises(PresentationError):
        parse_presentation("group G { gens: a; rels: a^2; involutions: b; }")


def test_all_relators_appends_involution_squares():
    p = Presentation("G", ["k"], [], involutions=["k"])
    assert [str(r) for r in p.all_relators()] == ["k^2"]


@pytest.mark.parametrize("text, message", [
    ("a^", "expected integer exponent (line 1, column 3)"),
    ("a*(b", "expected ')', got '' (line 1, column 5)"),
    ("zz", "unknown symbol 'zz' (line 1, column 1)"),
    ("a b", "trailing input 'b' (line 1, column 3)"),
    ("", "expected generator or '(', got '' (line 1, column 1)"),
    ("a^" + "9" * 5000, "word longer than 1000000 letters (line 1, column 3)"),
])
def test_parse_word_errors(text, message):
    with pytest.raises(PresentationError) as ei:
        parse_word(text, ["a", "b"])
    assert str(ei.value) == message


def test_parse_word_reads_printed_words():
    assert parse_word("(a*b)^0", ["a", "b"]) == Word()
    for w in (Word((("a", 1), ("b", -1)) * 3), Word((("b", -1),) * 4),
              Word((("a", 1), ("b", 1), ("a", -1)))):
        assert parse_word(str(w), ["a", "b"]) == w


def test_word_str_compresses_powers():
    assert str(Word((("k", 1),) * 2)) == "k^2"
    assert str(Word((("k", 1), ("r", 1)) * 3)) == "(k*r)^3"


_NAMES = ["a", "b", "k", "r", "s", "x1", "y_2", "Gen"]
_LETTERS = st.tuples(st.sampled_from(_NAMES), st.sampled_from([1, -1]))


@given(st.lists(_LETTERS, max_size=12).map(tuple) | st.tuples(
    st.lists(_LETTERS, min_size=1, max_size=4).map(tuple),
    st.integers(1, 12)).map(lambda bk: bk[0] * bk[1]))
def test_word_str_equals_the_period_loop(letters):
    assert str(Word(letters)) == word_str_by_periods(Word(letters))


@st.composite
def presentations(draw) -> Presentation:
    gens = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                         unique=True))
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    # runs of one letter and repeated blocks exercise the power syntax
    block = st.lists(letter, min_size=1, max_size=3).flatmap(
        lambda b: st.integers(1, 4).map(lambda k: tuple(b) * k))
    word = st.lists(block, min_size=1, max_size=3).map(
        lambda bs: Word(sum(bs, ())))
    return Presentation(draw(st.sampled_from(["", "G", "A4alt"])), gens,
                        draw(st.lists(word, min_size=1, max_size=4)),
                        draw(st.lists(st.sampled_from(gens), unique=True)))


@given(presentations())
def test_emit_parse_round_trip_generated(p):
    assert parse_presentation(p.emit()) == p


@pytest.mark.parametrize("text, message, line, col", [
    ("group G { gens: a; rels: a^3; } $", "unexpected character '$'", 1, 33),
    ("group G { gens: a;\n  rels: a^3 }", "expected ';', got '}'", 2, 13),
    ("grp G { gens: a; rels: a^3; }", "expected 'group'", 1, 1),
    ("group G { gens: a; rels: a^3; } G", "trailing input 'G'", 1, 33),
    ("group G { gens: ; rels: a^3; }", "expected identifier", 1, 17),
    ("group G { gens: a; rels: a^3, *a; }",
     "expected generator or '(', got '*'", 1, 31),
    ("group G { gens: a; rels: a^²; }", "expected integer exponent", 1, 28),
    ("group G { gens: a; rels: a^3,\n (a^0); }", "relator is the empty word",
     2, 2),
    ("group G { gens: a b\n  a; rels: a^2; }", "duplicate generator name 'a'",
     2, 3),
    ("group G { gens: a; rels: a^2, a*b; }",
     "undeclared generator 'b' in relator", 1, 33),
    ("group G { gens: a; rels: a^2; involutions: c; }",
     "undeclared involution 'c'", 1, 44),
    ("group G { gens: a; rels: a^2; involutions: a a; }",
     "duplicate involution 'a'", 1, 46),
    ("group G { gens: a; rels: a^2000000; }",
     "word longer than 1000000 letters", 1, 28),
    ("group G { gens: a; rels: (a*a)^500001; }",
     "word longer than 1000000 letters", 1, 32),
    ("group G { gens: a b; rels: a^600000*b^600000; }",
     "word longer than 1000000 letters", 1, 36),
    pytest.param(f"group G {{ gens: a; rels: a^-{'1' * 5000}; }}",
                 "word longer than 1000000 letters", 1, 28,
                 id="more-digits-than-int-converts"),
    ("group G { gens: a; rels: a^1000000, a^1000000, a^1000000; }",
     "relators longer than 1000000 letters in total", 1, 37),
    ("group G { gens: a b; rels: a^500000,\n  b^500000, a; }",
     "relators longer than 1000000 letters in total", 2, 13),
])
def test_parse_errors_carry_their_position(text, message, line, col):
    with pytest.raises(PresentationError) as ei:
        parse_presentation(text)
    assert str(ei.value) == f"{message} (line {line}, column {col})"
    assert (ei.value.line, ei.value.col) == (line, col)


def test_exponents_are_decimal_digits():
    # '²'.isdigit() holds but int('²') fails (a row above); an
    # Arabic-Indic three is a decimal digit, which int() reads
    p = parse_presentation("group G { gens: a; rels: a^٣; }")
    assert p.relators[0].letters == (("a", 1),) * 3


def test_word_length_limit_is_inclusive():
    p = parse_presentation("group G { gens: a; rels: (a^1000)^1000; }")
    assert len(p.relators[0]) == 10 ** 6
    p = parse_presentation("group G { gens: a b; rels: a^500000, b^500000; }")
    assert sum(map(len, p.relators)) == 10 ** 6


def test_direct_construction_refuses_duplicate_involution():
    with pytest.raises(PresentationError, match="duplicate involution 'k'"):
        Presentation("G", ["k"], [], involutions=["k", "k"])
    with pytest.raises(PresentationError) as ei:
        Presentation("G", ["k"], [], involutions=["x"])
    assert ei.value.line is None and "line" not in str(ei.value)


# the grammar's ASCII characters, then "#", "-", "\r", "\t" and code points
# where the str predicates differ from ASCII: a superscript two (alnum, not
# decimal), an Arabic-Indic three (decimal), "é", a no-break space, a line
# separator (spaces, not newlines) and a combining acute accent (none)
_SCAN_CHARS = (string.ascii_letters + string.digits + "{}();,*^:_ \n#-\r\t"
               "\u00b2\u0663\u00e9\u00a0\u2028\u0301")
_SCAN_WORDS = ["group", "gens:", "rels:", "involutions:", "a#2", "-12", "# c\n"]


def _tokens_or_error(lexer, text):
    try:
        return lexer(text).tokens
    except PresentationError as exc:
        return str(exc), exc.line, exc.col


@given(st.lists(st.sampled_from(_SCAN_CHARS) | st.sampled_from(_SCAN_WORDS),
                max_size=40).map("".join))
@settings(max_examples=400)
def test_scanner_matches_character_walk(text):
    """The regular-expression scanner gives the character walk's tokens,
    or its error with the same message, line and column."""
    assert (_tokens_or_error(_Lexer, text)
            == _tokens_or_error(CharWalkLexer, text))
