"""Group presentations: grammar and parsing.

Grammar (UTF-8, ``#`` line comments, whitespace-insensitive)::

    presentation := "group" [name] "{" "gens:" ident+ ";"
                    "rels:" word { "," word } ";"
                    [ "involutions:" ident+ ";" ] "}"
    word   := factor { "*" factor }
    factor := ( ident | "(" word ")" ) [ "^" signed-int ]

Powers are expanded before storage, so ``(k*r)^3`` is stored as the
six-letter relator k r k r k r; a word longer than 10^6 letters is a
PresentationError, raised before it is built, and so are relators of
more than 10^6 letters together, at the relator that passes that total.
Generator names in the gens clause are distinct (a repeated name is a
PresentationError): a presentation names a group, and a multiset
generating set is chosen when the Cayley graph is built (``--gens a,a,b``).
"""

from __future__ import annotations

import re
from collections.abc import Container, Sequence
from dataclasses import dataclass, field


class PresentationError(ValueError):
    """Malformed presentation text or inconsistent presentation data."""

    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


Letter = tuple[str, int]  # (generator symbol, sign in {+1, -1})
MAX_WORD_LETTERS = 10 ** 6  # expanded length of a word, and of all relators


@dataclass(frozen=True)
class Word:
    letters: tuple[Letter, ...] = ()

    def __iter__(self):
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((sym, -sg) for sym, sg in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        plain = "*".join(sym if sg > 0 else f"{sym}^-1" for sym, sg in self)
        return power_form(plain) if plain else "1"


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def word_root(word: Sequence) -> tuple[Sequence, int]:
    """(w, k) with word = w^k for the shortest w.  A k-th power with
    k >= 2 is a p-th power for each prime p dividing k, so one comparison
    per prime factor of len(word) finds whether word is a power, and the
    root of that p-th root is word's.  A power of one letter, the
    commonest relator, is found by one count."""
    n = len(word)
    if n > 1 and word[0] == word[-1] and word.count(word[0]) == n:
        return word[:1], n
    for p in _prime_factors(n):
        if word == word[:n // p] * p:
            w, k = word_root(word[:n // p])
            return w, k * p
    return word, 1


def power_form(plain: str) -> str:
    """``Word.__str__`` of the word whose letters joined by "*" are plain:
    u^k for the shortest root u of a power prints as "a^k", "a^-k" or
    "(u)^k", any other word as plain.  No symbol holds "*", so the powers
    of plain + "*" are those of the word."""
    root, k = word_root(plain + "*")
    if k == 1:
        return plain
    root = root[:-1]
    if "*" in root:
        return f"({root})^{k}"
    if root.endswith("^-1"):
        return f"{root[:-3]}^{-k}"
    return f"{root}^{k}"


@dataclass
class Presentation:
    name: str
    generators: list[str]
    relators: list[Word]
    involutions: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        def unplaced(names):
            return [(name, None, None) for name in names]
        symbols = dict.fromkeys(s for rel in self.relators for s, _ in rel)
        _check_names(unplaced(self.generators), unplaced(symbols),
                     unplaced(self.involutions))

    def all_relators(self) -> list[Word]:
        """Declared relators plus the squares implied by involutions."""
        rels = list(self.relators)
        present = {tuple(r.letters) for r in rels}
        for g in self.involutions:
            sq = ((g, 1), (g, 1))
            if sq not in present:
                rels.append(Word(sq))
        return rels

    def emit(self) -> str:
        """Canonical text form; re-parsing yields an equal Presentation."""
        parts = ["group"]
        if self.name:
            parts.append(self.name)
        parts.append("{")
        parts.append("gens: " + " ".join(self.generators) + ";")
        parts.append("rels: " + ", ".join(str(r) for r in self.relators) + ";")
        if self.involutions:
            parts.append("involutions: " + " ".join(self.involutions) + ";")
        parts.append("}")
        return " ".join(parts)


Named = tuple[str, int | None, int | None]  # name, line, column


def _check_names(gens: list[Named], symbols: list[Named],
                 involutions: list[Named]) -> None:
    """PresentationError at the first repeated generator, relator symbol
    that is no generator, or undeclared or repeated involution."""
    declared: set[str] = set()
    for g, line, col in gens:
        if g in declared:
            raise PresentationError(
                f"duplicate generator name {g!r}", line, col)
        declared.add(g)
    for sym, line, col in symbols:
        if sym not in declared:
            raise PresentationError(
                f"undeclared generator {sym!r} in relator", line, col)
    seen: set[str] = set()
    for inv, line, col in involutions:
        if inv not in declared:
            raise PresentationError(
                f"undeclared involution {inv!r}", line, col)
        if inv in seen:
            raise PresentationError(f"duplicate involution {inv!r}", line, col)
        seen.add(inv)


# -- parser ----------------------------------------------------------------

# tried in this order at each position: space or a comment, int, ident,
# punctuation.  For str patterns \s, \d and \w match exactly the characters
# for which str.isspace, str.isdecimal, and str.isalnum or "_" hold.
_TOKEN = re.compile(
    r"(?P<skip>\s+|#[^\n]*)|(?P<int>-?\d+)|(?P<ident>\w[\w#]*)|[{}();,*^:]")


class _Lexer:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int, int]] = []
        self.i = 0
        pos, line, bol = 0, 1, 0  # bol: where the current line begins
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise PresentationError(f"unexpected character {text[pos]!r}",
                                        line, pos - bol + 1)
            end = m.end()
            kind = m.lastgroup or m[0]  # punctuation is its own kind
            if kind == "skip":  # only skipped spans hold newlines
                line += text.count("\n", pos, end)
                bol = max(bol, text.rfind("\n", pos, end) + 1)
            else:
                self.tokens.append((kind, m[0], line, pos - bol + 1))
            pos = end
        self.tokens.append(("eof", "", line, pos - bol + 1))

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v, line, col = self.next()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise PresentationError(f"expected {want!r}, got {v!r}", line, col)
        return v


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.symbols: list[Named] = []  # relator letters, in source order
        self.letters = 0  # expanded letters of the relators parsed so far

    def parse(self) -> Presentation:
        lex = self.lex
        k, v, line, col = lex.next()
        if (k, v) != ("ident", "group"):
            raise PresentationError("expected 'group'", line, col)
        name = ""
        if lex.peek()[0] == "ident":
            name = lex.next()[1]
        lex.expect("{")
        lex.expect("ident", "gens")
        lex.expect(":")
        gens = self._ident_list()
        lex.expect(";")
        lex.expect("ident", "rels")
        lex.expect(":")
        relators = [self._relator()]
        while lex.peek()[0] == ",":
            lex.next()
            relators.append(self._relator())
        lex.expect(";")
        involutions: list[Named] = []
        if lex.peek()[:2] == ("ident", "involutions"):
            lex.next()
            lex.expect(":")
            involutions = self._ident_list()
            lex.expect(";")
        lex.expect("}")
        k, v, line, col = lex.next()
        if k != "eof":
            raise PresentationError(f"trailing input {v!r}", line, col)
        _check_names(gens, self.symbols, involutions)
        return Presentation(name, [g[0] for g in gens], relators,
                            [inv[0] for inv in involutions])

    def _ident_list(self) -> list[Named]:
        out = []
        while self.lex.peek()[0] == "ident":
            out.append(self.lex.next()[1:])
        if not out:
            k, v, line, col = self.lex.peek()
            raise PresentationError("expected identifier", line, col)
        return out

    def _relator(self) -> Word:
        line, col = self.lex.peek()[2:]
        w = self._word()
        if not w.letters:
            raise PresentationError("relator is the empty word", line, col)
        self.letters += len(w)
        if self.letters > MAX_WORD_LETTERS:
            raise PresentationError(f"relators longer than {MAX_WORD_LETTERS} "
                                    "letters in total", line, col)
        return w

    def _word(self) -> Word:
        w = self._factor()
        while self.lex.peek()[0] == "*":
            line, col = self.lex.next()[2:]
            factor = self._factor()
            _check_length(len(w) + len(factor), line, col)
            w = w * factor
        return w

    def _factor(self) -> Word:
        k, v, line, col = self.lex.next()
        if k == "ident":
            self.symbols.append((v, line, col))
            base = Word(((v, 1),))
        elif k == "(":
            base = self._word()
            self.lex.expect(")")
        else:
            raise PresentationError(f"expected generator or '(', got {v!r}",
                                    line, col)
        if self.lex.peek()[0] == "^":
            self.lex.next()
            k, v, line, col = self.lex.next()
            if k != "int":
                raise PresentationError("expected integer exponent", line, col)
            try:
                exp = int(v)
            except ValueError:  # more digits than int() converts
                exp = MAX_WORD_LETTERS + 1
            _check_length(len(base) * abs(exp), line, col)
            if exp < 0:
                base = base.inverse()
                exp = -exp
            base = Word(base.letters * exp)
        return base


def _check_length(letters: int, line: int, col: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise PresentationError(
            f"word longer than {MAX_WORD_LETTERS} letters", line, col)


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; raises PresentationError with line/column."""
    return _Parser(text).parse()


def parse_word(text: str, generators: Container[str]) -> Word:
    """Parse one ``word`` over generators; PresentationError otherwise."""
    parser = _Parser(text)
    w = parser._word()
    k, v, line, col = parser.lex.next()
    if k != "eof":
        raise PresentationError(f"trailing input {v!r}", line, col)
    for sym, line, col in parser.symbols:
        if sym not in generators:
            raise PresentationError(f"unknown symbol {sym!r}", line, col)
    return w
