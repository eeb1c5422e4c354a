"""Normal-form engines for the bundled infinite group families.

An engine describes its family's generating multiset once: ``moves()``
returns one ``(label, involution, times, times_inv)`` record per
generator s, where times and times_inv are right multiplication by s and
by s^-1 as key -> key callables (equal maps for an involution), and the
identity is the key 0.  Every key is an int that packs the normal form: a
free word is the base-(2*rank+1) number of its letter codes, an element
of Z is itself, Z x Z and Cn x Z pack their pair into one int, and an
amalgam element is its C-component in the low bit above which sits the
base-B number of its syllable codes.
Vertex names are the rendered normal forms (``names``, which renders a
sequence of keys at once), so balls are byte-stable across runs; a ball
renders them only when they are read.

Families: free groups (reduced words, shortlex names), finite-cyclic x Z
and Z x Z (pair normal form), and amalgamated products of two finite
groups over a common involution (alternating coset-representative normal
form).
"""

from __future__ import annotations

import math
import string
from typing import Callable, Iterable, Iterator, Sequence

from .groups import GroupModel, a4_model, z4xz2_model

# Vertices a ball may reach before ``cayley.build_ball``, or the shell sweep
# of ``ends.shell_counts`` that numbers the same vertices, refuses it.
# Every key a ball computes then lies within distance BALL_BUDGET + 1 of the
# identity, so the packed Z x Z keys m * _STRIDE + n below stay distinct.
BALL_BUDGET = 1 << 22
_STRIDE = 1 << 24

Move = Callable[[int], int]  # key -> key
Gen = tuple[str, bool, Move, Move]  # label, involution, times, times_inv


class Engine:
    """Interface: moves() and names(keys), over int keys with the
    identity at 0."""

    def moves(self) -> list[Gen]:
        """Per generator s, its (label, involution, times, times_inv)."""
        raise NotImplementedError

    def names(self, keys: Sequence) -> list[str]:
        """The rendered normal form of each key, in order."""
        raise NotImplementedError


class FreeGroupEngine(Engine):
    """Free group of given rank; keys are freely reduced words.

    Generators are a, b, c, d, f, g, ... (e names the identity); inverse
    letters render with a trailing "'".  The j-th generator has letter
    code 2j+1 and its inverse 2j+2, and a word is the base-(2*rank+1)
    number of its codes, last letter least significant: 0 is the empty
    word, and a step appends a code or cancels the last one.
    """

    def __init__(self, rank: int = 2):
        if not 1 <= rank <= 25:
            raise ValueError("rank must be between 1 and 25")
        self.labels = [l for l in string.ascii_lowercase if l != "e"][:rank]
        self.base = 2 * rank + 1
        self._letter = [""]  # letter code -> rendered letter
        for l in self.labels:
            self._letter += [l, l + "'"]

    def moves(self) -> list[Gen]:
        def times(code, inverse, base=self.base):
            return lambda key: (key // base if key % base == inverse
                                else key * base + code)
        return [(l, False, times(c, c + 1), times(c + 1, c))
                for l, c in zip(self.labels, range(1, self.base, 2))]

    def names(self, keys: Sequence) -> list[str]:
        return [w or "e" for w in _digit_words(keys, self.base, self._letter)]


def _digit_words(keys: Iterable[int], base: int, digit: list[str]
                 ) -> Iterator[str]:
    """Each key's word: the texts of its base-`base` digits, most
    significant first.  Each word is its parent's (the key less its last
    digit, key // base) and one text.  Words are kept as they are made,
    so over a ball in breadth-first order, where a parent comes first,
    each costs one lookup and one concatenation."""
    words = {0: ""}

    def word(key):  # key's word, made with its missing ancestors'
        todo = []
        while key not in words:
            todo.append(key)
            key //= base
        w = words[key]
        for key in reversed(todo):
            w = words[key] = w + digit[key % base]
        return w

    for key in keys:
        w = words.get(key // base)
        if w is None:
            w = word(key // base)
        w = words[key] = w + digit[key % base]
        yield w


class ZEngine(Engine):
    """The integers with generating set {1} (or {1, 2, ...}); ValueError
    unless the steps generate Z, i.e. have gcd 1."""

    def __init__(self, steps: tuple[int, ...] = (1,)):
        gcd = math.gcd(*steps)
        if gcd != 1:
            raise ValueError(
                f"steps {list(steps)} do not generate Z (gcd is {gcd}, not 1)")
        self.steps = tuple(steps)

    def moves(self) -> list[Gen]:
        return [(f"z{s}" if s != 1 else "z", False, s.__add__, (-s).__add__)
                for s in self.steps]

    def names(self, keys: Sequence) -> list[str]:
        return list(map(str, keys))


class ZxZEngine(Engine):
    """Z x Z with the standard two generators (the grid); (m, n) is the
    key m * _STRIDE + n, valid while |n| < _STRIDE / 2."""

    def moves(self) -> list[Gen]:
        return [("x", False, _STRIDE.__add__, (-_STRIDE).__add__),
                ("y", False, (1).__add__, (-1).__add__)]

    def names(self, keys: Sequence) -> list[str]:
        half = _STRIDE // 2
        return [f"({m},{n - half})"
                for m, n in (divmod(key + half, _STRIDE) for key in keys)]


class CnxZEngine(Engine):
    """Direct product of a finite cyclic group with Z; pair normal form
    (z, c) with 0 <= c < n, keyed z * n + c."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclic factor must have order >= 2")
        self.n = n

    def moves(self) -> list[Gen]:
        n = self.n
        return [("z", False, n.__add__, (-n).__add__),
                ("r", n == 2,
                 lambda key: key + 1 - n if key % n == n - 1 else key + 1,
                 lambda key: key - 1 + n if key % n == 0 else key - 1)]

    def names(self, keys: Sequence) -> list[str]:
        return ["({},{})".format(*divmod(key, self.n)) for key in keys]


class AmalgamEngine(Engine):
    """A *_C B for finite A, B and C generated by an involution, b_a in A
    and b_b in B.

    Elements have the normal form c . t_1 . t_2 ... with c in C and the t_i
    proper right-coset representatives of C alternating between the
    factors (the standard normal form for amalgamated products).  Each
    (factor, proper representative) pair is a syllable code 1..base-1, in
    ``syllables``, and c . t_1 ... t_n is the key c | word << 1, with word
    the base-`base` number of the codes, last syllable least significant:
    0 is the identity.  A step by x in factor f is one lookup by key %
    (2*base), which holds c and the last code, in the step's table: whether
    the last syllable t is taken off (it lies in f), the code of the new
    last syllable t_u of t*x = c_u * t_u, and the carry c_u.  Only a carry
    walks left through the codes, each becoming the code of t*c, until one
    leaves no C-component, or flips c if it comes out at the front.  The
    merged involution is the step by c in factor 0.
    The factors may share no generator label (the merged "b" included)
    and no non-identity element name, so that labels and vertex names
    stay unambiguous; ValueError otherwise.
    """

    amalgam_label = "b"  # the identified involution

    def __init__(self, a: GroupModel, b: GroupModel,
                 gens_a: list[str], gens_b: list[str], b_a: int, b_b: int):
        self.factors = (a, b)
        self.c_elt = (b_a, b_b)  # image of the amalgam involution per factor
        self.gen_elts: list[tuple[str, int, int, bool]] = []  # label, factor, elt, invol
        merged = False
        for fi, (model, gens, c) in enumerate(
                zip(self.factors, (gens_a, gens_b), self.c_elt)):
            if c == 0 or model.mul(c, c) != 0:
                raise ValueError("amalgamation element must be an involution "
                                 f"in factor {fi}")
            elts = [model.element(s) for s in gens]
            if c not in model.closure(elts):
                raise ValueError("amalgamation element not generated by the "
                                 f"generators of factor {fi}")
            for sym, x in zip(gens, elts):
                if x != c:
                    invol = x != 0 and model.mul(x, x) == 0
                    self.gen_elts.append((sym, fi, x, invol))
                elif not merged:
                    self.gen_elts.append((self.amalgam_label, 0, b_a, True))
                    merged = True
        labels = [g[0] for g in self.gen_elts]
        if len(set(labels)) != len(labels):
            raise ValueError(f"generator labels repeat: {labels}")
        shared = set(a.element_names[1:]) & set(b.element_names[1:])
        if shared:
            raise ValueError(
                f"the factors share element names {sorted(shared)}")
        # rep(f) = min(f, c*f) by element index; the proper representatives
        # f = rep(f) != e get the codes, and self._split[fi][f] is (the code
        # of rep(f), 0 for f in C; whether f = c * rep(f))
        self.syllables = [(-1, 0)]  # code -> (factor, representative)
        self._split = []
        for fi, (model, c) in enumerate(zip(self.factors, self.c_elt)):
            cf = model.left(c)
            code = {0: 0}
            for f, g in enumerate(cf):
                if 0 < f < g:
                    code[f] = len(self.syllables)
                    self.syllables.append((fi, f))
            self._split.append([(code[min(f, g)], g < f)
                               for f, g in enumerate(cf)])
        self.base = len(self.syllables)
        # per code of t, the code of t*c and its carry (code 0 is no syllable)
        self._times_c = [(0, True)] + [
            self._split[fi][self.factors[fi].mul(t, self.c_elt[fi])]
            for fi, t in self.syllables[1:]]

    def moves(self) -> list[Gen]:
        return [(lab, inv, self._step(fi, x),
                 self._step(fi, self.factors[fi].inv(x)))
                for lab, fi, x, inv in self.gen_elts]

    def _step(self, fi: int, x: int) -> Move:
        """Right multiplication by the element x of factor fi."""
        base, times_c = self.base, self._times_c
        times, span = self.factors[fi].right(x), 2 * base
        table = []  # per key % span: (divisor, multiplier, addend, carry)
        for low in range(span):
            f, t = self.syllables[low >> 1]
            pop = f == fi  # the last syllable lies in fi: t*x replaces it
            tail, carry = self._split[fi][times[t if pop else 0]]
            table.append((span if pop else 2, span if tail else 2,
                          2 * tail + (low & 1), carry))

        def step(key):
            div, mul, add, carry = table[key % span]
            if not carry:
                return key // div * mul + add
            word, low, place = key // div, 0, 1
            while word:
                word, code = divmod(word, base)
                code, carry = times_c[code]
                low += code * place
                place *= base
                if not carry:
                    return (word * place + low) * mul + add
            return low * mul + (add ^ 1)
        return step

    def names(self, keys: Sequence) -> list[str]:
        """The syllables' element names joined by ".", after "b" when c is
        the involution."""
        text = [""] + ["." + self.factors[fi].element_names[t]
                       for fi, t in self.syllables[1:]]
        words = _digit_words((key >> 1 for key in keys), self.base, text)
        return [self.amalgam_label + w if key & 1 else w[1:] or "e"
                for key, w in zip(keys, words)]


def bundled_amalgam() -> dict:
    """AmalgamEngine parameters of the bundled A4 *_{Z2} Z4xZ2 amalgam,
    which identifies k in A4 with (0,1) in Z4xZ2."""
    a, b = a4_model(), z4xz2_model()
    return {"a": a, "b": b, "gens_a": ["k", "r"], "gens_b": ["(1,0)", "(0,1)"],
            "b_a": a.element("k"), "b_b": b.element("(0,1)")}


# family tag -> engine factory, in the order the CLI lists them; a factory's
# keyword parameters are the family's parameters
FAMILIES: dict[str, Callable[..., Engine]] = {
    "free": FreeGroupEngine,
    "z": ZEngine,
    "z-cross-z": ZxZEngine,
    "z-cross-z3": lambda: CnxZEngine(3),
    "cn-cross-z": CnxZEngine,
    "amalgam": lambda **params: AmalgamEngine(**(params or bundled_amalgam())),
}


def engine_for(tag: str, **params) -> Engine:
    """Engine of the family `tag`, a key of FAMILIES."""
    if tag not in FAMILIES:
        raise ValueError(f"unsupported family tag {tag!r}")
    return FAMILIES[tag](**params)
