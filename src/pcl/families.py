"""Normal-form engines for the bundled infinite group families.

Each engine exposes the identity, the generating multiset (with labels and
involution flags), and, per generator s, right multiplication by s and by
s^-1 as key -> key callables (``moves``).  Keys are ints wherever the
normal form packs into one: a free word is the base-(2*rank+1) number of
its letter codes, an element of Z is itself, and Z x Z and Cn x Z pack
their pair into one int; the amalgam keeps its normal-form tuples.
Vertex names are the rendered normal forms (``names``, which renders a
sequence of keys at once), so balls are byte-stable across runs; a ball
renders them only when they are read.

Families: free groups (reduced words, shortlex names), finite-cyclic x Z
and Z x Z (pair normal form), and amalgamated products of two finite
groups over a common involution (alternating coset-representative normal
form).
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass
from typing import Callable, Sequence

from .groups import GroupModel, a4_model, z4xz2_model

# Vertices a ball may reach before ``cayley.build_ball``, or the shell sweep
# of ``ends.shell_counts`` that numbers the same vertices, refuses it.
# Every key a ball computes then lies within distance BALL_BUDGET + 1 of the
# identity, so the packed Z x Z keys m * _STRIDE + n below stay distinct.
BALL_BUDGET = 1 << 22
_STRIDE = 1 << 24

Move = Callable[[object], object]  # key -> key


@dataclass(frozen=True)
class GenSpec:
    label: str
    is_involution: bool


class Engine:
    """Interface: identity(), gens(), moves() and names(keys)."""

    def identity(self):
        raise NotImplementedError

    def gens(self) -> list[GenSpec]:
        raise NotImplementedError

    def moves(self) -> list[tuple[Move, Move]]:
        """Per generator s of ``gens``, right multiplication by s and by
        s^-1 (equal maps for an involution)."""
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
        self.rank = rank
        self.labels = [l for l in string.ascii_lowercase if l != "e"][:rank]
        self.base = 2 * rank + 1
        self._letter = [""]  # letter code -> rendered letter
        for l in self.labels:
            self._letter += [l, l + "'"]

    def identity(self):
        return 0

    def gens(self) -> list[GenSpec]:
        return [GenSpec(l, False) for l in self.labels]

    def moves(self) -> list[tuple[Move, Move]]:
        def times(code, inverse, base=self.base):
            return lambda key: (key // base if key % base == inverse
                                else key * base + code)
        return [(times(c, c + 1), times(c + 1, c))
                for c in range(1, self.base, 2)]

    def names(self, keys: Sequence) -> list[str]:
        """Each word is its parent's word (the key less its last letter,
        key // base) and one letter.  Words are kept as they are made, so
        over a ball in breadth-first order, where a parent comes first,
        each name costs one lookup and one concatenation."""
        base, letter = self.base, self._letter
        words = {0: ""}

        def word(key):  # key's word, made with its missing ancestors'
            todo = []
            while key not in words:
                todo.append(key)
                key //= base
            w = words[key]
            for key in reversed(todo):
                w = words[key] = w + letter[key % base]
            return w

        out = []
        for key in keys:
            w = words.get(key // base)
            if w is None:
                w = word(key // base)
            w = words[key] = w + letter[key % base]
            out.append(w or "e")
        return out


class ZEngine(Engine):
    """The integers with generating set {1} (or {1, 2, ...}); ValueError
    unless the steps generate Z, i.e. have gcd 1."""

    def __init__(self, steps: tuple[int, ...] = (1,)):
        gcd = math.gcd(*steps)
        if gcd != 1:
            raise ValueError(
                f"steps {list(steps)} do not generate Z (gcd is {gcd}, not 1)")
        self.steps = tuple(steps)

    def identity(self):
        return 0

    def gens(self) -> list[GenSpec]:
        return [GenSpec(f"z{s}" if s != 1 else "z", False) for s in self.steps]

    def moves(self) -> list[tuple[Move, Move]]:
        return [(s.__add__, (-s).__add__) for s in self.steps]

    def names(self, keys: Sequence) -> list[str]:
        return list(map(str, keys))


class ZxZEngine(Engine):
    """Z x Z with the standard two generators (the grid); (m, n) is the
    key m * _STRIDE + n, valid while |n| < _STRIDE / 2."""

    def identity(self):
        return 0

    def gens(self) -> list[GenSpec]:
        return [GenSpec("x", False), GenSpec("y", False)]

    def moves(self) -> list[tuple[Move, Move]]:
        return [(_STRIDE.__add__, (-_STRIDE).__add__),
                ((1).__add__, (-1).__add__)]

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

    def identity(self):
        return 0

    def gens(self) -> list[GenSpec]:
        return [GenSpec("z", False), GenSpec("r", self.n == 2)]

    def moves(self) -> list[tuple[Move, Move]]:
        n = self.n
        return [(n.__add__, (-n).__add__),
                (lambda key: key + 1 - n if key % n == n - 1 else key + 1,
                 lambda key: key - 1 + n if key % n == 0 else key - 1)]

    def names(self, keys: Sequence) -> list[str]:
        return ["({},{})".format(*divmod(key, self.n)) for key in keys]


class AmalgamEngine(Engine):
    """A *_C B for finite A, B and C generated by an involution, b_a in A
    and b_b in B.

    Keys are normal forms c . t_1 . t_2 ... with c in C and the t_i proper
    right-coset representatives of C alternating between the factors (the
    standard normal form for amalgamated products).  Right multiplication
    renormalizes by pushing C-components leftwards through the syllables.
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
        # right-coset representatives: rep(f) = min(f, b*f) by element index
        self.rep: list[list[int]] = []
        self.cpart: list[list[bool]] = []  # True if f = b * rep(f)
        for model, c in zip(self.factors, self.c_elt):
            bf = model.left(c)
            self.rep.append([min(f, g) for f, g in enumerate(bf)])
            self.cpart.append([g < f for f, g in enumerate(bf)])
        # right translations, so that a step is a list lookup: per
        # (label, sign) x's factor and t -> t*x^sign; per factor t -> t*c
        self.step = {}
        for lab, fi, x, _ in self.gen_elts:
            model = self.factors[fi]
            self.step[(lab, 1)] = (fi, model.right(x))
            self.step[(lab, -1)] = (fi, model.right(model.inv(x)))
        self.times_c = [m.right(x) for m, x in zip(self.factors, self.c_elt)]

    def identity(self):
        return (False, ())

    def gens(self) -> list[GenSpec]:
        return [GenSpec(lab, inv) for lab, _, _, inv in self.gen_elts]

    def _push_left(self, c: bool, syll: list[tuple[int, int]],
                   carry: bool) -> tuple[bool, list[tuple[int, int]]]:
        # multiply the element (c, syll) by the amalgam involution on the right
        if not carry:
            return c, syll
        out = list(syll)
        for i in range(len(out) - 1, -1, -1):
            fi, t = out[i]
            f = self.times_c[fi][t]
            out[i] = (fi, self.rep[fi][f])
            carry = self.cpart[fi][f]
            if not carry:
                return c, out
        return c ^ carry, out

    def moves(self) -> list[tuple[Move, Move]]:
        return [(self._times_c, self._times_c) if lab == self.amalgam_label
                else tuple(functools.partial(self._times, *self.step[(lab, s)])
                           for s in (1, -1))
                for lab, _, _, _ in self.gen_elts]

    def _times_c(self, key):
        c, syll = self._push_left(key[0], key[1], True)
        return (c, tuple(syll))

    def _times(self, fi: int, times: list[int], key):
        # key times x^sign, for x in factor fi and times: t -> t*x^sign
        c, syll = key
        syll = list(syll)
        # u = t*x^sign, t the last syllable if it lies in x's factor
        t = syll.pop()[1] if syll and syll[-1][0] == fi else 0
        u = times[t]
        # decompose u = c_u * t_u in its factor
        t_u = self.rep[fi][u]
        c_u = self.cpart[fi][u]
        c, syll = self._push_left(c, syll, c_u)
        if t_u != 0:
            syll.append((fi, t_u))
        return (c, tuple(syll))

    def names(self, keys: Sequence) -> list[str]:
        out = []
        for c, syll in keys:
            parts = [self.amalgam_label] if c else []
            parts += [self.factors[fi].element_names[t] for fi, t in syll]
            out.append(".".join(parts) or "e")
        return out


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
