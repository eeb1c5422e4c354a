"""Normal-form engines for the bundled infinite group families.

Each engine exposes the identity, the generating multiset (with labels and
involution flags), and right multiplication on canonical normal forms.
Vertex names are the rendered normal forms, so balls are byte-stable
across runs.

Families: free groups (reduced words, shortlex names), finite-cyclic x Z
and Z x Z (pair normal form), and amalgamated products of two finite
groups over a common involution (alternating coset-representative normal
form).
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Callable

from .groups import GroupModel, a4_model, z4xz2_model


@dataclass(frozen=True)
class GenSpec:
    label: str
    is_involution: bool


class Engine:
    """Interface: identity(), gens() and apply(key, label, sign)."""

    def identity(self):
        raise NotImplementedError

    def gens(self) -> list[GenSpec]:
        raise NotImplementedError

    def apply(self, key, label: str, sign: int):
        raise NotImplementedError

    def name(self, key) -> str:
        raise NotImplementedError


class FreeGroupEngine(Engine):
    """Free group of given rank; keys are freely reduced words.

    Generators are a, b, c, d, f, g, ... (e names the identity); inverse
    letters render with a trailing "'".
    """

    def __init__(self, rank: int = 2):
        if not 1 <= rank <= 25:
            raise ValueError("rank must be between 1 and 25")
        self.rank = rank
        self.labels = [l for l in string.ascii_lowercase if l != "e"][:rank]
        self._letter = {}  # (label, sign) -> rendered letter
        for l in self.labels:
            self._letter[(l, 1)] = l
            self._letter[(l, -1)] = l + "'"

    def identity(self):
        return ()

    def gens(self) -> list[GenSpec]:
        return [GenSpec(l, False) for l in self.labels]

    def apply(self, key, label, sign):
        if key and key[-1] == (label, -sign):
            return key[:-1]
        return key + ((label, sign),)

    def name(self, key) -> str:
        if not key:
            return "e"
        return "".join(map(self._letter.__getitem__, key))


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

    def apply(self, key, label, sign):
        step = 1 if label == "z" else int(label[1:])
        return key + sign * step

    def name(self, key) -> str:
        return str(key)


class ZxZEngine(Engine):
    """Z x Z with the standard two generators (the grid)."""

    def identity(self):
        return (0, 0)

    def gens(self) -> list[GenSpec]:
        return [GenSpec("x", False), GenSpec("y", False)]

    def apply(self, key, label, sign):
        m, n = key
        if label == "x":
            return (m + sign, n)
        return (m, n + sign)

    def name(self, key) -> str:
        return f"({key[0]},{key[1]})"


class CnxZEngine(Engine):
    """Direct product of a finite cyclic group with Z; pair normal form."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclic factor must have order >= 2")
        self.n = n

    def identity(self):
        return (0, 0)

    def gens(self) -> list[GenSpec]:
        return [GenSpec("z", False), GenSpec("r", self.n == 2)]

    def apply(self, key, label, sign):
        z, c = key
        if label == "z":
            return (z + sign, c)
        return (z, (c + sign) % self.n)

    def name(self, key) -> str:
        return f"({key[0]},{key[1]})"


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

    def apply(self, key, label, sign):
        c, syll = key
        syll = list(syll)
        if label == self.amalgam_label:
            c, syll = self._push_left(c, syll, True)
            return (c, tuple(syll))
        fi, times = self.step[(label, sign)]
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

    def name(self, key) -> str:
        c, syll = key
        parts = [self.amalgam_label] if c else []
        parts += [self.factors[fi].element_names[t] for fi, t in syll]
        return ".".join(parts) or "e"


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
