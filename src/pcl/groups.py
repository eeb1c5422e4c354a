"""Finite group models and coset enumeration.

A GroupModel holds a finite group as the right-multiplication permutations
of its generators on named elements (index 0 is the identity); products are
walked along the permutations' spanning tree from the identity (a Schreier
vector).  Models come from Todd-Coxeter enumeration of a presentation or
from direct constructors (cyclic groups, direct products).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .presentation import Presentation, Word


class EnumerationBudgetError(RuntimeError):
    """Coset budget exhausted: group may be infinite or too large."""


# (symbol, sign, x -> x*letter, x -> x*letter^-1)
_Letter = tuple[str, int, list[int], list[int]]


def _spanning_tree(n: int, gens: Iterable[tuple[str, list[int]]]
                   ) -> tuple[list[int], list[int], list[_Letter]]:
    """Breadth-first tree from 0 over each generator followed by its
    inverse (unless it is its own): (visit order, parent, letter), with
    y = parent[y] * letter[y]; parent is -1 where 0 does not reach."""
    letters = []
    for sym, perm in gens:
        inverse = _perm_inverse(perm)
        letters.append((sym, 1, perm, inverse))
        if inverse != perm:
            letters.append((sym, -1, inverse, perm))
    parent = [-1] * n
    parent[0] = 0
    letter: list[_Letter | None] = [None] * n
    order = [0]
    for x in order:
        for lt in letters:
            y = lt[2][x]
            if parent[y] < 0:
                parent[y] = x
                letter[y] = lt
                order.append(y)
    return order, parent, letter


@dataclass
class GroupModel:
    """gens[sym] is the permutation x -> x*sym of the element indices;
    element() resolves generator symbols and element names."""

    name: str
    element_names: list[str]
    gens: dict[str, list[int]]
    presentation: Presentation | None = None

    @property
    def order(self) -> int:
        return len(self.element_names)

    @property
    def identity(self) -> int:
        return 0

    @cached_property
    def _index(self) -> dict[str, int]:
        index = {nm: x for x, nm in enumerate(self.element_names)}
        index.update((sym, perm[0]) for sym, perm in self.gens.items())
        return index

    @cached_property
    def _tree(self) -> tuple[list[int], list[int], list[_Letter]]:
        tree = _spanning_tree(self.order, self.gens.items())
        if len(tree[0]) < self.order:
            raise AssertionError("generators do not reach every element")
        return tree

    @cached_property
    def _inverse(self) -> dict[str, list[int]]:
        return {sym: _perm_inverse(perm) for sym, perm in self.gens.items()}

    def _word(self, y: int) -> list[list[int]]:
        """Permutations of the tree letters from the identity to y."""
        _, parent, letter = self._tree
        word = []
        while y != 0:
            word.append(letter[y][2])
            y = parent[y]
        return word[::-1]

    def mul(self, x: int, y: int) -> int:
        for perm in self._word(y):
            x = perm[x]
        return x

    def inv(self, x: int) -> int:
        _, parent, letter = self._tree
        y = 0
        while x != 0:
            y = letter[x][3][y]
            x = parent[x]
        return y

    def right(self, x: int) -> list[int]:
        """The permutation v -> v*x."""
        out = list(range(self.order))
        for perm in self._word(x):
            out = [perm[v] for v in out]
        return out

    def left(self, x: int) -> list[int]:
        """The permutation v -> x*v: x*y = (x*parent(y)) * letter(y)."""
        order, parent, letter = self._tree
        out = [x] * self.order
        for y in order[1:]:
            out[y] = letter[y][2][out[parent[y]]]
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def element(self, name: str) -> int:
        """Resolve a generator symbol or element name to an index."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no element or generator named {name!r}") from None

    def element_order(self, x: int) -> int:
        return len(self.closure([x]))

    def _apply(self, w: Word, xs: list[int]) -> list[int]:
        """[x*w for x in xs]."""
        for sym, sg in w:
            perm = self.gens[sym] if sg > 0 else self._inverse[sym]
            xs = [perm[x] for x in xs]
        return xs

    def eval_word(self, w: Word) -> int:
        return self._apply(w, [0])[0]

    def closure(self, elts: list[int]) -> set[int]:
        """The subgroup generated by elts."""
        steps = [(self.element_names[x], self.right(x)) for x in elts]
        return set(_spanning_tree(self.order, steps)[0])

    def check_axioms(self) -> None:
        """Raise AssertionError unless the model is a group satisfying its
        presentation, in O(n (k^2 + sum |r|)) for k generators.

        Checked, in order: (1) every gens[sym] is a permutation; (2) the
        tree reaches every element, so the group R generated by the
        permutations is transitive; (3) every relator fixes every element;
        (4) for each generator t, the tree-filled left translation L_t
        (e -> e*t) commutes with every generator.  By (4), maps commuting
        with R carry e to every e*t and, composed, to every element, so the
        centralizer of R is transitive; a transitive group with a
        transitive centralizer is regular.  Every element is then e*g for
        exactly one g in R, and mul, which applies y's tree word to x, is
        the product of R: a group law with identity 0 that by (3)
        satisfies the presentation.
        """
        n = self.order
        for sym, perm in self.gens.items():
            if sorted(perm) != list(range(n)):
                raise AssertionError(f"generator {sym} is not a permutation")
        self._tree  # raises unless the tree reaches every element
        rels = self.presentation.all_relators() if self.presentation else []
        for rel in rels:
            moved = [x for x, y in enumerate(self._apply(rel, range(n)))
                     if y != x]
            if moved:
                raise AssertionError(
                    f"relator {rel} moves {self.element_names[moved[0]]}")
        for t, perm_t in self.gens.items():
            left = self.left(perm_t[0])
            for sym, perm in self.gens.items():
                if any(left[perm[v]] != perm[left[v]] for v in range(n)):
                    raise AssertionError(f"left translation by {t} does not "
                                         f"commute with {sym}: not regular")


# -- Todd-Coxeter ----------------------------------------------------------
#
# HLT-style enumeration over the trivial subgroup.  Scanning strategy
# (fixed, so results are deterministic): cosets are processed in definition
# order; for each live coset we first define any missing generator images
# (generators in presentation order, then their inverses), then scan every
# relator in presentation order.  Coincidences are merged immediately via
# union-find with row merging.


def coset_enumerate(p: Presentation, max_cosets: int) -> GroupModel:
    """Enumerate the group presented by p over the trivial subgroup.

    Returns a full GroupModel if the group is finite and its order fits the
    budget; raises EnumerationBudgetError otherwise.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    invol = set(p.involutions)
    # letters: 2i = generator i, 2i+1 = its inverse (same letter if involution)
    nl = 2 * len(gens)

    def lid(i: int, sign: int) -> int:
        if gens[i] in invol:
            return 2 * i
        return 2 * i if sign > 0 else 2 * i + 1

    def lid_inv(letter: int) -> int:
        i = letter // 2
        if gens[i] in invol:
            return 2 * i
        return letter ^ 1

    rel_letters = []
    for rel in p.all_relators():
        rel_letters.append([lid(gens.index(sym), sg) for sym, sg in rel])
        if not rel_letters[-1]:
            rel_letters.pop()

    hard_budget = 100 * max_cosets + 1000
    table: list[list[int | None]] = [[None] * nl]
    parent = [0]

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    pending: list[tuple[int, int]] = []

    def set_entry(c: int, letter: int, d: int) -> None:
        c, d = find(c), find(d)
        cur = table[c][letter]
        if cur is not None and find(cur) != d:
            pending.append((find(cur), d))
            return
        table[c][letter] = d
        li = lid_inv(letter)
        cur = table[d][li]
        if cur is not None and find(cur) != c:
            pending.append((find(cur), c))
        else:
            table[d][li] = c

    def define(c: int, letter: int) -> int:
        if len(table) >= hard_budget:
            raise EnumerationBudgetError(
                f"coset budget exhausted at {len(table)} cosets")
        d = len(table)
        table.append([None] * nl)
        parent.append(d)
        set_entry(c, letter, d)
        return d

    def merge(a: int, b: int) -> None:
        pending.append((a, b))
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for letter in range(nl):
                val = table[y][letter]
                if val is not None:
                    set_entry(x, letter, find(val))
                table[y][letter] = None

    def scan(c: int, word: list[int]) -> None:
        # forward scan with fill (HLT): define cosets for missing entries,
        # then close the cycle back to c
        cur = c
        for letter in word[:-1]:
            cur = find(cur)
            nxt = table[cur][letter]
            if nxt is None:
                nxt = define(cur, letter)
            cur = find(nxt)
        last = word[-1]
        cur = find(cur)
        tgt = table[cur][last]
        if tgt is None:
            set_entry(cur, last, find(c))
        elif find(tgt) != find(c):
            merge(find(tgt), find(c))

    c = 0
    while c < len(table):
        if find(c) != c:
            c += 1
            continue
        for letter in range(nl):
            if gens[letter // 2] in invol and letter % 2 == 1:
                continue
            if find(c) != c:
                break
            if table[c][letter] is None:
                define(c, letter)
        for word in rel_letters:
            if find(c) != c:
                break
            scan(c, word)
        c += 1

    live = sorted({find(c) for c in range(len(table))})
    if len(live) > max_cosets:
        raise EnumerationBudgetError(
            f"group has more than {max_cosets} elements ({len(live)} cosets)")
    index = {old: new for new, old in enumerate(live)}

    # generator permutations on live cosets
    gen_perm = {}
    for i, g in enumerate(gens):
        perm = []
        for old in live:
            img = table[old][2 * i]
            if img is None:
                raise AssertionError(f"coset table row {old} is incomplete")
            perm.append(index[find(img)])
        gen_perm[g] = perm

    # shortlex names along the spanning tree of the model
    order, tree_parent, letter = _spanning_tree(len(live), gen_perm.items())
    words = [Word()] * len(live)
    for y in order[1:]:
        words[y] = words[tree_parent[y]] * Word((letter[y][:2],))
    names = ["e"] + [str(w) for w in words[1:]]
    model = GroupModel(p.name or "G", names, gen_perm, p)
    model.check_axioms()
    return model


def _perm_inverse(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return out


# -- direct constructors ---------------------------------------------------


def cyclic_group(n: int, gen: str = "a") -> GroupModel:
    names = ["e"] + [f"{gen}" if k == 1 else f"{gen}^{k}" for k in range(1, n)]
    return GroupModel(f"Z{n}", names, {gen: [(x + 1) % n for x in range(n)]})


def direct_product(a: GroupModel, b: GroupModel,
                   name: str | None = None) -> GroupModel:
    """Direct product with elements named by index pairs "(i,j)"; its
    generators are the factors' generators, named like elements."""
    na, nb = a.order, b.order
    names = [f"({x},{y})" for x in range(na) for y in range(nb)]
    gens = {}
    for perm in a.gens.values():
        gens[f"({perm[0]},0)"] = [perm[x] * nb + y
                                  for x in range(na) for y in range(nb)]
    for perm in b.gens.values():
        gens[f"(0,{perm[0]})"] = [x * nb + perm[y]
                                  for x in range(na) for y in range(nb)]
    return GroupModel(name or f"{a.name}x{b.name}", names, gens)


_A4_TEXT = "group A4 { gens: k r; rels: k^2, r^3, (k*r)^3; involutions: k; }"


def a4_model() -> GroupModel:
    """The alternating group of degree 4, enumerated from <k,r>."""
    from .presentation import parse_presentation
    return coset_enumerate(parse_presentation(_A4_TEXT), 64)


def z4xz2_model() -> GroupModel:
    return direct_product(cyclic_group(4), cyclic_group(2), "Z4xZ2")


def find_isomorphism(a: GroupModel, b: GroupModel) -> dict[int, int] | None:
    """Brute-force isomorphism search over the images of a's generators
    (desk scale)."""
    if a.order != b.order:
        return None
    gens = list(a.gens.values())
    orders_b = [b.element_order(y) for y in range(b.order)]
    candidates = [[y for y, k in enumerate(orders_b) if k == order]
                  for order in (a.element_order(s[0]) for s in gens)]
    for images in itertools.product(*candidates):
        f = _extend(a, gens, [b.right(y) for y in images])
        if f is not None and len(set(f)) == a.order:
            return dict(enumerate(f))
    return None


def _extend(a: GroupModel, gens: list[list[int]],
            steps: list[list[int]]) -> list[int] | None:
    """The map f with f(e) = e and f(x*s) = f(x)*t for each generator
    permutation s of a and its image step t, or None if there is none.  A
    bijective f is an isomorphism, by induction on word length."""
    f = [-1] * a.order
    f[0] = 0
    queue = [0]
    for x in queue:
        for perm, step in zip(gens, steps):
            y, fy = perm[x], step[f[x]]
            if f[y] < 0:
                f[y] = fy
                queue.append(y)
            elif f[y] != fy:
                return None
    return f
