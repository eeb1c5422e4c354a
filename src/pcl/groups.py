"""Finite group models and coset enumeration.

A GroupModel holds a finite group as the right-multiplication permutations
of its generators on element indices (index 0 is the identity); products
and names are walked along the permutations' spanning tree from the
identity (a Schreier vector).  Models come from Todd-Coxeter enumeration of
a presentation or from direct constructors (cyclic groups, direct products).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .presentation import (Letter, Presentation, Word, parse_word,
                           power_form, word_root)


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


def extend(start: int, moves: Iterable[tuple[list[int], list[int]]]
           ) -> list[int] | None:
    """The map f with f(0) = start and f(perm[x]) = step[f(x)] for every
    (perm, step) in moves, filled breadth-first from 0 over the points of
    the perms (just 0 without moves); None if a move disagrees on some
    point or a point is not reached.  O(n k) for k moves on n points."""
    moves = list(moves)
    n = len(moves[0][0]) if moves else 1
    f = [-1] * n
    f[0] = start
    queue = [0]
    for x in queue:
        fx = f[x]
        for perm, step in moves:
            y, fy = perm[x], step[fx]
            if f[y] < 0:
                f[y] = fy
                queue.append(y)
            elif f[y] != fy:
                return None
    return f if len(queue) == n else None


@dataclass
class GroupModel:
    """gens[sym] is the permutation x -> x*sym of the element indices;
    names, if given, name the elements, else their tree words do."""

    name: str
    gens: dict[str, list[int]]
    presentation: Presentation | None = None
    names: list[str] | None = None

    @property
    def order(self) -> int:
        return len(next(iter(self.gens.values()), [0]))

    @property
    def identity(self) -> int:
        return 0

    @cached_property
    def element_names(self) -> list[str]:
        """names, or "e" and every other element's tree word (its
        shortlex-least word) as ``Word.__str__`` prints it, rendered on
        first read: each word's letters joined by "*" are its parent's
        plus one letter, and ``power_form`` folds the powers."""
        if self.names is not None:
            return self.names
        order, parent, letter = self._tree
        names = ["e"] * self.order
        plain = names[:]
        for y in order[1:]:
            sym, sign = letter[y][:2]
            text = sym if sign > 0 else sym + "^-1"
            x = parent[y]
            plain[y] = text = plain[x] + "*" + text if x else text
            names[y] = power_form(text)
        return names

    @cached_property
    def _tree(self) -> tuple[list[int], list[int], list[_Letter]]:
        tree = _spanning_tree(self.order, self.gens.items())
        if len(tree[0]) < self.order:
            raise AssertionError("generators do not reach every element")
        return tree

    @property
    def diameter(self) -> int:
        """The largest distance from the identity over the generators and
        their inverses: the depth of the breadth-first tree's last vertex."""
        order, parent, _ = self._tree
        depth = [0] * self.order
        for y in order[1:]:
            depth[y] = depth[parent[y]] + 1
        return depth[order[-1]]

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
        """The permutation v -> x*v: the map from 0 to x that commutes with
        every generator, x*(v*s) = (x*v)*s; AssertionError if there is none."""
        out = extend(x, [(perm, perm) for perm in self.gens.values()])
        if out is None:
            raise AssertionError(f"left translation by {self.element_names[x]}"
                                 " does not commute with the generators: "
                                 "not regular")
        return out

    def element(self, text: str) -> int:
        """The element that a generator symbol or one of the given names
        is, or else "e" or a word in the generators (``parse_word``);
        ValueError if text is none of these."""
        if text in self.gens:
            return self.gens[text][0]
        if self.names is not None:
            return self.names.index(text)
        if text == "e":
            return 0
        return self.eval_word(parse_word(text, self.gens))

    def element_order(self, x: int) -> int:
        return len(self.closure([x]))

    def _apply(self, w: Iterable[Letter], xs: Iterable[int]) -> list[int]:
        """[x*w for x in xs]."""
        for sym, sg in w:
            perm = self.gens[sym] if sg > 0 else self._inverse[sym]
            xs = [perm[x] for x in xs]
        return xs

    def eval_word(self, w: Word) -> int:
        return self._apply(w, [0])[0]

    def closure(self, elts: list[int]) -> set[int]:
        """The subgroup generated by elts."""
        steps = [(str(x), self.right(x)) for x in elts]
        return set(_spanning_tree(self.order, steps)[0])

    def check_axioms(self) -> None:
        """Raise AssertionError unless the model is a group satisfying its
        presentation, in O(n (m^2 + sum (|w| + log k))) for m generators
        and relators w^k, w the shortest root.

        Checked, in order: (1) every gens[sym] is a permutation; (2) the
        tree reaches every element, so the group R generated by the
        permutations is transitive; (3) every relator w^k fixes every
        element: the permutation of w, raised to the k-th power by
        repeated squaring, is the identity, and the first element it moves
        is the first that a walk of w^k letter by letter would move;
        (4) for each generator t, left(t) finds a map L_t with e -> e*t
        that commutes with every generator.  By (4), maps commuting
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
        fixed = list(range(n))
        for rel in rels:
            w, k = word_root(rel.letters)
            power = _perm_power(self._apply(w, fixed), k) if w else fixed
            if power != fixed:
                moved = next(x for x, y in enumerate(power) if y != x)
                raise AssertionError(
                    f"relator {rel} moves {self.element_names[moved]}")
        for perm in self.gens.values():
            self.left(perm[0])


# -- Todd-Coxeter ----------------------------------------------------------
#
# HLT-style enumeration over the trivial subgroup.  Scanning strategy
# (fixed, so results are deterministic): cosets are processed in definition
# order; for each live coset we first define any missing generator images
# (generators in presentation order, then their inverses), then scan every
# relator in presentation order.  Coincidences are merged immediately via
# union-find with row merging.  Helpers receive live cosets (roots); only
# table entries, which may name dead cosets, and queued pairs go through find.
#
# A relator r = w^k, w its shortest root, that closes at coset c also closes
# at each c*w^j that its scan passes, and it stays closed there, since
# coincidences only merge cosets; a scan at such a coset would define and
# merge nothing.  So the scan records those cosets, and the later ones skip
# r.  The table, and so every result and budget error, is the one that
# scanning every relator at every coset gives; without coincidences the
# scans take n sum |w| steps in place of n sum |r|.


def coset_enumerate(p: Presentation, max_cosets: int) -> GroupModel:
    """Enumerate the group presented by p over the trivial subgroup.

    Returns a full GroupModel if the group is finite and its order fits the
    budget; raises EnumerationBudgetError otherwise.  A relator w^k is
    scanned at a coset only if no earlier scan of it passed that coset at
    a boundary between two copies of w.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    # letters: 2i = generator i, 2i+1 = its inverse; an involution is its
    # own inverse letter, and its column 2i+1 stays unused
    nl = 2 * len(gens)
    inverse: list[int] = []
    for g in gens:
        i = len(inverse)
        inverse += [i, i] if g in p.involutions else [i + 1, i]
    used = [x for x in range(nl) if inverse[inverse[x]] == x]
    letter_of = {g: 2 * i for i, g in enumerate(gens)}
    # (k - 1 copies of w, w without its last letter, that letter, closed)
    # for each relator w^k: closed holds the cosets at which w^k is known
    # to close
    rels = []
    for rel in p.all_relators():
        if rel:
            word = [letter_of[sym] if sg > 0 else inverse[letter_of[sym]]
                    for sym, sg in rel]
            w, k = word_root(word)
            rels.append(([w] * (k - 1), w[:-1], w[-1], set()))

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
        cur = table[c][letter]
        if cur is not None and find(cur) != d:
            pending.append((find(cur), d))
            return
        table[c][letter] = d
        cur = table[d][inverse[letter]]
        if cur is not None and find(cur) != c:
            pending.append((find(cur), c))
        else:
            table[d][inverse[letter]] = c

    def define(c: int, letter: int) -> int:
        if len(table) >= hard_budget:
            raise EnumerationBudgetError(
                f"coset budget exhausted at {len(table)} cosets")
        d = len(table)  # c's entry is empty and d is new: no coincidence
        table.append([None] * nl)
        parent.append(d)
        table[c][letter] = d
        table[d][inverse[letter]] = c
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
            parent[y] = x  # y's row is never read again
            for letter, val in enumerate(table[y]):
                if val is not None:
                    set_entry(x, letter, find(val))

    def scan(c: int, ws: list[list[int]], head: list[int], last: int,
             closed: set[int]) -> None:
        # forward scan of w^k with fill (HLT): define cosets for missing
        # entries, recording each c*w^j passed, then close the cycle back
        # to c; nothing merges before the close, so c and cur stay live
        cur = c
        for w in ws:
            for letter in w:
                nxt = table[cur][letter]
                cur = define(cur, letter) if nxt is None else find(nxt)
            closed.add(cur)
        for letter in head:
            nxt = table[cur][letter]
            cur = define(cur, letter) if nxt is None else find(nxt)
        tgt = table[cur][last]
        if tgt is None:
            set_entry(cur, last, c)
        elif find(tgt) != c:
            merge(find(tgt), c)

    c = 0
    while c < len(table):
        if parent[c] == c:
            for letter in used:  # defining never merges: c stays live
                if table[c][letter] is None:
                    define(c, letter)
            for ws, head, last, closed in rels:
                if parent[c] != c:
                    break
                if c not in closed:
                    scan(c, ws, head, last, closed)
        c += 1

    live = [c for c in range(len(table)) if parent[c] == c]
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

    model = GroupModel(p.name or "G", gen_perm, p)
    model.check_axioms()
    return model


def _perm_inverse(perm: list[int]) -> list[int]:
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return out


def _perm_power(perm: list[int], k: int) -> list[int]:
    """perm^k for k >= 1 by repeated squaring, in O(n log k)."""
    out = None
    while True:
        if k & 1:
            out = perm if out is None else [perm[x] for x in out]
        k >>= 1
        if not k:
            return out
        perm = [perm[x] for x in perm]


# -- direct constructors ---------------------------------------------------


def cyclic_group(n: int, gen: str = "a", base: str | None = None) -> GroupModel:
    """Z_n on the generator gen, whose k-th power for k >= 2 is named
    base^k (base defaults to gen)."""
    base = base or gen
    names = ["e"] + [gen if k == 1 else f"{base}^{k}" for k in range(1, n)]
    return GroupModel(f"Z{n}", {gen: [(x + 1) % n for x in range(n)]},
                      names=names)


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
    return GroupModel(name or f"{a.name}x{b.name}", gens, names=names)


_A4_TEXT = "group A4 { gens: k r; rels: k^2, r^3, (k*r)^3; involutions: k; }"


def a4_model() -> GroupModel:
    """The alternating group of degree 4, enumerated from <k,r>."""
    from .presentation import parse_presentation
    return coset_enumerate(parse_presentation(_A4_TEXT), 64)


def z4xz2_model() -> GroupModel:
    return direct_product(cyclic_group(4), cyclic_group(2), "Z4xZ2")
