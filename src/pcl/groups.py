"""Finite group models and coset enumeration.

A GroupModel is a multiplication table with named elements (index 0 is the
identity).  Models come from Todd-Coxeter enumeration of a presentation or
from direct constructors (cyclic groups, direct products).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .presentation import Presentation, PresentationError, Word


class EnumerationBudgetError(RuntimeError):
    """Coset budget exhausted: group may be infinite or too large."""


@dataclass
class GroupModel:
    name: str
    element_names: list[str]
    mul_table: list[list[int]]
    inv_table: list[int]
    generator_map: dict[str, int] = field(default_factory=dict)
    presentation: Presentation | None = None
    involution_gens: set[str] = field(default_factory=set)

    @property
    def order(self) -> int:
        return len(self.element_names)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def inv(self, x: int) -> int:
        return self.inv_table[x]

    def element(self, name: str) -> int:
        """Resolve a generator symbol or element name to an index."""
        if name in self.generator_map:
            return self.generator_map[name]
        try:
            return self.element_names.index(name)
        except ValueError:
            raise KeyError(f"no element or generator named {name!r}") from None

    def element_order(self, x: int) -> int:
        n = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            n += 1
        return n

    def eval_word(self, w: Word) -> int:
        acc = 0
        for sym, sg in w:
            g = self.generator_map[sym]
            acc = self.mul(acc, g if sg > 0 else self.inv(g))
        return acc

    def closure(self, gens: list[int]) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.mul(x, g), self.mul(x, self.inv(g))):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return seen

    def check_axioms(self) -> None:
        """Raise AssertionError unless the table is a group (associativity
        is checked for order <= 64) satisfying its presentation."""
        n = self.order
        e = self.identity
        for x in range(n):
            if self.mul(e, x) != x or self.mul(x, e) != x:
                raise AssertionError(f"identity fails at {x}")
            if self.mul(x, self.inv(x)) != e or self.mul(self.inv(x), x) != e:
                raise AssertionError(f"inverse fails at {x}")
            if sorted(self.mul_table[x]) != list(range(n)):
                raise AssertionError(f"row {x} is not a permutation")
        if n <= 64:
            failure = self._associativity_failure()
            if failure is not None:
                raise AssertionError(
                    "associativity fails at {},{},{}".format(*failure))
        if self.presentation is not None:
            for rel in self.presentation.all_relators():
                if self.eval_word(rel) != e:
                    raise AssertionError(f"relator {rel} != identity")

    def _associativity_failure(self) -> tuple[int, int, int] | None:
        """A triple (x, a, y) with (x*a)*y != x*(a*y), or None.

        Light's test: the elements a with (x*a)*y == x*(a*y) for all x, y
        are closed under products, so it suffices to test a generating set
        S closed under inverses (every element is a product e*s1*...*sk,
        bracketed from the left, of elements of S).  O(n^2 |S|).  Needs a
        two-sided identity 0.
        """
        gens: list[int] = []
        reached = {self.identity}
        for x in [*self.generator_map.values(), *range(self.order)]:
            if x not in reached:
                gens.append(x)
                reached = self.closure(gens)
        table = self.mul_table
        for a in dict.fromkeys(gens + [self.inv(a) for a in gens]):
            a_row = table[a]
            for x, x_row in enumerate(table):
                xa_row = table[x_row[a]]
                if xa_row != [x_row[z] for z in a_row]:
                    y = next(y for y in range(self.order)
                             if xa_row[y] != x_row[a_row[y]])
                    return x, a, y
        return None


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
    gen_perm = []
    for i in range(len(gens)):
        perm = []
        for old in live:
            img = table[old][2 * i]
            if img is None:
                raise AssertionError(f"coset table row {old} is incomplete")
            perm.append(index[find(img)])
        gen_perm.append(perm)

    # shortlex names by BFS from the identity; y = x * letter is recorded
    # as the tree step (y, x, letter's permutation)
    n = len(live)
    names = [""] * n
    names[0] = "e"
    order_letters = []
    for i, g in enumerate(gens):
        order_letters.append((g, 1, gen_perm[i]))
        if g not in invol:
            order_letters.append((g, -1, _perm_inverse(gen_perm[i])))
    word_of: list[Word | None] = [None] * n
    word_of[0] = Word()
    steps: list[tuple[int, int, list[int]]] = []
    queue = [0]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for sym, sg, perm in order_letters:
            y = perm[x]
            if word_of[y] is None:
                word_of[y] = word_of[x] * Word(((sym, sg),))
                names[y] = str(word_of[y])
                steps.append((y, x, perm))
                queue.append(y)
    if any(w is None for w in word_of):
        raise AssertionError("generators do not reach every coset")

    # multiplication along the tree: x * y = (x * parent(y)) * letter
    mul_table = []
    for x in range(n):
        row = [x] * n
        for y, parent_y, perm in steps:
            row[y] = perm[row[parent_y]]
        mul_table.append(row)
    inv_table = [0] * n
    for x in range(n):
        inv_table[x] = mul_table[x].index(0)

    generator_map = {g: gen_perm[i][0] for i, g in enumerate(gens)}
    model = GroupModel(p.name or "G", names, mul_table, inv_table,
                       generator_map, p, invol)
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
    mul = [[(x + y) % n for y in range(n)] for x in range(n)]
    inv = [(-x) % n for x in range(n)]
    gmap = {gen: 1 % n}
    invol = {gen} if n == 2 else set()
    return GroupModel(f"Z{n}", names, mul, inv, gmap, None, invol)


def direct_product(a: GroupModel, b: GroupModel,
                   name: str | None = None) -> GroupModel:
    """Direct product with elements named by index pairs "(i,j)"."""
    na, nb = a.order, b.order
    names = [f"({x},{y})" for x in range(na) for y in range(nb)]
    idx = lambda x, y: x * nb + y
    mul = [[0] * (na * nb) for _ in range(na * nb)]
    for x1 in range(na):
        for y1 in range(nb):
            for x2 in range(na):
                for y2 in range(nb):
                    mul[idx(x1, y1)][idx(x2, y2)] = idx(a.mul(x1, x2),
                                                        b.mul(y1, y2))
    inv = [idx(a.inv(x), b.inv(y)) for x in range(na) for y in range(nb)]
    model = GroupModel(name or f"{a.name}x{b.name}", names, mul, inv, {})
    for i, nm in enumerate(names):
        model.generator_map[nm] = i
        if i != 0 and model.mul(i, i) == 0:
            model.involution_gens.add(nm)
    return model


_A4_TEXT = "group A4 { gens: k r; rels: k^2, r^3, (k*r)^3; involutions: k; }"


def a4_model() -> GroupModel:
    """The alternating group of degree 4, enumerated from <k,r>."""
    from .presentation import parse_presentation
    return coset_enumerate(parse_presentation(_A4_TEXT), 64)


def z4xz2_model() -> GroupModel:
    return direct_product(cyclic_group(4), cyclic_group(2), "Z4xZ2")


def find_isomorphism(a: GroupModel, b: GroupModel) -> dict[int, int] | None:
    """Brute-force isomorphism search (desk scale; generator-image search)."""
    if a.order != b.order:
        return None
    n = a.order
    # generating sequence for a: greedy closure
    gens_a: list[int] = []
    closed = {0}
    for x in range(1, n):
        if x not in closed:
            gens_a.append(x)
            closed = a.closure(gens_a)
            if len(closed) == n:
                break

    orders_a = [a.element_order(g) for g in gens_a]

    def extend(mapping: dict[int, int], images: list[int]) -> dict[int, int] | None:
        # close mapping under multiplication
        mp = dict(mapping)
        frontier = list(mp.keys())
        while frontier:
            x = frontier.pop()
            for g, img in zip(gens_a, images):
                y = a.mul(x, g)
                fy = b.mul(mp[x], img)
                if y in mp:
                    if mp[y] != fy:
                        return None
                else:
                    mp[y] = fy
                    frontier.append(y)
        if len(mp) != n or len(set(mp.values())) != n:
            return None
        for x in range(n):
            for y in range(n):
                if mp[a.mul(x, y)] != b.mul(mp[x], mp[y]):
                    return None
        return mp

    candidates = [[y for y in range(n) if b.element_order(y) == o]
                  for o in orders_a]

    def rec(i: int, images: list[int]):
        if i == len(gens_a):
            return extend({0: 0}, images)
        for y in candidates[i]:
            res = rec(i + 1, images + [y])
            if res is not None:
                return res
        return None

    return rec(0, [])
