"""Shared test helpers: seeded RNG, random plane graphs, brute oracles."""

from __future__ import annotations

import itertools
import os
import random
import string
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from importlib import resources

from pcl.actions import GraphAction
from pcl.cayley import InfiniteFamilySpec, dart_permutation
from pcl.families import (AmalgamEngine, Engine, FreeGroupEngine,
                          bundled_amalgam)
from pcl.covariance import CovarianceViolation
from pcl.cyclecut import (crossing_parity, edge_vector, is_single_cycle,
                          support)
from pcl.embedding import (Embedding, FaceReport, FacialWalk,
                           KuratowskiWitness, RotationError, planarity_test)
from pcl.graph import CayleyGraph, MultiGraph, join, twin
from pcl.groups import (EnumerationBudgetError, GroupModel, _spanning_tree,
                        extend)
from pcl.planarity import simple_neighbours
from pcl.presentation import Presentation, PresentationError, Word


def shuffled_ball(cg: CayleyGraph, rng: random.Random) -> CayleyGraph:
    """The ball cg with its vertices and edges renumbered at random and the
    two darts of each involution edge swapped at random; names, labels,
    depths, frontier flags and out-darts follow the new numbers."""
    n, m = cg.n_vertices, cg.n_edges
    new_v = rng.sample(range(n), n)
    new_e = rng.sample(range(m), m)
    flip = [not cg.edge_directed[e] and rng.random() < 0.5 for e in range(m)]
    out = CayleyGraph()
    out.generators, out.radius = list(cg.generators), cg.radius
    out.engine = cg.engine
    old_v = sorted(range(n), key=new_v.__getitem__)
    for v in old_v:
        out.add_vertex(cg.vertex_names[v])
    out.depth = [cg.depth[v] for v in old_v]
    out.frontier = {new_v[v] for v in cg.frontier}
    for e in sorted(range(m), key=new_e.__getitem__):
        u, w = cg.edge_ends(e)
        if flip[e]:
            u, w = w, u
        out.add_edge(new_v[u], new_v[w], cg.edge_label[e], cg.edge_directed[e])
    k = len(cg.generators)
    out.out_dart = [-1] * (n * k)
    for j, d in enumerate(cg.out_dart):
        if d >= 0:
            v, i = divmod(j, k)
            out.out_dart[new_v[v] * k + i] = (2 * new_e[d >> 1]
                                              + (d & 1 ^ flip[d >> 1]))
    return out


def word_str_by_periods(word: Word) -> str:
    """``str(word)`` by trying every period from the shortest, kept as
    the oracle of ``presentation.power_form``: k k -> k^2,
    k r k r k r -> (k*r)^3."""
    letters = word.letters
    if not letters:
        return "1"
    n = len(letters)
    for p in range(1, n):
        if n % p == 0 and letters == letters[:p] * (n // p):
            if p == 1:
                sym, sg = letters[0]
                return f"{sym}^{n if sg > 0 else -n}"
            return f"({word_str_by_periods(Word(letters[:p]))})^{n // p}"
    return "*".join(sym if sg > 0 else f"{sym}^-1" for sym, sg in letters)


def eager_element_names(gen_perm: dict[str, list[int]]) -> list[str]:
    """The names that ``coset_enumerate`` once rendered for every element
    as it ran, kept as the oracle of the on-demand
    ``GroupModel.element_names``."""
    live = next(iter(gen_perm.values()))
    # shortlex names along the spanning tree of the model
    order, tree_parent, letter = _spanning_tree(len(live), gen_perm.items())
    words = [Word()] * len(live)
    for y in order[1:]:
        words[y] = words[tree_parent[y]] * Word((letter[y][:2],))
    names = ["e"] + [word_str_by_periods(w) for w in words[1:]]
    return names


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(int(os.environ.get("PCL_SEED", "0")) + offset)


def random_plane_graph(rng: random.Random, max_vertices: int = 30,
                       steps: int = 12) -> tuple[MultiGraph, Embedding]:
    """Random 2-connected simple plane graph grown by face operations.

    Starts from a cycle and repeatedly either adds a chord across a face
    or drops a new vertex into a face joined to two of its vertices; both
    operations preserve planarity and 2-connectedness.
    """
    g = MultiGraph()
    k = rng.randrange(3, 6)
    for _ in range(k):
        g.add_vertex()
    for i in range(k):
        g.add_edge(i, (i + 1) % k, "c", False)
    emb = planarity_test(g)
    assert not isinstance(emb, KuratowskiWitness)

    for _ in range(steps):
        face = rng.choice(emb.faces)
        boundary = list(dict.fromkeys(g.dart_tail[d] for d in face.darts))
        if len(boundary) < 3:
            continue
        if rng.random() < 0.5 and g.n_vertices < max_vertices:
            u, v = rng.sample(boundary, 2)
            w = g.add_vertex()
            g.add_edge(u, w, "a", False)
            g.add_edge(w, v, "a", False)
        else:
            adj = simple_neighbours(g.n_vertices, g.edges())
            pairs = [(u, v) for u, v in itertools.combinations(boundary, 2)
                     if v not in adj[u]]
            if not pairs:
                continue
            u, v = rng.choice(pairs)
            g.add_edge(u, v, "d", False)
        emb = planarity_test(g)
        assert not isinstance(emb, KuratowskiWitness)
    return g, emb


def random_plane_multigraph(rng: random.Random,
                            steps: int = 8) -> tuple[MultiGraph, Embedding]:
    """Random connected plane multigraph with loops, parallel and pendant
    edges.

    Starts from one edge and repeatedly adds a pendant vertex, a loop, a
    copy of an edge, a chord across a face, or a new vertex in a face
    joined to two of its vertices; each step keeps the graph planar.
    """
    g = MultiGraph()
    g.add_edge(g.add_vertex(), g.add_vertex(), "p", False)
    emb = planarity_test(g)
    for _ in range(steps):
        op = rng.randrange(5)
        v = rng.randrange(g.n_vertices)
        if op == 0:
            g.add_edge(v, g.add_vertex(), "p", False)
        elif op == 1:
            g.add_edge(v, v, "l", False)
        elif op == 2:
            g.add_edge(*g.edge_ends(rng.randrange(g.n_edges)), "c", False)
        else:
            boundary = list(dict.fromkeys(
                g.dart_tail[d] for d in rng.choice(emb.faces).darts))
            if len(boundary) < 2:
                continue
            u, w = rng.sample(boundary, 2)
            if op == 3:
                g.add_edge(u, w, "d", False)
            else:
                x = g.add_vertex()
                g.add_edge(u, x, "a", False)
                g.add_edge(x, w, "a", False)
        emb = planarity_test(g)
        assert not isinstance(emb, KuratowskiWitness)
    return g, emb


def face_key(darts: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical form of a facial walk up to rotation and reversal (a
    reversed walk runs through the twin darts backwards)."""
    rev = tuple(twin(d) for d in reversed(darts))
    return min(seq[i:] + seq[:i] for seq in (darts, rev)
               for i in range(len(seq)))


def covariance_by_face_keys(cg: CayleyGraph, emb: Embedding
                            ) -> bool | CovarianceViolation:
    """Oracle for ``is_covariant``: every generator maps each facial walk
    to a walk whose canonical key is a face's, O(sum L^2) per generator."""
    keys = {face_key(f.darts) for f in emb.faces}
    for sym in cg.generators:
        _, dperm = dart_permutation(cg, cg.group.element(sym))
        for f in emb.faces:
            if face_key(tuple(dperm[d] for d in f.darts)) not in keys:
                return CovarianceViolation(sym, f.darts)
    return True


def _simple_rotation(emb: Embedding) -> list[list[int]]:
    """Each vertex's neighbours in rotation order, parallel darts collapsed
    and loops dropped: the rotation of the simple part of the graph."""
    g = emb.graph
    nbrs = []
    for v, cycle in enumerate(emb.rotation):
        seq: list[int] = []
        for d in cycle:
            w = g.head(d)
            if w != v and (not seq or seq[-1] != w):
                seq.append(w)
        if len(seq) > 1 and seq[0] == seq[-1]:
            seq.pop()
        if len(set(seq)) != len(seq):
            raise AssertionError(f"parallel darts at {v} are not consecutive")
        nbrs.append(seq)
    return nbrs


def orientation_class_by_left_multiplication(cg: CayleyGraph, x: int,
                                             emb: Embedding) -> str:
    """Oracle for ``covariance.orientation_character``: "preserving" or
    "reversing" for left multiplication by x, comparing the image of the
    simple rotation at every vertex v with the simple rotation at x*v."""
    return _class_under_left_multiplication(cg, x, _simple_rotation(emb))


def character_by_left_multiplication(cg: CayleyGraph,
                                     emb: Embedding) -> list[int]:
    """``orientation_class_by_left_multiplication`` of every element, as
    the character's +1 and -1."""
    nbrs = _simple_rotation(emb)
    return [1 if _class_under_left_multiplication(cg, x, nbrs)
            == "preserving" else -1 for x in range(cg.n_vertices)]


def _class_under_left_multiplication(cg: CayleyGraph, x: int,
                                     nbrs: list[list[int]]) -> str:
    left = cg.group.left(x)
    verdicts = set()
    for v, seq in enumerate(nbrs):
        image = [left[w] for w in seq]
        target = nbrs[left[v]]
        i = target.index(image[0]) if image and image[0] in target else 0
        turned = target[i:] + target[:i]
        if image == turned:
            verdicts.add("preserving")
        elif image == turned[:1] + turned[:0:-1]:
            verdicts.add("reversing")
        else:
            raise AssertionError(
                f"element {x} maps a rotation to neither itself nor its mirror")
    if len(verdicts) > 1:
        raise AssertionError(f"element {x} has mixed orientation behaviour")
    return verdicts.pop()


def rotation_encoding(emb: Embedding) -> tuple:
    """Per vertex, the least cyclic shift of its rotation: the
    lexicographic key ``whitney_unique`` minimises over the two mirror
    images."""
    return tuple(min(tuple(r[i:] + r[:i]) for i in range(len(r))) if r
                 else () for r in emb.rotation)


# -- tuple-keyed family engines: the oracles for pcl.families ---------------
#
# Each has identity(), gens(), apply(key, label, sign) and name(key), with
# keys the normal forms spelled out as tuples (a free word as its letters)
# instead of pcl's packed ints.


@dataclass(frozen=True)
class GenSpec:
    """An oracle engine's generator: its label and involution flag."""
    label: str
    is_involution: bool


def free_name_by_divmod(engine: FreeGroupEngine, key: int) -> str:
    """Oracle for ``FreeGroupEngine.names``: the word read off key one
    base-(2*rank+1) digit at a time, last letter first."""
    letters = []
    while key:
        key, code = divmod(key, engine.base)
        label = engine.labels[(code - 1) // 2]
        letters.append(label if code % 2 else label + "'")
    return "".join(reversed(letters)) or "e"


class TupleFreeEngine:
    """Free group; keys are freely reduced words of (label, sign) letters."""

    def __init__(self, rank: int = 2):
        self.labels = [l for l in string.ascii_lowercase if l != "e"][:rank]

    def identity(self):
        return ()

    def gens(self) -> list[GenSpec]:
        return [GenSpec(l, False) for l in self.labels]

    def apply(self, key, label, sign):
        if key and key[-1] == (label, -sign):
            return key[:-1]
        return key + ((label, sign),)

    def name(self, key) -> str:
        return "".join(l if s > 0 else l + "'" for l, s in key) or "e"


class TupleZEngine:
    def __init__(self, steps: tuple[int, ...] = (1,)):
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


class TupleZxZEngine:
    def identity(self):
        return (0, 0)

    def gens(self) -> list[GenSpec]:
        return [GenSpec("x", False), GenSpec("y", False)]

    def apply(self, key, label, sign):
        m, n = key
        return (m + sign, n) if label == "x" else (m, n + sign)

    def name(self, key) -> str:
        return f"({key[0]},{key[1]})"


class TupleCnxZEngine:
    def __init__(self, n: int):
        self.n = n

    def identity(self):
        return (0, 0)

    def gens(self) -> list[GenSpec]:
        return [GenSpec("z", False), GenSpec("r", self.n == 2)]

    def apply(self, key, label, sign):
        z, c = key
        return (z + sign, c) if label == "z" else (z, (c + sign) % self.n)

    def name(self, key) -> str:
        return f"({key[0]},{key[1]})"


class TupleAmalgamEngine:
    """A *_C B, C = {e, c}, as ``AmalgamEngine`` takes it; keys are
    (c, syllables), c a bool and syllables a tuple of (factor, t) that
    alternate between the factors, each t a proper right-coset
    representative min(t, c*t) of C.  A step multiplies the last syllable
    and pushes the C-component it leaves left through the tuple."""

    label = "b"  # the merged involution

    def __init__(self, a: GroupModel, b: GroupModel, gens_a: list[str],
                 gens_b: list[str], b_a: int, b_b: int):
        self.factors, self.c = (a, b), (b_a, b_b)
        self.elts = {}  # label -> (factor, element)
        self.specs = []
        for fi, (model, gens) in enumerate(zip(self.factors, (gens_a, gens_b))):
            for sym in gens:
                x = model.element(sym)
                if x != self.c[fi]:
                    self.elts[sym] = (fi, x)
                    self.specs.append(GenSpec(
                        sym, x != 0 and model.mul(x, x) == 0))
                elif self.label not in self.elts:
                    self.elts[self.label] = (0, b_a)
                    self.specs.append(GenSpec(self.label, True))

    def _split(self, fi: int, f: int) -> tuple[int, bool]:
        """f = c^carry * t with t = min(f, c*f): (t, carry)."""
        cf = self.factors[fi].mul(self.c[fi], f)
        return min(f, cf), cf < f

    def _push(self, syll: list, carry: bool) -> bool:
        """Multiply the syllables by c^carry on the right, in place; the C
        part that comes out at the front."""
        for i in range(len(syll) - 1, -1, -1):
            if not carry:
                break
            fi, t = syll[i]
            t, carry = self._split(fi, self.factors[fi].mul(t, self.c[fi]))
            syll[i] = (fi, t)
        return carry

    def identity(self):
        return (False, ())

    def gens(self) -> list[GenSpec]:
        return self.specs

    def apply(self, key, label, sign):
        c, syll = key[0], list(key[1])
        if label == self.label:
            return (c ^ self._push(syll, True), tuple(syll))
        fi, x = self.elts[label]
        model = self.factors[fi]
        t = syll.pop()[1] if syll and syll[-1][0] == fi else 0
        t, carry = self._split(fi, model.mul(t, x if sign > 0
                                             else model.inv(x)))
        c ^= self._push(syll, carry)
        if t != 0:
            syll.append((fi, t))
        return (c, tuple(syll))

    def name(self, key) -> str:
        c, syll = key
        parts = [self.label] * c + [self.factors[fi].element_names[t]
                                    for fi, t in syll]
        return ".".join(parts) or "e"


def amalgam_key_by_divmod(engine: AmalgamEngine, key: int) -> tuple:
    """The tuple key of ``TupleAmalgamEngine`` that a packed amalgam key
    holds: its low bit and its base-`base` digits, most significant first,
    each read as a (factor, representative) syllable."""
    codes, word = [], key >> 1
    while word:
        word, code = divmod(word, engine.base)
        codes.append(code)
    return (bool(key & 1), tuple(engine.syllables[c] for c in reversed(codes)))


ORACLE_FAMILIES = {
    "free": TupleFreeEngine,
    "z": TupleZEngine,
    "z-cross-z": TupleZxZEngine,
    "z-cross-z3": lambda: TupleCnxZEngine(3),
    "cn-cross-z": TupleCnxZEngine,
    "amalgam": lambda **params: TupleAmalgamEngine(
        **(params or bundled_amalgam())),
}


class CountingEngine(Engine):
    """An engine's moves, with ``calls`` counting every call of them."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.calls = 0

    def moves(self):
        def counted(move):
            def call(key):
                self.calls += 1
                return move(key)
            return call
        return [(label, involution, counted(times), counted(times_inv))
                for label, involution, times, times_inv in self.engine.moves()]

    def names(self, keys):
        return self.engine.names(keys)


def build_ball_two_pass(spec: InfiniteFamilySpec, radius: int) -> CayleyGraph:
    """Oracle for ``build_ball``: a breadth-first pass over the tuple-keyed
    engine of the family for the distances, then a second pass applying
    every generator at every vertex through ``add_generator_edge``."""
    engine = ORACLE_FAMILIES[spec.tag](**spec.params)
    gens = engine.gens()
    dist = {engine.identity(): 0}
    order = [engine.identity()]
    for key in order:
        if dist[key] == radius:
            continue
        for gs in gens:
            for sg in (1,) if gs.is_involution else (1, -1):
                nxt = engine.apply(key, gs.label, sg)
                if nxt not in dist:
                    dist[nxt] = dist[key] + 1
                    order.append(nxt)

    cg = CayleyGraph()
    cg.radius = radius
    cg.generators = [gs.label for gs in gens]
    index = {}
    for key in order:
        index[key] = cg.add_vertex(engine.name(key))
        if dist[key] == radius:
            cg.frontier.add(index[key])
    cg.depth = [dist[key] for key in order]
    for key in order:
        v = index[key]
        for i, gs in enumerate(gens):
            w = index.get(engine.apply(key, gs.label, 1))
            if w is not None and (not gs.is_involution or v <= w):
                cg.add_generator_edge(v, w, i, gs.is_involution)
    if not cg.out_dart:  # a one-vertex ball has no edges
        cg.out_dart = [-1] * len(gens)
    return cg


def components_by_sets(g: MultiGraph,
                        vertices: set[int] | None = None) -> list[set[int]]:
    """Components by depth-first search with set membership and a seen
    set, in order of their least vertex: the oracle of
    ``MultiGraph.component_count`` by its length."""
    if vertices is None:
        vertices = set(range(g.n_vertices))
    inc = g.incidence()
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            for d in inc[v]:
                w = g.head(d)
                if w in vertices and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def frontier_counts(ball: CayleyGraph, r: int) -> dict[int, int]:
    """Components of Ball(R') minus Ball(r) that reach distance R', for
    R' = R-1 (when R-1 > r) and R, with R the ball's radius: the oracle
    of ``ends.shell_counts``, read off the whole ball.

    One union-find sweep over the annulus's edges: vertices are numbered
    breadth-first, so depth is non-decreasing and each shell is a range
    of vertex numbers.  The edges inside Ball(R-1) are joined as the
    sweep meets them and the rest, which reach the last shell, are joined
    after it; the count at R' is the number of roots over the shell at
    R'.
    """
    dist = ball.depth
    R = ball.radius
    first = bisect_right(dist, r)
    last = bisect_left(dist, R)  # the first vertex at distance R
    parent = list(range(len(dist)))

    def roots(lo: int, hi: int) -> int:
        for v in range(first, hi):
            parent[v] = parent[parent[v]]
        return len(set(parent[lo:hi]))

    outer = []
    for a, b in ball.edges():
        if a >= first and b >= first:
            if a < last and b < last:
                join(parent, a, b)
            else:
                outer.append((a, b))
    counts = {}
    if R - 1 > r:
        counts[R - 1] = roots(bisect_left(dist, R - 1), last)
    for a, b in outer:
        join(parent, a, b)
    counts[R] = roots(last, len(dist))
    return counts


def left_multiplication_invariant(cg: CayleyGraph) -> bool:
    """Oracle: left multiplication by every element is a label- and
    direction-preserving automorphism (edge multiset invariance), O(n*E).

    Works for parallel edges sharing a label, where per-dart bookkeeping
    cannot tell the copies apart.
    """
    g = cg.group
    if g is None:
        return False
    edges = Counter()
    for e in range(cg.n_edges):
        u, v = cg.edge_ends(e)
        if cg.edge_directed[e]:
            edges[(u, v, cg.edge_label[e], True)] += 1
        else:
            edges[(min(u, v), max(u, v), cg.edge_label[e], False)] += 1
    for x in range(g.order):
        left = g.left(x)
        imaged = Counter()
        for (u, v, lab, directed), c in edges.items():
            iu, iv = left[u], left[v]
            if not directed:
                iu, iv = min(iu, iv), max(iu, iv)
            imaged[(iu, iv, lab, directed)] += c
        if imaged != edges:
            return False
    return True


def brute_force_connectivity(g: MultiGraph) -> int:
    """Minimum vertex cut by exhaustion (small graphs only)."""
    n = g.n_vertices
    adj = simple_neighbours(n, g.edges())
    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    for size in range(n - 1):
        for cut in itertools.combinations(range(n), size):
            rest = [v for v in range(n) if v not in cut]
            if not rest:
                continue
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in cut and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) < len(rest):
                return size
    return n - 1


@dataclass
class ListEmbedding:
    """An embedding kept as lists: the rotation lists it was traced from
    and one ``FacialWalk`` with a dart tuple per face."""
    rotation: list[list[int]]
    faces: list[FacialWalk]
    genus: int

    def face_vector(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.faces:
            out[len(f.darts)] = out.get(len(f.darts), 0) + 1
        return out

    def classify(self) -> FaceReport:
        finite = [f for f in self.faces if f.finite]
        return FaceReport(
            finite_count=len(finite),
            frontier_touching_count=len(self.faces) - len(finite),
            max_finite_face_length=max((len(f.darts) for f in finite),
                                       default=0))


def trace_faces_by_lists(g: MultiGraph, rot: list[list[int]]
                         ) -> ListEmbedding:
    """Oracle of ``trace_faces``: every facial walk listed as it is
    traced, with the same rotation checks and Euler count."""
    nd = g.n_darts
    tail = g.dart_tail
    seen = [False] * nd
    count = 0
    succ = [None] * nd
    for v, cycle in enumerate(rot):
        for d, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            if not 0 <= d < nd:
                raise RotationError(f"unknown dart {d}")
            if tail[d] != v:
                raise RotationError(f"dart {d} not incident to vertex {v}")
            if succ[d] is not None:
                raise RotationError(f"dart {d} appears twice")
            succ[d] = nxt
        count += len(cycle)
    if count != nd:
        raise RotationError("rotation misses darts")

    faces: list[FacialWalk] = []
    for start in range(nd):
        if seen[start]:
            continue
        walk = []
        d = start
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = succ[d ^ 1]
        faces.append(FacialWalk(tuple(walk), finite=g.frontier.isdisjoint(
            map(tail.__getitem__, walk))))
    if not faces and g.n_vertices:
        faces.append(FacialWalk((), finite=0 not in g.frontier))
    if not g.is_connected():
        raise ValueError("face tracing requires a connected graph")
    euler = g.n_vertices - g.n_edges + len(faces)
    assert (2 - euler) % 2 == 0
    return ListEmbedding([list(r) for r in rot], faces, (2 - euler) // 2)


def check_embedding_bookkeeping(emb: Embedding) -> None:
    """Sum of face lengths = 2|E| and Euler's formula, exactly."""
    g = emb.graph
    total = sum(len(f.darts) for f in emb.faces)
    assert total == 2 * g.n_edges
    assert g.n_vertices - g.n_edges + len(emb.faces) == 2 - 2 * emb.genus


def kuratowski_edges_by_whole_runs(g: MultiGraph,
                                  G: "networkx.Graph") -> set[int]:
    """Oracle for ``_kuratowski_edges``: the same greedy deletion, with
    every question answered by one left-right run on the whole graph H,
    isolated vertices included.

    Edge ids of an edge-minimal non-planar subgraph of the non-planar G.

    Greedy deletion in networkx's order (``get_counterexample``): edge u-v
    is tried at its earlier endpoint u, neighbours in adjacency order, and
    stays deleted while the rest is non-planar.  The kept set is the same
    as networkx's, with fewer planarity runs:

    - a pendant edge is deleted untested (the rest stays non-planar);
    - an edge sharing a degree-2 vertex with a kept edge is kept untested
      (deleting either edge of a degree-2 vertex has the same effect);
    - runs of deletable edges go in doubling blocks: if the graph minus a
      block is non-planar, the one-by-one pass would delete every edge of
      the block as well.

    Every kept edge was essential when tried, so the result is
    edge-minimal, i.e. a Kuratowski subdivision.
    """
    import networkx as nx
    first_edge: dict[tuple[int, int], int] = {}
    for e in range(g.n_edges):
        u, v = g.edge_ends(e)
        first_edge.setdefault((min(u, v), max(u, v)), e)
    order = [(u, v) for u in G for v in G[u] if v > u]
    H = G.copy()
    kept: set[tuple[int, int]] = set()

    def forced(u: int, v: int) -> bool:
        for w, other in ((u, v), (v, u)):
            if H.degree(w) == 2:
                x = next(y for y in H[w] if y != other)
                if (min(w, x), max(w, x)) in kept:
                    return True
        return False

    i, step = 0, 1
    while i < len(order):
        u, v = order[i]
        if H.degree(u) == 1 or H.degree(v) == 1:
            H.remove_edge(u, v)
            i += 1
            continue
        if forced(u, v):
            kept.add((u, v))
            i += 1
            step = 1
            continue
        block = order[i:i + step]
        H.remove_edges_from(block)
        if not nx.check_planarity(H)[0]:
            i += len(block)
            step *= 2
            continue
        H.add_edges_from(block)
        if step > 1:
            step //= 2
        else:
            kept.add((u, v))
            i += 1
    return {first_edge[e] for e in kept}


def classify_witness_by_used_pairs(g: MultiGraph,
                                   edges: set[int]) -> KuratowskiWitness:
    """Oracle for ``embedding._classify_witness``: each chain walked once
    from its first end, the pairs (end, next vertex) already walked
    skipped, and the two orientations of a chain merged afterwards."""
    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.edge_ends(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = sorted(v for v, nbrs in adj.items() if len(nbrs) >= 3)
    paths: list[list[int]] = []
    used: set[tuple[int, int]] = set()
    for b in branch:
        for n0 in adj[b]:
            if (b, n0) in used:
                continue
            path = [b, n0]
            used.add((b, n0))
            prev, cur = b, n0
            while cur not in branch:
                nxt = [w for w in adj[cur] if w != prev]
                if len(nxt) != 1:
                    raise AssertionError("degree-2 chain expected")
                prev, cur = cur, nxt[0]
                path.append(cur)
            used.add((cur, prev))
            paths.append(path)
    # each chain is found once from each end; keep one orientation
    canon = {}
    for p in paths:
        key = tuple(p) if tuple(p) <= tuple(reversed(p)) else tuple(reversed(p))
        canon[key] = list(key)
    paths = sorted(canon.values())
    degrees = sorted(len(adj[b]) for b in branch)
    if degrees == [4] * 5:
        kind = "K5"
    elif degrees == [3] * 6:
        kind = "K3,3"
    else:
        raise AssertionError(f"unexpected branch degrees {degrees}")
    return KuratowskiWitness(kind, branch, paths)


def face_separator_by_simple_rotation(emb: Embedding
                                      ) -> tuple[int, ...] | None:
    """Oracle for ``covariance._face_separator``: the same face criterion
    on faces traced a second time, by the successor rule over the simple
    rotation (``_simple_rotation``), with per-vertex position dicts.

    A cut vertex or 2-separator of a connected plane graph on >= 4
    vertices, or None if the graph is 3-connected.

    Works on the simple part of the embedding (parallel darts collapsed,
    loops dropped).  Criterion (Mohar-Thomassen, Graphs on Surfaces): the
    graph is 3-connected iff every face is a cycle and any two faces meet
    in nothing, one vertex or one shared edge.  A vertex repeated on a
    face is a cut vertex; two faces meeting otherwise share two vertices
    that are not the ends of an edge on both, and those separate.  Each
    candidate is checked by a search before it is returned.  O(sum deg^2).
    """
    g = emb.graph
    n = g.n_vertices
    nbrs = _simple_rotation(emb)
    pos = [{w: i for i, w in enumerate(seq)} for seq in nbrs]

    # faces of the simple rotation, by the successor rule of trace_faces
    face_at = [[-1] * len(seq) for seq in nbrs]  # per half-edge v -> nbrs[v][i]
    faces: list[list[int]] = []
    for v0 in range(n):
        for i0 in range(len(nbrs[v0])):
            if face_at[v0][i0] >= 0:
                continue
            walk: list[int] = []
            v, i = v0, i0
            while face_at[v][i] < 0:
                face_at[v][i] = len(faces)
                walk.append(v)
                w = nbrs[v][i]
                v, i = w, (pos[w][v] + 1) % len(nbrs[w])
            faces.append(walk)

    def separates(cut: tuple[int, ...]) -> bool:
        return g.component_count(set(range(n)) - set(cut)) > 1

    for walk in faces:
        seen_on_face: set[int] = set()
        for v in walk:
            if v in seen_on_face:
                if separates((v,)):
                    return (v,)
                raise AssertionError(f"vertex {v} repeats on a face but "
                                     "does not separate")
            seen_on_face.add(v)

    # common vertices and common edges per pair of faces
    meet = Counter(pair for at_v in face_at
                   for pair in itertools.combinations(sorted(at_v), 2))
    shared = Counter(tuple(sorted((face_at[v][i], face_at[w][pos[w][v]])))
                     for v in range(n) for i, w in enumerate(nbrs[v]) if v < w)
    for (f1, f2), common in meet.items():
        if common < 2 or (common == 2 and shared[(f1, f2)] == 1):
            continue
        both = _cycle_edges(faces[f1]) & _cycle_edges(faces[f2])
        for pair in itertools.combinations(
                sorted(set(faces[f1]) & set(faces[f2])), 2):
            if frozenset(pair) not in both and separates(pair):
                return pair
        raise AssertionError(f"faces {f1} and {f2} violate the face "
                             "criterion but yield no separator")
    return None


def _cycle_edges(cycle: list[int]) -> set[frozenset[int]]:
    return {frozenset((a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])}


def verify_witness_by_networkx(g: MultiGraph, w: KuratowskiWitness) -> bool:
    """Oracle for ``verify_witness``: the same path checks, with the
    contracted graph K built and two-coloured by networkx.  A path from a
    branch vertex back to itself becomes a loop of K, which this check
    counts as one of K5's ten edges."""
    import networkx as nx
    adj = simple_neighbours(g.n_vertices, g.edges())
    internal: list[set[int]] = []
    for p in w.paths:
        for a, b in zip(p, p[1:]):
            if b not in adj[a]:
                return False
        if p[0] not in w.branch_vertices or p[-1] not in w.branch_vertices:
            return False
        mid = set(p[1:-1])
        if mid & set(w.branch_vertices):
            return False
        for other in internal:
            if mid & other:
                return False
        internal.append(mid)
    K = nx.Graph()
    K.add_nodes_from(w.branch_vertices)
    for p in w.paths:
        if K.has_edge(p[0], p[-1]):
            return False
        K.add_edge(p[0], p[-1])
    if w.kind == "K5":
        return (K.number_of_nodes() == 5 and K.number_of_edges() == 10)
    deg = sorted(d for _, d in K.degree())
    if deg != [3] * 6:
        return False
    return nx.is_bipartite(K)


# -- the character-walk lexer: the oracle for pcl.presentation's scanner ---
#
# The lexer that pcl.presentation had before its regular-expression
# scanner, its scanning methods copied verbatim: its tokens and errors,
# with their lines and columns, are what the scanner must reproduce.

_PUNCT = set("{}();,*^:")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.i = 0

    def _advance(self, n: int) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _scan(self) -> None:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance(1)
            elif c.isspace():
                self._advance(1)
            elif c in _PUNCT:
                self.tokens.append((c, c, self.line, self.col))
                self._advance(1)
            elif c.isdecimal() or (c == "-" and self.pos + 1 < len(text)
                                   and text[self.pos + 1].isdecimal()):
                start, line, col = self.pos, self.line, self.col
                self._advance(1)
                while self.pos < len(text) and text[self.pos].isdecimal():
                    self._advance(1)
                self.tokens.append(("int", text[start:self.pos], line, col))
            elif c.isalnum() or c == "_":
                start, line, col = self.pos, self.line, self.col
                while (self.pos < len(text)
                       and (text[self.pos].isalnum()
                            or text[self.pos] in "_#")):
                    self._advance(1)
                self.tokens.append(("ident", text[start:self.pos], line, col))
            else:
                raise PresentationError(f"unexpected character {c!r}",
                                        self.line, self.col)
        self.tokens.append(("eof", "", self.line, self.col))


# -- builders and oracles that only the tests use ---------------------------


def grp_resource(name: str) -> str:
    """Text of a bundled .grp presentation file."""
    return (resources.files("pcl") / "data" / name).read_text()


def graph_from_edges(n: int, edges: list[tuple[int, int]],
                     names: list[str] | None = None) -> MultiGraph:
    """Convenience builder for undirected test graphs."""
    g = MultiGraph()
    for i in range(n):
        g.add_vertex(names[i] if names else None)
    for u, v in edges:
        g.add_edge(u, v, directed=False)
    return g


def graph_from_json_dict(data: dict) -> MultiGraph:
    """The graph that ``MultiGraph.to_json_dict`` wrote out."""
    g = MultiGraph()
    verts = sorted(data["vertices"], key=lambda v: v["id"])
    for v in verts:
        g.add_vertex(v["name"])
        if v.get("frontier"):
            g.frontier.add(v["id"])
    for e in data["edges"]:
        g.add_edge(e["tail"], e["head"], e.get("label", ""),
                   e.get("directed", True))
    g.radius = data.get("radius")
    return g


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) by Gaussian elimination on int bitmasks: the oracle
    of ``cyclecut.star_generation_check``."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def star_cut(g: MultiGraph, v: int) -> int:
    """Edge set incident to v, loops excluded (the vertex-star cut): both
    darts of a loop sit at v and cancel."""
    return edge_vector(d >> 1 for d in g.incidence()[v])


@dataclass
class SepSumLedger:
    cycle_parities: list[int]
    sum_is_cycle: bool
    sum_parity: int | None
    verdict: str  # "ok" | "not-a-cycle" | "violation"


def sep_sum_check(emb: Embedding, f1: int, f2: int,
                  cycles: list[int]) -> SepSumLedger:
    """Verify that a GF(2) sum of non-separating cycles stays
    non-separating (parities are additive)."""
    parities = [crossing_parity(emb, c, f1, f2) for c in cycles]
    if any(parities):
        raise ValueError("a listed cycle already separates the faces")
    total = 0
    for c in cycles:
        total ^= c
    if not is_single_cycle(emb.graph, total):
        return SepSumLedger(parities, False, None, "not-a-cycle")
    p = crossing_parity(emb, total, f1, f2)
    return SepSumLedger(parities, True, p, "ok" if p == 0 else "violation")


def find_isomorphism(a: GroupModel, b: GroupModel) -> dict[int, int] | None:
    """Brute-force isomorphism search over the images of a's generators
    (desk scale); a bijective extension f(x*s) = f(x)*t of the images t is
    an isomorphism, by induction on word length.  The oracle of coset
    enumeration."""
    if a.order != b.order:
        return None
    gens = list(a.gens.values())
    orders_b = [b.element_order(y) for y in range(b.order)]
    candidates = [[y for y, k in enumerate(orders_b) if k == order]
                  for order in (a.element_order(s[0]) for s in gens)]
    for images in itertools.product(*candidates):
        f = extend(0, zip(gens, [b.right(y) for y in images]))
        if f is not None and len(set(f)) == a.order:
            return dict(enumerate(f))
    return None


def check_axioms_by_walk(g: GroupModel) -> None:
    """``GroupModel.check_axioms`` as it was before relators were checked
    by squaring: every relator is walked letter by letter from every
    element.  The oracle of the squaring certificate."""
    n = g.order
    for sym, perm in g.gens.items():
        if sorted(perm) != list(range(n)):
            raise AssertionError(f"generator {sym} is not a permutation")
    g._tree  # raises unless the tree reaches every element
    rels = g.presentation.all_relators() if g.presentation else []
    for rel in rels:
        moved = [x for x, y in enumerate(g._apply(rel, range(n))) if y != x]
        if moved:
            raise AssertionError(
                f"relator {rel} moves {g.element_names[moved[0]]}")
    for perm in g.gens.values():
        g.left(perm[0])


def coset_enumerate_with_finds(p: Presentation, max_cosets: int) -> GroupModel:
    """``coset_enumerate`` as it was before its helpers relied on receiving
    live cosets: every helper re-finds its cosets, ``define`` goes through
    ``set_entry``, and dead rows are cleared.  The oracle of the
    live-coset enumeration."""
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
    letter_of = {g: 2 * i for i, g in enumerate(gens)}
    rel_letters = [[letter_of[sym] if sg > 0 else inverse[letter_of[sym]]
                    for sym, sg in rel] for rel in p.all_relators() if rel]

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
        cur = table[d][inverse[letter]]
        if cur is not None and find(cur) != c:
            pending.append((find(cur), c))
        else:
            table[d][inverse[letter]] = c

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
            if inverse[inverse[letter]] != letter:  # an involution's 2i+1
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

    model = GroupModel(p.name or "G", gen_perm, p)
    model.check_axioms()
    return model


def is_single_cycle_by_search(g: MultiGraph, vec: int) -> bool:
    """True iff the support induces a connected subgraph with all degrees
    2, by a degree count and a depth-first search: the oracle of the
    dart-walk ``is_single_cycle``."""
    edges = support(vec)
    if not edges:
        return False
    deg: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.edge_ends(e)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d != 2 for d in deg.values()):
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


# -- graph actions that only the tests build ---------------------------------


def check_axioms(a: GraphAction) -> None:
    """Raise AssertionError unless the generator images define an action
    of the group by graph automorphisms, in O(k |G|) per vertex and dart
    orbit: O(k (V + D)) for a free action.

    Checked: (1) every image is a permutation of the vertices and of
    the darts that commutes with the twin map and carries tails to
    tails; (2) the orbit map of one point p per vertex and dart orbit
    agrees on every generator edge, s.(x.p) = (s*x).p.  By (2) and
    induction on length, a word w in the generators and their inverses
    sends every x.p to (w*x).p, so a word trivial in G fixes p and the
    whole orbit.  The orbits cover the graph, so the images extend to a
    homomorphism from G, by (1) into its automorphisms.
    """
    g, h = a.group, a.graph
    vertices, darts = list(range(h.n_vertices)), list(range(h.n_darts))
    for sym in g.gens:
        vp, dp = a.vertex_image[sym], a.dart_image[sym]
        if sorted(vp) != vertices or sorted(dp) != darts:
            raise AssertionError(f"generator {sym} is not a permutation")
        for d in darts:
            if dp[twin(d)] != twin(dp[d]):
                raise AssertionError(f"generator {sym} breaks twin pairing")
            if h.dart_tail[dp[d]] != vp[h.dart_tail[d]]:
                raise AssertionError(f"generator {sym} breaks incidence")
    a._orbit_maps(a.vertex_image, h.n_vertices)
    a._orbit_maps(a.dart_image, h.n_darts)


def left_action(g: GroupModel, cg: CayleyGraph) -> GraphAction:
    """Left multiplication action of g on its complete Cayley graph."""
    if cg.radius != "complete" or cg.group is not g:
        raise ValueError("left action needs the complete Cayley graph of g")
    perms = {sym: dart_permutation(cg, perm[0]) for sym, perm in g.gens.items()}
    return GraphAction(g, cg, {sym: vp for sym, (vp, _) in perms.items()},
                       {sym: dp for sym, (_, dp) in perms.items()})


def action_from_vertex_permutations(
        g: GroupModel, graph: MultiGraph,
        vimages: dict[str, list[int]]) -> GraphAction:
    """Derive dart images from the vertex images of g's generators.

    Requires the graph to have no parallel edges between any vertex pair
    and no loops, so edge images are determined by endpoint images.
    """
    ends = [(graph.dart_tail[d], graph.head(d)) for d in range(graph.n_darts)]
    dart_of = {uv: d for d, uv in enumerate(ends)}
    if len(dart_of) < len(ends):  # the two darts of a loop share their ends
        raise ValueError("vertex permutations do not determine dart images "
                         "on multigraphs")
    return GraphAction(g, graph, vimages, {
        sym: [dart_of[vp[u], vp[v]] for u, v in ends]
        for sym, vp in vimages.items()})


def blow_up(g: MultiGraph, vs: set[int],
            rotation: list[list[int]] | None = None,
) -> tuple[MultiGraph, dict[int, int]]:
    """Replace each vertex in vs by a cycle of its degree.

    Each former dart slot attaches to its own cycle vertex, in rotation
    order when a rotation system is supplied (preserving planarity of
    plane inputs), else in dart order.  Returns the new graph and the map
    from old darts to their new tail vertices.
    """
    inc = g.incidence()
    for v in vs:
        if not inc[v]:
            raise ValueError(f"cannot blow up isolated vertex {v}")

    out = MultiGraph()
    out.radius = g.radius
    vmap: dict[int, int] = {}
    dart_host: dict[int, int] = {}
    for v in range(g.n_vertices):
        if v not in vs:
            vmap[v] = out.add_vertex(g.vertex_names[v])
    cycle_of: dict[int, list[int]] = {}
    for v in sorted(vs):
        slots = rotation[v] if rotation is not None else inc[v]
        cyc = [out.add_vertex(f"{g.vertex_names[v]}.{i}")
               for i in range(len(slots))]
        cycle_of[v] = cyc
        for d, host in zip(slots, cyc):
            dart_host[d] = host
    for d in range(g.n_darts):
        if d not in dart_host:
            dart_host[d] = vmap[g.dart_tail[d]]
    for e in range(g.n_edges):
        out.add_edge(dart_host[2 * e], dart_host[2 * e + 1],
                     g.edge_label[e], g.edge_directed[e])
    for v in sorted(vs):
        cyc = cycle_of[v]
        if len(cyc) == 1:
            continue
        for i in range(len(cyc)):
            if len(cyc) == 2 and i == 1:
                break  # avoid a parallel pair for degree-2 vertices
            out.add_edge(cyc[i], cyc[(i + 1) % len(cyc)], "cycle", False)
    return out, dart_host
