"""Covariance of embeddings under the left action, orientation classes,
and Whitney-unique canonical embeddings of 3-connected planar graphs.

Covariance is checked with the face-tracing rule itself: a generator maps
a facial walk onto a facial walk iff the image darts follow the rule,
forwards or, for an orientation-reversing generator, backwards along
twins.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .augment import TooFewVerticesError, vertex_connectivity
from .cayley import build_cayley, dart_permutation
from .embedding import (Embedding, KuratowskiWitness, cayley_map,
                        planarity_test, simple_part)
from .graph import CayleyGraph, MultiGraph, twin
from .planarity import simple_neighbours


class NotThreeConnectedError(ValueError):
    """Graph is not 3-connected.

    ``separator`` is a certificate: vertices whose removal disconnects the
    graph (``()`` if it is disconnected already), or None on fewer than
    four vertices, which no graph is 3-connected on.
    """

    def __init__(self, separator: tuple[int, ...] | None = None):
        super().__init__("graph is not 3-connected")
        self.separator = separator


class NonPlanarError(ValueError):
    def __init__(self, witness: KuratowskiWitness):
        super().__init__(f"graph is not planar ({witness.kind} subdivision)")
        self.witness = witness


@dataclass
class CovarianceViolation:
    generator: str
    face_darts: tuple[int, ...]  # a facial walk whose image is not facial


def is_covariant(cg: CayleyGraph, emb: Embedding) -> bool | CovarianceViolation:
    """True iff every generator's left action maps facial walks onto
    facial walks, each either way round.

    The image a_1 ... a_L of a facial walk is a facial walk iff every
    cyclically consecutive pair a, b follows the tracing rule
    b = succ(twin(a)), and a facial walk run backwards along twins (as an
    orientation-reversing generator gives) iff every pair follows
    twin(a) = succ(b).  O(k·D) for k generators and D darts.
    The element s is the head of the identity's out-dart along s;
    ``dart_permutation`` refuses a ball, which has no group.
    """
    succ = emb.succ
    for i, sym in enumerate(cg.generators):
        _, dperm = dart_permutation(cg, cg.head(cg.out_dart[i]))
        for f in emb.faces:
            image = [dperm[d] for d in f.darts]
            pairs = list(zip(image, image[1:] + image[:1]))
            if not (all(b == succ[twin(a)] for a, b in pairs)
                    or all(twin(a) == succ[b] for a, b in pairs)):
                return CovarianceViolation(sym, f.darts)
    return True


def whitney_unique(g: MultiGraph) -> Embedding:
    """Canonical embedding of a 3-connected planar graph.

    Unique up to reflection by Whitney's theorem; of the two mirror
    images, the one with the lexicographically least rotation encoding
    (decided at vertex 0, which has three or more darts) is returned.
    Refusals carry certificates: TooFewVerticesError below two
    vertices; NotThreeConnectedError on two or three vertices, with
    separator ``()`` on a disconnected graph, or with the cut vertex or
    2-separator that ``_face_separator`` reads off the planar faces; and,
    before that, NonPlanarError with a Kuratowski witness.  A non-planar
    Cayley graph has simple degree >= 3, so it is 3-connected by Watkins's
    bound and its verdict does not depend on that order.
    """
    if g.n_vertices < 2:
        raise TooFewVerticesError(g.n_vertices)
    if g.n_vertices < 4:
        raise NotThreeConnectedError()
    if not g.is_connected():
        raise NotThreeConnectedError(())
    result = planarity_test(g)
    if isinstance(result, KuratowskiWitness):
        raise NonPlanarError(result)
    separator = _face_separator(result)
    if separator is not None:
        raise NotThreeConnectedError(separator)
    d = min(result.rotation[0])  # the least shift at vertex 0 starts at d
    return result.mirror() if result.succ.index(d) < result.succ[d] else result


def plane_connectivity(emb: Embedding) -> int:
    """Vertex connectivity of a graph with a genus-0 embedding.

    The graph is connected (``trace_faces`` refuses any other), so below
    four vertices it is V - 1 if the simple graph is complete, else 1.
    Otherwise it is read off the faces: a cut vertex or 2-separator from
    ``_face_separator`` (which finds a cut vertex before any pair), else 3
    when the simple minimum degree is 3.  The flow of
    ``vertex_connectivity`` runs only at simple minimum degree 4 or 5.
    """
    g = emb.graph
    n = g.n_vertices
    if emb.genus != 0:
        raise ValueError("plane connectivity needs a genus-0 embedding")
    if n < 2:
        raise TooFewVerticesError(n)
    min_degree = min(map(len, simple_neighbours(n, g.edges())))
    if n < 4:
        return n - 1 if min_degree == n - 1 else 1
    separator = _face_separator(emb)
    if separator is not None:
        return len(separator)
    return 3 if min_degree == 3 else vertex_connectivity(g)


def _face_separator(emb: Embedding) -> tuple[int, ...] | None:
    """A cut vertex or 2-separator of a connected plane graph on >= 4
    vertices, or None if the graph is 3-connected.

    Works on the faces of the simple part of the embedding: each traced
    walk's tails with loop darts skipped, the walks of fewer than three
    darts left (digons between parallel copies, faces inside loops)
    dropped.  Criterion (Mohar-Thomassen, Graphs on Surfaces): the
    graph is 3-connected iff every face is a cycle and any two faces meet
    in nothing, one vertex or one shared edge.  A vertex repeated on a
    face is a cut vertex; two faces meeting otherwise share two vertices
    that are not the ends of an edge on both, and those separate.  Each
    candidate is checked by a search before it is returned.  O(sum deg^2).
    """
    g = emb.graph
    n = g.n_vertices
    tail = g.dart_tail
    faces = [walk for f in emb.faces
             if len(walk := [tail[d] for d in f.darts
                             if tail[d] != tail[d ^ 1]]) >= 3]

    def separates(cut: tuple[int, ...]) -> bool:
        return g.component_count(set(range(n)) - set(cut)) > 1

    faces_at: list[list[int]] = [[] for _ in range(n)]  # around each vertex
    along: dict[tuple[int, int], list[int]] = {}  # along each simple edge
    for fi, walk in enumerate(faces):
        for v, w in zip(walk, walk[1:] + walk[:1]):
            if faces_at[v][-1:] == [fi]:  # v is on this face already
                if separates((v,)):
                    return (v,)
                raise AssertionError(f"vertex {v} repeats on a face but "
                                     "does not separate")
            faces_at[v].append(fi)
            along.setdefault((min(v, w), max(v, w)), []).append(fi)

    # common vertices and common edges per pair of faces
    meet = Counter(pair for at_v in faces_at
                   for pair in itertools.combinations(at_v, 2))
    shared = Counter(map(tuple, along.values()))
    for (f1, f2), common in meet.items():
        if common < 2 or (common == 2 and shared[(f1, f2)] == 1):
            continue
        both = {e for e, at_e in along.items() if at_e == [f1, f2]}
        for pair in itertools.combinations(
                sorted(set(faces[f1]) & set(faces[f2])), 2):
            if pair not in both and separates(pair):
                return pair
        raise AssertionError(f"faces {f1} and {f2} violate the face "
                             "criterion but yield no separator")
    return None


ORIENTATION_CLASS = {1: "preserving", -1: "reversing"}


def orientation_character(cg: CayleyGraph) -> list[int]:
    """The orientation character chi: G -> {+1, -1} of the plane
    embedding of a complete Cayley graph, per element: +1 where left
    multiplication keeps the orientation, -1 where it reverses it.

    Loops and parallel edges leave the simple part's embedding as it is,
    so chi is read there: the spins of the ``cayley_map`` of the Cayley
    graph on the generators that ``simple_part`` keeps, without a
    planarity run.  Its embedding is unique up to mirror image, since it
    is 3-connected (Watkins), so this is the chi of the Whitney-unique
    embedding, with chi(e) = +1.  Where the simple part has no Cayley map
    (it is not planar, or has degree <= 2), ``whitney_unique`` raises its
    refusal: ``NonPlanarError`` with its witness,
    ``NotThreeConnectedError`` or ``TooFewVerticesError``.
    """
    keep, _ = simple_part(cg)
    simple = (cg if len(keep) == len(cg.generators)
              else build_cayley(cg.group, [cg.generators[i] for i in keep]))
    cmap = cayley_map(simple)
    if cmap is None:
        whitney_unique(cg)
        raise AssertionError("Whitney-unique embedding without a Cayley map")
    return cmap.spins


def orientation_class(cg: CayleyGraph, x: int | str) -> str:
    """"preserving" or "reversing" for left multiplication by x: the
    ``orientation_character`` at x."""
    if isinstance(x, str):
        x = cg.group.element(x)
    return ORIENTATION_CLASS[orientation_character(cg)[x]]


def orientation_table(cg: CayleyGraph) -> dict[str, str]:
    """Orientation class of every group element, keyed by element name:
    the ``orientation_character``, whose refusals it raises."""
    return {name: ORIENTATION_CLASS[c] for name, c
            in zip(cg.group.element_names, orientation_character(cg))}
