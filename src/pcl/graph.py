"""Dart-based multigraphs.

Every edge is a pair of darts (2e, 2e+1), twins of each other; ``twin(d) ==
d ^ 1``.  Loops are a dart pair with equal tails, so they occupy two rotation
slots at their vertex.  Edges may be directed (generator edges g -> gs) or
undirected (involution edges, stored once).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


def twin(dart: int) -> int:
    return dart ^ 1


def join(parent: list[int], a: int, b: int) -> None:
    """Union-find: merge the sets of a and b, with path halving.  The
    least member is the root, so every parent lies below its child."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]  # path halving
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


@dataclass
class MultiGraph:
    dart_tail: list[int] = field(default_factory=list)
    edge_label: list[str] = field(default_factory=list)
    edge_directed: list[bool] = field(default_factory=list)
    frontier: set[int] = field(default_factory=set)
    radius: int | str | None = None  # ball radius, "complete", or None

    _names: list[str] = field(default_factory=list, repr=False)
    # vertices after _names whose names are not rendered yet: their keys
    # and the renderer of all of them, or None
    _unnamed: tuple[Sequence, Callable[[Sequence], Iterable[str]]] | None = \
        field(default=None, repr=False)
    _name_index: dict[str, int] = field(default_factory=dict, repr=False)
    _connected: bool | None = field(default=None, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_vertex(self, name: str | None = None) -> int:
        names = self.vertex_names
        idx = len(names)
        if name is None:
            name = f"v{idx}"
        if len(self._name_index) < idx:  # names rendered from keys
            self._name_index = {n: i for i, n in enumerate(names)}
        if name in self._name_index:
            raise ValueError(f"duplicate vertex name {name!r}")
        names.append(name)
        self._name_index[name] = idx
        self._connected = None  # drop_caches, inlined
        return idx

    def add_keyed_vertices(self, keys: Sequence,
                           names: Callable[[Sequence], Iterable[str]]
                           ) -> None:
        """Add a vertex per key, named by names(keys), the keys' names in
        order, only when ``vertex_names`` is first read (commands that
        print no names, such as ``faces``, never read them).  The names
        must be distinct."""
        self.vertex_names  # render an earlier batch first
        self._unnamed = (keys, names)
        self.drop_caches()

    def add_edge(self, u: int, v: int, label: str = "", directed: bool = True) -> int:
        eid = len(self.edge_label)
        self.dart_tail.append(u)
        self.dart_tail.append(v)
        self.edge_label.append(label)
        self.edge_directed.append(directed)
        self._connected = None  # drop_caches, inlined
        return eid

    def drop_caches(self) -> None:
        """Forget the connectivity verdict; every edit of the vertices or
        the dart arrays calls this."""
        self._connected = None

    # -- basic queries -----------------------------------------------------

    @property
    def vertex_names(self) -> list[str]:
        if self._unnamed is not None:
            keys, names = self._unnamed
            self._unnamed = None
            self._names += names(keys)
        return self._names

    @property
    def n_vertices(self) -> int:
        if self._unnamed is not None:
            return len(self._names) + len(self._unnamed[0])
        return len(self._names)

    @property
    def n_edges(self) -> int:
        return len(self.edge_label)

    @property
    def n_darts(self) -> int:
        return 2 * len(self.edge_label)

    def head(self, dart: int) -> int:
        return self.dart_tail[dart ^ 1]

    def edge_ends(self, eid: int) -> tuple[int, int]:
        return self.dart_tail[2 * eid], self.dart_tail[2 * eid + 1]

    def edges(self) -> Iterator[tuple[int, int]]:
        """(tail, head) per edge, in edge order, from one pass over the
        dart tails."""
        ends = iter(self.dart_tail)
        return zip(ends, ends)

    def incidence(self) -> list[list[int]]:
        """Darts grouped by tail vertex, in dart order (so in edge order):
        fresh lists on every call, which the caller may change."""
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for d, v in enumerate(self.dart_tail):
            out[v].append(d)
        return out

    def degree(self, v: int) -> int:
        return self.dart_tail.count(v)

    def is_connected(self) -> bool:
        """At most one component, counted once per graph: the verdict is
        kept until the next edit (``drop_caches``)."""
        if self._connected is None:
            self._connected = self.component_count() <= 1
        return self._connected

    def component_count(self, vertices: set[int] | None = None) -> int:
        """Number of connected components of the subgraph induced on
        ``vertices`` (default: all): one union-find pass over the edges
        with both ends inside, then a count of the roots among them."""
        n = self.n_vertices
        parent = list(range(n))
        pairs = self.edges()
        if vertices is None:
            members = range(n)
        else:
            members = vertices
            inside = [False] * n
            for v in members:
                inside[v] = True
            pairs = ((a, b) for a, b in pairs if inside[a] and inside[b])
        for a, b in pairs:
            join(parent, a, b)
        return sum(parent[v] == v for v in members)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "pcl/1",
            "vertices": [
                {"id": i, "name": n, "frontier": i in self.frontier}
                for i, n in enumerate(self.vertex_names)
            ],
            "edges": [
                {"tail": u, "head": v, "label": label, "directed": directed}
                for (u, v), label, directed in zip(
                    self.edges(), self.edge_label, self.edge_directed)
            ],
            "radius": self.radius,
        }

    def to_dot(self) -> str:
        lines = ["digraph G {"]
        for i, name in enumerate(self.vertex_names):
            attrs = f'label="{name}"'
            if i in self.frontier:
                attrs += ', style=dashed'
            lines.append(f'  v{i} [{attrs}];')
        for (u, v), label, directed in zip(self.edges(), self.edge_label,
                                           self.edge_directed):
            if directed:
                lines.append(f'  v{u} -> v{v} [label="{label}"];')
            else:
                lines.append(f'  v{u} -> v{v} [label="{label}", dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class CayleyGraph(MultiGraph):
    """Labeled Cayley multigraph; vertices are group element names.

    ``out_dart`` is one flat list: ``out_dart[v*k + i]`` is the dart with
    tail v that leaves v along ``generators[i]``, k = len(generators), and
    -1 where a ball's frontier vertex lacks it.  Keying by position keeps
    the classes of a repeated symbol apart.  Present for complete graphs
    and balls alike; left-multiplication automorphisms are read off from
    it, and vertex v's darts are the slice ``out_dart[v*k:(v+1)*k]``.
    ``add_generator_edge`` writes it; ``cayley.build_ball`` appends to it
    and to the dart arrays directly, and records the family engine of the
    ball as ``engine`` (None on complete graphs and quotients).
    """

    def __init__(self) -> None:
        super().__init__()
        self.group = None  # GroupModel for complete graphs, else None
        self.engine = None  # the family engine a ball was built from
        self.depth: list[int] = []  # distance from the identity, for balls
        self.generators: list[str] = []
        self.out_dart: list[int] = []

    def add_generator_edge(self, v: int, w: int, i: int,
                           involution: bool) -> None:
        """Add the edge v -> w = v*s for s = generators[i], labelled s, and
        record it as v's out-dart along i.  An involution edge is
        undirected and also w's out-dart.  The first call sizes
        ``out_dart`` to V*k, so the vertices and generators come first."""
        k = len(self.generators)
        if not self.out_dart:
            self.out_dart = [-1] * (self.n_vertices * k)
        e = self.add_edge(v, w, self.generators[i], not involution)
        self.out_dart[v * k + i] = 2 * e
        if involution:
            self.out_dart[w * k + i] = 2 * e + 1
