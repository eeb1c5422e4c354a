"""Outside-in tracer: spans around the calls into pcl's layers.

The tracer replaces each listed public function by a timing wrapper in
every `pcl` module namespace that binds it, and patches listed methods on
their class.  Calls made inside the defining module go through its
globals and are caught as well.  `networkx.check_planarity` and
`networkx.node_connectivity` are wrapped on the `networkx` module, which
is how pcl calls them.  Per-element hot paths such as `Engine.apply` are
not wrapped; their work is derived from input sizes instead.

Spans stay in memory as (name, start, end, parent, job, work); the run
aggregates them and writes them out when it ends.  The tracer is installed
only in traced passes and removed afterwards, so untraced passes run the
original code.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass

# layer -> public functions ("Class.method" for methods)
TARGETS = {
    "presentation": ["parse_presentation"],
    "groups": ["coset_enumerate", "a4_model", "z4xz2_model", "cyclic_group",
               "direct_product"],
    "families": ["engine_for"],
    "cayley": ["build_cayley", "build_ball", "build_amalgam_ball",
               "interior_degrees", "dart_permutation"],
    "graph": ["MultiGraph.degree", "MultiGraph.to_json_dict"],
    "embedding": ["planarity_test", "trace_faces",
                  "search_consistent_embeddings", "classify_faces"],
    "covariance": ["whitney_unique", "orientation_table", "orientation_class",
                   "is_covariant"],
    "actions": ["babai_contract"],
    "augment": ["vertex_connectivity", "ladder_augment"],
    "cyclecut": ["star_generation_check", "separating_cycle_between_faces",
                 "crossing_parity", "crossing_parity_floodfill"],
    "ends": ["classify_ends"],
    "corpus": ["verify"],
}
NX_TARGETS = ["check_planarity", "node_connectivity"]


def _search_work(args, result):
    """(candidates, hits) of a consistent-embedding search:
    (m-1)! * 2^(V-1) label orders times spins, m label slots."""
    from pcl.embedding import local_label_items
    cg = args[0]
    m = len(local_label_items(cg))
    return math.factorial(m - 1) * 2 ** (cg.n_vertices - 1), len(result)


# span name -> work of one call, from its arguments and result
WORK = {
    "groups.coset_enumerate": lambda a, r: r.order,
    "cayley.build_cayley": lambda a, r: r.n_darts,
    "cayley.build_ball": lambda a, r: r.n_darts,
    "cayley.interior_degrees": lambda a, r: a[0].n_vertices,
    "embedding.trace_faces": lambda a, r: a[0].n_darts,
    "embedding.planarity_test": lambda a, r: a[0].n_vertices,
    "embedding.search_consistent_embeddings": _search_work,
    "covariance.whitney_unique": lambda a, r: a[0].n_vertices,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a job root
    job: int
    work: object = None
    error: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.job = -1

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.spans[idx].error = True
                raise
            finally:
                tracer.close(idx)
            if work is not None:
                tracer.spans[idx].work = work(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import networkx
        modules = [m for n, m in sys.modules.items()
                   if (n == "pcl" or n.startswith("pcl.")) and m is not None]
        for layer, names in TARGETS.items():
            mod = importlib.import_module(f"pcl.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(mod, fname)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, attr, wrapper)
        for fname in NX_TARGETS:
            self._patch(networkx, fname,
                        self._wrap(f"nx.{fname}", getattr(networkx, fname)))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- aggregation ---------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds (outermost calls of that name only,
    so recursion is not counted twice), self seconds, calls and errors."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                    "errors": 0})
        t["calls"] += 1
        t["errors"] += s.error
        t["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            t["s"] += s.end - s.start
    return out


def ladder_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) on log(size) over the median
    seconds of each distinct size; 0 with fewer than two sizes."""
    by_size: dict[float, list[float]] = {}
    for size, secs in points:
        if size and size > 0 and secs > 0:
            by_size.setdefault(size, []).append(secs)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
