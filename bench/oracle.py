"""Independent verdict oracle for benchmark jobs.

Imports nothing from pcl.  Every finite group of the benchmark gets its
own faithful model here: D_n and C_n x C_2 as pairs (k, s) = a^k b^s with
their closed-form product, and the (2,3,m) triangle groups as permutations
of five points found by search.  Element names printed by pcl are parsed
and evaluated in these models, so the checks are about group elements, not
about spelling.  Balls of the infinite families are checked against closed
forms (free rank 2: 2*3^R - 1 vertices; Z^2: 2R^2 + 2R + 1) or brute-force
counts over normal forms.

`verify(jobs, outcomes)` returns, per job, None when the output is right
and a one-line reason otherwise.  pcl numbers the elements of an
enumerated group in coset-definition order, so the vertex numbers in a
Kuratowski witness are read through the element list that the `enumerate`
job on the same input printed (and that its own check verified).
"""

from __future__ import annotations

import itertools
import json
import re
from functools import lru_cache

from workloads import Group, Job

# -- finite group models -----------------------------------------------------


class Model:
    """A finite group with named generators and right multiplication."""

    def __init__(self, group: Group):
        gens = group.generators()
        if group.kind in ("dihedral", "cn2"):
            n = group.n
            self.identity = (0, 0)
            sign = -1 if group.kind == "dihedral" else 1
            self.mul = lambda x, y: ((x[0] + (sign if x[1] else 1) * y[0]) % n,
                                     x[1] ^ y[1])
            self.gen = {gens[0]: (1, 0), gens[1]: (0, 1)}
        else:
            k, r = _triangle_generators(group.n)
            self.identity = tuple(range(5))
            self.mul = lambda x, y: tuple(y[i] for i in x)
            self.gen = {"k": k, "r": r}

    def inverse(self, x):
        y = x
        while True:
            z = self.mul(y, x)
            if z == self.identity:
                return y
            y = z

    def elements(self) -> set:
        """All elements: the closure of the generators under products."""
        seen = {self.identity}
        stack = [self.identity]
        while stack:
            x = stack.pop()
            for g in self.gen.values():
                y = self.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def evaluate(self, name: str):
        """Evaluate an element name such as "a^-1*b" or "(k*r)^2"."""
        tokens = re.findall(r"[A-Za-z]\w*|-?\d+|[()*^]", name)
        pos = 0

        def expr():
            nonlocal pos
            acc = term()
            while pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                acc = self.mul(acc, term())
            return acc

        def term():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                val = expr()
                if tokens[pos] != ")":
                    raise ValueError(f"unbalanced name {name!r}")
                pos += 1
            elif tok in ("e", "1"):
                val = self.identity
            else:
                val = self.gen[tok]
            if pos < len(tokens) and tokens[pos] == "^":
                exp = int(tokens[pos + 1])
                pos += 2
                base = val if exp > 0 else self.inverse(val)
                val = self.identity
                for _ in range(abs(exp)):
                    val = self.mul(val, base)
            return val

        val = expr()
        if pos != len(tokens):
            raise ValueError(f"trailing tokens in name {name!r}")
        return val


@lru_cache(maxsize=None)
def _triangle_generators(m: int):
    """Permutations k, r of five points with k^2 = r^3 = (kr)^m = 1 that
    generate a group of the triangle group's order (12, 24 or 60)."""
    want = {3: 12, 4: 24, 5: 60}[m]
    ident = tuple(range(5))
    mul = lambda x, y: tuple(y[i] for i in x)

    def order(x):
        n, y = 1, x
        while y != ident:
            y, n = mul(y, x), n + 1
        return n

    perms = list(itertools.permutations(range(5)))
    for k in (p for p in perms if order(p) == 2):
        for r in (p for p in perms if order(p) == 3):
            if order(mul(k, r)) != m:
                continue
            seen, stack = {ident}, [ident]
            while stack:
                x = stack.pop()
                for g in (k, r):
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == want:
                return k, r
    raise AssertionError(f"no (2,3,{m}) generators in S5")


def cayley_counts(group: Group) -> tuple[int, int]:
    """Vertices and edges of the Cayley graph on the presentation's two
    generators (an involution is one undirected edge per vertex pair)."""
    v = group.order
    return v, v + v // 2


def face_vector(group: Group) -> dict[int, int]:
    """Faces of the planar Cayley graph on the presentation's generators:
    the n-prism for D_n and C_n x C_2, and for the (2,3,m) triangle group
    |G|/3 triangles and |G|/m faces (kr)^m of length 2m."""
    if group.kind in ("dihedral", "cn2"):
        return {4: group.n + 2} if group.n == 4 else {4: group.n, group.n: 2}
    m = group.n
    return {3: group.order // 3, 2 * m: group.order // m}


# -- checks ------------------------------------------------------------------


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def verify(jobs: list[Job], outcomes) -> list[str | None]:
    """Check each job's outcome (with `.code` and `.stdout`)."""
    elements = {}
    for job, out in zip(jobs, outcomes):
        if job.argv[0] == "enumerate" and out.code == 0:
            try:
                elements[job.grp_text()] = json.loads(out.stdout)["elements"]
            except (ValueError, KeyError):
                pass
    return [check(job, out.code, out.stdout, elements.get(job.grp_text()))
            for job, out in zip(jobs, outcomes)]


def check(job: Job, code: int, stdout: str,
          elements: list[str] | None = None) -> str | None:
    """None if the job's exit code and stdout are right, else why not.
    `elements` is the enumerated element list of the job's input, in
    pcl's vertex order; witness checks need it."""
    try:
        _CHECKS[_kind(job)](job, code, stdout, elements)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def _kind(job: Job) -> str:
    if job.argv[0] == "lib":
        return "sepcycle"
    if job.argv[0] == "corpus":
        return "corpus-json" if "--json" in job.argv else "corpus-case"
    if job.argv[0] == "embed":
        return "search" if "--search-consistent" in job.argv else "witness"
    return job.argv[0]


def _json(code: int, stdout: str, want_code: int = 0) -> dict:
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    return json.loads(stdout)


def _elements(model: Model, names: list[str]) -> list:
    elts = [model.evaluate(nm) for nm in names]
    expect(len(set(elts)) == len(elts), "element names are not distinct")
    return elts


def _check_enumerate(job, code, stdout, _):
    data = _json(code, stdout)
    model = Model(job.group)
    expect(data["order"] == job.group.order,
           f"order {data['order']} != {job.group.order}")
    expect(data["generators"] == list(job.group.generators()), "generators")
    expect(data["name"] == job.group.label, "group name")
    elts = _elements(model, data["elements"])
    expect(elts[0] == model.identity, "element 0 is not the identity")
    expect(set(elts) == model.elements(), "elements do not cover the group")


def _check_orient(job, code, stdout, _):
    data = _json(code, stdout)["orientation"]
    model = Model(job.group)
    elts = _elements(model, list(data))
    expect(set(elts) == model.elements(), "orientation misses elements")
    for name, x in zip(data, elts):
        # in C_n x C_2 exactly the elements with odd b-exponent reverse
        # the prism; D_n and the triangle groups act by rotations
        want = ("reversing" if job.group.kind == "cn2" and x[1] == 1
                else "preserving")
        expect(data[name] == want, f"{name} is {data[name]}, expected {want}")


def _check_covariant(job, code, stdout, _):
    expect(_json(code, stdout) == {"covariant": True, "schema": "pcl/1"},
           "embedding is not covariant")


def _check_cutspace(job, code, stdout, _):
    data = _json(code, stdout)
    rank = job.group.order - 1
    expect((data["rank"], data["expected"], data["ok"]) == (rank, rank, True),
           f"cut-space rank {data['rank']} != V-1 = {rank}")


def _check_witness(job, code, stdout, elements):
    data = _json(code, stdout, want_code=1)
    expect(data["planar"] is False, "graph reported planar")
    expect(elements is not None, "no enumerate job on the same input")
    model = Model(job.group)
    elts = _elements(model, elements)
    index = {x: i for i, x in enumerate(elts)}
    gens = [model.evaluate(s) for s in _option(job, "--gens").split(",")]
    adj = {i: set() for i in range(len(elts))}
    for i, x in enumerate(elts):
        for g in gens:
            j = index[model.mul(x, g)]
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    w = data["witness"]
    expect(verify_witness(adj, w["kind"], w["branch_vertices"], w["paths"]),
           f"{w['kind']} witness does not check")


def verify_witness(adj: dict[int, set[int]], kind: str,
                   branch: list[int], paths: list[list[int]]) -> bool:
    """The paths exist in the graph, are internally disjoint and avoid the
    branch vertices inside, and contract to exactly K5 or K3,3."""
    bset = set(branch)
    used: set[int] = set()
    pairs = set()
    for p in paths:
        if len(p) < 2 or p[0] not in bset or p[-1] not in bset or p[0] == p[-1]:
            return False
        if any(b not in adj.get(a, ()) for a, b in zip(p, p[1:])):
            return False
        inner = p[1:-1]
        if len(set(inner)) != len(inner) or set(inner) & (bset | used):
            return False
        used.update(inner)
        pair = frozenset((p[0], p[-1]))
        if pair in pairs:
            return False
        pairs.add(pair)
    if kind == "K5":
        return len(bset) == 5 and len(pairs) == 10
    if kind != "K3,3" or len(bset) != 6 or len(pairs) != 9:
        return False
    # complete bipartite 3+3: the non-edges are exactly two disjoint triangles
    side = {branch[0]} | {b for b in bset
                          if frozenset((branch[0], b)) not in pairs}
    other = bset - side
    return (len(side) == 3 and all(frozenset((x, y)) in pairs
                                   for x in side for y in other))


def _check_search(job, code, stdout, _):
    data = _json(code, stdout)
    v, e = cayley_counts(job.group)
    want = face_vector(job.group)
    fvs = data["face_vectors"]
    expect(data["consistent_embeddings"] == len(fvs) >= 1,
           "no consistent embedding")
    for fv in fvs:
        fv = {int(k): c for k, c in fv.items()}
        expect(sum(k * c for k, c in fv.items()) == 2 * e, "faces miss darts")
        expect(v - e + sum(fv.values()) == 2, "embedding is not genus 0")
        expect(fv == want, f"face vector {fv} != {want}")


def _check_contract(job, code, stdout, _):
    data = _json(code, stdout)
    n = job.group.n
    by = _option(job, "--by")
    k = n if by == "a" else 2
    domain = data["fundamental_domain"]
    expect(len(data["vertices"]) == k, f"quotient has {len(data['vertices'])} "
           f"vertices, expected {k}")
    expect(len(set(domain)) == len(domain) == 2 * n // k, "fundamental domain")
    # 3n edges minus the k translates of each of the |D| - 1 tree edges
    want = 3 * n - (2 * n // k - 1) * k
    expect(len(data["edges"]) == want,
           f"quotient has {len(data['edges'])} edges, expected {want}")


def _check_augment(job, code, stdout, _):
    data = _json(code, stdout)
    v, e = cayley_counts(job.group)
    # every face (all of length >= 3) gets a ring of |face| new vertices
    # and 2|face| new edges; face lengths sum to 2E
    expect(len(data["vertices"]) == v + 2 * e, "augmented vertex count")
    expect(len(data["edges"]) == 5 * e, "augmented edge count")
    expect(data["genus"] == 0, "augmented embedding is not planar")
    expect(data["connectivity"] >= 3, "augmented graph is not 3-connected")


CORPUS_FACTS = {
    ("a4-truncated-tetrahedron", "face-vector"): {"3": 4, "6": 4},
    ("cutspace", "a4-rank"): 11,
    ("cutspace", "prism-rank"): 7,
    ("cutspace", "k44-rank"): 7,
    ("ends", "a4-class"): "0",
    ("ends", "z-cross-z-class"): "1",
    ("ends", "z-class"): "2",
    ("ends", "z-cross-z3-class"): "2",
    ("ends", "free-2-class"): "cantor",
    ("ends", "amalgam-class"): "cantor",
    ("k44", "witness-kind"): "K3,3",
}


CORPUS_CASES = ("a4-truncated-tetrahedron", "amalgam-ball", "cutspace",
                "ends", "k44", "prism")


def _check_corpus_json(job, code, stdout, _):
    data = _json(code, stdout)
    expect(data["pass"] is True, "corpus failed")
    expect(sorted(c["case"] for c in data["cases"]) == sorted(CORPUS_CASES),
           "corpus case list")
    seen = set()
    for case in data["cases"]:
        expect(case["pass"] and all(c["ok"] for c in case["claims"]),
               f"case {case['case']} failed")
        for claim in case["claims"]:
            fact = CORPUS_FACTS.get((case["case"], claim["name"]))
            if fact is not None:
                expect(claim["actual"] == fact, f"{claim['name']} is "
                       f"{claim['actual']}, expected {fact}")
                seen.add((case["case"], claim["name"]))
    expect(seen == set(CORPUS_FACTS), "corpus claims missing")


def _check_corpus_case(job, code, stdout, _):
    case = _option(job, "--case")
    expect(code == 0 and stdout == f"PASS  {case}\n", f"case {case} failed")


# -- balls of the infinite families -----------------------------------------


def _option(job: Job, flag: str, default=None):
    return job.argv[job.argv.index(flag) + 1] if flag in job.argv else default


def _family(job: Job) -> str:
    return "amalgam" if "--amalgam" in job.argv else _option(job, "--family")


def ball_normal_forms(family: str, radius: int, n: int = 0) -> dict:
    """Vertex -> distance for the radius-R ball of Z^2 or C_n x Z, by
    brute force over the (x, y) / (z, c) normal forms."""
    if family == "z-cross-z":
        return {(x, y): abs(x) + abs(y)
                for x in range(-radius, radius + 1)
                for y in range(-radius, radius + 1)
                if abs(x) + abs(y) <= radius}
    return {(z, c): abs(z) + min(c, n - c)
            for z in range(-radius, radius + 1) for c in range(n)
            if abs(z) + min(c, n - c) <= radius}


def _grid_edges(family: str, verts: dict, n: int) -> list[tuple]:
    out = []
    for (p, q) in verts:
        if family == "z-cross-z":
            steps = {"x": (p + 1, q), "y": (p, q + 1)}
        else:
            steps = {"z": (p + 1, q), "r": (p, (q + 1) % n)}
        for label, w in steps.items():
            if w in verts:
                out.append(((p, q), w, label))
    return out


def _free_word(name: str) -> list[tuple[str, int]]:
    letters = [] if name == "e" else [(m[0], -1 if m[1] else 1)
                                      for m in re.findall(r"([ab])(')?", name)]
    expect("".join(l + ("'" if s < 0 else "") for l, s in letters)
           == ("" if name == "e" else name), f"bad free-group name {name!r}")
    expect(all(a[0] != b[0] or a[1] == b[1] for a, b in zip(letters, letters[1:])),
           f"free-group name {name!r} is not reduced")
    return letters


def _ball_shape(job: Job) -> tuple[int, int] | None:
    """(V, E) of the ball from closed forms, or None for the amalgam."""
    family, radius = _family(job), int(_option(job, "--ball"))
    if family == "free":
        v = 2 * 3 ** radius - 1
        return v, v - 1
    if family == "amalgam":
        return None
    n = int(_option(job, "-n", 0))
    verts = ball_normal_forms(family, radius, n)
    if family == "z-cross-z":
        expect(len(verts) == 2 * radius ** 2 + 2 * radius + 1, "Z^2 ball size")
    return len(verts), len(_grid_edges(family, verts, n))


def _check_build(job, code, stdout, _):
    data = _json(code, stdout)
    family, radius = _family(job), int(_option(job, "--ball"))
    verts, edges = data["vertices"], data["edges"]
    expect([v["id"] for v in verts] == list(range(len(verts))), "vertex ids")
    expect(data["radius"] == radius, "radius")
    degree = [0] * len(verts)
    for e in edges:
        degree[e["tail"]] += 1
        degree[e["head"]] += 1
    interior = sorted({degree[v["id"]] for v in verts if not v["frontier"]})
    expect(data["interior_degrees"] == interior, "interior degrees disagree "
           "with the edge list")
    expect(interior == ([5] if family == "amalgam" else [4]),
           f"interior degrees {interior}")
    shape = _ball_shape(job)
    if shape is not None:
        expect((len(verts), len(edges)) == shape,
               f"ball has {(len(verts), len(edges))}, expected {shape}")
    if family == "free":
        words = {v["name"]: _free_word(v["name"]) for v in verts}
        expect(all(v["frontier"] == (len(words[v["name"]]) == radius)
                   for v in verts), "frontier flags")
        for e in edges:
            tail = words[verts[e["tail"]]["name"]]
            head = words[verts[e["head"]]["name"]]
            step = (e["label"], 1)
            want = tail[:-1] if tail and tail[-1] == (e["label"], -1) else tail + [step]
            expect(head == want, "edge does not follow its label")
    elif family != "amalgam":
        n = int(_option(job, "-n", 0))
        forms = ball_normal_forms(family, radius, n)
        keys = [tuple(int(t) for t in v["name"].strip("()").split(","))
                for v in verts]
        expect(set(keys) == set(forms), "ball vertex names")
        expect(all(v["frontier"] == (forms[k] == radius)
                   for v, k in zip(verts, keys)), "frontier flags")
        want = sorted((a, b, lab) for a, b, lab in _grid_edges(family, forms, n))
        got = sorted((keys[e["tail"]], keys[e["head"]], e["label"]) for e in edges)
        expect(got == want, "ball edges")


def _check_faces(job, code, stdout, _):
    data = _json(code, stdout)
    if job.group is not None:
        v, e = cayley_counts(job.group)
        fv = {int(k): c for k, c in data["face_vector"].items()}
        expect(fv == face_vector(job.group),
               f"face vector {fv} != {face_vector(job.group)}")
        expect(data["genus"] == 0 and data["planar"] is True
               and v - e + sum(fv.values()) == 2, "embedding is not genus 0")
        return
    faces = data["finite_faces"] + data["frontier_touching_faces"]
    shape = _ball_shape(job)
    if shape is None:
        expect(faces >= 1, "no faces")
    else:
        v, e = shape
        expect(faces == e - v + 2, f"{faces} faces, Euler needs {e - v + 2}")
    if _family(job) == "free":
        expect(data["max_finite_face_length"] == 0, "a tree has no finite face")


ENDS_CLASS = {"free": "cantor", "z-cross-z": "1", "cn-cross-z": "2",
              "z-cross-z3": "2", "z": "2", "amalgam": "cantor"}


def _check_ends(job, code, stdout, _):
    data = _json(code, stdout)
    family = _option(job, "--family")
    r, big_r = int(_option(job, "-r")), int(_option(job, "-R"))
    expect(data["class"] == ENDS_CLASS[family],
           f"{family} has {data['class']} ends, expected {ENDS_CLASS[family]}")
    expect((data["r"], data["R"], data["stabilized"], data["certified"])
           == (r, big_r, True, True), "ends report fields")
    if family == "free":  # one component per vertex at distance r + 1
        want = {str(big_r - 1): 4 * 3 ** r, str(big_r): 4 * 3 ** r}
        expect(data["component_counts"] == want, "free-group annulus components")


def _check_sepcycle(job, code, stdout, _):
    data = _json(code, stdout)
    ends = [tuple(e) for e in data["edges"]]
    faces = data["faces"]
    nd = 2 * len(ends)
    tail = [ends[d // 2][d % 2] for d in range(nd)]
    head = [ends[d // 2][1 - d % 2] for d in range(nd)]
    expect(sorted(d for f in faces for d in f) == list(range(nd)),
           "faces do not partition the darts")
    for f in faces:
        expect(all(head[a] == tail[b] for a, b in zip(f, f[1:] + f[:1])),
               "a face is not a closed walk")
    expect(data["vertices"] - len(ends) + len(faces) == 2,
           "embedding is not genus 0")
    face_of = {d: i for i, f in enumerate(faces) for d in f}
    pairs = [(t[0], t[1]) for t in data["trials"]]
    expect(pairs == list(itertools.combinations(range(len(faces)), 2)),
           "not every face pair was tried")
    for f1, f2, cycle, parity, flood in data["trials"]:
        expect(parity == flood == 1, f"faces {f1},{f2}: parities {parity},{flood}")
        expect(_is_cycle([ends[e] for e in cycle]), f"faces {f1},{f2}: not a cycle")
        cut = set(cycle)
        reach, stack = {f1}, [f1]
        while stack:
            f = stack.pop()
            for d in faces[f]:
                g = face_of[d ^ 1]
                if d // 2 not in cut and g not in reach:
                    reach.add(g)
                    stack.append(g)
        expect(f2 not in reach, f"cycle does not separate faces {f1},{f2}")


def _is_cycle(edges: list[tuple[int, int]]) -> bool:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not edges or any(len(n) != 2 for n in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


_CHECKS = {
    "enumerate": _check_enumerate, "orient": _check_orient,
    "covariant": _check_covariant, "cutspace": _check_cutspace,
    "witness": _check_witness, "search": _check_search,
    "contract": _check_contract, "augment": _check_augment,
    "corpus-json": _check_corpus_json, "corpus-case": _check_corpus_case,
    "build": _check_build, "faces": _check_faces, "ends": _check_ends,
    "sepcycle": _check_sepcycle,
}
