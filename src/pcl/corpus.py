"""Bundled verification corpus: the concrete finite cases of the paper's
worked examples, each re-checked from scratch on demand.

Every case returns a deterministic report dict listing individual claims
with expected and actual values; a case passes iff all claims hold.
"""

from __future__ import annotations

from .augment import cayley_connectivity
from .cayley import build_ball, build_cayley, interior_degrees, \
    InfiniteFamilySpec
from .covariance import (ORIENTATION_CLASS, is_covariant,
                         orientation_character, orientation_table,
                         whitney_unique)
from .cyclecut import star_generation_check
from .embedding import KuratowskiWitness, planarity_test, verify_witness
from .ends import classify_ends
from .families import bundled_amalgam
from .groups import a4_model, z4xz2_model


def _jsonable(value):
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): v for k, v in sorted(value.items())}
    return value


def _claim(claims: list, name: str, expected, actual) -> None:
    claims.append({
        "name": name,
        "expected": _jsonable(expected),
        "actual": _jsonable(actual),
        "ok": expected == actual,
    })


def _report(case: str, claims: list) -> dict:
    return {
        "schema": "pcl/1",
        "case": case,
        "claims": claims,
        "pass": all(c["ok"] for c in claims),
    }


def case_a4_truncated_tetrahedron() -> dict:
    claims: list = []
    g = a4_model()
    _claim(claims, "group-order", 12, g.order)
    cg = build_cayley(g, ["k", "r"])
    _claim(claims, "vertices", 12, cg.n_vertices)
    _claim(claims, "edges", 18, cg.n_edges)
    emb = planarity_test(cg)
    _claim(claims, "planar", True, not isinstance(emb, KuratowskiWitness))
    _claim(claims, "connectivity", 3, cayley_connectivity(cg))
    emb = whitney_unique(cg)
    _claim(claims, "face-vector", {3: 4, 6: 4}, emb.face_vector())
    _claim(claims, "covariant", True, is_covariant(cg, emb) is True)
    chi = orientation_character(cg)
    _claim(claims, "all-preserving", True, all(c == 1 for c in chi))
    return _report("a4-truncated-tetrahedron", claims)


def case_prism() -> dict:
    claims: list = []
    g = z4xz2_model()
    cg = build_cayley(g, ["(1,0)", "(0,1)"])
    _claim(claims, "vertices", 8, cg.n_vertices)
    _claim(claims, "edges", 12, cg.n_edges)
    emb = whitney_unique(cg)
    _claim(claims, "faces", 6, len(emb.sizes))
    _claim(claims, "connectivity", 3, cayley_connectivity(cg))
    chi = orientation_character(cg)
    _claim(claims, "(0,1)-reversing", "reversing",
           ORIENTATION_CLASS[chi[g.element("(0,1)")]])
    _claim(claims, "(2,0)-preserving", "preserving",
           ORIENTATION_CLASS[chi[g.element("(2,0)")]])
    # on every pair of elements, not only the generator edges chi checks
    hom_ok = all(chi[g.mul(x, y)] == chi[x] * chi[y]
                 for x in range(g.order) for y in range(g.order))
    _claim(claims, "orientation-homomorphism", True, hom_ok)
    return _report("prism", claims)


def case_k44() -> dict:
    claims: list = []
    g = z4xz2_model()
    cg = build_cayley(g, ["(1,0)", "(1,1)"])
    result = planarity_test(cg)
    nonplanar = isinstance(result, KuratowskiWitness)
    _claim(claims, "non-planar", True, nonplanar)
    if nonplanar:
        _claim(claims, "witness-kind", "K3,3", result.kind)
        _claim(claims, "witness-verified", True, verify_witness(cg, result))
    return _report("k44", claims)


def case_amalgam_ball() -> dict:
    claims: list = []
    amalgam = bundled_amalgam()
    ball = build_ball(InfiniteFamilySpec("amalgam", amalgam), 3)
    result = planarity_test(ball)
    _claim(claims, "ball-planar", True,
           not isinstance(result, KuratowskiWitness))
    _claim(claims, "interior-degree", {5}, interior_degrees(ball))
    # the obstruction conjunction: one factor all-preserving, the other
    # containing a reversing generator
    table_a = orientation_table(build_cayley(amalgam["a"], amalgam["gens_a"]))
    _claim(claims, "factor-a-all-preserving", True,
           all(v == "preserving" for v in table_a.values()))
    table_b = orientation_table(build_cayley(amalgam["b"], amalgam["gens_b"]))
    _claim(claims, "factor-b-(0,1)-reversing", "reversing", table_b["(0,1)"])
    return _report("amalgam-ball", claims)


def case_ends() -> dict:
    claims: list = []
    cases = [
        ("a4", a4_model(), 2, 5, "0"),
        ("z-cross-z", InfiniteFamilySpec("z-cross-z"), 2, 6, "1"),
        ("z", InfiniteFamilySpec("z"), 2, 5, "2"),
        ("z-cross-z3", InfiniteFamilySpec("z-cross-z3"), 2, 6, "2"),
        ("free-2", InfiniteFamilySpec("free"), 1, 4, "cantor"),
        ("amalgam", InfiniteFamilySpec("amalgam"), 1, 3, "cantor"),
    ]
    for name, spec, r, R, expected in cases:
        report = classify_ends(spec, r, R)
        _claim(claims, f"{name}-class", expected, report.ends_class)
        _claim(claims, f"{name}-stabilized", True, report.stabilized)
    return _report("ends", claims)


def case_cutspace() -> dict:
    claims: list = []
    graphs = [
        ("a4", build_cayley(a4_model(), ["k", "r"])),
        ("prism", build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])),
        ("k44", build_cayley(z4xz2_model(), ["(1,0)", "(1,1)"])),
    ]
    for name, cg in graphs:
        rep = star_generation_check(cg)
        _claim(claims, f"{name}-rank", rep.expected, rep.rank)
    return _report("cutspace", claims)


CASES = {
    "a4-truncated-tetrahedron": case_a4_truncated_tetrahedron,
    "prism": case_prism,
    "k44": case_k44,
    "amalgam-ball": case_amalgam_ball,
    "ends": case_ends,
    "cutspace": case_cutspace,
}


def verify(case: str | None = None) -> dict:
    """Run one named case or, with case=None, the whole suite."""
    if case is not None:
        if case not in CASES:
            raise KeyError(f"unknown corpus case {case!r}")
        return CASES[case]()
    reports = [CASES[name]() for name in sorted(CASES)]
    return {
        "cases": reports,
        "pass": all(r["pass"] for r in reports),
    }
