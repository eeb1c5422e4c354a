import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

import pcl
from pcl import cli
from pcl.cayley import (InfiniteFamilySpec, build_ball, build_cayley,
                        interior_degrees)
from pcl.cli import _echo_json, _load_group, main
from pcl.covariance import is_covariant, whitney_unique
from pcl.embedding import cayley_map
from pcl.families import FAMILIES
from pcl.graph import MultiGraph
from pcl.groups import a4_model, z4xz2_model
from util import grp_resource


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_parse_bundled_file(tmp_path):
    f = tmp_path / "a4.grp"
    f.write_text(grp_resource("a4.grp"))
    res = run("parse", str(f))
    assert res.exit_code == 0
    assert "gens: k r;" in res.output


def test_parse_error_is_usage_error(tmp_path):
    f = tmp_path / "bad.grp"
    f.write_text("group G { gens: a; rels: b^2; }")
    res = run("parse", str(f))
    assert res.exit_code == 2


@pytest.mark.parametrize("command", ["parse", "enumerate"])
def test_huge_exponent_is_usage_error(tmp_path, command):
    f = tmp_path / "huge.grp"
    f.write_text("group G { gens: a; rels: a^2000000; }")
    res = run(command, str(f))
    assert res.exit_code == 2
    assert "word longer than 1000000 letters (line 1, column 28)" in res.output


def test_enumerate(tmp_path):
    f = tmp_path / "a4.grp"
    f.write_text(grp_resource("a4.grp"))
    res = run("enumerate", str(f))
    assert res.exit_code == 0
    assert json.loads(res.output)["order"] == 12


def test_enumerate_reads_a_file_named_like_a_builtin(tmp_path, monkeypatch):
    """FILE is always read as a presentation, even where its name is also
    a builtin group's."""
    (tmp_path / "a4").write_text("group Z3 { gens: a; rels: a^3; }")
    monkeypatch.chdir(tmp_path)
    res = run("enumerate", "a4")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert (data["name"], data["order"]) == ("Z3", 3)


def test_build_builtin_prism():
    res = run("build", "z4xz2", "--gens", "(1,0),(0,1)")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 12


def test_build_family_ball():
    res = run("build", "--family", "z-cross-z", "--ball", "2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["vertices"]) == 13
    assert data["interior_degrees"] == [4]


def test_build_amalgam_ball():
    res = run("build", "--amalgam", "--ball", "3")
    assert res.exit_code == 0
    assert json.loads(res.output)["interior_degrees"] == [5]
    assert run("build", "--family", "amalgam", "--ball", "3").output \
        == res.output


@pytest.mark.parametrize("command", ["build", "faces"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_ball_every_tag(command, family):
    assert run(command, "--family", family, "--ball", "2").exit_code == 0


def test_build_renders(tmp_path):
    dot = tmp_path / "g.dot"
    svg = tmp_path / "g.svg"
    res = run("build", "a4", "--dot", str(dot), "--svg", str(svg))
    assert res.exit_code == 0
    assert dot.read_text().startswith("digraph")
    assert svg.read_text().startswith("<svg")


def test_embed_nonplanar_exit_code():
    res = run("embed", "z4xz2", "--gens", "(1,0),(1,1)")
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["planar"] is False
    assert data["witness"]["kind"] == "K3,3"


def test_embed_search_consistent():
    res = run("embed", "a4", "--search-consistent")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["consistent_embeddings"] >= 1
    assert all(fv == {"3": 4, "6": 4} for fv in data["face_vectors"])


def test_embed_planar_rotation():
    res = run("embed", "z4xz2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["planar"] is True and data["genus"] == 0
    assert len(data["rotation"]) == 8 and len(data["faces"]) == 6


def test_faces_and_covariant_nonplanar_exit_1():
    res = run("faces", "z4xz2", "--gens", "(1,0),(1,1)")
    assert res.exit_code == 1
    assert json.loads(res.output) == {"planar": False, "schema": "pcl/1"}
    res = run("covariant", "z4xz2", "--gens", "(1,0),(1,1)")
    assert res.exit_code == 1
    assert json.loads(res.output) == {"covariant": False, "schema": "pcl/1",
                                      "reason": "non-planar (K3,3)"}


def test_faces_orient_connectivity_cutspace():
    assert json.loads(run("faces", "a4").output)["face_vector"] == \
        {"3": 4, "6": 4}
    table = json.loads(run("orient", "z4xz2").output)["orientation"]
    assert table["(0,1)"] == "reversing"
    assert json.loads(run("connectivity", "a4").output)["connectivity"] == 3
    assert json.loads(run("cutspace", "a4").output)["rank"] == 11



@pytest.mark.parametrize("group,multiset,generating_set", [
    ("a4", "k,k,r", "k,r"),
    ("z4xz2", "(1,0),(0,1),(0,1)", "(1,0),(0,1)"),
])
def test_orient_multiset_matches_its_set(group, multiset, generating_set):
    """Parallel edges leave the simple rotation, and so the orientation
    classes, as they are for the underlying set."""
    res = run("orient", group, "--gens", multiset)
    assert res.exit_code == 0
    assert res.output == run("orient", group, "--gens", generating_set).output


@pytest.mark.parametrize("group,multiset,count", [
    ("z4xz2", "(1,0),(0,1),(0,1)", 4),  # repeated reversing involution
    ("a4", "k,k,r", 0),  # repeated preserving involution
])
def test_search_consistent_repeated_involution(group, multiset, count):
    """Copies of a repeated generator are distinct labels."""
    res = run("embed", group, "--gens", multiset, "--search-consistent")
    assert res.exit_code == 0
    assert json.loads(res.output)["consistent_embeddings"] == count


def test_parse_repeated_generator_is_usage_error(tmp_path):
    """A multiset generating set is chosen with --gens, not in a .grp."""
    f = tmp_path / "dup.grp"
    f.write_text("group G { gens: a a; rels: a^2; }")
    res = run("parse", str(f))
    assert res.exit_code == 2
    assert "duplicate generator name 'a'" in res.output
    assert "Traceback" not in res.output


def _python(code: str) -> str:
    """stdout of `python -c code` in a fresh interpreter that imports pcl
    from this tree."""
    env = dict(os.environ)
    src = str(Path(pcl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, check=True, text=True, timeout=60).stdout


def test_cli_import_leaves_numpy_out(tmp_path):
    """pcl needs no numpy: not for the CLI import, a Kuratowski witness,
    nor the Tutte drawings of `build --svg`."""
    svg = str(tmp_path / "g.svg")
    commands = [["embed", "z4xz2", "--gens", "(1,0),(1,1)"],
                ["build", "a4", "--svg", svg],
                ["build", "--family", "z-cross-z", "--ball", "3", "--svg", svg]]
    out = _python(
        "import sys, pcl.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        f"for argv in {commands!r}:\n"
        "    try:\n"
        "        pcl.cli.main(argv, standalone_mode=False)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(loaded)")
    assert out.endswith("[False, False, False, False]\n")


def test_cli_import_and_ends_leave_networkx_out(tmp_path):
    """networkx is loaded by the connectivity flow only: not by the CLI
    import, `ends`, or any command that starts from a plane embedding or
    a Kuratowski witness, which load no numpy either."""
    f = _grp(tmp_path, "group P { gens: a b; rels: a^5, b^2, "
                       "a*b*a^-1*b^-1; }")
    commands = [["ends", "--family", "z-cross-z", "-r", "2", "-R", "6"],
                ["faces", f], ["embed", f], ["embed", f, "--gens", "a,a*b"],
                ["covariant", f], ["orient", f], ["cutspace", f],
                ["faces", "--amalgam", "--ball", "4"],
                ["corpus", "verify", "--case", "prism"],
                ["corpus", "verify", "--case", "k44"]]
    out = _python(
        "import sys, pcl.cli\n"
        "print('loaded: import', 'networkx' in sys.modules)\n"
        f"for argv in {commands!r}:\n"
        "    try:\n"
        "        pcl.cli.main(argv, standalone_mode=False)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    print('loaded:', argv, 'networkx' in sys.modules, "
        "'numpy' in sys.modules)")
    lines = [line for line in out.splitlines() if line.startswith("loaded:")]
    assert lines == ["loaded: import False"] + [
        f"loaded: {argv} False False" for argv in commands]


def test_augment_leaves_networkx_out(tmp_path):
    """The augmentation of a one-vertex-pair graph is read off without the
    flow, as is every other augmentation."""
    f = _grp(tmp_path, "group C2 { gens: a; rels: a^2; involutions: a; }")
    out = _python(
        "import sys, pcl.cli\n"
        "try:\n"
        f"    pcl.cli.main(['augment', {f!r}], standalone_mode=False)\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('networkx loaded:', 'networkx' in sys.modules)")
    assert '"connectivity": 1' in out
    assert out.endswith("networkx loaded: False\n")


# strings that look like the JSON text around them
_TRICKY = st.text(alphabet='{}[],:\n\t"\\ ae\u00e9\u2603', max_size=8)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    st.floats(), st.text(max_size=5), _TRICKY,
    st.sampled_from(["},\n", "},\n  {", "{", '"', "\\", "\n", "\t",
                     "\u00fc"]))
_KEYS = st.one_of(st.text(max_size=4), _TRICKY)
_FLAT_DICTS = st.lists(st.dictionaries(_KEYS, _SCALAR, min_size=1),
                       min_size=1, max_size=4)


def _json_values(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(
        lists, lists.map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(st.integers(-20, 20), children, max_size=4))


_JSON = st.recursive(st.one_of(_SCALAR, _FLAT_DICTS), _json_values,
                     max_leaves=25)


def written(members: dict, graph: MultiGraph | None = None) -> str:
    """What the writer prints of the members and the graph."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _echo_json(members, graph)
    return out.getvalue()


@given(_JSON)
@example({"a": {}, "b": [], "c": [[], {}], "d": [{}], "e": ()})
@example([{"x": "},\n    {"}, {"y": 1}])
@example({3: "c", 1: [1.5, None, True], 20: {-1: ()}})
@example({"big": 2**80, "neg": -7, "f": [1e300, -0.0, float("inf")]})
@example([({"a": 1},), [{"a": 1}, [2]], [{"a": 1}, {}]])
def test_indented_json_equals_json_dumps(data):
    """A member of any shape is printed as ``json.dumps`` nests it."""
    assert written({"value": data}) == json.dumps(
        {"schema": "pcl/1", "value": data}, sort_keys=True, indent=2) + "\n"


def test_echo_json_peak_at_most_2_5_times_the_text(monkeypatch):
    """Printing an ``enumerate``-shaped report of 4,000 names of up to 600
    characters allocates at most 2.5 bytes per printed character (3.0
    when the text was spliced from pieces)."""
    names = ["a^-1*" * (i % 120) + "b" for i in range(4000)]
    data = {"schema": "pcl/1", "name": "G", "order": len(names),
            "elements": names, "generators": ["a", "b"]}
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        _echo_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert peak <= 2.5 * len(text)


class _Counter:
    """A stdout that keeps only the number of characters written."""
    chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def test_build_of_a_ball_prints_it_in_at_most_half_its_text(monkeypatch):
    """Printing what ``build`` prints of the Z^2 ball of radius 60 (2.0 MB
    of text) allocates at most half as many bytes as the text has
    characters: the writer never holds the text, where a printer that
    builds it holds it at least twice."""
    ball = build_ball(InfiniteFamilySpec("z-cross-z"), 60)
    ball.vertex_names  # the names belong to the ball, not to its printing
    extra = {"interior_degrees": sorted(interior_degrees(ball))}
    out = _Counter()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        _echo_json(extra, ball)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.chars >= 10**6
    assert peak <= 0.5 * out.chars


def test_stdout_closed_by_the_reader_ends_with_exit_1_and_no_traceback(
        tmp_path):
    """A reader that closes the pipe after 50 bytes of a multi-megabyte
    ``enumerate``: the next write fails with EPIPE, which click's handler
    turns into exit 1 with nothing on stderr."""
    env = dict(os.environ)
    src = str(Path(pcl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pcl.cli", "enumerate",
         _grp(tmp_path, _PRISM.format(n=2000))],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def _graph(names, edges, frontier, radius) -> MultiGraph:
    g = MultiGraph()
    for name in names:
        g.add_vertex(name)
    for u, v, label, directed in edges:
        g.add_edge(u, v, label, directed)
    g.frontier = set(frontier)
    g.radius = radius
    return g


# names and labels holding the row templates' own characters, JSON
# escapes and non-ASCII letters
_GRAPH_TEXT = st.text(alphabet='%ds"\\\n\t {},:ab\u00e9\u03c3', max_size=5)


@st.composite
def _graphs(draw):
    names = draw(st.lists(_GRAPH_TEXT, unique=True, max_size=5))
    vertex = st.integers(0, max(len(names) - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex, _GRAPH_TEXT, st.booleans()),
                          max_size=8 if names else 0))
    frontier = draw(st.sets(vertex)) if names else set()
    radius = draw(st.one_of(st.none(), st.integers(0, 9),
                            st.just("complete")))
    return _graph(names, edges, frontier, radius)


# the keys that build (a ball's), contract and augment add
_GRAPH_EXTRA = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {"interior_degrees": st.lists(st.integers(0, 9), max_size=3)}),
    st.fixed_dictionaries(
        {"derived_generators": st.lists(_GRAPH_TEXT, max_size=3),
         "fundamental_domain": st.lists(st.integers(0, 9), max_size=3)}),
    st.fixed_dictionaries({"connectivity": st.integers(0, 5),
                           "genus": st.integers(0, 2)}),
    # nested values at the graph's top level, which no command passes yet
    st.fixed_dictionaries({
        "list_of_dicts": st.lists(st.dictionaries(_GRAPH_TEXT, _SCALAR,
                                                  max_size=3), max_size=3),
        "dict_of_lists": st.dictionaries(_GRAPH_TEXT, st.lists(_SCALAR,
                                                               max_size=3),
                                         max_size=3),
        "empty": st.sampled_from([[], {}, [[]], [{}], {"": []}])}))


def _dumped(g, extra):
    return json.dumps(g.to_json_dict() | extra, sort_keys=True, indent=2)


@given(_graphs(), _GRAPH_EXTRA)
@example(_graph([], [], (), None), {})
@example(_graph(["e"], [], (0,), 0), {"interior_degrees": []})
@example(_graph(["%s", "\u00e9\n"], [(0, 0, "%d", True), (0, 1, 'a"', False),
                                      (0, 1, 'a"', False), (1, 0, "", True)],
                (1,), "complete"),
         {"connectivity": 2, "genus": 0})
@example(_graph(["e"], [], (), 0),
         {"list_of_dicts": [{"a": [1, "\n"]}, {}], "dict_of_lists":
          {"b": [[], {"c": None}]}, "empty": [{}]})
def test_graph_json_equals_json_dumps(g, extra):
    assert written(extra, g) == _dumped(g, extra) + "\n"


@given(_JSON, _graphs(), _GRAPH_EXTRA)
@example([], _graph([], [], (), None), {})
@example({"a": [1, {"b": "\n"}]}, _graph(["e", "a"], [(0, 1, "a", True)],
                                         (1,), 1), {"genus": 0})
def test_writer_equals_json_dumps_across_batch_boundaries(data, g, extra):
    """Batches of 1, 2 and 3 chunks end inside every member, plain and
    graph rows alike, and the text is still ``json.dumps``'s."""
    members = extra | {"value": data}
    for batch in (1, 2, 3):
        with mock.patch.object(cli, "_BATCH", batch):
            assert written(members, g) == _dumped(g, members) + "\n"
            assert written(members) == json.dumps(
                members | {"schema": "pcl/1"}, sort_keys=True,
                indent=2) + "\n"


@pytest.mark.parametrize("args,check", [
    (("build", "--family", "free", "--rank", "3", "--ball", "0"),
     lambda data: len(data["vertices"]) == 1 and data["edges"] == []),
    (("build", "z4xz2", "--gens", "(1,0),(0,1),(0,0)"),
     lambda data: any(e["tail"] == e["head"] for e in data["edges"])),
    (("build", "{grp}"),
     lambda data: {e["label"] for e in data["edges"]} == {"\u00e9"}),
    (("contract", "a4", "--by", "e"),
     lambda data: data["derived_generators"] and data["fundamental_domain"]),
    (("augment", "z4xz2"),
     lambda data: data["connectivity"] == 3 and data["genus"] == 0),
])
def test_graph_commands_print_json_dumps_of_the_dict_form(
        tmp_path, monkeypatch, args, check):
    """On inputs outside the benchmark's: one vertex, loops, a non-ASCII
    generator, and each command's extra keys."""
    args = [_grp(tmp_path, "group E { gens: \u00e9; rels: \u00e9^3; }")
            if a == "{grp}" else a for a in args]
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert res.output.isascii() and check(json.loads(res.output))
    monkeypatch.setattr(cli, "_echo_json", lambda members, graph: print(
        _dumped(graph, members)))
    assert res.output == run(*args).output


def test_covariant():
    res = run("covariant", "a4")
    assert res.exit_code == 0
    assert json.loads(res.output)["covariant"] is True


def test_covariant_multigraph_prints_the_fallback_true_verdict():
    """Z4 x Z2 on (1,0), (0,1), (0,1) has no Cayley map, so ``covariant``
    prints ``is_covariant``'s true verdict on the Whitney embedding; the
    consistent search finds covariant embeddings there too."""
    gens = "(1,0),(0,1),(0,1)"
    res = run("covariant", "z4xz2", "--gens", gens)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {"schema": "pcl/1", "covariant": True}
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)", "(0,1)"])
    assert cayley_map(cg) is None
    assert is_covariant(cg, whitney_unique(cg)) is True
    res = run("embed", "z4xz2", "--gens", gens, "--search-consistent")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["consistent_embeddings"] == 4


def test_covariant_multigraph_prints_the_failing_generator_and_face():
    """A multigraph has no Cayley map, so ``covariant`` falls back to the
    Whitney embedding and prints ``is_covariant``'s counterexample.  The
    verdict is not pinned as right: A4 on k, r, r has covariant
    embeddings, which this canonical one is not."""
    res = run("covariant", "a4", "--gens", "k,r,r")
    assert res.exit_code == 1, res.output
    cg = build_cayley(a4_model(), ["k", "r", "r"])
    verdict = is_covariant(cg, whitney_unique(cg))
    assert verdict is not True
    assert json.loads(res.output) == {
        "schema": "pcl/1", "covariant": False,
        "generator": verdict.generator,
        "face_darts": list(verdict.face_darts)}


def test_contract():
    res = run("contract", "z4xz2", "--by", "(0,1)")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["vertices"]) == 2


def test_augment():
    res = run("augment", "a4")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["connectivity"] >= 3 and data["genus"] == 0


def test_ends():
    res = run("ends", "--family", "z-cross-z3", "-r", "2", "-R", "6")
    assert res.exit_code == 0
    assert json.loads(res.output)["class"] == "2"


def test_corpus_verify_all_and_case():
    res = run("corpus", "verify")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    res = run("corpus", "verify", "--case", "a4-truncated-tetrahedron")
    assert res.exit_code == 0


def test_corpus_verify_json_deterministic():
    a = run("corpus", "verify", "--json")
    b = run("corpus", "verify", "--json")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_usage_error_exit_2():
    assert run("build").exit_code == 2
    assert run("build", "no-such-group").exit_code == 2
    assert run("build", "a4", "--ball", "2").exit_code == 2
    assert run("faces", "--family", "free").exit_code == 2
    assert run("build", "--family", "nope", "--ball", "2").exit_code == 2


@pytest.mark.parametrize("args,error", [
    (("build", "z4xz2", "--gens", "(2,0)"), "NonGeneratingError"),
    (("orient", "z4xz2", "--gens", "(1,0),(1,1)"), "NonPlanarError"),
    (("augment", "z4xz2", "--gens", "(1,0),(1,1)"), "NonPlanarError"),
])
def test_domain_error_exit_3(args, error):
    res = run(*args)
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr)["error"] == error


def test_enumerate_infinite_group_exit_3(tmp_path):
    f = tmp_path / "zz.grp"
    f.write_text("group ZZ { gens: a b; rels: a*b*a^-1*b^-1; }")
    res = run("enumerate", str(f), "--max-cosets", "16")
    assert res.exit_code == 3 and res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "EnumerationBudgetError"
    assert "budget" in err["message"]


@pytest.mark.parametrize("family,r,R", [
    ("z-cross-z", "9", "10"), ("z-cross-z3", "9", "10"), ("amalgam", "1", "4")])
def test_ends_not_stabilized_exit_3(family, r, R):
    res = run("ends", "--family", family, "-r", r, "-R", R)
    assert res.exit_code == 3 and res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "EndsNotStabilizedError"
    assert f"r = {r}, R = {R}" in err["message"]


def test_ends_inner_radius_not_below_outer_is_usage_error():
    assert run("ends", "--family", "free", "-r", "5", "-R", "3").exit_code == 2
    assert run("ends", "--family", "free", "-r", "3", "-R", "3").exit_code == 2


def test_corpus_json_identical_under_python_O():
    """Runtime guarantees are never an assert: -O strips asserts and must
    leave the certified corpus output and a contraction unchanged."""
    env = dict(os.environ)
    src = str(Path(pcl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    for argv, check in (
            (["corpus", "verify", "--json"], lambda d: d["pass"] is True),
            (["contract", "a4", "--gens", "k,r,k*r", "--by", "r"],
             lambda d: len(d["vertices"]) == 3),
            (["orient", "z4xz2"],
             lambda d: d["orientation"]["(0,1)"] == "reversing"),
            (["embed", "a4", "--search-consistent"],
             lambda d: d["consistent_embeddings"] == 2)):
        plain, optimized = (
            subprocess.run([sys.executable, *flags, "-m", "pcl.cli", *argv],
                           env=env, capture_output=True, check=True,
                           timeout=300).stdout
            for flags in ([], ["-O"]))
        assert optimized == plain and check(json.loads(plain))


_DIHEDRAL = "group D{n} {{ gens: a b; rels: a^{n}, b^2, (a*b)^2; involutions: b; }}"
_CONTRACT_GOLDEN = json.loads(
    (Path(__file__).parent / "contract_golden.json").read_text())


@pytest.mark.parametrize("case", _CONTRACT_GOLDEN,
                         ids=lambda c: f"{c['group']}-{c['gens']}")
def test_contract_stdout_matches_golden(tmp_path, case):
    """sha256 of `contract` stdout for every --by element, recorded from
    the implementation that listed one permutation per group element."""
    group, gens = case["group"], case["gens"]
    if group.startswith("D"):
        group = _grp(tmp_path, _DIHEDRAL.format(n=int(group[1:])))
    got = {}
    for by in case["stdout_sha256"]:
        res = run("contract", group, "--by", by,
                  *(["--gens", gens] if gens else []))
        assert res.exit_code == 0, res.output
        got[by] = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert got == case["stdout_sha256"]


def test_contract_and_embed_with_repeated_generator():
    gens = "(1,0),(0,1),(0,1)"
    assert run("contract", "z4xz2", "--gens", gens, "--by", "(0,1)").exit_code == 0
    res = run("embed", "z4xz2", "--gens", gens, "--search-consistent")
    assert res.exit_code == 0
    assert json.loads(res.output)["face_vectors"] == [{"2": 4, "4": 6}] * 4


@pytest.mark.parametrize("args,symbol", [
    (("build", "a4", "--gens", "x"), "'x'"),
    (("contract", "a4", "--by", "zz"), "'zz'"),
])
def test_unknown_symbol_is_usage_error(args, symbol):
    res = run(*args)
    assert res.exit_code == 2
    assert symbol in res.output and "Traceback" not in res.output


def test_contract_by_any_word_of_a_presented_group(tmp_path):
    """--by takes any word of the group, not only its printed names: a^2*b
    and a*a*b contract D6 alike, and only the labels spell the text."""
    f = _grp(tmp_path, _DIHEDRAL.format(n=6))
    outs = [run("contract", f, "--by", by) for by in ("a^2*b", "a*a*b")]
    assert [res.exit_code for res in outs] == [0, 0]
    word, letters = (json.loads(res.stdout) for res in outs)
    assert word["fundamental_domain"] == letters["fundamental_domain"]
    assert ([{k: v for k, v in e.items() if k != "label"}
             for e in word["edges"]]
            == [{k: v for k, v in e.items() if k != "label"}
                for e in letters["edges"]])
    assert outs[0].stdout == outs[1].stdout.replace("a*a*b", "a^2*b")


_C6XC2 = "group P6 { gens: a b; rels: a^6, b^2, a*b*a^-1*b^-1; involutions: b; }"


@pytest.mark.parametrize("group, by", [
    *[("P6", by) for by in ("a", "b", "a*b", "a^2*b", "a*a*b", "(a*b)^2",
                            "a^-1")],
    *[("a4", by) for by in ("r", "k", "k*r", "r^-1", "(k*r)^2", "k*r*k")],
])
def test_contract_names_read_back_as_powers(tmp_path, group, by):
    """Quotient vertex i of `contract --by W` is named x^i, x = W, in a
    text that the group's ``element`` reads back as x^i: powers from the
    second print as (W)^k unless W is a generator symbol.  The derived
    generators are labelled with those names."""
    if group == "P6":
        group = _grp(tmp_path, _C6XC2)
    res = run("contract", group, "--by", by)
    assert res.exit_code == 0, res.output
    data = json.loads(res.stdout)
    model = _load_group(group, 100)
    x, power = model.element(by), model.identity
    names = [v["name"] for v in data["vertices"]]
    assert names[1:2] == [by] or names == ["e"]
    for name in names:
        assert model.element(name) == power, name
        power = model.mul(power, x)
    assert power == model.identity
    for label in data["derived_generators"]:
        assert (label if label in names else label.rpartition("#")[0]) in names


def test_names_are_rendered_only_by_commands_that_print_them(
        tmp_path, monkeypatch):
    """A presented group's element names are rendered from its tree only
    when read: `faces`, `embed`, `covariant`, `cutspace` and
    `connectivity` never read them, and `orient` does."""
    from pcl.groups import GroupModel
    rendered = []
    names = GroupModel.element_names

    def counted(self):
        rendered.append(self.name)
        return names.func(self)
    monkeypatch.setattr(GroupModel, "element_names", property(counted))
    f = _grp(tmp_path, "group P { gens: a b; rels: a^5, b^2, "
                       "a*b*a^-1*b^-1; involutions: b; }")
    for argv, code in [(["faces", f], 0), (["faces", f, "--gens", "a,a*b"], 1),
                       (["embed", f], 0), (["embed", f, "--gens", "a,a*b"], 1),
                       (["embed", f, "--search-consistent"], 0),
                       (["covariant", f], 0), (["cutspace", f], 0),
                       (["connectivity", f], 0),
                       (["connectivity", f, "--gens", "a,a^2,b"], 0)]:
        assert run(*argv).exit_code == code, argv
    assert rendered == []
    assert run("orient", f).exit_code == 0
    assert rendered == ["P"]


TRIVIAL = "group G { gens: a; rels: a; }"


def _grp(tmp_path, text):
    f = tmp_path / "g.grp"
    f.write_text(text)
    return str(f)


def test_embed_search_consistent_reads_off_c500xc2(tmp_path):
    f = _grp(tmp_path, "group P { gens: a b; rels: a^500, b^2, a*b*a^-1*b^-1; }")
    res = run("embed", f, "--search-consistent")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["consistent_embeddings"] == 2
    assert data["face_vectors"] == [{"4": 500, "500": 2}] * 2


@pytest.mark.parametrize("n", [5, 51])
def test_nonplanar_faces_and_svg_make_one_planarity_run(tmp_path, lr_runs, n):
    """``faces``, ``build --svg`` and ``embed --search-consistent`` print
    only the verdict, so they build no witness; ``faces`` and the search
    read it off the generator slots, and only ``build --svg`` runs the
    kernel once."""
    f = _grp(tmp_path, f"group P {{ gens: a b; rels: a^{n}, b^2, "
                       "a*b*a^-1*b^-1; }")
    res = run("faces", f, "--gens", "a,a*b")
    assert res.exit_code == 1
    assert json.loads(res.output) == {"planar": False, "schema": "pcl/1"}
    assert lr_runs == []
    res = run("build", f, "--gens", "a,a*b", "--svg", str(tmp_path / "g.svg"))
    assert res.exit_code == 2
    assert lr_runs == [2 * n]
    res = run("embed", f, "--gens", "a,a*b", "--search-consistent")
    assert res.exit_code == 0
    assert json.loads(res.output)["consistent_embeddings"] == 0
    assert lr_runs == [2 * n]


_PRISM = "group P {{ gens: a b; rels: a^{n}, b^2, a*b*a^-1*b^-1; }}"
_DIHEDRAL = "group D {{ gens: a b; rels: a^{n}, b^2, a*b*a*b; }}"
_TRIANGLE = "group T { gens: k r; rels: k^2, r^3, (k*r)^5; }"


@pytest.mark.parametrize("text", [_DIHEDRAL.format(n=7), _PRISM.format(n=6),
                                  _PRISM.format(n=9), "a4", _TRIANGLE])
def test_planar_cayley_commands_make_no_planarity_run(tmp_path, lr_runs,
                                                      text):
    """On a planar simple Cayley graph of degree >= 3, ``faces``,
    ``covariant``, ``orient`` and ``embed --search-consistent`` read the
    embedding off the generator slots."""
    group = text if text == "a4" else _grp(tmp_path, text)
    for argv in (["faces"], ["covariant"], ["orient"],
                 ["embed", "--search-consistent"]):
        res = run(argv[0], group, *argv[1:])
        assert res.exit_code == 0, (argv, res.output)
    assert lr_runs == []


@pytest.mark.parametrize("group,gens", [
    ("a4", "k,k,r"), ("a4", "k,r,e"),
    (_DIHEDRAL.format(n=6), "a,a^-1,b"),
    ("z4xz2", "(1,0),(0,1),(0,0)")])
def test_orient_on_planar_multisets_makes_no_planarity_run(tmp_path, lr_runs,
                                                           group, gens):
    """``orient`` reads the character off the simple part's generator
    slots, loops and parallel edges dropped."""
    if group not in ("a4", "z4xz2"):
        group = _grp(tmp_path, group)
    res = run("orient", group, "--gens", gens)
    assert res.exit_code == 0, res.output
    assert lr_runs == []


def test_embed_search_consistent_trivial_group(tmp_path):
    res = run("embed", _grp(tmp_path, TRIVIAL), "--search-consistent")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"consistent_embeddings": 1,
                                      "face_vectors": [{"1": 2}],
                                      "schema": "pcl/1"}


def test_search_budget_error_names_its_search_space(tmp_path):
    # a 24-cycle is not 3-connected, so it goes to the brute force
    res = run("embed", _grp(tmp_path, "group C { gens: a; rels: a^24; }"),
              "--search-consistent")
    assert res.exit_code == 3 and res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "SearchBudgetError"
    for part in ("(m-1)!*2^(V-1) = 1*2^23", "m = 2", "V = 24", "4194304"):
        assert part in err["message"]


@pytest.mark.parametrize("command", ["orient", "augment", "connectivity",
                                     "covariant"])
def test_trivial_group_too_few_vertices_exit_3(tmp_path, command):
    res = run(command, _grp(tmp_path, TRIVIAL))
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr)["error"] == "TooFewVerticesError"


_CYCLIC = "group C {{ gens: a; rels: a^{n}; }}"


@pytest.mark.parametrize("group,gens,augment,connectivity", [
    (TRIVIAL, "a", (3, None), (3, None)),
    (_CYCLIC.format(n=2), "a",
     (0, "ff0203d12f889f3f296ea3093a63c13bb3b3cbe69747ff2d66dd493056dfbe27"),
     (0, 1)),
    (_CYCLIC.format(n=3), "a",
     (0, "aa356e7ff6bef18110662f214a1c23f9ae6f1bfb8f707c360c2d6fa537a4da8d"),
     (0, 2)),
    (_CYCLIC.format(n=6), "a",
     (0, "5499d487663244cdaf0c178212d5ae7be9433eec96f62540ec43de810254cc5b"),
     (0, 2)),
    (_CYCLIC.format(n=6), "a,a^2,a^3", (3, None), (0, 5)),
    ("a4", "k,r",
     (0, "ea1c7325b8b5283cc2345ed2e185d74b337c6e622db0d0e5e6c30cbc53d22ce8"),
     (0, 3)),
    ("a4", "k,r,e",
     (0, "f051a27179ba667962a4d3c32b46c7ce601b1bac2825409fa75674cc961ffbee"),
     (0, 3)),
    ("a4", "k,k,r",
     (0, "d34e13d8e5b1e0894bbdba6f0edd9085a0ee21371db66344ad056a9105ec7de9"),
     (0, 3)),
    ("a4", "k,r,k*r",
     (0, "510575e7c06daecd80a1c6f68e1fd9236e7afb5372188d9ace6b038551a020d6"),
     (0, 5)),
])
def test_augment_and_connectivity_stdout_pinned(tmp_path, group, gens,
                                                augment, connectivity):
    """Exit code and stdout (sha256 for `augment`) recorded from the
    implementation that ran a max-flow for every connectivity number."""
    if group != "a4":
        group = _grp(tmp_path, group)
    res = run("augment", group, "--gens", gens)
    sha = (hashlib.sha256(res.stdout.encode()).hexdigest()
           if res.stdout else None)
    assert (res.exit_code, sha) == augment
    res = run("connectivity", group, "--gens", gens)
    value = json.loads(res.stdout)["connectivity"] if res.stdout else None
    assert (res.exit_code, value) == connectivity


@pytest.mark.parametrize("args,option", [
    (("build", "--family", "free", "--rank", "0", "--ball", "2"), "--rank"),
    (("ends", "--family", "cn-cross-z", "-n", "0", "-r", "1", "-R", "3"),
     "-n"),
    (("build", "--family", "free", "--ball", "-1"), "--ball"),
    (("ends", "--family", "free", "-r", "-1", "-R", "2"), "-r"),
    (("build", "a4", "--max-cosets", "0"), "--max-cosets"),
])
def test_out_of_range_option_is_usage_error(args, option):
    res = run(*args)
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("family", list(FAMILIES))
def test_radius_0_ball_has_one_frontier_face(tmp_path, family):
    """The one-vertex ball has one face, at its frontier vertex."""
    res = run("faces", "--family", family, "--ball", "0")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == {
        "finite_faces": 0, "frontier_touching_faces": 1,
        "max_finite_face_length": 0, "schema": "pcl/1"}
    svg = tmp_path / "b.svg"
    res = run("build", "--family", family, "--ball", "0", "--svg", str(svg))
    assert res.exit_code == 0, res.output
    assert svg.read_text().count("<circle") == 1
    assert "<line" not in svg.read_text()


def test_build_dot_dashes_frontier_vertices(tmp_path):
    dot = tmp_path / "b.dot"
    res = run("build", "--family", "z-cross-z", "--ball", "1",
              "--dot", str(dot))
    assert res.exit_code == 0
    frontier = [v["id"] for v in json.loads(res.output)["vertices"]
                if v["frontier"]]
    dashed = [line.split()[0] for line in dot.read_text().splitlines()
              if "style=dashed" in line]
    assert frontier == [1, 2, 3, 4] and dashed == [f"v{v}" for v in frontier]


def test_build_svg_of_ball_reads_rotation_off_group(tmp_path, lr_runs):
    """A Z^2 ball is drawn from ``ball_embedding``, without a left-right
    run."""
    svg = tmp_path / "b.svg"
    res = run("build", "--family", "z-cross-z", "--ball", "3",
              "--svg", str(svg))
    assert res.exit_code == 0, res.output
    assert svg.read_text().count("<circle") == 25
    assert lr_runs == []


# reports of the read-off that differ from planarity_test's, which depend
# on vertex numbering on these balls; with the default numbering it gives
# (34, 6, 5), (15, 4, 8) and (0, 8, 0)
@pytest.mark.parametrize("args, report", [
    (("--family", "z", "--steps", "1,2", "--ball", "10"), (34, 6, 4)),
    (("--family", "cn-cross-z", "-n", "2", "--ball", "10"), (16, 3, 4)),
    (("--amalgam", "--ball", "2"), (1, 7, 3)),
])
def test_ball_faces_pinned(args, report):
    res = run("faces", *args)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert (data["finite_faces"], data["frontier_touching_faces"],
            data["max_finite_face_length"]) == report


def test_build_svg_of_nonplanar_graph_is_usage_error(tmp_path):
    svg = tmp_path / "g.svg"
    res = run("build", "z4xz2", "--gens", "(1,0),(1,1)", "--svg", str(svg))
    assert res.exit_code == 2
    assert "SVG rendering needs a planar embedding" in res.output
    assert not svg.exists()


def test_enumerate_over_max_cosets_exit_3(tmp_path):
    res = run("enumerate", _grp(tmp_path, "group C { gens: a; rels: a^10; }"),
              "--max-cosets", "5")
    assert res.exit_code == 3 and res.stdout == ""
    assert json.loads(res.stderr) == {
        "error": "EnumerationBudgetError",
        "message": "group has more than 5 elements (10 cosets)"}


@pytest.mark.parametrize("command", ["parse", "faces", "orient"])
@pytest.mark.parametrize("text, message", [
    ("group G { gens: a; rels: a^²; }",
     "expected integer exponent (line 1, column 28)"),
    ("group G { gens: a; rels: a^0, a^3; }",
     "relator is the empty word (line 1, column 26)"),
    ("group G { gens: a a; rels: a^3; }",
     "duplicate generator name 'a' (line 1, column 19)"),
    ("group G { gens: a; rels: b^2; }",
     "undeclared generator 'b' in relator (line 1, column 26)"),
    ("group G { gens: a; rels: a^2; involutions: c; }",
     "undeclared involution 'c' (line 1, column 44)"),
    ("group G { gens: a; rels: a^2; involutions: a a; }",
     "duplicate involution 'a' (line 1, column 46)"),
])
def test_malformed_grp_is_positioned_usage_error(tmp_path, command, text,
                                                 message):
    res = run(command, _grp(tmp_path, text))
    assert res.exit_code == 2
    assert message in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ("build", "--family", "z", "--ball", "2"),
    ("ends", "--family", "z", "-r", "1", "-R", "3")])
@pytest.mark.parametrize("steps, gcd", [("0", 0), ("2,4", 2), ("3,-6", 3)])
def test_steps_that_do_not_generate_z_are_usage_error(args, steps, gcd):
    res = run(*args, "--steps", steps)
    assert res.exit_code == 2
    assert "Invalid value for '--steps'" in res.output
    assert f"do not generate Z (gcd is {gcd}, not 1)" in res.output


def test_cutspace_reports_full_rank():
    res = run("cutspace", "a4", "--gens", "k,r,r")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"expected": 11, "ok": True, "rank": 11,
                                      "schema": "pcl/1"}


_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())


@pytest.mark.parametrize("family", list(FAMILIES))
def test_faces_and_ends_render_no_vertex_name(monkeypatch, family):
    """A ball's names are rendered only when read: `faces` and `ends`
    never call an engine's ``names``, and `build` does."""
    import pcl.families
    named = []
    for cls in vars(pcl.families).values():
        if isinstance(cls, type) and issubclass(cls, pcl.families.Engine):
            def counted(self, keys, _names=cls.names):
                named.extend(keys)
                return _names(self, keys)
            monkeypatch.setattr(cls, "names", counted)
    assert run("faces", "--family", family, "--ball", "4").exit_code == 0
    res = run("ends", "--family", family, "-r", "1", "-R", "4")
    assert res.exit_code in (0, 3), res.output
    assert named == []
    assert run("build", "--family", family, "--ball", "2").exit_code == 0
    assert named


def test_balls_and_face_commands_build_no_incidence(tmp_path, monkeypatch):
    """Balls, and the face, orientation and cut-space commands on a
    presented group, read the dart arrays alone: with the incidence lists
    unavailable each command prints what it printed before."""
    from pcl.graph import MultiGraph
    f = tmp_path / "a4.grp"
    f.write_text(grp_resource("a4.grp"))
    argvs = [f"faces --family {family} --ball 5" for family in
             ("z-cross-z", "free", "cn-cross-z", "amalgam")]
    argvs += ["build --family z-cross-z3 --ball 4",
              "ends --family z-cross-z -r 2 -R 6",
              "ends --family free -r 1 -R 4"]
    argvs += [f"{command} {f}" for command in
              ("faces", "orient", "covariant", "cutspace", "connectivity")]
    before = [run(*argv.split()) for argv in argvs]

    def unavailable(self):
        raise AssertionError("incidence lists built")
    monkeypatch.setattr(MultiGraph, "incidence", unavailable)
    for argv, res in zip(argvs, before):
        after = run(*argv.split())
        assert after.exception is None or isinstance(after.exception,
                                                     SystemExit), argv
        assert (after.exit_code, after.stdout) == (res.exit_code,
                                                   res.stdout), argv


@pytest.mark.parametrize("argv", [
    "build --family free --ball 5", "build --family z-cross-z --ball 12",
    "build --family cn-cross-z -n 6 --ball 10", "build --amalgam --ball 4"])
def test_build_of_ball_matches_benchmark_digest(argv):
    res = run(*argv.split())
    got = {"code": res.exit_code,
           "sha256": hashlib.sha256(res.stdout.encode()).hexdigest()}
    assert got == _DIGESTS[argv]
