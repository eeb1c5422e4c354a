"""Command-line front end.

Groups are named either by a builtin registry entry (`a4`, `z4xz2`,
whose elements carry tuple names that the presentation grammar cannot
spell) or by a path to a `.grp` presentation file, which is then coset-
enumerated.  Every command's JSON is streamed by one writer, ``_echo_json``,
which stamps the ``schema`` envelope.  All JSON output is deterministic;
the randomized property suites live in the test suite and honour PCL_SEED.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import click

from . import corpus as corpus_mod
from .augment import TooFewVerticesError, cayley_connectivity, ladder_augment
from .cayley import (BallBudgetError, InfiniteFamilySpec, NonGeneratingError,
                     build_ball, build_cayley, interior_degrees)
from .covariance import (NonPlanarError, NotThreeConnectedError, is_covariant,
                         orientation_table, plane_connectivity,
                         whitney_unique)
from .cyclecut import star_generation_check
from .embedding import (KuratowskiWitness, SearchBudgetError, ball_embedding,
                        cayley_map, classify_faces, plane_embedding,
                        planarity_test, search_consistent_embeddings,
                        simple_cayley)
from .ends import EndsNotStabilizedError, classify_ends
from .families import FAMILIES, ZEngine
from .graph import CayleyGraph, MultiGraph
from .groups import (EnumerationBudgetError, GroupModel, a4_model,
                     coset_enumerate, z4xz2_model)
from .presentation import Presentation, PresentationError, parse_presentation

BUILTIN_GROUPS = {"a4": a4_model, "z4xz2": z4xz2_model}


# chunks joined into one write to stdout
_BATCH = 256

# one row of the "vertices" and of the "edges" list, keys in sorted order
_VERTEX_ROW = '{\n      "frontier": %s,\n      "id": %d,\n      "name": %s\n    }'
_EDGE_ROW = ('{\n      "directed": %s,\n      "head": %d,\n      "label": %s,'
             '\n      "tail": %d\n    }')
_BOOLEANS = ("false", "true")


def _echo_json(members: dict, graph: MultiGraph | None = None) -> None:
    """Write ``json.dumps(members | S | G, sort_keys=True, indent=2)`` and a
    newline to stdout, never holding the text: S is the ``schema`` member,
    stamped here alone, and G the graph's radius, vertices and edges as in
    ``MultiGraph.to_json_dict`` (nothing without a graph).

    Each top-level member is written in batches of ``_BATCH`` chunks; no
    chunk is empty, so an empty batch ends the member.  A plain member's
    chunks are ``JSONEncoder.iterencode``'s, each batch moved right one
    step (exact, as ``ensure_ascii`` escapes every newline in a string).
    A graph's rows are filled at their indent from templates and the
    graph's columns, with no dict per row: names and each distinct label
    escaped as ``ensure_ascii`` does, the even and odd darts' tails as the
    edges' tails and heads.
    """
    members = members | {"schema": "pcl/1"}
    rows = {}
    if graph is not None:
        members["radius"] = graph.radius
        names = graph.vertex_names
        ids = range(len(names))
        labels = {s: encode_basestring_ascii(s) for s in set(graph.edge_label)}
        rows = {
            "edges": _rows(_EDGE_ROW,
                           map(_BOOLEANS.__getitem__, graph.edge_directed),
                           graph.dart_tail[1::2],
                           map(labels.__getitem__, graph.edge_label),
                           graph.dart_tail[::2]),
            "vertices": _rows(_VERTEX_ROW,
                              map(_BOOLEANS.__getitem__,
                                  map(graph.frontier.__contains__, ids)),
                              ids, map(encode_basestring_ascii, names)),
        }
    encode = json.JSONEncoder(sort_keys=True, indent=2).iterencode
    parts = {key: encode(value) for key, value in members.items()} | rows
    # not click.echo, which copies and scans the text off a terminal
    write = sys.stdout.write
    separator = "{\n  "
    for key in sorted(parts):
        write(separator + encode_basestring_ascii(key) + ": ")
        chunks = parts[key]
        while batch := "".join(islice(chunks, _BATCH)):
            write(batch if key in rows else batch.replace("\n", "\n  "))
        separator = ",\n  "
    write("\n}\n")


def _rows(template: str, *columns) -> Iterator[str]:
    """A top-level list of the graph, row by row: the template filled from
    each row of the columns, at the indent of a top-level member."""
    separator = "[\n    "
    for row in zip(*columns):
        yield separator + template % row
        separator = ",\n    "
    yield "[]" if separator == "[\n    " else "\n  ]"


def _load_group(spec: str, max_cosets: int) -> GroupModel:
    if spec in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[spec]()
    if not Path(spec).exists():
        raise click.UsageError(
            f"{spec!r} is neither a builtin group ({', '.join(BUILTIN_GROUPS)}) "
            f"nor a presentation file")
    return coset_enumerate(_read_grp(spec), max_cosets)


def _read_grp(path: str) -> Presentation:
    """The presentation in the .grp file at path, read as UTF-8; a usage
    error if the file cannot be read or does not parse."""
    try:
        return parse_presentation(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, PresentationError) as exc:
        raise click.UsageError(f"{path}: {exc}")


def _write(path: str, text: str) -> None:
    """Write text to the file at path; a usage error if it cannot."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise click.UsageError(f"{path}: {exc}")


def _split_gens(gens: str | None, default: list[str]) -> list[str]:
    """Split a comma-separated generator list, keeping tuple names like
    (1,0) intact."""
    if gens is None:
        return default
    out, depth, cur = [], 0, []
    for ch in gens:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    out.append("".join(cur).strip())
    return [s for s in out if s]


def _element(model: GroupModel, text: str) -> int:
    """The element that text names (``GroupModel.element``); a usage error
    if it names none."""
    try:
        return model.element(text)
    except ValueError:
        raise click.UsageError(
            f"{model.name} has no generator or element named {text!r}"
        ) from None


def _cayley(group: str, gens: str | None, max_cosets: int) -> CayleyGraph:
    model = _load_group(group, max_cosets)
    gens = _split_gens(gens, list(model.gens))
    for s in gens:
        _element(model, s)
    return build_cayley(model, gens)


def _steps(value: str) -> tuple[int, ...]:
    """Z step sizes; a ValueError, as ZEngine's on steps that do not
    generate Z, becomes a usage error naming --steps."""
    return ZEngine(tuple(int(s) for s in value.split(","))).steps


def _family_spec(family: str, rank: int, steps: tuple[int, ...],
                 n: int) -> InfiniteFamilySpec:
    """Spec of a bundled family, given the CLI parameters its factory takes."""
    options = {"rank": rank, "steps": steps, "n": n}
    takes = inspect.signature(FAMILIES[family]).parameters
    return InfiniteFamilySpec(
        family, {k: v for k, v in options.items() if k in takes})


_FAMILY = click.Choice(list(FAMILIES))
_gens_option = click.option("--gens", help="comma-separated generator symbols")
_max_cosets_option = click.option("--max-cosets", type=click.IntRange(min=1),
                                  default=4096, show_default=True)


def _family_options(f):
    """--rank, --steps and -n, the parameters of the bundled families."""
    f = click.option("-n", type=click.IntRange(min=2), default=3,
                     show_default=True, help="Cn factor order")(f)
    f = click.option("--steps", type=_steps, default="1", show_default=True,
                     metavar="INTS", help="Z step sizes")(f)
    return click.option("--rank", type=click.IntRange(1, 25), default=2,
                        show_default=True, help="free-group rank")(f)


def _cayley_args(f):
    """GROUP, --gens and --max-cosets, loaded into the Cayley graph `cg`."""
    @click.argument("group")
    @_gens_option
    @_max_cosets_option
    @functools.wraps(f)
    def load(group, gens, max_cosets, **kwargs):
        return f(_cayley(group, gens, max_cosets), **kwargs)
    return load


def _graph_args(f):
    """GROUP, or --family/--amalgam with --ball R; the command receives the
    complete Cayley graph or the ball as `g` (a ball has no group)."""
    @click.argument("group", required=False)
    @_gens_option
    @_max_cosets_option
    @click.option("--ball", type=click.IntRange(min=0),
                  help="build the radius-R ball instead")
    @click.option("--family", type=_FAMILY,
                  help="ball of a bundled infinite family")
    @click.option("--amalgam", is_flag=True,
                  help="shorthand for --family amalgam")
    @_family_options
    @functools.wraps(f)
    def load(group, gens, max_cosets, ball, family, amalgam, rank, steps, n,
             **kwargs):
        if amalgam:
            family = "amalgam"
        if (family is None) != (ball is None):
            raise click.UsageError("--ball R goes with --family or --amalgam")
        if family is not None:
            if group is not None or gens is not None:
                raise click.UsageError(
                    "GROUP and --gens do not go with --family or --amalgam")
            spec = _family_spec(family, rank, steps, n)
            return f(build_ball(spec, ball), **kwargs)
        if group is None:
            raise click.UsageError("a group name or .grp file is required")
        return f(_cayley(group, gens, max_cosets), **kwargs)
    return load


# the input has no answer (too large, not generating, not planar, ...):
# exit code 3 with one JSON line on stderr
_DOMAIN_ERRORS = (BallBudgetError, EndsNotStabilizedError,
                  EnumerationBudgetError, NonGeneratingError, NonPlanarError,
                  NotThreeConnectedError, SearchBudgetError,
                  TooFewVerticesError)


class _Main(click.Group):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _DOMAIN_ERRORS as exc:
            click.echo(json.dumps({"error": type(exc).__name__,
                                   "message": str(exc)}, sort_keys=True),
                       err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Planar Cayley graph toolkit."""


@main.command("parse")
@click.argument("file", type=click.Path(exists=True))
def parse_cmd(file: str) -> None:
    """Parse a .grp presentation and echo its canonical form."""
    click.echo(_read_grp(file).emit())


@main.command("enumerate")
@click.argument("file", type=click.Path(exists=True))
@_max_cosets_option
def enumerate_cmd(file: str, max_cosets: int) -> None:
    """Coset-enumerate a presentation into a finite group model."""
    g = coset_enumerate(_read_grp(file), max_cosets)
    _echo_json({
        "name": g.name,
        "order": g.order,
        "elements": g.element_names,
        "generators": list(g.gens),
    })


@main.command("build")
@_graph_args
@click.option("--dot", type=click.Path(), help="also write DOT here")
@click.option("--svg", type=click.Path(), help="also write an SVG drawing here")
def build_cmd(g, dot, svg) -> None:
    """Build a Cayley multigraph (complete graph or truncated ball)."""
    extra = {}
    if g.group is None:
        extra["interior_degrees"] = sorted(interior_degrees(g))
    if dot:
        _write(dot, g.to_dot())
    if svg:
        from .layout import to_svg  # loaded only for drawings
        emb = ball_embedding(g) or plane_embedding(g)
        if emb is None:
            raise click.UsageError("SVG rendering needs a planar embedding")
        _write(svg, to_svg(g, emb))
    _echo_json(extra, g)


@main.command("embed")
@_cayley_args
@click.option("--search-consistent", is_flag=True,
              help="search covariant label orders and spins")
def embed_cmd(cg, search_consistent) -> None:
    """Embed a Cayley graph; report rotation system and faces."""
    if search_consistent:
        results = search_consistent_embeddings(cg)
        _echo_json({
            "consistent_embeddings": len(results),
            "face_vectors": [
                {str(k): v for k, v in sorted(emb.face_vector().items())}
                for _, _, emb in results],
        })
        return
    result = planarity_test(cg)
    if isinstance(result, KuratowskiWitness):
        _echo_json({"planar": False,
                    "witness": {"kind": result.kind,
                                "branch_vertices": result.branch_vertices,
                                "paths": result.paths}})
        sys.exit(1)
    _echo_json(result.to_json_dict() | {"planar": True})


@main.command("faces")
@_graph_args
def faces_cmd(g) -> None:
    """Face vector of a complete graph, or face report of a ball.

    A complete Cayley graph prints its face vector (face length: count) in
    its plane embedding.  A ball (--family or --amalgam with --ball R)
    prints how many faces are finite and how many touch the frontier, and
    the longest finite face.  Exit 1 with "planar": false if the graph is
    not planar.  Exit 3 if the group passes --max-cosets, the ball passes
    its vertex budget, or the generators do not generate.
    """
    if simple_cayley(g):
        result = cayley_map(g)
    else:
        result = ball_embedding(g) or plane_embedding(g)
    if result is None:
        _echo_json({"planar": False})
        sys.exit(1)
    if g.group is None:
        data = classify_faces(result).to_json_dict()
    else:
        data = {"planar": True, "genus": 0,
                "face_vector": {str(k): v for k, v
                                in sorted(result.face_vector().items())}}
    _echo_json(data)


@main.command("covariant")
@_cayley_args
def covariant_cmd(cg) -> None:
    """Check that the canonical embedding is covariant under the action.

    Prints "covariant": true if left multiplication by every generator
    maps the faces of the plane embedding onto faces.  Exit 1 with
    "covariant": false and either the reason "non-planar" with the
    Kuratowski witness kind, or a generator and a face whose image is not
    a face.  Exit 3 if the group passes --max-cosets, the generators do not
    generate, or the graph is not 3-connected or has one vertex.
    """
    # a Cayley map is transported from the identity, so left
    # multiplication keeps it by construction
    if cayley_map(cg) is not None:
        _echo_json({"covariant": True})
        return
    try:
        emb = whitney_unique(cg)
    except NonPlanarError as exc:
        _echo_json({"covariant": False,
                    "reason": f"non-planar ({exc.witness.kind})"})
        sys.exit(1)
    verdict = is_covariant(cg, emb)
    if verdict is True:
        _echo_json({"covariant": True})
    else:
        _echo_json({"covariant": False,
                    "generator": verdict.generator,
                    "face_darts": list(verdict.face_darts)})
        sys.exit(1)


@main.command("orient")
@_cayley_args
def orient_cmd(cg) -> None:
    """Orientation class (preserving/reversing) of every element.

    Prints, per element name, whether left multiplication keeps or
    reverses the orientation of the plane embedding.  Exit 3 if the group
    passes --max-cosets, the generators do not generate, or the graph is
    not planar (the message names the witness kind), not 3-connected or
    has one vertex.
    """
    _echo_json({"orientation": orientation_table(cg)})


@main.command("contract")
@_cayley_args
@click.option("--by", "by", required=True,
              help="element generating the cyclic subgroup to contract by")
def contract_cmd(cg, by) -> None:
    """Babai-contract Cay(G,S) by the left action of a cyclic subgroup."""
    from .actions import GraphAction, babai_contract
    from .cayley import dart_permutation
    from .groups import cyclic_group
    model = cg.group
    x = _element(model, by)
    vp, dp = dart_permutation(cg, x)
    # x^k is (by)^k, so that every name reads back as x^k, unless by is one
    # generator symbol or closed-form name of the model
    base = by if by in model.gens or by in (model.names or ()) else f"({by})"
    action = GraphAction(cyclic_group(model.element_order(x), by, base), cg,
                         {by: vp}, {by: dp})
    quotient, dom = babai_contract(action)
    _echo_json({"derived_generators": quotient.generators,
                "fundamental_domain": dom.vertices}, quotient)


@main.command("augment")
@_cayley_args
def augment_cmd(cg) -> None:
    """Ladder-augment the canonical plane embedding to 3-connectivity."""
    result = planarity_test(cg)
    if isinstance(result, KuratowskiWitness):
        raise NonPlanarError(result)
    aug, emb = ladder_augment(cg, result)
    _echo_json({"connectivity": plane_connectivity(emb), "genus": emb.genus},
               aug)


@main.command("connectivity")
@_cayley_args
def connectivity_cmd(cg) -> None:
    """Exact vertex connectivity of a Cayley graph."""
    _echo_json({"connectivity": cayley_connectivity(cg)})


@main.command("cutspace")
@_cayley_args
def cutspace_cmd(cg) -> None:
    """GF(2) rank of the orbit of the identity's vertex-star cut."""
    _echo_json(star_generation_check(cg).to_json_dict())


@main.command("ends")
@click.option("--family", type=_FAMILY, required=True)
@click.option("-r", "inner", type=click.IntRange(min=0), default=2,
              show_default=True)
@click.option("-R", "outer", default=5, show_default=True)
@_family_options
def ends_cmd(family, inner, outer, rank, steps, n) -> None:
    """Classify the ends of a bundled family from nested balls."""
    if inner >= outer:
        raise click.UsageError("-r must be less than -R")
    spec = _family_spec(family, rank, steps, n)
    report = classify_ends(spec, inner, outer)
    _echo_json(report.to_json_dict())


@main.group("corpus")
def corpus_group() -> None:
    """Bundled verification corpus."""


@corpus_group.command("verify")
@click.option("--case", "case", type=click.Choice(sorted(corpus_mod.CASES)))
@click.option("--json", "as_json", is_flag=True)
def corpus_verify(case, as_json) -> None:
    """Re-verify the bundled worked-example claims; exit 1 on failure."""
    report = corpus_mod.verify(case)
    if as_json:
        _echo_json(report)
    else:
        cases = [report] if case else report["cases"]
        for c in cases:
            status = "PASS" if c["pass"] else "FAIL"
            click.echo(f"{status}  {c['case']}")
            for cl in c["claims"]:
                if not cl["ok"]:
                    click.echo(f"      claim {cl['name']}: expected "
                               f"{cl['expected']}, got {cl['actual']}")
    if not report["pass"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
