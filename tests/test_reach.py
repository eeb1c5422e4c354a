"""Every function and method of pcl is run by some CLI command.

A set of inputs runs in-process under ``sys.setprofile``, each as the
benchmark's ``runner.run_job`` runs a job: one job per command and group
kind or family of the benchmark's universes, every input of
``test_no_traceback``, and ``parse`` and a plain ``embed`` of D6.  Each
module-level function and class method of pcl must have been entered,
apart from the methods of exception classes and the names of
``UNREACHED``, which must stay unreached, so the list can only shrink.
Code that only the tests run belongs in ``tests/util.py``.

Code objects are matched to their definitions by file and first line,
the line of the first decorator if there is one (``co_qualname`` needs
Python 3.11).
"""

import ast
import importlib
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from types import ModuleType
from typing import Sequence

import pcl

from test_no_traceback import _inputs, _word_inputs, write_files

_BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(_BENCH))

import runner  # noqa: E402
import workloads  # noqa: E402

UNREACHED = {
    # interface stubs
    "families.Engine.moves", "families.Engine.names",
    # pinned by the benchmark although no command runs them: spans of its
    # tracer (bench/tracer.py TARGETS), and its measure of search work
    "graph.MultiGraph.degree", "graph.MultiGraph.to_json_dict",
    "cayley.build_amalgam_ball", "covariance.orientation_class",
    "embedding.local_label_items",
}

def _first_line(node: ast.FunctionDef) -> int:
    return min([node.lineno, *(d.lineno for d in node.decorator_list)])


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module.name" or "module.Class.method" of
    each module-level function and class method of pcl; methods of
    exception classes are left out."""
    out = {}
    for module in _modules():
        file, stem = module.__file__, module.__name__.split(".")[-1]
        for node in ast.parse(Path(file).read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out[file, _first_line(node)] = f"{stem}.{node.name}"
            elif (isinstance(node, ast.ClassDef) and not issubclass(
                    getattr(module, node.name), BaseException)):
                out.update(((file, _first_line(item)),
                            f"{stem}.{node.name}.{item.name}")
                           for item in node.body
                           if isinstance(item, ast.FunctionDef))
    return out


def _command(job: workloads.Job) -> tuple[str, ...]:
    """A job's command words and option names, and its group kind or
    family."""
    argv = job.argv
    words = argv[:2] if argv[0] in ("lib", "corpus") else argv[:1]
    if job.group is not None:
        what = job.group.kind
    elif "--family" in argv:
        what = argv[argv.index("--family") + 1]
    else:
        what = "amalgam" if "--amalgam" in argv else ""
    return (*words, *(a for a in argv if a.startswith("--")), what)


def _universe_jobs() -> list[workloads.Job]:
    """The first job of the lowest rung per ``_command`` over the
    benchmark's universes."""
    jobs = [job for name in workloads.WORKLOADS
            for job in workloads.universe(name)]
    first = {}
    for job in sorted(jobs, key=lambda job: job.rung):
        first.setdefault(_command(job), job)
    return list(first.values())


def _modules() -> list[ModuleType]:
    return [importlib.import_module(f"pcl.{path.stem}")
            for path in sorted(Path(pcl.__file__).parent.glob("*.py"))]


def _called(argvs: list[Sequence[str]]) -> set[tuple[str, int]]:
    """(file, first line) of every code object entered while a fresh copy
    of each module of pcl runs, outside ``sys.modules``, and then the
    argvs run.  An earlier test may have imported pcl, which runs the
    CLI's decorator factories, and filled the memo of a cached function,
    which hides its calls; the memos are emptied first."""
    codes = set()
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    sys.setprofile(lambda frame, event, _: event == "call"
                   and codes.add(frame.f_code))
    try:
        for module in _modules():
            spec = spec_from_file_location(module.__name__, module.__file__)
            spec.loader.exec_module(module_from_spec(spec))
        for argv in argvs:
            runner.run_job(argv)
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in codes}


def test_commands_reach_every_definition(tmp_path, monkeypatch):
    jobs = _universe_jobs()
    argvs = runner.write_inputs(jobs, tmp_path / "bench")
    monkeypatch.chdir(tmp_path)
    grp = write_files(tmp_path)
    called = _called([*(argvs[job] for job in jobs), *_inputs(grp),
                      *_word_inputs(grp),
                      ["parse", grp["d6"]], ["embed", grp["d6"]]])
    defined = _definitions()
    assert UNREACHED <= set(defined.values())
    unreached = {name for key, name in defined.items() if key not in called}
    assert sorted(unreached - UNREACHED) == []
    assert sorted(UNREACHED - unreached) == []
