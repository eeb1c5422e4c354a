"""The benchmark's tracer names pcl functions and methods by string, and
its trials import pcl names inside function bodies; a renamed or deleted
one would only surface when the benchmark runs."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import networkx
import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER = _BENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in tracer.TARGETS.items()
    for name in names])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"pcl.{layer}")
    if "." in name:
        cls_name, method = name.split(".")
        assert callable(getattr(module, cls_name).__dict__[method])
    else:
        assert callable(getattr(module, name))


def test_traced_networkx_names_and_work_keys_resolve():
    assert all(callable(getattr(networkx, n)) for n in tracer.NX_TARGETS)
    traced = {f"{layer}.{name}" for layer, names in tracer.TARGETS.items()
              for name in names}
    assert set(tracer.WORK) <= traced


def _bench_pcl_imports():
    """(file, module, name) of every ``from pcl... import name`` in bench/."""
    for path in sorted(_BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "pcl"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


@pytest.mark.parametrize("file, module, name", list(_bench_pcl_imports()))
def test_bench_imported_name_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name), \
        f"{file} imports {name} from {module}"


def test_bench_imports_are_scanned():
    assert ("runner.py", "pcl.cyclecut", "separating_cycle_between_faces") \
        in set(_bench_pcl_imports())
