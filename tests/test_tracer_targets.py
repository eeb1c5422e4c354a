"""The benchmark's tracer names pcl functions and methods by string; a
renamed or deleted one would only surface when the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import networkx
import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
