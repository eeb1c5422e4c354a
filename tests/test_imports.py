"""Every name that a module of pcl imports is used in that module: an
import left behind by a removed caller would go unnoticed otherwise."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "pcl"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by the imports of the file (``from __future__``
    excepted) that no expression of the file reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_imported_names_are_used(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "import os.path\nfrom json import dumps, loads as load\n"
                 "import sys\n\nprint(os.sep, load)\n")
    assert _unused_imports(f) == ["dumps", "sys"]
