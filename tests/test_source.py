"""Static checks on the package source, standing in for a linter."""

import ast
from pathlib import Path

import pytest

import oscpair

SOURCES = sorted(Path(oscpair.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that are neither used nor in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_import_check_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from math import cos, sin as sine\n"
        "from .sim import propagator\n"
        "__all__ = ['propagator']\n"
        "x = np.zeros(3) + cos(0.0)\n"
    )
    assert unused_imports(source) == ["os", "sine"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
