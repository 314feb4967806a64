"""Static checks on the package source, standing in for a linter."""

import argparse
import ast
import re
from pathlib import Path

import pytest

import oscpair
from oscpair import cli

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


def export_mismatches(source: str) -> list[str]:
    """Public top-level defs and classes missing from ``__all__``, and
    ``__all__`` entries that no top-level statement binds."""
    tree = ast.parse(source)
    exported, bound, public = [], set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    missing = [f"not in __all__: {name}" for name in public if name not in exported]
    return sorted(missing + [f"unbound: {name}" for name in exported if name not in bound])


def test_export_check_flags_missing_and_unbound_names():
    source = (
        "import os.path\n"
        "from math import cos as c\n"
        "__all__ = ['f', 'C', 'c', 'os', 'X', 'Y', 'gone']\n"
        "X: int = 1\n"
        "Y, _z = 2, 3\n"
        "def f():\n    pass\n"
        "class C:\n    pass\n"
        "def g():\n    pass\n"
        "def _h():\n    pass\n"
        "class D:\n    pass\n"
    )
    assert export_mismatches(source) == [
        "not in __all__: D",
        "not in __all__: g",
        "unbound: gone",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_lists_every_public_name(path):
    assert export_mismatches(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` (def, class or assignment) that no module references.

    ``sources`` maps a module name to its source; a name counts as referenced
    when any module loads it, reads it as an attribute or imports it.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                defined += [(module, n.id) for n in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return sorted(
        f"{module}.{name}" for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in used
    )


def test_dead_private_name_check_flags_only_unreferenced_names():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_DEAD, (_ALSO_DEAD, _PAIR) = 1, (2, 3)\n"
            "_typed: int = 0\n"
            "class _Unused:\n    pass\n"
            "def _helper(x):\n    return x + _LIMIT\n"
            "def _orphan():\n    return _PAIR\n"
            "def f():\n    return _helper(1)\n"
        ),
        "b": "from .a import _typed\nimport a\nx = a._Used if 0 else 1\nclass _Used:\n    pass\n",
    }
    assert dead_private_names(sources) == ["a._ALSO_DEAD", "a._DEAD", "a._Unused", "a._orphan"]


def test_no_dead_private_names():
    assert dead_private_names({path.stem: path.read_text() for path in SOURCES}) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def parser_options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Long options of each sub-command, ``--help`` left out."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        verb: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for verb, p in sub.choices.items()
    }


def readme_options(text: str) -> tuple[dict[str, set[str]], set[str]]:
    """Options on the ``oscpair <verb>`` lines of the "Command line" section,
    by verb, and every ``--flag`` the section mentions anywhere."""
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    flag = re.compile(r"--[a-z][a-z0-9-]*")
    by_verb: dict[str, set[str]] = {}
    for line in section.splitlines():
        words = line.split()
        if len(words) > 1 and words[0] == "oscpair":
            by_verb.setdefault(words[1], set()).update(flag.findall(line.split("#", 1)[0]))
    return by_verb, set(flag.findall(section))


def test_readme_option_check_flags_missing_and_unknown_options():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    sub.add_parser("run").add_argument("--fast")
    sub.add_parser("stop").add_argument("--now")
    text = (
        "## Command line\n\n"
        "oscpair run --fast   # also --now for stop, --gone for none\n"
        "oscpair stop\n\n"
        "## Next\n\noscpair stop --now\n"
    )
    by_verb, mentioned = readme_options(text)
    assert parser_options(parser) == {"run": {"--fast"}, "stop": {"--now"}}
    assert by_verb == {"run": {"--fast"}, "stop": set()}
    assert mentioned == {"--fast", "--now", "--gone"}


def test_readme_documents_every_cli_option():
    options = parser_options(cli._build_parser())
    by_verb, mentioned = readme_options(README.read_text())
    assert {verb: options[verb] - by_verb.get(verb, set()) for verb in options} == {
        verb: set() for verb in options
    }
    assert mentioned - set().union(*options.values()) == set()
