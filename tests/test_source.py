"""Static checks on the package source, standing in for a linter, and the
options they keep out of the public API."""

import argparse
import ast
import math
import re
from pathlib import Path

import pytest

import oscpair
from oscpair import (
    FigureSpec,
    ModeFamily,
    Params,
    acceptance,
    classify,
    cli,
    default_figure_spec,
    dirichlet_modes,
    load_mode_family,
    norm_growth_fit,
    write_figure,
)

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


def callers(source: str, callee: str, where=lambda call: True) -> list[str]:
    """Top-level defs and classes whose bodies call ``callee``, by plain name
    or as an attribute, and ``<module>`` for a call outside all of them;
    only calls for which ``where(call)`` holds count."""
    found = set()
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and callee in (
                getattr(sub.func, "id", None), getattr(sub.func, "attr", None)
            ) and where(sub):
                found.add(owner)
    return sorted(found)


def ord_2(call: ast.Call) -> bool:
    """Whether a call passes ord 2, as its second argument or a keyword."""
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)


def test_caller_check_finds_plain_attribute_nested_and_module_level_calls():
    source = (
        "from scipy.linalg import expm\n"
        "def f(a):\n    return expm(a)\n"
        "def g(a):\n    def inner():\n        return sim.expm(a)\n    return inner()\n"
        "def h(a):\n    return self._expm(a), expm, expmx(a)\n"
        "class C:\n    def m(self, a):\n        return expm(a)\n"
        "x = expm(0)\n"
    )
    assert callers(source, "expm") == ["<module>", "C", "f", "g"]
    norms = (
        "def f(m):\n    return np.linalg.norm(m, 2), np.linalg.norm(m), np.linalg.norm(m, 1)\n"
        "def g(m):\n    return np.linalg.norm(m, ord=2)\n"
        "def h(z):\n    return np.linalg.norm(z, axis=1), np.linalg.norm(z, ord=1)\n"
    )
    assert callers(norms, "norm", ord_2) == ["f", "g"]


# one exponential path: a propagator, which is also the step and the start
# of a trajectory and of the fit; the fit and the trajectory march their own
# grids
DESIGNED_CALLERS = {
    "_coefficients": {"sim": ["propagator"]},
    "_march": {"sim": ["integrate", "norm_growth_fit"]},
}


@pytest.mark.parametrize("callee", sorted(DESIGNED_CALLERS))
def test_exponentials_and_marches_run_only_where_designed(callee):
    found = {path.stem: callers(path.read_text(), callee) for path in SOURCES}
    assert {module: names for module, names in found.items() if names} == DESIGNED_CALLERS[callee]


# one owner of sigma_max, sim.operator_norm; the eigensolver oracle
# spectrum.eigenvalue_defect keeps its own SVD rank test and 2-norm
NORM_CALLERS = {
    "eigvalsh": {"sim": ["operator_norm"]},
    "norm": {"spectrum": ["eigenvalue_defect"]},
    "svd": {"spectrum": ["eigenvalue_defect"]},
}


@pytest.mark.parametrize("callee", sorted(NORM_CALLERS))
def test_operator_norms_have_one_owner(callee):
    where = ord_2 if callee == "norm" else (lambda call: True)
    found = {path.stem: callers(path.read_text(), callee, where) for path in SOURCES}
    assert {module: names for module, names in found.items() if names} == NORM_CALLERS[callee]


def scipy_importers(source: str) -> list[str]:
    """Top-level defs and classes whose bodies import from scipy, and
    ``<module>`` for such an import outside all of them."""
    found = set()
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Import):
                modules = [a.name for a in sub.names]
            elif isinstance(sub, ast.ImportFrom) and sub.level == 0:
                modules = [sub.module]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                found.add(owner)
    return sorted(found)


def test_scipy_import_check_finds_module_nested_and_aliased_imports():
    source = (
        "import scipy.linalg as sl\n"
        "import scipyx\n"
        "def f():\n    from scipy.integrate import solve_ivp\n    return solve_ivp\n"
        "def g():\n    def inner():\n        import scipy\n    return inner\n"
        "def h():\n    from .scipy import x\n    return x\n"
        "class C:\n    def m(self):\n        import numpy, scipy.special\n"
    )
    assert scipy_importers(source) == ["<module>", "C", "f", "g"]


def test_scipy_is_imported_only_by_the_exponential_kernel_loader():
    # the propagator is closed-form: no module imports scipy at all
    found = {path.stem: scipy_importers(path.read_text()) for path in SOURCES}
    assert {module: names for module, names in found.items() if names} == {}


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of public top-level functions and classes that no
    call in ``sources`` passes, by keyword or by position, as ``module.name(param)``.

    A class's parameters are those of its ``__init__``, or else its annotated
    fields (a dataclass or NamedTuple).  A call is matched by the callee's name,
    plain or as an attribute; ``*args`` passes every position, ``**kwargs``
    every keyword.
    """
    defaulted, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                args, skip = node.args, 0
            else:
                inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                if not inits:
                    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                    defaulted += [
                        (module, node.name, f.target.id, k)
                        for k, f in enumerate(fields) if f.value is not None
                    ]
                    continue
                args, skip = inits[0].args, 1  # self
            positional = (args.posonlyargs + args.args)[skip:]
            first = len(positional) - len(args.defaults)
            defaulted += [(module, node.name, a.arg, k) for k, a in enumerate(positional) if k >= first]
            defaulted += [
                (module, node.name, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (math.inf if star else len(node.args), keywords)
                )
    return sorted(
        f"{module}.{name}({param})" for module, name, param, index in defaulted
        if not any(
            (index is not None and index < npos) or param in keywords or None in keywords
            for npos, keywords in calls.get(name, [])
        )
    )


def test_unpassed_default_check_flags_only_unpassed_parameters():
    sources = {
        "a": (
            "def f(x, y=1, *, z=2):\n    pass\n"
            "def _g(x=1):\n    pass\n"
            "def h(w=3):\n    pass\n"
            "def k(v=4):\n    pass\n"
            "class C:\n    def __init__(self, a, b=0):\n        pass\n"
            "class D:\n    p: int\n    q: int = 0\n    r: int = 1\n"
        ),
        "b": "f(1, 2)\nC(1)\nm.D(1, 2)\nD(1, r=2)\nh(*args)\nk(**options)\n",
    }
    assert unpassed_defaults(sources) == ["a.C(b)", "a.f(z)"]


# each defaulted public parameter that no call in the package sets, and why it stays
UNPASSED_DEFAULTS = {
    "sim.norm_growth_fit(t_max)": "the caller's horizon; the default is the regime rule",
    "spectrum.root_defects(mu)": "per-mode defects, for the per-mode verdicts of ROADMAP item 7",
    "cli.main(argv)": "the entry point, given the process arguments by default",
}


def test_every_defaulted_public_parameter_is_passed_in_the_package():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert unpassed_defaults(sources) == sorted(UNPASSED_DEFAULTS)


FIG7 = default_figure_spec("fig7", output_stem="unwritten")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: write_figure(FIG7, samples=40), id="write_figure-samples"),
        pytest.param(lambda: write_figure(FIG7, directory="."), id="write_figure-directory"),
        pytest.param(
            lambda: FigureSpec("fig7", FIG7.params, FIG7.z0, 1.0, "x", labels=("a", "b", "c")),
            id="FigureSpec-labels",
        ),
        pytest.param(
            lambda: norm_growth_fit(Params(0.5, 0.75), samples=50), id="norm_growth_fit-samples"
        ),
        pytest.param(lambda: ModeFamily([1.0], label="x"), id="ModeFamily-label"),
        pytest.param(lambda: dirichlet_modes(3, length=2.0), id="dirichlet_modes-length"),
        pytest.param(lambda: dirichlet_modes(3, label="x"), id="dirichlet_modes-label"),
        pytest.param(lambda: load_mode_family("unread.txt", label="x"), id="load_mode_family-label"),
        pytest.param(lambda: acceptance.run_all({2}, emit=print), id="run_all-emit"),
    ],
)
def test_options_no_caller_set_are_gone(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


@pytest.mark.parametrize(
    "owner, name",
    [(Params, "from_signed_coupling"), (classify(Params(1.0, 1.0)), "degree")],
    ids=["Params.from_signed_coupling", "Regime.degree"],
)
def test_second_ways_to_one_result_are_gone(owner, name):
    # Params(eps, abs(b)) and Regime.defect_penalty are the one way
    with pytest.raises(AttributeError):
        getattr(owner, name)


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
