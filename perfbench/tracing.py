"""Span tracer for the oscpair benchmark, installed from outside the package.

The package is not instrumented.  Instead, ``Tracer.install`` rebinds every
public function of every ``oscpair`` module in *each* namespace that holds
it: ``from .spectrum import growth_bound`` leaves separate bindings in
``sim``, ``figures`` and ``acceptance``, and ``cli`` binds ``classify`` and
``closed_form_eigenvalues`` itself, so wrapping only the defining module
would miss those call sites.  The scipy names ``expm`` and ``solve_ivp``
bound in ``oscpair.sim`` are wrapped too (when the module still binds
them), and each acceptance criterion in
``acceptance.CRITERIA`` becomes a span ``acceptance.cN``.

A span is (name, start, end, parent).  Self time is a span's duration
minus the durations of its direct children.  ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from pathlib import Path
from time import perf_counter

MODULES = (
    "oscpair",
    "oscpair.core",
    "oscpair.spectrum",
    "oscpair.sim",
    "oscpair.modal",
    "oscpair.figures",
    "oscpair.acceptance",
    "oscpair.cli",
)


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._saved_criteria: list | None = None
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counts of the previous pass."""
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.nfev = 0
        self._stack: list[int] = []
        self._child: list[float] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            self._child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                inner = self._child.pop()
                dur = end - start
                if self._child:
                    self._child[-1] += dur
                self.spans[idx] = (name, start, end, parent)
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - inner
                self.calls[name] = self.calls.get(name, 0) + 1

        return wrapper

    def _rebind(self, namespace, attr: str, value) -> None:
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self) -> None:
        modules = [sys.modules[m] for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("oscpair"):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(layer_name(obj), obj)
                self._rebind(mod, attr, wrappers[id(obj)])

        sim = sys.modules["oscpair.sim"]
        if hasattr(sim, "expm"):
            self._rebind(sim, "expm", self._wrap("sim.expm", sim.expm))
        if hasattr(sim, "solve_ivp"):
            traced_solve = self._wrap("sim.solve_ivp", sim.solve_ivp)

            @functools.wraps(traced_solve)
            def solve_ivp(*args, **kwargs):
                sol = traced_solve(*args, **kwargs)
                self.nfev += int(sol.nfev)
                return sol

            self._rebind(sim, "solve_ivp", solve_ivp)

        criteria = sys.modules["oscpair.acceptance"].CRITERIA
        self._saved_criteria = list(criteria)
        criteria[:] = [
            c._replace(run=self._wrap(f"acceptance.c{c.number}", c.run)) for c in criteria
        ]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()
        if self._saved_criteria is not None:
            sys.modules["oscpair.acceptance"].CRITERIA[:] = self._saved_criteria
            self._saved_criteria = None

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def calls_within(self, ancestor: str) -> dict[str, int]:
        """Call counts of the spans nested (at any depth) inside ``ancestor`` spans."""
        inside = [False] * len(self.spans)
        counts: dict[str, int] = {}
        for i, (name, _, _, parent) in enumerate(self.spans):
            inside[i] = name == ancestor or (parent >= 0 and inside[parent])
            if inside[i] and name != ancestor:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def inclusive_seconds(self) -> dict[str, float]:
        """Total span duration per name, children included."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def write_spans(self, path: Path, origin: float) -> None:
        """Write the spans as tab-separated name, start, end, parent index.

        Times are seconds since ``origin``; a parent of -1 marks a root span.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(
            f"{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
            for name, start, end, parent in self.spans
        ))


def count_code_calls(code, fn):
    """Call ``fn()`` and count how often the Python ``code`` object ran meanwhile.

    The count comes from a profile hook, not from a rebound name, so it sees
    every call of the function whatever binding the caller used.  Returns
    (count, result of ``fn``).
    """
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return count, result
