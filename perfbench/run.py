#!/usr/bin/env python3
"""Benchmark of oscpair: three workloads, oracle-checked, optionally traced.

    python3 perfbench/run.py --workload regime-map --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nothing is installed.  A run times the set-up
(import plus input generation) in several fresh interpreters, then repeats the workload's fixed pass of
operations, one call at a time in this process, for about ``--seconds``
seconds (always at least one whole pass), and checks every answer against
its oracle outside the timed section.  Untraced timings are scaled to a
fixed host speed measured with a reference kernel (``REFERENCE_S``).

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json.  With ``--trace 1``
half the time runs untraced and half with the span tracer installed, and the
metrics are the per-layer ones.  The lines before it print every metric, the
environment and the failed operations for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import array
import bisect
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, NamedTuple

import tracing

# One thread of computation: OpenBLAS would otherwise start a worker per
# core, and on a 2-vCPU host its spinning workers double the CPU a pass uses
# and make a propagator call (a 4x4 expm) about 1.8 times slower.  Set before
# numpy is imported, here and in the set-up interpreters, which inherit the
# environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
SPANS = ROOT / ".perfbench_out"
WORKLOADS = ("regime-map", "point-queries", "reproduce")

# set-ups per run, each in a fresh interpreter, reported as a median
SETUP_SAMPLES = 9

# Other tenants of the host move its speed by 10-25 % over minutes, and a
# fixed loop slows with the program.  So a fixed reference kernel is timed
# around each set-up sample and, during an untraced pass, every
# CALIBRATE_EVERY seconds, and every timing that is gated is scaled by
# REFERENCE_S over the mean reference time around it: seconds at the host
# speed where the kernel takes REFERENCE_S.
REFERENCE_S = 0.025
CALIBRATE_EVERY = 0.25
# kernel runs timed before and after each set-up sample
SETUP_REFERENCE_RUNS = 4

# traced-run layer metrics, reported per traced pass (BENCHMARK.json per_layer)
TRACED_FUNCTIONS = (
    "spectrum.closed_form_eigenvalues",
    "spectrum.eigenvalue_defect",
    "spectrum.classify",
    "spectrum.growth_bound",
    "spectrum.minimize_growth_bound",
    "spectrum.optimal_coupling",
    "spectrum.branch_sqrt",
    "modal.mode_growth_bound",
    "modal.family_growth_bound",
    "sim.integrate",
    "sim.propagator",
    "sim.operator_norm",
    "sim.norm_growth_fit",
    "sim.periodic_portrait_check",
    "sim.expm",
    "sim.solve_ivp",
    "figures.write_figure",
    "cli.main",
)
CRITERIA = range(1, 11)
MARGIN_CRITERIA = (1, 4, 6, 9)  # PASS lines that state a value and its bound
# criterion 7 compares 3 couplings at 1,601 times, one propagator each
C7_PROPAGATORS = 4803


class Pass(NamedTuple):
    wall: float
    latencies: array.array  # seconds per operation
    scaled: array.array  # latencies at reference host speed; empty when traced
    labels: list[str]
    results: list[Any]
    failures: list[tuple[Any, str]]
    points: int


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(workload: str, seed: int, workdir: Path):
    """Import oscpair and generate the workload's inputs; returns (seconds, cases)."""
    start = time.perf_counter()
    import oscpair  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    cases = workloads.generate(workload, seed, workdir)
    return time.perf_counter() - start, cases


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small LAPACK calls.

    It uses numpy only, never oscpair, so that a change to the program
    cannot change it.
    """
    import numpy as np

    a = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.3, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.2, 0.0, -1.5, 0.0]])
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for i in range(750):
        np.linalg.eigvals(a)
        complex(i % 7, 1.0) ** 0.5
    return time.perf_counter() - start


def mean_reference() -> float:
    return statistics.fmean(reference_kernel() for _ in range(SETUP_REFERENCE_RUNS))


def to_reference(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * 2.0 * REFERENCE_S / (ref_before + ref_after)


class Calibrator:
    """Times the reference kernel before, during and after a pass.

    During the pass a SIGALRM handler runs the kernel every
    ``CALIBRATE_EVERY`` seconds, also in the middle of a long operation, and
    records (start, seconds).  The handler runs between bytecodes of the
    main thread, so a record lies wholly inside an operation or wholly
    outside every operation.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []
        self.busy = False

    def sample(self) -> None:
        start = time.perf_counter()
        self.marks.append((start, reference_kernel()))

    def on_alarm(self, signum, frame) -> None:
        del signum, frame
        if not self.busy:
            self.busy = True
            try:
                self.sample()
            finally:
                self.busy = False

    def __enter__(self) -> Calibrator:
        self.sample()
        signal.signal(signal.SIGALRM, self.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY, CALIBRATE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # not SIG_DFL: an alarm already on its way would end the process
        signal.signal(signal.SIGALRM, lambda signum, frame: None)
        self.sample()

    def split(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Each operation's time without the kernel runs inside it, as measured
        and scaled by the mean of the kernel times inside and next to it."""
        starts = [start for start, _ in self.marks]
        latencies, scaled = array.array("d"), array.array("d")
        for t0, t1 in spans:
            lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
            net = t1 - t0 - sum(s for _, s in self.marks[lo:hi])
            around = [s for _, s in self.marks[lo - 1:hi + 1]]
            latencies.append(net)
            scaled.append(net * REFERENCE_S * len(around) / sum(around))
        return latencies, scaled


def setup_in_fresh_interpreter(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-sample"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(cases, expected, tracer=None) -> Pass:
    """One pass; an untraced pass runs under the Calibrator."""
    results, spans = [], []
    calibrator = Calibrator() if tracer is None else None
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with calibrator or contextlib.nullcontext():
            for case in cases:
                t0 = time.perf_counter()
                try:
                    result = case.run()
                except Exception as exc:  # a raising call is a failed operation
                    # its traceback would hold this frame, and so every result
                    # of the pass, in a cycle until the next full collection
                    result = exc.with_traceback(None)
                spans.append((t0, time.perf_counter()))
                results.append(result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if calibrator is not None:
        latencies, scaled = calibrator.split(spans)
    else:
        latencies, scaled = array.array("d", (t1 - t0 for t0, t1 in spans)), array.array("d")
    wall = sum(latencies)

    failures = []
    for case, result, want in zip(cases, results, expected):
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = case.check(result, want)
            except (KeyError, ValueError, IndexError, TypeError, AttributeError) as exc:
                reason = f"malformed result ({type(exc).__name__}: {exc})"
        if reason:
            failures.append((case, reason))
    return Pass(wall, latencies, scaled, [c.label for c in cases], results, failures,
                sum(c.points for c in cases))


def measure(cases, expected, seconds: float, tracer=None, on_pass=None) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``.

    A pass is kept without its results and with one shared label list, so
    that memory does not grow with the number of passes.
    """
    passes: list[Pass] = []
    labels = [c.label for c in cases]
    start = last = time.perf_counter()
    while not passes or 2 * time.perf_counter() - start - last <= seconds:
        last = time.perf_counter()
        p = run_pass(cases, expected, tracer)
        if on_pass is not None:
            on_pass(p)
        passes.append(p._replace(results=[], labels=labels))
        del p
        gc.collect()  # outside the timing: every pass starts from the same heap
    return passes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def label_seconds(p: Pass, label: str) -> float:
    return sum((t for t, lab in zip(p.scaled, p.labels) if lab == label), 0.0)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches_bytes": caches,
    }


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], setup: list[float], peak_rss_mb: float) -> dict[str, dict[str, Any]]:
    """Gated metrics; the times are at reference host speed."""
    latencies = [t for p in passes for t in p.scaled]
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(sum(p.scaled) for p in passes), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "op_p99_ms": metric(1e3 * percentile(latencies, 99), "ms"),
    }


def diagnostics(passes: list[Pass]) -> dict[str, dict[str, Any]]:
    """Untraced numbers that are not gated.

    ``fail_frac`` is 0 on two workloads and ``accept_s``/``figures_s`` exist
    on one only.  ``op_p50_ms`` on ``regime-map`` is the short ``classify``
    call, whose speed relative to the rest moves by about 10 % from run to
    run on a shared host, too much for a gate.  ``points_per_s`` is a fixed
    count per pass divided by ``wall_s``, so gating it would gate ``wall_s``
    twice.  ``host.slowdown`` is the pass time as measured over the pass time
    at reference host speed.
    """
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    wall = statistics.median(sum(p.scaled) for p in passes)
    return {
        "points_per_s": metric(passes[0].points / wall, "1/s"),
        "op_p50_ms": metric(1e3 * percentile([t for p in passes for t in p.scaled], 50), "ms"),
        "accept_s": metric(statistics.median(label_seconds(p, "cli.accept") for p in passes), "s"),
        "figures_s": metric(statistics.median(label_seconds(p, "cli.figure") for p in passes), "s"),
        "fail_frac": metric(failed / attempted, "ratio"),
        "host.slowdown": metric(statistics.median(p.wall / sum(p.scaled) for p in passes), "ratio"),
    }


class TracedPass(NamedTuple):
    wall: float
    calls: dict[str, int]
    self_s: dict[str, float]
    criteria_s: dict[int, float]
    nfev: int
    root_s: float


def per_layer(untraced: list[Pass], traced: list[TracedPass], margins: dict[int, float],
              csv_bytes: int) -> dict[str, dict[str, Any]]:
    first = traced[0]
    med = statistics.median
    out: dict[str, dict[str, Any]] = {}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = metric(first.calls.get(name, 0), "count")
        out[f"{name}.self_s"] = metric(med(t.self_s.get(name, 0.0) for t in traced), "s")
    out["sim.solve_ivp.nfev"] = metric(first.nfev, "count")
    out["core.assemble_matrix.calls"] = metric(first.calls.get("core.assemble_matrix", 0), "count")
    out["figures.csv_bytes"] = metric(csv_bytes, "B")
    for n in CRITERIA:
        out[f"acceptance.c{n}.s"] = metric(med(t.criteria_s.get(n, 0.0) for t in traced), "s")
    for n in MARGIN_CRITERIA:
        out[f"acceptance.c{n}.margin"] = metric(margins.get(n, 0.0), "ratio")
    out.update(diagnostics(untraced))
    traced_wall = med(t.wall for t in traced)
    untraced_wall = med(p.wall for p in untraced)
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.span_coverage"] = metric(med(t.root_s / t.wall for t in traced), "ratio")
    return out


def tracer_self_check(tracer: tracing.Tracer) -> tuple[bool, str]:
    """Run criterion 7 once more, traced, and check what the wrappers saw.

    It must show exactly one ``sim.propagator`` call per (coupling, time),
    and as many ``sim.expm`` calls as a profile hook on scipy's ``expm`` code
    counts, so that no call site escapes the wrappers however many calls
    the program makes.
    """
    import scipy.linalg

    tracer.reset()
    tracer.install()
    try:
        c7 = next(c for c in sys.modules["oscpair.acceptance"].CRITERIA if c.number == 7)
        expm_runs, _ = tracing.count_code_calls(scipy.linalg.expm.__code__, c7.run)
    finally:
        tracer.uninstall()
    seen = tracer.calls_within("acceptance.c7")
    got = {"sim.propagator": seen.get("sim.propagator", 0), "sim.expm": seen.get("sim.expm", 0)}
    want = {"sim.propagator": C7_PROPAGATORS, "sim.expm": expm_runs}
    return got == want, f"tracer self-check: criterion 7 calls {got}, want {want}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "oscpair" / "__init__.py").is_file():
        print(f"perfbench: no oscpair sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the extreme point queries

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args: argparse.Namespace, workdir: Path) -> int:
    setup_s, cases = set_up(args.workload, args.seed, workdir)
    import oscpair

    if not Path(oscpair.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: oscpair was imported from {oscpair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_sample:
        print(repr(setup_s))
        return 0

    import workloads

    reference_kernel()  # warm-up: the first run pays for numpy's first calls
    setups, ref = [], mean_reference()
    for _ in range(SETUP_SAMPLES):
        sample = setup_in_fresh_interpreter(args)
        ref_before, ref = ref, mean_reference()
        setups.append(to_reference(sample, ref_before, ref))
    expected = [case.oracle() for case in cases]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops_per_pass={len(cases)}")
    print("env " + json.dumps(environment(), sort_keys=True))

    margins: dict[int, float] = {}
    csv_bytes = 0

    def record(p: Pass) -> None:
        nonlocal csv_bytes
        for label, result in zip(p.labels, p.results):
            if label == "cli.accept" and isinstance(result, tuple):
                margins.update(workloads.criterion_margins(result[1]))
        csv_bytes = sum(f.stat().st_size for f in workdir.glob("*.csv"))

    budget = args.seconds / 2.0 if args.trace else args.seconds
    untraced = measure(cases, expected, budget, on_pass=record)
    # before the results are pooled, which takes memory in proportion to the passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = list(untraced)

    traced: list[TracedPass] = []
    self_check_error = None
    if args.trace:
        tracer = tracing.Tracer()

        def snapshot(p: Pass) -> None:
            if not traced:
                tracer.write_spans(SPANS / f"spans-{args.workload}.tsv", origin=tracer.spans[0][1])
            inclusive = tracer.inclusive_seconds()
            traced.append(TracedPass(
                wall=p.wall,
                calls=dict(tracer.calls),
                self_s=dict(tracer.self_s),
                criteria_s={n: inclusive.get(f"acceptance.c{n}", 0.0) for n in CRITERIA},
                nfev=tracer.nfev,
                root_s=tracer.root_seconds(),
            ))

        passes += measure(cases, expected, budget, tracer=tracer, on_pass=snapshot)
        if args.workload == "reproduce":
            ok, line = tracer_self_check(tracer)
            self_check_error = None if ok else line
            print(line)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    unexpected = [(case, why) for case, why in failures if not case.known_defect]

    shown: dict[str, int] = {}
    for case, why in failures:
        key = f"{case.label}{' (known defect)' if case.known_defect else ''}: {why}"
        shown[key] = shown.get(key, 0) + 1
    for key, count in shown.items():
        print(f"fail x{count} {key}")

    report = end_to_end(untraced, setups, peak_rss_mb)
    layers = per_layer(untraced, traced, margins, csv_bytes) if args.trace else {}
    for name, m in {**report, **diagnostics(untraced), **layers}.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"passes untraced={len(untraced)} traced={len(traced)} ops={attempted} "
          f"failed={len(unexpected)} known_defect_failures={len(failures) - len(unexpected)} "
          f"op_samples={sum(len(p.latencies) for p in untraced)}")
    print("pass_wall_s " + " ".join(f"{p.wall:.4f}" for p in passes))
    if self_check_error:
        print(self_check_error)

    print(json.dumps({
        "correct": not unexpected and self_check_error is None,
        "attempted": attempted,
        # known defects show in fail_frac and the "fail" lines, not here
        "failed": len(unexpected),
        "metrics": layers if args.trace else report,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
