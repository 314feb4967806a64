"""Workloads of the oscpair benchmark: inputs, operations and oracles.

``generate(workload, seed, workdir)`` builds one *pass*: a fixed list of
operations drawn from the seed.  Each operation is a ``Case``:

* ``run`` calls a public entry point (``oscpair.cli.main`` or a package
  function) and is the only part that is timed;
* ``oracle`` computes the expected answer independently of the code under
  test; it is evaluated once, outside the timed section;
* ``check`` compares a result with the oracle and returns the reason it
  failed, or None.  A call that raised never reaches its check.

Entry points are looked up on their module at call time, so the tracer's
rebound wrappers are seen during traced passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oscpair
from oscpair import cli
from oscpair.core import Params, assemble_matrix
from oscpair.figures import parse_figure_csv

# regime-map sizes: one pass is about 5 s on a 2-core Xeon.
CLASSIFY_POINTS = 300
SWEEP_WINDOWS = 5
SWEEP_N = 2000
DIRICHLET_MODES = 10_000
RANDOM_MODES = 2_000

# point-queries: calls per pass and the fixed shares of the slow and the
# extreme operations; the rest is split evenly over the scalar functions.
# optimal_coupling takes 8 to 14 ms depending on eps and its share puts p99
# in the middle of its calls, so its 100 eps a pass are drawn one from each
# of 100 equal strata of the log range, which keeps p99 steady across seeds.
QUERY_CALLS = 5_000
OPTIMAL_COUPLING_SHARE = 0.02
EXTREME_SHARE = 0.02

BOUNDARY_RTOL = 1e-12

KIND_EXP_BLOWUP = "ExpBlowup"
KIND_POLY_BLOWUP = "PolyBlowup"
KIND_BOUNDED = "BoundedNonDecaying"
KIND_EXP_DECAY = "ExpDecay"


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    oracle: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    points: int = 1
    known_defect: bool = False


# ---------------------------------------------------------------- oracles


def _close(x: float, target: float) -> bool:
    return abs(x - target) <= BOUNDARY_RTOL * max(1.0, abs(x), abs(target))


def regime_rule(eps: float, b: float) -> str:
    """The paper's regime table, decided on the parameters."""
    if _close(eps, 1.0):
        if _close(b, 1.0):
            return KIND_POLY_BLOWUP
        return KIND_EXP_BLOWUP if b < 1.0 else KIND_BOUNDED
    if eps > 1.0:
        return KIND_EXP_BLOWUP
    root = math.sqrt(eps)
    if _close(b, root):
        return KIND_BOUNDED
    return KIND_EXP_BLOWUP if b < root else KIND_EXP_DECAY


def on_defective_set(eps: float, b: float) -> bool:
    """b = (1+eps)/2, where the dominant pair is a double eigenvalue."""
    return _close(b, (1.0 + eps) / 2.0)


def omega_tolerance(eps: float, b: float) -> float:
    """Absolute tolerance on max Re(lambda); looser near a double root.

    A double root moves like the square root of a rounding error, in the
    closed form and in LAPACK alike.
    """
    ratio = 2.0 * b / (1.0 + eps)
    near = abs(1.0 - ratio * ratio) <= 1e-6
    return (1e-6 if near else 1e-9) * (1.0 + max(eps, b))


def eig_omega(eps: float, b: float) -> float | None:
    """max Re of the eigenvalues of the 4x4 matrix, by LAPACK."""
    try:
        with np.errstate(all="ignore"):
            eigs = np.linalg.eigvals(assemble_matrix(Params(eps, b)))
    except (np.linalg.LinAlgError, ValueError, OverflowError):
        return None
    top = float(np.max(eigs.real))
    return top if math.isfinite(top) else None


def mode_bounds(mu: np.ndarray, eps: float, b: float) -> np.ndarray:
    """Per-mode growth bounds from the palindromic factorization.

    With w = lam + mu/lam the mode quartic becomes
    w^2 + (1-eps) w + (b^2-eps) = 0, independent of mu; each w splits into
    lam = (w +- sqrt(w^2 - 4 mu))/2.  The larger root is taken first and the
    smaller one as mu/big, so that nothing cancels.
    """
    mu = np.asarray(mu, dtype=float)
    disc = np.sqrt(complex((1.0 + eps) ** 2 - 4.0 * b * b))
    best = np.full(mu.shape, -np.inf)
    for w in ((eps - 1.0 + disc) / 2.0, (eps - 1.0 - disc) / 2.0):
        s = np.sqrt(w * w - 4.0 * mu + 0j)
        plus, minus = (w + s) / 2.0, (w - s) / 2.0
        big = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
        best = np.maximum(best, np.maximum(big.real, (mu / big).real))
    return best


def _sign_error(kind: str, omega: float) -> str | None:
    if kind == KIND_EXP_DECAY and not omega < 0.0:
        return f"omega* {omega!r} is not negative in the decay regime"
    if kind == KIND_EXP_BLOWUP and not omega > 0.0:
        return f"omega* {omega!r} is not positive in the blow-up regime"
    return None


def _omega_error(omega: float, expected: float | None, tol: float) -> str | None:
    if not math.isfinite(omega):
        return f"non-finite omega* {omega!r}"
    if expected is not None and abs(omega - expected) > tol:
        return f"omega* {omega!r} vs eigvals {expected!r} (tol {tol:.1e})"
    return None


# ------------------------------------------------------------ CLI helpers


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_error(result) -> str | None:
    code, _, err = result
    if code != 0:
        return f"exit {code}: {err.strip()}"
    return None


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


# ------------------------------------------------------------- regime-map


def _classify_cli_case(eps: float, b: float) -> Case:
    def oracle():
        return (
            regime_rule(eps, b),
            eig_omega(eps, b),
            omega_tolerance(eps, b),
            1 if on_defective_set(eps, b) else 0,
        )

    def check(result, expected):
        error = _cli_error(result)
        if error:
            return error
        kind, omega, tol, defect = expected
        kv = _key_values(result[1])
        if kv.get("kind") != kind:
            return f"kind {kv.get('kind')} vs rule {kind} at ({eps!r}, {b!r})"
        if int(kv["defect"]) != defect:
            return f"defect {kv['defect']} vs {defect} at ({eps!r}, {b!r})"
        return _omega_error(float(kv["omega_star"]), omega, tol)

    argv = ["classify", "--epsilon", repr(eps), "--b", repr(b)]
    return Case("cli.classify", lambda: run_cli(argv), oracle, check)


def _classify_grid(rng: np.random.Generator) -> list[tuple[float, float]]:
    """Seeded (eps, b) points, a third of them on exact boundary relations."""
    n = CLASSIFY_POINTS
    points: list[tuple[float, float]] = []
    for eps in rng.uniform(0.01, 0.99, n // 6):
        points.append((float(eps), math.sqrt(eps)))  # b = sqrt(eps)
    for eps in map(float, np.append(0.0, rng.uniform(0.0, 0.99, n // 6 - 1))):
        points.append((eps, (1.0 + eps) / 2.0))  # b = (1+eps)/2
    points += [(1.0, 1.0)] * 5  # the polynomial blow-up point
    for b in 10.0 ** rng.uniform(-1.5, 1.5, n // 10):
        points.append((1.0, float(b)))  # eps = 1 exactly
    while len(points) < n:
        points.append((float(rng.uniform(0.0, 2.0)), float(10.0 ** rng.uniform(-1.5, 1.5))))
    return points


def _sweep_windows(rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """(eps, b_min, b_max): windows across b = (1+eps)/2, b = sqrt(eps), eps = 1, eps > 1."""
    windows = []
    for _ in range(SWEEP_WINDOWS - 3):
        eps = float(rng.uniform(0.05, 0.95))
        eta = (1.0 + eps) / 2.0
        lo = eta - float(rng.uniform(0.05, 0.5)) * (eta - math.sqrt(eps))
        windows.append((eps, lo, eta + float(rng.uniform(0.05, 0.5))))
    eps = float(rng.uniform(0.05, 0.95))
    root = math.sqrt(eps)
    windows.append((eps, root * float(rng.uniform(0.5, 0.9)), root + 0.5 * ((1.0 + eps) / 2.0 - root)))
    windows.append((1.0, float(rng.uniform(0.3, 0.9)), float(rng.uniform(1.1, 3.0))))
    windows.append((float(rng.uniform(1.05, 2.0)), float(rng.uniform(0.05, 0.5)), float(rng.uniform(1.0, 4.0))))
    return windows


def _sweep_case(eps: float, lo: float, hi: float, n: int) -> Case:
    grid = np.linspace(lo, hi, n)
    eta = (1.0 + eps) / 2.0
    eta_inside = eps < 1.0 and lo < eta < hi

    def oracle():
        mats = np.zeros((n, 4, 4))
        mats[:] = assemble_matrix(Params(eps, 1.0))
        mats[:, 1, 3] = grid
        mats[:, 3, 1] = -grid
        omegas = np.linalg.eigvals(mats).real.max(axis=1)
        tols = np.array([omega_tolerance(eps, float(b)) for b in grid])
        return omegas, tols

    def check(result, expected):
        error = _cli_error(result)
        if error:
            return error
        omegas, tols = expected
        lines = result[1].splitlines()
        if lines[0] != "b,omega_star,defect" or len(lines) != n + 2:
            return f"sweep output has {len(lines)} lines, want header + {n} rows + argmin"
        rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
        if not np.array_equal(rows[:, 0], grid):
            return "sweep b column differs from the requested grid"
        err = np.abs(rows[:, 1] - omegas)
        if not np.all(err <= tols):
            k = int(np.argmax(err - tols))
            return f"sweep row b={grid[k]!r}: omega* {rows[k, 1]!r} vs eigvals {omegas[k]!r}"
        match = re.fullmatch(r"# argmin b=(\S+) omega_star=(\S+) defect=(\d+)", lines[-1])
        if not match:
            return f"bad argmin line {lines[-1]!r}"
        b_best = float(match.group(1))
        k = int(np.searchsorted(grid, b_best))
        if k >= n or grid[k] != b_best:
            return f"argmin b={b_best!r} is not a grid point"
        step = (hi - lo) / (n - 1)
        if eta_inside and abs(b_best - eta) > step:
            return f"argmin b={b_best!r} is more than one step from (1+eps)/2={eta!r}"
        if omegas[k] > omegas.min() + tols[k]:
            return f"argmin b={b_best!r} has omega* {omegas[k]!r} above the minimum {omegas.min()!r}"
        return None

    argv = ["sweep", "--epsilon", repr(eps), "--b-min", repr(lo), "--b-max", repr(hi), "--n", str(n)]
    return Case("cli.sweep", lambda: run_cli(argv), oracle, check, points=n)


def _modes_case(path: Path, mu: np.ndarray, eps: float, b: float) -> Case:
    mu = np.unique(mu)  # the family is a sorted set

    def oracle():
        bounds = mode_bounds(mu, eps, b)
        top = float(bounds.max())
        index = int(np.argmax(bounds >= top - 1e-9 * (1.0 + abs(top))))
        return top, index, bool(mu[0] >= (1.0 - eps) ** 2 / 16.0)

    def check(result, expected):
        error = _cli_error(result)
        if error:
            return error
        top, index, threshold_ok = expected
        kv = _key_values(result[1])
        value = float(kv["family_growth_bound"])
        if int(kv["modes"]) != len(mu):
            return f"modes={kv['modes']}, want {len(mu)}"
        if not abs(value - top) <= 1e-9:
            return f"family bound {value!r} vs palindromic oracle {top!r}"
        if int(kv["attained_mode_index"]) != index:
            return f"attained index {kv['attained_mode_index']} vs {index}"
        if kv["threshold_ok"] != str(threshold_ok):
            return f"threshold_ok={kv['threshold_ok']}, want {threshold_ok}"
        return None

    argv = ["modes", "--modes-file", str(path), "--epsilon", repr(eps), "--b", repr(b)]
    return Case("cli.modes", lambda: run_cli(argv), oracle, check, points=len(mu))


def _write_modes(path: Path, mu: np.ndarray, comment: str) -> None:
    path.write_text(f"# {comment}\n" + "\n".join(repr(float(m)) for m in mu) + "\n")


def regime_map(rng: np.random.Generator, workdir: Path) -> list[Case]:
    cases = [_classify_cli_case(eps, b) for eps, b in _classify_grid(rng)]
    cases += [_sweep_case(eps, lo, hi, SWEEP_N) for eps, lo, hi in _sweep_windows(rng)]

    eps = float(rng.uniform(0.0, 0.95))
    mu = (np.arange(1, DIRICHLET_MODES + 1) * math.pi) ** 2
    path = workdir / "dirichlet.txt"
    _write_modes(path, mu, f"first {DIRICHLET_MODES} Dirichlet eigenvalues on [0, 1]")
    cases.append(_modes_case(path, mu, eps, (1.0 + eps) / 2.0))

    eps = float(rng.uniform(0.0, 0.95))
    mu = 10.0 ** rng.uniform(-3.0, 4.0, RANDOM_MODES)
    path = workdir / "random.txt"
    _write_modes(path, mu, "seeded log-uniform positive family")
    cases.append(_modes_case(path, mu, eps, (1.0 + eps) / 2.0))
    # interleaved, so that the short classify calls sample the whole run
    return [cases[i] for i in rng.permutation(len(cases))]


# ---------------------------------------------------------- point-queries


def _classify_case(eps: float, b: float, known_defect: bool = False) -> Case:
    def oracle():
        return regime_rule(eps, b), eig_omega(eps, b), omega_tolerance(eps, b)

    def check(regime, expected):
        kind, omega, tol = expected
        if regime.kind.value != kind:
            return f"kind {regime.kind.value} vs rule {kind} at ({eps!r}, {b!r})"
        return _omega_error(regime.omega_star, omega, tol) or _sign_error(kind, regime.omega_star)

    return Case("classify", lambda: oscpair.classify(Params(eps, b)), oracle, check,
                known_defect=known_defect)


def _eigenvalues_case(eps: float, b: float, known_defect: bool = False) -> Case:
    def oracle():
        return eig_omega(eps, b), omega_tolerance(eps, b)

    def check(spectrum, expected):
        if not all(map(np.isfinite, spectrum.eigenvalues)):
            return f"non-finite eigenvalues at ({eps!r}, {b!r})"
        return _omega_error(spectrum.omega_star, *expected)

    return Case("closed_form_eigenvalues", lambda: oscpair.closed_form_eigenvalues(Params(eps, b)),
                oracle, check, known_defect=known_defect)


def _growth_bound_case(eps: float, b: float, known_defect: bool = False) -> Case:
    def oracle():
        return regime_rule(eps, b), eig_omega(eps, b), omega_tolerance(eps, b)

    def check(omega, expected):
        kind, want, tol = expected
        return _omega_error(omega, want, tol) or _sign_error(kind, omega)

    return Case("growth_bound", lambda: oscpair.growth_bound(Params(eps, b)), oracle, check,
                known_defect=known_defect)


def _optimal_coupling_case(eps: float) -> Case:
    eta = (1.0 + eps) / 2.0

    def oracle():
        return eig_omega(eps, eta), omega_tolerance(eps, eta)

    def check(result, expected):
        b_opt, omega = result
        if b_opt != eta:
            return f"optimal coupling {b_opt!r} vs (1+eps)/2 = {eta!r}"
        return _omega_error(omega, *expected)

    return Case("optimal_coupling", lambda: oscpair.optimal_coupling(eps), oracle, check)


def _propagator_case(eps: float, b: float, t: float, known_defect: bool = False) -> Case:
    def check(sample, _):
        if not (np.all(np.isfinite(sample.matrix)) and math.isfinite(sample.operator_norm)):
            return f"non-finite propagator at ({eps!r}, {b!r}), t={t!r}"
        want = float(np.linalg.norm(sample.matrix, 2))
        if abs(sample.operator_norm - want) > 1e-10 * want:
            return f"operator norm {sample.operator_norm!r} vs LAPACK {want!r}"
        return None

    return Case("propagator", lambda: oscpair.propagator(Params(eps, b), t), lambda: None, check,
                known_defect=known_defect)


def _mode_bound_case(mu: float, eps: float, b: float, known_defect: bool = False) -> Case:
    def oracle():
        return float(mode_bounds(np.array([mu]), eps, b)[0])

    def check(value, want):
        tol = 1e-9 * (1.0 + math.sqrt(mu) + max(eps, b))
        if not (math.isfinite(value) and abs(value - want) <= tol):
            return f"mode bound {value!r} vs palindromic {want!r} at mu={mu!r} ({eps!r}, {b!r})"
        return None

    return Case("mode_growth_bound", lambda: oscpair.mode_growth_bound(mu, Params(eps, b)),
                oracle, check, known_defect=known_defect)


# Extreme but valid inputs (large b, huge eps, long times, extreme mu).
# They stay in the mix so that the share of those that fail shows in
# fail_frac until the program handles them.  known_defect marks exactly the
# ones that fail in oscpair 0.1.0; a failure of any other one is a regression.
EXTREME_CASES: tuple[Callable[[], Case], ...] = (
    lambda: _growth_bound_case(0.5, 1e8),
    lambda: _growth_bound_case(0.5, 1e100, True),  # 0.0, not negative, in the decay regime
    lambda: _growth_bound_case(1e155, 1.0, True),  # OverflowError
    lambda: _classify_case(0.5, 1e8),
    lambda: _classify_case(0.5, 1e100, True),  # "not an eigenvalue within tolerance"
    lambda: _classify_case(1e155, 1.0, True),  # OverflowError
    lambda: _eigenvalues_case(0.5, 1e100, True),  # "not an eigenvalue within tolerance"
    lambda: _eigenvalues_case(1e155, 1.0, True),  # OverflowError
    lambda: _propagator_case(2.0, 1.0, 1e4, True),  # non-finite matrix
    lambda: _mode_bound_case(1e12, 0.5, 0.75),
    lambda: _mode_bound_case(1e-12, 0.5, 0.75),
)


def point_queries(rng: np.random.Generator, workdir: Path) -> list[Case]:
    del workdir  # no files

    def eps_b() -> tuple[float, float]:
        return float(10.0 ** rng.uniform(-3.0, math.log10(2.0))), float(10.0 ** rng.uniform(-2.0, 2.0))

    n_extreme = round(EXTREME_SHARE * QUERY_CALLS)
    n_optimal = round(OPTIMAL_COUPLING_SHARE * QUERY_CALLS)
    n_each = (QUERY_CALLS - n_extreme - n_optimal) // 5
    cases = [EXTREME_CASES[i]() for i in rng.integers(len(EXTREME_CASES), size=n_extreme)]
    lo, hi = -4.0, math.log10(0.99)
    strata = (np.arange(n_optimal) + rng.uniform(size=n_optimal)) / n_optimal
    cases += [_optimal_coupling_case(float(10.0 ** (lo + u * (hi - lo)))) for u in strata]
    for _ in range(n_each):
        cases.append(_classify_case(*eps_b()))
        cases.append(_eigenvalues_case(*eps_b()))
        cases.append(_growth_bound_case(*eps_b()))
        cases.append(_propagator_case(*eps_b(), float(rng.uniform(0.0, 20.0))))
        cases.append(_mode_bound_case(float(10.0 ** rng.uniform(-3.0, 4.0)), *eps_b()))
    return [cases[i] for i in rng.permutation(len(cases))]


# -------------------------------------------------------------- reproduce

FIGURE_BLOCKS = {f"fig{k}": (3 if k in (1, 3, 4, 7) else 1) for k in range(1, 10)}

_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
_BOUND = re.compile(rf"\(<=\s*({_NUMBER})\)")


def criterion_margins(accept_output: str) -> dict[int, float]:
    """Worst measured/bound ratio of each PASS line that states both.

    The detail is a comma-separated list of clauses such as
    ``max deviation 7.71e-11 (<=1e-7) over 10 random z0`` or
    ``2.27e-08 at defective points (<=1e-4)``; in each clause the measured
    value is the last number before ``(<=bound)``.
    """
    margins = {}
    for match in re.finditer(r"^PASS criterion (\d+): .*\[(.*)\]$", accept_output, re.M):
        ratios = []
        for clause in match.group(2).split(","):
            bound = _BOUND.search(clause)
            values = re.findall(_NUMBER, clause[:bound.start()]) if bound else []
            if values:
                ratios.append(float(values[-1]) / float(bound.group(1)))
        if ratios:
            margins[int(match.group(1))] = max(ratios)
    return margins


def _accept_case() -> Case:
    def check(result, _):
        error = _cli_error(result)
        if error:
            return error
        passed = re.findall(r"^PASS criterion \d+:", result[1], re.M)
        return None if len(passed) == 10 else f"{len(passed)}/10 criteria passed"

    return Case("cli.accept", lambda: run_cli(["accept"]), lambda: None, check)


def _figure_case(figure_id: str, z0: np.ndarray, workdir: Path) -> Case:
    """One ``figure`` call; its check also counts the CSV rows as the points."""
    stem = workdir / figure_id
    argv = ["figure", figure_id, "--out", str(stem), "--z0=" + ",".join(repr(float(c)) for c in z0)]

    def check(result, _):
        error = _cli_error(result)
        if error:
            return error
        blocks = parse_figure_csv(stem.with_suffix(".csv"))
        if len(blocks) != FIGURE_BLOCKS[figure_id]:
            return f"{figure_id}: {len(blocks)} blocks, want {FIGURE_BLOCKS[figure_id]}"
        rows = 0
        for block in blocks:
            states = np.column_stack([block[c] for c in ("u", "x", "v", "y")])
            if not (np.all(np.isfinite(states)) and np.all(np.isfinite(block["E"]))):
                return f"{figure_id}: non-finite values"
            if block["t"][0] != 0.0 or np.max(np.abs(states[0] - z0)) > 1e-12:
                return f"{figure_id}: first row is not z0 at t=0"
            energy = 0.5 * np.sum(states * states, axis=1)
            if np.max(np.abs(energy - block["E"]) / np.maximum(energy, 1e-300)) > 1e-12:
                return f"{figure_id}: E column differs from (u^2+x^2+v^2+y^2)/2"
            rows += len(block["t"])
        case.points = rows
        return None

    case = Case("cli.figure", lambda: run_cli(argv), lambda: None, check, points=0)
    return case


def reproduce(rng: np.random.Generator, workdir: Path) -> list[Case]:
    cases = [_accept_case()]
    for figure_id in FIGURE_BLOCKS:
        z0 = rng.standard_normal(4)
        cases.append(_figure_case(figure_id, z0 / np.linalg.norm(z0), workdir))
    return cases


def generate(workload: str, seed: int, workdir: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    build = {"regime-map": regime_map, "point-queries": point_queries, "reproduce": reproduce}[workload]
    return build(rng, workdir)
