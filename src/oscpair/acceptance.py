"""Acceptance suite: the checks that gate a release of this package.

Each criterion is an independent, self-contained verification of one
headline property, run at fixed tolerances against independent oracles
(LAPACK eigensolvers, polynomial residuals, the explicit defective-case
solution, trajectory recurrence).  ``run_all`` prints one PASS/FAIL
line per criterion and is wired to the ``accept`` CLI verb; the pytest
suite runs the same criteria.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

import numpy as np

from .core import Params, State, assemble_matrices
from .modal import ModeFamily, dirichlet_modes, family_growth_bound
from .sim import (
    asymptotic_propagator,
    explicit_propagator_eps1_b1,
    integrate,
    norm_growth_fit,
    operator_norm,
    periodic_portrait_check,
    propagator,
)
from .spectrum import (
    RegimeKind,
    classify,
    closed_form_eigenvalues,
    growth_bound,
    minimize_growth_bound,
    palindromic_roots,
)

__all__ = ["Criterion", "CRITERIA", "run_all"]

_SEED = 20260809


class Criterion(NamedTuple):
    number: int
    title: str
    run: Callable[[], tuple[bool, str]]


def _criterion_1() -> tuple[bool, str]:
    """Closed-form roots: quartic residuals and eigensolver agreement."""
    eps, b = (g.ravel() for g in np.meshgrid(np.arange(21) / 10.0, np.arange(1, 101) / 20.0))
    lams = palindromic_roots(eps, b)
    e, c = eps[:, None], b[:, None]  # Horner, as np.polyval on (1, 1-e, 2+c^2-e, 1-e, 1)
    poly = (((lams + (1.0 - e)) * lams + (2.0 + c * c - e)) * lams + (1.0 - e)) * lams + 1.0
    worst_res = float(np.max(np.abs(poly) / (1.0 + np.abs(lams) ** 4)))
    eigs = np.linalg.eigvals(assemble_matrices(eps, b))
    dist = np.abs(lams[:, :, None] - eigs[:, None, :])
    hausdorff = np.maximum(dist.min(axis=2).max(axis=1), dist.min(axis=1).max(axis=1))
    defective = np.abs(b - (1.0 + eps) / 2.0) < 1e-9
    worst_match = float(hausdorff[~defective].max())
    worst_match_def = float(hausdorff[defective].max())
    ok = worst_res <= 1e-9 and worst_match <= 1e-8 and worst_match_def <= 1e-4
    return ok, (
        f"scaled residual {worst_res:.2e} (<=1e-9), oracle distance "
        f"{worst_match:.2e} (<=1e-8), {worst_match_def:.2e} at defective points (<=1e-4)"
    )


_REGIME_TABLE = [
    (2.0, 1.0, RegimeKind.EXP_BLOWUP),
    (2.0, 7.0, RegimeKind.EXP_BLOWUP),
    (1.5, 0.3, RegimeKind.EXP_BLOWUP),
    (1.0, 0.5, RegimeKind.EXP_BLOWUP),
    (1.0, 1.0, RegimeKind.POLY_BLOWUP),
    (1.0, 2.0, RegimeKind.BOUNDED_NON_DECAYING),
    (0.5, 0.5, RegimeKind.EXP_BLOWUP),
    (0.5, math.sqrt(0.5), RegimeKind.BOUNDED_NON_DECAYING),
    (0.5, 0.75, RegimeKind.EXP_DECAY),
    (0.5, 2.0, RegimeKind.EXP_DECAY),
    (0.0, 0.5, RegimeKind.EXP_DECAY),
    (0.9, math.sqrt(0.9), RegimeKind.BOUNDED_NON_DECAYING),
]


def _criterion_2() -> tuple[bool, str]:
    """Regime table reproduced at 12 boundary and interior points."""
    failures = []
    for eps, b, want in _REGIME_TABLE:
        got = classify(Params(eps, b))
        if got.kind is not want:
            failures.append(f"({eps:g},{b:g}): got {got.kind.value}, want {want.value}")
        if want is RegimeKind.POLY_BLOWUP and got.defect_penalty != 1:
            failures.append(f"({eps:g},{b:g}): degree {got.defect_penalty}, want 1")
    return not failures, "; ".join(failures) if failures else "12/12 points classified"


def _criterion_3() -> tuple[bool, str]:
    """Reference constants: growth bound, defective spectra, defects."""
    issues = []
    gb = growth_bound(Params(0.5, 0.75))
    if abs(gb - (-0.125)) > 1e-12:
        issues.append(f"growth bound at (0.5,0.75) = {gb!r}")
    spectrum = closed_form_eigenvalues(Params(0.0, 0.5))
    want = 0.25 * complex(-1.0, math.sqrt(15.0))
    for target in (want, want.conjugate()):
        hits = sum(1 for lam in spectrum.eigenvalues if abs(lam - target) <= 1e-9)
        if hits != 2:
            issues.append(f"root {target} multiplicity {hits} at (0,0.5)")
    for eps, b in ((1.0, 1.0), (0.5, 0.75), (0.0, 0.5)):
        defects = closed_form_eigenvalues(Params(eps, b)).defects
        if defects != (1, 1, 1, 1):
            issues.append(f"defects {defects} at ({eps:g},{b:g})")
    return not issues, "; ".join(issues) if issues else "constants match"


def _criterion_4() -> tuple[bool, str]:
    """Numerical minimization recovers the optimal coupling."""
    worst_b = 0.0
    worst_v = 0.0
    for eps in (0.0, 0.25, 0.5, 0.9):
        b_opt, val = minimize_growth_bound(eps, math.sqrt(eps) + 1e-4, 10.0)
        worst_b = max(worst_b, abs(b_opt - (1.0 + eps) / 2.0))
        worst_v = max(worst_v, abs(val - (eps - 1.0) / 4.0))
    ok = worst_b <= 1e-6 and worst_v <= 1e-9
    return ok, f"argmin error {worst_b:.2e} (<=1e-6), value error {worst_v:.2e} (<=1e-9)"


def _criterion_5() -> tuple[bool, str]:
    """Norm-growth fits recover (rate, degree) at three reference points."""
    start = time.perf_counter()
    cases = [
        (Params(1.0, 1.0), 0.0, 1.0),
        (Params(0.5, 0.75), -0.125, 1.0),
        (Params(0.0, 0.5), -0.25, 1.0),
    ]
    issues = []
    for p, w_want, d_want in cases:
        fit = norm_growth_fit(p)
        if abs(fit.rate - w_want) > 0.02 or abs(fit.poly_degree - d_want) > 0.15:
            issues.append(
                f"({p.epsilon:g},{p.b:g}): rate {fit.rate:+.4f} vs {w_want:+.3f}, "
                f"degree {fit.poly_degree:.3f} vs {d_want:g}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        issues.append(f"runtime {elapsed:.1f}s >= 10s")
    return not issues, "; ".join(issues) if issues else f"3 fits in {elapsed:.1f}s"


def _criterion_6() -> tuple[bool, str]:
    """Integrator agrees with the explicit defective-case solution."""
    rng = np.random.default_rng(_SEED)
    p = Params(1.0, 1.0)
    worst = 0.0
    for _ in range(10):
        z0 = rng.standard_normal(4)
        traj = integrate(p, State.from_array(z0), 50.0, samples=500)
        exact = explicit_propagator_eps1_b1(traj.times) @ z0
        worst = max(worst, float(np.abs(traj.states - exact).max()))
    return worst <= 1e-7, f"max deviation {worst:.2e} (<=1e-7) over 10 random z0"


def _criterion_7() -> tuple[bool, str]:
    """Propagator converges to its large-b asymptotic form at eps = 1."""
    ts = np.linspace(0.0, 20.0, 1601)
    sups = []
    for b in (10.0, 50.0, 200.0):
        p = Params(1.0, b)
        exact = np.array([propagator(p, t).matrix for t in ts.tolist()])
        sups.append(float(operator_norm(exact - asymptotic_propagator(b, ts)).max()))
    ok = sups[0] > sups[1] > sups[2]
    return ok, "sup differences " + " > ".join(f"{s:.4f}" for s in sups)


def _criterion_8() -> tuple[bool, str]:
    """Rational frequency ratios recur; b = sqrt(2) does not."""
    issues = []
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    for q in (2, 3, 4, 9):
        b = math.sqrt(q + 1.0 / q - 1.0)
        periodic, period = periodic_portrait_check(b)
        if not periodic:
            issues.append(f"q={q}: not detected periodic")
            continue
        gap = float(np.linalg.norm(propagator(Params(1.0, b), period).matrix @ z0 - z0))
        if gap > 1e-6:
            issues.append(f"q={q}: recurrence gap {gap:.2e}")
    periodic, _ = periodic_portrait_check(math.sqrt(2.0))
    if periodic:
        issues.append("b=sqrt(2) wrongly detected periodic")
    return not issues, "; ".join(issues) if issues else "q in {2,3,4,9} recur; sqrt(2) does not"


def _criterion_9() -> tuple[bool, str]:
    """Energy balance |dE - integral of (eps*y^2 - x^2)| on trajectories."""
    rng = np.random.default_rng(_SEED + 9)
    cases = [
        (Params(1.0, 1.0), 50.0),
        (Params(0.5, 0.75), 50.0),
        (Params(1.0, 2.0), 100.0),
        (Params(2.0, 1.0), 5.0),
        (Params(0.5, math.sqrt(0.5)), 100.0),
        (Params(0.0, 0.5), 50.0),
    ]
    worst = 0.0
    for p, t_end in cases:
        z0 = State.from_array(rng.standard_normal(4))
        traj = integrate(p, z0, t_end)
        resid = np.abs((traj.energies - traj.energies[0]) - traj.dissipated)
        worst = max(worst, float(resid.max()))
    return worst <= 1e-8, f"max balance residual {worst:.2e} (<=1e-08)"


def _criterion_10() -> tuple[bool, str]:
    """Modal family: full rate at the Dirichlet family, degraded below threshold."""
    start = time.perf_counter()
    p = Params(0.5, 0.75)
    family = dirichlet_modes(64)
    bound = family_growth_bound(family, p)
    issues = []
    if abs(bound.value - (-0.125)) > 1e-9:
        issues.append(f"family bound {bound.value!r} vs -0.125")
    if bound.index != 0:
        issues.append(f"bound attained at mode index {bound.index}, want 0")
    small = ModeFamily((0.001,) + family.mu)
    degraded = family_growth_bound(small, p)
    if not degraded.value > -0.125:
        issues.append(f"prepended mu=0.001 bound {degraded.value!r} not above -0.125")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        issues.append(f"runtime {elapsed:.1f}s >= 5s")
    return not issues, "; ".join(issues) if issues else (
        f"bound {bound.value:.12f} at mode {bound.index}, "
        f"degraded to {degraded.value:.6f} with mu=0.001, {elapsed:.1f}s"
    )


CRITERIA = [
    Criterion(1, "eigenvalue residuals and eigensolver agreement on the parameter grid", _criterion_1),
    Criterion(2, "regime classification table at 12 reference points", _criterion_2),
    Criterion(3, "reference spectral constants and defects", _criterion_3),
    Criterion(4, "optimal coupling recovered by numerical minimization", _criterion_4),
    Criterion(5, "norm-growth fits match (rate, polynomial degree)", _criterion_5),
    Criterion(6, "integrator matches the explicit solution at (eps=1, b=1)", _criterion_6),
    Criterion(7, "asymptotic propagator comparison improves with b", _criterion_7),
    Criterion(8, "periodic portraits for rational frequency ratios", _criterion_8),
    Criterion(9, "energy balance on acceptance trajectories", _criterion_9),
    Criterion(10, "modal threshold and first-eigenvalue degradation", _criterion_10),
]


def run_all(numbers: set[int] | None = None) -> bool:
    """Run the selected criteria (all by default); ValueError on an empty or unknown selection."""
    chosen = [crit for crit in CRITERIA if numbers is None or crit.number in numbers]
    if numbers is not None:
        if unknown := sorted(set(numbers).difference(crit.number for crit in chosen)):
            raise ValueError(f"unknown criteria {unknown}, expected 1..{len(CRITERIA)}")
        if not chosen:
            raise ValueError(f"no criteria selected, expected 1..{len(CRITERIA)}")
    all_ok = True
    for crit in chosen:
        try:
            ok, detail = crit.run()
        except Exception as exc:  # a crashed criterion is a failed criterion
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} criterion {crit.number}: {crit.title} [{detail}]")
    return all_ok
