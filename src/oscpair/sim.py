"""Time-domain engine: propagators, trajectories, growth measurement.

The propagator S(t) = exp(t*A) is evaluated by scaling-and-squaring
rather than eigendecomposition: the parameter pairs where the spectrum
is defective, (eps=1, b=1) and (eps<1, b=(1+eps)/2), are exactly the
interesting ones, and an eigenvector basis degenerates there while the
matrix exponential does not care.

The ODE is linear with constant coefficients, so uniform time grids are
stepped exactly, z_{k+1} = S(dt) z_k.  A trajectory also carries the
integral of epsilon*y^2 - x^2 over each step, from the same 8x8 block
exponential (Van Loan 1978), so it checks itself against the exact
energy balance E(t) - E(0) = int_0^t (epsilon*y^2 - x^2) ds.  Norms
past 1e100 raise a typed error instead of overflowing to inf or NaN.

Every matrix exponential goes through the module name ``expm``, which
imports ``scipy.linalg`` on its first call: ``import oscpair`` loads
numpy and the standard library only, so the spectral entry points never
pay for scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import Params, State, assemble_matrix
from .spectrum import growth_bound

__all__ = [
    "IntegrationError",
    "FitError",
    "PropagatorSample",
    "Trajectory",
    "FitResult",
    "operator_norm",
    "propagator",
    "integrate",
    "explicit_solution_eps1_b1",
    "asymptotic_propagator",
    "norm_growth_fit",
    "periodic_portrait_check",
]

_NORM_OVERFLOW = 1e100


class _LazyExpm:
    """``scipy.linalg.expm``, imported on the first call and kept."""

    def __init__(self) -> None:
        self._expm = None

    def __call__(self, a: np.ndarray) -> np.ndarray:
        if self._expm is None:
            from scipy.linalg import expm

            self._expm = expm
        return self._expm(a)


# An instance, not a def: perfbench's tracer wraps ``sim.expm`` by name and,
# separately, every public function of the package, so a def would be
# counted twice per call.
expm = _LazyExpm()


class IntegrationError(RuntimeError):
    """Time stepping failed: overflow past the 1e100 guard, or a failed recurrence."""


class FitError(RuntimeError):
    """Norm-growth fit rejected (overflow or excessive residual)."""


@dataclass(frozen=True)
class PropagatorSample:
    """Propagator matrix S(t) with its operator norm attached."""

    t: float
    matrix: np.ndarray
    operator_norm: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, 4-column states, energies, dissipation.

    ``dissipated[k]`` is the integral of epsilon*y^2 - x^2 from 0 to
    times[k], accumulated by the integrator itself; the exact balance
    energies[k] - energies[0] = dissipated[k] holds up to rounding.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    dissipated: np.ndarray

    def state(self, k: int) -> State:
        return State.from_array(self.states[k])

    @property
    def final_state(self) -> State:
        return self.state(-1)


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value, by LAPACK's SVD.

    Equals ``np.linalg.norm(matrix, 2)`` at half its call overhead.
    Raises ValueError on inf or NaN entries.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("operator norm of a matrix with non-finite entries")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def propagator(p: Params, t: float) -> PropagatorSample:
    """Propagator S(t) = exp(t*A) by scaling-and-squaring.

    Accurate at the defective parameter pairs where eigendecomposition
    breaks down.  Rejects negative or non-finite t, and raises
    IntegrationError when the norm of S(t) passes 1e100.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"propagator time must be finite and >= 0, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = expm(t * assemble_matrix(p))
    nrm = operator_norm(m) if np.isfinite(m).all() else math.inf
    if nrm > _NORM_OVERFLOW:
        raise IntegrationError(f"propagator norm {nrm:.3e} exceeds overflow guard at t={t:g}")
    return PropagatorSample(t=t, matrix=m, operator_norm=nrm)


def _march(step: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """Stack of start, step @ start, ..., step^n @ start along axis 0."""
    out = np.empty((n + 1,) + start.shape)
    out[0] = start
    for k in range(n):
        np.matmul(step, out[k], out=out[k + 1])
    return out


def integrate(
    p: Params,
    z0: State,
    t_end: float,
    tol: float = 1e-10,
    samples: int = 800,
) -> Trajectory:
    """Exact trajectory of z' = A z from z0 on ``samples`` equal steps.

    With dt = t_end/samples, expm(dt * [[-A^T, Q], [0, A]]) with
    Q = diag(0, -1, 0, epsilon) holds the step S(dt) in its lower-right
    block, and S(dt)^T times its upper-right block is the Gram matrix
    W = int_0^dt exp(s A^T) Q exp(s A) ds (Van Loan 1978).  The states are
    z_{k+1} = S(dt) z_k; ``dissipated`` sums z_k^T W z_k, independently of
    the energies.  This is exact up to rounding, so ``tol`` (still required
    > 0) no longer picks a step size.  Raises IntegrationError once a
    state's norm passes 1e100.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    m = assemble_matrix(p)
    q = np.diag([0.0, -1.0, 0.0, p.epsilon])
    block = np.block([[-m.T, q], [np.zeros((4, 4)), m]])
    with np.errstate(over="ignore", invalid="ignore"):
        van_loan = expm((t_end / samples) * block)
    if not np.isfinite(van_loan).all():
        raise IntegrationError(f"step exponential overflows at dt={t_end / samples:g}")
    step = van_loan[4:, 4:]
    gram = step.T @ van_loan[:4, 4:]

    times = np.linspace(0.0, t_end, samples + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        states = _march(step, z0.as_array(), samples)
        energies = 0.5 * np.sum(states * states, axis=1)
    # E = |z|^2 / 2, so this flags |z| > 1e100; the negation also flags NaN
    over = np.flatnonzero(~(energies <= 0.5 * _NORM_OVERFLOW**2))
    if over.size:
        raise IntegrationError(f"state norm exceeds overflow guard at t={times[over[0]]:g}")
    gains = np.sum((states[:-1] @ gram) * states[:-1], axis=1)
    return Trajectory(
        times=times,
        states=states,
        energies=energies,
        dissipated=np.concatenate(([0.0], np.cumsum(gains))),
    )


def explicit_solution_eps1_b1(z0: State, t: float) -> State:
    """Exact solution at the defective point eps = 1, b = 1.

    The displacement components are

        u(t) = [(2u0 - t u0 + t v0) cos t
                + (u0 - v0 + 2x0 - t x0 + t y0) sin t] / 2
        v(t) = [(-t u0 + 2v0 + t v0) cos t
                + (u0 - v0 - t x0 + 2y0 + t y0) sin t] / 2

    and the velocities are their exact derivatives.  The linear-in-t
    amplitudes are the polynomial blow-up of the defective spectrum made
    explicit; this function is the oracle the integrator and propagator
    are tested against.
    """
    u0, x0, v0, y0 = z0.u, z0.x, z0.v, z0.y
    ct, st = math.cos(t), math.sin(t)
    u = 0.5 * ((2 * u0 - t * u0 + t * v0) * ct + (u0 - v0 + 2 * x0 - t * x0 + t * y0) * st)
    x = 0.5 * ((2 * x0 - t * x0 + t * y0) * ct + (t * u0 - 2 * u0 - t * v0 - x0 + y0) * st)
    v = 0.5 * ((-t * u0 + 2 * v0 + t * v0) * ct + (u0 - v0 - t * x0 + 2 * y0 + t * y0) * st)
    y = 0.5 * ((2 * y0 - t * x0 + t * y0) * ct + (t * u0 - 2 * v0 - t * v0 - x0 + y0) * st)
    return State(u, x, v, y)


def asymptotic_propagator(b: float, t: float) -> np.ndarray:
    """Large-b limit of the propagator at eps = 1.

    Block rotation form: the displacements (u, v) rotate slowly with
    angular frequency 1/b while the velocities (x, y) counter-rotate
    fast with frequency b.  Valid as an approximation for eps = 1 and
    large b; exact only in the b -> infinity limit.
    """
    if not b > 1.0:
        raise ValueError(f"asymptotic form requires b > 1, got {b}")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and >= 0, got {t}")
    cs, ss = math.cos(t / b), math.sin(t / b)
    cf, sf = math.cos(b * t), math.sin(b * t)
    return np.array(
        [
            [cs, 0.0, -ss, 0.0],
            [0.0, cf, 0.0, sf],
            [ss, 0.0, cs, 0.0],
            [0.0, -sf, 0.0, cf],
        ]
    )


class FitResult(NamedTuple):
    rate: float
    poly_degree: float
    log_amplitude: float
    rms_residual: float


def _trend_lstsq(ts: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, float]:
    design = np.column_stack([np.ones_like(ts), np.log1p(ts), ts])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - logs) ** 2)))
    return coef, rms


def norm_growth_fit(
    p: Params,
    t_max: float | None = None,
    samples: int = 400,
    max_rms: float = 1.0,
) -> FitResult:
    """Fit log ||S(t)|| ~ log C + d*log(1+t) + w*t over [t_max/2, t_max].

    Measures the exponential rate w and the polynomial correction degree
    d of the propagator norm.  The fit window starts at t_max/2 to
    suppress transients.  When ``t_max`` is omitted it defaults to 60 in
    blowing-up regimes (overflow guard) and 200 otherwise.

    The grid is stepped exactly, S(t + dt) = S(dt) S(t), and the norms
    come from one batched SVD.

    When the dominant eigenvalues are regular and complex, the norm
    oscillates periodically around its envelope and a plain least-squares
    fit leaks the oscillation into the trend columns.  In that case the
    fit is repeated through the local maxima of the detrended signal:
    the envelope touch points recur at a common phase, so they lie
    exactly on the trend and carry no oscillation bias.

    Raises FitError if a sampled norm exceeds 1e100 or the fit residual
    exceeds ``max_rms``.
    """
    if t_max is None:
        t_max = 60.0 if growth_bound(p) > 1e-12 else 200.0
    m = assemble_matrix(p)
    ts, dt = np.linspace(t_max / 2.0, t_max, samples, retstep=True)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _march(expm(dt * m), expm(ts[0] * m), samples - 1)
    finite = np.isfinite(stack).all(axis=(1, 2))
    norms = np.full(samples, math.inf)
    norms[finite] = np.linalg.norm(stack[finite], 2, axis=(1, 2))
    over = np.flatnonzero(norms > _NORM_OVERFLOW)
    if over.size:
        k = over[0]
        raise FitError(f"propagator norm {norms[k]:.3e} exceeds overflow guard at t={ts[k]:g}")
    logs = np.log(norms)

    coef, rms = _trend_lstsq(ts, logs)
    if rms > 1e-2:
        design = np.column_stack([np.ones_like(ts), np.log1p(ts), ts])
        for _ in range(2):
            resid = logs - design @ coef
            peaks = 1 + np.flatnonzero((resid[1:-1] >= resid[:-2]) & (resid[1:-1] > resid[2:]))
            if peaks.size < 4:
                break
            coef, rms = _trend_lstsq(ts[peaks], logs[peaks])
    if rms > max_rms:
        raise FitError(f"norm-growth fit residual {rms:.3e} exceeds {max_rms:g}")
    return FitResult(
        rate=float(coef[2]),
        poly_degree=float(coef[1]),
        log_amplitude=float(coef[0]),
        rms_residual=rms,
    )


def periodic_portrait_check(
    b: float,
    t_max: float = 200.0,
    ratio_tol: float = 1e-9,
    recurrence_tol: float = 1e-6,
) -> tuple[bool, float]:
    """Decide whether the eps = 1, b > 1 phase portrait is periodic.

    The two angular frequencies are w+- = (sqrt(b^2+3) +- sqrt(b^2-1))/2
    and the portrait closes iff their ratio is rational.  Rationality is
    decided by continued-fraction approximation with denominators capped
    at 1e4; float input cannot certify rationality beyond that scale.
    Returns (True, T) with T the common period, or (False, nan).

    Either verdict is cross-checked against the trajectory z(t) = S(t)z0
    with z0 = (1,0,0,0): a periodic verdict must recur to within
    ``recurrence_tol`` at T, an aperiodic one must not recur anywhere on
    a uniform grid over [0.5, t_max], stepped exactly by S(dt).
    Violations raise IntegrationError.
    """
    if not b > 1.0:
        raise ValueError(f"periodicity check requires b > 1, got {b}")
    w_plus = (math.sqrt(b * b + 3.0) + math.sqrt(b * b - 1.0)) / 2.0
    w_minus = (math.sqrt(b * b + 3.0) - math.sqrt(b * b - 1.0)) / 2.0
    ratio = w_plus / w_minus
    frac = Fraction(ratio).limit_denominator(10_000)
    is_periodic = abs(ratio - float(frac)) <= ratio_tol

    m = assemble_matrix(Params(1.0, b))
    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    if is_periodic:
        period = 2.0 * math.pi * frac.denominator / w_minus
        gap = float(np.linalg.norm(expm(period * m) @ z0 - z0))
        if gap > recurrence_tol:
            raise IntegrationError(
                f"predicted period {period:g} fails recurrence: gap {gap:.3e}"
            )
        return True, period
    ts, dt = np.linspace(0.5, t_max, 1024, retstep=True)
    orbit = _march(expm(dt * m), expm(ts[0] * m) @ z0, len(ts) - 1)
    hits = np.flatnonzero(np.linalg.norm(orbit - z0, axis=1) <= recurrence_tol)
    if hits.size:
        raise IntegrationError(
            f"aperiodic verdict contradicted by recurrence at t={ts[hits[0]]:g}"
        )
    return False, math.nan
