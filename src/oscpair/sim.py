"""Time-domain engine: propagators, trajectories, growth measurement.

The propagator S(t) = exp(t*A) is evaluated by scaling-and-squaring
rather than eigendecomposition: the parameter pairs where the spectrum
is defective, (eps=1, b=1) and (eps<1, b=(1+eps)/2), are exactly the
interesting ones, and an eigenvector basis degenerates there while the
matrix exponential does not care.

The ODE is linear with constant coefficients, so uniform time grids are
stepped exactly, z_m = S(dt)^m z_0.  The n steps run in blocks of
k ~ sqrt(n), z_{jk+i} = S(dt)^i z_{jk}: the powers and the block starts
take one product each and every other state comes from one batched
product, so a grid costs about 2 sqrt(n) Python-level products, not n.
A trajectory reads the integral of epsilon*y^2 - x^2 over a step from
the step itself, W = (S^T S - I)/2, as (A + A^T)/2 = diag(0, -1, 0,
epsilon), and checks the step's traces against the closed-form spectrum;
a gap past 1e-6, or a norm past 1e100, raises a typed error.

Every matrix exponential goes through the private ``_expm``, which runs
scipy's scaling-and-squaring path (Al-Mohy & Higham 2009) on one 4x4
matrix by calling its two compiled Padé kernels, without the per-call
wrapper of ``scipy.linalg.expm``, and does the squarings with
``ndarray.dot``, the same BLAS gemm as ``@`` without the ufunc dispatch;
the result is bit-identical.  The kernels are imported on the first
call: ``import oscpair`` loads numpy and the standard library only, so
the spectral entry points never pay for scipy.  Only :func:`propagator`
calls it; trajectories and the growth fit take their step S(dt) from it
through ``_step``, which adds the trace check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import Params, State, assemble_matrix
from .spectrum import RegimeKind, classify, palindromic_roots

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
    "explicit_propagator_eps1_b1",
    "asymptotic_propagator",
    "norm_growth_fit",
    "periodic_portrait_check",
]

_NORM_OVERFLOW = 1e100
# largest power of a step that _march multiplies by an anchor
_POWER_CAP = 1e150
# largest gap of integrate's step traces from the spectrum, relative to their scale
_TRACE_GAP_CAP = 1e-6
_MAX_RMS = 1.0  # largest rms residual of norm_growth_fit's trend
_FIT_SAMPLES = 400  # norm_growth_fit's sample times
# periodic_portrait_check: relative frequency-ratio tolerance, times the
# ratio's condition number, largest recurrence gap |z(T) - z0|, and the
# end of the aperiodic scan
_RATIO_TOL, _RECURRENCE_TOL, _SCAN_T_MAX = 1e-14, 1e-6, 200.0


class IntegrationError(RuntimeError):
    """Time stepping failed: overflow past the 1e100 guard, or a failed recurrence."""


class FitError(RuntimeError):
    """Norm-growth fit rejected (overflow or excessive residual)."""


@functools.cache
def _pade_kernels():
    """scipy's compiled kernels ``pick_pade_structure`` and ``pade_UV_calc``."""
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    return pick_pade_structure, pade_UV_calc


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for one float 4x4 matrix, bit-identical to ``scipy.linalg.expm``.

    It is scipy's generic path: ``pick_pade_structure`` picks the Padé
    order m and scales the powers of a by 2^-s in a (5, 4, 4) workspace,
    ``pade_UV_calc`` overwrites its first slot with the Padé approximant,
    and s squarings follow.  The squarings call ``ndarray.dot``: the same
    BLAS gemm as ``@``, at about half the cost of a 4x4 product, as it
    skips the ufunc dispatch.  scipy's diagonal and triangular shortcuts are
    left out: a system matrix times t > 0 has entries on both sides of the
    diagonal, and at t = 0 the generic path gives the same identity.
    Raises MemoryError on a kernel's allocation code, as scipy does, and
    IntegrationError (a RuntimeError, as scipy raises) on a LAPACK code.
    """
    pick, pade = _pade_kernels()
    work = np.empty((5, 4, 4))
    work[0] = a
    m, s = pick(work)
    if m < 0:
        raise MemoryError(f"matrix exponential could not allocate the Padé structure (code {m})")
    info = pade(work, m)
    if info <= -11:
        raise MemoryError(f"matrix exponential could not allocate its workspace (code {info})")
    if info != 0:
        raise IntegrationError(f"matrix exponential got an internal LAPACK error (code {info})")
    out = work[0]
    for _ in range(s):
        out = out.dot(out)
    return out if s else out.copy()


@dataclass(frozen=True)
class PropagatorSample:
    """Propagator matrix S(t); its operator norm is computed on first read."""

    t: float
    matrix: np.ndarray

    @functools.cached_property
    def operator_norm(self) -> float:
        return operator_norm(self.matrix)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, 4-column states, energies, dissipation.

    ``dissipated[k]`` is the integral of epsilon*y^2 - x^2 from 0 to
    times[k], the sum of z_m^T W z_m over the earlier steps S, W = (S^T S - I)/2;
    energies[k] - energies[0] = dissipated[k] is an identity up to rounding.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    dissipated: np.ndarray


def operator_norm(matrix: np.ndarray) -> float | np.ndarray:
    """Largest singular value of a matrix (a float), or of each in a stack (..., n, n).

    Bit-identical to ``np.linalg.norm(matrix, 2, axis=(-2, -1))`` at lower
    call overhead.  Raises ValueError on any inf or NaN entry.
    """
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("operator norm of a matrix with non-finite entries")
    top = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(top) if m.ndim == 2 else top


def propagator(p: Params, t: float) -> PropagatorSample:
    """Propagator S(t) = exp(t*A) by scaling-and-squaring.

    Accurate at the defective parameter pairs where eigendecomposition
    breaks down.  Rejects negative or non-finite t, and raises
    IntegrationError when the norm of S(t) passes 1e100.  The norm is at
    most 4 times the largest entry, so it is computed here only when that
    entry passes 2.5e99, and kept in the sample; otherwise it is computed
    on the sample's first read.  A non-finite S(t) is an overflow only
    where the spectrum lets the norm pass 1e100, omega* t + d ln t >=
    ln(1e100) with d the defect penalty (t > 1), or the spectrum itself is
    not finite; otherwise it is a step that double precision cannot
    resolve, and the IntegrationError says so.
    """
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"propagator time must be finite and >= 0, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = _expm(t * assemble_matrix(p))
    sample = PropagatorSample(t=t, matrix=m)
    if not np.abs(m).max() <= _NORM_OVERFLOW / 4.0:  # the negation also flags NaN
        finite = np.isfinite(m).all()
        if not finite:
            try:  # log of the envelope e^(omega* t) t^d of the norm
                regime = classify(p)
                growth = regime.omega_star * t + regime.defect_penalty * math.log(max(t, 1.0))
            except ArithmeticError:  # the spectrum itself overflows: no bound to keep S(t) in
                growth = math.inf
            if growth < math.log(_NORM_OVERFLOW):
                raise IntegrationError(
                    f"propagator S(t) is not finite at t={t:g}: "
                    "the step cannot be resolved at double precision"
                )
        nrm = sample.operator_norm if finite else math.inf
        if nrm > _NORM_OVERFLOW:
            raise IntegrationError(f"propagator norm {nrm:.3e} exceeds overflow guard at t={t:g}")
    return sample


def _march(step: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """Stack of start, step @ start, ..., step^n @ start along axis 0.

    Blocked, with k about sqrt(n + 1): the powers P_i = step^i for
    0 < i < k and the anchors a_j = (step^k)^j @ start take one product
    each, and row j*k + i, P_i @ a_j, comes from one batched product, so
    about 2 sqrt(n) products run one at a time.  A power past 1e150 ends
    the powers early, so every power and step^k stay finite and a zero
    start stays exactly zero; k = 1 is the plain loop.
    """
    d = len(step)
    k = max(1, math.isqrt(n + 1))
    powers = [step]
    while len(powers) < k and np.abs(powers[-1]).max() <= _POWER_CAP:
        powers.append(step @ powers[-1])
    k = len(powers)
    blocks = -(-(n + 1) // k)
    cols = start.reshape(d, -1)
    out = np.empty((blocks, k) + cols.shape)
    out[0, 0] = cols
    for j in range(blocks - 1):
        np.matmul(powers[-1], out[j, 0], out=out[j + 1, 0])
    if k > 1:
        # every P_i times every anchor as one ((k-1)d x d) @ (d x blocks*c) product
        anchors = np.moveaxis(out[:, 0], 0, 1).reshape(d, -1)
        fill = np.concatenate(powers[:-1]) @ anchors
        out[:, 1:] = fill.reshape(k - 1, d, blocks, -1).transpose(2, 0, 1, 3)
    return out.reshape((blocks * k,) + start.shape)[: n + 1]


def _trace_gap(p: Params, dt: float, step: np.ndarray) -> float:
    """Larger gap of tr S^k from the sum of exp(k lambda dt), k = 1, 2, each
    relative to 1 + the sum of |exp(k lambda dt)|, lambda from the closed form.

    Traces do not see the Jordan structure, so defective steps compare
    exactly.
    """
    with np.errstate(all="ignore"):  # a NaN gap fails the caller's check
        e = np.exp(palindromic_roots(p.epsilon, p.b) * dt)
        return float(max(abs(np.trace(s) - np.sum(f)) / (1.0 + np.sum(np.abs(f)))
                         for s, f in ((step, e), (step @ step, e * e))))


def _step(p: Params, dt: float) -> np.ndarray:
    """The step S(dt) from :func:`propagator`, refused as too long to resolve
    when its :func:`_trace_gap` from the closed-form spectrum passes 1e-6."""
    step = propagator(p, dt).matrix
    gap = _trace_gap(p, dt, step)
    if not gap <= _TRACE_GAP_CAP:
        raise IntegrationError(f"step too long to resolve at dt={dt:g}: trace gap {gap:.3e}")
    return step


def integrate(
    p: Params,
    z0: State,
    t_end: float,
    samples: int = 800,
) -> Trajectory:
    """Exact trajectory of z' = A z from z0 on ``samples`` equal steps.

    With dt = t_end/samples and S = S(dt) from :func:`propagator`, the
    states are z_m = S^m z0, stepped in blocks of about sqrt(samples)
    steps.  As (A + A^T)/2 = diag(0, -1, 0, epsilon), the Gram matrix of
    epsilon*y^2 - x^2 over a step is W = (S^T S - I)/2, and ``dissipated``
    sums z_m^T W z_m.  Raises IntegrationError when the norm of S or of a
    state passes 1e100, and for a step too long to resolve: one whose
    :func:`_trace_gap` from the closed-form spectrum passes 1e-6.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    dt = t_end / samples
    step = _step(p, dt)
    gram = 0.5 * (step.T @ step - np.eye(4))

    times = np.linspace(0.0, t_end, samples + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        states = _march(step, z0.as_array(), samples)
        energies = 0.5 * np.sum(states * states, axis=1)
        gains = np.sum((states[:-1] @ gram) * states[:-1], axis=1)
    # E = |z|^2 / 2, so this flags |z| > 1e100; the negation also flags NaN
    over = np.flatnonzero(~(energies <= 0.5 * _NORM_OVERFLOW**2))
    if over.size:
        raise IntegrationError(f"state norm exceeds overflow guard at t={times[over[0]]:g}")
    return Trajectory(
        times=times,
        states=states,
        energies=energies,
        dissipated=np.concatenate(([0.0], np.cumsum(gains))),
    )


def explicit_propagator_eps1_b1(t: float | np.ndarray) -> np.ndarray:
    """Exact propagator S(t) at the defective point eps = 1, b = 1.

    Of shape t.shape + (4, 4); ``t`` is a time or an array of times, of
    either sign.  With c = cos t and s = sin t,

        2 S(t) = [[(2-t)c + s,  (2-t)s,      tc - s,      ts        ],
                  [(t-2)s,      (2-t)c - s,  -ts,         tc + s    ],
                  [s - tc,      -ts,         (2+t)c - s,  (2+t)s    ],
                  [ts,          -tc - s,     -(2+t)s,     (2+t)c + s]]

    so u(t) = [(2u0 - t u0 + t v0) cos t + (u0 - v0 + 2x0 - t x0 + t y0)
    sin t] / 2, and each velocity row is the derivative of the row above
    it.  The linear-in-t amplitudes are the polynomial blow-up of the
    defective spectrum made explicit; this is the oracle the integrator
    and propagator are tested against.  Raises ValueError on a non-finite
    time.
    """
    t = np.asarray(t, dtype=float)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise ValueError(f"time must be finite, got t={bad[0]}")
    c, s = 0.5 * np.cos(t), 0.5 * np.sin(t)  # halved, so the rows below are S itself
    tc, ts = t * c, t * s
    rows = [
        [2.0 * c - tc + s, 2.0 * s - ts, tc - s, ts],
        [ts - 2.0 * s, 2.0 * c - tc - s, -ts, tc + s],
        [s - tc, -ts, 2.0 * c + tc - s, 2.0 * s + ts],
        [ts, -tc - s, -2.0 * s - ts, 2.0 * c + tc + s],
    ]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def explicit_solution_eps1_b1(z0: State, t: float) -> State:
    """Exact solution S(t) z0 at eps = 1, b = 1; see ``explicit_propagator_eps1_b1``."""
    return State.from_array(explicit_propagator_eps1_b1(t) @ z0.as_array())


def asymptotic_propagator(b: float, t: float | np.ndarray) -> np.ndarray:
    """Large-b limit of the propagator at eps = 1, of shape t.shape + (4, 4).

    Block rotation form: the displacements (u, v) rotate slowly with
    angular frequency 1/b while the velocities (x, y) counter-rotate
    fast with frequency b.  Valid as an approximation for eps = 1 and
    large b; exact only in the b -> infinity limit.  ``t`` is a time or
    an array of times.  Rejects b <= 1, non-finite b, and any time that
    is negative or makes b*t non-finite.
    """
    if not (b > 1.0 and math.isfinite(b)):
        raise ValueError(f"asymptotic form requires finite b > 1, got {b}")
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        fast = b * t
    bad = t[~(np.isfinite(fast) & (t >= 0.0))]
    if bad.size:
        raise ValueError(f"time must be >= 0 with b*t finite, got t={bad[0]} at b={b}")
    cs, ss, cf, sf = np.cos(t / b), np.sin(t / b), np.cos(fast), np.sin(fast)
    z = np.zeros_like(t)
    rows = [[cs, z, -ss, z], [z, cf, z, sf], [ss, z, cs, z], [z, -sf, z, cf]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


class FitResult(NamedTuple):
    rate: float
    poly_degree: float
    log_amplitude: float
    rms_residual: float


def _trend_lstsq(design: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, float]:
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    rms = float(np.sqrt(np.mean((design @ coef - logs) ** 2)))
    return coef, rms


def norm_growth_fit(p: Params, t_max: float | None = None) -> FitResult:
    """Fit log ||S(t)|| ~ log C + d*log(1+t) + w*t over [t_max/2, t_max].

    Measures the exponential rate w and the polynomial correction degree
    d of the propagator norm at ``_FIT_SAMPLES`` = 400 equally spaced
    times.  The fit window starts at t_max/2 to suppress transients.
    When ``t_max`` is omitted it is 200, or, if :func:`classify` gives
    ExpBlowup, min(60, 100/omega*): the norm grows like exp(omega* t), so
    it stays well under the 1e100 overflow guard.

    The grid is stepped exactly, S(t + dt) = S(dt) S(t), from S(t_max/2)
    by :func:`propagator` with the step S(dt) that :func:`integrate` takes,
    checked against the closed-form spectrum; the norms come from one
    :func:`operator_norm` call on the stack.

    When the dominant eigenvalues are regular and complex, the norm
    oscillates periodically around its envelope and a plain least-squares
    fit leaks the oscillation into the trend columns.  So the fit is
    repeated, up to twice, through the local maxima of the detrended
    signal whenever there are at least 4: the envelope touch points recur
    at a common phase, so they lie exactly on the trend and carry no
    oscillation bias.  A norm without oscillation leaves residuals at
    rounding level, and its refit stays on the trend.

    Raises ValueError unless ``t_max`` is finite and > 0, and FitError if
    a sampled norm exceeds 1e100 or underflows to 0, if S(t_max/2) or the
    step cannot be resolved at double precision (the message is
    :func:`propagator`'s or :func:`integrate`'s), or if the fit residual
    exceeds ``_MAX_RMS`` = 1.
    """
    if t_max is None:
        regime = classify(p)
        blowup = regime.kind is RegimeKind.EXP_BLOWUP
        t_max = min(60.0, 100.0 / regime.omega_star) if blowup else 200.0
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    ts, dt = np.linspace(t_max / 2.0, t_max, _FIT_SAMPLES, retstep=True)
    try:
        start, step = propagator(p, t_max / 2.0).matrix, _step(p, dt)
    except IntegrationError as exc:
        raise FitError(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _march(step, start, _FIT_SAMPLES - 1)
    finite = np.isfinite(stack).all(axis=(1, 2))
    norms = np.full(_FIT_SAMPLES, math.inf)
    norms[finite] = operator_norm(stack[finite])
    over = np.flatnonzero(norms > _NORM_OVERFLOW)
    if over.size:
        k = over[0]
        raise FitError(f"propagator norm {norms[k]:.3e} exceeds overflow guard at t={ts[k]:g}")
    under = np.flatnonzero(norms == 0.0)
    if under.size:
        raise FitError(f"propagator norm underflows to 0 at t={ts[under[0]]:g}")
    logs = np.log(norms)

    design = np.column_stack([np.ones_like(ts), np.log1p(ts), ts])
    coef, rms = _trend_lstsq(design, logs)
    for _ in range(2):
        resid = logs - design @ coef
        peaks = 1 + np.flatnonzero((resid[1:-1] >= resid[:-2]) & (resid[1:-1] > resid[2:]))
        if peaks.size < 4:
            break
        coef, rms = _trend_lstsq(design[peaks], logs[peaks])
    if rms > _MAX_RMS:
        raise FitError(f"norm-growth fit residual {rms:.3e} exceeds {_MAX_RMS:g}")
    return FitResult(
        rate=float(coef[2]),
        poly_degree=float(coef[1]),
        log_amplitude=float(coef[0]),
        rms_residual=rms,
    )


def periodic_portrait_check(b: float) -> tuple[bool, float]:
    """Decide whether the eps = 1, b > 1 phase portrait is periodic.

    The two angular frequencies are w+- = (sqrt(b^2+3) +- sqrt(b^2-1))/2
    and the portrait closes iff their ratio is rational.  Since w+ w- = 1
    the ratio is w+^2, free of the cancellation that costs w- about b^2
    ulps.  Rationality is decided by continued-fraction approximation with
    denominators capped at 1e4, to a relative tolerance of ``_RATIO_TOL``
    = 1e-14 times the ratio's condition number in b,
    2b^2/sqrt((b^2+3)(b^2-1)); float input cannot certify rationality
    beyond that scale.  Returns (True, T) with T the common period, or
    (False, nan).

    Either verdict is cross-checked against the trajectory z(t) = S(t)z0
    with z0 = (1,0,0,0): a periodic verdict must recur to within
    ``_RECURRENCE_TOL`` = 1e-6 at T, with S(T) from :func:`propagator`;
    an aperiodic one must not recur at any t >= 0.5 on the 1,024 steps of
    :func:`integrate` over [0, ``_SCAN_T_MAX``] = [0, 200].  Violations,
    and the errors of either engine (a NaN or overflowing S(T), a scan step
    too long to resolve), raise IntegrationError; ValueError unless b > 1 is finite.
    """
    if not (b > 1.0 and math.isfinite(b)):
        raise ValueError(f"periodicity check requires finite b > 1, got {b}")
    w_plus = (math.sqrt(b * b + 3.0) + math.sqrt(b * b - 1.0)) / 2.0
    ratio = w_plus * w_plus
    cond = 2.0 * b * b / math.sqrt((b * b + 3.0) * (b * b - 1.0))
    frac = Fraction(ratio).limit_denominator(10_000)
    is_periodic = abs(ratio - float(frac)) <= _RATIO_TOL * cond * ratio

    z0 = np.array([1.0, 0.0, 0.0, 0.0])
    if is_periodic:
        period = 2.0 * math.pi * frac.denominator * w_plus
        gap = float(np.linalg.norm(propagator(Params(1.0, b), period).matrix @ z0 - z0))
        if not gap <= _RECURRENCE_TOL:
            raise IntegrationError(
                f"predicted period {period:g} fails recurrence: gap {gap:.3e}"
            )
        return True, period
    scan = integrate(Params(1.0, b), State(1.0, 0.0, 0.0, 0.0), _SCAN_T_MAX, samples=1024)
    gaps = np.linalg.norm(scan.states - z0, axis=1)
    hits = scan.times[(scan.times >= 0.5) & (gaps <= _RECURRENCE_TOL)]
    if hits.size:
        raise IntegrationError(f"aperiodic verdict contradicted by recurrence at t={hits[0]:g}")
    return False, math.nan
