"""Time-domain engine: propagators, trajectories, growth measurement.

The propagator S(t) = exp(t*A) is evaluated in closed form.  The quartic
is palindromic, so W = A + A^-1 solves w^2 + (1-eps) w + b^2 - eps = 0, of
roots w+- = (eps-1 +- a)/2, a = sqrt((1+eps)^2 - 4b^2); on the subspace of
each w, exp(tA) is G(w) = alpha I + beta A over the roots p, q = 1/p of
lam^2 - w lam + 1, and S(t) = G(w-) + G[w+, w-] (W - w- I) = c0 I + c1 A +
c2 A^-1 + c3 A^2: four matrices B_i cached per (eps, b), four ``cmath``
coefficients per t.  Where |a| t < 1 the roots of w+ are paired with those
of w- for G[w+, w-] (McCurdy, Ng & Parlett, Math. Comp. 43, 1984), exact at
the defective a = 0; where every root lies within 1/t of their mean, a
Taylor series of exp(t(A - mean I)) takes over.  The largest |entry| of
each matrix B_i is cached with it, so cb = sum |c_i| max|B_i| bounds every
entry of S(t) and the overflow guard reads the entries themselves only
past that bound.  No eigenvector basis and no matrix exponential: the
package loads numpy and the standard library.

One accuracy rule covers every S(t): :func:`propagator` refuses one whose
error bound passes 1e-6 (1 + cb), and trajectories and fits step with it.

The ODE is linear with constant coefficients, so uniform time grids are
stepped exactly, z_m = S(dt)^m z_0.  The n steps run in blocks of
k ~ sqrt(n), z_{jk+i} = S(dt)^i z_{jk}: the powers and the block starts
take one product each and every other state comes from one batched
product, so a grid costs about 2 sqrt(n) Python-level products, not n.
A trajectory reads the integral of epsilon*y^2 - x^2 over a step from
the step itself, W = (S^T S - I)/2, as (A + A^T)/2 = diag(0, -1, 0,
epsilon); a norm past 1e100 raises a typed error.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import Params, State
from .spectrum import RegimeKind, classify

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
# largest coefficient bound on the entries of S(t) that propagator returns
# unchecked: under 1e100/4 by a margin that rounding cannot cross
_COEFFICIENT_BOUND = 2e99
# largest |lambda| t that _coefficients resolves, and its Taylor terms, which
# suffice where every root lies within 1/t of their mean
_PHASE_CAP, _TAYLOR_TERMS = 2.0**52, 24
_UNRESOLVED = (math.nan,) * 4  # _coefficients of an S(t) it cannot resolve
# largest power of a step that _march multiplies by an anchor
_POWER_CAP = 1e150
# largest error bound sigma of an S(t) that propagator returns, relative to 1 + cb
_RESOLUTION_TOL = 1e-6
_MAX_RMS = 1.0  # largest rms residual of norm_growth_fit's trend
_FIT_SAMPLES = 400  # norm_growth_fit's sample times
# periodic_portrait_check: relative frequency-ratio tolerance, times the
# ratio's condition number, largest recurrence gap |z(T) - z0|, and the
# end of the aperiodic scan
_RATIO_TOL, _RECURRENCE_TOL, _SCAN_T_MAX = 1e-14, 1e-6, 200.0


class IntegrationError(RuntimeError):
    """Time stepping failed: overflow past 1e100, an unresolvable S(t), or a failed recurrence."""


class FitError(RuntimeError):
    """Norm-growth fit rejected (overflow or excessive residual)."""


def _shc(z: complex) -> complex:
    """sinh(z)/z, and 1 at z = 0."""
    return cmath.sinh(z) / z if z else 1.0


@functools.lru_cache(maxsize=1024)
def _structure(eps: float, b: float) -> tuple:
    """What :func:`propagator` needs of (eps, b): I, A, A^-1 and A^2 as the
    rows of a (4, 16) array (det A = 1), and the largest |entry| of each;
    the mean of w+-; a = w+ - w-; the :func:`_root_pair` of m = w/2 for w+
    and w-; whether w- is w+'s conjugate; kappa, the largest of 1 and |m/h|
    over both pairs (inf at a double root); 2^-1022 times the sum of the
    largest |entries|; and the largest |lambda|."""
    bb, be = b * b, b * eps
    basis = np.array((
        1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0,
        0.0, 1.0, 0.0, 0.0, -1.0, -1.0, 0.0, b, 0.0, 0.0, 0.0, 1.0, 0.0, -b, -1.0, eps,
        -1.0, -1.0, b, 0.0, 1.0, 0.0, 0.0, 0.0, -b, 0.0, eps, -1.0, 0.0, 0.0, 1.0, 0.0,
        -1.0, -1.0, 0.0, b, 1.0, -bb, -b, be - b, 0.0, -b, -1.0, eps,
        b, b - be, -eps, eps * eps - bb - 1.0,
    )).reshape(4, 16)
    basis.flags.writeable = False
    top = max(1.0, b, eps)  # A and A^-1 have the entries 0, +-1, +-b and eps
    scale = (1.0, top, top, max(top, bb, abs(be - b), abs(eps * eps - bb - 1.0)))
    one = 1.0 + eps  # one + err = 1 + eps exactly (two-sum): (1+eps)/2 - b keeps its digits
    err = (1.0 - (one - eps)) + (eps - (one - (one - eps)))
    half, mean = 0.5 * one, 0.5 * (eps - 1.0)
    half_a = cmath.sqrt(half - b + 0.5 * err) * cmath.sqrt(half + b)  # 0 at b = (1+eps)/2
    conjugate = half_a.real == 0.0
    plus = _root_pair(0.5 * (mean + half_a))
    minus = tuple(x.conjugate() for x in plus) if conjugate else _root_pair(0.5 * (mean - half_a))
    kappa = max(1.0, *(abs(m / h) if h else math.inf for m, h, _, _ in (plus, minus)))
    floor, lam = 2.0**-1022 * sum(scale), max(abs(plus[2]), abs(minus[2]))
    return basis, scale, mean, 2.0 * half_a, plus, minus, conjugate, kappa, floor, lam


def _root_pair(m: complex) -> tuple[complex, complex, complex, complex]:
    """m, h = sqrt(m^2 - 1), and the roots p = m + h and q = 1/p of
    lam^2 - 2m lam + 1, the sign of h making |p| >= |q|."""
    h = cmath.sqrt((m - 1.0) * (m + 1.0))
    h = -h if abs(m + h) < abs(m - h) else h
    return m, h, m + h, 1.0 / (m + h)


def _pair_terms(m: complex, h: complex, p: complex, q: complex, t: float) -> tuple:
    """(alpha, beta) of G(w) = alpha I + beta A, exp(tA) on the roots p, q of w."""
    ep = cmath.exp(p * t)
    if abs(h * t) > 0.5:
        beta = (ep - cmath.exp(q * t)) / (2.0 * h)
    else:  # (e^{pt} - e^{qt})/(p - q) in sinh form, as p - q = 2h
        beta = cmath.exp(m * t) * t * _shc(h * t)
    return ep - p * beta, beta


def _taylor(eps: float, b: float, t: float) -> tuple[float, float, float, float]:
    """(c0, c1, c2, c3) from ``_TAYLOR_TERMS`` terms of exp(tN), N = A - m I
    for the mean root m, in powers of N reduced by N's characteristic
    polynomial y^4 + k2 y^2 + k1 y + k0, then in powers of A."""
    m, c = 0.25 * (eps - 1.0), 2.0 + b * b - eps  # A's quartic: 1, 1-eps, c, 1-eps, 1
    k2 = c - 6.0 * m * m
    k1 = (2.0 * c - 8.0 * m * m) * m + 1.0 - eps
    k0 = ((c - 3.0 * m * m) * m + 1.0 - eps) * m + 1.0
    r0, r1, r2, r3 = 1.0, 0.0, 0.0, 0.0
    for k in range(_TAYLOR_TERMS, 0, -1):
        s = t / k
        r0, r1, r2, r3 = 1.0 - s * k0 * r3, s * (r0 - k1 * r3), s * (r1 - k2 * r3), s * r2
    r0, r1, r2, r3 = (math.exp(m * t) * r for r in (r0, r1, r2, r3))
    # sum r_j (A - m I)^j, with A^3 = (eps-1) A^2 - c A + (eps-1) I - A^-1
    s0, s1 = r0 - m * (r1 - m * (r2 - m * r3)), r1 - m * (2.0 * r2 - 3.0 * m * r3)
    return s0 + (eps - 1.0) * r3, s1 - c * r3, -r3, r2 + (eps - 1.0 - 3.0 * m) * r3


def _coefficients(p: Params, t: float, structure: tuple) -> tuple[float, float, float, float]:
    """(c0, c1, c2, c3) of S(t) = exp(tA) = c0 I + c1 A + c2 A^-1 + c3 A^2
    for t > 0 in closed form (see the module docstring), ``structure``
    being ``_structure(p.epsilon, p.b)``; NaN where an exponential
    overflows, or where max |lambda| t passes 2^52 and the last bit of a
    phase is a radian or more."""
    _, _, mean, a, plus, minus, conjugate, _, _, lam = structure
    if not lam * t < _PHASE_CAP:
        return _UNRESOLVED
    try:
        ap, bp = _pair_terms(*plus, t)
        am, bm = (ap.conjugate(), bp.conjugate()) if conjugate else _pair_terms(*minus, t)
        if abs(a) * t >= 1.0:
            da, db = (ap - am) / a, (bp - bm) / a
        else:  # pair the roots p, q of w+ with r, s of w-: h+- aligned, p - r = kp a
            hp, hm = plus[1], minus[1]
            hm = -hm if abs(hp + hm) < abs(hp - hm) else hm
            if (max(abs(hp), abs(hm)) + 0.25 * abs(a)) * t <= 1.0:
                return _taylor(p.epsilon, p.b, t)
            h, m = 0.5 * (hp + hm), 0.5 * mean
            kp, km = 0.5 + 0.5 * m / h, 0.5 - 0.5 * m / h
            fpr = cmath.exp((m + h) * t) * t * _shc(0.5 * kp * a * t)  # f[p, r]
            fqs = cmath.exp((m - h) * t) * t * _shc(0.5 * km * a * t)  # f[q, s]
            # beta[w+, w-] = kp f[p, q, r] + km f[q, r, s], and q - r = a/2 - 2h
            db = (kp * (bp - fpr) + km * (fqs - bm)) / (0.5 * a - 2.0 * h)
            da = 0.5 * (kp * fpr + km * fqs) - m * db - 0.25 * (bp + bm)
    except OverflowError:
        return _UNRESOLVED
    ea, eb = 0.5 * (ap + am), 0.5 * (bp + bm)
    return (ea - mean * da + db).real, (eb + da - mean * db).real, da.real, db.real


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

    sigma_max = 2^k sqrt(lambda_max(X^T X)) for X = 2^-k M, k the binary
    exponent of M's largest |entry|, with every lambda_max from one batched
    ``eigvalsh``.  Scaling by a power of two is exact and puts the largest
    |entry| of X in [1/2, 1), so X^T X cannot overflow and lambda_max, at
    least 1/4, cannot underflow, for any finite M; the result is within
    8 units of roundoff (2^-53) of the exact norm on the tested matrices,
    clustered top singular values included.  A matrix with no rows or no
    columns has norm 0, and one whose norm passes the largest double inf.
    Raises ValueError on a complex or non-finite entry, or on input of
    fewer than 2 dimensions.
    """
    m = np.asarray(matrix)
    if m.ndim < 2:
        raise ValueError(f"operator norm needs a matrix or a stack of matrices, got shape {m.shape}")
    if np.iscomplexobj(m):
        raise ValueError("operator norm of a complex matrix")
    m = m.astype(float, copy=False)
    if not np.isfinite(m).all():
        raise ValueError("operator norm of a matrix with non-finite entries")
    k = np.frexp(np.abs(m).max(axis=(-2, -1), initial=0.0))[1][..., None, None]
    x = np.ldexp(m, -k)
    gram = np.swapaxes(x, -1, -2) @ x  # max with initial 0: no column, norm 0
    with np.errstate(over="ignore"):  # a norm past the largest double is inf
        top = np.ldexp(np.sqrt(np.linalg.eigvalsh(gram).max(axis=-1, initial=0.0)), k[..., 0, 0])
    return float(top) if m.ndim == 2 else top


def propagator(p: Params, t: float) -> PropagatorSample:
    """Propagator S(t) = exp(t*A) in closed form (see the module docstring).

    Rejects negative or non-finite t.  Each entry of S(t) is at most the
    coefficient bound cb = sum |c_i| max|B_i| over B_i = I, A, A^-1, A^2,
    up to rounding, and within the running error bound (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, ch. 3)
    sigma = 2^-53 (8 + max|lambda| t max(1, min(t, kappa))) (cb + f) of
    exact: lambda is rounded to 2^-53 |lambda|, a rounding of w moves its
    roots m +- h up to kappa = max |m/h| times as far (at most t times in
    the sinh form), and f = 2^-1022 sum max|B_i| covers underflowing
    coefficients.  IntegrationError says that double precision cannot
    resolve S(t) where sigma > 1e-6 (1 + cb); an exact phase, as
    lambda = +-i at eps = b = 1, is refused from t = 1e10 all the same.

    IntegrationError also reports a norm past 1e100, at most 4 times the
    largest entry: S(t) is returned at once while cb <= 2e99; past it the
    largest entry is read, and the norm, computed only when that entry
    passes 2.5e99, is kept in the sample.  S(t) is not finite where an
    exponential overflows or the phase |lambda| t passes 2^52: an overflow
    only where omega* t + d ln t >= ln(1e100), d the defect penalty
    (t > 1), or the spectrum is not finite; otherwise the IntegrationError
    says that double precision cannot resolve the step.
    """
    if not 0.0 < t < math.inf:
        if t == 0.0:
            return PropagatorSample(t, np.eye(4))
        raise ValueError(f"propagator time must be finite and >= 0, got {t}")
    structure = _structure(p.epsilon, p.b)
    c0, c1, c2, c3 = c = _coefficients(p, t, structure)
    s0, s1, s2, s3 = structure[1]
    bound = abs(c0) * s0 + abs(c1) * s1 + abs(c2) * s2 + abs(c3) * s3
    kappa, floor, lam = structure[7], structure[8], structure[9]
    stretch = kappa if kappa < t else max(t, 1.0)  # max(1, min(t, kappa)), as kappa >= 1
    sigma = 2.0**-53 * (8.0 + lam * t * stretch) * (bound + floor)
    # a NaN or infinite bound fails this test and the next
    if sigma > _RESOLUTION_TOL * (1.0 + bound):
        raise IntegrationError(f"propagator S(t) cannot be resolved at double precision at "
                               f"t={t:g}: error bound {sigma:.3e}")
    m = np.dot(c, structure[0]).reshape(4, 4)
    sample = PropagatorSample(t, m)
    if bound <= _COEFFICIENT_BOUND or np.abs(m).max() <= _NORM_OVERFLOW / 4.0:
        return sample
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
    state passes 1e100, and with :func:`propagator`'s message for a step
    that its error bound cannot resolve.
    """
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    dt = t_end / samples
    step = propagator(p, dt).matrix
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
    """Least-squares trend and its rms residual; FitError unless the design has full rank."""
    coef, _, rank, _ = np.linalg.lstsq(design, logs, rcond=None)
    if rank < design.shape[1]:
        raise FitError(f"norm-growth fit is rank-deficient: rank {rank} < {design.shape[1]}")
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
    by :func:`propagator` with the step S(dt) that :func:`integrate` takes;
    the norms come from one :func:`operator_norm` call on the stack.

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
    :func:`propagator`'s), if the fit or a refit has rank below 3 (a window
    so short that lstsq cannot tell log(1+t) from t, or either from a
    constant), or if the fit residual exceeds ``_MAX_RMS`` = 1.
    """
    if t_max is None:
        regime = classify(p)
        blowup = regime.kind is RegimeKind.EXP_BLOWUP
        t_max = min(60.0, 100.0 / regime.omega_star) if blowup else 200.0
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    ts, dt = np.linspace(t_max / 2.0, t_max, _FIT_SAMPLES, retstep=True)
    try:
        start, step = propagator(p, t_max / 2.0).matrix, propagator(p, dt).matrix
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
    and the errors of either engine, raise IntegrationError: an S(T) or
    scan step that :func:`propagator` cannot resolve at double precision
    (most b past a few hundred, whose periods are long), or a NaN or
    overflowing one.  ValueError unless b > 1 is finite.
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
