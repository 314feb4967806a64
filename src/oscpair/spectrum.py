"""Closed-form spectrum, regime classification, and optimal coupling.

The eigenvalues of the system matrix (mu = 1), and of each mode of the
modal extension (:mod:`oscpair.modal`), are the roots of the quartic

    lam^4 + (1-eps)*lam^3 + (2*mu + b^2 - eps)*lam^2 + mu*(1-eps)*lam + mu^2 = 0.

It is palindromic in lam/sqrt(mu): w = lam + mu/lam solves the quadratic
w^2 + (1-eps)*w + (b^2-eps) = 0, independent of mu, so w+- = (eps-1 +- a)/2
with a = sqrt((1+eps)^2 - 4 b^2), and each w splits into the pair
lam = (w +- sqrt(w^2 - 4 mu))/2 of product mu.  With every square root on
the branch whose argument lies in (-pi/2, pi/2], the library's fixed
order is lam1, lam3 = the + and - roots of w+, and lam2, lam4 those of w-.

For b > 0 every eigenvalue has geometric multiplicity 1, so its defect
is its algebraic multiplicity minus one, decided on the parameters at
``BOUNDARY_RTOL`` like the regime boundaries: a = 0 (b = (1+eps)/2)
makes every root double, w = +-2 sqrt(mu) the pair of that w (at mu = 1
a double root lam = 1 on b^2 = 3 eps - 6), both at once a quadruple one.

The growth bound omega* = max_i Re(lam_i) determines the long-time
behavior of the propagator norm, up to a polynomial factor t^d when the
dominant eigenvalues are defective (algebraic > geometric multiplicity).

Regime map over the parameter plane:

    eps > 1                -> exponential blow-up for every b
    eps = 1, b < 1         -> exponential blow-up
    eps = 1, b = 1         -> polynomial blow-up of rate t (defect 1)
    eps = 1, b > 1         -> bounded, non-decaying
    eps < 1, b < sqrt(eps) -> exponential blow-up
    eps < 1, b = sqrt(eps) -> bounded, non-decaying
    eps < 1, b > sqrt(eps) -> exponential decay

For eps < 1 the decay rate is optimized at b = (1+eps)/2, where
omega* = (eps-1)/4 and the dominant pair is defective with defect 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Params

__all__ = [
    "RANK_TOL",
    "CLUSTER_TOL",
    "Spectrum",
    "Regime",
    "RegimeKind",
    "branch_sqrt",
    "quartic_coeffs",
    "characteristic_poly_coeffs",
    "palindromic_roots",
    "root_defects",
    "dominant_defects",
    "closed_form_eigenvalues",
    "eigenvalue_defect",
    "growth_bound",
    "classify",
    "optimal_coupling",
    "minimize_growth_bound",
]

# Singular values below RANK_TOL * ||m|| are treated as zero when ranking
# (m - lam*I); defective eigenvalues perturb like sqrt(machine eps), so the
# gap between "zero" and "tiny but honest" singular values is wide.
RANK_TOL = 1e-8

# Radius used to cluster eigenvalues when counting algebraic multiplicity.
CLUSTER_TOL = 1e-6

# Relative tolerance for detecting the exact parameter relations (eps = 1,
# b = 1, b = sqrt(eps), b = (1+eps)/2, ...) that decide regimes and defects.
BOUNDARY_RTOL = 1e-12

_ZOOM = 64  # points per bracketing level of minimize_growth_bound


def branch_sqrt(z: complex) -> complex:
    """Complex square root with argument in (-pi/2, pi/2].

    This is the principal branch with the boundary resolved upward:
    negative reals map to +i*sqrt(|z|), never to -i*sqrt(|z|).  A signed
    zero in the imaginary part would otherwise leak the wrong half-plane
    through cmath, so -0.0 imaginary parts are collapsed to +0.0 first.
    """
    z = complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    return cmath.sqrt(z)


def quartic_coeffs(epsilon: float, b: float) -> tuple[float, float, float, float, float]:
    """Characteristic coefficients (1, 1-eps, 2+b^2-eps, 1-eps, 1).

    Raw-parameter variant: the coefficients depend on b only through
    b**2, which is why couplings of either sign generate identical
    spectra.  At b = 0 the quartic factors into the two uncoupled
    oscillator polynomials (lam^2+lam+1)(lam^2-eps*lam+1).
    """
    return (1.0, 1.0 - epsilon, 2.0 + b * b - epsilon, 1.0 - epsilon, 1.0)


def characteristic_poly_coeffs(p: Params) -> tuple[float, float, float, float, float]:
    """Characteristic polynomial coefficients of the system matrix."""
    return quartic_coeffs(p.epsilon, p.b)


def _is_close(x, target):
    """Relative closeness; never between a finite x and an infinite target."""
    gap = np.abs(x - target)
    return (gap <= BOUNDARY_RTOL * np.maximum(np.abs(x), np.abs(target))) & (gap < np.inf)


_BLOCK = 1024  # points per array evaluation: temporaries stay near 0.3 MB
_SIGNS = np.array([1.0, -1.0])  # the two sign choices of a pair, along the last axis


def _vieta(direct, over):
    """Root pairs along the last axis, the one of strictly smaller modulus
    (which cancels when computed directly) replaced by over(other root),
    the pair's product divided by the other root."""
    size = np.abs(direct)
    return np.where(size < size[..., ::-1], over(direct[..., ::-1]), direct)


def palindromic_roots(epsilon, b, mu=1.0) -> np.ndarray:
    """Roots lam1..lam4 of the (mode) quartic, over broadcast numpy arrays.

    Returns the arguments' broadcast shape plus a last axis of length 4,
    evaluated in blocks of ``_BLOCK`` points.  Of each pair (w+, w- or the
    two lam of one w) the smaller root is the pair's product over the
    larger, and neither (1+eps)^2 nor w^2 is formed at full scale.  Raises
    ArithmeticError on a non-finite root (mu < 0, say).
    """
    e, c, m = (np.asarray(v, dtype=float) for v in (epsilon, b, mu))
    if max(e.size, c.size, m.size) > _BLOCK:
        shape = np.broadcast_shapes(e.shape, c.shape, m.shape)
        e, c, m = (np.broadcast_to(x, shape).ravel() for x in (e, c, m))
        parts = [palindromic_roots(e[k:k + _BLOCK], c[k:k + _BLOCK], m[k:k + _BLOCK])
                 for k in range(0, e.size, _BLOCK)]
        return np.concatenate(parts).reshape(shape + (4,))
    e, c, m = e[..., None], c[..., None], m[..., None]
    with np.errstate(all="ignore"):
        # a/2 = sqrt((half - b)(half + b)), exactly 0 when b is the float (1+eps)/2
        half = 0.5 * (1.0 + e)
        half_a = np.sqrt((half - c) + 0j) * np.sqrt(half + c)
        # w+ w- = b^2 - eps, divided before it can overflow; the real part
        # suffices, as one w is strictly smaller only when both are real
        w = _vieta(0.5 * (e - 1.0) + _SIGNS * half_a,
                   lambda other: c * (c / other.real) - e / other.real)
        # sqrt(w^2 - r^2), r = 2 sqrt(mu), scaled by a power of two; the real
        # part as (x-r)(x+r), exact near a double root.  Adding 2j*x*y turns a
        # -0.0 imaginary part into +0.0, the upward branch rule of branch_sqrt.
        r = 2.0 * np.sqrt(m)
        scale = np.ldexp(1.0, 2 - np.frexp(np.maximum(np.abs(w), r))[1])
        x, y, v = w.real * scale, w.imag * scale, r * scale
        s = np.sqrt((x - v) * (x + v) - y * y + 2j * x * y) / scale
        # lam[..., i, j]: root of w_i with sign j of the square root
        lam = _vieta((0.5 * w)[..., None] + (0.5 * s)[..., None] * _SIGNS,
                     lambda other: m[..., None] / other)
        roots = lam.swapaxes(-1, -2).reshape(lam.shape[:-2] + (4,))
    if not np.isfinite(roots).all():
        raise ArithmeticError(
            f"spectrum not finite in double precision at eps={epsilon!r}, b={b!r}, mu={mu!r}"
        )
    return roots


def root_defects(epsilon, b, mu=1.0) -> np.ndarray:
    """Defects of lam1..lam4, decided on the parameters at ``BOUNDARY_RTOL``.

    Broadcasts like :func:`palindromic_roots`.  With r = 2 sqrt(mu),
    b = (1+eps)/2 gives defect 1 everywhere (3 if also |1-eps|/2 = r), and
    b^2 = (1+r)(eps-r) or (1-r)(eps+r) defect 1 to the pair of w = r or -r.
    """
    e, c, m = (np.asarray(v, dtype=float)[..., None] for v in (epsilon, b, mu))
    r = 2.0 * np.sqrt(m)
    merged = _is_close(c, 0.5 * (1.0 + e))
    # last axis: w = +r, w = -r; the pair of that w is on w+ when 2w >= eps - 1
    # b^2 = (1 + r)(eps - r) or (1 - r)(eps + r); as eps >= 0, both factors
    # are positive wherever the product is, and the product of their square
    # roots cannot overflow
    grow, shrink = 1.0 + _SIGNS * r, e - _SIGNS * r
    double = (grow > 0.0) & (shrink > 0.0) & _is_close(
        c, np.sqrt(np.maximum(grow, 0.0)) * np.sqrt(np.maximum(shrink, 0.0)))
    on_plus = 2.0 * _SIGNS * r >= e - 1.0
    pair = (double[..., None] & np.stack((on_plus, ~on_plus), axis=-1)).any(axis=-2)
    pair = np.where(merged, 1 + 2 * _is_close(0.5 * np.abs(e - 1.0), r), pair)
    return np.concatenate((pair, pair), axis=-1)


def dominant_defects(roots, defects, tol: float = 1e-9) -> np.ndarray:
    """Largest defect among roots within tol*(1+|max|) of max Re, over the last axis."""
    real = np.real(roots)
    top = real.max(axis=-1, keepdims=True)
    attained = real >= top - tol * (1.0 + np.abs(top))
    return np.where(attained, defects, 0).max(axis=-1)


@dataclass(frozen=True)
class Spectrum:
    """Four eigenvalues in the fixed closed-form order, with defects.

    ``defects[i]`` is the defect (algebraic minus geometric multiplicity)
    of ``eigenvalues[i]`` as an eigenvalue of the system matrix; repeated
    eigenvalues carry the defect of their common value on every listed
    occurrence.
    """

    eigenvalues: tuple[complex, complex, complex, complex]
    defects: tuple[int, int, int, int]

    @property
    def omega_star(self) -> float:
        return max(lam.real for lam in self.eigenvalues)

    def dominant_defect(self, tol: float = 1e-9) -> int:
        """Largest defect among eigenvalues attaining the growth bound."""
        return int(dominant_defects(np.array(self.eigenvalues), np.array(self.defects), tol))


def closed_form_eigenvalues(p: Params) -> Spectrum:
    """Eigenvalues lam1..lam4 from the closed-form expressions.

    The ordering is fixed by the two square-root sign choices of the
    module docstring, so per-index identities (e.g. lam4 = -lam1 at
    eps = 1) are stable contracts.  Defects are decided on the parameters
    by :func:`root_defects`.
    """
    lams = palindromic_roots(p.epsilon, p.b)
    defects = root_defects(p.epsilon, p.b)
    return Spectrum(eigenvalues=tuple(lams.tolist()), defects=tuple(defects.tolist()))


def eigenvalue_defect(
    matrix: np.ndarray,
    lam: complex,
    rank_tol: float = RANK_TOL,
    cluster_tol: float = CLUSTER_TOL,
) -> int:
    """Defect (algebraic minus geometric multiplicity) of one eigenvalue.

    Algebraic multiplicity counts the eigenvalues of ``matrix`` lying
    within ``cluster_tol`` of ``lam``; geometric multiplicity is
    4 - rank(matrix - lam*I) with singular values below
    ``rank_tol * ||matrix||`` treated as zero.

    Raises ValueError if ``lam`` is not an eigenvalue within the
    clustering tolerance.
    """
    m = np.asarray(matrix, dtype=float)
    eigs = np.linalg.eigvals(m)
    alg = int(np.sum(np.abs(eigs - lam) <= cluster_tol))
    if alg == 0:
        nearest = float(np.min(np.abs(eigs - lam)))
        raise ValueError(
            f"{lam} is not an eigenvalue within tolerance {cluster_tol} "
            f"(nearest root at distance {nearest:.3e})"
        )
    shifted = m.astype(complex) - lam * np.eye(m.shape[0])
    sv = np.linalg.svd(shifted, compute_uv=False)
    scale = float(np.linalg.norm(m, 2))
    rank = int(np.sum(sv > rank_tol * scale))
    geo = m.shape[0] - rank
    return max(alg - geo, 0)


def growth_bound(p: Params) -> float:
    """Growth bound omega* = max real part of the four eigenvalues.

    In the decay regime omega* is about -(1-eps)/(4 b^2), which underflows
    for b above about 1e162: the result is then -0.0, with its sign bit set.
    """
    return float(palindromic_roots(p.epsilon, p.b).real.max())


class RegimeKind(Enum):
    EXP_BLOWUP = "ExpBlowup"
    POLY_BLOWUP = "PolyBlowup"
    BOUNDED_NON_DECAYING = "BoundedNonDecaying"
    EXP_DECAY = "ExpDecay"


@dataclass(frozen=True)
class Regime:
    """Classification verdict: behavior kind, growth bound, defect penalty.

    ``defect_penalty`` is the largest defect among eigenvalues attaining
    omega*; it is the degree of the polynomial correction t^d multiplying
    the exponential envelope of the propagator norm.  For POLY_BLOWUP it
    doubles as the blow-up degree.
    """

    kind: RegimeKind
    omega_star: float
    defect_penalty: int

    @property
    def degree(self) -> int:
        return self.defect_penalty


def classify(p: Params) -> Regime:
    """Regime of the parameter pair, with boundaries decided on inputs.

    Boundary cases (eps = 1, b = 1, b = sqrt(eps)) are detected by
    comparing the *parameters* at relative tolerance 1e-12, not by
    inspecting rounded eigenvalues: the user states the regime, and
    eigenvalue rounding must not flip a boundary verdict.  On boundary
    verdicts with omega* = 0 the reported growth bound is snapped to an
    exact zero for consistency with the kind.  An ExpDecay verdict with b
    above about 1e162 reports omega* = -0.0: the true value, about
    -(1-eps)/(4 b^2), is below the smallest double, and only the sign bit
    remains.
    """
    eps, b = p.epsilon, p.b
    spectrum = closed_form_eigenvalues(p)

    if _is_close(eps, 1.0):
        if _is_close(b, 1.0):
            kind = RegimeKind.POLY_BLOWUP
        elif b < 1.0:
            kind = RegimeKind.EXP_BLOWUP
        else:
            kind = RegimeKind.BOUNDED_NON_DECAYING
    elif eps > 1.0:
        kind = RegimeKind.EXP_BLOWUP
    else:
        root = math.sqrt(eps)
        if _is_close(b, root):
            kind = RegimeKind.BOUNDED_NON_DECAYING
        elif b < root:
            kind = RegimeKind.EXP_BLOWUP
        else:
            kind = RegimeKind.EXP_DECAY

    if kind in (RegimeKind.POLY_BLOWUP, RegimeKind.BOUNDED_NON_DECAYING):
        omega = 0.0
    else:
        omega = spectrum.omega_star
    penalty = spectrum.dominant_defect()
    return Regime(kind=kind, omega_star=omega, defect_penalty=penalty)


def minimize_growth_bound(
    epsilon: float, b_lo: float, b_hi: float, scan_ulps: int = 2000
) -> tuple[float, float]:
    """Numerically minimize omega*(b) over [b_lo, b_hi] at fixed epsilon.

    Bracketing over int64 bit patterns, which are consecutive for
    consecutive non-negative floats: each level evaluates ``_ZOOM`` points
    evenly spaced in pattern space in one array call and keeps the
    neighbours of the first minimum as the bracket, until it spans at most
    ``scan_ulps`` ulps; then every float in it is evaluated and the first
    minimum wins.  Any bracket takes at most a dozen levels.  The
    exhaustive finish matters: at the optimum the growth bound has a
    square-root cusp, so its value locates the minimizer only to
    sqrt(eps_machine), and sampling can stop short of the exact
    floating-point argmin.

    Requires 0 <= b_lo < b_hi < inf and scan_ulps >= 1.  Returns
    (b_opt, omega*(b_opt)).
    """
    if not (0.0 <= b_lo < b_hi < math.inf and scan_ulps >= 1):
        raise ValueError(
            f"need 0 <= b_lo < b_hi < inf and scan_ulps >= 1, "
            f"got [{b_lo!r}, {b_hi!r}], {scan_ulps!r}"
        )
    # adding 0.0 turns -0.0, whose pattern is negative, into +0.0
    lo, hi = (int(np.float64(x + 0.0).view(np.int64)) for x in (b_lo, b_hi))

    def omega(patterns):
        return palindromic_roots(epsilon, patterns.view(np.float64)).real.max(axis=-1)

    while hi - lo > scan_ulps:
        patterns = np.array([lo + k * (hi - lo) // (_ZOOM - 1) for k in range(_ZOOM)])
        k = int(np.argmin(omega(patterns)))
        lo, hi = int(patterns[max(k - 1, 0)]), int(patterns[min(k + 1, _ZOOM - 1)])
    patterns = np.arange(lo, hi + 1, dtype=np.int64)
    values = omega(patterns)
    k = int(np.argmin(values))
    return float(patterns.view(np.float64)[k]), float(values[k])


def optimal_coupling(
    epsilon: float, b_max: float = 10.0, verify: bool = True
) -> tuple[float, float]:
    """Optimal coupling and best growth bound for epsilon in [0, 1).

    Returns (b_opt, omega*) = ((1+eps)/2, (eps-1)/4).  When ``verify`` is
    set (the default) the closed form is cross-checked by numerical
    minimization of the growth bound over [0, b_max]; a mismatch
    beyond 1e-6 raises ArithmeticError.

    Rejects epsilon >= 1, where no decay regime exists.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"optimal coupling requires 0 <= epsilon < 1, got {epsilon}")
    eta = (1.0 + epsilon) / 2.0
    omega = (epsilon - 1.0) / 4.0
    if verify:
        b_opt, _ = minimize_growth_bound(epsilon, 0.0, b_max)
        if abs(b_opt - eta) > 1e-6:
            raise ArithmeticError(
                f"numerical minimizer {b_opt!r} disagrees with (1+eps)/2 = {eta!r}"
            )
    return eta, omega
