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
omega* = (eps-1)/4 and the dominant pair is defective with defect 1, the
closed form :func:`optimal_coupling` returns; its proof is a sympy test in
``tests/test_spectrum.py``, which also checks the numerical search
:func:`minimize_growth_bound` against it, as acceptance criterion 4 does.
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

_ZOOM = 64  # points per bracketing level of _bracket
_LEVEL = np.arange(_ZOOM, dtype=np.int64)  # k of a level's points
_SCAN_ULPS = 2000  # minimize_growth_bound scans every float of a bracket this narrow


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
_ON_PLUS = np.array([True, False])  # w+, w- along the last axis


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
    pair = (double[..., None] & (on_plus[..., None] == _ON_PLUS)).any(axis=-2)
    pair = np.where(merged, 1 + 2 * _is_close(0.5 * np.abs(e - 1.0), r), pair)
    return np.concatenate((pair, pair), axis=-1)


def dominant_defects(roots, defects) -> np.ndarray:
    """Defect of the root of largest real part, over the last axis.

    The roots attaining the max real part share one defect, so no window
    is needed.  :func:`root_defects` gives all four roots one defect
    (b = (1+eps)/2), or defect 1 to the pair of w = +-r, r = 2 sqrt(mu),
    whose double root is +-sqrt(mu); that w is real, so the other is too.
    A root of the other pair with the same real part is either complex,
    its pair conjugate with product mu, so |lam|^2 = mu and Im lam = 0; or
    it is +-sqrt(mu), so its pair has w = +-r: then w+ = w-, b = (1+eps)/2.
    """
    top = np.argmax(np.real(roots), axis=-1)[..., None]
    return np.take_along_axis(np.asarray(defects), top, axis=-1)[..., 0]


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
        """The raw abscissa, the max real part, bit-equal to :func:`growth_bound`;
        :func:`classify` and ``oscpair sweep`` snap it on boundaries and keep
        the sign of an underflowed decay rate."""
        return float(np.array(self.eigenvalues).real.max())


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


def eigenvalue_defect(matrix: np.ndarray, lam: complex) -> int:
    """Defect (algebraic minus geometric multiplicity) of one eigenvalue.

    Algebraic multiplicity counts the eigenvalues of ``matrix`` lying
    within ``CLUSTER_TOL`` of ``lam``; geometric multiplicity is
    4 - rank(matrix - lam*I) with singular values below
    ``RANK_TOL * ||matrix||`` treated as zero.

    Raises ValueError if ``lam`` is not an eigenvalue within the
    clustering tolerance.
    """
    m = np.asarray(matrix, dtype=float)
    eigs = np.linalg.eigvals(m)
    alg = int(np.sum(np.abs(eigs - lam) <= CLUSTER_TOL))
    if alg == 0:
        nearest = float(np.min(np.abs(eigs - lam)))
        raise ValueError(
            f"{lam} is not an eigenvalue within tolerance {CLUSTER_TOL} "
            f"(nearest root at distance {nearest:.3e})"
        )
    sv = np.linalg.svd(m - lam * np.eye(len(m)), compute_uv=False)
    geo = len(m) - int(np.sum(sv > RANK_TOL * np.linalg.norm(m, 2)))
    return max(alg - geo, 0)


def growth_bound(p: Params) -> float:
    """Growth bound omega* = max real part of the four eigenvalues.

    In the decay regime omega* is about -(1-eps)/(4 b^2), which underflows
    for b above about 1e162: the result is then -0.0.  At eps = 0 it is
    about -b^2/2 and underflows for b below about 1e-162: the result is
    then +0.0, the sign lost in a root quotient.  :func:`classify` and
    ``oscpair sweep`` keep the sign; this raw abscissa does not.
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

    ``defect_penalty`` is the defect shared by the eigenvalues attaining
    omega* (:func:`dominant_defects`), the degree of the polynomial
    correction t^d multiplying the exponential envelope of the propagator
    norm; for POLY_BLOWUP also the blow-up degree.  ``kind`` alone decides
    blow-up: the horizon of ``norm_growth_fit`` and figure truncation.
    """

    kind: RegimeKind
    omega_star: float
    defect_penalty: int


def classify(p: Params) -> Regime:
    """Regime of the parameter pair, with boundaries decided on inputs.

    Boundary cases (eps = 1, b = 1, b = sqrt(eps)) are detected by
    comparing the *parameters* at relative tolerance 1e-12, not by
    inspecting rounded eigenvalues: the user states the regime, and
    eigenvalue rounding must not flip a boundary verdict.  On boundary
    verdicts with omega* = 0 the reported growth bound is snapped to an
    exact zero for consistency with the kind.  An ExpDecay verdict whose
    rate underflows (b above about 1e162, or eps = 0 and b below about
    1e-162; see :func:`growth_bound`) reports omega* = -0.0, the sign bit
    of decay.  Evaluates :func:`closed_form_eigenvalues` once.  Every row
    of ``oscpair sweep`` is decided by the same rule.
    """
    return _regime(p, closed_form_eigenvalues(p))


_KINDS = tuple(RegimeKind)  # indexed by the kind codes of _regimes


def _regimes(epsilon, b, roots, defects):
    """:func:`classify`'s kind codes, omega* and dominant defect at one
    epsilon over b, a float or an array, given ``roots`` and ``defects``
    from :func:`palindromic_roots` and :func:`root_defects`."""
    if _is_close(epsilon, 1.0):
        edge, on_edge, above = 1.0, 1, 2  # polynomial blow-up at b = 1, bounded above
    elif epsilon > 1.0:
        edge, on_edge, above = math.inf, 0, 0  # exponential blow-up for every b
    else:
        edge, on_edge, above = math.sqrt(epsilon), 2, 3  # bounded at sqrt(eps), decay above
    kinds = np.where(_is_close(b, edge), on_edge, np.where(b < edge, 0, above))
    omega = roots.real.max(axis=-1)
    omega = np.where((kinds == 1) | (kinds == 2), 0.0, omega)  # bounded or polynomial: omega* = 0
    omega = np.where((kinds == 3) & ~(omega < 0.0), -0.0, omega)  # keeps the sign of decay
    return kinds, omega, dominant_defects(roots, defects)


def _regime(p: Params, spectrum: Spectrum) -> Regime:
    """:func:`classify` given ``spectrum = closed_form_eigenvalues(p)``, so
    that a caller that also reports the spectrum evaluates it only once."""
    kind, omega, defect = _regimes(
        p.epsilon, p.b, np.array(spectrum.eigenvalues), np.array(spectrum.defects))
    return Regime(kind=_KINDS[int(kind)], omega_star=float(omega), defect_penalty=int(defect))


def _omega(epsilon, patterns):
    """omega*(b) at the floats whose int64 bit patterns are ``patterns``."""
    return palindromic_roots(epsilon, patterns.view(np.float64)).real.max(axis=-1)


def _bracket(epsilon: float, lo: int, hi: int) -> tuple[int, int]:
    """Bracket the first minimum of omega*(b) over the bit patterns [lo, hi]
    of non-negative floats until it spans at most ``_SCAN_ULPS`` patterns;
    returns the last (lo, hi).  :func:`minimize_growth_bound` is its one
    caller, as ``tests/test_source.py`` pins.

    Bit patterns are consecutive for consecutive non-negative floats.  Each
    level evaluates the ``_ZOOM`` patterns lo + k (hi - lo) // (_ZOOM - 1)
    in one array call and keeps the neighbours of the first minimum.  With
    q, r = divmod(hi - lo, _ZOOM - 1) the pattern is lo + k q + k r // (_ZOOM - 1),
    the same integer, formed in int64 without overflow.
    """
    while hi - lo > _SCAN_ULPS:
        q, r = divmod(hi - lo, _ZOOM - 1)
        patterns = lo + _LEVEL * q + (_LEVEL * r) // (_ZOOM - 1)
        k = int(np.argmin(_omega(epsilon, patterns)))
        lo, hi = int(patterns[max(k - 1, 0)]), int(patterns[min(k + 1, _ZOOM - 1)])
    return lo, hi


def _pattern(x: float) -> int:
    """The int64 bit pattern of a float; adding 0.0 turns -0.0, whose
    pattern is negative, into +0.0."""
    return int(np.float64(x + 0.0).view(np.int64))


def minimize_growth_bound(epsilon: float, b_lo: float, b_hi: float) -> tuple[float, float]:
    """Numerically minimize omega*(b) over [b_lo, b_hi] at fixed epsilon.

    Brackets the first minimum over bit patterns (``_bracket``, ``_ZOOM``
    points per level) until the bracket spans at most ``_SCAN_ULPS`` = 2000
    ulps; then every float in it is evaluated and the first minimum wins.
    Any bracket takes at most a dozen levels.  The exhaustive finish
    matters: at the optimum the growth bound has a square-root cusp, so its
    value locates the minimizer only to sqrt(eps_machine), and sampling can
    stop short of the exact floating-point argmin.

    Requires 0 <= b_lo < b_hi < inf.  Returns (b_opt, omega*(b_opt)).
    """
    if not 0.0 <= b_lo < b_hi < math.inf:
        raise ValueError(f"need 0 <= b_lo < b_hi < inf, got [{b_lo!r}, {b_hi!r}]")
    lo, hi = _bracket(epsilon, _pattern(b_lo), _pattern(b_hi))
    patterns = np.arange(lo, hi + 1, dtype=np.int64)
    values = _omega(epsilon, patterns)
    k = int(np.argmin(values))
    return float(patterns.view(np.float64)[k]), float(values[k])


def optimal_coupling(epsilon: float) -> tuple[float, float]:
    """Optimal coupling and best growth bound for epsilon in [0, 1).

    Returns (b_opt, omega*) = ((1+eps)/2, (eps-1)/4), the optimum over
    b >= 0.  Proof: the roots of w+ sum to w+, so omega* >= Re(w+)/2 >=
    (eps-1)/4, with equality in the second step iff b >= (1+eps)/2.  Above
    (1+eps)/2, w+ has real part (eps-1)/2 != 0 and is not real, so
    w+^2 - 4 is not real and the pair's real parts differ: the first step
    is strict.  At (1+eps)/2 both steps are equalities.
    ``test_optimal_coupling_is_the_proven_optimum`` checks each step in
    sympy, and :func:`minimize_growth_bound` over [0, 10] returns this b and
    omega* bit for bit.

    Rejects epsilon outside [0, 1): for epsilon >= 1 no decay regime exists.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"optimal coupling requires 0 <= epsilon < 1, got {epsilon}")
    return (1.0 + epsilon) / 2.0, (epsilon - 1.0) / 4.0
