"""Per-mode analysis of the abstract extension with stiffness operator A.

Replacing the unit stiffness by a strictly positive selfadjoint operator
(e.g. the Dirichlet Laplacian) and projecting onto its eigenvectors
yields one independent 4x4 system per operator eigenvalue mu:

    u'' + mu*u + u' = b v',    v'' + mu*v - eps*v' = -b u'

whose characteristic polynomial works out to

    lam^4 + (1-eps)*lam^3 + (2*mu + b^2 - eps)*lam^2
          + mu*(1-eps)*lam + mu^2 = 0.

At mu = 1 this is the base system.  For eps < 1 the optimal coupling is
still b = (1+eps)/2, but the achievable rate degrades when the first
operator eigenvalue is small: the full rate (1-eps)/4 is recovered
exactly when mu >= (1-eps)^2/16.

A :class:`ModeFamily` is its eigenvalues: :func:`dirichlet_modes` gives
those of the Dirichlet Laplacian on [0, 1], and :func:`load_mode_family`
reads them from a file.

The quartic is palindromic in lam/sqrt(mu), so growth bounds come from
the closed forms of :func:`oscpair.spectrum.palindromic_roots`, exact
even at the quadruple root (eps-1)/4 on the threshold with
b = (1+eps)/2, which an eigensolver splits.

The per-mode growth bound is non-increasing in mu.  Dividing the quartic
by lam^2 leaves w^2 + (1-eps)*w + b^2 - eps = 0 in w = lam + mu/lam,
which does not involve mu, and each w gives the pair
lam = (w +- s)/2 with s = sqrt(z), z = w^2 - 4*mu.  The larger real part
of the pair is (Re w + |Re s|)/2, and |Re s|^2 = (|z| + Re z)/2 has
mu-derivative -2*(1 + Re z/|z|) <= 0 wherever z != 0, and is continuous
at z = 0.  So the supremum over any family is the bound at its smallest
eigenvalue, which is how :func:`family_growth_bound` computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .core import _A0, Params, _couple
from .spectrum import palindromic_roots

__all__ = [
    "ModeFamily",
    "FamilyBound",
    "mode_matrix",
    "mode_characteristic_coeffs",
    "mode_growth_bound",
    "family_growth_bound",
    "threshold_check",
    "load_mode_family",
    "dirichlet_modes",
]

@dataclass(frozen=True)
class ModeFamily:
    """Finite list of operator eigenvalues mu, sorted strictly increasing.

    Input order does not matter and exact duplicates are dropped, so the
    family is a set and ``mu[0]`` its smallest eigenvalue; all entries
    must be positive (strictly positive operator).
    """

    mu: tuple[float, ...]

    def __init__(self, mu: Iterable[float]) -> None:
        values = np.unique(np.fromiter(mu, float))
        if not values.size:
            raise ValueError("mode family must contain at least one eigenvalue")
        if values[0] <= 0.0 or not np.isfinite(values).all():
            raise ValueError("operator eigenvalues must be finite and > 0")
        object.__setattr__(self, "mu", tuple(values.tolist()))

    def __len__(self) -> int:
        return len(self.mu)


def dirichlet_modes(count: int) -> ModeFamily:
    """First ``count`` Dirichlet Laplacian eigenvalues (k*pi)^2 on [0, 1]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return ModeFamily((k * math.pi) ** 2 for k in range(1, count + 1))


def load_mode_family(path: str | Path) -> ModeFamily:
    """Read a mode family from a text file: one positive real per line.

    Blank lines are skipped and ``#`` starts a comment (full-line or
    trailing).
    """
    values = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        values.append(float(line))
    return ModeFamily(values)


def mode_matrix(mu: float, p: Params) -> np.ndarray:
    """4x4 matrix of the mode system at operator eigenvalue mu.

    Identical to the base system matrix except that the unit stiffness
    is replaced by mu; trace is eps - 1, determinant is mu^2.
    """
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    return _couple(_A0.copy(), p.epsilon, p.b, mu)


def mode_characteristic_coeffs(mu: float, p: Params) -> tuple[float, float, float, float, float]:
    """Coefficients (1, 1-eps, 2mu+b^2-eps, mu(1-eps), mu^2) of the mode quartic."""
    eps, b = p.epsilon, p.b
    return (1.0, 1.0 - eps, 2.0 * mu + b * b - eps, mu * (1.0 - eps), mu * mu)


def mode_growth_bound(mu: float, p: Params) -> float:
    """Max real part of the mode-system eigenvalues at stiffness mu."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and > 0, got {mu}")
    return float(palindromic_roots(p.epsilon, p.b, mu).real.max())


class FamilyBound(NamedTuple):
    value: float
    index: int
    mu: float


def family_growth_bound(f: ModeFamily, p: Params) -> FamilyBound:
    """Supremum of per-mode growth bounds over a finite mode family.

    Each root w of the mu-free w^2 + (1-eps)*w + b^2 - eps = 0 gives the
    mode roots (w +- s)/2, s = sqrt(w^2 - 4*mu), with largest real part
    (Re w + |Re s|)/2; |Re s| falls as mu grows (module docstring).  So
    every per-mode bound is non-increasing in mu and the supremum is the
    bound at the smallest eigenvalue ``f.mu[0]``: one mode is evaluated,
    and the index returned is always 0.
    """
    return FamilyBound(value=mode_growth_bound(f.mu[0], p), index=0, mu=f.mu[0])


def threshold_check(f: ModeFamily, epsilon: float) -> bool:
    """Whether the first operator eigenvalue clears (1-eps)^2/16.

    Above the threshold (inclusive) the optimally coupled family decays
    at the full rate (1-eps)/4; below it, the first mode drags the rate.
    Only meaningful for epsilon in [0, 1).
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"threshold requires 0 <= epsilon < 1, got {epsilon}")
    return f.mu[0] >= (1.0 - epsilon) ** 2 / 16.0
