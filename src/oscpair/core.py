"""Data model for the coupled oscillator pair.

The system couples a damped oscillator u'' + u + u' = b v' to an
antidamped one v'' + v - epsilon v' = -b u' through the velocities.
With the state vector z = (u, u', v, v') this is the linear ODE
z' = A z for a fixed 4x4 matrix A, and everything else in the package
(spectra, regimes, propagators, modal extensions) is built on top of
the three primitives defined here: the parameter pair, the state, and
the energy E = (u^2 + u'^2 + v^2 + v'^2)/2 together with its exact
dissipation rate dE/dt = epsilon*v'^2 - u'^2.

The dissipation identity holds exactly along any solution (the coupling
terms cancel).  ``energy_rate`` states it pointwise for callers; the
package uses the integrated form: epsilon*v'^2 - u'^2 is z^T Q z with
Q = (A + A^T)/2, so over a step S = exp(h A) it integrates to z^T W z
with W = (S^T S - I)/2, the Gram matrix that ``sim.integrate`` reads
from its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Params",
    "State",
    "assemble_matrix",
    "assemble_matrices",
    "energy",
    "energy_rate",
]


@dataclass(frozen=True)
class Params:
    """Parameter pair (epsilon, b): antidamping strength and coupling.

    epsilon >= 0 and b > 0 are required.  The dynamics depend on b only
    through b**2, so a negative coupling is equivalent to |b|: pass
    ``abs(b)``; no absolute value is taken silently here.
    """

    epsilon: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be finite and > 0, got {self.b}")


@dataclass(frozen=True)
class State:
    """State vector (u, x, v, y) with x = u' and y = v'."""

    u: float
    x: float
    v: float
    y: float

    def __post_init__(self) -> None:
        for name in ("u", "x", "v", "y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"state component {name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.x, self.v, self.y], dtype=float)

    @classmethod
    def from_array(cls, z: np.ndarray) -> "State":
        u, x, v, y = (float(c) for c in np.asarray(z, dtype=float))
        return cls(u, x, v, y)


# A at epsilon = b = 0 and unit stiffness; _couple sets the entries that
# depend on them
_A0 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)
_A0.flags.writeable = False


def _couple(m: np.ndarray, epsilon, b, mu=1.0) -> np.ndarray:
    """Write b, -b, epsilon and the stiffness -mu into a copy of ``_A0``,
    matrix axes first.

    ``m`` is one 4x4 matrix, or a stack with its matrix axes moved to the
    front, so that ``m[1, 3]`` holds entry (1, 3) of every matrix.
    """
    m[1, 3] = b
    m[3, 1] = -b
    m[3, 3] = epsilon
    m[1, 0] = m[3, 2] = -mu
    return m


def assemble_matrix(p: Params) -> np.ndarray:
    """4x4 system matrix A of z' = A z, a fresh writable array.

    Rows encode u' = x, x' = -u - x + b y, v' = y, y' = -b x - v + eps y.
    Its trace is epsilon - 1 and its determinant is 1 for every valid
    parameter pair.
    """
    return _couple(_A0.copy(), p.epsilon, p.b)


def assemble_matrices(epsilon, b) -> np.ndarray:
    """System matrices over arrays of epsilon and b, of shape shape + (4, 4).

    ``shape`` is the broadcast shape of the two arguments; entry [i] equals
    ``assemble_matrix(Params(epsilon[i], b[i]))`` with no Params built.
    Raises ValueError where Params would: epsilon finite and >= 0, b
    finite and > 0.
    """
    epsilon, b = np.broadcast_arrays(np.asarray(epsilon, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(epsilon) & (epsilon >= 0.0)).all():
        raise ValueError("epsilon must be finite and >= 0 everywhere")
    if not (np.isfinite(b) & (b > 0.0)).all():
        raise ValueError("b must be finite and > 0 everywhere")
    stack = np.tile(_A0, epsilon.shape + (1, 1))
    _couple(np.moveaxis(stack, (-2, -1), (0, 1)), epsilon, b)
    return stack


def energy(s: State) -> float:
    """Total energy E = (u^2 + x^2 + v^2 + y^2) / 2."""
    return 0.5 * (s.u * s.u + s.x * s.x + s.v * s.v + s.y * s.y)


def energy_rate(s: State, p: Params) -> float:
    """Exact energy dissipation rate dE/dt = epsilon*y^2 - x^2.

    Differentiating E along the flow, the coupling terms +b*x*y and
    -b*x*y cancel, leaving the antidamping input epsilon*y^2 minus the
    damping loss x^2.  Valid along any solution, independent of b.
    """
    return p.epsilon * s.y * s.y - s.x * s.x
