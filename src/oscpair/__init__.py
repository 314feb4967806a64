"""Spectral and time-domain analysis of a damped/antidamped oscillator pair.

The model couples a dissipative oscillator to an antidissipative one
through the velocities, with coupling strength b and antidamping
epsilon.  This package classifies the long-time energy behavior over
the (epsilon, b) plane, evaluates the closed-form spectrum and its
Jordan defects, simulates trajectories whose steps are checked against
that spectrum, finds the optimal coupling, and extends the analysis mode by
mode to systems with a general positive stiffness operator.
"""

from .core import Params, State, assemble_matrices, assemble_matrix, energy, energy_rate
from .figures import FigureSpec, default_figure_spec, write_figure
from .modal import (
    FamilyBound,
    ModeFamily,
    dirichlet_modes,
    family_growth_bound,
    load_mode_family,
    mode_growth_bound,
    mode_matrix,
    threshold_check,
)
from .sim import (
    FitResult,
    IntegrationError,
    FitError,
    PropagatorSample,
    Trajectory,
    asymptotic_propagator,
    explicit_propagator_eps1_b1,
    explicit_solution_eps1_b1,
    integrate,
    norm_growth_fit,
    operator_norm,
    periodic_portrait_check,
    propagator,
)
from .spectrum import (
    Regime,
    RegimeKind,
    Spectrum,
    branch_sqrt,
    characteristic_poly_coeffs,
    classify,
    closed_form_eigenvalues,
    eigenvalue_defect,
    growth_bound,
    minimize_growth_bound,
    optimal_coupling,
    quartic_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "State",
    "assemble_matrix",
    "assemble_matrices",
    "energy",
    "energy_rate",
    "Spectrum",
    "Regime",
    "RegimeKind",
    "branch_sqrt",
    "quartic_coeffs",
    "characteristic_poly_coeffs",
    "closed_form_eigenvalues",
    "eigenvalue_defect",
    "growth_bound",
    "classify",
    "optimal_coupling",
    "minimize_growth_bound",
    "PropagatorSample",
    "Trajectory",
    "FitResult",
    "IntegrationError",
    "FitError",
    "operator_norm",
    "propagator",
    "integrate",
    "explicit_solution_eps1_b1",
    "explicit_propagator_eps1_b1",
    "asymptotic_propagator",
    "norm_growth_fit",
    "periodic_portrait_check",
    "ModeFamily",
    "FamilyBound",
    "dirichlet_modes",
    "mode_matrix",
    "mode_growth_bound",
    "family_growth_bound",
    "threshold_check",
    "load_mode_family",
    "FigureSpec",
    "default_figure_spec",
    "write_figure",
]
