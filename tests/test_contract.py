"""The library contract: every public entry point returns a finite answer
or raises one of its typed errors, over seeded draws from the whole
parameter range, empty shapes included, with warnings as errors."""

import math
import warnings

import numpy as np
import pytest

from oscpair import (
    FitError,
    IntegrationError,
    Params,
    State,
    classify,
    integrate,
    mode_growth_bound,
    norm_growth_fit,
    operator_norm,
    optimal_coupling,
    propagator,
)
from oscpair.spectrum import palindromic_roots

TYPED_ERRORS = (IntegrationError, FitError, ArithmeticError, ValueError)
DRAWS = 200


def _draws(seed: int):
    """Seeded (eps, b, mu, t): eps 0 or log-uniform in [1e-6, 1e6], b
    log-uniform in [1e-300, 1e300], mu in [1e-12, 1e12], and t 0 or
    log-uniform in [1e-6, 1e16]."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        eps = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-6, 6))
        b, mu = float(10.0 ** rng.uniform(-300, 300)), float(10.0 ** rng.uniform(-12, 12))
        t = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-6, 16))
        yield eps, b, mu, t


def _finite(x) -> bool:
    """Whether every number in an answer is finite."""
    if isinstance(x, (tuple, list)):
        return all(map(_finite, x))
    if hasattr(x, "__dataclass_fields__"):
        return all(_finite(getattr(x, name)) for name in x.__dataclass_fields__)
    if isinstance(x, (int, float, complex, np.ndarray, np.generic)):
        return bool(np.isfinite(x).all())
    return True  # enums and labels


CALLS = {
    "classify": lambda eps, b, mu, t: classify(Params(eps, b)),
    "palindromic_roots": lambda eps, b, mu, t: palindromic_roots(eps, b, mu),
    "mode_growth_bound": lambda eps, b, mu, t: mode_growth_bound(mu, Params(eps, b)),
    "propagator": lambda eps, b, mu, t: propagator(Params(eps, b), t),
    "integrate": lambda eps, b, mu, t: integrate(Params(eps, b), State(1.0, 0.0, 0.0, 0.0),
                                                 t or 1.0, samples=1 + int(mu) % 64),
    "norm_growth_fit": lambda eps, b, mu, t: norm_growth_fit(Params(eps, b), t or None),
    "optimal_coupling": lambda eps, b, mu, t: optimal_coupling(eps if eps < 1.0 else 1.0 / eps),
    "operator_norm": lambda eps, b, mu, t: operator_norm(propagator(Params(eps, b), t).matrix),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_entry_point_returns_a_finite_answer_or_a_typed_error(name):
    call, escaped = CALLS[name], []
    for seed, (eps, b, mu, t) in enumerate(_draws(sorted(CALLS).index(name))):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = call(eps, b, mu, t)
        except TYPED_ERRORS:
            continue
        except Exception as exc:  # an untyped error is the failure looked for
            escaped.append((seed, eps, b, mu, t, repr(exc)))
            continue
        if not _finite(getattr(got, "matrix", got)):
            escaped.append((seed, eps, b, mu, t, got))
    assert escaped == []


# operator_norm's empty shapes are in test_sim
@pytest.mark.parametrize("eps, b, mu, shape", [
    (np.array([]), 0.75, 1.0, (0, 4)),
    (0.5, np.array([]), np.zeros((3, 0)), (3, 0, 4)),
    (np.zeros((2, 0)), 0.75, 2.0, (2, 0, 4)),
], ids=["eps", "b_mu", "eps_2d"])
@pytest.mark.filterwarnings("error")
def test_palindromic_roots_of_empty_input_is_empty(eps, b, mu, shape):
    assert palindromic_roots(eps, b, mu).shape == shape
