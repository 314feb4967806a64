import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscpair.core import Params, State, assemble_matrices, assemble_matrix, energy, energy_rate

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_matrix_rows_at_unit_parameters():
    m = assemble_matrix(Params(1.0, 1.0))
    expected = np.array(
        [[0, 1, 0, 0], [-1, -1, 0, 1], [0, 0, 0, 1], [0, -1, -1, 1]], dtype=float
    )
    np.testing.assert_array_equal(m, expected)


def test_matrix_general_entries():
    p = Params(0.3, 2.5)
    m = assemble_matrix(p)
    assert m[1, 0] == -1.0 and m[1, 3] == 2.5
    assert m[3, 1] == -2.5 and m[3, 3] == 0.3


def test_matrix_is_a_fresh_writable_array_each_call():
    p = Params(0.5, 2.0)
    first = assemble_matrix(p)
    first[1, 0] = first[3, 2] = -4.0  # as mode_matrix does
    second = assemble_matrix(p)
    assert second.flags.writeable and second is not first
    assert second[1, 0] == second[3, 2] == -1.0


def test_matrix_stack_matches_one_matrix_per_point():
    eps, b = np.meshgrid([0.0, 0.3, 1.0, 2.0], [0.05, 0.75, 2.5])
    stack = assemble_matrices(eps, b)
    assert stack.shape == (3, 4, 4, 4) and stack.flags.writeable
    for idx in np.ndindex(eps.shape):
        np.testing.assert_array_equal(stack[idx], assemble_matrix(Params(eps[idx], b[idx])))
    np.testing.assert_array_equal(assemble_matrices(1.0, [1.0, 2.0])[1], assemble_matrix(Params(1.0, 2.0)))
    np.testing.assert_array_equal(assemble_matrices(0.5, 0.75), assemble_matrix(Params(0.5, 0.75)))


@pytest.mark.parametrize("eps, b", [([0.5, -0.1], 1.0), (math.nan, 1.0), (0.5, [1.0, 0.0]),
                                    (0.5, -1.0), (0.5, math.inf)])
def test_matrix_stack_rejects_what_params_rejects(eps, b):
    with pytest.raises(ValueError, match="must be finite"):
        assemble_matrices(eps, b)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("b", [0.05, 0.5, 1.0, 2.0, 5.0])
def test_trace_and_determinant_identities(eps, b):
    m = assemble_matrix(Params(eps, b))
    assert abs(np.trace(m) - (eps - 1.0)) <= 1e-14
    assert abs(np.linalg.det(m) - 1.0) <= 1e-14


def test_characteristic_coefficients_from_matrix():
    # det(lam*I - A) at (0.5, 2) must expand to the quartic coefficients
    m = assemble_matrix(Params(0.5, 2.0))
    coeffs = np.poly(m)
    np.testing.assert_allclose(coeffs, [1.0, 0.5, 5.5, 0.5, 1.0], atol=1e-12)


def test_coupling_sign_only_enters_squared():
    # the characteristic polynomial depends on b through b^2 only, so a
    # hand-built matrix with -b must have the same spectrum
    eps, b = 0.7, 1.3
    m_plus = assemble_matrix(Params(eps, b))
    m_minus = np.array(
        [[0, 1, 0, 0], [-1, -1, 0, -b], [0, 0, 0, 1], [0, b, -1, eps]], dtype=float
    )
    np.testing.assert_allclose(np.poly(m_plus), np.poly(m_minus), atol=1e-12)


def test_energy_reference_values():
    assert energy(State(1, 0, 0, 0)) == 0.5
    assert energy(State(0, 0, 0, 0)) == 0.0
    assert energy(State(1, 1, 1, 1)) == 2.0


@given(u=FINITE, x=FINITE, v=FINITE, y=FINITE)
def test_energy_invariant_under_sign_flip(u, x, v, y):
    assert energy(State(-u, -x, -v, -y)) == energy(State(u, x, v, y))


def test_energy_rate_reference_values():
    p = Params(0.7, 1.9)
    assert energy_rate(State(0, 1, 0, 0), p) == -1.0
    assert energy_rate(State(0, 0, 0, 1), Params(1.0, 0.5)) == 1.0
    assert energy_rate(State(1, 0, 1, 0), p) == 0.0


def test_energy_rate_is_time_derivative_of_energy():
    # symbolic oracle: differentiate E along the flow and confirm the
    # coupling terms cancel, leaving eps*y^2 - x^2
    sp = pytest.importorskip("sympy")
    eps, b, u, x, v, y = sp.symbols("eps b u x v y", real=True)
    flow = (x, -u - x + b * y, y, -b * x - v + eps * y)
    e = sp.Rational(1, 2) * (u**2 + x**2 + v**2 + y**2)
    de = sum(sp.diff(e, var) * rhs for var, rhs in zip((u, x, v, y), flow))
    assert sp.simplify(de - (eps * y**2 - x**2)) == 0


@given(u=FINITE, x=FINITE, v=FINITE, y=FINITE, eps=st.floats(0, 3), b=st.floats(0.01, 5))
def test_energy_rate_matches_numeric_directional_derivative(u, x, v, y, eps, b):
    p = Params(eps, b)
    s = State(u, x, v, y)
    z = s.as_array()
    dz = assemble_matrix(p) @ z
    # the z @ Az route cancels the coupling terms in floating point, so
    # allow rounding at the scale of the summands
    scale = (1.0 + max(b, eps)) * float(z @ z)
    assert energy_rate(s, p) == pytest.approx(float(z @ dz), abs=1e-13 * (1.0 + scale))


def test_params_validation():
    with pytest.raises(ValueError):
        Params(-0.1, 1.0)
    with pytest.raises(ValueError):
        Params(0.5, 0.0)
    with pytest.raises(ValueError):
        Params(0.5, -1.0)
    with pytest.raises(ValueError):
        Params(math.nan, 1.0)


def test_state_requires_finite_components():
    with pytest.raises(ValueError):
        State(1.0, math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        State.from_array(np.array([0.0, 0.0, math.nan, 0.0]))


def test_state_array_round_trip():
    s = State(1.0, -2.0, 3.5, 0.25)
    assert State.from_array(s.as_array()) == s
