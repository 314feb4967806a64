import math
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oscpair import acceptance, sim
from oscpair.core import Params, State, assemble_matrix, energy
from oscpair.sim import (
    IntegrationError,
    asymptotic_propagator,
    explicit_propagator_eps1_b1,
    explicit_solution_eps1_b1,
    integrate,
    norm_growth_fit,
    operator_norm,
    periodic_portrait_check,
    propagator,
)
from oscpair.spectrum import RegimeKind, classify, growth_bound

SIM_GRID = [
    Params(0.0, 0.5),
    Params(0.3, 0.2),
    Params(0.5, 0.75),
    Params(0.5, math.sqrt(0.5)),
    Params(1.0, 0.7),
    Params(1.0, 1.0),
    Params(1.0, 2.0),
    Params(1.3, 0.4),
    Params(2.0, 1.5),
    Params(2.0, 5.0),
]


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_operator_norm_matches_lapack_svd():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = rng.standard_normal((4, 4)) * math.exp(rng.uniform(-4, 4))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert operator_norm(m) == pytest.approx(want, rel=1e-12, abs=1e-15)


def exact_norm(m: np.ndarray) -> mpmath.mpf:
    """Largest singular value of a float matrix in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return max(mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False))


def _orthogonal(rng: np.random.Generator) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((4, 4)))[0]


def _hard_norm_cases() -> list[np.ndarray]:
    """Seeded 4x4 matrices at scales 1e-300 to 1e300, with clustered top
    singular values, of ranks 1 and 2, and with rows graded from 1e-150 to 1e150."""
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(60):
        cases.append(rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-300, 300))
    for _ in range(60):
        gap = 10.0 ** rng.uniform(-16, -4)
        s = np.array([1.0, 1.0 - gap, 1.0 - 2.0 * gap, rng.uniform(0.0, 1.0)])
        cases.append(_orthogonal(rng) * s @ _orthogonal(rng).T * 10.0 ** rng.uniform(-200, 200))
    for rank in (1, 2):
        for _ in range(30):
            low = sum(np.outer(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(rank))
            cases.append(low * 10.0 ** rng.uniform(-100, 100))
    for _ in range(60):
        rows = 10.0 ** np.sort(rng.uniform(-150, 150, 4))[::-1]
        cases.append(rows[:, None] * rng.standard_normal((4, 4)))
    for _ in range(60):
        cases.append(rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-300, 300, (4, 4)))
    return cases


HARD_NORM_CASES = _hard_norm_cases()


def test_operator_norm_is_within_8_units_of_roundoff_of_the_exact_norm():
    # the Gram route is accurate in the relative sense at every scale: the
    # power-of-two scaling keeps X^T X clear of overflow and underflow
    got = operator_norm(np.stack(HARD_NORM_CASES))
    assert len(got) == 300
    for m, one in zip(HARD_NORM_CASES, got.tolist()):
        exact = exact_norm(m)
        assert abs(mpmath.mpf(one) - exact) <= 8 * 2.0**-53 * exact, (m, one, exact)
        assert operator_norm(m) == one


def test_operator_norm_degenerate_inputs():
    assert operator_norm(np.eye(4)) == 1.0
    assert operator_norm(np.zeros((4, 4))) == 0.0
    assert operator_norm(np.eye(4) * 2.0**-1070) == 2.0**-1070
    assert operator_norm(np.eye(4) * 2.0**1020) == 2.0**1020


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_operator_norm_rejects_non_finite_input(bad):
    m = np.eye(4)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(m)


@pytest.mark.parametrize("m", [1j * np.eye(4), np.eye(4) + 0j, [[1.0, 2j], [0.0, 1.0]]],
                         ids=["1j_eye", "eye_plus_0j", "list"])
def test_operator_norm_rejects_complex_input(m):
    # a cast to float would drop the imaginary parts: |1j I| = 1, not 0
    with pytest.raises(ValueError, match="complex"):
        operator_norm(m)


@pytest.mark.parametrize("m", [3.0, np.ones(4), []], ids=["scalar", "vector", "empty_list"])
def test_operator_norm_rejects_input_of_fewer_than_two_dimensions(m):
    with pytest.raises(ValueError, match="needs a matrix or a stack of matrices"):
        operator_norm(m)


_RNG = np.random.default_rng(23)
NORM_STACKS = {
    "random": _RNG.standard_normal((3, 5, 4, 4)) * np.exp(_RNG.uniform(-4, 4, (3, 5, 1, 1))),
    "zero": np.zeros((6, 4, 4)),
    "identity": np.broadcast_to(np.eye(4), (2, 4, 4)),
    "near_1e100": _RNG.standard_normal((7, 4, 4)) * 1e100,
    "one_deep": _RNG.standard_normal((1, 4, 4)),
    "empty": np.zeros((0, 4, 4)),
}
EXACT_STACK_NORMS = {"zero": 0.0, "identity": 1.0}


@pytest.mark.parametrize("name", NORM_STACKS)
def test_operator_norm_of_a_stack_is_the_norm_of_each_matrix(name):
    stack = NORM_STACKS[name]
    got = operator_norm(stack)
    assert isinstance(got, np.ndarray) and got.shape == stack.shape[:-2]
    for idx in np.ndindex(stack.shape[:-2]):
        one = operator_norm(stack[idx])
        assert type(one) is float and one == got[idx]
        if name in EXACT_STACK_NORMS:
            assert one == EXACT_STACK_NORMS[name]
        else:
            exact = exact_norm(stack[idx])
            assert abs(mpmath.mpf(one) - exact) <= 8 * 2.0**-53 * exact


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0, 0, 0), (2, 1, 3, 2)])
def test_operator_norm_rejects_a_stack_with_any_non_finite_entry(bad, where):
    stack = np.tile(np.eye(4), (3, 2, 1, 1))
    stack[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(stack)


def test_operator_norm_returns_a_python_float_for_one_matrix():
    near = NORM_STACKS["near_1e100"][0]
    for m, want in ((np.eye(4), 1.0), (np.zeros((4, 4)), 0.0), ([[3.0, 0.0], [0.0, -4.0]], 4.0),
                    (near, exact_norm(near))):
        got = operator_norm(m)
        assert type(got) is float and abs(mpmath.mpf(got) - want) <= 8 * 2.0**-53 * want


def test_operator_norm_agrees_with_lapack_on_the_propagators_it_measures():
    # criterion 7's difference matrices and the guard band of (2, 1) near
    # t* = 283.77, where the norm decides the overflow guard.  Each route is
    # within 8 units of roundoff of the exact norm (LAPACK's SVD errs by up
    # to 7.6 here, the Gram route by up to 7.8), so the two agree within 16
    ts = np.linspace(0.0, 20.0, 1601)
    stacks = [np.array([propagator(Params(1.0, b), t).matrix for t in ts.tolist()])
              - asymptotic_propagator(b, ts) for b in (10.0, 50.0, 200.0)]
    band = np.linspace(283.0, 284.5, 2001).tolist()
    stacks.append(np.array([unguarded(Params(2.0, 1.0), t)[0] for t in band]))
    assert sum(map(len, stacks)) == 4803 + 2001
    for stack in stacks:
        got, want = operator_norm(stack), np.linalg.norm(stack, 2, axis=(-2, -1))
        assert np.all(np.abs(got - want) <= 16 * 2.0**-53 * want)
        for m, one in zip(stack[1::16], got[1::16].tolist()):
            exact = exact_norm(m)
            assert abs(mpmath.mpf(one) - exact) <= 8 * 2.0**-53 * exact
    # the guard raises on the same times
    np.testing.assert_array_equal(got > 1e100, want > 1e100)
    assert 0 < np.count_nonzero(got > 1e100) < len(band)


def test_norm_growth_fit_takes_its_norms_from_one_operator_norm_call(monkeypatch):
    shapes = []
    inner = sim.operator_norm

    def counting(m):
        shapes.append(np.shape(m))
        return inner(m)

    monkeypatch.setattr(sim, "operator_norm", counting)
    norm_growth_fit(Params(0.5, 0.75))
    assert shapes == [(sim._FIT_SAMPLES, 4, 4)]


def test_norm_growth_fit_reports_an_all_overflowing_grid_as_fit_error():
    # every sampled S(t) past t = 5e3 at eps = 2 is inf/NaN: an empty stack reaches the norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sim.FitError, match="propagator norm inf exceeds overflow guard"):
            norm_growth_fit(Params(2.0, 1.0), t_max=1e4)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: periodic_portrait_check(2.0, ratio_tol=1e-14), id="ratio_tol"),
        pytest.param(lambda: periodic_portrait_check(2.0, recurrence_tol=1e-6), id="recurrence_tol"),
        pytest.param(lambda: norm_growth_fit(Params(0.5, 0.75), max_rms=1.0), id="max_rms"),
        pytest.param(lambda: periodic_portrait_check(2.0, t_max=200.0), id="t_max"),
    ],
)
def test_sim_has_no_tolerance_options(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------

def test_propagator_at_zero_is_identity():
    sample = propagator(Params(0.7, 1.2), 0.0)
    np.testing.assert_array_equal(sample.matrix, np.eye(4))
    assert sample.operator_norm == 1.0


def test_propagator_rejects_bad_times():
    p = Params(1.0, 1.0)
    with pytest.raises(ValueError):
        propagator(p, math.nan)
    with pytest.raises(ValueError):
        propagator(p, -1.0)


def test_propagator_overflow_raises_without_lapack_noise(capfd):
    with pytest.raises(IntegrationError, match="overflow guard"):
        propagator(Params(2.0, 1.0), 1e4)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("p, t", [(Params(1.0, 1e22), 1.0), (Params(1.0, 1e150), 1.0),
                                  (Params(0.0, 1.7e308), 7.0), (Params(1.0, 1.0), 1e50)],
                         ids=repr)
def test_propagator_reports_a_nan_exponential_of_a_bounded_system_as_unresolvable(p, t):
    # the system is bounded or decays (omega* <= 0), but the phase |lambda| t
    # passes 2^52, where its last bit is a radian or more: S(t) is NaN, and
    # no overflow is to blame
    assert classify(p).omega_star <= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as info:
            propagator(p, t)
    assert str(info.value) == (
        f"propagator S(t) is not finite at t={t:g}: the step cannot be resolved at double precision"
    )


@pytest.mark.parametrize("p, t", [(Params(2.0, 1.0), 1e4), (Params(1.7e308, 1.7e308), 1.0),
                                  (Params(1.0, 1.0), 1e120)], ids=repr)
def test_propagator_reports_true_blowup_as_overflow(p, t):
    # omega* t + d ln t passes ln(1e100), or the spectrum itself is not finite;
    # at (1, 1) omega* = 0 and the norm grows like t^1
    with pytest.raises(IntegrationError) as info:
        propagator(p, t)
    assert str(info.value) == f"propagator norm inf exceeds overflow guard at t={t:g}"


def unguarded(p: Params, t: float) -> tuple[np.ndarray, float]:
    """S(t) for t > 0 as :func:`propagator` builds it before its guard, and
    its coefficient bound sum |c_i| max|B_i|, summed as propagator sums it."""
    structure = sim._structure(p.epsilon, p.b)
    c = sim._coefficients(p, t, structure)
    return np.dot(c, structure[0]).reshape(4, 4), sum(abs(x) * s for x, s in zip(c, structure[1]))


def test_structure_caches_the_largest_entry_of_each_matrix():
    rng = np.random.default_rng(3)
    for eps, b in [(0.0, 1e-3), (1.0, 1.0), (5.0, 3.0), (1e6, 1.0), (0.5, 1e150)] + [
        (10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)) for _ in range(200)
    ]:
        basis, scale = sim._structure(eps, b)[:2]
        assert scale == tuple(np.abs(basis).max(axis=1).tolist())


def _guard_grid() -> list[tuple[Params, float]]:
    """Seeded (p, t) over the closed form's three branches, both defective
    curves, the quadruple root, eps = 1 up to b = 1e3, and (2, 1) around
    t* = 283.77, where the largest entry, about 8e99, sits in the band
    (2.5e99, 1e100] where only the operator norm decides."""
    rng = np.random.default_rng(9)

    def times(n, lo=-4.0, hi=3.0):
        return (10.0 ** rng.uniform(lo, hi, n)).tolist()

    def near(x, n):  # x, or x moved by a relative 1e-12 to 1e-3 either way
        sign = rng.choice([0.0, 1.0, -1.0], n)
        return (x * (1.0 + sign * 10.0 ** rng.uniform(-12, -3, n))).tolist()

    grid = []
    for e in (0.0, 0.5, 1.0, 2.0, 5.0, 3.0 * rng.random()):  # b = (1+eps)/2
        grid += [(Params(e, b), t) for b, t in zip(near(0.5 * (1.0 + e), 60), times(60, hi=3.5))]
    for e in (2.5, 4.0, 7.0):  # b^2 = 3 eps - 6
        grid += [(Params(e, b), t) for b, t in zip(near(math.sqrt(3.0 * e - 6.0), 60), times(60))]
    grid += [(Params(e, 3.0), t) for e, t in zip(near(5.0, 120), times(120, -6.0, 2.0))]
    grid += [(Params(1.0, b), t) for b, t in zip((10.0 ** rng.uniform(-1, 3, 300)).tolist(), times(300))]
    eps, b = (10.0 ** rng.uniform(-3, 1.5, 400)).tolist(), (10.0 ** rng.uniform(-3, 3, 400)).tolist()
    grid += [(Params(e, c), t) for e, c, t in zip(eps, b, times(400))]
    band = np.concatenate((np.linspace(283.0, 284.5, 2001), [290.0, 1e3, 1e4]))
    grid += [(Params(2.0, 1.0), t) for t in band.tolist()]
    # NaN coefficients: a phase past 2^52 on a bounded system, and overflow
    grid += [(Params(1.0, 1e22), 100.0), (Params(1.0, 1e150), 1.0), (Params(1.0, 1.0), 1e120)]
    return grid


def test_propagator_guard_raises_exactly_where_the_norm_passes_the_bound(monkeypatch):
    # on every point the coefficient bound bounds S(t) up to the rounding of
    # its sums, far inside the gap between 2e99 and 2.5e99; propagator
    # returns S(t) bit for bit or raises as the full check of S(t) would
    taylor, inner = [], sim._taylor
    monkeypatch.setattr(sim, "_taylor", lambda *a: taylor.append(1) or inner(*a))
    band = raised = paired = quotient = 0
    for p, t in _guard_grid():
        m, bound = unguarded(p, t)
        if np.isfinite(m).all():
            assert np.abs(m).max() <= bound * (1.0 + 2.0**-50), (p, t)
            nrm = operator_norm(m)
            want = f"propagator norm {nrm:.3e} exceeds overflow guard at t={t:g}"
        else:
            regime = classify(p)
            growth = regime.omega_star * t + regime.defect_penalty * math.log(max(t, 1.0))
            nrm = math.inf
            want = (f"propagator norm inf exceeds overflow guard at t={t:g}" if growth >= math.log(1e100)
                    else f"propagator S(t) is not finite at t={t:g}: "
                    "the step cannot be resolved at double precision")
        band += bool(2.5e99 < np.abs(m).max() <= 1e100)
        if nrm > 1e100:
            raised += 1
            with pytest.raises(IntegrationError) as info:
                propagator(p, t)
            assert str(info.value) == want
        else:
            np.testing.assert_array_equal(propagator(p, t).matrix, m)
        small = abs(sim._structure(p.epsilon, p.b)[3]) * t < 1.0
        paired += small
        quotient += not small
    paired -= len(taylor) // 2  # unguarded and propagator each took the series
    assert band > 100 and 100 < raised < 1900
    assert min(len(taylor) // 2, paired, quotient) > 100, (len(taylor), paired, quotient)


def test_propagator_sample_computes_its_norm_once_on_first_read(monkeypatch):
    calls = []
    inner = sim.operator_norm

    def counting(m):
        calls.append(1)
        return inner(m)

    monkeypatch.setattr(sim, "operator_norm", counting)
    for p, t in ((Params(0.5, 0.75), 1.0), (Params(1.0, 1.0), 50.0), (Params(2.0, 1.0), 100.0)):
        sample = propagator(p, t)
        assert calls == []
        assert sample.operator_norm == inner(sample.matrix)
        assert sample.operator_norm == sample.operator_norm
        assert len(calls) == 1
        calls.clear()


def test_propagator_keeps_the_norm_its_overflow_guard_computed(monkeypatch):
    # at (2, 1), t = 283 the largest entry lies in (2.5e99, 1e100], so the
    # guard needs the operator norm; the first read must reuse it
    calls = []
    inner = sim.operator_norm

    def counting(m):
        calls.append(1)
        return inner(m)

    monkeypatch.setattr(sim, "operator_norm", counting)
    sample = propagator(Params(2.0, 1.0), 283.0)
    assert 2.5e99 < np.abs(sample.matrix).max() <= 1e100
    first, second = sample.operator_norm, sample.operator_norm
    assert len(calls) == 1
    assert first == second == inner(sample.matrix)


def test_criterion_7_reads_no_operator_norm(monkeypatch):
    calls = []
    monkeypatch.setattr(sim, "operator_norm", lambda m: calls.append(1))
    c7 = next(c for c in acceptance.CRITERIA if c.number == 7)
    ok, detail = c7.run()
    assert ok, detail
    assert calls == []


def test_criterion_7_takes_one_operator_norm_per_coupling(monkeypatch):
    shapes = []
    inner = acceptance.operator_norm

    def counting(m):
        shapes.append(np.shape(m))
        return inner(m)

    monkeypatch.setattr(acceptance, "operator_norm", counting)
    c7 = next(c for c in acceptance.CRITERIA if c.number == 7)
    ok, detail = c7.run()
    assert ok and detail == "sup differences 1.0638 > 0.2232 > 0.0558", detail
    assert shapes == [(1601, 4, 4)] * 3


def test_propagator_matches_explicit_solution_at_defective_point():
    p = Params(1.0, 1.0)
    for t in (0.5, math.pi, 2 * math.pi, 10.0, 50.0):
        sample = propagator(p, t)
        exact = explicit_propagator_eps1_b1(t)
        assert np.abs(sample.matrix - exact).max() <= 1e-10 * (1.0 + np.abs(exact).max())


def test_propagator_semigroup_property_on_grid():
    rng = np.random.default_rng(11)
    grid = [Params(i / 10.0, j / 20.0) for i in range(0, 21) for j in range(1, 101)]
    for p in grid:
        t, s = rng.uniform(0, 10, size=2)
        combined = propagator(p, t + s).matrix
        split = propagator(p, t).matrix @ propagator(p, s).matrix
        assert operator_norm(combined - split) <= 1e-9 * (1.0 + operator_norm(combined))


def test_propagator_agrees_with_eigendecomposition_away_from_defects():
    # independent route: U exp(tD) U^-1 is valid wherever the spectrum is simple
    for p in (Params(0.5, 2.0), Params(1.0, 3.0), Params(2.0, 1.0)):
        m = assemble_matrix(p)
        w, u = np.linalg.eig(m)
        for t in (0.5, 2.0, 7.5):
            rebuilt = (u @ np.diag(np.exp(t * w)) @ np.linalg.inv(u)).real
            assert np.abs(propagator(p, t).matrix - rebuilt).max() <= 1e-8


def test_propagator_norm_decays_inside_envelope_at_optimal_coupling():
    p = Params(0.5, 0.75)
    ts = np.linspace(0.0, 40.0, 81)
    norms = np.array([propagator(p, float(t)).operator_norm for t in ts])
    envelope = (1.0 + ts) * np.exp(-0.125 * ts)
    c = float(np.max(norms / envelope))
    assert 1.0 <= c < 10.0  # the envelope constant is at least 1 (norm at t=0)
    assert np.all(norms <= c * envelope + 1e-12)
    assert propagator(p, 40.0).operator_norm < 1.0


# ---------------------------------------------------------------------------
# blocked exact stepping
# ---------------------------------------------------------------------------

def _loop_march(step: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """Reference for ``sim._march``: one product per step."""
    out = np.empty((n + 1,) + start.shape)
    out[0] = start
    for k in range(n):
        np.matmul(step, out[k], out=out[k + 1])
    return out


# decaying, bounded, blow-up; and a stiff step whose 8th power passes 1e150
MARCH_STEPS = {
    "decay": propagator(Params(0.5, 0.75), 0.1).matrix,
    "bounded": propagator(Params(1.0, 2.0), 0.1).matrix,
    "blowup": propagator(Params(2.0, 1.0), 0.1).matrix,
    "stiff": np.diag([1e20, 1e-20, 1.5, 0.5]),
}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 24, 25, 26, 399, 1200])
@pytest.mark.parametrize("shape", [(4,), (4, 4)], ids=["vector", "matrix"])
@pytest.mark.parametrize("name", MARCH_STEPS)
def test_march_matches_one_step_loop(name, shape, n):
    step = MARCH_STEPS[name]
    start = np.random.default_rng(n).standard_normal(shape)
    if name == "stiff":
        start[0] = 0.0  # step^j @ start stays finite up to 1.5^1200
    got = sim._march(step, start, n)
    want = _loop_march(step, start, n)
    assert got.shape == want.shape == (n + 1,) + shape
    axes = tuple(range(1, len(got.shape)))
    scale = np.abs(want).max(axis=axes, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_march_takes_order_sqrt_n_python_level_products():
    products = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(1)
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(
                    o.view(np.ndarray) if isinstance(o, Counted) else o for o in kwargs["out"]
                )
            result = getattr(ufunc, method)(*plain, **kwargs)
            return result.view(Counted) if isinstance(result, np.ndarray) else result

    step, start, n = MARCH_STEPS["bounded"], np.ones(4), 1200
    got = sim._march(step.view(Counted), start, n)
    np.testing.assert_array_equal(np.asarray(got), sim._march(step, start, n))
    assert 1 <= len(products) <= 2 * math.isqrt(n + 1) + 2


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_zero_state_stays_zero():
    traj = integrate(Params(1.0, 2.0), State(0, 0, 0, 0), 5.0)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.energies == 0.0)


def test_integrate_zero_state_stays_zero_where_step_powers_overflow():
    # S(125) at (2, 1) is about 1e44, so S(125)^28 is inf and inf * 0 is NaN
    traj = integrate(Params(2.0, 1.0), State(0, 0, 0, 0), 1e5)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.dissipated == 0.0)


def test_integrate_validates_arguments():
    p = Params(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(p, State(1, 0, 0, 0), -1.0)


def test_integrate_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        integrate(Params(1.0, 1.0), State(1, 0, 0, 0), 1.0, samples=0)


def test_integrate_consistent_with_propagator_and_energy_balance():
    rng = np.random.default_rng(3)
    tol = 1e-10
    for p in SIM_GRID:
        z0 = rng.standard_normal(4)
        traj = integrate(p, State.from_array(z0), 10.0, samples=200)
        want = propagator(p, 10.0).matrix @ z0
        scale = 1.0 + float(np.abs(want).max())
        assert np.abs(traj.states[-1] - want).max() <= 10.0 * tol * scale
        # exact dissipation identity, cumulatively and per step
        resid = (traj.energies - traj.energies[0]) - traj.dissipated
        e_scale = 1.0 + float(traj.energies.max())
        assert np.abs(resid).max() <= 100.0 * tol * e_scale
        step = np.abs(np.diff(traj.energies) - np.diff(traj.dissipated))
        assert step.max() <= tol * e_scale


@pytest.mark.parametrize("t_end", [800.0, 1800.0, 1e8])
def test_integrate_long_steps_in_the_decay_regime(t_end):
    # dt = t_end/8 up to 1.25e7: S(dt) decays to about 1e-9 at dt = 225 and
    # underflows long before the last
    p, z0, tol = Params(0.5, 1.0), np.ones(4), 1e-10
    traj = integrate(p, State.from_array(z0), t_end, samples=8)
    want = np.array([propagator(p, t).matrix @ z0 for t in traj.times.tolist()])
    scale = 1.0 + float(np.abs(want).max())
    assert np.abs(traj.states - want).max() <= 10.0 * tol * scale
    resid = (traj.energies - traj.energies[0]) - traj.dissipated
    e_scale = 1.0 + float(traj.energies.max())
    assert np.abs(resid).max() <= 100.0 * tol * e_scale
    step = np.abs(np.diff(traj.energies) - np.diff(traj.dissipated))
    assert step.max() <= tol * e_scale


def _rk45_oracle(p: Params, z0: np.ndarray, t_end: float, samples: int):
    """Adaptive RK45 on z' = A z, carrying the integral of eps*y^2 - x^2."""
    m = assemble_matrix(p)

    def rhs(t, zq):
        out = np.empty(5)
        out[:4] = m @ zq[:4]
        out[4] = p.epsilon * zq[3] * zq[3] - zq[1] * zq[1]
        return out

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.append(z0, 0.0),
        method="RK45",
        rtol=1e-12,
        atol=1e-12,
        t_eval=np.linspace(0.0, t_end, samples + 1),
    )
    assert sol.success, sol.message
    return sol.y[:4].T, sol.y[4]


def test_integrate_matches_independent_rk45_solver():
    rng = np.random.default_rng(3)
    for p in SIM_GRID:
        z0 = rng.standard_normal(4)
        traj = integrate(p, State.from_array(z0), 10.0, samples=200)
        states, dissipated = _rk45_oracle(p, z0, 10.0, 200)
        scale = 1.0 + float(np.abs(states).max())
        assert np.abs(traj.states - states).max() <= 1e-10 * scale
        e_scale = 1.0 + 0.5 * scale * scale
        assert np.abs(traj.dissipated - dissipated).max() <= 1e-10 * e_scale


def test_integrate_overflow_raises_integration_error():
    with pytest.raises(IntegrationError, match="overflow guard at t=285$"):
        integrate(Params(2.0, 1.0), State(1, 0, 0, 0), 1000.0)


def test_integrate_shortest_window_keeps_the_initial_state():
    # dt = 5e-324/800 is 0: no doublings, and the rows are z0 exactly
    z0 = State(1.0, -2.0, 0.5, 3.0)
    traj = integrate(Params(0.5, 0.75), z0, 5e-324)
    assert np.all(traj.states == z0.as_array())
    assert np.all(traj.dissipated == 0.0)


def test_integrate_step_whose_bound_overflows_raises_integration_error():
    # dt * A overflows the exponential of a decaying system, and propagator
    # reports the non-finite step as one it cannot resolve
    with pytest.raises(IntegrationError, match="not finite at t=1.7e\\+308: the step cannot be resolved"):
        integrate(Params(0.5, 1.0), State(1, 0, 0, 0), 1.7e308, samples=1)


@pytest.mark.parametrize("p, z0", [(Params(1.0, 20.0), State(1, 0.1, 0, 0)),
                                   (Params(1.0, 10.0), State(1, 0, 0, 0))])
def test_integrate_rejects_steps_too_long_to_resolve(p, z0):
    # bounded regime, dt = 8.3e13: the step's energy change and z^T W z
    # disagree by 1e-3 or more of the energy, and the energies are wrong
    with pytest.raises(IntegrationError, match="step too long to resolve"):
        integrate(p, z0, 1e17, samples=1200)


def test_integrate_trace_gap_bound_is_pinned():
    assert sim._TRACE_GAP_CAP == 1e-6


@pytest.mark.parametrize("eps, b, t_end, samples", [(5.0, 1.0, 40.0, 4),
                                                    (2.0, 1.0, 150.0, 1),
                                                    (2.0, 1.0, 270.0, 1)])
def test_integrate_resolves_exact_blowup_steps(eps, b, t_end, samples):
    # steps of norm up to 6e94: exact, and within propagator's guard
    p, z0 = Params(eps, b), State(1, 0, 0, 0)
    traj = integrate(p, z0, t_end, samples=samples)
    want = propagator(p, t_end).matrix @ z0.as_array()
    assert np.abs(traj.states[-1] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("delta, flagged", [(1e-5, True), (1e-8, False)])
def test_integrate_flags_a_scaled_step(monkeypatch, delta, flagged):
    # S(t) is linear in its coefficients: scaling them scales the step
    inner = sim._coefficients
    monkeypatch.setattr(sim, "_coefficients", lambda *a: tuple(c * (1.0 + delta) for c in inner(*a)))
    p, z0 = Params(0.5, 0.75), State(1, 0, 0, 0)
    if flagged:
        with pytest.raises(IntegrationError, match="step too long to resolve at dt=0.05: trace gap"):
            integrate(p, z0, 10.0, samples=200)
    else:
        integrate(p, z0, 10.0, samples=200)


@pytest.mark.filterwarnings("error")
def test_integrate_reports_a_nan_trace_gap_without_warnings(monkeypatch):
    # a finite step while exp(lambda dt) overflows, so the gap is NaN; the
    # closed form never gives such a step, so the propagator is stubbed
    monkeypatch.setattr(sim, "propagator", lambda p, t: sim.PropagatorSample(t=t, matrix=np.eye(4)))
    with pytest.raises(IntegrationError, match="trace gap nan"):
        integrate(Params(2.0, 1.0), State(1, 0, 0, 0), 1e7)


@pytest.mark.parametrize("p, dt", [(p, 0.05) for p in SIM_GRID]
                         + [(Params(0.5, 1.0), t / 1200) for t in (1e6, 1e8)], ids=repr)
def test_integrate_trace_gap_is_at_rounding_level(p, dt):
    # the SIM_GRID steps of 10 time units on 200 samples, and fig8's long windows
    assert sim._trace_gap(p, dt, propagator(p, dt).matrix) <= 1e-12


def test_integrate_matches_explicit_solution_over_long_window():
    rng = np.random.default_rng(5)
    p = Params(1.0, 1.0)
    z0 = rng.standard_normal(4)
    traj = integrate(p, State.from_array(z0), 50.0, samples=400)
    worst = float(np.abs(traj.states - explicit_propagator_eps1_b1(traj.times) @ z0).max())
    assert worst <= 1e-7


def test_integrate_bounded_regime_has_no_energy_trend():
    traj = integrate(Params(1.0, 2.0), State(1, 0, 0, 0), 100.0, samples=400)
    assert np.isfinite(traj.energies).all()
    half = traj.times >= 50.0
    slope = np.polyfit(traj.times[half], np.log(traj.energies[half]), 1)[0]
    assert abs(slope) <= 1e-2


# ---------------------------------------------------------------------------
# explicit solution at (eps=1, b=1)
# ---------------------------------------------------------------------------

def test_explicit_solution_initial_condition():
    z0 = State(1.0, -0.3, 0.7, 2.0)
    assert explicit_solution_eps1_b1(z0, 0.0) == z0


def test_explicit_solution_reference_values_at_pi():
    s = explicit_solution_eps1_b1(State(1, 0, 0, 0), math.pi)
    assert s.u == pytest.approx(-(2.0 - math.pi) / 2.0, abs=1e-15)
    assert s.v == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_explicit_solution_satisfies_both_equations():
    # symbolic oracle: substitute the displayed u, v into the system and
    # check both residuals vanish identically, then check the velocity
    # components returned here are the exact derivatives
    sp = pytest.importorskip("sympy")
    t, u0, x0, v0, y0 = sp.symbols("t u0 x0 v0 y0", real=True)
    u = sp.Rational(1, 2) * (
        (2 * u0 - t * u0 + t * v0) * sp.cos(t)
        + (u0 - v0 + 2 * x0 - t * x0 + t * y0) * sp.sin(t)
    )
    v = sp.Rational(1, 2) * (
        (-t * u0 + 2 * v0 + t * v0) * sp.cos(t)
        + (u0 - v0 - t * x0 + 2 * y0 + t * y0) * sp.sin(t)
    )
    du, dv = sp.diff(u, t), sp.diff(v, t)
    assert sp.simplify(sp.diff(u, t, 2) + u + du - dv) == 0
    assert sp.simplify(sp.diff(v, t, 2) + v - dv + du) == 0

    subs = {u0: 0.0, x0: 1.0, v0: 0.0, y0: 1.0}
    for tv in (0.3, 1.7, 9.4):
        got = explicit_solution_eps1_b1(State(0, 1, 0, 1), tv)
        assert got.u == pytest.approx(float(u.subs(subs).subs(t, tv)), abs=1e-10)
        assert got.x == pytest.approx(float(du.subs(subs).subs(t, tv)), abs=1e-10)
        assert got.v == pytest.approx(float(v.subs(subs).subs(t, tv)), abs=1e-10)
        assert got.y == pytest.approx(float(dv.subs(subs).subs(t, tv)), abs=1e-10)


def test_explicit_propagator_is_the_identity_at_zero():
    np.testing.assert_array_equal(explicit_propagator_eps1_b1(0.0), np.eye(4))


def test_explicit_propagator_columns_are_the_solutions_from_unit_states():
    ts = np.array([0.0, 0.3, math.pi, 9.4, -2.5])
    stack = explicit_propagator_eps1_b1(ts)
    assert stack.shape == (5, 4, 4)
    for t, s in zip(ts, stack):
        for j, e in enumerate(np.eye(4)):
            column = explicit_solution_eps1_b1(State.from_array(e), float(t)).as_array()
            np.testing.assert_array_equal(column, s[:, j])
    assert explicit_propagator_eps1_b1(np.zeros((2, 3))).shape == (2, 3, 4, 4)


def test_explicit_propagator_semigroup_property():
    rng = np.random.default_rng(12)
    t, s = rng.uniform(-20.0, 20.0, size=(2, 50))
    combined = explicit_propagator_eps1_b1(t + s)
    split = explicit_propagator_eps1_b1(t) @ explicit_propagator_eps1_b1(s)
    scale = 1.0 + np.abs(combined).max(axis=(1, 2))
    assert (np.abs(combined - split).max(axis=(1, 2)) <= 1e-12 * scale).all()


@pytest.mark.parametrize("t", [0.5, math.pi, 10.0, 50.0])
def test_explicit_propagator_matches_mpmath_expm(t):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.matrix(assemble_matrix(Params(1.0, 1.0)).tolist())
        exact = np.array(mp.expm(mp.mpf(t) * a).tolist(), dtype=float)
    got = explicit_propagator_eps1_b1(t)
    assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


def test_explicit_propagator_makes_no_matrix_exponential(monkeypatch):
    calls = counting_exponentials(monkeypatch)
    explicit_propagator_eps1_b1(np.linspace(0.0, 50.0, 501))
    explicit_solution_eps1_b1(State(1, 0, 0, 0), 2.0)
    assert calls == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_explicit_propagator_rejects_non_finite_time(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time must be finite"):
            explicit_propagator_eps1_b1(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="time must be finite"):
            explicit_solution_eps1_b1(State(1, 0, 0, 0), bad)


def test_explicit_solution_energy_grows_quadratically():
    z0 = State(1, 0, 0, 0)
    e_small = energy(explicit_solution_eps1_b1(z0, 100.0))
    e_large = energy(explicit_solution_eps1_b1(z0, 200.0))
    assert e_large > e_small > energy(z0)


# ---------------------------------------------------------------------------
# large-b asymptotics
# ---------------------------------------------------------------------------

def test_asymptotic_propagator_identity_at_zero():
    np.testing.assert_array_equal(asymptotic_propagator(7.0, 0.0), np.eye(4))


def test_asymptotic_propagator_slow_rotation_of_displacements():
    za = asymptotic_propagator(100.0, 1.0) @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        za, [math.cos(0.01), 0.0, math.sin(0.01), 0.0], atol=1e-15
    )


def test_asymptotic_propagator_rejects_small_coupling():
    with pytest.raises(ValueError):
        asymptotic_propagator(0.9, 1.0)


@pytest.mark.parametrize("b", [1.5, 5.0, 20.0, 200.0])
def test_asymptotic_propagator_array_equals_scalar_calls(b):
    ts = np.concatenate(([0.0], np.random.default_rng(3).uniform(0.0, 1e3, 400)))
    got = asymptotic_propagator(b, ts)
    assert got.shape == ts.shape + (4, 4)
    np.testing.assert_array_equal(got, np.stack([asymptotic_propagator(b, float(t)) for t in ts]))
    grid = ts[1:].reshape(20, 20)
    assert asymptotic_propagator(b, grid).shape == (20, 20, 4, 4)


@pytest.mark.parametrize(
    "b,t",
    [
        (math.inf, 1.0),
        (math.nan, 1.0),
        (1e300, 1e10),
        (2.0, math.nan),
        (2.0, math.inf),
        (2.0, -1.0),
        (2.0, np.array([0.0, 1.0, math.nan, 3.0, -1.0])),
        (1e300, np.array([0.0, 1e-300, 1e10])),
    ],
)
def test_asymptotic_propagator_rejects_non_finite_or_negative_input(b, t):
    with pytest.raises(ValueError, match="finite"):
        asymptotic_propagator(b, t)


def test_asymptotic_error_shrinks_with_coupling():
    ts = np.linspace(0.0, 20.0, 401)
    sups = []
    for b in (50.0, 200.0):
        p = Params(1.0, b)
        sup = max(
            operator_norm(propagator(p, float(t)).matrix - asymptotic_propagator(b, float(t)))
            for t in ts
        )
        sups.append(sup)
    assert sups[0] > sups[1]


# ---------------------------------------------------------------------------
# norm growth fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "eps,b,rate,degree",
    [(1.0, 1.0, 0.0, 1.0), (0.5, 0.75, -0.125, 1.0), (0.0, 0.5, -0.25, 1.0)],
)
def test_norm_growth_fit_reference_points(eps, b, rate, degree):
    fit = norm_growth_fit(Params(eps, b))
    assert abs(fit.rate - rate) <= 0.02 * (1.0 + abs(rate))
    assert abs(fit.poly_degree - degree) <= 0.15
    assert fit.rms_residual < 0.2


def test_norm_growth_fit_without_oscillation_is_one_plain_fit(monkeypatch):
    # at (0, 10) the detrended log-norm has fewer than 4 local maxima: no refit
    calls = []
    lstsq = sim._trend_lstsq
    monkeypatch.setattr(sim, "_trend_lstsq", lambda *a: calls.append(a) or lstsq(*a))
    p = Params(0.0, 10.0)
    fit = norm_growth_fit(p)
    regime = classify(p)
    assert len(calls) == 1
    assert abs(fit.rate - regime.omega_star) <= 1e-4  # -0.004918 vs -0.004855
    assert abs(fit.poly_degree - regime.defect_penalty) <= 0.01  # -0.006 vs 0


def test_norm_growth_fit_tracks_growth_bound_when_blowing_up():
    p = Params(2.0, 1.0)
    fit = norm_growth_fit(p)
    assert abs(fit.rate - growth_bound(p)) <= 0.02 * (1.0 + growth_bound(p))


# growth_bound reads 0 or a few ulps of either sign on the boundaries, and
# 5e-7 at (1, 1 - 5e-13), which classify puts on the (1, 1) boundary;
# (0.5, 0.75) is b = (1+eps)/2
BOUNDARY_PAIRS = [
    Params(0.7, math.sqrt(0.7)),
    Params(0.9, math.sqrt(0.9)),
    Params(1.0, 1.0),
    Params(1.0, 1.0 - 5e-13),
    Params(1.0, 2.0),
    Params(0.5, 0.75),
]


@pytest.mark.parametrize("p", BOUNDARY_PAIRS, ids=repr)
def test_norm_growth_fit_horizon_is_the_regimes(p):
    assert classify(p).kind is not RegimeKind.EXP_BLOWUP
    assert norm_growth_fit(p) == norm_growth_fit(p, t_max=200.0)


@pytest.mark.parametrize("p", [Params(1.5, 1.25), Params(1.0, 0.5), Params(0.5, 0.35),
                               Params(2.0, 1.0)], ids=repr)
def test_norm_growth_fit_blowup_horizon_is_60(p):
    assert classify(p).kind is RegimeKind.EXP_BLOWUP
    assert norm_growth_fit(p) == norm_growth_fit(p, t_max=60.0)


@pytest.mark.parametrize("p, rate", [(Params(5.0, 1.0), 4.611582),
                                     (Params(8.0, 1.0), 7.758593),
                                     (Params(100.0, 1.0), 99.980096)], ids=repr)
def test_norm_growth_fit_blowup_horizon_shrinks_with_the_rate(p, rate):
    # 60 would pass the overflow guard; 100/omega* stays under it
    fit = norm_growth_fit(p)
    assert fit == norm_growth_fit(p, t_max=100.0 / classify(p).omega_star)
    assert fit.rate == pytest.approx(rate, abs=1e-6)


def test_norm_growth_fit_aborts_on_overflow():
    from oscpair.sim import FitError

    with pytest.raises(FitError, match="overflow"):
        norm_growth_fit(Params(2.0, 1.0), t_max=400.0)


def test_norm_growth_fit_takes_its_start_and_step_from_propagator(monkeypatch):
    times = []
    inner = sim.propagator
    monkeypatch.setattr(sim, "propagator", lambda p, t: times.append(t) or inner(p, t))
    norm_growth_fit(Params(0.5, 0.75), t_max=80.0)
    assert sorted(times) == [40.0 / (sim._FIT_SAMPLES - 1), 40.0]


@pytest.mark.parametrize("p, t_max, message", [
    # a bounded system whose step of 1.25e11 misses its traces by 7.4e-5
    (Params(1.0, 2.0), 1e14, "step too long to resolve at dt=1.25313e+11: trace gap"),
    # S(100) of a bounded system is NaN: not an overflow
    (Params(1.0, 1e22), None, "not finite at t=100: the step cannot be resolved"),
    # decay past the smallest double
    (Params(0.5, 0.75), 1e4, "propagator norm underflows to 0 at t=6052.63"),
    (Params(0.0, 0.5), 4e3, "propagator norm underflows to 0 at t=3012.53"),
    (Params(0.5, 2.0), 1e5, "propagator norm underflows to 0 at t=50000"),
], ids=repr)
@pytest.mark.filterwarnings("error")
def test_norm_growth_fit_refuses_what_it_cannot_resolve(p, t_max, message):
    with pytest.raises(sim.FitError, match=re.escape(message)):
        norm_growth_fit(p, t_max)


@pytest.mark.parametrize("t_max, rank", [(1e-300, 1), (1e-100, 1), (1e-20, 1), (1e-12, 2), (1e-8, 2)])
def test_norm_growth_fit_refuses_a_rank_deficient_window(t_max, rank):
    # omega* is -0.125 here; these windows used to fit rate 0 or about 0.25
    with pytest.raises(sim.FitError, match=f"^norm-growth fit is rank-deficient: rank {rank} < 3$"):
        norm_growth_fit(Params(0.5, 0.75), t_max)


def test_norm_growth_fit_refuses_a_rank_deficient_peak_refit(monkeypatch):
    # the first fit has full rank, and the refit through the peaks is refused
    inner = sim._trend_lstsq
    monkeypatch.setattr(sim, "_trend_lstsq", lambda design, logs: inner(
        design if len(design) == sim._FIT_SAMPLES else design * [1.0, 0.0, 1.0], logs))
    with pytest.raises(sim.FitError, match="^norm-growth fit is rank-deficient: rank 2 < 3$"):
        norm_growth_fit(Params(0.5, 0.75))


@pytest.mark.filterwarnings("error")
def test_norm_growth_fit_returns_a_finite_fit_or_fit_error():
    # seeded over eps in {0, 1, 10^U(-3,3)}, b = 10^U(-3,25) and a default or
    # 10^U(-2,16) horizon: overflow, underflow and unresolvable steps all occur
    rng = np.random.default_rng(25)
    bad = []
    for _ in range(300):
        eps = (0.0, 1.0, 10.0 ** rng.uniform(-3, 3))[rng.integers(3)]
        p = Params(eps, 10.0 ** rng.uniform(-3, 25))
        t_max = None if rng.random() < 0.5 else 10.0 ** rng.uniform(-2, 16)
        try:
            fit = norm_growth_fit(p, t_max)
        except sim.FitError:
            continue
        except Exception as exc:  # an escape is the failure looked for
            bad.append((p, t_max, repr(exc)))
            continue
        if not np.isfinite(fit).all():
            bad.append((p, t_max, fit))
    assert bad == []


@pytest.mark.parametrize("samples", [0, 1, 2, 3])
def test_norm_growth_fit_rejects_too_few_samples(samples):
    # the sample count is fixed at _FIT_SAMPLES: every value of the keyword is refused
    with pytest.raises(TypeError, match="unexpected keyword argument 'samples'"):
        norm_growth_fit(Params(0.5, 0.75), samples=samples)


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
def test_norm_growth_fit_rejects_bad_horizon(t_max):
    with pytest.raises(ValueError, match="t_max must be finite and > 0"):
        norm_growth_fit(Params(0.5, 0.75), t_max=t_max)


def test_boundedness_certificates_over_long_horizon():
    for p in (Params(1.0, 2.0), Params(0.5, math.sqrt(0.5))):
        ts = np.linspace(0.5, 500.0, 500)
        lognorms = [math.log(propagator(p, float(t)).operator_norm) for t in ts]
        slope = np.polyfit(ts, lognorms, 1)[0]
        assert abs(slope) <= 1e-3


# ---------------------------------------------------------------------------
# periodic portraits
# ---------------------------------------------------------------------------

def test_periodicity_for_rational_frequency_ratio():
    # b = sqrt(q + 1/q - 1) gives frequencies sqrt(q) and 1/sqrt(q)
    b = math.sqrt(4.0 + 0.25 - 1.0)
    periodic, period = periodic_portrait_check(b)
    assert periodic
    assert period == pytest.approx(4.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("q", [1e4, 1e5, 1e6, 1e7, 1e8])
def test_periodicity_for_large_integer_frequency_ratio(q):
    periodic, period = periodic_portrait_check(math.sqrt(q + 1.0 / q - 1.0))
    assert periodic
    assert period == pytest.approx(2.0 * math.pi * math.sqrt(q), rel=1e-12)


def test_periodicity_verdict_for_generic_coupling_is_not_a_crash():
    # an irrational ratio is close to some fraction with denominator <= 1e4
    # only by chance; a tolerance looser than the ratio's rounding error
    # declares it periodic, and the recurrence check then raises
    for b in np.random.default_rng(17).uniform(1.01, 30.0, 100):
        periodic_portrait_check(float(b))


def test_periodicity_nan_recurrence_gap_raises_without_warnings():
    # at b = 1e150 the phase |lambda| T passes 2^52 and S(T) is NaN, and a
    # NaN gap used to pass; the recurrence check reads S(T) from propagator,
    # whose guard flags the NaN of a bounded system as a step it cannot resolve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="cannot be resolved at double precision"):
            periodic_portrait_check(1e150)


def test_periodicity_non_finite_aperiodic_orbit_raises(monkeypatch):
    monkeypatch.setattr(sim, "_coefficients", lambda p, t, structure: (math.nan,) * 4)
    with pytest.raises(IntegrationError, match="cannot be resolved at double precision"):
        periodic_portrait_check(math.sqrt(2.0))


def test_periodicity_aperiodic_verdict_fails_on_a_recurrence_past_half_a_time_unit(monkeypatch):
    # with every gap within tolerance, the first scan time past 0.5 is 3 * 200/1024
    monkeypatch.setattr(sim, "_RECURRENCE_TOL", 10.0)
    with pytest.raises(IntegrationError, match="contradicted by recurrence at t=0.585938$"):
        periodic_portrait_check(math.sqrt(2.0))


def test_periodicity_rejected_for_unit_coupling():
    with pytest.raises(ValueError):
        periodic_portrait_check(1.0)


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_periodicity_rejects_non_finite_coupling(b):
    with pytest.raises(ValueError, match="requires finite b > 1"):
        periodic_portrait_check(b)


def test_no_recurrence_for_quadratic_irrational_ratio():
    periodic, period = periodic_portrait_check(math.sqrt(2.0))
    assert not periodic
    assert math.isnan(period)


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

def test_import_does_not_load_scipy_integrate():
    out = subprocess.run(
        [sys.executable, "-c", "import oscpair, sys; print('scipy.integrate' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_SPECTRAL_VERBS_SCRIPT = """
import sys
import oscpair
from oscpair import Params, cli, propagator

loaded = ["scipy.linalg" in sys.modules]
for argv in (
    ["classify", "--epsilon", "0.5", "--b", "0.75"],
    ["sweep", "--epsilon", "0.5", "--b-min", "0.71", "--b-max", "0.79", "--n", "81"],
    ["modes", "--modes-file", sys.argv[1], "--epsilon", "0.5", "--b", "0.75"],
):
    assert cli.main(argv) == 0, argv
    loaded.append("scipy.linalg" in sys.modules)
propagator(Params(0.5, 0.75), 1.0)
loaded.append("scipy.linalg" in sys.modules)
print(loaded)
"""

_TIME_DOMAIN_VERBS_SCRIPT = """
import sys
from oscpair import cli

for argv in [["accept"]] + [["figure", f"fig{k}", "--out", f"{sys.argv[1]}/f{k}"] for k in range(1, 10)]:
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_spectral_verbs_do_not_load_scipy_linalg(tmp_path):
    modes = tmp_path / "modes.txt"
    modes.write_text("\n".join(str((k * math.pi) ** 2) for k in range(1, 5)))
    out = subprocess.run(
        [sys.executable, "-c", _SPECTRAL_VERBS_SCRIPT, str(modes)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    # import, classify, sweep, modes, then one propagator
    assert out.stdout.splitlines()[-1] == "[False, False, False, False, False]"


def test_accept_and_every_figure_load_no_scipy_module(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _TIME_DOMAIN_VERBS_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# one exponential entry point
# ---------------------------------------------------------------------------

def counting_exponentials(monkeypatch):
    calls = []
    inner = sim._coefficients

    def counting(p, t, structure):
        calls.append(t)
        return inner(p, t, structure)

    monkeypatch.setattr(sim, "_coefficients", counting)
    return calls


def test_every_exponential_goes_through_the_closed_form(monkeypatch):
    calls = counting_exponentials(monkeypatch)
    p = Params(0.5, 0.75)
    expected = [
        (lambda: propagator(p, 1.0), 1),
        (lambda: integrate(p, State(1.0, 0.0, 0.0, 0.0), 10.0), 1),
        (lambda: integrate(Params(0.5, 1.0), State(1, 1, 1, 1), 1800.0, samples=8), 1),
        (lambda: norm_growth_fit(p), 2),
        (lambda: periodic_portrait_check(math.sqrt(4.0 + 0.25 - 1.0)), 1),
        (lambda: periodic_portrait_check(math.sqrt(2.0)), 1),
    ]
    for run, count in expected:
        calls.clear()
        run()
        assert len(calls) == count


def test_criterion_7_makes_one_propagator_per_time_and_no_scipy_expm_run(monkeypatch):
    # as perfbench's tracer self-check counts them: 3 couplings at 1,601
    # times, one propagator each, and scipy's expm wrapper never runs
    import scipy.linalg

    propagators = []
    inner = acceptance.propagator

    def counting(p, t):
        propagators.append(t)
        return inner(p, t)

    monkeypatch.setattr(acceptance, "propagator", counting)
    code = scipy.linalg.expm.__code__
    runs = 0

    def hook(frame, event, arg):
        nonlocal runs
        if event == "call" and frame.f_code is code:
            runs += 1

    c7 = next(c for c in acceptance.CRITERIA if c.number == 7)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        ok, _ = c7.run()
    finally:
        sys.setprofile(previous)
    assert ok
    assert len(propagators) == 3 * 1601
    assert runs == 0


# ---------------------------------------------------------------------------
# the closed form against 40-digit mpmath
# ---------------------------------------------------------------------------

def _mpmath_exponential(p: Params, t: float) -> np.ndarray:
    """exp(tA) from mpmath's expm at 40 digits, plus two per decade of |tA|."""
    mp = pytest.importorskip("mpmath").mp
    a = assemble_matrix(p)
    digits = 40 + 2 * int(math.log10(2.0 + t * np.abs(a).sum(axis=1).max()))
    with mp.workdps(digits):
        return np.array(mp.expm(mp.mpf(t) * mp.matrix(a.tolist())).tolist(), dtype=float)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / (1.0 + np.abs(want).max()))


_NEAR = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]  # relative offsets of b from a curve
# b = (1+eps)/2, where every root is double (eps = 5: the quadruple root 1 at
# b = 3), and b^2 = 3 eps - 6, where the roots of w+ = 2 meet at 1; eps = 1
# from b = 0.5 to 1e3; and (eps, b) off both curves, bounded, decaying or not
ORACLE_GRID = (
    [Params(e, 0.5 * (1.0 + e) * (1.0 + d)) for e in (0.0, 0.5, 1.0, 2.0, 5.0) for d in _NEAR]
    + [Params(e, math.sqrt(3.0 * e - 6.0) * (1.0 + d)) for e in (2.5, 4.0, 7.0) for d in _NEAR]
    + [Params(5.0 * (1.0 + d), 3.0) for d in (1e-9, -1e-9)]
    + [Params(1.0, b) for b in (0.5, 2.0, 10.0, 200.0, 1e3)]
    + [Params(0.5, math.sqrt(0.5)), Params(0.0, 1e3), Params(2.0, 1e3), Params(3.0, 0.2),
       Params(0.3, 0.2)]
)


@pytest.mark.parametrize("p", ORACLE_GRID, ids=repr)
def test_propagator_is_as_accurate_as_scipy_expm_against_mpmath(p):
    # error relative to 1 + max|S|: at most scipy.linalg.expm's at the same
    # point, or 1e-13; t = 1e-3 takes the Taylor series, the rest the
    # quotient or, across b = (1+eps)/2, the paired roots
    import scipy.linalg

    for t in (1e-3, 1.0, 7.0, 40.0):
        want = _mpmath_exponential(p, t)
        got = propagator(p, t).matrix
        reference = scipy.linalg.expm(t * assemble_matrix(p))
        assert _relative_error(got, want) <= max(_relative_error(reference, want), 1e-13), t


def test_propagator_is_exact_at_the_defective_point_over_nine_decades():
    p = Params(1.0, 1.0)
    for k in range(1, 10):
        want = explicit_propagator_eps1_b1(10.0**k)
        got = propagator(p, 10.0**k).matrix
        assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(want).max()), k
