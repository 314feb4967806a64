import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oscpair import acceptance, sim
from oscpair.core import Params, State, assemble_matrix, energy
from oscpair.sim import (
    IntegrationError,
    asymptotic_propagator,
    explicit_solution_eps1_b1,
    integrate,
    norm_growth_fit,
    operator_norm,
    periodic_portrait_check,
    propagator,
)
from oscpair.spectrum import growth_bound

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


def test_operator_norm_degenerate_inputs():
    assert operator_norm(np.eye(4)) == 1.0
    assert operator_norm(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_operator_norm_rejects_non_finite_input(bad):
    m = np.eye(4)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(m)


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


def test_propagator_matches_explicit_solution_at_defective_point():
    p = Params(1.0, 1.0)
    basis = [State(1, 0, 0, 0), State(0, 1, 0, 0), State(0, 0, 1, 0), State(0, 0, 0, 1)]
    for t in (0.5, math.pi, 2 * math.pi, 10.0, 50.0):
        sample = propagator(p, t)
        exact = np.array([explicit_solution_eps1_b1(e, t).as_array() for e in basis]).T
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
# integration
# ---------------------------------------------------------------------------

def test_integrate_zero_state_stays_zero():
    traj = integrate(Params(1.0, 2.0), State(0, 0, 0, 0), 5.0)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.energies == 0.0)


def test_integrate_validates_arguments():
    p = Params(1.0, 1.0)
    with pytest.raises(ValueError):
        integrate(p, State(1, 0, 0, 0), -1.0)
    with pytest.raises(ValueError):
        integrate(p, State(1, 0, 0, 0), 1.0, tol=0.0)


def test_integrate_consistent_with_propagator_and_energy_balance():
    rng = np.random.default_rng(3)
    tol = 1e-10
    for p in SIM_GRID:
        z0 = rng.standard_normal(4)
        traj = integrate(p, State.from_array(z0), 10.0, tol=tol, samples=200)
        want = propagator(p, 10.0).matrix @ z0
        scale = 1.0 + float(np.abs(want).max())
        assert np.abs(traj.states[-1] - want).max() <= 10.0 * tol * scale
        # exact dissipation identity, cumulatively and per step
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
    with pytest.raises(IntegrationError, match="overflow guard"):
        integrate(Params(2.0, 1.0), State(1, 0, 0, 0), 1000.0)


def test_integrate_matches_explicit_solution_over_long_window():
    rng = np.random.default_rng(5)
    p = Params(1.0, 1.0)
    z0 = State.from_array(rng.standard_normal(4))
    traj = integrate(p, z0, 50.0, tol=1e-10, samples=400)
    worst = max(
        float(np.abs(traj.states[k] - explicit_solution_eps1_b1(z0, float(t)).as_array()).max())
        for k, t in enumerate(traj.times)
    )
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


def test_norm_growth_fit_tracks_growth_bound_when_blowing_up():
    p = Params(2.0, 1.0)
    fit = norm_growth_fit(p)
    assert abs(fit.rate - growth_bound(p)) <= 0.02 * (1.0 + growth_bound(p))


def test_norm_growth_fit_aborts_on_overflow():
    from oscpair.sim import FitError

    with pytest.raises(FitError, match="overflow"):
        norm_growth_fit(Params(2.0, 1.0), t_max=400.0)


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


def test_periodicity_rejected_for_unit_coupling():
    with pytest.raises(ValueError):
        periodic_portrait_check(1.0)


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
    assert out.stdout.splitlines()[-1] == "[False, False, False, False, True]"


# ---------------------------------------------------------------------------
# one exponential entry point
# ---------------------------------------------------------------------------

def counting_expm(monkeypatch):
    calls = []
    inner = sim.expm

    def counting(a):
        calls.append(np.shape(a))
        return inner(a)

    monkeypatch.setattr(sim, "expm", counting)
    return calls


def test_every_exponential_goes_through_sim_expm(monkeypatch):
    calls = counting_expm(monkeypatch)
    p = Params(0.5, 0.75)
    expected = [
        (lambda: propagator(p, 1.0), [(4, 4)]),
        (lambda: integrate(p, State(1.0, 0.0, 0.0, 0.0), 10.0), [(8, 8)]),
        (lambda: norm_growth_fit(p), [(4, 4)] * 2),
        (lambda: periodic_portrait_check(math.sqrt(4.0 + 0.25 - 1.0)), [(4, 4)]),
        (lambda: periodic_portrait_check(math.sqrt(2.0)), [(4, 4)] * 2),
    ]
    for run, shapes in expected:
        calls.clear()
        run()
        assert calls == shapes


def test_criterion_7_makes_every_scipy_expm_call_through_sim_expm(monkeypatch):
    import scipy.linalg

    calls = counting_expm(monkeypatch)
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
    assert len(calls) == runs == 3 * 1601
