import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oscpair import spectrum
from oscpair.core import Params, assemble_matrix
from oscpair.spectrum import (
    RegimeKind,
    branch_sqrt,
    characteristic_poly_coeffs,
    classify,
    closed_form_eigenvalues,
    eigenvalue_defect,
    growth_bound,
    minimize_growth_bound,
    optimal_coupling,
    palindromic_roots,
    quartic_coeffs,
    root_defects,
)

GRID = [
    Params(i / 10.0, j / 20.0)
    for i in range(0, 21, 2)
    for j in range(1, 101, 4)
]


def quartic_residual(p: Params, lam: complex) -> float:
    return abs(np.polyval(characteristic_poly_coeffs(p), lam)) / (1.0 + abs(lam) ** 4)


# ---------------------------------------------------------------------------
# branch square root
# ---------------------------------------------------------------------------

def test_branch_sqrt_boundary_goes_up():
    # the branch cut boundary resolves to argument +pi/2, not -pi/2
    assert branch_sqrt(-1.0) == 1j
    assert branch_sqrt(complex(-4.0, -0.0)) == 2j


def test_branch_sqrt_reference_values():
    assert branch_sqrt(4.0) == 2.0
    root = branch_sqrt(2j)
    assert root == pytest.approx(1 + 1j)
    assert root * root == pytest.approx(2j)
    assert -math.pi / 2 < cmath.phase(root) <= math.pi / 2


def test_branch_sqrt_real_part_identity_bulk():
    # Re sqrt(2*(alpha +- i*beta)) = sqrt(rho + alpha), rho = |alpha + i*beta|;
    # the right side is ill-conditioned in doubles when alpha < 0 and beta is
    # small, so evaluate the reference in extended precision
    mp = pytest.importorskip("mpmath").mp
    mp.prec = 200
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        alpha, beta = rng.uniform(-50, 50, size=2)
        rho = mp.hypot(alpha, beta)
        want = float(mp.sqrt(rho + alpha))
        for sign in (1.0, -1.0):
            got = branch_sqrt(2.0 * complex(alpha, sign * beta)).real
            assert abs(got - want) <= 1e-12 * max(1.0, want)


@given(
    st.complex_numbers(
        min_magnitude=1e-150, max_magnitude=1e150, allow_nan=False, allow_infinity=False
    )
)
def test_branch_sqrt_squares_back_and_stays_right(z):
    root = branch_sqrt(z)
    assert root.real >= 0.0
    if z.imag == 0.0 and z.real < 0.0:  # on the cut the +pi/2 side is chosen
        assert root.real == 0.0 and root.imag > 0.0
    assert cmath.isclose(root * root, z, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# closed-form eigenvalues
# ---------------------------------------------------------------------------

def test_double_imaginary_pair_at_unit_parameters():
    spec = closed_form_eigenvalues(Params(1.0, 1.0))
    assert spec.eigenvalues == (1j, 1j, -1j, -1j)
    assert spec.defects == (1, 1, 1, 1)


def test_double_pair_at_zero_antidamping_optimal_coupling():
    spec = closed_form_eigenvalues(Params(0.0, 0.5))
    want = 0.25 * complex(-1.0, math.sqrt(15.0))
    assert spec.eigenvalues[0] == pytest.approx(want, abs=1e-15)
    assert spec.eigenvalues[1] == pytest.approx(want, abs=1e-15)
    assert spec.eigenvalues[2] == pytest.approx(want.conjugate(), abs=1e-15)
    assert spec.eigenvalues[3] == pytest.approx(want.conjugate(), abs=1e-15)
    assert spec.defects == (1, 1, 1, 1)


def test_generic_point_against_polynomial_root_oracle():
    p = Params(0.3, 0.9)
    mine = sorted(closed_form_eigenvalues(p).eigenvalues, key=lambda z: (z.real, z.imag))
    oracle = sorted(np.roots(characteristic_poly_coeffs(p)), key=lambda z: (z.real, z.imag))
    for a, b in zip(mine, oracle):
        assert abs(a - b) <= 1e-8


def test_index_order_antisymmetry_at_eps_one():
    for b in (0.3, 0.9, 1.0, 1.5, 4.0):
        lams = closed_form_eigenvalues(Params(1.0, b)).eigenvalues
        assert abs(lams[3] + lams[0]) <= 1e-12
        assert abs(lams[2] + lams[1]) <= 1e-12


def test_grid_residuals_vieta_and_conjugate_closure():
    for p in GRID:
        spec = closed_form_eigenvalues(p)
        lams = spec.eigenvalues
        assert all(quartic_residual(p, lam) <= 1e-9 for lam in lams)
        assert abs(sum(lams) - (p.epsilon - 1.0)) <= 1e-9
        prod = lams[0] * lams[1] * lams[2] * lams[3]
        assert abs(prod - 1.0) <= 1e-9
        for lam in lams:
            assert min(abs(lam.conjugate() - other) for other in lams) <= 1e-7


def test_grid_agreement_with_dense_eigensolver():
    for p in GRID:
        lams = closed_form_eigenvalues(p).eigenvalues
        oracle = np.linalg.eigvals(assemble_matrix(p))
        d1 = max(min(abs(x - y) for y in oracle) for x in lams)
        d2 = max(min(abs(x - y) for x in lams) for y in oracle)
        tol = 1e-4 if abs(p.b - (1.0 + p.epsilon) / 2.0) < 1e-9 else 1e-8
        assert max(d1, d2) <= tol, (p, max(d1, d2))


def test_decay_real_parts_negative_beyond_eta():
    # above b = (1+eps)/2 the paper asserts the dominant pair is strictly
    # stable "with standard computations"; verify numerically instead
    for eps in (0.0, 0.3, 0.6, 0.9):
        eta = (1.0 + eps) / 2.0
        for b in np.linspace(eta + 1e-3, 8.0, 40):
            lams = closed_form_eigenvalues(Params(eps, float(b))).eigenvalues
            assert abs(lams[0].real - lams[1].real) <= 1e-12
            assert abs(lams[2].real - lams[3].real) <= 1e-12
            assert all(lam.real < 0 for lam in lams)
            # closed form for the dominant real part via the modulus rho
            rho = 2.0 * math.sqrt(
                b**4 + 2.0 * b * b * (4.0 - eps) + 3.0 * (4.0 - eps * eps)
            )
            dom = 0.25 * (eps - 1.0 + math.sqrt(rho - 7.0 + eps * eps - 2.0 * b * b))
            assert lams[0].real == pytest.approx(dom, abs=1e-10)


# ---------------------------------------------------------------------------
# defects
# ---------------------------------------------------------------------------

def test_defect_reference_cases():
    assert eigenvalue_defect(assemble_matrix(Params(1.0, 1.0)), 1j) == 1
    lam_regular = closed_form_eigenvalues(Params(1.0, 2.0)).eigenvalues[0]
    assert eigenvalue_defect(assemble_matrix(Params(1.0, 2.0)), lam_regular) == 0
    lam_eta = closed_form_eigenvalues(Params(0.5, 0.75)).eigenvalues[0]
    assert eigenvalue_defect(assemble_matrix(Params(0.5, 0.75)), lam_eta) == 1


def test_defect_rejects_non_eigenvalue():
    with pytest.raises(ValueError, match="not an eigenvalue"):
        eigenvalue_defect(assemble_matrix(Params(1.0, 2.0)), 0.3 + 0.1j)


def test_regular_points_have_zero_defects():
    for p in (Params(0.5, math.sqrt(0.5)), Params(1.0, 3.0), Params(2.0, 1.0)):
        assert closed_form_eigenvalues(p).defects == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# growth bound and classification
# ---------------------------------------------------------------------------

def test_growth_bound_reference_values():
    assert growth_bound(Params(0.5, 0.75)) == pytest.approx(-0.125, abs=1e-15)
    assert growth_bound(Params(1.0, 1.0)) == 0.0
    assert growth_bound(Params(2.0, 1.0)) >= 0.25


def test_growth_bound_positive_for_strong_antidamping():
    # dominant real part at least (eps-1)/4 whenever eps > 1
    for b in (0.1, 0.5, 1.0, 2.0, 7.0):
        for eps in (1.2, 1.5, 2.0):
            assert growth_bound(Params(eps, b)) >= (eps - 1.0) / 4.0 - 1e-12


CLASSIFY_TABLE = [
    (2.0, 1.0, RegimeKind.EXP_BLOWUP),
    (1.5, 0.3, RegimeKind.EXP_BLOWUP),
    (1.0, 0.5, RegimeKind.EXP_BLOWUP),
    (1.0, 1.0, RegimeKind.POLY_BLOWUP),
    (1.0, 2.0, RegimeKind.BOUNDED_NON_DECAYING),
    (0.5, 0.5, RegimeKind.EXP_BLOWUP),
    (0.5, math.sqrt(0.5), RegimeKind.BOUNDED_NON_DECAYING),
    (0.5, 0.75, RegimeKind.EXP_DECAY),
    (0.0, 0.5, RegimeKind.EXP_DECAY),
]


@pytest.mark.parametrize("eps,b,kind", CLASSIFY_TABLE)
def test_classification_table(eps, b, kind):
    regime = classify(Params(eps, b))
    assert regime.kind is kind
    if kind is RegimeKind.EXP_BLOWUP:
        assert regime.omega_star > 0
    elif kind is RegimeKind.EXP_DECAY:
        assert regime.omega_star < 0
    else:
        assert regime.omega_star == 0.0
    if kind is RegimeKind.POLY_BLOWUP:
        assert regime.degree == 1


def test_classification_consistent_with_growth_bound_sign():
    for p in GRID:
        regime = classify(p)
        if regime.kind is RegimeKind.EXP_BLOWUP:
            assert growth_bound(p) > 0
        elif regime.kind is RegimeKind.EXP_DECAY:
            assert growth_bound(p) < 0
        else:
            assert abs(growth_bound(p)) <= 1e-9


def test_threshold_sharpness_around_sqrt_eps():
    delta = 1e-3
    for eps in (0.2, 0.5, 0.8):
        root = math.sqrt(eps)
        assert growth_bound(Params(eps, root - delta)) > 0
        assert abs(growth_bound(Params(eps, root))) <= 1e-12
        eta = (1.0 + eps) / 2.0
        for b in np.linspace(root + delta, eta, 7):
            assert growth_bound(Params(eps, float(b))) < 0


def test_decay_rate_approaches_zero_from_below_for_large_coupling():
    for eps in (0.0, 0.5, 0.9):
        g10 = growth_bound(Params(eps, 10.0))
        g100 = growth_bound(Params(eps, 100.0))
        assert g10 < g100 < 0.0
        best = (eps - 1.0) / 4.0
        eta = (1.0 + eps) / 2.0
        for b in (math.sqrt(eps) + 1e-3, eta - 0.05, eta + 0.05, 3.0, 10.0):
            assert growth_bound(Params(eps, b)) > best


# ---------------------------------------------------------------------------
# optimal coupling
# ---------------------------------------------------------------------------

def test_optimal_coupling_reference_values():
    assert optimal_coupling(0.0) == (0.5, -0.25)
    assert optimal_coupling(0.5) == (0.75, -0.125)
    b_opt, omega = optimal_coupling(0.99)
    assert b_opt == pytest.approx(0.995, abs=1e-15)
    assert omega == pytest.approx(-0.0025, abs=1e-15)


def test_optimal_coupling_rejects_non_decaying_range():
    with pytest.raises(ValueError):
        optimal_coupling(1.0)
    with pytest.raises(ValueError):
        optimal_coupling(1.5)
    with pytest.raises(ValueError):
        optimal_coupling(-0.01)


@pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 0.9])
def test_minimizer_recovers_optimum_through_the_cusp(eps):
    b_opt, value = minimize_growth_bound(eps, math.sqrt(eps) + 1e-4, 10.0)
    assert abs(b_opt - (1.0 + eps) / 2.0) <= 1e-6
    assert abs(value - (eps - 1.0) / 4.0) <= 1e-9


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------

def test_quartic_coefficients_reference():
    assert characteristic_poly_coeffs(Params(1.0, 1.0)) == (1.0, 0.0, 2.0, 0.0, 1.0)
    # (lam^2 + 1)^2 indeed
    np.testing.assert_allclose(
        np.polymul([1, 0, 1], [1, 0, 1]), [1.0, 0.0, 2.0, 0.0, 1.0], atol=0
    )


def test_quartic_factors_when_uncoupled():
    # b = 0 decouples the pair: product of the two oscillator polynomials
    assert quartic_coeffs(0.0, 0.0) == (1.0, 1.0, 2.0, 1.0, 1.0)
    np.testing.assert_allclose(
        np.polymul([1, 1, 1], [1, 0, 1]), quartic_coeffs(0.0, 0.0), atol=0
    )
    eps = 0.4
    np.testing.assert_allclose(
        np.polymul([1, 1, 1], [1, -eps, 1]), quartic_coeffs(eps, 0.0), atol=1e-15
    )


@given(eps=st.floats(0, 2), b=st.floats(0.01, 5))
def test_quartic_depends_on_coupling_squared(eps, b):
    assert quartic_coeffs(eps, b) == quartic_coeffs(eps, -b)


def test_quartic_matches_matrix_expansion_on_grid():
    for p in GRID:
        np.testing.assert_allclose(
            np.poly(assemble_matrix(p)),
            characteristic_poly_coeffs(p),
            atol=1e-10,
        )


# ---------------------------------------------------------------------------
# palindromic core: exact Jordan structure, large parameters, minimizer scan
# ---------------------------------------------------------------------------

def jordan_defects(eps, b, mu=1):
    """Defect of each distinct eigenvalue, from sympy's exact Jordan form."""
    sp = pytest.importorskip("sympy")
    m = sp.Matrix([[0, 1, 0, 0], [-mu, -1, 0, b], [0, 0, 0, 1], [0, -b, -mu, eps]])
    _, jordan = m.jordan_form()
    blocks: dict = {}
    i = 0
    while i < 4:
        size = 1
        while i + size < 4 and jordan[i + size - 1, i + size] == 1:
            size += 1
        blocks.setdefault(complex(sp.N(jordan[i, i], 30)), []).append(size)
        i += size
    return {lam: sum(sizes) - len(sizes) for lam, sizes in blocks.items()}


@pytest.mark.parametrize(
    "eps,b,mu",
    [
        ("5", "3", "1"),  # quadruple root lam = 1
        ("3", "sqrt(3)", "1"),  # double real root lam = 1 on w+
        ("6", "sqrt(12)", "1"),  # double real root lam = 1 on w-
        ("2", "1", "1"),  # no repeated root
        ("1/2", "3/4", "1/64"),  # modal threshold: quadruple root -1/8
        ("1/2", "sqrt(14)/5", "1/100"),  # w = -2 sqrt(mu): b^2 = (1-r)(eps+r)
    ],
)
def test_defects_match_exact_jordan_structure(eps, b, mu):
    sp = pytest.importorskip("sympy")
    eps, b, mu = (sp.sympify(v) for v in (eps, b, mu))
    exact = jordan_defects(eps, b, mu)
    lams = palindromic_roots(float(eps), float(b), float(mu))
    defects = root_defects(float(eps), float(b), float(mu))
    for lam, d in zip(lams, defects):
        nearest = min(exact, key=lambda z: abs(z - lam))
        assert abs(nearest - lam) <= 1e-7
        assert d == exact[nearest], (lam, defects, exact)


def test_quadruple_root_at_eps_five():
    spec = closed_form_eigenvalues(Params(5.0, 3.0))
    assert spec.eigenvalues == (1.0, 1.0, 1.0, 1.0)
    assert spec.defects == (3, 3, 3, 3)
    regime = classify(Params(5.0, 3.0))
    assert regime.kind is RegimeKind.EXP_BLOWUP
    assert regime.omega_star == 1.0 and regime.defect_penalty == 3


def test_double_real_root_at_eps_three():
    spec = closed_form_eigenvalues(Params(3.0, math.sqrt(3.0)))
    assert spec.defects == (1, 0, 1, 0)
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)
    assert spec.eigenvalues[2] == pytest.approx(1.0, abs=1e-7)
    assert classify(Params(3.0, math.sqrt(3.0))).defect_penalty == 1


def test_grid_defects_match_svd_rank_oracle():
    for p in GRID:
        spec = closed_form_eigenvalues(p)
        m = assemble_matrix(p)
        for lam, d in zip(spec.eigenvalues, spec.defects):
            assert eigenvalue_defect(m, lam) == d, (p, lam)


def mp_roots(eps, b, mu=1.0):
    """The four roots in the fixed order, in 2400-bit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workprec(2400):
        eps, b, mu = mp.mpf(eps), mp.mpf(b), mp.mpf(mu)
        a = mp.sqrt(mp.mpc((1 + eps) ** 2 - 4 * b * b))
        pairs = []
        for w in ((eps - 1 + a) / 2, (eps - 1 - a) / 2):
            s = mp.sqrt(w * w - 4 * mu)
            pairs.append(((w + s) / 2, (w - s) / 2))
        return [pairs[0][0], pairs[1][0], pairs[0][1], pairs[1][1]]


def test_large_coupling_growth_bound_is_exact():
    # the small root of each pair is mu/big, not a cancelled difference
    assert growth_bound(Params(0.5, 1e8)) == pytest.approx(-2.5e-17, rel=1e-12)


@pytest.mark.parametrize("eps,b", [(0.5, 1e8), (0.5, 1e100), (1e155, 1.0), (1e6, 1e300)])
def test_extreme_parameters_against_mpmath(eps, b):
    mp = pytest.importorskip("mpmath")
    p = Params(eps, b)
    want = mp_roots(eps, b)
    spec = closed_form_eigenvalues(p)
    for lam, exact in zip(spec.eigenvalues, want):
        assert abs(mp.mpc(lam) - exact) <= 1e-14 * abs(exact)
    omega = max(x.real for x in want)
    assert growth_bound(p) == pytest.approx(float(omega), rel=1e-12)
    regime = classify(p)
    assert math.isfinite(regime.omega_star)
    assert (regime.omega_star > 0) == (omega > 0)
    assert regime.kind is (RegimeKind.EXP_DECAY if eps < 1 else RegimeKind.EXP_BLOWUP)


@given(
    eps=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
    b=st.floats(1e-300, 1e300),
)
def test_core_relative_accuracy_against_mpmath(eps, b):
    mp = pytest.importorskip("mpmath")
    lams = palindromic_roots(eps, b)
    assert np.all(np.isfinite(lams))
    # a root next to a double root moves like the square root of a rounding
    pairs = [(x, y) for i, x in enumerate(lams) for y in lams[:i]]
    assume(all(abs(x - y) > 1e-4 * max(abs(x), abs(y)) for x, y in pairs))
    for lam, exact in zip(lams, mp_roots(eps, b)):
        assert abs(mp.mpc(lam) - exact) <= 1e-12 * abs(exact)


def test_core_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(3)
    eps, b, mu = rng.uniform(0, 3, 40), rng.uniform(0.01, 5, 40), 10.0 ** rng.uniform(-3, 4, 40)
    lams, defects = palindromic_roots(eps, b, mu), root_defects(eps, b, mu)
    assert lams.shape == (40, 4) and defects.shape == (40, 4)
    for k in range(40):
        np.testing.assert_allclose(lams[k], palindromic_roots(eps[k], b[k], mu[k]), rtol=1e-15)
        assert np.array_equal(defects[k], root_defects(eps[k], b[k], mu[k]))
    assert palindromic_roots(0.5, b[:7]).shape == (7, 4)
    assert palindromic_roots(0.5, 0.75, mu[:5]).shape == (5, 4)


def test_core_rejects_negative_stiffness():
    with pytest.raises(ArithmeticError, match="not finite"):
        palindromic_roots(0.5, 0.75, -1.0)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, max_iter: int = 200) -> tuple[float, float]:
    """Golden-section bracket shrink; returns the final (lo, hi)."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
        if hi - lo <= 64.0 * math.ulp(max(abs(lo), abs(hi), 1.0)):
            break
    return lo, hi


def loop_minimize(epsilon, b_lo, b_hi, scan_ulps=2000):
    """Reference terminal scan: one float at a time, strict < keeps the first."""
    def f(b):
        return float(palindromic_roots(epsilon, b).real.max())

    lo, hi = _golden_section(f, b_lo, b_hi)
    x = max(b_lo, math.nextafter(lo, -math.inf))
    for _ in range(scan_ulps // 2):
        nxt = math.nextafter(x, -math.inf)
        if nxt < b_lo or lo - nxt > scan_ulps * math.ulp(lo):
            break
        x = nxt
    best_x, best_f = x, f(x)
    stop = min(b_hi, hi + scan_ulps * math.ulp(hi))
    while x < stop:
        x = math.nextafter(x, math.inf)
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


@pytest.mark.parametrize(
    "eps,b_lo,b_hi",
    [
        (0.0, 0.0001, 10.0),
        (1e-4, 0.0101, 10.0),
        (0.5, 0.7072067811865475, 10.0),
        (0.98, 0.98999, 10.0),
        (0.5, 0.75, 0.9),  # optimum at the lower end
        (0.5, 0.6, 0.75),  # optimum at the upper end
        (0.3, 0.7, 0.70000000000001),  # bracket narrower than the scan
    ],
)
def test_vectorized_ulp_scan_matches_loop(eps, b_lo, b_hi):
    assert minimize_growth_bound(eps, b_lo, b_hi) == loop_minimize(eps, b_lo, b_hi)


def test_minimizer_rejects_bad_bracket():
    with pytest.raises(ValueError):
        minimize_growth_bound(0.5, 0.9, 0.8)


@pytest.mark.parametrize("b_hi,scan_ulps", [(0.9, 0), (math.inf, 2000)])
def test_minimizer_rejects_empty_scan_and_infinite_bracket(b_hi, scan_ulps):
    with pytest.raises(ValueError):
        minimize_growth_bound(0.5, 0.6, b_hi, scan_ulps)


def test_minimizer_takes_negative_zero_as_zero():
    assert minimize_growth_bound(0.5, -0.0, 1.0) == minimize_growth_bound(0.5, 0.0, 1.0)


def test_minimizer_equals_exhaustive_argmin_near_the_optimum():
    # first argmin over the 4,001 floats around (1+eps)/2, all in one array call
    eps = 10.0 ** np.random.default_rng(11).uniform(-6, math.log10(0.999), 200)
    eta = (1.0 + eps) / 2.0
    window = (eta.view(np.int64)[:, None] + np.arange(-2000, 2001)).view(np.float64)
    values = palindromic_roots(eps[:, None], window).real.max(axis=-1)
    first = np.argmin(values, axis=1)
    for k, (e, h) in enumerate(zip(eps.tolist(), eta.tolist())):
        want = (float(window[k, first[k]]), float(values[k, first[k]]))
        old_lo = math.sqrt(e) + min(1e-4, (h - math.sqrt(e)) / 2.0)
        assert minimize_growth_bound(e, old_lo, 10.0) == want, e
        assert minimize_growth_bound(e, 0.0, 10.0) == want, e


@pytest.mark.parametrize(
    "eps,b_lo,b_hi",
    [
        (0.5, 1e-9, 2e-9),  # an ulp here is 2e-25: 1e-14 of width is 5e10 floats
        (0.5, 0.0, 1e300),
        (0.0, 0.0001, 10.0),
        (1e-4, 0.0101, 10.0),
        (0.5, 0.7072067811865475, 10.0),
        (0.98, 0.98999, 10.0),
        (0.5, 0.75, 0.9),
        (0.5, 0.6, 0.75),
        (0.3, 0.7, 0.70000000000001),
    ],
)
def test_minimizer_work_is_bounded(monkeypatch, eps, b_lo, b_hi):
    points, depth = [], []

    def counting(epsilon, b, mu=1.0):
        # palindromic_roots splits large arrays into blocks through this name
        if not depth:
            points.append(np.size(b))
        depth.append(None)
        try:
            return palindromic_roots(epsilon, b, mu)
        finally:
            depth.pop()

    monkeypatch.setattr(spectrum, "palindromic_roots", counting)
    b_opt, _ = minimize_growth_bound(eps, b_lo, b_hi)
    assert b_lo <= b_opt <= b_hi
    assert sum(points) <= 64 * 14 + 2000 + 1


@pytest.mark.parametrize("eps,b", [(1e300, 1e200), (1e200, 1e160)])
def test_huge_parameters_blow_up_at_rate_eps(eps, b):
    # w+ w- = b^2 - eps overflows although every root is a finite double
    mp = pytest.importorskip("mpmath")
    for lam, exact in zip(palindromic_roots(eps, b), mp_roots(eps, b)):
        assert abs(mp.mpc(complex(lam)) - exact) <= 1e-14 * abs(exact)
    regime = classify(Params(eps, b))
    assert regime.kind is RegimeKind.EXP_BLOWUP
    assert regime.omega_star == eps == growth_bound(Params(eps, b))


@pytest.mark.parametrize(
    "eps,b,kind",
    [(1e-300, 1e-300, RegimeKind.EXP_BLOWUP), (0.0, 1e-13, RegimeKind.EXP_DECAY)],
)
def test_boundary_tolerance_is_purely_relative(eps, b, kind):
    # b = 1e-300 is far below sqrt(eps) = 1e-150, and b = 1e-13 far above 0
    regime = classify(Params(eps, b))
    assert regime.kind is kind
    assert regime.omega_star == growth_bound(Params(eps, b)) != 0.0
    assert (regime.omega_star > 0.0) == (kind is RegimeKind.EXP_BLOWUP)


@pytest.mark.parametrize("eps,b", [(7e307, 1.0), (1e308, 1e308)])
def test_no_double_root_where_the_double_root_target_overflows(eps, b):
    # (1 + r)(eps - r) exceeds the largest double; b^2 would have to equal it
    assert root_defects(eps, b).tolist() == [0, 0, 0, 0]
    assert closed_form_eigenvalues(Params(eps, b)).defects == (0, 0, 0, 0)
    assert classify(Params(eps, b)).defect_penalty == 0


def test_finite_value_is_never_close_to_infinity():
    assert not spectrum._is_close(1e308, math.inf)
    assert not spectrum._is_close(-1e308, -math.inf)
    assert spectrum._is_close(1e308, 1e308 * (1 + 1e-13))


def test_decay_bound_underflows_to_negative_zero():
    # omega* is about -(1-eps)/(4 b^2) = -2.5e-601, below the smallest double
    p = Params(0.0, 1e300)
    regime = classify(p)
    assert regime.kind is RegimeKind.EXP_DECAY
    for omega in (regime.omega_star, growth_bound(p)):
        assert omega == 0.0
        assert math.copysign(1.0, omega) == -1.0
