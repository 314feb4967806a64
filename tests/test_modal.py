import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscpair.core import Params, assemble_matrix
from oscpair.modal import (
    ModeFamily,
    dirichlet_modes,
    family_growth_bound,
    load_mode_family,
    mode_characteristic_coeffs,
    mode_growth_bound,
    mode_matrix,
    threshold_check,
)
from oscpair.spectrum import dominant_defects, growth_bound, palindromic_roots, root_defects


def test_mode_matrix_reduces_to_base_system_at_unit_stiffness():
    for p in (Params(0.5, 0.75), Params(1.0, 1.0), Params(2.0, 0.3)):
        np.testing.assert_array_equal(mode_matrix(1.0, p), assemble_matrix(p))


def test_mode_matrix_trace_and_determinant():
    m = mode_matrix(4.0, Params(0.5, 1.0))
    assert np.trace(m) == pytest.approx(-0.5, abs=1e-15)
    assert np.linalg.det(m) == pytest.approx(16.0, rel=1e-12)


def test_mode_matrix_rejects_bad_stiffness():
    with pytest.raises(ValueError):
        mode_matrix(0.0, Params(0.5, 1.0))
    with pytest.raises(ValueError):
        mode_matrix(-2.0, Params(0.5, 1.0))


@pytest.mark.parametrize("mu", [0.01, 1.0, math.pi**2, 400.0])
@pytest.mark.parametrize("eps,b", [(0.0, 0.5), (0.5, 0.75), (1.0, 2.0), (1.7, 0.9)])
def test_mode_characteristic_coefficients_match_matrix(mu, eps, b):
    # the mode quartic is not printed anywhere; validate the derived
    # coefficients against a numeric determinant expansion
    p = Params(eps, b)
    np.testing.assert_allclose(
        np.poly(mode_matrix(mu, p)),
        mode_characteristic_coeffs(mu, p),
        rtol=1e-10,
        atol=1e-10,
    )


def test_mode_growth_bound_reference_values():
    assert mode_growth_bound(1.0, Params(0.5, 0.75)) == pytest.approx(-0.125, abs=1e-9)
    assert mode_growth_bound(1.0, Params(1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)
    assert mode_growth_bound(0.001, Params(0.5, 0.75)) > -0.125


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf])
def test_mode_growth_bound_rejects_bad_stiffness(mu):
    with pytest.raises(ValueError, match="mu must be finite and > 0"):
        mode_growth_bound(mu, Params(0.5, 0.75))


def test_dirichlet_modes_rejects_an_empty_family():
    with pytest.raises(ValueError, match="count must be >= 1"):
        dirichlet_modes(0)


def test_mode_growth_bound_agrees_with_closed_forms_at_unit_stiffness():
    for p in (Params(0.3, 0.2), Params(1.0, 3.0), Params(2.0, 1.5), Params(0.9, 0.95)):
        assert mode_growth_bound(1.0, p) == pytest.approx(growth_bound(p), abs=1e-9)


def test_mode_vieta_identities():
    for mu in (0.25, 1.0, 50.0):
        for p in (Params(0.5, 0.75), Params(1.4, 2.0)):
            eigs = np.linalg.eigvals(mode_matrix(mu, p))
            assert abs(eigs.sum() - (p.epsilon - 1.0)) <= 1e-9 * (1.0 + mu)
            assert abs(eigs.prod() - mu * mu) <= 1e-9 * (1.0 + mu * mu)


def test_full_rate_recovered_above_threshold():
    # at the optimal coupling, every stiffness above (1-eps)^2/16 decays
    # at exactly (eps-1)/4
    for eps in (0.0, 0.5, 0.9):
        p = Params(eps, (1.0 + eps) / 2.0)
        best = (eps - 1.0) / 4.0
        mu_min = (1.0 - eps) ** 2 / 16.0
        for mu in np.geomspace(mu_min, 1e4, 25):
            assert mode_growth_bound(float(mu), p) <= best + 1e-9


def test_rate_degrades_below_threshold():
    eps = 0.5
    p = Params(eps, 0.75)
    best = (eps - 1.0) / 4.0
    degraded = [mu for mu in (0.001, 0.005, 0.012) if mode_growth_bound(mu, p) > best + 1e-6]
    assert degraded  # a small first eigenvalue visibly drags the rate


def test_family_single_mode_matches_mode_bound():
    p = Params(0.7, 1.1)
    bound = family_growth_bound(ModeFamily([1.0]), p)
    assert bound.value == mode_growth_bound(1.0, p)
    assert bound.index == 0
    assert bound.mu == 1.0


def test_family_dirichlet_attains_full_rate_at_first_mode():
    p = Params(0.5, 0.75)
    bound = family_growth_bound(dirichlet_modes(64), p)
    assert bound.value == pytest.approx(-0.125, abs=1e-9)
    assert bound.index == 0
    assert bound.mu == pytest.approx(math.pi**2)


def test_family_with_small_leading_mode_exceeds_full_rate():
    p = Params(0.5, 0.75)
    family = ModeFamily((0.001,) + dirichlet_modes(64).mu)
    bound = family_growth_bound(family, p)
    assert bound.value > -0.125
    assert bound.mu == 0.001


def test_family_invariant_under_reordering_and_duplication():
    p = Params(0.4, 1.3)
    mu = [9.0, 1.0, 25.0, 4.0]
    a = family_growth_bound(ModeFamily(mu), p)
    b = family_growth_bound(ModeFamily(list(reversed(mu)) + mu), p)
    assert a == b


def test_family_bound_is_the_smallest_mode_bound_whatever_the_tail():
    # the bounds of the larger modes change by growing jumps; the supremum
    # is still the bound at the smallest eigenvalue
    p = Params(0.5, 0.75)
    family = ModeFamily([0.001, 0.005, 0.012, 1.0, 1.1, 1.2])
    bound = family_growth_bound(family, p)
    assert bound == (mode_growth_bound(0.001, p), 0, 0.001)
    assert bound.value == -0.004066133775521755


def log_uniform_family() -> ModeFamily:
    """200 log-uniform mu (seed 1), whose first differences do not shrink."""
    return ModeFamily(10.0 ** np.random.default_rng(1).uniform(-3.0, 4.0, 200))


def test_family_log_uniform_bound_at_the_first_mode():
    bound = family_growth_bound(log_uniform_family(), Params(0.5, 0.75))
    assert (bound.value, bound.index) == (-0.004473776478615504, 0)


@pytest.mark.parametrize("tail_check", [-1, -3, 8])
def test_family_rejects_negative_tail_check(tail_check):
    # there is no tail check any more: every value of the keyword is refused
    with pytest.raises(TypeError, match="unexpected keyword argument 'tail_check'"):
        family_growth_bound(log_uniform_family(), Params(0.5, 0.75), tail_check=tail_check)


def test_mode_family_normalizes_and_validates():
    f = ModeFamily([4.0, 1.0, 4.0, 2.0])
    assert f.mu == (1.0, 2.0, 4.0)
    assert len(f) == 3
    with pytest.raises(ValueError):
        ModeFamily([])
    with pytest.raises(ValueError):
        ModeFamily([1.0, -2.0])
    with pytest.raises(ValueError):
        ModeFamily([0.0])


def test_mode_family_takes_any_iterable_and_rejects_non_finite_values():
    mu = np.random.default_rng(2).uniform(0.5, 50.0, 1000).round(1)
    want = tuple(sorted({float(m) for m in mu}))
    for values in (mu, mu.tolist(), (float(m) for m in mu), map(str, mu.tolist())):
        family = ModeFamily(values)
        assert family.mu == want
        assert all(type(m) is float for m in family.mu)
    for bad in ([1.0, math.nan], [math.inf, 2.0], [-math.inf]):
        with pytest.raises(ValueError, match="finite and > 0"):
            ModeFamily(bad)
    with pytest.raises(ValueError, match="at least one"):
        ModeFamily(iter(()))


def test_threshold_reference_values():
    assert threshold_check(ModeFamily([math.pi**2]), 0.5)
    assert not threshold_check(ModeFamily([0.01]), 0.5)
    # boundary is inclusive
    assert threshold_check(ModeFamily([(1.0 - 0.5) ** 2 / 16.0]), 0.5)
    with pytest.raises(ValueError):
        threshold_check(ModeFamily([1.0]), 1.0)


def test_load_mode_family_from_text(tmp_path):
    path = tmp_path / "modes.txt"
    path.write_text(
        "# Dirichlet eigenvalues, first three\n"
        "9.869604401089358\n"
        "\n"
        "39.47841760435743  # second mode\n"
        "88.82643960980423\n"
    )
    f = load_mode_family(path)
    assert len(f) == 3
    assert f.mu[0] == pytest.approx(math.pi**2)


# ---------------------------------------------------------------------------
# exactness of the palindromic modal core
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps,b", [(0.5, 0.75), (0.0, 0.5), (0.3, 0.9), (1.7, 0.9), (0.9, 1.2)])
def test_mode_roots_match_mpmath_at_large_stiffness(eps, b):
    mp = pytest.importorskip("mpmath")
    mu = 1e4
    with mp.workprec(200):
        m_eps, m_b = mp.mpf(eps), mp.mpf(b)
        a = mp.sqrt(mp.mpc((1 + m_eps) ** 2 - 4 * m_b * m_b))
        exact = []
        for w in ((m_eps - 1 + a) / 2, (m_eps - 1 - a) / 2):
            s = mp.sqrt(w * w - 4 * mu)
            exact += [(w + s) / 2, (w - s) / 2]
        for lam in palindromic_roots(eps, b, mu):
            assert min(abs(mp.mpc(lam) - x) / abs(x) for x in exact) <= 1e-15
        omega = float(max(x.real for x in exact))
    assert abs(mode_growth_bound(mu, Params(eps, b)) - omega) <= 1e-15


def test_threshold_gives_exact_quadruple_root():
    eps = 0.5
    mu = (1.0 - eps) ** 2 / 16.0
    p = Params(eps, (1.0 + eps) / 2.0)
    assert palindromic_roots(eps, p.b, mu).tolist() == [-0.125] * 4
    assert root_defects(eps, p.b, mu).tolist() == [3] * 4
    assert mode_growth_bound(mu, p) == -0.125


def _near_double_root(lams) -> bool:
    scale = 1.0 + max(abs(z) for z in lams)
    return min(abs(x - y) for i, x in enumerate(lams) for y in lams[i + 1:]) < 1e-3 * scale


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(0.0, 3.0), b=st.floats(0.01, 10.0), mu=st.floats(1e-3, 1e4))
def test_mode_roots_match_dense_eigensolver(eps, b, mu):
    lams = palindromic_roots(eps, b, mu)
    assume(not _near_double_root(lams))
    oracle = np.linalg.eigvals(mode_matrix(mu, Params(eps, b)))
    d1 = max(min(abs(x - y) for y in oracle) for x in lams)
    d2 = max(min(abs(x - y) for x in lams) for y in oracle)
    assert max(d1, d2) <= 1e-8 * (1.0 + max(abs(z) for z in lams))


def test_family_bound_equals_per_mode_bounds():
    p = Params(0.4, 1.3)
    family = ModeFamily(10.0 ** np.linspace(-3, 4, 57))
    bounds = [mode_growth_bound(mu, p) for mu in family.mu]
    got = family_growth_bound(family, p)
    assert got.value == max(bounds)
    assert got.index == bounds.index(max(bounds))


def test_dominant_defects_returns_the_tag_of_the_largest_real_part_root():
    # near mu = 1000 at (0.5, 0.8) the bound falls by about 2.7e-7 per unit
    # of mu, so these modes' bounds sit within 2e-9 of each other
    p = Params(0.5, 0.8)
    mu = np.array([1000.0, 1000.002, 1000.003, 1000.006, 1000.008])
    roots = palindromic_roots(p.epsilon, p.b, mu)
    bounds = roots.real.max(axis=-1)
    assert np.all(np.diff(bounds) < 0.0) and bounds[0] - bounds[-1] < 3e-9
    # tag each root with its mode number: the first mode's tag comes back
    # whichever way the tags run
    tags = np.repeat(np.arange(len(mu)), 4)
    flat = roots.ravel()
    assert dominant_defects(flat, tags) == 0
    assert dominant_defects(flat, len(mu) - 1 - tags) == len(mu) - 1
    # and per mode, the index of each mode's largest-real-part root
    np.testing.assert_array_equal(
        dominant_defects(roots, np.arange(4 * len(mu)).reshape(-1, 4)),
        4 * np.arange(len(mu)) + roots.real.argmax(axis=-1),
    )


def window_rule(roots, defects):
    """The earlier rule: the largest defect among roots within 1e-9 (1 + |max|)
    of the max real part."""
    real = roots.real
    top = real.max(axis=-1, keepdims=True)
    attains = real >= top - 1e-9 * (1.0 + np.abs(top))
    return np.where(attains, defects, 0).max(axis=-1)


def test_dominant_defects_equals_the_window_rule_where_defects_occur():
    rng = np.random.default_rng(15)
    n = 4000
    eps, mu = rng.uniform(0.0, 3.0, n), 10.0 ** rng.uniform(-4.0, 2.0, n)
    r = 2.0 * np.sqrt(mu)
    pick = rng.integers(0, 3, n)
    eps = np.where(pick == 2, 1.0, eps)  # the line eps = 1
    # the two double-root curves b^2 = (1 + r)(eps - r) and (1 - r)(eps + r)
    with np.errstate(invalid="ignore"):
        curve_plus = np.sqrt(1.0 + r) * np.sqrt(eps - r)
        curve_minus = np.sqrt(1.0 - r) * np.sqrt(eps + r)
    half = 0.5 * (1.0 + eps)
    threshold = (1.0 - eps) ** 2 / 16.0
    points = [
        (eps, curve_plus, mu),
        (eps, curve_minus, mu),
        (eps, half, mu),  # b = (1+eps)/2: every root double
        (eps, half, threshold),  # and the threshold mode: quadruple
        (eps, 10.0 ** rng.uniform(-3.0, 3.0, n), threshold),
        (eps, 10.0 ** rng.uniform(-3.0, 3.0, n), mu),
    ]
    checked = 0
    for e, b, m in points:
        keep = np.isfinite(b) & (b > 0.0)
        e, b, m = e[keep], b[keep], m[keep]
        roots = palindromic_roots(e, b, m)
        defects = root_defects(e, b, m)
        got = dominant_defects(roots, defects)
        assert got.dtype == defects.dtype
        np.testing.assert_array_equal(got, window_rule(roots, defects))
        checked += e.size
    assert checked > 15_000


# ---------------------------------------------------------------------------
# the family bound is the first mode's bound
# ---------------------------------------------------------------------------

_MU = st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.one_of(st.floats(0.0, 3.0), st.just(1.0)),
    b=st.one_of(st.floats(1e-3, 1e3), st.none()),
    mu=st.tuples(_MU, _MU).filter(lambda pair: pair[0] != pair[1]).map(sorted),
)
@example(eps=0.5, b=None, mu=[0.015625 * (1.0 - 1e-9), 0.015625])  # across the quadruple root
@example(eps=0.5, b=None, mu=[0.015625, 0.015625 * (1.0 + 1e-9)])
@example(eps=1.0, b=1.0, mu=[1e-6, 1e6])
def test_mode_growth_bound_is_non_increasing_in_mu(eps, b, mu):
    # b = None draws the optimal coupling (1+eps)/2
    p = Params(eps, (1.0 + eps) / 2.0 if b is None else b)
    assert mode_growth_bound(mu[0], p) >= mode_growth_bound(mu[1], p)


def test_family_bound_is_bit_equal_to_the_max_of_the_mode_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        eps, b = rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-2.0, 2.0)
        p = Params(eps, (1.0 + eps) / 2.0 if rng.random() < 0.25 else b)
        family = ModeFamily(10.0 ** rng.uniform(-4.0, 4.0, rng.integers(1, 40)))
        bounds = [mode_growth_bound(mu, p) for mu in family.mu]
        got = family_growth_bound(family, p)
        assert got == (max(bounds), 0, family.mu[0])
