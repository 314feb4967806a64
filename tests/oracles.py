"""Exact regime and defect oracles on rational inputs.

Every float is a rational number, so the regime and the Jordan defects of a
float (eps, b, mu) are exact questions.  These predicates answer them in
``Fraction`` arithmetic from the per-mode quartic

    lam^4 + (1-eps) lam^3 + (2 mu + b^2 - eps) lam^2 + mu (1-eps) lam + mu^2,

whose Hurwitz determinants and discriminant factorization are proved in
``test_spectrum.py`` (Gantmacher, *The Theory of Matrices*, vol. 2, ch. XV):

    Delta1 = 1 - eps,  Delta2 = (1-eps)(b^2 - eps + mu),
    Delta3 = mu (1-eps)^2 (b^2 - eps),  Delta4 = mu^2 Delta3,
    disc = mu^2 (2b - eps - 1)^2 (2b + eps + 1)^2 q(r) q(-r),

with q(w) = w^2 + (1-eps) w + b^2 - eps the quadratic in w = lam + mu/lam
and r = 2 sqrt(mu).  Inputs are taken as exact: ``Fraction(x)`` of a float
is the float's value.
"""

from fractions import Fraction

from oscpair.spectrum import RegimeKind


def quartic(eps, b, mu=1):
    """Coefficients a0..a4 of the mode quartic."""
    return (1, 1 - eps, 2 * mu + b * b - eps, mu * (1 - eps), mu * mu)


def _det(m):
    """Determinant by expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def hurwitz_minors(coeffs):
    """Leading principal minors Delta1..Delta_n of the Hurwitz matrix of
    a0 x^n + a1 x^(n-1) + ... + an, whose entry (i, j), counted from 0, is
    a_(2j - i + 1), or 0 where no such coefficient exists."""
    n, a = len(coeffs) - 1, dict(enumerate(coeffs))
    h = [[a.get(2 * j - i + 1, 0) for j in range(n)] for i in range(n)]
    return [_det([row[:k] for row in h[:k]]) for k in range(1, n + 1)]


def decays(eps, b, mu=1) -> bool:
    """Every root in the open left half-plane: every Hurwitz minor positive."""
    return all(d > 0 for d in hurwitz_minors(quartic(*map(Fraction, (eps, b, mu)))))


def kind(eps, b, mu=1) -> RegimeKind:
    """The exact regime.  Not decaying with eps < 1: b^2 < eps makes
    w+ w- < 0, so w+ > 0 and its pair has a root right of the axis, and
    b^2 = eps gives w = 0, the simple roots +-i sqrt(mu).  eps > 1: the
    roots sum to eps - 1 > 0.  eps = 1: the quartic is even in lam, and its
    lam^2 = z solve z^2 + (2 mu + b^2 - 1) z + mu^2 = 0 of discriminant
    (b^2 - 1)(4 mu + b^2 - 1): two negative z (bounded) for b > 1, the double
    z = -mu (defect 1, polynomial) at b = 1, and a z off the negative axis
    for b < 1."""
    eps, b, mu = map(Fraction, (eps, b, mu))
    if decays(eps, b, mu):
        return RegimeKind.EXP_DECAY
    if eps == 1 and b == 1:
        return RegimeKind.POLY_BLOWUP
    if eps == 1:
        return RegimeKind.BOUNDED_NON_DECAYING if b > 1 else RegimeKind.EXP_BLOWUP
    if eps < 1 and b * b == eps:
        return RegimeKind.BOUNDED_NON_DECAYING
    return RegimeKind.EXP_BLOWUP


def _double_w(eps, b, mu):
    """The signs s of w = s r, r = 2 sqrt(mu), that solve q(w) = 0.

    q(r) q(-r) = c^2 - r^2 (1-eps)^2 with c = 4 mu + b^2 - eps, and
    q(s r) = c + s (1-eps) r; so where the product vanishes, q(r) = 0 iff
    c and 1 - eps do not share a sign, and q(-r) = 0 iff they do not differ.
    """
    c = 4 * mu + b * b - eps
    if c * c != 4 * mu * (1 - eps) ** 2:
        return ()
    return tuple(s for s, ok in ((1, c * (1 - eps) <= 0), (-1, c * (1 - eps) >= 0)) if ok)


def _right_of(s, eps, mu) -> bool:
    """2 s r > eps - 1, r = 2 sqrt(mu), decided on squares."""
    if s > 0:
        return eps < 1 or 16 * mu > (eps - 1) ** 2
    return 1 - eps > 0 and (1 - eps) ** 2 > 16 * mu


def defects(eps, b, mu=1) -> tuple[int, int, int, int]:
    """Defects of lam1..lam4 (lam1, lam3 of w+ and lam2, lam4 of w-), b > 0.

    2b = 1 + eps (a = 0, w+ = w- = (eps-1)/2) doubles every root, and makes
    them one quadruple root where also |1-eps|/2 = r, (1-eps)^2 = 16 mu.
    Otherwise q(s r) = 0 doubles the pair of w = s r, which is w+ when
    2 s r > eps - 1 (equality would be w+ = w-).
    """
    eps, b, mu = map(Fraction, (eps, b, mu))
    if 2 * b == 1 + eps:
        return (3 if (1 - eps) ** 2 == 16 * mu else 1,) * 4
    pair = [0, 0]
    for s in _double_w(eps, b, mu):
        pair[0 if _right_of(s, eps, mu) else 1] = 1
    return (pair[0], pair[1], pair[0], pair[1])


def dominant_defect(eps, b, mu=1) -> int:
    """Defect of the roots of largest real part, b > 0.

    Off 2b = 1 + eps only a pair of w = s r can be double, at lam = s sqrt(mu),
    beside the other pair of w' = eps - 1 - s r.  For s = 1 the double root
    leads iff w' < r, i.e. 2r > eps - 1: then the other pair is complex with
    real part w'/2 < sqrt(mu) or real and negative.  For s = -1 it never
    leads: the other pair is complex with real part w'/2 > -sqrt(mu), or real
    with its larger root in (-sqrt(mu), 0) or positive.
    """
    eps, b, mu = map(Fraction, (eps, b, mu))
    if 2 * b == 1 + eps:
        return defects(eps, b, mu)[0]
    return int(1 in _double_w(eps, b, mu) and _right_of(1, eps, mu))
