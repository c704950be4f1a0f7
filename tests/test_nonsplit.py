"""Tests for the Euler-characteristic non-splitness criteria."""

import random
from fractions import Fraction

from cybundle.nonsplit import (
    chi_coefficients,
    chi_nonsplit,
    nonsplit_feasible,
    spectral_nonsplit,
    w0_nonsplit_delpezzo,
)
from cybundle.surfaces import DivisorClass, make_base


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


def rr_chi(s, rank, ch1, ch2):
    """Riemann-Roch on the surface: chi = ch2 + ch1.c1/2 + rank*(c1^2+c2)/12."""
    return (
        ch2
        + Fraction(1, 2) * s.intersect(ch1, s.c1)
        + Fraction(rank * (s.c1_sq + s.c2), 12)
    )


def rr_chi_twisted(s, n, x, alpha, c2e):
    """Independent derivation of chi(B, E_1) for x > 0.

    E_1 = R ⊗ E ⊗ O(-m alpha) with ch(R) = (y, A1 c1, A2 c1^2/2), ch(E) =
    (n, 0, -c2E) and m = n+1, y = m x.  This path uses only A1 and A2; the
    production formula uses A3 and A4, so agreement checks the identities
    A1 + A2 = A3 and A1 + y/2 = A4.
    """
    m = n + 1
    y = m * x
    A1 = Fraction(-1) + Fraction(y * (y - 1), 2)
    A2 = Fraction(1) + Fraction(y * (y - 1) * (2 * y - 1), 6)
    ch1 = s.c1.scale(n * A1) - alpha.scale(y * n * m)
    ch2 = (
        n * A2 * s.c1_sq / 2
        - y * c2e
        - A1 * n * m * s.intersect(s.c1, alpha)
        + Fraction(y * n * m * m, 2) * s.square(alpha)
    )
    return rr_chi(s, y * n, ch1, ch2)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_y1_spot_values():
    co = chi_coefficients(1)
    assert (co.A1, co.A2, co.A3, co.A4) == (-1, 1, 0, Fraction(-1, 2))


def test_coefficients_y3():
    co = chi_coefficients(3)
    assert co.A3 == 8
    assert co.A4 == Fraction(7, 2)


def test_coefficient_identities():
    # the production chi formula depends on these two collapses
    for y in range(-8, 9):
        co = chi_coefficients(y)
        assert co.A1 + co.A2 == co.A3
        assert co.A1 + Fraction(y, 2) == co.A4


# ---------------------------------------------------------------------------
# chi formulas


def test_chi_x_zero_trivial():
    f0 = make_base("F0")
    res = chi_nonsplit(f0, 2, 0, DivisorClass.zero(2), 2)
    assert res.chi == 0 and res.case == "xzero"


def test_chi_x_zero_enriques_example():
    enr = make_base("enriques")
    alpha = pad((1, -2), 10)  # alpha^2 = -4
    res = chi_nonsplit(enr, 2, 0, alpha, 12)
    assert res.chi == -46
    assert res.integral


def test_chi_x_zero_matches_riemann_roch():
    rng = random.Random(53)
    for kind in ("F0", "dP4", "enriques"):
        s = make_base(kind)
        for _ in range(40):
            n = rng.randint(2, 5)
            m = n + 1
            alpha = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(s.rank)))
            c2e = rng.randint(-10, 30)
            ch1 = alpha.scale(-n * m)
            ch2 = -c2e + Fraction(n * m * m, 2) * s.square(alpha)
            assert chi_nonsplit(s, n, 0, alpha, c2e).chi == rr_chi(s, n, ch1, ch2)


def test_chi_x_pos_matches_riemann_roch():
    rng = random.Random(59)
    for kind in ("F0", "dP3", "enriques"):
        s = make_base(kind)
        for _ in range(50):
            n = rng.randint(2, 5)
            x = rng.randint(1, 3)
            alpha = DivisorClass(tuple(rng.randint(-4, 4) for _ in range(s.rank)))
            c2e = rng.randint(-10, 40)
            got = chi_nonsplit(s, n, x, alpha, c2e)
            assert got.case == "xpos"
            assert got.chi == rr_chi_twisted(s, n, x, alpha, c2e)


def test_chi_antisymmetry():
    rng = random.Random(61)
    f0 = make_base("F0")
    for _ in range(50):
        n = rng.randint(2, 5)
        x = rng.randint(1, 3)
        alpha = DivisorClass((rng.randint(-4, 4), rng.randint(-4, 4)))
        c2e = rng.randint(-10, 40)
        pos = chi_nonsplit(f0, n, x, alpha, c2e).chi
        neg = chi_nonsplit(f0, n, -x, alpha, c2e).chi
        # E_2's chi is the term-by-term negation at equal y = m*x; flipping
        # the sign of x also flips y inside the coefficients
        y = (n + 1) * x
        co = chi_coefficients(y)
        body = y * (n - c2e + Fraction(n * (n + 1) ** 2, 2) * f0.square(alpha))
        body += co.A3 * Fraction(n, 2) * f0.c1_sq - co.A4 * n * (n + 1) * f0.intersect(
            alpha, f0.c1
        )
        assert pos == body
        co_neg = chi_coefficients(-y)
        body_neg = -y * (n - c2e + Fraction(n * (n + 1) ** 2, 2) * f0.square(alpha))
        body_neg += co_neg.A3 * Fraction(n, 2) * f0.c1_sq - co_neg.A4 * n * (
            n + 1
        ) * f0.intersect(alpha, f0.c1)
        assert neg == -body_neg


def test_chi_enriques_depends_only_on_square():
    enr = make_base("enriques")
    a1 = pad((1, -2), 10)  # square -4
    a2 = pad((2, -1), 10)  # square -4
    for x in (-2, 0, 3):
        assert (
            chi_nonsplit(enr, 3, x, a1, 20).chi == chi_nonsplit(enr, 3, x, a2, 20).chi
        )


# ---------------------------------------------------------------------------
# feasibility verdicts


def test_nonsplit_xpos_slope_gate():
    enr = make_base("enriques")
    h = pad((2, 3), 10)
    alpha_bad = pad((1, 1), 10)  # alpha.H = 5 > 0
    v = nonsplit_feasible(enr, 2, 1, alpha_bad, 10, h, 1)
    assert not v.passed and v.clause == "(2H-zc1).alpha<=0"
    # on Enriques the gate reduces to alpha.H <= 0, independent of z
    alpha_ok = pad((-1, 1), 10)  # alpha.H = -1
    for z in (Fraction(1, 3), 1, 7):
        v = nonsplit_feasible(enr, 2, 1, alpha_ok, 10, h, z)
        assert v.clause == "chi_E1>0"


def test_nonsplit_hc1_reduces_to_alpha_c1():
    f0 = make_base("F0")
    h = f0.c1.scale(2)  # H = h c1, z = h makes 2H - zc1 = h c1
    alpha = DivisorClass((1, -3))  # alpha.c1 = -4 <= 0
    v = nonsplit_feasible(f0, 2, 1, alpha, 5, h, 2)
    assert v.clause == "chi_E1>0"


def test_nonsplit_x_zero_strict():
    f0 = make_base("F0")
    # chi = n - c2E = 0 exactly: fails the strict inequality
    v = nonsplit_feasible(f0, 2, 0, DivisorClass.zero(2), 2, f0.c1, 1)
    assert not v.passed and v.clause == "chi_x0<0"
    assert nonsplit_feasible(f0, 2, 0, DivisorClass.zero(2), 3, f0.c1, 1).passed


def test_nonsplit_x_zero_matches_chi():
    rng = random.Random(67)
    enr = make_base("enriques")
    h = pad((2, 3), 10)
    for _ in range(30):
        n = rng.randint(2, 4)
        alpha = pad((rng.randint(-3, 3), rng.randint(-3, 3)), 10)
        c2e = rng.randint(-5, 20)
        v = nonsplit_feasible(enr, n, 0, alpha, c2e, h, 1)
        assert v.passed == (chi_nonsplit(enr, n, 0, alpha, c2e).chi < 0)


# ---------------------------------------------------------------------------
# spectral non-split


def test_spectral_nonsplit_f0_value():
    f0 = make_base("F0")
    out = spectral_nonsplit(f0, 2, 3, f0.c1.scale(12), DivisorClass((1, -11)))
    assert out.value == 1800 and out.passed


def test_spectral_nonsplit_m_reading_robust():
    # reading the multiplier m as 1 instead of n+1 still gives a positive value
    f0 = make_base("F0")
    out = spectral_nonsplit(f0, 2, 1, f0.c1.scale(12), DivisorClass((1, -11)))
    assert out.value == 1400 and out.passed


def test_spectral_nonsplit_boundary():
    f0 = make_base("F0")
    out = spectral_nonsplit(f0, 2, 3, f0.c1.scale(2), DivisorClass((1, -11)))
    assert out.value == 0 and not out.passed


def test_spectral_nonsplit_alpha_zero():
    f0 = make_base("F0")
    eta = f0.c1.scale(4)
    resid_sq = f0.square(eta - f0.c1.scale(2))
    out = spectral_nonsplit(f0, 2, 3, eta, DivisorClass.zero(2))
    assert out.value == Fraction(3, 2) * resid_sq
    assert out.passed == (resid_sq > 0)


# ---------------------------------------------------------------------------
# specialized [W]=0 inequalities


def test_w0_nonsplit_so10_point():
    v = w0_nonsplit_delpezzo(3, 1, 8)
    assert v.passed and v.square_ok and v.chi_ok
    assert v.square_bound == 2
    assert v.chi_value == 6 + 31 * 8


def test_w0_nonsplit_e6_point():
    v = w0_nonsplit_delpezzo(2, 2, 8)
    assert v.passed
    assert v.chi_value == 4 + Fraction(118, 3) * 8


def test_w0_nonsplit_square_clause_fails():
    v = w0_nonsplit_delpezzo(3, 2, 8)
    assert not v.passed and not v.square_ok
