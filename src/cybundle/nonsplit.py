"""Euler-characteristic non-splitness criteria for extension bundles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surfaces import BaseSurface, DivisorClass, dot, ratio


@dataclass(frozen=True)
class ChiCoefficients:
    """Coefficients of ch(R^1 pi_* O(-y sigma)) and the chi formulas, y = m*x."""

    y: int
    A1: Fraction
    A2: Fraction
    A3: Fraction
    A4: Fraction


def chi_coefficients(y: int) -> ChiCoefficients:
    return ChiCoefficients(
        y=y,
        A1=Fraction(-1) + Fraction(y * (y - 1), 2),
        A2=Fraction(1) + Fraction(y * (y - 1) * (2 * y - 1), 6),
        A3=Fraction(y * (y * y - 1), 3),
        A4=Fraction(-1) + Fraction(y * y, 2),
    )


@dataclass(frozen=True)
class ChiResult:
    case: str  # "xpos" | "xneg" | "xzero"
    chi: Fraction
    integral: bool


def chi_nonsplit(
    s: BaseSurface, n: int, x: int, alpha: DivisorClass, c2e: int
) -> ChiResult:
    """chi of the sheaf controlling non-splitness, dispatched on sign(x).

    m = n+1 is the extension rank; x > 0 gives chi(B, E_1), x < 0 gives
    chi(B, E_2), x = 0 gives chi(B, E tensor O(-m alpha)); the formula is
    that of `chi_line`, over the integer parts of alpha.
    """
    nums, dual, den = s.integer_parts(alpha)
    chi0, slope = chi_line(n, x, dot(nums, dual), dot(dual, s.c1_ints), den, s.c1_sq)
    chi = Fraction(chi0 - slope * c2e)
    case = "xpos" if x > 0 else "xneg" if x < 0 else "xzero"
    return ChiResult(case=case, chi=chi, integral=chi.denominator == 1)


def chi_line(n: int, x: int, a_sq: int, a_c1: int, den: int, c1_sq: int) -> tuple:
    """(chi0, slope) with chi = chi0 - slope * c2e, in ints, for alpha =
    nums/den given a_sq = den^2 alpha^2 and a_c1 = den alpha.c1.  With m =
    n+1 and y = m x, chi is n - c2e + n m/2 (m alpha^2 - alpha.c1) for x = 0
    and +-(y (n - c2e + n m^2/2 alpha^2) + A3 n/2 c1^2 - A4 n m alpha.c1),
    the sign that of x, otherwise, with the `chi_coefficients(y)` A3 =
    (y-1)y(y+1)/3, an integer, and A4 = (y^2-2)/2.  slope = |y|, or 1 for
    x = 0; chi0 is an int when integral and a Fraction otherwise."""
    m, d2 = n + 1, den * den
    if x == 0:
        return ratio(2 * d2 * n + n * m * (m * a_sq - den * a_c1), 2 * d2), 1
    # 2 den^2 times the c2e-free part of chi
    y = m * x
    body = (
        2 * d2 * y * n
        + y * n * m * m * a_sq
        + (y - 1) * y * (y + 1) // 3 * n * c1_sq * d2
        - (y * y - 2) * n * m * den * a_c1
    )
    return ratio(body if x > 0 else -body, 2 * d2), abs(y)


@dataclass(frozen=True)
class NonsplitVerdict:
    passed: bool
    clause: str
    value: Fraction


def nonsplit_feasible(
    s: BaseSurface,
    n: int,
    x: int,
    alpha: DivisorClass,
    c2e: int,
    h: DivisorClass,
    z,
) -> NonsplitVerdict:
    """Sufficient condition for choosing the extension non-split.

    x > 0: (2H - z c1).alpha <= 0 and chi(B,E_1) > 0;
    x < 0: chi(B,E_2) < 0;  x = 0: chi(B, E(-m alpha)) < 0.
    """
    slope = 2 * s.intersect(h, alpha) - Fraction(z) * s.intersect(alpha, s.c1) if x > 0 else None
    return nonsplit_verdict(x, slope, chi_nonsplit(s, n, x, alpha, c2e).chi)


def nonsplit_verdict(x: int, slope, chi) -> NonsplitVerdict:
    """The verdict of `nonsplit_feasible` from slope = (2H - z c1).alpha,
    given for x > 0 only, and chi (`chi_line`)."""
    if x > 0:
        if slope > 0:
            return NonsplitVerdict(False, "(2H-zc1).alpha<=0", slope)
        return NonsplitVerdict(chi > 0, "chi_E1>0", chi)
    if x < 0:
        return NonsplitVerdict(chi < 0, "chi_E2<0", chi)
    return NonsplitVerdict(chi < 0, "chi_x0<0", chi)


@dataclass(frozen=True)
class SpectralNonsplit:
    value: Fraction
    passed: bool


def spectral_nonsplit(
    s: BaseSurface, n: int, m: int, eta: DivisorClass, alpha: DivisorClass
) -> SpectralNonsplit:
    """Spectral-extension non-split criterion:
    3/2 (eta - n c1)^2 - m alpha.(eta - n c1) > 0."""
    resid = eta - s.c1.scale(n)
    value = Fraction(3, 2) * s.square(resid) - m * s.intersect(alpha, resid)
    return SpectralNonsplit(value=value, passed=value > 0)


@dataclass(frozen=True)
class W0NonsplitVerdict:
    passed: bool
    square_ok: bool
    chi_ok: bool
    square_bound: Fraction
    chi_value: Fraction


def w0_nonsplit_delpezzo(n: int, x: int, c1sq) -> W0NonsplitVerdict:
    """Specialized x > 0 non-split inequalities after the [W]=0 substitution:
    x^2 <= 24/(nm)  and  2n + ((3m^3+m^2)nx^2/12 + 144/(mx) - 37n/3 - 20)c1^2 > 24."""
    if x <= 0:
        raise ValueError("condition applies to x > 0")
    m = n + 1
    c1sq = Fraction(c1sq)
    square_bound = Fraction(24, n * m)
    square_ok = x * x <= square_bound
    coeff = (
        Fraction((3 * m**3 + m * m) * n * x * x, 12)
        + Fraction(144, m * x)
        - Fraction(37 * n, 3)
        - 20
    )
    chi_value = 2 * n + coeff * c1sq
    chi_ok = chi_value > 24
    return W0NonsplitVerdict(
        passed=square_ok and chi_ok,
        square_ok=square_ok,
        chi_ok=chi_ok,
        square_bound=square_bound,
        chi_value=chi_value,
    )
