"""Exact stability windows.

The windows are solved from the raw inequality systems appearing in the
stability proofs (worst-case subsheaf slopes baked in); the closed forms
are provided separately as cross-check oracles.

Homogeneity: each raw system is homogeneous of degree one jointly in its
variable and the square of the polarization, in (u, h^2) on F0/dPk and in
(z, H^2) on Enriques.  In t = u/h^2 (t = z/|H^2|) a row, cleared of the
denominators of a and c1^2, is a pair of ints that depends on (n, x, a, c1^2)
and the sign of H^2 alone.  So a window is solved in t once, in integers
(`solve_*`), and read at each polarization (`window_at`): for h' = c h, c >
0 rational, the u-window keeps `nonempty` and `binding` and its ends scale
by c^2, and for H^2' = c H^2 the z-window's ends scale by c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .surfaces import BaseSurface, DivisorClass


@dataclass(frozen=True)
class StabilityWindow:
    variable: str  # "z" or "u" with u = z(2h - z) = h^2 - zeta^2
    lower: Fraction | None
    upper: Fraction | None
    nonempty: bool
    binding: tuple
    z_interval_approx: tuple | None = None


def _solve_strict_linear(rows, domain):
    """Intersect strict linear inequalities in one variable t, in integers.

    `rows` is a list of (name, coef, const, sense) with int coef and const:
    coef*t + const < 0 (sense "lt") or > 0 ("gt"); `domain` is a list of
    (name, num, den, side) with den > 0: t > num/den (side "gt") or
    t < num/den ("lt").  A bound is a pair (num, den) with den > 0, and
    bounds are compared by cross-multiplying.  Returns (lower, upper,
    binding, nonempty) with the two ends as such pairs (None if unbounded);
    a zero-coefficient row that fails makes the window empty, with no ends,
    and binding names every such row.
    """
    lower = []  # (num, den, name): t > num/den
    upper = []  # (num, den, name): t < num/den
    infeasible = []
    for name, num, den, side in domain:
        (lower if side == "gt" else upper).append((num, den, name))
    for name, coef, const, sense in rows:
        # coef*t + const < 0  <=>  t < -const/coef (coef > 0) or t > -const/coef (coef < 0)
        if coef > 0:
            (upper if sense == "lt" else lower).append((-const, coef, name))
        elif coef < 0:
            (lower if sense == "lt" else upper).append((const, -coef, name))
        elif not (const < 0 if sense == "lt" else const > 0):
            infeasible.append(name)
    if infeasible:
        return None, None, tuple(infeasible), False
    lo = hi = None
    for num, den, _ in lower:
        if lo is None or num * lo[1] > lo[0] * den:
            lo = num, den
    for num, den, _ in upper:
        if hi is None or num * hi[1] < hi[0] * den:
            hi = num, den
    nonempty = lo is None or hi is None or lo[0] * hi[1] < hi[0] * lo[1]
    if not nonempty:
        return lo, hi, (), False
    binding = [name for num, den, name in lower if num * lo[1] == lo[0] * den]
    binding += [name for num, den, name in upper if num * hi[1] == hi[0] * den]
    return lo, hi, tuple(binding), True


def window_scale(h=None, hsq=None) -> tuple:
    """(variable, num, den, h) of the windows read at H = h c1, u = h^2 t (t
    if h = 0), or at an H with H^2 = hsq, z = |H^2| t (t if H^2 = 0), h None."""
    q = hsq if h is None else h
    q = q if type(q) is Fraction else Fraction(q)
    if h is None:
        return "z", abs(q.numerator) or 1, q.denominator, None
    return "u", q.numerator**2 or 1, q.denominator**2, q


def z_approx(solved, scale: tuple):
    """The ends of the window `solved` in t as floats z at `scale`, for
    display only: None if empty or unbounded, or if the floats overflow."""
    (lo, hi, _, nonempty), (_, num, den, h) = solved, scale
    if not nonempty or lo is None or hi is None:
        return None
    try:
        if h is None:
            return lo[0] * num / (lo[1] * den), hi[0] * num / (hi[1] * den)
        # z = h - sqrt(h^2 - u), h^2 - u = h^2 (1 - t); h != 0 in a nonempty window
        h = h.numerator / h.denominator
        z_lo = h - math.sqrt(num * (lo[1] - lo[0]) / (den * lo[1]))
        return z_lo, h - math.sqrt(num * (hi[1] - hi[0]) / (den * hi[1]))
    except OverflowError:
        return None


def window_at(solved, scale: tuple) -> StabilityWindow:
    """The window `solved` in t, read at `scale`, with Fraction ends."""
    (lo, hi, binding, nonempty), (variable, num, den, _) = solved, scale
    lower, upper = (None if t is None else Fraction(t[0] * num, t[1] * den) for t in (lo, hi))
    return StabilityWindow(variable, lower, upper, nonempty, binding, z_approx(solved, scale))


def sign_necessity(x: int, a_h) -> bool:
    """Necessary sign condition on the Enriques surface: x*(alpha.H) < 0."""
    return x * Fraction(a_h) < 0


def solve_enriques(n: int, x: int, a, sign: int = 1) -> tuple:
    """The Enriques window (a = alpha.H) in t = z/|H^2| (t = z if H^2 = 0),
    `sign` that of H^2, as `_solve_strict_linear` gives it.  Raw system:
    n(xH^2 + 2za) - 2z < 0, n(xH^2 + 2za) - H^2 < 0, xH^2 + 2za > 0, z > 0."""
    if x == 0 and a >= 1:
        return None, None, ("na>=1 obstruction",), False
    # rows times the denominator of a
    p, q = a.numerator, a.denominator
    rows = [
        ("subsheaf-F", 2 * n * p - 2 * q, n * x * sign * q, "lt"),
        ("subsheaf-G", 2 * n * p, (n * x - 1) * sign * q, "lt"),
        ("DJ2>0", 2 * p, x * sign * q, "gt"),
    ]
    return _solve_strict_linear(rows, [("z>0", 0, 1, "gt")])


def window_enriques(n: int, x: int, a, hsq) -> StabilityWindow:
    """Stability window in z for an Enriques-base extension (a = alpha.H):
    the system of `solve_enriques`, read at H^2 = hsq."""
    hsq = Fraction(hsq)
    return window_at(solve_enriques(n, x, Fraction(a), (hsq > 0) - (hsq < 0)), window_scale(hsq=hsq))


def enriques_closed_form(n: int, x: int, a, hsq):
    """Closed-form z-window of the Enriques stability statement (x*a < 0)."""
    a, hsq = Fraction(a), Fraction(hsq)
    if x > 0 and a < 0:
        return (
            Fraction(n * x, 1) / (1 - n * a) * hsq / 2,
            Fraction(n * x, 1) / (-n * a) * hsq / 2,
        )
    if x < 0 and a > 0:
        return (
            Fraction(-n * x, 1) / (n * a) * hsq / 2,
            Fraction(-n * x, 1) / (n * a - 1) * hsq / 2,
        )
    raise ValueError("closed form requires x*a < 0")


def solve_delpezzo(n: int, x: int, a, c1sq, sign: int = 1) -> tuple:
    """The F0/dPk window (a = alpha.c1) in t = u/h^2 (t = u and sign 0 if h
    = 0), as `_solve_strict_linear` gives it.  Raw system (in u):
    nxh^2c1^2 + (na-1-nxc1^2)u < 0, (nx-1)h^2c1^2 + (na+c1^2-nxc1^2)u < 0,
    xh^2c1^2 + (a-xc1^2)u > 0, with u in (0, h^2)."""
    if x == 0:
        return None, None, ("(na-1)(h^2-zeta^2)<0 impossible",), False
    # rows times the denominators of a and c1^2
    nx = n * x
    p, c = a.numerator * c1sq.denominator, c1sq.numerator * a.denominator
    q = a.denominator * c1sq.denominator
    rows = [
        ("subsheaf-F", n * p - q - nx * c, nx * c * sign, "lt"),
        ("subsheaf-G", n * p + c - nx * c, (nx - 1) * c * sign, "lt"),
        ("DJ2>0", p - x * c, x * c * sign, "gt"),
    ]
    return _solve_strict_linear(rows, [("u>0", 0, 1, "gt"), ("u<h^2", sign, 1, "lt")])


def window_delpezzo(n: int, x: int, a, c1sq, h) -> StabilityWindow:
    """Stability window in u = z(2h-z) for H = h*c1 on a base with -K ample
    (a = alpha.c1): the system of `solve_delpezzo`, read at h."""
    h = Fraction(h)
    return window_at(solve_delpezzo(n, x, Fraction(a), Fraction(c1sq), 1 if h else 0), window_scale(h))


def delpezzo_closed_form(n: int, x: int, a, c1sq, h):
    """Closed-form u-window of the -K-ample stability statement (x*a < 0)."""
    a, c1sq, h = Fraction(a), Fraction(c1sq), Fraction(h)
    hsq_c = h * h * c1sq
    lo = Fraction(n * x) * hsq_c / (n * (x * c1sq - a) + 1)
    hi = Fraction(n * x) * hsq_c / (n * (x * c1sq - a))
    if x > 0 and a < 0:
        return lo, hi
    if x < 0 and a > 0:
        return hi, lo
    raise ValueError("closed form requires x*a < 0")


@dataclass(frozen=True)
class SpectralStabilityVerdict:
    passed: bool
    a_h: Fraction
    n_a_h: Fraction
    min_degree: Fraction
    witness: DivisorClass


def spectral_stability_check(
    s: BaseSurface, n: int, alpha: DivisorClass, h: DivisorClass
) -> SpectralStabilityVerdict:
    """Stability test for an extension of O(n pi^*alpha) by V_n(-pi^*alpha).

    With J = eps*sigma + pi^*H and eps a formal infinitesimal the criterion
    reduces to 0 < n*(alpha.H) < (Lambda.H)_min.
    """
    a_h, md = s.intersect(alpha, h), s.min_positive_degree(h)
    return SpectralStabilityVerdict(
        passed=0 < n * a_h < md.value,
        a_h=a_h,
        n_a_h=n * a_h,
        min_degree=md.value,
        witness=md.witness,
    )
