"""Exact stability windows.

The windows are solved from the raw inequality systems appearing in the
stability proofs (worst-case subsheaf slopes baked in); the closed forms
are provided separately as cross-check oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .surfaces import BaseSurface, DivisorClass, MinDegree


@dataclass(frozen=True)
class StabilityWindow:
    variable: str  # "z" or "u" with u = z(2h - z) = h^2 - zeta^2
    lower: Fraction | None
    upper: Fraction | None
    nonempty: bool
    binding: tuple
    z_interval_approx: tuple | None = None


def _solve_strict_linear(inequalities, domain):
    """Intersect strict linear inequalities coef*t + const {<,>} 0 in one variable.

    `inequalities` is a list of (name, coef, const, sense) with sense in
    {"lt", "gt"}; `domain` is a list of (name, bound, side) with side "gt"
    (t > bound) or "lt" (t < bound).
    Returns (lower, upper, binding, nonempty).
    """
    lower = []  # (value, name): t > value
    upper = []  # (value, name): t < value
    infeasible = []
    for name, bound, side in domain:
        (lower if side == "gt" else upper).append((Fraction(bound), name))
    for name, coef, const, sense in inequalities:
        coef, const = Fraction(coef), Fraction(const)
        if coef == 0:
            ok = const < 0 if sense == "lt" else const > 0
            if not ok:
                infeasible.append(name)
            continue
        bound = -const / coef
        # coef*t + const < 0  <=>  t < bound (coef > 0) or t > bound (coef < 0)
        points_up = (coef > 0) == (sense == "lt")
        (upper if points_up else lower).append((bound, name))
    if infeasible:
        return None, None, tuple(infeasible), False
    lo = max(lower, key=lambda t: t[0]) if lower else (None, None)
    hi = min(upper, key=lambda t: t[0]) if upper else (None, None)
    nonempty = lo[0] is None or hi[0] is None or lo[0] < hi[0]
    binding = []
    if nonempty:
        for value, name in lower:
            if value == lo[0] and name not in binding:
                binding.append(name)
        for value, name in upper:
            if value == hi[0] and name not in binding:
                binding.append(name)
    return lo[0], hi[0], tuple(binding), nonempty


def _z_approx(nonempty, lo, hi, to_z):
    """(to_z(lo), to_z(hi)) in floats, for display only; None for an empty
    or unbounded window, and for one whose floats would overflow."""
    if not nonempty or lo is None or hi is None:
        return None
    try:
        return (to_z(lo), to_z(hi))
    except OverflowError:
        return None


def sign_necessity(x: int, a_h) -> bool:
    """Necessary sign condition on the Enriques surface: x*(alpha.H) < 0."""
    return x * Fraction(a_h) < 0


def window_enriques(n: int, x: int, a, hsq) -> StabilityWindow:
    """Stability window in z for an Enriques-base extension (a = alpha.H).

    Raw system: n(xH^2 + 2za) - 2z < 0, n(xH^2 + 2za) - H^2 < 0,
    xH^2 + 2za > 0, together with z > 0.
    """
    a, hsq = Fraction(a), Fraction(hsq)
    if x == 0 and a >= 1:
        return StabilityWindow("z", None, None, False, ("na>=1 obstruction",))
    ineqs = [
        ("subsheaf-F", 2 * n * a - 2, n * x * hsq, "lt"),
        ("subsheaf-G", 2 * n * a, n * x * hsq - hsq, "lt"),
        ("DJ2>0", 2 * a, x * hsq, "gt"),
    ]
    lo, hi, binding, nonempty = _solve_strict_linear(ineqs, [("z>0", 0, "gt")])
    approx = _z_approx(nonempty, lo, hi, float)
    return StabilityWindow("z", lo, hi, nonempty, binding, approx)


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


def window_delpezzo(n: int, x: int, a, c1sq, h) -> StabilityWindow:
    """Stability window in u = z(2h-z) for H = h*c1 on a base with -K ample.

    Here a = alpha.c1.  Raw system (in u):
    nxh^2c1^2 + (na-1-nxc1^2)u < 0, (nx-1)h^2c1^2 + (na+c1^2-nxc1^2)u < 0,
    xh^2c1^2 + (a-xc1^2)u > 0, with u in (0, h^2).
    """
    a, c1sq, h = Fraction(a), Fraction(c1sq), Fraction(h)
    hsq = h * h
    if x == 0:
        return StabilityWindow(
            "u", None, None, False, ("(na-1)(h^2-zeta^2)<0 impossible",)
        )
    ineqs = [
        ("subsheaf-F", n * a - 1 - n * x * c1sq, n * x * hsq * c1sq, "lt"),
        ("subsheaf-G", n * a + c1sq - n * x * c1sq, (n * x - 1) * hsq * c1sq, "lt"),
        ("DJ2>0", a - x * c1sq, x * hsq * c1sq, "gt"),
    ]
    domain = [("u>0", 0, "gt"), ("u<h^2", hsq, "lt")]
    lo, hi, binding, nonempty = _solve_strict_linear(ineqs, domain)
    approx = _z_approx(nonempty, lo, hi, lambda u: float(h) - math.sqrt(float(hsq - u)))
    return StabilityWindow("u", lo, hi, nonempty, binding, approx)


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
    return spectral_stability(n, s.intersect(alpha, h), s.min_positive_degree(h))


def spectral_stability(n: int, a_h, md: MinDegree) -> SpectralStabilityVerdict:
    """The verdict of `spectral_stability_check` from a_h = alpha.H and
    md = (Lambda.H)_min with its witness."""
    return SpectralStabilityVerdict(
        passed=0 < n * a_h < md.value,
        a_h=a_h,
        n_a_h=n * a_h,
        min_degree=md.value,
        witness=md.witness,
    )
