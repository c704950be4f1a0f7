"""Anomaly class [W] = c2(X) - c2(V) and the closed-form [W]=0 solutions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import SpectralBundle, bundle_chern
from .ring import FourClass, c2_tangent
from .surfaces import BaseSurface, DivisorClass


@dataclass(frozen=True)
class AnomalyOutcome:
    """[W] = pi^* wB sigma + af [F]."""

    wB: DivisorClass
    af: Fraction
    W_zero: bool
    W_effective: bool | None


def anomaly_class(s: BaseSurface, bundle) -> AnomalyOutcome:
    """[W] = c2(X) - c2(V) of a bundle that has already passed `validate_bundle`."""
    c2v = bundle_chern(s, bundle).c2
    w = c2_tangent(s) - c2v
    return decompose_w(s, w)


def decompose_w(s: BaseSurface, w: FourClass) -> AnomalyOutcome:
    w_b, a_f = w.beta, w.fiber
    w_zero = w_b.is_zero() and a_f == 0
    if w_b.is_zero():
        effective = a_f >= 0
    else:
        eff = s.cone_position(w_b).effective
        effective = None if eff is None else (eff and a_f >= 0)
    return AnomalyOutcome(wB=w_b, af=a_f, W_zero=w_zero, W_effective=effective)


@dataclass(frozen=True)
class AlphaSolution:
    coefficient: Fraction  # alpha = coefficient * c1
    alpha: DivisorClass
    integral: bool


def solve_alpha_zero(s: BaseSurface, n: int, x: int) -> AlphaSolution:
    """The twist alpha = (x^2/2 - 12/(n(n+1))) c1/x forcing wB = 0 (-K ample)."""
    if s.is_enriques:
        raise ValueError("requires a base with ample anticanonical class")
    if x == 0:
        raise ValueError("requires x != 0")
    coeff = Fraction(x, 2) - Fraction(12, n * (n + 1) * x)
    alpha = s.c1.scale(coeff)
    return AlphaSolution(coefficient=coeff, alpha=alpha, integral=alpha.is_integral())


def solve_c2E_zero(s: BaseSurface, n: int, alpha: DivisorClass) -> Fraction:
    """c2(E) = c2 + 11 c1^2 + n(n+1)/2 alpha^2, forcing af = 0."""
    return s.c2 + 11 * s.c1_sq + Fraction(n * (n + 1), 2) * s.square(alpha)


@dataclass(frozen=True)
class SpectralAfReport:
    af_direct: Fraction
    af_displayed: Fraction
    agree: bool
    wB: DivisorClass


def spectral_af(s: BaseSurface, bundle: SpectralBundle, outcome: AnomalyOutcome) -> SpectralAfReport:
    """Compare af of [W] = `outcome` = anomaly_class(s, bundle) with the printed equation.

    af_direct (authoritative) is outcome.af, from c2(X) - c2(V) through the
    ring.  af_displayed is the left side of the printed equation, which
    assumes eta = 12 c1; the two are reported together with an agreement
    flag and no claim about which normalization was intended.
    """
    if bundle.eta != s.c1.scale(12):
        raise ValueError("display assumes eta=12c1")
    n, lam = bundle.n, bundle.lam
    displayed = (
        s.c2
        + s.c1_sq
        * (
            11
            + Fraction(n**3 - n, 24)
            - Fraction(1, 2) * (lam * lam - Fraction(1, 4)) * (12 - n) * n
        )
        + Fraction(n * (n + 1), 2) * s.square(bundle.twist.alpha)
    )
    return SpectralAfReport(
        af_direct=outcome.af,
        af_displayed=displayed,
        agree=outcome.af == displayed,
        wB=outcome.wB,
    )
