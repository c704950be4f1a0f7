"""Anomaly class [W] = c2(X) - c2(V) and the closed-form [W]=0 solutions.

With c2(V) = c2(U) - n(n+1)/2 D^2, c2(U) = eta sigma + f F the rank-n block
(eta = 0 and f = c2E for a pullback bundle) and D = x sigma + pi^*alpha,

    [W] = (12 c1 - eta + n(n+1)/2 (2x alpha - x^2 c1)) sigma
          + (c2 + 11 c1^2 + n(n+1)/2 alpha^2 - f) F.

The ring (`bundles.bundle_chern`) derives the same classes and is the
tests' oracle for these closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bundles import PullbackBundle, SpectralBundle, c2_spectral
from .ring import FourClass
from .surfaces import BaseSurface, DivisorClass, dot


@dataclass(frozen=True)
class AnomalyOutcome:
    """[W] = pi^* wB sigma + af [F]."""

    wB: DivisorClass
    af: Fraction
    W_zero: bool
    W_effective: bool


def w_verdict(af, wb_zero: bool, wb_effective) -> tuple:
    """(W_zero, W_effective) of [W] = wB sigma + af F, wb_zero telling whether
    wB = 0.  `wb_effective()` is the cone query of wB: it is asked only when
    af >= 0 and wB != 0."""
    return wb_zero and af == 0, af >= 0 and (wb_zero or wb_effective())


def anomaly_class(s: BaseSurface, bundle) -> AnomalyOutcome:
    """[W] = c2(X) - c2(V) of a bundle that has already passed `validate_bundle`."""
    k, x, alpha = bundle.n * (bundle.n + 1) // 2, bundle.twist.x, bundle.twist.alpha
    wb = s.c1.scale(12 - k * x * x) + alpha.scale(2 * k * x)
    if isinstance(bundle, PullbackBundle):
        fiber = bundle.c2E
    else:
        wb = wb - bundle.eta
        fiber = c2_spectral(s, bundle.n, bundle.eta, bundle.lam).fiber
    af = s.c2 + 11 * s.c1_sq + k * s.square(alpha) - fiber
    return decompose_w(s, FourClass(wb, af))


def decompose_w(s: BaseSurface, w: FourClass) -> AnomalyOutcome:
    w_b, a_f = w.beta, w.fiber
    flags = w_verdict(a_f, w_b.is_zero(), lambda: s.cone_position(w_b).effective)
    return AnomalyOutcome(w_b, a_f, *flags)


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

    af_direct (authoritative) is outcome.af, the F coefficient of
    c2(X) - c2(V).  af_displayed is the left side of the printed equation,
    which assumes eta = 12 c1; the two are reported together with an
    agreement flag and no claim about which normalization was intended.
    """
    eta = bundle.eta
    if eta.torsion or eta.coeffs != tuple(12 * c for c in s.c1_ints):
        raise ValueError("display assumes eta=12c1")
    # with lambda = p/q and alpha^2 = a_sq/den^2, af_displayed =
    # c2 + c1^2 (11 + (n^3-n)/24 - 1/2 (lambda^2 - 1/4)(12-n) n) + n(n+1)/2 alpha^2
    # over 24 q^2 den^2
    n, p, q = bundle.n, bundle.lam.numerator, bundle.lam.denominator
    nums, dual, den = s.integer_parts(bundle.twist.alpha)
    q2, d2 = q * q, den * den
    c1_term = (264 + n**3 - n) * q2 - 3 * (4 * p * p - q2) * (12 - n) * n
    displayed = Fraction(
        (24 * s.c2 * q2 + s.c1_sq * c1_term) * d2 + 12 * n * (n + 1) * q2 * dot(nums, dual),
        24 * q2 * d2,
    )
    return SpectralAfReport(
        af_direct=outcome.af,
        af_displayed=displayed,
        agree=outcome.af == displayed,
        wB=outcome.wB,
    )
