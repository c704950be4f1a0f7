"""Even cohomology ring of the elliptic fibration X -> B with section.

Divisors are D = x*sigma + pi^*alpha, four-classes are sigma*pi^*beta + f*F
with F the fiber class.  All products follow from the relations

    sigma^2 = -sigma pi^*c1,   sigma.F = pt,   pi^*a . pi^*b = (a.b) F,

and H^6(X) is identified with Q via the point class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surfaces import BaseSurface, DivisorClass


@dataclass(frozen=True)
class DivisorX:
    """D = x*sigma + pi^*alpha; rational x allowed for polarizations/twists."""

    x: Fraction
    alpha: DivisorClass

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.alpha.is_integral()


@dataclass(frozen=True)
class FourClass:
    """W = sigma*pi^*beta + fiber*F."""

    beta: DivisorClass
    fiber: Fraction

    def __post_init__(self):
        if type(self.fiber) is not Fraction:
            object.__setattr__(self, "fiber", Fraction(self.fiber))

    def __add__(self, other):
        return FourClass(self.beta + other.beta, self.fiber + other.fiber)

    def __sub__(self, other):
        return FourClass(self.beta - other.beta, self.fiber - other.fiber)

    def scale(self, s) -> "FourClass":
        s = Fraction(s)
        return FourClass(self.beta.scale(s), s * self.fiber)

    def is_zero(self) -> bool:
        return self.beta.is_zero() and self.fiber == 0

    @staticmethod
    def zero(rank: int) -> "FourClass":
        return FourClass(DivisorClass.zero(rank), Fraction(0))

    @staticmethod
    def fiber_class(rank: int, coeff=1) -> "FourClass":
        return FourClass(DivisorClass.zero(rank), Fraction(coeff))


def triple_product(s: BaseSurface, d1: DivisorX, d2: DivisorX, d3: DivisorX) -> Fraction:
    """Triple intersection number D1.D2.D3 on X."""
    x1, x2, x3 = d1.x, d2.x, d3.x
    a1, a2, a3 = d1.alpha, d2.alpha, d3.alpha
    c1 = s.c1
    return (
        x1 * x2 * x3 * s.c1_sq
        - (
            x1 * x2 * s.intersect(c1, a3)
            + x1 * x3 * s.intersect(c1, a2)
            + x2 * x3 * s.intersect(c1, a1)
        )
        + (
            x1 * s.intersect(a2, a3)
            + x2 * s.intersect(a1, a3)
            + x3 * s.intersect(a1, a2)
        )
    )


def divisor_square(s: BaseSurface, d: DivisorX) -> FourClass:
    """D^2 = sigma pi^*(2x*alpha - x^2*c1) + (alpha^2) F."""
    beta = d.alpha.scale(2 * d.x) - s.c1.scale(d.x * d.x)
    return FourClass(beta, s.square(d.alpha))


def pair_four_two(s: BaseSurface, w: FourClass, d: DivisorX) -> Fraction:
    """Intersection number W.D for W in H^4(X), D in H^2(X)."""
    return (
        d.x * (-s.intersect(s.c1, w.beta))
        + s.intersect(d.alpha, w.beta)
        + d.x * w.fiber
    )


def c2_tangent(s: BaseSurface) -> FourClass:
    """c2(X) = pi^*c2 + 11 pi^*c1^2 + 12 sigma pi^*c1."""
    return FourClass(s.c1.scale(12), s.c2 + 11 * s.c1_sq)
