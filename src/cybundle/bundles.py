"""Chern-class arithmetic for extension bundles and spectral cover bundles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import DivisorX, FourClass, divisor_square, pair_four_two, triple_product
from .surfaces import BaseSurface, DivisorClass


@dataclass(frozen=True)
class PullbackBundle:
    """Extension of O(nD) by pi^*E(-D), with E rank n, c1(E)=0 on B."""

    n: int
    c2E: int
    twist: DivisorX


@dataclass(frozen=True)
class SpectralBundle:
    """Extension of O(nD) by V_n(-D), with V_n a spectral bundle (n, eta, lam)."""

    n: int
    eta: DivisorClass
    lam: Fraction
    twist: DivisorX

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))


@dataclass(frozen=True)
class ExtensionChern:
    c2: FourClass
    c3: Fraction
    integral: bool


def validate_bundle(s: BaseSurface, bundle, spectral_data=None) -> Fraction:
    """Raise ValueError if the bundle data violates its invariants.

    Otherwise return the F coefficient of c2(U), U the rank-n block: c2E
    for a pullback bundle, FMW's fiber term (checked integral) for a
    spectral one.  `spectral_data(n, eta, lam)`, if given, stands in for
    `check_spectral_data(s, n, eta, lam)`: a scan passes its table of the
    outcomes, so that only the checks on n and the twist run per block.
    """
    if bundle.n < 2:
        raise ValueError("bundle rank n must be >= 2")
    d = bundle.twist
    if d.alpha.rank != s.rank:
        raise ValueError("rank mismatch")
    half_integral = not d.is_integral()
    if half_integral:
        # half-integral twists are allowed only when 2D is integral
        two_d = DivisorX(2 * d.x, d.alpha.scale(2))
        if not two_d.is_integral():
            raise ValueError("twist must be integral or half-integral")
    if isinstance(bundle, PullbackBundle):
        if d.x.denominator != 1:
            raise ValueError("pullback twist must have integer sigma-coefficient")
        c2u_fiber = Fraction(bundle.c2E)
    else:
        if d.x != 0:
            raise ValueError("spectral extensions use twists D = pi^*alpha (x = 0)")
        if spectral_data is None:
            c2u_fiber = check_spectral_data(s, bundle.n, bundle.eta, bundle.lam)
        else:
            c2u_fiber = spectral_data(bundle.n, bundle.eta, bundle.lam)
    # with 2D integral and x in Z, n(n+1)/2 alpha^2 is the one term of
    # c2(V) = c2(U) - n(n+1)/2 D^2 that can leave Z, so n(n+1) alpha^2 must
    # be even; c3(V) is then integral too
    if half_integral and bundle.n * (bundle.n + 1) * s.square(d.alpha) % 2 != 0:
        raise ValueError("twist invalid: non-integral Chern class")
    return c2u_fiber


def check_spectral_data(s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction) -> Fraction:
    """Parity, irreducibility and integrality constraints on spectral data
    (n, eta, lambda); the last asks for an integral c2(V_n).  Returns the F
    coefficient of c2(V_n), the fiber term of FMW's formula."""
    lam = Fraction(lam)
    if n % 2 == 0:
        if (lam - Fraction(1, 2)).denominator != 1:
            raise ValueError("spectral data invalid")
    else:
        if lam.denominator != 1:
            raise ValueError("spectral data invalid")
        diff = eta - s.c1
        if diff.torsion or not diff.is_integral() or any(c.numerator % 2 for c in diff.coeffs):
            raise ValueError("spectral data invalid")
    resid = eta - s.c1.scale(n)
    if not s.cone_position(resid).effective:
        raise ValueError("spectral data invalid: eta - n*c1 not effective")
    fiber = _spectral_fiber(s, n, lam, s.intersect(eta, resid))
    if fiber.denominator != 1:
        raise ValueError("spectral data invalid: non-integral Chern class")
    return fiber


def chern_extension(
    s: BaseSurface,
    p: int,
    q: int,
    d: DivisorX,
    c2u: FourClass,
    c2w: FourClass,
    c3u: Fraction = Fraction(0),
    c3w: Fraction = Fraction(0),
) -> ExtensionChern:
    """Chern classes of a two-block extension with twist D.

    c2(V) = -1/2 pq(p+q) D^2 + c2(U) + c2(W)
    c3(V) = 1/3 pq(p^2-q^2) D^3 + 2(q c2(U) - p c2(W)).D + c3(U) + c3(W)
    """
    if p < 0 or q < 0 or p + q < 2:
        raise ValueError("ranks must satisfy p,q >= 0 and p+q >= 2")
    d2 = divisor_square(s, d)
    d3 = triple_product(s, d, d, d)
    c2v = d2.scale(Fraction(-p * q * (p + q), 2)) + c2u + c2w
    mixed = c2u.scale(q) - c2w.scale(p)
    c3v = (
        Fraction(p * q * (p * p - q * q), 3) * d3
        + 2 * pair_four_two(s, mixed, d)
        + Fraction(c3u)
        + Fraction(c3w)
    )
    integral = (
        c2v.beta.is_integral()
        and c2v.fiber.denominator == 1
        and c3v.denominator == 1
    )
    return ExtensionChern(c2=c2v, c3=c3v, integral=integral)


def c2_spectral(s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction) -> FourClass:
    """c2 of a spectral cover bundle V_n whose data (eta, lambda) has already
    passed `check_spectral_data`, by FMW's formula
    c2 = eta sigma + (-(n^3-n)/24 c1^2 + 1/2 (lambda^2 - 1/4) n eta.(eta - n c1)) F."""
    return FourClass(eta, _spectral_fiber(s, n, lam, _eta_pairing(s, n, eta)))


def c3_spectral(s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction) -> Fraction:
    """c3 of a spectral cover bundle V_n by FMW's formula c3 = 2 lambda eta.(eta - n c1)."""
    return _spectral_c3(lam, _eta_pairing(s, n, eta))


def _eta_pairing(s: BaseSurface, n: int, eta: DivisorClass) -> Fraction:
    """eta.(eta - n c1), the pairing shared by c2(V_n) and c3(V_n)."""
    return s.intersect(eta, eta - s.c1.scale(n))


def _spectral_fiber(s: BaseSurface, n: int, lam: Fraction, pairing: Fraction) -> Fraction:
    """The F coefficient of c2(V_n) in FMW's formula, given pairing = eta.(eta - n c1)."""
    lam = Fraction(lam)
    return (
        -Fraction(n**3 - n, 24) * s.c1_sq
        + Fraction(1, 2) * (lam * lam - Fraction(1, 4)) * n * pairing
    )


def _spectral_c3(lam: Fraction, pairing: Fraction) -> Fraction:
    """c3(V_n) = 2 lambda eta.(eta - n c1), given pairing = eta.(eta - n c1)."""
    return 2 * Fraction(lam) * pairing


def bundle_chern(s: BaseSurface, bundle) -> ExtensionChern:
    """c2/c3 of the full rank-(n+1) extension V defined by the bundle spec."""
    n = bundle.n
    if isinstance(bundle, PullbackBundle):
        # pi^*E has no c3: E lives on the surface
        c2u, c3u = FourClass.fiber_class(s.rank, bundle.c2E), Fraction(0)
    elif isinstance(bundle, SpectralBundle):
        pairing = _eta_pairing(s, n, bundle.eta)
        c2u = FourClass(bundle.eta, _spectral_fiber(s, n, bundle.lam, pairing))
        c3u = _spectral_c3(bundle.lam, pairing)
    else:
        raise TypeError(f"unknown bundle spec {type(bundle)!r}")
    zero = FourClass.zero(s.rank)
    return chern_extension(s, n, 1, bundle.twist, c2u, zero, c3u)
