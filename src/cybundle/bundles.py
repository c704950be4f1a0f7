"""Chern-class arithmetic for extension bundles and spectral cover bundles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import DivisorX, FourClass, divisor_square, pair_four_two, triple_product
from .surfaces import BaseSurface, DivisorClass, dot


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


def validate_bundle(s: BaseSurface, bundle) -> Fraction | None:
    """Raise ValueError if the bundle data violates its invariants.

    Returns what the checks computed on the way: for a spectral bundle the
    fiber term of c2(V_n) that `check_spectral_data` returns, for a
    pullback bundle None.  The checks are `validate_parts`.
    """
    fiber = validate_parts(s, bundle)
    return None if fiber is None else Fraction(fiber)


def validate_parts(s: BaseSurface, bundle, eta: tuple | None = None) -> int | None:
    """The checks of `validate_bundle`, the fiber term as an int.  `eta`:
    the integer parts (nums, dual, den) of a spectral bundle's eta where the
    caller has them (`BaseSurface.integer_parts`), else None."""
    check_rank(bundle.n)
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
        fiber = None
    else:
        if d.x != 0:
            raise ValueError("spectral extensions use twists D = pi^*alpha (x = 0)")
        fiber = check_spectral_parts(s, bundle.n, bundle.lam, eta or bundle.eta, bundle.eta.torsion)
    # with 2D integral and x in Z, n(n+1)/2 alpha^2 is the one term of
    # c2(V) = c2(U) - n(n+1)/2 D^2 that can leave Z, so n(n+1) alpha^2 must
    # be even; c3(V) is then integral too
    if half_integral and bundle.n * (bundle.n + 1) * s.square(d.alpha) % 2 != 0:
        raise ValueError("twist invalid: non-integral Chern class")
    return fiber


def check_rank(n: int) -> None:
    """The rank rule of `validate_bundle`: V = O(nD) + U(-D) needs n >= 2."""
    if n < 2:
        raise ValueError("bundle rank n must be >= 2")


def check_spectral_data(s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction) -> Fraction:
    """Parity, irreducibility and integrality constraints on spectral data
    (n, eta, lambda), the last asking for an integral c2(V_n): raises
    ValueError, or returns the F coefficient of c2(V_n), the fiber term of
    FMW's formula.  The rule is `check_spectral_parts`."""
    return Fraction(check_spectral_parts(s, n, Fraction(lam), eta, eta.torsion))


def check_spectral_parts(s: BaseSurface, n: int, lam: Fraction, eta, torsion: int) -> int:
    """The spectral data rule of `check_spectral_data`, in integers: the
    fiber term as an int.  `eta` is the integer parts (nums, dual, den) of
    the class, eta = nums/den with dual = Gram.nums, and `torsion` its
    torsion bit; or the class itself, whose parts are taken once lambda has
    passed (a class of the wrong rank is refused there)."""
    # lambda is in Z + 1/2 for n even and in Z for n odd
    if lam.denominator != (1 if n % 2 else 2):
        raise ValueError("spectral data invalid")
    nums, dual, den = s.integer_parts(eta) if isinstance(eta, DivisorClass) else eta
    # n odd: eta - c1 must be integral, torsion-free and even
    if n % 2 and (den != 1 or torsion != s.c1.torsion or any((a - c) % 2 for a, c in zip(nums, s.c1_ints))):
        raise ValueError("spectral data invalid")
    resid = _resid(s, n, nums, den)
    if not s.effective_parts(resid, _resid_dual(s, n, dual, den)):
        raise ValueError("spectral data invalid: eta - n*c1 not effective")
    fiber, rest = divmod(*_spectral_fiber(s, n, lam, dot(dual, resid), den * den))
    if rest:
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
    return FourClass(eta, Fraction(*_spectral_fiber(s, n, Fraction(lam), *_eta_pairing(s, n, eta))))


def c3_spectral(s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction) -> Fraction:
    """c3 of a spectral cover bundle V_n by FMW's formula c3 = 2 lambda eta.(eta - n c1)."""
    return 2 * Fraction(lam) * Fraction(*_eta_pairing(s, n, eta))


def _resid(s: BaseSurface, n: int, nums, den: int) -> list:
    """den * (eta - n c1), given nums = den * eta (c1 is integral)."""
    return [a - n * den * c for a, c in zip(nums, s.c1_ints)]


def _resid_dual(s: BaseSurface, n: int, dual, den: int) -> list:
    """Gram.(den (eta - n c1)) = dual - n den Gram.c1, given dual = Gram.nums."""
    return [d - n * den * g for d, g in zip(dual, s._c1_dual)]


def _eta_pairing(s: BaseSurface, n: int, eta: DivisorClass) -> tuple:
    """(P, D) with eta.(eta - n c1) = P/D, the pairing shared by c2(V_n) and c3(V_n)."""
    nums, dual, den = s.integer_parts(eta)
    return dot(dual, _resid(s, n, nums, den)), den * den


def _spectral_fiber(s: BaseSurface, n: int, lam: Fraction, pairing: int, den: int) -> tuple:
    """The F coefficient of c2(V_n) in FMW's formula, given the Fraction lam
    = p/q and eta.(eta - n c1) = pairing/den, as the pair of ints
    (-(n^3-n) q^2 c1^2 den + 3 (4p^2 - q^2) n pairing, 24 q^2 den)."""
    p, q = lam.numerator, lam.denominator
    q2 = q * q
    return -(n**3 - n) * q2 * s.c1_sq * den + 3 * (4 * p * p - q2) * n * pairing, 24 * q2 * den


def bundle_chern(s: BaseSurface, bundle) -> ExtensionChern:
    """c2/c3 of the full rank-(n+1) extension V defined by the bundle spec."""
    n = bundle.n
    if isinstance(bundle, PullbackBundle):
        # pi^*E has no c3: E lives on the surface
        c2u, c3u = FourClass.fiber_class(s.rank, bundle.c2E), Fraction(0)
    elif isinstance(bundle, SpectralBundle):
        c2u = c2_spectral(s, n, bundle.eta, bundle.lam)
        c3u = c3_spectral(s, n, bundle.eta, bundle.lam)
    else:
        raise TypeError(f"unknown bundle spec {type(bundle)!r}")
    zero = FourClass.zero(s.rank)
    return chern_extension(s, n, 1, bundle.twist, c2u, zero, c3u)
