"""Tests for extension and spectral-cover Chern classes."""

import random
from fractions import Fraction

import pytest

from cybundle.bundles import (
    PullbackBundle,
    SpectralBundle,
    bundle_chern,
    c2_spectral,
    chern_extension,
    validate_bundle,
)
from cybundle.ring import DivisorX, FourClass, c2_tangent
from cybundle.surfaces import DivisorClass, make_base


def four(s, beta, fiber):
    return FourClass(DivisorClass(beta), Fraction(fiber))


# ---------------------------------------------------------------------------
# generic extensions


def test_extension_zero_twist():
    f0 = make_base("F0")
    d = DivisorX(0, DivisorClass.zero(2))
    c2u = four(f0, (1, 2), 5)
    c2w = four(f0, (0, -1), 7)
    out = chern_extension(f0, 2, 3, d, c2u, c2w, Fraction(4), Fraction(-1))
    assert out.c2 == c2u + c2w
    assert out.c3 == 3


def test_extension_assembles_so10_anomaly():
    f0 = make_base("F0")
    d = DivisorX(1, DivisorClass((-1, -1)))
    c2u = FourClass.fiber_class(2, 104)
    out = chern_extension(f0, 3, 1, d, c2u, FourClass.zero(2))
    assert out.c2 == c2_tangent(f0)
    assert out.integral


def test_extension_rank_one_pair_kills_c3_twist():
    f0 = make_base("F0")
    d = DivisorX(1, DivisorClass((1, 1)))  # D^3 = 8 - 24 + 12 != 0 is fine
    out = chern_extension(f0, 1, 1, d, FourClass.zero(2), FourClass.zero(2))
    assert out.c3 == 0  # p^2 - q^2 = 0


def test_extension_swap_symmetry():
    rng = random.Random(19)
    for kind in ("F0", "dP3"):
        s = make_base(kind)
        for _ in range(30):
            p, q = rng.randint(0, 4), rng.randint(0, 4)
            if p + q < 2:
                continue
            d = DivisorX(
                rng.randint(-3, 3),
                DivisorClass(tuple(rng.randint(-4, 4) for _ in range(s.rank))),
            )
            c2u = four(s, tuple(rng.randint(-3, 3) for _ in range(s.rank)), rng.randint(-9, 9))
            c2w = four(s, tuple(rng.randint(-3, 3) for _ in range(s.rank)), rng.randint(-9, 9))
            c3u, c3w = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
            a = chern_extension(s, p, q, d, c2u, c2w, c3u, c3w)
            neg = DivisorX(-d.x, -d.alpha)
            b = chern_extension(s, q, p, neg, c2w, c2u, c3w, c3u)
            assert a.c2 == b.c2
            assert a.c3 == b.c3


def test_extension_integrality_audit():
    rng = random.Random(29)
    s = make_base("dP2")
    for _ in range(60):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        d = DivisorX(
            rng.randint(-3, 3),
            DivisorClass(tuple(rng.randint(-4, 4) for _ in range(s.rank))),
        )
        c2u = four(s, tuple(rng.randint(-3, 3) for _ in range(s.rank)), rng.randint(-9, 9))
        c2w = four(s, tuple(rng.randint(-3, 3) for _ in range(s.rank)), rng.randint(-9, 9))
        out = chern_extension(s, p, q, d, c2u, c2w)
        assert out.integral


def test_extension_rejects_bad_ranks():
    f0 = make_base("F0")
    z = FourClass.zero(2)
    with pytest.raises(ValueError):
        chern_extension(f0, 1, 0, DivisorX(0, DivisorClass.zero(2)), z, z)


# ---------------------------------------------------------------------------
# spectral bundles


def test_c2_spectral_f0_example():
    f0 = make_base("F0")
    w = c2_spectral(f0, 2, f0.c1.scale(12), Fraction(3, 2))
    assert w.beta == DivisorClass((24, 24))
    assert w.fiber == 1918


def test_c2_spectral_vanishing_twist_term():
    # eta = n c1 kills the lambda-dependent term entirely
    dp0 = make_base("dP0")
    w = c2_spectral(dp0, 3, dp0.c1.scale(3), Fraction(1))
    assert w.fiber == -Fraction(3**3 - 3, 24) * 9 == -9


def _spectral(n, eta, lam):
    return SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, DivisorClass.zero(eta.rank)))


def test_c2_spectral_parity_rejection():
    f0 = make_base("F0")
    with pytest.raises(ValueError, match="spectral data invalid"):
        validate_bundle(f0, _spectral(2, f0.c1.scale(12), Fraction(1)))
    with pytest.raises(ValueError, match="spectral data invalid"):
        # n odd needs eta = c1 mod 2
        validate_bundle(f0, _spectral(3, DivisorClass((7, 8)), Fraction(1)))


def test_c2_spectral_irreducibility_rejection():
    f0 = make_base("F0")
    with pytest.raises(ValueError, match="spectral data invalid"):
        # eta - 2c1 = -c1 is not effective
        validate_bundle(f0, _spectral(2, f0.c1, Fraction(1, 2)))


def test_c2_spectral_integral_even_rank_even_lattice():
    # for even n on F0 (even intersection form) every parity-valid choice
    # assembles to an integer fiber, with no rejection
    f0 = make_base("F0")
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice((2, 4, 6))
        lam = Fraction(rng.randint(-3, 3)) + Fraction(1, 2)
        eta = f0.c1.scale(n) + DivisorClass(
            (rng.randint(0, 8), rng.randint(0, 8))
        )
        w = c2_spectral(f0, n, eta, lam)
        assert w.fiber.denominator == 1
        assert w.beta == eta


def test_c2_spectral_non_integral_fiber_rejected():
    # parity alone does not force integrality on odd lattices
    dp0 = make_base("dP0")
    with pytest.raises(ValueError, match="spectral data invalid: non-integral Chern class"):
        validate_bundle(dp0, _spectral(3, dp0.c1.scale(5), Fraction(1)))


# ---------------------------------------------------------------------------
# bundle specs and validation


def test_validate_rank_floor():
    f0 = make_base("F0")
    b = PullbackBundle(n=1, c2E=0, twist=DivisorX(0, DivisorClass.zero(2)))
    with pytest.raises(ValueError, match="n must be >= 2"):
        validate_bundle(f0, b)


def test_validate_half_integral_twist():
    f0 = make_base("F0")
    half = DivisorX(1, DivisorClass((Fraction(-1, 2), Fraction(-1, 2))))
    validate_bundle(f0, PullbackBundle(n=3, c2E=104, twist=half))
    quarter = DivisorX(1, DivisorClass((Fraction(1, 4), 0)))
    with pytest.raises(ValueError, match="integral or half-integral"):
        validate_bundle(f0, PullbackBundle(n=3, c2E=104, twist=quarter))


def test_validate_spectral_requires_x_zero():
    f0 = make_base("F0")
    b = SpectralBundle(
        n=2, eta=f0.c1.scale(12), lam=Fraction(3, 2), twist=DivisorX(1, DivisorClass((1, -11)))
    )
    with pytest.raises(ValueError, match="x = 0"):
        validate_bundle(f0, b)


def test_bundle_chern_pullback_matches_extension():
    f0 = make_base("F0")
    twist = DivisorX(1, DivisorClass((-1, -1)))
    b = PullbackBundle(n=3, c2E=104, twist=twist)
    direct = chern_extension(
        f0, 3, 1, twist, FourClass.fiber_class(2, 104), FourClass.zero(2)
    )
    assert bundle_chern(f0, b).c2 == direct.c2
