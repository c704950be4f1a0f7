"""Tests for the anomaly class [W] = c2(X) - c2(V) and the [W]=0 solvers."""

import dataclasses
import random
from fractions import Fraction

import pytest

from cybundle.anomaly import (
    anomaly_class,
    decompose_w,
    solve_alpha_zero,
    solve_c2E_zero,
    SpectralAfReport,
    spectral_af,
)
from cybundle.bundles import PullbackBundle, SpectralBundle, bundle_chern
from cybundle.ring import DivisorX, FourClass, c2_tangent
from cybundle.surfaces import DivisorClass, make_base


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


# ---------------------------------------------------------------------------
# worked examples


def test_so10_model():
    f0 = make_base("F0")
    b = PullbackBundle(n=3, c2E=104, twist=DivisorX(1, DivisorClass((-1, -1))))
    out = anomaly_class(f0, b)
    assert out.wB.is_zero() and out.af == 0
    assert out.W_zero and out.W_effective


def test_e6_model():
    f0 = make_base("F0")
    b = PullbackBundle(n=2, c2E=92, twist=DivisorX(2, DivisorClass((0, 0))))
    out = anomaly_class(f0, b)
    assert out.W_zero


def test_enriques_x_zero_af_formula():
    enr = make_base("enriques")
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 5)
        alpha = pad((rng.randint(-4, 4), rng.randint(-4, 4)), 10)
        c2e = rng.randint(0, 30)
        b = PullbackBundle(n=n, c2E=c2e, twist=DivisorX(0, alpha))
        out = anomaly_class(enr, b)
        assert out.wB.is_zero()  # 12 c1 is trivial 2-torsion
        assert out.af == 12 + Fraction(n * (n + 1), 2) * enr.square(alpha) - c2e


def test_effectivity_conventions():
    enr = make_base("enriques")
    # [W] = af F with af >= 0 is effective; pure torsion wB is not
    assert decompose_w(enr, FourClass(DivisorClass.zero(10), Fraction(3))).W_effective
    torsion = FourClass(DivisorClass((0,) * 10, torsion=1), Fraction(3))
    assert decompose_w(enr, torsion).W_effective is False
    negative = FourClass(DivisorClass.zero(10), Fraction(-1))
    assert decompose_w(enr, negative).W_effective is False


# ---------------------------------------------------------------------------
# reconstruction and round trips


def test_reconstruction_identity():
    rng = random.Random(73)
    for kind in ("F0", "dP2", "enriques"):
        s = make_base(kind)
        for _ in range(30):
            n = rng.randint(2, 4)
            x = rng.randint(-3, 3)
            alpha = DivisorClass(tuple(rng.randint(-3, 3) for _ in range(s.rank)))
            b = PullbackBundle(n=n, c2E=rng.randint(0, 40), twist=DivisorX(x, alpha))
            out = anomaly_class(s, b)
            c2v = bundle_chern(s, b).c2
            total = FourClass(out.wB, out.af) + c2v
            c2x = c2_tangent(s)
            assert total.fiber == c2x.fiber
            assert total.beta.coeffs == c2x.beta.coeffs
            assert total.beta.torsion == c2x.beta.torsion


def test_solve_alpha_zero_examples():
    f0 = make_base("F0")
    sol = solve_alpha_zero(f0, 3, 1)
    assert sol.coefficient == Fraction(-1, 2)
    assert sol.alpha == DivisorClass((-1, -1)) and sol.integral
    sol = solve_alpha_zero(f0, 2, 2)
    assert sol.alpha.is_zero() and sol.integral
    # n=1, x=1: alpha = -11 c1 / 2, integral on F0 but not on dP0
    assert solve_alpha_zero(f0, 1, 1).alpha == DivisorClass((-11, -11))
    assert solve_alpha_zero(make_base("dP0"), 1, 1).integral is False


def test_solve_alpha_zero_rejections():
    with pytest.raises(ValueError):
        solve_alpha_zero(make_base("enriques"), 2, 1)
    with pytest.raises(ValueError):
        solve_alpha_zero(make_base("F0"), 2, 0)


def test_solve_c2E_zero_examples():
    f0 = make_base("F0")
    assert solve_c2E_zero(f0, 3, DivisorClass((-1, -1))) == 104
    assert solve_c2E_zero(f0, 2, DivisorClass((0, 0))) == 92
    enr = make_base("enriques")
    assert solve_c2E_zero(enr, 4, DivisorClass.zero(10)) == 12


def test_round_trip_w_zero():
    # solve_alpha_zero + solve_c2E_zero reproduce [W]=0 whenever the data
    # is admissible (alpha at worst half-integral, c2E an integer)
    checked = 0
    for kind in ("F0", "dP0", "dP1", "dP3", "dP5", "dP8"):
        s = make_base(kind)
        for n in range(2, 6):
            for x in range(1, 4):
                sol = solve_alpha_zero(s, n, x)
                two = sol.alpha.scale(2)
                if not two.is_integral():
                    continue
                c2e = solve_c2E_zero(s, n, sol.alpha)
                if c2e.denominator != 1:
                    continue
                b = PullbackBundle(n=n, c2E=int(c2e), twist=DivisorX(x, sol.alpha))
                out = anomaly_class(s, b)
                assert out.W_zero
                checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# spectral af report


def _spectral_bundle(eta):
    return SpectralBundle(n=2, eta=eta, lam=Fraction(3, 2), twist=DivisorX(0, DivisorClass((1, -11))))


def test_spectral_af_requires_canonical_eta():
    f0 = make_base("F0")
    b = _spectral_bundle(f0.c1.scale(11))
    with pytest.raises(ValueError, match="display assumes eta=12c1"):
        spectral_af(f0, b, anomaly_class(f0, b))


def test_spectral_af_reports_both_values():
    f0 = make_base("F0")
    b = _spectral_bundle(f0.c1.scale(12))
    rep = spectral_af(f0, b, anomaly_class(f0, b))
    assert rep.wB.is_zero()
    assert rep.af_direct == -1892
    assert rep.af_displayed == -132
    assert rep.agree is False


def _fraction_spectral_af(s, bundle, outcome):
    """The Fraction body of `spectral_af`: eta = 12 c1 as a class equality,
    af_displayed in Fraction arithmetic."""
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


def _raised(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exact type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["F0", "dP0", "dP3", "dP8", "enriques"])
def test_spectral_af_matches_fraction_path(kind):
    # differential: the integer spectral_af against the Fraction body it
    # replaced, over random n, lambda and alpha (rational too), on eta = 12 c1;
    # an eta other than 12 c1 and a twist of the wrong rank are refused alike
    s = make_base(kind)
    rng = random.Random(f"spectral af {kind}")
    twelve_c1 = tuple(12 * c for c in s.c1_ints)
    other_etas = [pad(twelve_c1[:-1], s.rank), pad(twelve_c1, s.rank + 1)]
    if s.is_enriques:
        other_etas.append(DivisorClass(twelve_c1, 1))
    agrees, errors = set(), set()
    for i in range(400):
        n = rng.randint(2, 6)
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        den = rng.choice((1, 2, 3, 6))
        alpha = DivisorClass(
            tuple(Fraction(rng.randint(-12, 12), den) for _ in range(s.rank)),
            rng.randint(0, 1) if s.is_enriques else 0,
        )
        bundle = SpectralBundle(n=n, eta=DivisorClass(twelve_c1), lam=lam, twist=DivisorX(0, alpha))
        outcome = anomaly_class(s, bundle)
        if i % 8 == 0:
            bundle = dataclasses.replace(bundle, eta=rng.choice(other_etas))
        elif i % 8 == 1:
            bundle = dataclasses.replace(bundle, twist=DivisorX(0, pad(alpha.coeffs, s.rank + 1)))
        got = _raised(spectral_af, s, bundle, outcome)
        assert got == _raised(_fraction_spectral_af, s, bundle, outcome), (n, lam, alpha, bundle.eta)
        if isinstance(got, SpectralAfReport):
            assert type(got.af_displayed) is Fraction
            agrees.add(got.agree)
        else:
            errors.add(got)
    assert errors == {(ValueError, "display assumes eta=12c1"), (ValueError, "rank mismatch")}
    # on Enriques c1^2 = 0 and the fiber term vanishes: the readings agree
    assert agrees == {True} if s.c1_sq == 0 else False in agrees
