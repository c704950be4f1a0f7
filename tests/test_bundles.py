"""Tests for extension and spectral-cover Chern classes."""

import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from cybundle.bundles import (
    PullbackBundle,
    SpectralBundle,
    bundle_chern,
    c2_spectral,
    c3_spectral,
    check_spectral_data,
    check_spectral_parts,
    chern_extension,
    validate_bundle,
)
from cybundle.ring import DivisorX, FourClass, c2_tangent
from cybundle.search import SearchConfig, run_search
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


def _half_integral_twists(s, rng, count):
    """`count` classes alpha with 2 alpha integral and alpha not integral."""
    out = []
    while len(out) < count:
        coeffs = tuple(Fraction(rng.randint(-7, 7), 2) for _ in range(s.rank))
        torsion = rng.randint(0, 1) if s.is_enriques else 0
        alpha = DivisorClass(coeffs, torsion)
        if not alpha.is_integral():
            out.append(alpha)
    return out


def _spectral_data(s, n):
    """Valid (eta, lambda) pairs. eta is 12, 13 or 15 c1 (the spectral parity
    rule asks eta = c1 mod 2 for n odd), with or without (2, 3, 0, ...)
    added, which makes eta - n c1 effective on Enriques."""
    shift = DivisorClass((2, 3) + (0,) * (s.rank - 2))
    out = []
    for eta in [s.c1.scale(k) + extra for k in (12, 13, 15) for extra in (DivisorClass.zero(s.rank), shift)]:
        for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2)):
            try:
                check_spectral_data(s, n, eta, lam)
            except ValueError:
                continue
            out.append((eta, lam))
    return out


@pytest.mark.parametrize("kind", ["F0", "dP1", "dP5", "dP8", "enriques"])
def test_half_integral_twist_validity_matches_chern_integrality(kind):
    # differential test: validate_bundle's closed-form rule against the
    # integrality of the assembled c2(V) and c3(V)
    s = make_base(kind)
    rng = random.Random(f"half-integral {kind}")
    counts = {True: 0, False: 0}
    for n in (2, 3, 4, 5):
        bundles = [
            PullbackBundle(n=n, c2E=rng.randint(0, 120), twist=DivisorX(rng.randint(-3, 3), alpha))
            for alpha in _half_integral_twists(s, rng, 30)
        ]
        for eta, lam in _spectral_data(s, n):
            bundles += [
                SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha))
                for alpha in _half_integral_twists(s, rng, 6)
            ]
        for b in bundles:
            try:
                validate_bundle(s, b)
                valid = True
            except ValueError as exc:
                assert str(exc) == "twist invalid: non-integral Chern class"
                valid = False
            assert valid == bundle_chern(s, b).integral, b
            counts[valid] += 1
    assert counts[True] >= 20 and counts[False] >= 20, counts


@pytest.mark.parametrize("kind", ["F0", "dP1", "dP5", "dP8", "enriques"])
def test_validate_bundle_returns_the_fiber_it_checked(kind):
    # the scan builds its spectral table entry from what validate_bundle
    # returns: the fiber term of c2(V_n) for spectral data, None for pullback
    s = make_base(kind)
    zero = DivisorX(0, DivisorClass.zero(s.rank))
    checked = 0
    for n in (2, 3, 4, 5):
        for eta, lam in _spectral_data(s, n):
            bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=zero)
            assert validate_bundle(s, bundle) == c2_spectral(s, n, eta, lam).fiber
            checked += 1
        assert validate_bundle(s, PullbackBundle(n=n, c2E=7, twist=zero)) is None
    assert checked


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


def test_bundle_chern_spectral_c3_includes_fmw_term():
    # the paper's spectral model: eta.(eta - 2 c1) = 960, so
    # c3(V_n) = 2 (3/2) 960 = 2880, added to the extension's -480
    f0 = make_base("F0")
    b = SpectralBundle(
        n=2, eta=f0.c1.scale(12), lam=Fraction(3, 2), twist=DivisorX(0, DivisorClass((1, -11)))
    )
    assert c3_spectral(f0, 2, b.eta, b.lam) == 2880
    assert bundle_chern(f0, b).c3 == 2400


# ---------------------------------------------------------------------------
# the integer spectral path against the Fraction path it replaced

BASES = ["F0"] + [f"dP{k}" for k in range(9)] + ["enriques"]


def _fraction_check_spectral_data(s, n, eta, lam):
    """The Fraction body of `check_spectral_data`: an eta of the wrong rank
    refused first, then class arithmetic, a full cone query and `intersect`."""
    if eta.rank != s.rank:
        raise ValueError("rank mismatch")
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
    fiber = _fraction_spectral_fiber(s, n, lam, s.intersect(eta, resid))
    if fiber.denominator != 1:
        raise ValueError("spectral data invalid: non-integral Chern class")
    return fiber


def _fraction_spectral_fiber(s, n, lam, pairing):
    """The Fraction body of `_spectral_fiber`, given pairing = eta.(eta - n c1)."""
    lam = Fraction(lam)
    return (
        -Fraction(n**3 - n, 24) * s.c1_sq
        + Fraction(1, 2) * (lam * lam - Fraction(1, 4)) * n * pairing
    )


def _raised(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exact type and message are compared
        return type(exc), str(exc)


def _spectral_draw(s, rng):
    """(n, eta, lambda), most of them past the parity rule: eta near k c1 with
    k around n, integral or over a den of 2 or 3 (for odd n, half the time
    c1 plus an even class); on Enriques (c1 pure torsion) in Gamma^{1,1},
    at times with an E8 part, and with either torsion bit; now and then of
    the wrong rank.  lambda has a denominator of 1, 2 or 3."""
    n = rng.randint(2, 6)
    if rng.random() < 0.6:
        lam = Fraction(rng.randint(-7, 7)) + Fraction(1 - n % 2, 2)
    else:
        lam = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
    odd_rule = n % 2 == 1 and rng.random() < 0.5
    den = 1 if odd_rule else rng.choice((1, 2, 3))
    k = n + rng.randint(-1, 6)
    torsion = rng.randint(0, 1) if s.is_enriques else 0
    if s.is_enriques:
        free = [rng.randint(-1, 8 * den) for _ in range(2)]
        free += [rng.randint(-1, 1) if rng.random() < 0.2 else 0 for _ in range(8)]
    else:
        free = [k * c * den + rng.randint(-2 * den, 4 * den) for c in s.c1_ints]
    if odd_rule:
        free = [c + 2 * (f // 2) for c, f in zip(s.c1_ints, free)]
    coeffs = [Fraction(f, den) for f in free]
    if rng.random() < 0.03:
        coeffs.append(Fraction(1))
    return n, DivisorClass(tuple(coeffs), torsion), lam


@pytest.mark.parametrize("kind", BASES)
def test_spectral_data_matches_fraction_path(kind):
    # differential: the integer check_spectral_data, validate_bundle on the
    # zero twist (which refuses an eta of the wrong rank before it reads
    # lambda, too) and c2/c3 of valid data, against the Fraction bodies they
    # replaced, fiber or exception alike
    s = make_base(kind)
    zero = DivisorX(0, DivisorClass.zero(s.rank))
    rng = random.Random(f"spectral data {kind}")
    seen = Counter()
    for _ in range(1500):
        n, eta, lam = _spectral_draw(s, rng)
        got = _raised(check_spectral_data, s, n, eta, lam)
        want = _raised(_fraction_check_spectral_data, s, n, eta, lam)
        assert got == want and type(got) is type(want), (n, eta, lam)
        assert _raised(validate_bundle, s, SpectralBundle(n=n, eta=eta, lam=lam, twist=zero)) == want
        seen[want[1] if isinstance(want, tuple) else "valid"] += 1
        if isinstance(want, Fraction):
            pairing = s.intersect(eta, eta - s.c1.scale(n))
            assert c2_spectral(s, n, eta, lam) == FourClass(eta, _fraction_spectral_fiber(s, n, lam, pairing))
            assert c3_spectral(s, n, eta, lam) == 2 * lam * pairing
            if eta.is_integral():
                seen["valid, integral eta"] += 1
            else:
                seen["valid, rational eta"] += 1
    assert {
        "valid",
        "valid, integral eta",
        "spectral data invalid",
        "spectral data invalid: eta - n*c1 not effective",
        "rank mismatch",
    } <= set(seen), seen
    # odd lattices reject non-integral fibers.  A rational eta over 2 or 3
    # passes only with c1^2 even: then even n and lambda = 1/2 leave the
    # fiber -(n^3-n)/24 c1^2, which is integral for n = 4 (or for
    # c1^2 = 0 mod 4); with c1^2 odd it is never integral
    if kind.startswith("dP"):
        assert "spectral data invalid: non-integral Chern class" in seen, seen
    assert ("valid, rational eta" in seen) == (s.c1_sq % 2 == 0), seen


def _parts_draw(s, rng):
    """(n, eta, lambda): lambda in Z or Z + 1/2, eta = n c1 plus a shift of
    either sign (on Enriques, where c1 is pure torsion, a Gamma^{1,1} class
    of either sign, at times with an E8 part, and either torsion bit); for
    odd n, half the time eta = c1 mod 2; a fifth of them over a den of 2."""
    n = rng.randint(2, 5)
    lam = Fraction(rng.randint(-5, 5)) + Fraction(rng.randint(0, 1), 2)
    side, den = rng.choice((-1, 1)), 2 if rng.random() < 0.2 else 1
    torsion = rng.randint(0, 1) if s.is_enriques else 0
    if s.is_enriques:
        free = [side * rng.randint(0, 6 * den) for _ in range(2)]
        free += [rng.randint(-1, 1) if rng.random() < 0.2 else 0 for _ in range(8)]
    else:
        free = [n * c * den + side * rng.randint(0, 3 * den) for c in s.c1_ints]
    if n % 2 and den == 1 and rng.random() < 0.5:
        free = [c + 2 * (f // 2) for c, f in zip(s.c1_ints, free)]
    return n, DivisorClass(tuple(Fraction(f, den) for f in free), torsion), lam


@pytest.mark.parametrize("kind", BASES)
def test_spectral_parts_rule_matches_validate_bundle(kind):
    # differential: the integer rule a scan runs on the parts of eta,
    # against validate_bundle on the zero-twist bundle, check_spectral_data
    # and the Fraction body they replaced: the same verdict, the same
    # message and the same fiber, as an int
    s = make_base(kind)
    zero = DivisorX(0, DivisorClass.zero(s.rank))
    rng = random.Random(f"spectral parts {kind}")
    seen = Counter()
    for _ in range(400):
        n, eta, lam = _parts_draw(s, rng)
        got = _raised(check_spectral_parts, s, n, lam, s.integer_parts(eta), eta.torsion)
        via_bundle = _raised(validate_bundle, s, SpectralBundle(n=n, eta=eta, lam=lam, twist=zero))
        via_data = _raised(check_spectral_data, s, n, eta, lam)
        want = _raised(_fraction_check_spectral_data, s, n, eta, lam)
        assert got == via_bundle == via_data == want, (n, eta, lam)
        assert type(via_bundle) is type(via_data) is type(want)
        if isinstance(want, Fraction):
            assert type(got) is int
            seen["valid", lam.denominator, eta.torsion] += 1
        else:
            seen[want[1]] += 1
    assert {"spectral data invalid", "spectral data invalid: eta - n*c1 not effective"} <= set(seen), seen
    # (den of lambda, torsion bit) of the valid draws: lambda of both
    # parities passes where FMW's fiber can be integral
    valid = {key[1:] for key in seen if key[0] == "valid"}
    if s.is_enriques:
        # odd n asks eta - c1 to be torsion-free, so eta to carry the bit
        assert valid == {(1, 1), (2, 0), (2, 1)}, seen
    elif s.c1_sq % 2:
        # odd c1^2 leaves the fiber of even n outside Z
        assert valid == {(1, 0)} and "spectral data invalid: non-integral Chern class" in seen, seen
    else:
        assert valid == {(1, 0), (2, 0)}, seen


@pytest.mark.parametrize("kind", BASES)
def test_spectral_scan_validity_matches_validate_bundle(kind):
    # a scan validates each (n, eta, lambda) of its eta box from the ints
    # of eta: every record's validity verdict is that of validate_bundle on
    # the zero twist (the box's one alpha), with eta on both sides of n c1
    # and lambda of both parities; n = 1 fails the rank rule first
    s = make_base(kind)
    center = [0] * s.rank if s.is_enriques else [3 * c for c in s.c1_ints]
    eta_box = [[center[0] - 3, center[0] + 2]] + [[c - 1, c + 1] for c in center[1:2]]
    eta_box += [[c, c] for c in center[2:]]
    pol = {"H_values": [[5, 6]]} if s.is_enriques else {"h_values": ["1"]}
    config = SearchConfig.from_json({
        "base": kind,
        "mode": "spectral",
        "n_range": [1, 3],
        "alpha_box": [[0, 0]],
        "eta_box": eta_box,
        "lambda_values": ["0", "1/2", "-1", "3/2"],
        **pol,
    })
    out = io.StringIO()
    run_search(config, out=out)
    zero = DivisorX(0, DivisorClass.zero(s.rank))
    seen = Counter()
    for line in out.getvalue().splitlines()[:-1]:
        record = json.loads(line)
        params = record["params"]
        eta = DivisorClass(tuple(Fraction(c) for c in params["eta"]))
        bundle = SpectralBundle(n=params["n"], eta=eta, lam=Fraction(params["lambda"]), twist=zero)
        want = _raised(validate_bundle, s, bundle)
        if bundle.n >= 2:
            assert want == _raised(_fraction_check_spectral_data, s, bundle.n, eta, bundle.lam)
        error = None if isinstance(want, Fraction) else want[1]
        assert record["verdicts"]["validity"] == (
            {"passed": True} if error is None else {"passed": False, "error": error}
        ), params
        seen[error] += 1
    assert {None, "bundle rank n must be >= 2", "spectral data invalid"} <= set(seen), seen
    assert "spectral data invalid: eta - n*c1 not effective" in seen or kind == "enriques", seen
