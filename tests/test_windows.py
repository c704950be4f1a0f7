"""Tests for the exact stability windows."""

import random
from fractions import Fraction

import pytest

from cybundle.surfaces import DivisorClass, make_base
from cybundle.windows import (
    delpezzo_closed_form,
    enriques_closed_form,
    sign_necessity,
    spectral_stability_check,
    window_delpezzo,
    window_enriques,
)


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


# independent raw-inequality oracles, transcribed from the proof displays


def enriques_raw_ok(n, x, a, hsq, z):
    z = Fraction(z)
    return (
        z > 0
        and n * (x * hsq + 2 * z * a) - 2 * z < 0
        and n * (x * hsq + 2 * z * a) - hsq < 0
        and x * hsq + 2 * z * a > 0
    )


def delpezzo_raw_ok(n, x, a, c1sq, h, u):
    u, h = Fraction(u), Fraction(h)
    hsq = h * h
    return (
        0 < u < hsq
        and n * x * hsq * c1sq + (n * a - 1 - n * x * c1sq) * u < 0
        and (n * x - 1) * hsq * c1sq + (n * a + c1sq - n * x * c1sq) * u < 0
        and x * hsq * c1sq + (a - x * c1sq) * u > 0
    )


def test_sign_necessity():
    assert sign_necessity(1, -2) is True
    assert sign_necessity(-1, 1) is True
    assert sign_necessity(1, 1) is False
    assert sign_necessity(2, 0) is False


# ---------------------------------------------------------------------------
# Enriques windows (z variable)


def test_window_enriques_case_i():
    w = window_enriques(2, 1, -2, 2)
    assert (w.lower, w.upper) == (Fraction(2, 5), Fraction(1, 2))
    assert w.nonempty


def test_window_enriques_case_ii():
    w = window_enriques(2, -1, 2, 2)
    assert (w.lower, w.upper) == (Fraction(1, 2), Fraction(2, 3))
    assert w.nonempty


def test_window_enriques_x_zero_obstruction():
    w = window_enriques(2, 0, 1, 2)
    assert not w.nonempty
    assert "na>=1 obstruction" in w.binding


def test_window_midpoint_and_endpoints():
    for n, x, a, hsq in ((2, 1, -2, 2), (2, -1, 2, 2), (3, 2, -5, 4), (4, -1, 3, 6)):
        w = window_enriques(n, x, a, hsq)
        if not w.nonempty:
            continue
        assert enriques_raw_ok(n, x, a, hsq, (w.lower + w.upper) / 2)
        # endpoints fail (strict inequalities become tight)
        assert not enriques_raw_ok(n, x, a, hsq, w.lower)
        assert not enriques_raw_ok(n, x, a, hsq, w.upper)


def test_window_enriques_sampling():
    rng = random.Random(41)
    w = window_enriques(2, 1, -2, 2)
    span = w.upper - w.lower
    for _ in range(100):
        t = w.lower + span * Fraction(rng.randint(1, 999), 1000)
        assert enriques_raw_ok(2, 1, -2, 2, t)
    for _ in range(50):
        below = w.lower - span * Fraction(rng.randint(1, 999), 1000)
        above = w.upper + span * Fraction(rng.randint(1, 999), 1000)
        assert not enriques_raw_ok(2, 1, -2, 2, below)
        assert not enriques_raw_ok(2, 1, -2, 2, above)


def sweep_params():
    for n in range(1, 7):
        for x in range(-5, 6):
            for a in range(-8, 9):
                if x == 0 or a == 0 or x * a > 0 or abs(x) >= abs(a):
                    continue
                yield n, x, a


def test_window_enriques_matches_closed_form():
    for n, x, a in sweep_params():
        for hsq in (2, 4, 6, 8, 10, 12):
            w = window_enriques(n, x, a, hsq)
            lo, hi = enriques_closed_form(n, x, a, hsq)
            assert w.nonempty == (lo < hi)
            if w.nonempty:
                assert (w.lower, w.upper) == (lo, hi)


def test_window_enriques_nonempty_implies_sign():
    for n, x, a in sweep_params():
        w = window_enriques(n, x, a, 4)
        if w.nonempty:
            assert sign_necessity(x, a)


def test_window_enriques_monotone_in_n():
    for _, x, a in sweep_params():
        prev = None
        for n in range(1, 7):
            w = window_enriques(n, x, a, 6)
            cur = (w.lower, w.upper) if w.nonempty else None
            if prev is not None and cur is not None:
                assert prev[0] <= cur[0] and cur[1] <= prev[1]
            if prev is None and cur is not None and n > 1:
                pytest.fail("window reappeared when n grew")
            prev = cur


# ---------------------------------------------------------------------------
# -K-ample windows (u variable)


def test_window_delpezzo_case_i():
    w = window_delpezzo(2, 1, -2, 8, 1)
    assert (w.lower, w.upper) == (Fraction(16, 21), Fraction(4, 5))
    assert w.nonempty
    assert w.z_interval_approx is not None


def test_window_delpezzo_case_ii():
    w = window_delpezzo(2, -1, 2, 8, 1)
    assert (w.lower, w.upper) == (Fraction(4, 5), Fraction(16, 19))
    assert w.nonempty


def test_window_delpezzo_x_zero():
    w = window_delpezzo(2, 0, 1, 8, 1)
    assert not w.nonempty
    assert "(na-1)(h^2-zeta^2)<0 impossible" in w.binding


def test_window_delpezzo_sampling():
    rng = random.Random(43)
    w = window_delpezzo(2, 1, -2, 8, 1)
    span = w.upper - w.lower
    for _ in range(100):
        u = w.lower + span * Fraction(rng.randint(1, 999), 1000)
        assert delpezzo_raw_ok(2, 1, -2, 8, 1, u)
    assert not delpezzo_raw_ok(2, 1, -2, 8, 1, w.lower)
    assert not delpezzo_raw_ok(2, 1, -2, 8, 1, w.upper)


def test_window_delpezzo_matches_closed_form():
    for n, x, a in sweep_params():
        for c1sq in (1, 8, 9):
            for h in (1, 2):
                w = window_delpezzo(n, x, a, c1sq, h)
                lo, hi = delpezzo_closed_form(n, x, a, c1sq, h)
                lo = max(lo, Fraction(0))
                hi = min(hi, Fraction(h * h))
                assert w.nonempty == (lo < hi)
                if w.nonempty:
                    assert (w.lower, w.upper) == (lo, hi)


def test_window_past_float_range_keeps_exact_bounds():
    # the exact endpoints stay; only the float z approximation is left out
    big = Fraction(10**160)
    w, small = window_delpezzo(3, 1, -4, 8, big), window_delpezzo(3, 1, -4, 8, 1)
    assert w.nonempty and w.z_interval_approx is None
    assert (w.lower, w.upper) == (small.lower * big**2, small.upper * big**2)
    assert window_enriques(2, 1, -(10**310), 2 * 10**620).z_interval_approx is None
    assert window_delpezzo(3, 1, -4, 8, 10**150).z_interval_approx is not None


def test_window_delpezzo_contained_in_domain():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(1, 5)
        x = rng.choice((-3, -2, -1, 1, 2, 3))
        a = rng.randint(-8, 8)
        h = rng.randint(1, 3)
        w = window_delpezzo(n, x, a, 8, h)
        if w.nonempty:
            assert 0 <= w.lower < w.upper <= h * h


# ---------------------------------------------------------------------------
# spectral stability


def test_spectral_stability_f0_example():
    f0 = make_base("F0")
    v = spectral_stability_check(f0, 2, DivisorClass((1, -11)), DivisorClass((3, 34)))
    assert v.passed
    assert v.a_h == 1 and v.n_a_h == 2 and v.min_degree == 3


def test_spectral_stability_enriques_range():
    enr = make_base("enriques")
    alpha = pad((1, -1), 10)
    h = pad((5, 6), 10)
    for n in range(1, 8):
        v = spectral_stability_check(enr, n, alpha, h)
        assert v.passed == (n < 5)


def test_spectral_stability_nonpositive_degree_fails():
    f0 = make_base("F0")
    h = f0.c1.scale(2)
    assert not spectral_stability_check(f0, 2, DivisorClass((0, 0)), h).passed
    assert not spectral_stability_check(f0, 2, DivisorClass((-1, 0)), h).passed
