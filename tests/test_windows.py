"""Tests for the exact stability windows."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cybundle import jsonio, search
from cybundle.surfaces import DivisorClass, make_base
from cybundle.windows import (
    StabilityWindow,
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


# the Fraction solver of the raw systems in u and z, the oracle of the
# integer kernel that solves them in t = u/h^2 and t = z/|H^2|


def fraction_solve_strict_linear(inequalities, domain):
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


def fraction_z_approx(nonempty, lo, hi, to_z):
    if not nonempty or lo is None or hi is None:
        return None
    try:
        return (to_z(lo), to_z(hi))
    except OverflowError:
        return None


def fraction_window_enriques(n, x, a, hsq):
    a, hsq = Fraction(a), Fraction(hsq)
    if x == 0 and a >= 1:
        return StabilityWindow("z", None, None, False, ("na>=1 obstruction",))
    ineqs = [
        ("subsheaf-F", 2 * n * a - 2, n * x * hsq, "lt"),
        ("subsheaf-G", 2 * n * a, n * x * hsq - hsq, "lt"),
        ("DJ2>0", 2 * a, x * hsq, "gt"),
    ]
    lo, hi, binding, nonempty = fraction_solve_strict_linear(ineqs, [("z>0", 0, "gt")])
    approx = fraction_z_approx(nonempty, lo, hi, float)
    return StabilityWindow("z", lo, hi, nonempty, binding, approx)


def fraction_window_delpezzo(n, x, a, c1sq, h):
    a, c1sq, h = Fraction(a), Fraction(c1sq), Fraction(h)
    hsq = h * h
    if x == 0:
        return StabilityWindow("u", None, None, False, ("(na-1)(h^2-zeta^2)<0 impossible",))
    ineqs = [
        ("subsheaf-F", n * a - 1 - n * x * c1sq, n * x * hsq * c1sq, "lt"),
        ("subsheaf-G", n * a + c1sq - n * x * c1sq, (n * x - 1) * hsq * c1sq, "lt"),
        ("DJ2>0", a - x * c1sq, x * hsq * c1sq, "gt"),
    ]
    domain = [("u>0", 0, "gt"), ("u<h^2", hsq, "lt")]
    lo, hi, binding, nonempty = fraction_solve_strict_linear(ineqs, domain)
    approx = fraction_z_approx(nonempty, lo, hi, lambda u: float(h) - math.sqrt(float(hsq - u)))
    return StabilityWindow("u", lo, hi, nonempty, binding, approx)


def assert_same_window(got, want):
    """Equal fields, Fraction ends, and floats equal bit for bit."""
    assert got == want
    assert all(type(v) is Fraction for v in (got.lower, got.upper) if v is not None)
    if want.z_interval_approx is not None:
        assert [v.hex() for v in got.z_interval_approx] == [v.hex() for v in want.z_interval_approx]


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
# the integer kernel against the Fraction solver

BIG = 10**999  # 10 * BIG has 1000 digits

WINDOWS = {
    "delpezzo": (window_delpezzo, fraction_window_delpezzo),
    "enriques": (window_enriques, fraction_window_enriques),
}

FORCED = [
    # ties: two rows bound the window at one end, the upper or the lower
    ("tie-delpezzo", "delpezzo", (1, -3, 4, 8, 1)),
    ("tie-delpezzo-h3/2", "delpezzo", (1, -3, 4, 1, Fraction(3, 2))),
    ("tie-enriques", "enriques", (1, -3, 4, 2)),
    ("lower-tie-delpezzo", "delpezzo", (1, 2, -1, 8, 1)),
    ("lower-tie-enriques", "enriques", (1, 2, -1, 2)),
    ("tie-enriques-x=0", "enriques", (1, 0, Fraction(1, 2), 2)),
    # zero-coefficient rows that fail (a = x c1^2; a = 0): no ends, the rows named
    ("zero-row-delpezzo", "delpezzo", (1, -3, -3, 1, 1)),
    ("zero-row-enriques", "enriques", (1, -3, 0, 2)),
    ("zero-rows-enriques-H2=0", "enriques", (2, 1, 0, 0)),
    # ends that meet: empty with lower == upper
    ("meet-delpezzo", "delpezzo", (1, -3, 0, 8, 1)),
    ("meet-enriques-x=0", "enriques", (2, 0, -1, 4)),
    # H^2 <= 0, h = 0 and h < 0, which no scan asks for
    ("enriques-H2<0", "enriques", (3, 1, 1, -2)),
    ("enriques-H2=-4/3", "enriques", (2, -1, 2, Fraction(-4, 3))),
    ("delpezzo-h=0", "delpezzo", (2, 1, -2, 8, 0)),
    ("delpezzo-h<0", "delpezzo", (2, 1, -2, 8, Fraction(-1, 2))),
    # 1000-digit a and h: floats that overflow, and floats of 1000-digit
    # ends whose ratio is small
    ("overflow-delpezzo-h", "delpezzo", (3, 1, -4, 8, 10 * BIG)),
    ("overflow-delpezzo-a-h", "delpezzo", (3, 1, -(10 * BIG + 1), 8, Fraction(10 * BIG, 7))),
    ("huge-a-delpezzo", "delpezzo", (3, -1, Fraction(10 * BIG + 1, 3), 8, Fraction(1, 5))),
    ("overflow-enriques-H2", "enriques", (2, 1, -2, 20 * BIG)),
    ("huge-a-enriques", "enriques", (2, 1, -(10 * BIG), 20 * BIG)),
]


def _random_windows(rng, count):
    """(kind, args) draws: n 1-6, x -4..4, a and h rational with
    denominators 1-6, c1^2 1-9 and even H^2 2-20."""
    for _ in range(count):
        n, x = rng.randint(1, 6), rng.randint(-4, 4)
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        yield "delpezzo", (n, x, a, rng.randint(1, 9), Fraction(rng.randint(1, 18), rng.randint(1, 6)))
        yield "enriques", (n, x, a, rng.randrange(2, 21, 2))


def _shape(w):
    """The kinds of window the solver can give."""
    if w.lower is None and w.upper is None:
        # a zero-coefficient row that fails, or the x = 0 obstruction
        return "infeasible" if w.binding[0] in ("subsheaf-F", "subsheaf-G", "DJ2>0") else "obstruction"
    if w.lower == w.upper:
        return "meet"
    if not w.nonempty:
        return "empty"
    if len(w.binding) > 2:
        return "tie"
    return "overflow" if w.z_interval_approx is None else "window"


@pytest.mark.parametrize("kind, args", [case[1:] for case in FORCED], ids=[case[0] for case in FORCED])
def test_integer_kernel_forced_cases(kind, args):
    fast, oracle = WINDOWS[kind]
    assert_same_window(fast(*args), oracle(*args))


def test_forced_cases_cover_every_shape():
    shapes = {_shape(WINDOWS[kind][1](*args)) for _, kind, args in FORCED}
    assert shapes == {"infeasible", "meet", "empty", "tie", "overflow", "window"}


def test_integer_kernel_matches_fraction_solver():
    shapes = Counter()
    for kind, args in _random_windows(random.Random("windows-kernel"), 3000):
        fast, oracle = WINDOWS[kind]
        want = oracle(*args)
        assert_same_window(fast(*args), want)
        shapes[kind, _shape(want)] += 1
    for kind in WINDOWS:
        assert {shape for k, shape in shapes if k == kind} == {
            "obstruction", "infeasible", "meet", "empty", "tie", "window"
        }


def test_windows_scale_with_the_polarization():
    # the homogeneity lemma of `cybundle.windows`: h -> c h scales the
    # u-window's ends by c^2, H^2 -> c H^2 the z-window's by c
    rng = random.Random("windows-homogeneity")
    nonempty = 0
    for _ in range(500):
        n, x = rng.randint(1, 6), rng.randint(-4, 4)
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
        c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        h, c1sq, hsq = Fraction(rng.randint(1, 18), rng.randint(1, 6)), rng.randint(1, 9), rng.randrange(2, 21, 2)
        for w, scaled, factor in (
            (window_delpezzo(n, x, a, c1sq, h), window_delpezzo(n, x, a, c1sq, c * h), c * c),
            (window_enriques(n, x, a, hsq), window_enriques(n, x, a, c * hsq), c),
        ):
            assert (scaled.nonempty, scaled.binding) == (w.nonempty, w.binding)
            for end, scaled_end in ((w.lower, scaled.lower), (w.upper, scaled.upper)):
                assert scaled_end == (None if end is None else end * factor)
            nonempty += w.nonempty
    assert nonempty > 100


def test_window_text_is_what_the_encoder_writes():
    # the scan writes a window's stability verdict by hand; the encoder on
    # `jsonio.window_to_json` is the oracle, on every
    # forced case (None ends, 1000-digit ends, an overflowed approx) and
    # seeded draws of both systems
    cases = [(kind, args) for _, kind, args in FORCED]
    cases += list(_random_windows(random.Random("window-text"), 1000))
    shapes, long_ends = Counter(), 0
    for kind, args in cases:
        w = WINDOWS[kind][0](*args)
        expected = json.dumps({**jsonio.window_to_json(w), "passed": w.nonempty}, separators=(",", ":"))
        assert search._window_text(w) == expected, (kind, args)
        shapes[kind, _shape(w)] += 1
        long_ends += any(len(str(abs(e.numerator))) >= 1000 for e in (w.lower, w.upper) if e)
    for kind in WINDOWS:
        assert {shape for k, shape in shapes if k == kind} == {
            "obstruction", "infeasible", "meet", "empty", "tie", "overflow", "window"
        }
    assert long_ends > 0


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
