"""Zero-aware lattice arithmetic against the dense element-wise oracle.

`BaseSurface.intersect` walks only the nonzero Gram entries and skips zero
coordinates; `DivisorClass` arithmetic passes zero coordinates through and
wraps only coefficients that are not already Fractions.  The oracles below
are the dense forms: the full double loop over the Gram matrix and a fresh
Fraction for every coordinate.  The hypothesis laws (derandomized, few
examples) check symmetry and bilinearity of `intersect`.
"""

from fractions import Fraction
from itertools import product

import pytest

from cybundle.ring import FourClass
from cybundle.surfaces import DivisorClass, make_base

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASES = ["F0"] + [f"dP{k}" for k in range(9)] + ["enriques"]
SCALARS = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)]


def dense_intersect(s, a, b):
    total = Fraction(0)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            total += Fraction(ai) * s.gram[i][j] * Fraction(bj)
    return total


def dense_add(a, b):
    return tuple(Fraction(x) + Fraction(y) for x, y in zip(a.coeffs, b.coeffs))


def dense_sub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a.coeffs, b.coeffs))


def dense_scale(a, t):
    return tuple(Fraction(t) * Fraction(x) for x in a.coeffs)


def classes(s):
    """Zero, sparse, dense, integral and half-integral classes on `s`, each
    with the torsion bit unset and, on Enriques, set."""
    r = s.rank
    coeff_sets = [
        (0,) * r,
        (1,) + (0,) * (r - 1),
        (0,) * (r - 1) + (-2,),
        (Fraction(1, 2),) + (0,) * (r - 2) + (Fraction(-3, 2),) if r > 1 else (Fraction(1, 2),),
        tuple(i - r // 2 for i in range(r)),
        tuple(Fraction(2 * i - 5, 2) for i in range(r)),
        tuple(Fraction(3 - i, 1 + i % 2) for i in range(r)),
        s.c1.coeffs,
    ]
    bits = (0, 1) if s.is_enriques else (0,)
    return [DivisorClass(c, t) for c in coeff_sets for t in bits]


def all_fractions(c):
    return all(type(v) is Fraction for v in c.coeffs)


@pytest.mark.parametrize("kind", BASES)
def test_intersect_matches_dense_double_loop(kind):
    s = make_base(kind)
    for a, b in product(classes(s), repeat=2):
        got = s.intersect(a, b)
        assert type(got) is Fraction
        assert got == dense_intersect(s, a, b), (a, b)


@pytest.mark.parametrize("kind", BASES)
def test_class_arithmetic_matches_elementwise(kind):
    s = make_base(kind)
    for a, b in product(classes(s), repeat=2):
        torsion = (a.torsion + b.torsion) % 2
        for got, want in ((a + b, dense_add(a, b)), (a - b, dense_sub(a, b))):
            assert got.coeffs == want and got.torsion == torsion, (a, b)
            assert all_fractions(got)
    for a, t in product(classes(s), SCALARS):
        if a.torsion and Fraction(t).denominator != 1:
            with pytest.raises(ValueError):
                a.scale(t)
            continue
        got = a.scale(t)
        assert got.coeffs == dense_scale(a, t) and all_fractions(got)
        assert got.torsion == (a.torsion * Fraction(t).numerator) % 2


def test_coefficients_are_fractions_whatever_the_input():
    mixed = DivisorClass([0, Fraction(1, 2), 3, True, "5/2", 0.5])
    assert mixed.coeffs == (0, Fraction(1, 2), 3, 1, Fraction(5, 2), Fraction(1, 2))
    assert all_fractions(mixed)
    for fiber in (0, 7, Fraction(3, 2), "1/3"):
        w = FourClass(DivisorClass.zero(2), fiber)
        assert type(w.fiber) is Fraction and w.fiber == Fraction(fiber)


# ---------------------------------------------------------------------------
# lattice laws

LAWS = settings(derandomize=True, max_examples=40, deadline=None, database=None)
half_integers = st.integers(-8, 8).map(lambda k: Fraction(k, 2))


@st.composite
def base_and_classes(draw, count):
    s = make_base(draw(st.sampled_from(BASES)))
    coordinate = st.one_of(st.just(Fraction(0)), half_integers)
    vector = st.lists(coordinate, min_size=s.rank, max_size=s.rank)
    return s, [DivisorClass(draw(vector)) for _ in range(count)]


@LAWS
@given(base_and_classes(2))
def test_intersect_symmetric(drawn):
    s, (a, b) = drawn
    assert s.intersect(a, b) == s.intersect(b, a)


@LAWS
@given(base_and_classes(3), half_integers, half_integers)
def test_intersect_bilinear(drawn, p, q):
    s, (a, b, c) = drawn
    combo = a.scale(p) + b.scale(q)
    expected = p * s.intersect(a, c) + q * s.intersect(b, c)
    assert s.intersect(combo, c) == expected
    assert s.intersect(c, combo) == expected
