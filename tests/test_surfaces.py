"""Tests for the base-surface intersection lattices."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from cybundle import jsonio, search
from cybundle.search import Polarization, _PolTerms
from cybundle.surfaces import (
    ConeVerdict,
    DivisorClass,
    MINUS_ONE_COUNTS,
    MinDegree,
    dot,
    make_base,
    minus_one_classes,
)


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


def random_class(rng, rank, lo=-6, hi=6):
    return DivisorClass(tuple(rng.randint(lo, hi) for _ in range(rank)))


# ---------------------------------------------------------------------------
# constructors


def test_make_f0():
    f0 = make_base("F0")
    assert f0.gram == ((0, 1), (1, 0))
    assert f0.c1 == DivisorClass((2, 2))
    assert f0.c1_sq == 8
    assert f0.c2 == 4


def test_make_enriques():
    enr = make_base("enriques")
    assert enr.rank == 10
    assert enr.c1.free_is_zero() and enr.c1.torsion == 1
    assert enr.c1_sq == 0
    assert enr.c2 == 12


def test_make_dp0():
    dp0 = make_base("dP0")
    assert dp0.rank == 1
    assert dp0.gram == ((1,),)
    assert dp0.c1 == DivisorClass((3,))
    assert dp0.c1_sq == 9
    assert dp0.c2 == 3


def test_f1_aliases_dp1():
    assert make_base("F1") is make_base("dP1")
    assert make_base("F1").kind == "dP1"


@pytest.mark.parametrize("k", range(9))
def test_del_pezzo_numerics(k):
    s = make_base(f"dP{k}")
    assert s.rank == k + 1
    assert s.c1_sq == 9 - k
    assert s.c2 == 3 + k


@pytest.mark.parametrize("kind", ["F0", "enriques"] + [f"dP{k}" for k in range(9)])
def test_c1_sq_is_stored_int(kind):
    s = make_base(kind)
    assert type(s.c1_sq) is int and s.c1_sq == s.square(s.c1)


@pytest.mark.parametrize("kind", ["F2", "F9", "dP9", "quadric", ""])
def test_unsupported_surface(kind):
    with pytest.raises(ValueError, match="unsupported surface"):
        make_base(kind)


def signature(gram):
    """Exact (p, n) signature of a symmetric rational matrix."""
    n = len(gram)
    m = [[Fraction(v) for v in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if m[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
                m[k], m[swap] = m[swap], m[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    continue
                for row in m:
                    row[k] += row[j]
                m[k] = [a + b for a, b in zip(m[k], m[j])]
        piv = m[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
                for row in m:
                    row[i] = row[i] - f * row[k]
    return pos, neg


@pytest.mark.parametrize("kind", ["F0", "dP0", "dP3", "dP8", "enriques"])
def test_gram_signature(kind):
    s = make_base(kind)
    assert signature(s.gram) == (1, s.rank - 1)


def test_enriques_gram_even():
    enr = make_base("enriques")
    rng = random.Random(7)
    for _ in range(200):
        c = random_class(rng, 10)
        assert enr.square(c) % 2 == 0


# ---------------------------------------------------------------------------
# intersection pairing


def test_intersect_enriques_example():
    enr = make_base("enriques")
    alpha = pad((1, -1), 10)
    h = pad((5, 6), 10)
    assert enr.intersect(alpha, h) == 1


def test_intersect_f0_example():
    f0 = make_base("F0")
    assert f0.intersect(DivisorClass((1, -11)), DivisorClass((3, 34))) == 1


def test_intersect_zero():
    for kind in ("F0", "dP4", "enriques"):
        s = make_base(kind)
        z = DivisorClass.zero(s.rank)
        c = DivisorClass(tuple(range(s.rank)))
        assert s.intersect(z, c) == 0


def test_intersect_symmetric_bilinear():
    rng = random.Random(11)
    for kind in ("F0", "dP5", "enriques"):
        s = make_base(kind)
        for _ in range(60):
            a = random_class(rng, s.rank)
            b = random_class(rng, s.rank)
            c = random_class(rng, s.rank)
            m, k = rng.randint(-4, 4), rng.randint(-4, 4)
            assert s.intersect(a, b) == s.intersect(b, a)
            assert s.intersect(a.scale(m) + b.scale(k), c) == m * s.intersect(
                a, c
            ) + k * s.intersect(b, c)


def test_intersect_rank_mismatch():
    f0 = make_base("F0")
    with pytest.raises(ValueError, match="rank mismatch"):
        f0.intersect(DivisorClass((1, 2, 3)), DivisorClass((1, 2)))


def test_torsion_pairs_to_zero():
    enr = make_base("enriques")
    c = pad((3, 5, 1, 0, 2, 0, 0, 0, -1, 4), 10)
    assert enr.intersect(enr.c1, c) == 0
    # adding torsion never changes a pairing
    ct = DivisorClass(c.coeffs, torsion=1)
    assert enr.intersect(ct, c) == enr.intersect(c, c)


def test_torsion_arithmetic():
    enr = make_base("enriques")
    two_c1 = enr.c1 + enr.c1
    assert two_c1.is_zero()
    assert enr.c1.scale(12).is_zero()
    assert enr.c1.scale(3).torsion == 1
    with pytest.raises(ValueError):
        enr.c1.scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# cone positions


def test_cone_f0_ruling():
    f0 = make_base("F0")
    v = f0.cone_position(DivisorClass((1, 0)))
    assert v.effective is True
    assert v.nef is True
    assert v.ample is False


def test_cone_enriques_torsion_not_effective():
    enr = make_base("enriques")
    assert enr.cone_position(enr.c1).effective is False


def test_cone_enriques_gamma11_nef():
    enr = make_base("enriques")
    for x, y in ((0, 0), (1, 0), (2, 3), (0, 5)):
        assert enr.cone_position(pad((x, y), 10)).nef is True
    assert enr.cone_position(pad((-1, 2), 10)).nef is False


def test_cone_enriques_effective_rule():
    enr = make_base("enriques")
    # C != 0, C^2 >= 0, C.H0 > 0
    assert enr.cone_position(pad((1, 1), 10)).effective is True
    assert enr.cone_position(pad((1, -2), 10)).effective is False  # C^2 = -4
    assert enr.cone_position(pad((-1, -1), 10)).effective is False  # C.H0 < 0


def test_cone_enriques_undecidable_outside_gamma11():
    enr = make_base("enriques")
    c = pad((1, 1, 1), 10)
    v = enr.cone_position(c)
    assert v.nef is None and v.ample is None
    assert "class lies outside Gamma^{1,1}" in v.notes


def test_cone_enriques_ample_needs_square_six():
    enr = make_base("enriques")
    assert enr.cone_position(pad((1, 1), 10)).ample is False  # C^2 = 2
    assert enr.cone_position(pad((2, 2), 10)).ample is True  # C^2 = 8


def test_cone_del_pezzo_effective_membership():
    dp2 = make_base("dP2")
    # l - e1 - e2 is a generator; l - 2e1 is not effective
    assert dp2.cone_position(DivisorClass((1, -1, -1))).effective is True
    assert dp2.cone_position(DivisorClass((1, -2, 0))).effective is False
    assert dp2.cone_position(dp2.c1).effective is True


def test_effective_combinations_random():
    rng = random.Random(23)
    for kind in ("dP2", "dP4", "F0", "dP0", "dP1", "dP3", "dP5", "dP6", "dP7", "dP8"):
        s = make_base(kind)
        gens = s.cone_generators
        for _ in range(25):
            c = DivisorClass.zero(s.rank)
            for _ in range(rng.randint(1, 4)):
                c = c + rng.choice(gens).scale(rng.randint(0, 3))
            assert s.cone_position(c).effective is True


def test_effective_nonneg_on_nef():
    rng = random.Random(5)
    s = make_base("dP3")
    nef = s.c1  # -K is ample, in particular nef
    for _ in range(40):
        c = random_class(rng, s.rank, -4, 4)
        if s.cone_position(c).effective:
            assert s.intersect(c, nef) >= 0


DEL_PEZZO_AND_F0 = ["F0"] + [f"dP{k}" for k in range(9)]


def _int_pairings(s, classes):
    """Integer matrix of pairings; the generators are integral classes."""
    rows = [[int(v) for v in c.coeffs] for c in classes]
    dual = [[sum(s.gram[i][j] * r[i] for i in range(s.rank)) for j in range(s.rank)] for r in rows]
    return [[sum(x * y for x, y in zip(d, r)) for r in rows] for d in dual]


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0)
def test_generator_facts_behind_the_reduction(kind):
    s = make_base(kind)
    gens = s.cone_generators
    assert all(g.is_integral() and g.torsion == 0 for g in gens)
    pair = _int_pairings(s, gens + (s.c1,))
    squares = [pair[i][i] for i in range(len(gens))]
    for i, g in enumerate(gens):
        assert pair[i][i] == s.square(g)
        # distinct generators pair >= 0, a nef generator pairs >= 0 with all
        assert all(pair[i][j] >= 0 for j in range(len(gens)) if j != i or squares[i] >= 0)
        if squares[i] < 0:
            assert squares[i] == -1 and pair[i][-1] == 1
        # c1 pairs > 0 with every generator
        assert pair[i][-1] > 0


def _simplex_in_cone(generators, target: DivisorClass) -> bool:
    """Exact test: target is a non-negative rational combination of generators.

    Phase-1 simplex over Fraction with Bland's rule: the effectivity test
    the Zariski reduction of `cone_position` replaced, kept as its oracle.
    """
    columns = [g.coeffs for g in generators]
    m = len(columns)
    n = len(target.coeffs)
    rows = [[Fraction(columns[j][i]) for j in range(m)] for i in range(n)]
    b = [Fraction(t) for t in target.coeffs]
    for i in range(n):
        if b[i] < 0:
            rows[i] = [-v for v in rows[i]]
            b[i] = -b[i]
    # tableau: m structural columns, n artificial columns, rhs
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(n)] + [b[i]] for i in range(n)]
    basis = [m + i for i in range(n)]
    # phase-1 objective: minimize the sum of artificials.  Basic (artificial)
    # columns must start with zero reduced cost.
    cost = [Fraction(0)] * (m + n + 1)
    for i in range(n):
        for j in range(m):
            cost[j] -= tab[i][j]
        cost[-1] -= tab[i][-1]
    while True:
        enter = next((j for j in range(m + n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(n):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (
                    leave is None
                    or ratio < leave[0]
                    or (ratio == leave[0] and basis[i] < basis[leave[1]])
                ):
                    leave = (ratio, i)
        if leave is None:
            return False
        row = leave[1]
        piv = tab[row][enter]
        tab[row] = [v / piv for v in tab[row]]
        for i in range(n):
            if i != row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[row])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [a - f * c for a, c in zip(cost, tab[row])]
        basis[row] = enter
    return -cost[-1] == 0


def _differential_classes(s, rng, count):
    """Integral and rational classes, positive combinations of generators,
    and such combinations moved off by one small step along a basis vector."""
    out = [DivisorClass.zero(s.rank), s.c1]
    for i in range(count):
        shape = i % 4
        if shape == 0:
            out.append(random_class(rng, s.rank))
        elif shape == 1:
            out.append(
                DivisorClass(
                    tuple(Fraction(rng.randint(-12, 12), rng.choice((2, 3))) for _ in range(s.rank))
                )
            )
        else:
            c = DivisorClass.zero(s.rank)
            for _ in range(rng.randint(1, 4)):
                c = c + rng.choice(s.cone_generators).scale(
                    Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
                )
            if shape == 3:
                step = [0] * s.rank
                step[rng.randrange(s.rank)] = Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                c = c + DivisorClass(tuple(step))
            out.append(c)
    return out


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0)
def test_effective_reduction_matches_simplex(kind):
    s = make_base(kind)
    # the simplex pivots over 56 (dP7) and 240 (dP8) columns, up to 1 s a class
    count = {"dP7": 24, "dP8": 6}.get(kind, 40)
    classes = _differential_classes(s, random.Random(kind), count)
    verdicts = [s.cone_position(c).effective for c in classes]
    expected = [_simplex_in_cone(s.cone_generators, c) for c in classes]
    mismatches = [c for c, got, want in zip(classes, verdicts, expected) if got != want]
    assert mismatches == []
    assert set(verdicts) == {True, False}


def _fraction_cone(s, c):
    """The Fraction path the integer generator pairings replaced: every
    pairing through `intersect`, and the reduction on Fraction classes."""
    pairings = [s.intersect(c, g) for g in s.cone_generators]
    nef = all(p >= 0 for p in pairings)
    ample = all(p > 0 for p in pairings) and s.square(c) > 0
    return ConeVerdict(effective=_fraction_reduces_to_nef(s, c, pairings), nef=nef, ample=ample)


def _fraction_reduces_to_nef(s, d, pairings):
    while s.intersect(d, s.c1) >= 0:
        negative = [(g, p) for g, p in zip(s.cone_generators, pairings) if p < 0]
        if not negative:
            return True
        if any(s.square(g) >= 0 for g, _ in negative):
            return False
        for g, p in negative:
            d = d - g.scale(p / s.square(g))
        pairings = [s.intersect(d, g) for g in s.cone_generators]
    return False


def _fraction_min_degree(s, h, verdict):
    if verdict.ample is not True:
        raise ValueError("polarization not ample")
    degs = [(s.intersect(g, h), g) for g in s.cone_generators]
    value, witness = min(degs, key=lambda t: (t[0], t[1].coeffs))
    return MinDegree(value=value, witness=witness)


def _denominator_classes(s, rng, count):
    """0, c1 and its multiples, then random classes, rational combinations of
    generators and moved multiples of c1, over denominators 1, 2, 3, 6 and
    a mixed one drawn per coefficient."""
    out = [DivisorClass.zero(s.rank), s.c1, s.c1.scale(Fraction(1, 2)), s.c1.scale(Fraction(5, 6))]
    for i in range(count):
        den = (1, 2, 3, 6, None)[i % 5]

        def q(lo, hi):
            return Fraction(rng.randint(lo, hi), den or rng.choice((1, 2, 3, 6)))

        shape = (i // 5) % 3
        if shape == 0:
            out.append(DivisorClass(tuple(q(-12, 12) for _ in range(s.rank))))
        elif shape == 1:
            c = DivisorClass.zero(s.rank)
            for _ in range(rng.randint(1, 4)):
                c = c + rng.choice(s.cone_generators).scale(q(1, 6))
            out.append(c)
        else:
            step = DivisorClass(tuple(q(-2, 2) for _ in range(s.rank)))
            out.append(s.c1.scale(q(1, 12)) + step)
    return out


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0)
def test_integer_generator_data_is_gram_times_generator(kind):
    s = make_base(kind)
    assert len(s._generators) == len(s.cone_generators)
    for (g, dual, sq), gen in zip(s._generators, s.cone_generators):
        assert g == gen.coeffs and all(type(v) is int for v in g + dual)
        assert dual == tuple(sum(s.gram[i][j] * g[j] for j in range(s.rank)) for i in range(s.rank))
        assert sq == s.square(gen)
    c1 = s.c1.coeffs
    assert s._c1_dual == tuple(sum(s.gram[i][j] * c1[j] for j in range(s.rank)) for i in range(s.rank))
    # a ray's polarization terms build the integer parts of H = h c1 from
    # the integer c1, and its minimum degree from that of c1, scaled by h
    for h in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(10**50)):
        terms, H = _PolTerms(s, Polarization(h=h)), s.c1.scale(h)
        assert (terms.H_dual, terms.H_den) == s.integer_parts(H)[1:] and terms.H is None
        assert all(type(v) is int for v in (terms.H_den, *terms.H_dual))
        assert terms.min_degree == s.min_positive_degree(H)


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0)
def test_integer_cone_queries_match_fraction_path(kind):
    s = make_base(kind)
    # the Fraction reduction takes about 0.2 s a class on dP8
    count = {"dP7": 30, "dP8": 15}.get(kind, 60)
    classes = _denominator_classes(s, random.Random("int-" + kind), count)
    seen, ties = set(), 0
    for c in classes:
        verdict = s.cone_position(c)
        assert verdict == _fraction_cone(s, c) and type(verdict.effective) is bool
        seen |= {("effective", verdict.effective), ("nef", verdict.nef), ("ample", verdict.ample)}
        got = _outcome(s.min_positive_degree, c)
        assert got == _outcome(_fraction_min_degree, s, c, verdict)
        if isinstance(got, MinDegree):
            assert type(got.value) is Fraction and got.witness in s.cone_generators
            ties += sum(s.intersect(g, c) == got.value for g in s.cone_generators) > 1
    assert seen == {(field, value) for field in ("effective", "nef", "ample") for value in (True, False)}
    # c1 has the same degree on every generator of F0 and dP2-dP8
    assert ties > 0 or kind in ("dP0", "dP1")


def test_min_degree_tie_takes_smallest_coefficients():
    f0 = make_base("F0")
    md = f0.min_positive_degree(DivisorClass((Fraction(1, 2), Fraction(1, 2))))
    assert md == MinDegree(Fraction(1, 2), DivisorClass((0, 1)))
    # on dP1 (2, -1) pairs 1 with both e1 = (0, 1) and l - e1 = (1, -1)
    assert make_base("dP1").min_positive_degree(DivisorClass((2, -1))).witness == DivisorClass((0, 1))


def _cone_min_degree(s, h):
    """The body `min_positive_degree` had on F0/dPk: ampleness from a full
    `cone_position`, then the least generator pairing over den."""
    verdict = s.cone_position(h)
    if verdict.ample is not True:
        raise ValueError("polarization not ample")
    den = math.lcm(*(c.denominator for c in h.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in h.coeffs]
    pairings = [sum(a * g for a, g in zip(nums, g_dual)) for _, g_dual, _ in s._generators]
    p, _, witness = min(zip(pairings, s._generators, s.cone_generators))
    return MinDegree(value=Fraction(p, den), witness=witness)


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0)
def test_min_degree_ample_test_matches_cone_position(kind):
    # differential: the ample test from the generator pairings and H^2
    # raises exactly when cone_position(h).ample is not True, and the value
    # and witness are those of the cone_position body, on rational classes
    # near the rays of c1 and of the generators, and of the wrong rank
    s = make_base(kind)
    rng = random.Random(f"min degree {kind}")
    gens = s.cone_generators
    outcomes = set()
    for i in range(300):
        den = rng.choice((1, 2, 3, 6))
        step = DivisorClass(tuple(Fraction(rng.randint(-3, 3), den) for _ in range(s.rank)))
        center = s.c1 if i % 2 else rng.choice(gens)
        h = center.scale(Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))) + step
        if i % 50 == 0:
            h = pad(h.coeffs, s.rank + 1)
        got = _outcome(s.min_positive_degree, h)
        assert got == _outcome(_cone_min_degree, s, h), h
        if h.rank == s.rank:
            assert isinstance(got, MinDegree) == (s.cone_position(h).ample is True)
        outcomes.add(got if isinstance(got, tuple) else "ample")
    assert outcomes == {"ample", ("ValueError", "polarization not ample"), ("ValueError", "rank mismatch")}


# ---------------------------------------------------------------------------
# (-1)-classes


@pytest.mark.parametrize("k", range(1, 9))
def test_minus_one_counts(k):
    classes = minus_one_classes(k)
    assert len(classes) == MINUS_ONE_COUNTS[k]
    # with the defining equations below, count and distinctness prove the
    # classification complete
    assert len(set(classes)) == len(classes)


def test_minus_one_classes_satisfy_defining_equations():
    for k in (1, 2, 3, 5, 8):
        s = make_base(f"dP{k}")
        for e in minus_one_classes(k):
            assert s.square(e) == -1
            assert s.intersect(e, s.c1) == 1


def test_minus_one_dp2_explicit():
    found = {e.coeffs for e in minus_one_classes(2)}
    assert found == {(0, 1, 0), (0, 0, 1), (1, -1, -1)}


def test_low_k_extra_rays():
    assert make_base("dP0").cone_generators == (DivisorClass((1,)),)
    gens1 = make_base("dP1").cone_generators
    assert DivisorClass((1, -1)) in gens1 and DivisorClass((0, 1)) in gens1


# ---------------------------------------------------------------------------
# minimal positive degree


def test_min_degree_f0():
    f0 = make_base("F0")
    md = f0.min_positive_degree(DivisorClass((3, 34)))
    assert md.value == 3
    assert md.witness == DivisorClass((0, 1))


def test_min_degree_enriques():
    enr = make_base("enriques")
    md = enr.min_positive_degree(pad((5, 6), 10))
    assert md.value == 5
    assert md.witness == pad((0, 1), 10)


def test_min_degree_dp0():
    dp0 = make_base("dP0")
    md = dp0.min_positive_degree(dp0.c1)
    assert md.value == 3
    assert md.witness == DivisorClass((1,))


def test_min_degree_rejects_non_ample():
    f0 = make_base("F0")
    with pytest.raises(ValueError, match="polarization not ample"):
        f0.min_positive_degree(DivisorClass((1, 0)))


# ---------------------------------------------------------------------------
# Enriques closed forms against the bounded enumeration they replaced


ORACLE_BOUND = 50  # the default bound of the replaced enumeration


def _box_degrees(enr, c):
    """((a, b), (a, b).c) for every nonzero 0 <= a, b <= ORACLE_BOUND, in lex order.

    This is the bounded enumeration the closed forms replaced.  The pairing
    is expanded by bilinearity and summed over integers, so that the
    2,601-class box stays cheap.
    """
    d1 = enr.intersect(pad((1, 0), 10), c)
    d2 = enr.intersect(pad((0, 1), 10), c)
    q = math.lcm(d1.denominator, d2.denominator)
    n1, n2 = int(d1 * q), int(d2 * q)
    for a in range(ORACLE_BOUND + 1):
        for b in range(ORACLE_BOUND + 1):
            if a or b:
                yield (a, b), Fraction(a * n1 + b * n2, q)


def _oracle_cone(enr, c):
    if c.free_is_zero():
        effective = False
    else:
        effective = enr.square(c) >= 0 and enr.intersect(c, pad((1, 1), 10)) > 0
    if any(v != 0 for v in c.coeffs[2:]):
        return ConeVerdict(effective, None, None, ("class lies outside Gamma^{1,1}",))
    x, y = c.coeffs[0], c.coeffs[1]
    nef = x >= 0 and y >= 0
    ample = False
    if nef and enr.square(c) >= 6:
        ample = all(deg > 0 for _, deg in _box_degrees(enr, c))
    return ConeVerdict(effective, nef, ample)


def _oracle_min_degree(enr, h, verdict):
    if verdict.ample is not True:
        raise ValueError("polarization not ample")
    if any(v != 0 for v in h.coeffs[2:]):
        raise ValueError("Enriques polarization must lie in the Gamma^{1,1} sublattice")
    best = None
    for ab, deg in _box_degrees(enr, h):
        if deg > 0 and (best is None or deg < best[0]):
            best = (deg, ab)
    return MinDegree(best[0], pad(best[1], 10))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_enriques_closed_forms_match_enumeration():
    enr = make_base("enriques")
    values = sorted({Fraction(k, d) for k in range(-7, 8) for d in (1, 2, 3)})
    classes = [pad((x, y), 10) for x in values for y in values]
    # torsion and E8 components reach the other branches
    classes += [DivisorClass(c.coeffs, torsion=1) for c in classes[::7]]
    classes += [pad((2, 3, 1), 10), pad((0, 0, 0, -1), 10), enr.c1]
    kinds = set()
    for c in classes:
        verdict = _oracle_cone(enr, c)
        position = enr.cone_position(c)
        assert position == verdict and type(position.effective) is bool
        got = _outcome(enr.min_positive_degree, c)
        assert got == _outcome(_oracle_min_degree, enr, c, verdict)
        if isinstance(got, MinDegree):
            assert type(got.value) is Fraction
            kinds.add("value")
        else:
            kinds.add(got[1])
    assert kinds == {"value", "polarization not ample"}


def _kernel_cases(s, rng, count):
    """(nums, den, torsion) of the classes nums/den (+ torsion c1) the
    effectivity kernel is checked on: seeded random integer nums, on F0/dPk
    also positive combinations of generators moved by one step, on Enriques
    also classes with E8 parts, each over den 1, 2, 3 and 6; then the zero
    class and, on Enriques, pure 2-torsion and torsion-carrying classes."""
    drawn = []
    for i in range(count):
        if s.is_enriques:
            e8 = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(8)] if i % 2 else [0] * 8
            drawn.append([rng.randint(-6, 6), rng.randint(-6, 6), *e8])
        elif i % 2:
            drawn.append([rng.randint(-6, 6) for _ in range(s.rank)])
        else:
            nums = [0] * s.rank
            for _ in range(rng.randint(1, 4)):
                k, g = rng.randint(1, 4), rng.choice(s.cone_generators)
                nums = [v + k * int(c) for v, c in zip(nums, g.coeffs)]
            nums[rng.randrange(s.rank)] += rng.choice((-1, 1))
            drawn.append(nums)
    cases = [(nums, den, 0) for nums in drawn for den in (1, 2, 3, 6)]
    cases.append(([0] * s.rank, 1, 0))
    if s.is_enriques:
        cases += [([0] * s.rank, 1, 1)] + [(nums, 1, 1) for nums in drawn[:6]]
    return cases


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0 + ["enriques"])
def test_effective_kernel_matches_cone_position_and_fraction_oracle(kind):
    s = make_base(kind)
    # the Fraction reduction takes about 0.1 s a class on dP8
    count = {"dP7": 8, "dP8": 4}.get(kind, 30)
    seen = set()
    for nums, den, torsion in _kernel_cases(s, random.Random("kernel-" + kind), count):
        c = DivisorClass(tuple(Fraction(v, den) for v in nums), torsion)
        if s.is_enriques:
            want = _oracle_cone(s, c).effective
        else:
            want = _fraction_reduces_to_nef(s, c, [s.intersect(c, g) for g in s.cone_generators])
        got = s.effective(nums)
        assert type(got) is bool and got == s.cone_position(c).effective == want, (nums, den, torsion)
        seen.add(got)
    assert seen == {True, False}


def test_enriques_wB_query_matches_kernel_and_fraction_oracle():
    # the pullback walk's O(1) query of wB = c c1 + t alpha, from alpha's
    # pairings (`search._wB_effective`), against `BaseSurface.effective` on
    # wB's numerators and the Fraction oracle on the class, for seeded alpha
    # over den 1-3 with torsion 0 and 1, n = 1..6 and x = -3..3: x = 0 gives
    # t = 0 and wB = 12 c1 = 0, alpha = 0 with c odd a pure-torsion wB
    enr = make_base("enriques")
    rng = random.Random("enriques-wB")
    alphas = [DivisorClass((0,) * 10, torsion) for torsion in (0, 1)]
    for i in range(12):
        e8 = [rng.choice((0, 0, 1, -1, 2)) for _ in range(8)] if i % 2 else [0] * 8
        nums, den = [rng.randint(-6, 6), rng.randint(-6, 6), *e8], 1 + i % 3
        alphas.append(DivisorClass(tuple(Fraction(v, den) for v in nums), rng.randint(0, 1)))
    seen = set()
    for alpha in alphas:
        nums, dual, den = enr.integer_parts(alpha)
        parts = search._Alpha(enr, nums, den, dot(nums, dual))
        for n in range(1, 7):
            k = n * (n + 1) // 2
            for x in range(-3, 4):
                c, t = 12 - k * x * x, 2 * k * x
                wB_nums = [c * den * ci + t * ai for ci, ai in zip(enr.c1_ints, nums)]
                wB = enr.c1.scale(c) + alpha.scale(t)
                got = search._wB_effective(enr, t, parts, wB_nums)
                assert type(got) is bool
                assert got == enr.effective(wB_nums) == _oracle_cone(enr, wB).effective, (alpha, n, x)
                seen.add("zero" if wB.is_zero() else "torsion" if wB.free_is_zero() else got)
    assert seen == {"zero", "torsion", True, False}


def test_enriques_min_degree_tie_takes_first_witness():
    enr = make_base("enriques")
    for x in (Fraction(5, 2), 3, 7):
        md = enr.min_positive_degree(pad((x, x), 10))
        assert md.value == x
        assert md.witness == pad((0, 1), 10)
    assert enr.min_positive_degree(pad((6, 5), 10)).witness == pad((1, 0), 10)


def _degree_cases(s, rng):
    """(H or None, h or None) polarizations of `s`: on F0/dPk rays h, and
    explicit H near the rays of c1, some with fractional coefficients and
    some not ample, with the dP1 tie (2, -1); on Enriques, Gamma^{1,1}
    classes (x, y) with x < y, x > y and x = y, integral and not, and some
    that are not ample, or outside Gamma^{1,1}."""
    if s.is_enriques:
        pairs = [(3, 5), (5, 3), (4, 4), (Fraction(7, 2), 4), (4, Fraction(7, 2)), (Fraction(5, 2), Fraction(5, 2))]
        pairs += [(1, 1), (1, 3), (0, 7), (-1, 9), (Fraction(3, 2), 2)]
        cases = [(pad(p, 10), None) for p in pairs] + [(pad((4, 4, 1), 10), None)]
        return cases + [(DivisorClass(pad(p, 10).coeffs, torsion=1), None) for p in pairs[:3]]
    cases = [(None, h) for h in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 5))]
    for _ in range(24):
        den = rng.choice((1, 2, 3))
        step = DivisorClass(tuple(Fraction(rng.randint(-2, 2), den) for _ in range(s.rank)))
        cases.append((s.c1.scale(Fraction(rng.randint(1, 6), rng.choice((1, 2)))) + step, None))
    cases.append((s.c1.scale(-1), None))
    if s.kind == "dP1":
        cases.append((DivisorClass((2, -1)), None))
    return cases


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0 + ["enriques"])
def test_min_degree_parts_match_min_positive_degree(kind):
    # the integer minimum degree (value, witness and tie-break) that a
    # spectral check reads through _PolTerms, against min_positive_degree
    # and the oracle of its base: the cone_position body on F0/dPk, the
    # bounded enumeration on Enriques; a non-ample H is refused alike
    s = make_base(kind)
    seen = set()
    for H, h in _degree_cases(s, random.Random(f"degree parts {kind}")):
        H_class = s.c1.scale(h) if H is None else H
        want = _outcome(s.min_positive_degree, H_class)
        if s.is_enriques:
            oracle = _outcome(_oracle_min_degree, s, H_class, _oracle_cone(s, H_class))
        else:
            oracle = _outcome(_cone_min_degree, s, H_class)
        assert want == oracle, H_class
        terms = _PolTerms(s, Polarization(H=H, h=h))
        got = _outcome(lambda: terms.degree)
        assert got == _outcome(s.min_degree_parts, *s.integer_parts(H_class))
        if isinstance(want, tuple):
            assert got == want == ("ValueError", "polarization not ample")
            seen.add("not ample")
            continue
        value, witness = got
        assert type(want.value) is Fraction and all(type(c) is int for c in witness)
        assert type(value) is (int if want.value.denominator == 1 else Fraction)
        assert (value, DivisorClass(witness)) == (want.value, want.witness)
        assert terms.degree_text == (
            f'"min_degree":"{jsonio.frac_to_str(want.value)}",'
            f'"witness":{json.dumps(jsonio.divisor_to_json(want.witness), separators=(",", ":"))},'
            '"bound_limited":false}'
        )
        seen.add(("ray" if H is None else "H", value == int(value)))
        if s.is_enriques:
            x, y = H_class.coeffs[:2]
            seen.add((x > y) - (x < y))
            assert witness[:2] == ((1, 0) if x > y else (0, 1))
    if s.is_enriques:
        assert seen == {"not ample", ("H", True), ("H", False), -1, 0, 1}
    else:
        assert {"not ample", ("ray", True), ("ray", False), ("H", True), ("H", False)} <= seen, seen
    if kind == "dP1":
        assert s.min_degree_parts((2, -1), s.dual((2, -1)), 1) == (1, (0, 1))


# ---------------------------------------------------------------------------
# scaling law: a cone is closed under positive multiples


@pytest.mark.parametrize("kind", DEL_PEZZO_AND_F0 + ["enriques"])
def test_cone_position_unchanged_under_positive_scaling(kind):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    s = make_base(kind)
    # m times an ample anchor plus small noise, so that every verdict occurs
    anchor = (1, 1) + (0,) * 8 if s.is_enriques else s.c1_ints
    step = st.sampled_from([0, 0, 0, Fraction(1, 2), Fraction(-1, 2), 1, -1, 2, -2])
    noise = st.lists(step, min_size=s.rank, max_size=s.rank)
    torsion = st.integers(0, 1) if s.is_enriques else st.just(0)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(st.integers(-1, 3), noise, torsion, st.integers(1, 12))
    def law(m, drawn, bit, k):
        c = DivisorClass(tuple(m * a + e for a, e in zip(anchor, drawn)), bit)
        verdict, scaled = s.cone_position(c), s.cone_position(c.scale(k))
        seen.add(verdict.effective)
        if s.is_enriques:
            # ample there is "nef and C^2 >= 6", which scaling can change;
            # see the next test
            verdict, scaled = (dataclasses.replace(v, ample=None) for v in (verdict, scaled))
        assert scaled == verdict

    seen = set()
    law()
    assert seen == {True, False}


@pytest.mark.xfail(strict=True, reason="Enriques ample is 'nef and C^2 >= 6' (ROADMAP item 5)")
def test_enriques_ample_unchanged_under_positive_scaling():
    enr = make_base("enriques")
    c = pad((1, 1), 10)  # C^2 = 2, and 2C has C^2 = 8
    assert enr.cone_position(c.scale(2)).ample == enr.cone_position(c).ample
