"""An independent oracle for the Chern layer.

c2(V) and c3(V) of the pullback extension 0 -> pi^*E(-D) -> V -> O(nD) -> 0
are derived here from the Chern character ch(V) = ch(pi^*E) e^{-D} + e^{nD},
in a model of the even cohomology ring of X written for this test alone (it
does not use `cybundle.ring`), with n, x, c2E, c1^2, c1.alpha and alpha^2
kept as symbols.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

sympy = pytest.importorskip("sympy")

from cybundle.bundles import PullbackBundle, bundle_chern  # noqa: E402
from cybundle.ring import DivisorX  # noqa: E402
from cybundle.surfaces import DivisorClass, make_base  # noqa: E402

n, x, c2E, c1sq, c1a, asq = sympy.symbols("n x c2E c1sq c1a asq")

# base classes are pairs (p, q) standing for p*c1 + q*alpha
C1, ALPHA, ZERO = (1, 0), (0, 1), (0, 0)
GRAM = ((c1sq, c1a), (c1a, asq))


def dot(a, b):
    return sum(a[i] * b[j] * GRAM[i][j] for i in range(2) for j in range(2))


def comb(*terms):
    """sum of coef * class over (coef, class) pairs."""
    return tuple(sum(c * v[i] for c, v in terms) for i in range(2))


class Even:
    """u + s*sigma + pi^*a + sigma*pi^*b + f*F + p*pt, with a and b base
    classes, F the fiber class and pt the point class of X."""

    def __init__(self, u=0, s=0, a=ZERO, b=ZERO, f=0, p=0):
        self.u, self.s, self.a, self.b, self.f, self.p = u, s, a, b, f, p

    def __add__(self, o):
        return Even(
            self.u + o.u,
            self.s + o.s,
            comb((1, self.a), (1, o.a)),
            comb((1, self.b), (1, o.b)),
            self.f + o.f,
            self.p + o.p,
        )

    def scale(self, c):
        return Even(
            c * self.u, c * self.s, comb((c, self.a)), comb((c, self.b)), c * self.f, c * self.p
        )

    def __mul__(self, o):
        # sigma^2 = -sigma pi^*c1, sigma.F = pt, pi^*a.pi^*b = (a.b) F; hence
        # sigma.sigma pi^*b = -(c1.b) pt, pi^*a.sigma pi^*b = (a.b) pt and
        # pi^*a.F = 0
        u1, s1, a1, b1, f1, p1 = self.u, self.s, self.a, self.b, self.f, self.p
        u2, s2, a2, b2, f2, p2 = o.u, o.s, o.a, o.b, o.f, o.p
        return Even(
            u1 * u2,
            u1 * s2 + s1 * u2,
            comb((u1, a2), (u2, a1)),
            comb((u1, b2), (u2, b1), (-s1 * s2, C1), (s1, a2), (s2, a1)),
            u1 * f2 + u2 * f1 + dot(a1, a2),
            u1 * p2
            + u2 * p1
            - s1 * dot(C1, b2)
            - s2 * dot(C1, b1)
            + s1 * f2
            + s2 * f1
            + dot(a1, b2)
            + dot(a2, b1),
        )


def exp(d):
    d2 = d * d
    return Even(1) + d + d2.scale(sympy.Rational(1, 2)) + (d2 * d).scale(sympy.Rational(1, 6))


def expanded(*values):
    return tuple(sympy.expand(v) for v in values)


@lru_cache(maxsize=None)
def derived():
    """(c2 base class, c2 fiber, c3) of V from its Chern character."""
    d = Even(s=x, a=ALPHA)
    ch_e = Even(u=n, f=-c2E)  # rank n, c1 = 0, ch2(pi^*E) = -c2E F, ch3 = 0
    ch_v = ch_e * exp(d.scale(-1)) + exp(d.scale(n))
    assert expanded(ch_v.u, ch_v.s, *ch_v.a) == (n + 1, 0, 0, 0)  # rank n+1, c1 = 0
    # with c1 = 0: c2 = -ch2 and c3 = 2 ch3
    return expanded(-ch_v.b[0], -ch_v.b[1], -ch_v.f, 2 * ch_v.p)


def test_derivation_matches_closed_forms():
    d3 = x**3 * c1sq - 3 * x**2 * c1a + 3 * x * asq
    d = Even(s=x, a=ALPHA)
    assert sympy.expand((d * d * d).p - d3) == 0
    # c2 = c2E F - n(n+1)/2 D^2 with D^2 = sigma pi^*(2x alpha - x^2 c1) + alpha^2 F
    half = n * (n + 1) / 2
    closed_c2 = (half * x**2, -half * 2 * x, c2E - half * asq)
    closed_c3 = n * (n**2 - 1) / 3 * d3 + 2 * x * c2E
    assert derived() == expanded(*closed_c2, closed_c3)


def _fraction(value):
    return Fraction(str(value))


def _models():
    yield "F0", 3, 1, (-1, -1), 104  # the paper's SO(10) model
    rng = random.Random(8)
    for kind, rank in (("F0", 2), ("dP6", 7), ("enriques", 10)):
        for _ in range(4):
            alpha = tuple(rng.randint(-3, 3) for _ in range(rank))
            yield kind, rng.randint(2, 5), rng.randint(-3, 3), alpha, rng.randint(-20, 120)


@pytest.mark.parametrize("kind, rank_n, twist_x, alpha, c2e", list(_models()))
def test_bundle_chern_matches_derivation(kind, rank_n, twist_x, alpha, c2e):
    s = make_base(kind)
    a = DivisorClass(alpha)
    values = {
        n: rank_n,
        x: twist_x,
        c2E: c2e,
        c1sq: s.c1_sq,
        c1a: s.intersect(s.c1, a),
        asq: s.square(a),
    }
    beta_c1, beta_alpha, fiber, c3 = (_fraction(v.subs(values)) for v in derived())
    got = bundle_chern(s, PullbackBundle(n=rank_n, c2E=c2e, twist=DivisorX(twist_x, a)))
    assert got.c2.beta == s.c1.scale(beta_c1) + a.scale(beta_alpha)
    assert got.c2.fiber == fiber
    assert got.c3 == c3


def test_derived_c3_of_so10_model():
    values = {n: 3, x: 1, c2E: 104, c1sq: 8, c1a: -4, asq: 2}  # F0, alpha = (-1, -1)
    assert derived()[3].subs(values) == 416
