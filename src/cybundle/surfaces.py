"""Integral intersection lattices for the supported base surfaces.

Supported bases: the Hirzebruch surfaces F0/F1, the del Pezzo surfaces
dP0..dP8 and the generic (unnodal) Enriques surface.  Divisor classes are
integer (or rational) vectors in a fixed basis of the free part of
H^2(B,Z); on the Enriques surface an extra bit tracks the 2-torsion
canonical class, which pairs to zero with everything.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

# known numbers of (-1)-classes on dP_k, k = 1..8
MINUS_ONE_COUNTS = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}


@dataclass(frozen=True)
class DivisorClass:
    """A class in H^2(B); `torsion` marks an added copy of the 2-torsion c1."""

    coeffs: tuple
    torsion: int = 0

    def __post_init__(self):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if self.torsion not in (0, 1):
            raise ValueError("torsion bit must be 0 or 1")

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def free_is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return self.torsion == 0 and self.free_is_zero()

    def _check(self, other: "DivisorClass"):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        self._check(other)
        return DivisorClass(
            tuple(a + b if a and b else a or b for a, b in zip(self.coeffs, other.coeffs)),
            (self.torsion + other.torsion) % 2,
        )

    def __sub__(self, other):
        self._check(other)
        return DivisorClass(
            tuple(a - b if b else a for a, b in zip(self.coeffs, other.coeffs)),
            (self.torsion + other.torsion) % 2,
        )

    def __neg__(self):
        return DivisorClass(tuple(-a for a in self.coeffs), self.torsion)

    def scale(self, s) -> "DivisorClass":
        s = Fraction(s)
        if self.torsion and s.denominator != 1:
            raise ValueError("cannot scale a torsion-carrying class by a non-integer")
        t = (self.torsion * s.numerator) % 2 if self.torsion else 0
        return DivisorClass(tuple(s * a if a else a for a in self.coeffs), t)

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass((0,) * rank)


# positive-component selector for the Enriques effective cone; the two
# components of {C^2 >= 0} are symmetric and this choice is a convention.
ENRIQUES_H0 = DivisorClass((1, 1) + (0,) * 8)
ENRIQUES_H0_INTS = tuple(int(v) for v in ENRIQUES_H0.coeffs)


def unnodal_effective(square, degree) -> bool:
    """The Enriques effectivity rule, C^2 >= 0 and C.(1,1) > 0, from
    square = C^2 and degree = C.(1,1), each scaled by any positive factor.
    A zero free part (pure torsion, or zero) has degree 0: c1 = f1 - f2 is
    not effective.  A nonzero one with C.(1,1) = 0 has C^2 < 0, Gamma^{1,1}
    being hyperbolic and E8(-1) negative definite."""
    return square >= 0 and degree > 0


@dataclass(frozen=True)
class ConeVerdict:
    """Effective / nef / ample triple; None means not decided (nef and ample
    of an Enriques class outside Gamma^{1,1}).  Effectivity is always decided."""

    effective: bool
    nef: bool | None
    ample: bool | None
    notes: tuple = ()


@dataclass(frozen=True)
class MinDegree:
    value: Fraction
    witness: DivisorClass


@dataclass(frozen=True)
class BaseSurface:
    kind: str
    rank: int
    gram: tuple
    c1: DivisorClass
    c2: int
    cone_generators: tuple
    # c1^2 and the coefficients of c1 as ints, fixed when the base is built;
    # the nonzero (j, Gram[i][j]) of each row i, which `dual` walks;
    # (G, Gram.G, G^2) in ints per cone generator, and Gram.c1: the integer
    # side of every F0/dP generator query (generators and c1 are integral)
    c1_sq: int = field(init=False, repr=False, compare=False)
    c1_ints: tuple = field(init=False, repr=False, compare=False)
    _gram_rows: tuple = field(init=False, repr=False, compare=False)
    _generators: tuple = field(init=False, repr=False, compare=False)
    _c1_dual: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram)
        object.__setattr__(self, "_gram_rows", rows)
        gens = []
        for g in self.cone_generators:
            coeffs = tuple(int(v) for v in g.coeffs)
            g_dual = self.dual(coeffs)
            gens.append((coeffs, g_dual, dot(coeffs, g_dual)))
        c1 = tuple(int(v) for v in self.c1.coeffs)
        object.__setattr__(self, "_generators", tuple(gens))
        object.__setattr__(self, "_c1_dual", self.dual(c1))
        object.__setattr__(self, "c1_ints", c1)
        object.__setattr__(self, "c1_sq", dot(c1, self._c1_dual))

    @property
    def is_enriques(self) -> bool:
        return self.kind == "enriques"

    def intersect(self, a: DivisorClass, b: DivisorClass) -> Fraction:
        if a.rank != self.rank or b.rank != self.rank:
            raise ValueError("rank mismatch")
        nums_a, den_a = _over_common_denominator(a)
        nums_b, den_b = _over_common_denominator(b)
        return Fraction(dot(nums_a, self.dual(nums_b)), den_a * den_b)

    def square(self, a: DivisorClass) -> Fraction:
        return self.intersect(a, a)

    def integer_parts(self, c: DivisorClass) -> tuple:
        """(nums, dual, den): c = nums/den over its least common denominator,
        and dual = Gram.nums, all ints.  So c.d = (dual . d_nums) / (den * d_den)
        for any d = d_nums/d_den; the torsion bit pairs to zero."""
        if c.rank != self.rank:
            raise ValueError("rank mismatch")
        nums, den = _over_common_denominator(c)
        return nums, self.dual(nums), den

    def dual(self, nums) -> tuple:
        """Gram.nums, for a vector of ints: nums.d = dual(nums) . d."""
        return tuple([sum([g * nums[j] for j, g in row]) for row in self._gram_rows])

    def _generator_pairings(self, nums) -> list:
        """den * (D.G) for every cone generator G, given nums = den * D."""
        return [dot(nums, g_dual) for _, g_dual, _ in self._generators]

    def cone_position(self, c: DivisorClass) -> ConeVerdict:
        if c.rank != self.rank:
            raise ValueError("rank mismatch")
        if self.is_enriques:
            return self._cone_position_enriques(c)
        nums, _ = _over_common_denominator(c)
        pairings = self._generator_pairings(nums)
        nef = all(p >= 0 for p in pairings)
        ample = all(p > 0 for p in pairings) and self.square(c) > 0
        return ConeVerdict(effective=self.effective(nums), nef=nef, ample=ample)

    def effective(self, nums) -> bool:
        """Whether the class nums/den is effective, for any den > 0: the
        effectivity rule of `cone_position`, on the integer numerators of the
        free part.  The torsion bit never changes the verdict."""
        if not self.is_enriques:
            return self._reduces_to_nef(nums, self._generator_pairings(nums))
        return self.effective_parts(nums, self.dual(nums))

    def effective_parts(self, nums, dual) -> bool:
        """`effective`, given dual = Gram.nums too, which the Enriques rule
        reads: C^2 and C.(1,1) scaled by den^2 and den."""
        if not self.is_enriques:
            return self.effective(nums)
        return unnodal_effective(dot(nums, dual), dot(dual, ENRIQUES_H0_INTS))

    def _reduces_to_nef(self, nums, pairings) -> bool:
        # Zariski's fixed-component reduction on nums = den * D.  Distinct
        # generators pair >= 0, so an effective D = sum a_G G with D.E < 0 has
        # a_E E^2 <= D.E: it contains E at least t_E = D.E / E^2 times, and D
        # is effective exactly when D - sum t_E E is.  A generator G with
        # G^2 >= 0 pairs >= 0 with every generator, so G is nef and D.G < 0
        # rules D out; so does D.c1 < 0, c1 being ample.  With no pairing
        # negative D is nef, and on these bases Nef lies inside Eff.  Every
        # negative generator has E^2 = -1, so den * (D - t_E E) is
        # nums + p_E E with p_E = den * (D.E): den never changes and nums stay
        # integers.  Each round lowers den * c1.D by sum -p_E > 0 (E.c1 = 1),
        # so the loop ends.
        while dot(nums, self._c1_dual) >= 0:
            negative = [(g, sq, p) for (g, _, sq), p in zip(self._generators, pairings) if p < 0]
            if not negative:
                return True
            if any(sq >= 0 for _, sq, _ in negative):
                return False
            for g, _, p in negative:
                nums = [n + p * e for n, e in zip(nums, g)]
            pairings = self._generator_pairings(nums)
        return False

    def _cone_position_enriques(self, c: DivisorClass) -> ConeVerdict:
        nums, dual, den = self.integer_parts(c)
        nef, ample = enriques_nef_ample(nums, dual, den)
        notes = ("class lies outside Gamma^{1,1}",) if nef is None else ()
        return ConeVerdict(effective=self.effective_parts(nums, dual), nef=nef, ample=ample, notes=notes)

    def min_positive_degree(self, h: DivisorClass) -> MinDegree:
        value, witness = self.min_degree_parts(*self.integer_parts(h))
        return MinDegree(value=Fraction(value), witness=DivisorClass(witness))

    def min_degree_parts(self, nums, dual, den: int) -> tuple:
        """(value, witness) of `min_positive_degree` for H = nums/den, given
        dual = Gram.nums: value an int where integral (`ratio`) and witness
        the coefficients of the class as ints.  Raises ValueError if H is
        not ample."""
        if self.is_enriques:
            if enriques_nef_ample(nums, dual, den)[1] is not True:
                raise ValueError("polarization not ample")
            # an ample H is (x, y) in Gamma^{1,1} with x, y > 0, and (a, b).H =
            # a*y + b*x over a, b >= 0 is smallest at (0, 1) (degree x) or at
            # (1, 0) (degree y); a tie goes to (0, 1), first in lexicographic order
            x, y = nums[0], nums[1]
            witness = (0, 1) if x <= y else (1, 0)
            return ratio(min(x, y), den), witness + (0,) * (self.rank - 2)
        # ample as `cone_position` decides it: every generator degree and
        # H^2 positive.  In (degree, coeffs) order the single-generator
        # minimum is then the exact minimum over the effective monoid
        pairings = self._generator_pairings(nums)
        if not all(p > 0 for p in pairings) or dot(nums, dual) <= 0:
            raise ValueError("polarization not ample")
        p, witness = min(zip(pairings, [g for g, _, _ in self._generators]))
        return ratio(p, den), witness


def enriques_nef_ample(nums, dual, den: int) -> tuple:
    """(nef, ample) of the Enriques class C = nums/den, given dual =
    Gram.nums: (None, None) outside Gamma^{1,1}, where neither is decided.
    C = (x, y) in Gamma^{1,1} is nef when x, y >= 0 and ample when nef
    with C^2 = 2xy >= 6, which forces x, y > 0, so C pairs positively with
    every nonzero effective Gamma^{1,1} class (a, b), a, b >= 0."""
    if any(nums[2:]):
        return None, None
    nef = nums[0] >= 0 and nums[1] >= 0
    return nef, nef and dot(nums, dual) >= 6 * den * den


def dot(a, b) -> int:
    """The dot product of two int vectors."""
    return sum(map(operator.mul, a, b))


def ratio(num: int, den: int):
    """num/den: an int when den divides num, a Fraction otherwise."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _over_common_denominator(c: DivisorClass):
    """(nums, den): den is the least common denominator of the coefficients
    of c and nums = den * c, as ints."""
    den = math.lcm(*[q.denominator for q in c.coeffs])
    return [q.numerator * (den // q.denominator) for q in c.coeffs], den


# (a; b) types of the (-1)-curves a*l - sum b_i e_i on dP_k, k <= 8: each value
# of b sits on as many distinct e_i as given (Manin, Cubic Forms, Section 26)
_MINUS_ONE_TYPES = (
    (0, {-1: 1}),
    (1, {1: 2}),
    (2, {1: 5}),
    (3, {2: 1, 1: 6}),
    (4, {2: 3, 1: 5}),
    (5, {2: 6, 1: 2}),
    (6, {3: 1, 2: 7}),
)


def minus_one_classes(k: int):
    """All classes E on dP_k with E^2 = -1 and E.c1 = 1, from their
    classification, sorted by coefficients.  Basis (l, e_1..e_k)."""
    found = []
    for a, b in _MINUS_ONE_TYPES:
        placements = [{}]
        for value, m in b.items():
            placements = [
                {**p, **dict.fromkeys(chosen, value)}
                for p in placements
                for chosen in combinations([i for i in range(k) if i not in p], m)
            ]
        found += [(a, *(-p.get(i, 0) for i in range(k))) for p in placements]
    return [DivisorClass(c) for c in sorted(found)]


@lru_cache(maxsize=None)
def _del_pezzo_generators(k: int):
    if k == 0:
        return (DivisorClass((1,)),)
    gens = minus_one_classes(k)
    if k == 1:
        gens.append(DivisorClass((1, -1)))  # fiber class l - e1
    return tuple(sorted(gens, key=lambda d: d.coeffs))


def _e8_gram_negative():
    """E8(-1): negated Cartan matrix; nodes 0..6 a chain, node 7 on node 2."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


@lru_cache(maxsize=None)
def make_base(kind: str) -> BaseSurface:
    """Build a surface descriptor. Accepts 'F0', 'F1', 'dP0'..'dP8', 'enriques'."""
    key = kind.strip().lower()
    if key in ("f0", "hirzebruch0"):
        gram = ((0, 1), (1, 0))
        return BaseSurface(
            kind="F0",
            rank=2,
            gram=gram,
            c1=DivisorClass((2, 2)),
            c2=4,
            cone_generators=(DivisorClass((1, 0)), DivisorClass((0, 1))),
        )
    if key in ("f1", "hirzebruch1"):
        # F1 is isomorphic to dP1; we return the dP1 descriptor
        return make_base("dP1")
    if key.startswith("dp") and key[2:].isdigit() and 0 <= int(key[2:]) <= 8:
        k = int(key[2:])
        rank = k + 1
        gram = tuple(
            tuple((1 if i == 0 else -1) if i == j else 0 for j in range(rank))
            for i in range(rank)
        )
        c1 = DivisorClass((3, *([-1] * k)))
        return BaseSurface(
            kind=f"dP{k}",
            rank=rank,
            gram=gram,
            c1=c1,
            c2=3 + k,
            cone_generators=_del_pezzo_generators(k),
        )
    if key == "enriques":
        g11 = [[0, 1], [1, 0]]
        e8 = _e8_gram_negative()
        rank = 10
        gram = tuple(
            tuple(
                (g11[i][j] if i < 2 and j < 2 else e8[i - 2][j - 2] if i >= 2 and j >= 2 else 0)
                for j in range(rank)
            )
            for i in range(rank)
        )
        return BaseSurface(
            kind="enriques",
            rank=rank,
            gram=gram,
            c1=DivisorClass((0,) * rank, torsion=1),
            c2=12,
            cone_generators=(),
        )
    raise ValueError(f"unsupported surface {kind!r}")
