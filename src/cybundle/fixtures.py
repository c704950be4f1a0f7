"""Built-in verification suite reproducing the published example values.

The paper's models (SO(10), E6, spectral F0) read their verdicts from the
record of `check_model`, the pipeline that `check` and `search` run."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .anomaly import anomaly_class, solve_alpha_zero, solve_c2E_zero
from .bundles import PullbackBundle, SpectralBundle
from .nonsplit import chi_coefficients, w0_nonsplit_delpezzo
from .ring import DivisorX, c2_tangent
from .search import Polarization, check_model
from .surfaces import DivisorClass, MINUS_ONE_COUNTS, make_base, minus_one_classes
from .windows import (
    sign_necessity,
    spectral_stability_check,
    window_enriques,
    window_delpezzo,
)


@dataclass
class Check:
    quantity: str
    expected: object
    got: object
    tag: str  # expected-value source: "reference", "derived", "trivial", "info"
    hard: bool = True

    @property
    def ok(self) -> bool:
        if not self.hard:
            return True
        return self.expected == self.got


@dataclass
class FixtureResult:
    id: str
    description: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


def fixture_so10_f0() -> FixtureResult:
    res = FixtureResult("so10-F0", "SO(10) model: F0, n=3, x=1, c2(E)=104")
    f0 = make_base("F0")
    sol = solve_alpha_zero(f0, 3, 1)
    res.checks.append(Check("alpha", (-1, -1), tuple(sol.alpha.coeffs), "reference"))
    res.checks.append(Check("alpha integral", True, sol.integral, "reference"))
    res.checks.append(Check("c2E", 104, solve_c2E_zero(f0, 3, sol.alpha), "reference"))
    bundle = PullbackBundle(n=3, c2E=104, twist=DivisorX(1, sol.alpha))
    out = check_model(f0, bundle, Polarization(h=Fraction(1)), short_circuit=False).verdicts["anomaly"]
    res.checks.append(Check("wB", True, set(out["wB"]["coeffs"]) == {"0"}, "reference"))
    res.checks.append(Check("af", Fraction(0), Fraction(out["af"]), "reference"))
    res.checks.append(Check("[W]=0", True, out["W_zero"], "reference"))
    return res


def fixture_e6_f0() -> FixtureResult:
    res = FixtureResult(
        "e6-F0", "E6 model: F0, n=2, x=2, c2(E)=92; non-split checks, stability verdict"
    )
    f0 = make_base("F0")
    sol = solve_alpha_zero(f0, 2, 2)
    res.checks.append(Check("alpha", (0, 0), tuple(sol.alpha.coeffs), "reference"))
    res.checks.append(Check("c2E", 92, solve_c2E_zero(f0, 2, sol.alpha), "reference"))
    bundle = PullbackBundle(n=2, c2E=92, twist=DivisorX(2, sol.alpha))
    verdicts = check_model(f0, bundle, Polarization(h=Fraction(1)), short_circuit=False).verdicts
    res.checks.append(Check("[W]=0", True, verdicts["anomaly"]["W_zero"], "reference"))
    for n, x in ((3, 1), (2, 2)):
        passed = w0_nonsplit_delpezzo(n, x, 8).passed
        res.checks.append(Check(f"non-split (n,x)=({n},{x})", True, passed, "reference"))
    # informational: a = alpha.c1 = 0 lies outside the x*a < 0 domain of the
    # stability proposition, whose window systems are sufficient conditions,
    # so an empty window means "not shown stable", not "unstable"
    a = f0.intersect(sol.alpha, f0.c1)
    w = verdicts["stability"]
    got = (
        f"u window ({w['lower']}, {w['upper']}) {'nonempty' if w['nonempty'] else 'empty'};"
        f" a = alpha.c1 = {a} {'inside' if 2 * a < 0 else 'outside'} the x*a < 0 domain;"
        f" {'shown stable' if w['nonempty'] else 'not shown stable'}"
    )
    res.checks.append(Check("stability (h=1)", None, got, "info", hard=False))
    return res


def fixture_spectral_f0() -> FixtureResult:
    res = FixtureResult(
        "spectral-F0", "Spectral model: F0, n=2, lambda=3/2, eta=12c1, alpha=(1,-11)"
    )
    f0 = make_base("F0")
    alpha = DivisorClass((1, -11))
    bundle = SpectralBundle(n=2, eta=f0.c1.scale(12), lam=Fraction(3, 2), twist=DivisorX(0, alpha))
    pol = Polarization(H=DivisorClass((3, 34)))
    verdicts = check_model(f0, bundle, pol, short_circuit=False).verdicts
    ver, ns, out = verdicts["stability"], verdicts["nonsplit"], verdicts["anomaly"]
    res.checks.append(Check("alpha.H", Fraction(1), Fraction(ver["alpha_H"]), "reference"))
    res.checks.append(Check("(Lambda.H)_min", Fraction(3), Fraction(ver["min_degree"]), "reference"))
    res.checks.append(Check("0 < 2 < 3", True, ver["passed"], "reference"))
    res.checks.append(Check("non-split value", Fraction(1800), Fraction(ns["value"]), "derived"))
    res.checks.append(Check("non-split > 0", True, ns["passed"], "reference"))
    res.checks.append(Check("wB (eta=12c1)", True, set(out["wB"]["coeffs"]) == {"0"}, "reference"))
    # informational: both af readings are reported with the agreement flag;
    # neither value is asserted to be zero
    res.checks.append(
        Check(
            "af readings reported",
            None,
            f"direct={out['af_direct']} displayed={out['af_displayed']} agree={out['display_agrees']}",
            "info",
            hard=False,
        )
    )
    return res


def fixture_enriques_spectral_range() -> FixtureResult:
    res = FixtureResult(
        "enriques-spectral-range", "Enriques H=(5,6), alpha=(1,-1): pass for 0<n<5"
    )
    enr = make_base("enriques")
    alpha = _pad((1, -1), 10)
    h = _pad((5, 6), 10)
    for n in range(1, 7):
        ver = spectral_stability_check(enr, n, alpha, h)
        res.checks.append(Check(f"n={n}", n < 5, ver.passed, "reference"))
    return res


def fixture_prop42_window() -> FixtureResult:
    res = FixtureResult("prop42-window", "Enriques stability windows in z")
    w = window_enriques(2, 1, -2, 2)
    res.checks.append(
        Check("(2,1,-2,2)", (Fraction(2, 5), Fraction(1, 2), True), (w.lower, w.upper, w.nonempty), "derived")
    )
    w = window_enriques(2, -1, 2, 2)
    res.checks.append(
        Check("(2,-1,2,2)", (Fraction(1, 2), Fraction(2, 3), True), (w.lower, w.upper, w.nonempty), "derived")
    )
    w = window_enriques(2, 0, 1, 2)
    res.checks.append(Check("(2,0,1,2) empty", False, w.nonempty, "reference"))
    return res


def fixture_prop52_window() -> FixtureResult:
    res = FixtureResult("prop52-window", "-K-ample stability windows in u = h^2 - zeta^2")
    w = window_delpezzo(2, 1, -2, 8, 1)
    res.checks.append(
        Check("(2,1,-2,8,1)", (Fraction(16, 21), Fraction(4, 5), True), (w.lower, w.upper, w.nonempty), "derived")
    )
    w = window_delpezzo(2, -1, 2, 8, 1)
    res.checks.append(
        Check("(2,-1,2,8,1)", (Fraction(4, 5), Fraction(16, 19), True), (w.lower, w.upper, w.nonempty), "derived")
    )
    w = window_delpezzo(2, 0, 1, 8, 1)
    res.checks.append(Check("x=0 empty", False, w.nonempty, "reference"))
    return res


def fixture_c2_tangent() -> FixtureResult:
    res = FixtureResult("c2-tangent", "c2(X) on the supported bases")
    f0 = make_base("F0")
    w = c2_tangent(f0)
    res.checks.append(Check("F0 beta", (24, 24), tuple(w.beta.coeffs), "derived"))
    res.checks.append(Check("F0 fiber", Fraction(92), w.fiber, "derived"))
    enr = make_base("enriques")
    w = c2_tangent(enr)
    res.checks.append(Check("Enriques beta=0", True, w.beta.is_zero(), "derived"))
    res.checks.append(Check("Enriques fiber", Fraction(12), w.fiber, "derived"))
    dp0 = make_base("dP0")
    w = c2_tangent(dp0)
    res.checks.append(Check("dP0 beta", (36,), tuple(w.beta.coeffs), "derived"))
    res.checks.append(Check("dP0 fiber", Fraction(102), w.fiber, "derived"))
    return res


def fixture_sign_necessity() -> FixtureResult:
    res = FixtureResult("cor34-sign", "necessary sign condition x*(alpha.H) < 0")
    res.checks.append(Check("(1,-2)", True, sign_necessity(1, -2), "trivial"))
    res.checks.append(Check("(-1,1)", True, sign_necessity(-1, 1), "trivial"))
    res.checks.append(Check("(1,1)", False, sign_necessity(1, 1), "reference"))
    return res


def prop71_scan():
    """Enriques pullback scan: n=2, H=(2,3), x = +-1..3, alpha in [-10,10]^2.

    Returns (scanned, hits); a hit has wB zero or effective and passes the
    sign condition x*(alpha.H) < 0.
    """
    enr = make_base("enriques")
    h = _pad((2, 3), 10)
    n = 2
    hits = scanned = 0
    for x in (-3, -2, -1, 1, 2, 3):
        for a0 in range(-10, 11):
            for a1 in range(-10, 11):
                scanned += 1
                alpha = _pad((a0, a1), 10)
                out = anomaly_class(enr, PullbackBundle(n=n, c2E=12, twist=DivisorX(x, alpha)))
                effective = out.wB.is_zero() or enr.cone_position(out.wB).effective is True
                if effective and sign_necessity(x, enr.intersect(alpha, h)):
                    hits += 1
    return scanned, hits


def fixture_prop71_scan() -> FixtureResult:
    res = FixtureResult(
        "prop71-enriques",
        "Enriques pullback: wB >= 0 plus the sign condition forces x = 0",
    )
    scanned, hits = prop71_scan()
    res.checks.append(Check(f"passing records ({scanned} scanned)", 0, hits, "reference"))
    return res


def fixture_minus_one_counts() -> FixtureResult:
    res = FixtureResult("dp-minus-one-counts", "(-1)-class counts on dP_1..dP_8")
    for k in range(1, 9):
        res.checks.append(
            Check(f"dP{k}", MINUS_ONE_COUNTS[k], len(minus_one_classes(k)), "derived")
        )
    return res


def fixture_chi_coefficients() -> FixtureResult:
    res = FixtureResult("chi-coefficients", "A1..A4 spot values")
    co = chi_coefficients(3)
    res.checks.append(Check("A3(y=3)", Fraction(8), co.A3, "derived"))
    res.checks.append(Check("A4(y=3)", Fraction(7, 2), co.A4, "derived"))
    co = chi_coefficients(1)
    res.checks.append(
        Check(
            "y=1 spot values",
            (Fraction(-1), Fraction(1), Fraction(0), Fraction(-1, 2)),
            (co.A1, co.A2, co.A3, co.A4),
            "derived",
        )
    )
    return res


ALL_FIXTURES = (
    fixture_so10_f0,
    fixture_e6_f0,
    fixture_spectral_f0,
    fixture_enriques_spectral_range,
    fixture_prop42_window,
    fixture_prop52_window,
    fixture_c2_tangent,
    fixture_sign_necessity,
    fixture_prop71_scan,
    fixture_minus_one_counts,
    fixture_chi_coefficients,
)


def run_all():
    return [f() for f in ALL_FIXTURES]
