"""Exhaustive model scans: validity -> anomaly -> non-split -> stability.

Search configs describe finite integer boxes; enumeration is lexicographic
and the JSONL output is deterministic.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat

from . import jsonio
from .anomaly import AnomalyOutcome, spectral_af, w_verdict
from .bundles import SpectralBundle, _resid, _resid_dual, check_rank, check_spectral_parts, validate_parts
from .nonsplit import chi_line_at, chi_line_terms, nonsplit_verdict
from .ring import DivisorX
from .surfaces import ENRIQUES_H0_INTS, BaseSurface, DivisorClass, dot, make_base, ratio, unnodal_effective
from .windows import solve_delpezzo, solve_enriques, window_scale, z_approx

STAGES = ("validity", "anomaly", "nonsplit", "stability")

# The stages run on exact scalars: ints where integral and Fractions
# otherwise, worked out over the least common denominator of the classes
# they pair (`BaseSurface.integer_parts`); the spectral af starts from the
# fiber term that `validate_parts` returns.  The public Fraction functions
# that take one model at a time (`anomaly_class`, `nonsplit_feasible`'s
# slope, `spectral_nonsplit`, `spectral_stability_check`) are the tests'
# oracles for these kernels; chi has one formula, `chi_line`, which
# `chi_nonsplit` reads too, and Riemann-Roch in the tests is its oracle.


@dataclass(frozen=True)
class Polarization:
    H: DivisorClass | None = None  # explicit polarization class
    h: Fraction | None = None  # H = h * c1 on a base with -K ample


@dataclass(slots=True)
class ModelRecord:
    """One model's record: its JSONL line, which holds the params and the
    stage verdicts, and its first failed stage.  `to_json`, `params` and
    `verdicts` parse the line."""

    line: str
    failed_stage: str | None

    overall = property(lambda self: self.failed_stage is None)
    params = property(lambda self: self.to_json()["params"])
    verdicts = property(lambda self: self.to_json()["verdicts"])

    def to_json(self) -> dict:
        return json.loads(self.line)

    def to_json_line(self) -> str:
        return self.line


# A record is rendered where its verdicts are computed, as text fragments
# that the blocks join: digits, booleans and fixed names are written by
# hand, a window's floats by repr (what the encoder writes for a finite
# float), anything else (an error message, a model's params) by the encoder.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=False)
_JSON = {True: "true", False: "false", None: "null"}
_VALID = (True, '"validity":{"passed":true}')
# what follows the params of a valid model up to its anomaly verdict
_OPEN = ',"verdicts":{' + _VALID[1] + ","
# what follows the verdicts of a record, by its failed stage
_TAILS = {
    failed: f'}},"overall":{_JSON[failed is None]},"failed_stage":{_ENCODER.encode(failed)}}}'
    for failed in (None, *STAGES)
}


def _anomaly_row(require: str | None, wB_zero: bool, effective) -> tuple:
    """By sign of af (0, 1, -1), the anomaly verdict of a valid model after
    its af: (the stage it fails or None, its flags, then, after the text of
    the spectral af readings if any, its end), from `w_verdict`, which reads
    the effectivity of wB only at af >= 0 and wB != 0, and the requirement."""
    row = []
    for sign in (0, 1, -1):
        w_zero, w_effective = w_verdict(sign, wB_zero, lambda: effective)
        passed = require is None or (w_zero if require == "W_zero" else w_effective)
        flags = f'","W_zero":{_JSON[w_zero]},"W_effective":{_JSON[w_effective]}'
        row.append((None if passed else "anomaly", flags, f',"passed":{_JSON[passed]}}}'))
    return tuple(row)


# the anomaly rows by (require, wB = 0, effectivity of wB, None where no line reads it)
_ANOMALY = {
    (require, *key): _anomaly_row(require, *key)
    for require in (None, "W_zero", "W_effective")
    for key in ((True, None), (False, None), (False, False), (False, True))
}


def _invalid(error: str) -> str:
    """The text of a validity verdict that fails with `error`."""
    return '"validity":' + _ENCODER.encode({"passed": False, "error": error})


def _class_text(nums, den: int, torsion: int, tail: str = "") -> str:
    """The JSON text of the class nums/den, zeros `tail` (`_Alpha`) after it
    (`jsonio.divisor_to_json`): each coefficient through str(), as
    `jsonio.frac_to_str` prints it."""
    strings = '","'.join(map(str, nums if den == 1 else [ratio(c, den) for c in nums]))
    return f'{{"coeffs":["{strings}{tail}"],"torsion":{torsion}}}'


def _af_opening(wb_text: str) -> str:
    """The anomaly verdict of a valid model up to its af, from the text of wB."""
    return f'{_OPEN}"anomaly":{{"wB":{wb_text},"af":"'


def _nonsplit_opening(passed: bool, clause: str) -> str:
    """A non-split verdict's text up to its value."""
    return f'"nonsplit":{{"passed":{_JSON[passed]},"clause":"{clause}","value":"'


def _opening(verdict) -> tuple:
    """(passed, text up to the value) of a `nonsplit_verdict`."""
    return verdict.passed, _nonsplit_opening(verdict.passed, verdict.clause)


# a pullback non-split verdict's (passed, text up to its value): `_CHI`
# by sign of x, then by sign of chi, for a slope <= 0, which only x > 0
# reads; `_SLOPE` for a slope > 0, whatever x > 0 and chi are
_CHI = tuple(tuple(_opening(nonsplit_verdict(x, 0, chi)) for chi in (0, 1, -1)) for x in (0, 1, -1))
_SLOPE = _opening(nonsplit_verdict(1, 1, None))
# a spectral non-split verdict's text up to its value, by its passed: its
# clause is always "spectral chi>0"
_SPECTRAL_CHI = {passed: _nonsplit_opening(passed, "spectral chi>0") for passed in (False, True)}


def _quotient(p: int, q: int) -> str:
    """The JSON string of p/q, q > 0, as `jsonio.frac_to_str` writes the
    Fraction, without building it: a window's fractional end costs a third
    of str(ratio(p, q))."""
    g = math.gcd(p, q)
    return f'"{p // g}"' if g == q else f'"{p // g}/{q // g}"'


def _window_text(solved, scale: tuple) -> str:
    """The stability verdict of the window `solved` in t (`windows.solve_*`)
    at `scale`, as the encoder writes {**window_to_json(w), "passed": ...} of
    w = `windows.window_at(solved, scale)`, with no Fraction and no encoder:
    the z_interval_approx floats are finite, and repr is what the encoder
    writes for a finite float."""
    lo, hi, binding, nonempty = solved
    variable, num, den, _ = scale
    ends = ["null" if end is None else _quotient(end[0] * num, end[1] * den) for end in (lo, hi)]
    names = '"' + '","'.join(binding) + '"' if binding else ""
    approx = z_approx(solved, scale)
    approx = "" if approx is None else f',"z_interval_approx":[{round(approx[0], 12)!r},{round(approx[1], 12)!r}]'
    nonempty = _JSON[nonempty]
    return (
        f'{{"variable":"{variable}","lower":{ends[0]},"upper":{ends[1]},"nonempty":{nonempty},'
        f'"binding":[{names}]{approx},"passed":{nonempty}}}'
    )


def _rank_validity(n: int) -> tuple:
    """The rank verdict of a scan's n, that of `check_rank`: for a pullback
    n, whose twists are all integral, its whole validity."""
    try:
        check_rank(n)
    except ValueError as exc:
        return False, _invalid(str(exc))
    return _VALID


def check_model(
    s: BaseSurface,
    bundle,
    pol: Polarization,
    require: str | None = None,
    bound: int | None = None,
    short_circuit: bool = True,
    params: dict | None = None,
) -> ModelRecord:
    """Run the full verification pipeline on one model.

    Validity is the rule of `cybundle check` and of a scan: the bundle's
    (`validate_parts`), then the polarization's (`_refuse_wrong_kind`, and
    for an explicit H the ampleness that `_refuse_unusable_H` asks, read
    from H's minimum degree).  A model that fails it gets the validity
    verdict and nothing after.  A valid model is evaluated as a box of one
    by the walk of every scan (`_pullback` or `_spectral`); the first
    failed stage is `failed_stage`, and a failure stops the run under
    `short_circuit`.  `bound` is accepted and unread: the benchmark
    (bench/child.py) still passes it.
    """
    spectral = isinstance(bundle, SpectralBundle)
    mode = "spectral" if spectral else "pullback"
    head = '{"params":' + _ENCODER.encode(params or {})
    try:
        fiber, eta = validate_parts(s, bundle)
        _refuse_wrong_kind(s, mode, pol)
        terms = _PolTerms(s, pol)
        if pol.H is not None:
            try:  # defined exactly when H is ample
                terms.degree
            except ValueError:  # `_refuse_unusable_H` words the refusal, and leaves
                # an Enriques pullback H outside Gamma^{1,1} to the caller
                _refuse_unusable_H(s, mode, pol.H, "field 'H'")
    except ValueError as exc:
        return ModelRecord(f'{head},"verdicts":{{{_invalid(str(exc))}{_TAILS["validity"]}', "validity")
    nums, dual, den = s.integer_parts(bundle.twist.alpha)
    alpha, pols = _Alpha(s, nums, den, dot(nums, dual), text=""), [(terms, "")]
    lines, counts = [], dict.fromkeys((None, *STAGES), 0)
    if spectral:
        ns = [(bundle.n, head, [(_Spectrum(s, bundle.n, bundle.lam, *eta, bundle.eta.torsion, fiber), "")])]
        _spectral(s, require, ns, [alpha], pols, short_circuit, False, lines, counts, lambda: None)
    else:
        box = [(bundle.n, head, _VALID)], [(int(bundle.twist.x), "")], [alpha], [(bundle.c2E, "")]
        _pullback(s, require, *box, pols, short_circuit, False, lines, counts, lambda: None)
    (failed,) = (stage for stage, count in counts.items() if count)
    return ModelRecord(lines[0], failed)


class _PolTerms:
    """What the stages read of one polarization, worked out once per config
    (or per `check_model`) from the integer parts of H: the class H (None
    for a ray h), its parts H_nums/H_den with H_dual = Gram.H_nums, H^2 for
    an explicit H, the z of the non-split slope (h on F0/dPk, 1 on
    Enriques), the `sign` and `scale` (`windows.window_scale`) of its
    windows and, on first use, the minimum degree (`degree`, which raises
    ValueError if H is not ample, and `degree_text`), memoized in
    attributes set here: under Python 3.11 the first use of a
    `functools.cached_property` takes a lock and writes the instance
    `__dict__`, a cost that `check_model` pays per model.  `stability`
    holds the verdicts so far, by (n, x, a) of a window (a = alpha.c1 on
    F0/dPk, alpha.H on Enriques) and by (n, alpha.H) if spectral; `solves`,
    shared by the polarizations of a scan, windows solved in t.  It has
    passed `_refuse_wrong_kind`."""

    def __init__(self, s: BaseSurface, pol: Polarization, solves: dict | None = None):
        self.s, self.H = s, pol.H
        self.h = pol.h if pol.h is None or type(pol.h) is Fraction else Fraction(pol.h)
        if pol.H is not None:
            self.H_nums, self.H_dual, self.H_den = s.integer_parts(pol.H)
            self.hsq = ratio(dot(self.H_nums, self.H_dual), self.H_den * self.H_den)
            self.sign = (self.hsq > 0) - (self.hsq < 0)
        else:
            # H = h c1 = (p/q) c1 over its least denominator q/k, k = gcd(q, c1)
            p, q = self.h.numerator, self.h.denominator
            k = math.gcd(q, *s.c1_ints)
            self.H_den = q // k
            self.H_nums = [p * (c // k) for c in s.c1_ints]
            self.H_dual = s.dual(self.H_nums)
            self.sign = 1  # h > 0
        self.z = Fraction(1) if s.is_enriques else self.h
        self.scale = window_scale(self.h) if self.H is None else window_scale(hsq=self.hsq)
        self.stability, self.solves = {}, {} if solves is None else solves
        self._degree = self._degree_text = None

    @property
    def degree(self) -> tuple:
        """(value, witness) of the minimum degree of H in ints
        (`BaseSurface.min_degree_parts`)."""
        if self._degree is None:
            self._degree = self.s.min_degree_parts(self.H_nums, self.H_dual, self.H_den)
        return self._degree

    @property
    def degree_text(self) -> str:
        """The end of the spectral stability verdict: min_degree on."""
        if self._degree_text is None:
            value, witness = self.degree
            # no degree query is bounded any more; the key stays until the
            # output format next changes (ROADMAP items 7 and 9)
            witness = _class_text(witness, 1, 0)
            self._degree_text = f'"min_degree":"{value}","witness":{witness},"bound_limited":false}}'
        return self._degree_text


class _Spectrum:
    """What the spectral models of one valid (n, eta, lambda) share, worked
    out once per scan (or `check_model`) from the fiber term of c2(V_n) that
    `check_spectral_parts` returned and the integer parts of eta = nums/den
    (dual = Gram.nums) it read: wB = 12 c1 - eta (x = 0, so it does not
    depend on alpha) as numerators, the anomaly verdict's text up to its af
    (`af_opening`, which holds wB) and, on first use, the effectivity of wB;
    af0, af without n(n+1)/2 alpha^2; `af_offset` = af_displayed - af when
    eta = 12 c1 (else None), also free of alpha, and so `agrees`, the text
    of display_agrees; and resid = eta - n c1 as integer parts (its dual and
    den) with 3 den^2 resid^2."""

    def __init__(self, s: BaseSurface, n: int, lam: Fraction, nums, dual, den: int, torsion: int, fiber: int):
        self.s = s
        self.af0 = s.c2 + 11 * s.c1_sq - fiber
        # wB = 12 c1 - eta over den; 12 c1 carries no torsion
        self.wB_nums = [12 * den * c - a for c, a in zip(s.c1_ints, nums)]
        self.af_opening = _af_opening(_class_text(self.wB_nums, den, torsion))
        self.wB_zero = not torsion and not any(self.wB_nums)
        self.af_offset = self.effective = None
        if self.wB_zero:
            # eta = 12 c1: the readings of the twist alpha = 0, whose zero
            # class is wB; no effectivity query
            zero = DivisorX(0, DivisorClass.zero(s.rank))
            eta = DivisorClass(tuple(12 * c for c in s.c1_ints))
            bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=zero)
            report = spectral_af(s, bundle, AnomalyOutcome(zero.alpha, self.af0, *w_verdict(self.af0, True, None)))
            offset = report.af_displayed - report.af_direct
            self.af_offset = ratio(offset.numerator, offset.denominator)
            self.agrees = _JSON[offset == 0]
        self.resid_dual, self.dual, self.den = _resid_dual(s, n, dual, den), dual, den
        self.resid_sq3 = 3 * dot(_resid(s, n, nums, den), self.resid_dual)

    def wB_effective(self) -> bool:
        if self.effective is None:
            # Gram.(den wB) = 12 den Gram.c1 - dual
            wB_dual = [12 * self.den * g - d for g, d in zip(self.s._c1_dual, self.dual)]
            self.effective = self.s.effective(self.wB_nums, wB_dual)
        return self.effective


class _Alpha:
    """What the blocks of one twist class alpha share, built once per scan
    (or by `check_model`): alpha = nums/den over its least common
    denominator, nums over its live coordinates (`_alphas`; all of them from
    `check_model`) and `tail` the text of the zero rest, '","0' each; the
    given a_sq = den^2 alpha^2; a_c1 = den alpha.c1 and, on Enriques, a_h0 =
    den alpha.(1,1) (else None), nums dotted with Gram.c1 and with Gram.(1,1)
    = (1,1), both of full rank; and, once a block of alpha writes lines, its
    params text, `rows` (`_rows`) and, for x > 0, `slopes` (`_slopes`)."""

    __slots__ = ("nums", "den", "tail", "a_sq", "a_c1", "a_h0", "text", "rows", "slopes")

    def __init__(self, s: BaseSurface, nums, den: int, a_sq: int, tail: str = "", text: str | None = None):
        self.nums, self.den, self.tail, self.a_sq, self.text = nums, den, tail, a_sq, text
        self.a_c1, self.rows, self.slopes = dot(nums, s._c1_dual), None, None
        self.a_h0 = dot(nums, ENRIQUES_H0_INTS) if s.is_enriques else None


def _alpha_text(alpha: _Alpha) -> str:
    if alpha.text is None:
        alpha.text = '"alpha":["' + '","'.join(map(str, alpha.nums)) + alpha.tail + '"],'
    return alpha.text


def _rows(alpha: _Alpha, pols, spectral: bool) -> list:
    """`alpha.rows`: per polarization, (params text, _PolTerms, a, den H_den
    alpha.H), a being the alpha.c1 (pullback ray h) or alpha.H of its
    stability verdicts."""
    if alpha.rows is None:
        _alpha_text(alpha)
        alpha.rows = []
        for pol, text in pols:
            a_h = dot(alpha.nums, pol.H_dual)
            ray = pol.h is not None and not spectral
            a = ratio(alpha.a_c1, alpha.den) if ray else ratio(a_h, alpha.den * pol.H_den)
            alpha.rows.append((text, pol, a, a_h))
    return alpha.rows


def _slopes(alpha: _Alpha) -> list:
    """`alpha.slopes`, for x > 0: per polarization, the verdict of its slope
    (2H - z c1).alpha if > 0, which fails the model whatever chi is, written
    after `_SLOPE`'s opening, else None."""
    if alpha.slopes is None:
        alpha.slopes = []
        for _, pol, _, a_h in alpha.rows:
            # over den * H_den * z_den
            z = pol.z
            num = 2 * a_h * z.denominator - z.numerator * alpha.a_c1 * pol.H_den
            slope = ratio(num, alpha.den * pol.H_den * z.denominator)
            alpha.slopes.append((_SLOPE[0], f'{_SLOPE[1]}{slope}"}}') if slope > 0 else None)
    return alpha.slopes


def _wB_effective(s: BaseSurface, t: int, alpha: _Alpha, wB_nums) -> bool:
    """The effectivity of the pullback wB = c c1 + t alpha, wB_nums = den wB
    over alpha's live coordinates.
    On Enriques c1 is pure 2-torsion, so wB = t alpha up to torsion, and
    den^2 wB^2 = t^2 a_sq and den wB.(1,1) = t a_h0 are O(1); elsewhere it is
    `BaseSurface.effective`."""
    if alpha.a_h0 is None:
        return s.effective(wB_nums)
    return unnodal_effective(t * t * alpha.a_sq, t * alpha.a_h0)


def _emit(terms, models, stability, short_circuit: bool, lines: list, counts: dict) -> None:
    """Append the lines of `models` x `terms`, terms fastest, counted by
    failed stage (None: passed): the one rule of both modes.  A term is
    [params prefix, a failing slope's verdict (else None: chi decides), its
    stability verdict once stability(term) gave it, _PolTerms, key]; a
    model (end, unmet, chi): its text up to the non-split verdict, the stage
    failed so far and the chi verdict (None where no line reads it).  A
    failure stops a model under `short_circuit`; a model that failed
    validity comes from a scan, which always short-circuits."""
    for end, unmet, chi in models:
        if unmet and short_circuit:
            counts[unmet] += len(terms)
            end += _TAILS[unmet]
            lines += [term[0] + end for term in terms]
            continue
        for term in terms:
            prefix, nonsplit = term[0], term[1] or chi
            failed = unmet or (None if nonsplit[0] else "nonsplit")
            if failed is None or not short_circuit:
                verdict = term[2]
                if verdict is None:
                    verdict = term[2] = stability(term)
                failed = failed or (None if verdict[0] else "stability")
                lines.append(f"{prefix}{end},{nonsplit[1]},{verdict[1]}{_TAILS[failed]}")
            else:
                lines.append(f"{prefix}{end},{nonsplit[1]}{_TAILS[failed]}")
            counts[failed] += 1


def _pullback(s, require, ns, xs, alphas, c2Es, pols, short_circuit, drop, lines, counts, flush):
    """`_emit` the pullback box (n, x, alpha, c2E) x `pols`, last fastest,
    into `lines` and `counts`, calling flush() after each block (n, x,
    alpha).  Each axis carries the params text it adds to a line: ns (n,
    the line's head, validity verdict), xs (x, its text), c2Es (c2E, what
    closes the params after it) and pols (_PolTerms, its text).  Under
    `drop`, what fails validity or the requirement gets no line.  Each term
    is worked out where it varies: per n, k or, for an invalid n, its
    models; per (n, x), wB = c c1 + t alpha up to alpha, the chi
    coefficients and the `_CHI` row of x's sign; per alpha, `_Alpha`; per
    block, af0 (af = af0 - c2E), the requirement's cut, wB, its cone query
    where some af >= 0 reads it, the `_ANOMALY` row, chi0 and the prefixes;
    per c2E, af and chi, whose signs pick their verdicts' texts from the rows."""
    width, af_base, c1_ints, lo = len(pols), s.c2 + 11 * s.c1_sq, s.c1_ints, c2Es[0][0]
    for n, head, validity in ns:
        if not validity[0]:
            if drop:
                counts["validity"] += len(xs) * len(alphas) * len(c2Es) * width
                continue
            invalid = [(f'{end},"verdicts":{{{validity[1]}', "validity", None) for _, end in c2Es]
            for x, xtext in xs:
                for alpha in alphas:
                    terms = [[f"{head}{_alpha_text(alpha)}{text}{xtext}"] for _, text in pols]
                    _emit(terms, invalid, None, True, lines, counts)
                    flush()
            continue
        k = n * (n + 1) // 2
        for x, xtext in xs:
            c, t = 12 - k * x * x, 2 * k * x
            torsion = c * s.c1.torsion % 2  # t is even: t alpha has no torsion
            coefficients, chis = chi_line_terms(n, x, s.c1_sq), _CHI[(x > 0) - (x < 0)]
            chi_slope = coefficients[3]
            for alpha in alphas:
                den = alpha.den
                d2 = den * den
                af0 = ratio(af_base * d2 + k * alpha.a_sq, d2)
                kept = c2Es
                if drop:
                    if require == "W_zero":
                        i = af0 - lo
                        kept = c2Es[i : i + 1] if type(i) is int and i >= 0 else ()
                    else:
                        kept = c2Es[: max(0, math.floor(af0) - lo + 1)]
                if kept:
                    wB_nums = [c * den * ci + t * ai for ci, ai in zip(c1_ints, alpha.nums)]
                    wB_zero, effective = not torsion and not any(wB_nums), None
                    # w_verdict reads the cone query of wB at af >= 0 and wB != 0
                    # only; W_zero keeps c2E = af0 if wB = 0, and W_effective
                    # c2E <= floor(af0) if wB is zero or effective
                    if not (wB_zero or af0 < lo or drop and require == "W_zero"):
                        effective = _wB_effective(s, t, alpha, wB_nums)
                    if drop and not (wB_zero or effective and require == "W_effective"):
                        kept = ()
                if drop:
                    counts["anomaly"] += (len(c2Es) - len(kept)) * width
                    if not kept:
                        continue
                opening = _af_opening(_class_text(wB_nums, den, torsion, alpha.tail))
                rows = alpha.rows or _rows(alpha, pols, False)
                slopes = (alpha.slopes or _slopes(alpha)) if x > 0 else repeat(None)
                terms = [
                    [f"{head}{alpha.text}{text}{xtext}", slope, None, pol, (n, x, a)]
                    for (text, pol, a, _), slope in zip(rows, slopes)
                ]
                reads_chi = x <= 0 or None in slopes
                chi0, models = chi_line_at(coefficients, alpha.a_sq, alpha.a_c1, den), []
                anomaly = _ANOMALY[require, wB_zero, effective]  # by sign of af
                for c2E, end in kept:
                    af = af0 - c2E
                    unmet, flags, close = anomaly[(af > 0) - (af < 0)]
                    chi = None
                    if reads_chi and not (unmet and short_circuit):
                        value = chi0 - chi_slope * c2E
                        passed, chi_opening = chis[(value > 0) - (value < 0)]
                        try:
                            chi = passed, f'{chi_opening}{value}"}}'
                        except ValueError:
                            raise jsonio.unprintable("chi", "'n', 'x', 'alpha' or 'c2E'") from None
                    models.append((f"{end}{opening}{af}{flags}{close}", unmet, chi))
                _emit(terms, models, _window, short_circuit, lines, counts)
                flush()


def _window(term) -> tuple:
    """The stability verdict of a pullback term: its window at (n, x, a),
    solved once per (n, x, a) for all the polarizations of a scan."""
    pol, key = term[3], term[4]
    verdict = pol.stability.get(key)
    if verdict is None:
        n, x, a = key
        solved = pol.solves.get((n, x, a, pol.sign))
        if solved is None:
            solved = solve_delpezzo(n, x, a, pol.s.c1_sq) if pol.h else solve_enriques(n, x, a, pol.sign)
            pol.solves[n, x, a, pol.sign] = solved
        verdict = pol.stability[key] = solved[3], '"stability":' + _window_text(solved, pol.scale)
    return verdict


def _spectral_window(term) -> tuple:
    """The stability verdict of a spectral term, 0 < n alpha.H <
    (Lambda.H)_min, once per (n, alpha.H), as `windows.spectral_stability_check`
    decides it and the encoder writes it: alpha.H and the minimum degree
    are ints where integral (`ratio`), printed through str() as
    `jsonio.frac_to_str` prints them."""
    pol, key = term[3], term[4]
    verdict = pol.stability.get(key)
    if verdict is None:
        n, a = key
        passed = 0 < n * a < pol.degree[0]
        verdict = pol.stability[key] = passed, (
            f'"stability":{{"passed":{_JSON[passed]},"alpha_H":"{a}","n_alpha_H":"{n * a}",' + pol.degree_text
        )
    return verdict


def _spectral(s, require, ns, alphas, pols, short_circuit, drop, lines, counts, flush):
    """`_emit` the spectral box (n, alpha, (eta, lambda)) x `pols`, last
    fastest, into `lines` and `counts`, calling flush() after each block (n,
    alpha).  ns: (n, the line's head, its models as `_spectra` gives
    them); pols: (_PolTerms, its params text).  Under `drop`, what fails
    validity or the requirement gets no line.  Each term is worked out
    where it varies: per n, k; per (n, alpha), k alpha^2 and the terms; per
    model, af, the `_ANOMALY` text after it by sign of af (at af >= 0 with
    wB != 0, after the `_Spectrum`'s cone query), both af readings if eta =
    12 c1, and the non-split verdict 3/2 resid^2 - (n+1) alpha.resid > 0."""
    width = len(pols)
    for n, head, spectra in ns:
        k, m = n * (n + 1) // 2, 2 * (n + 1)
        for alpha in alphas:
            den, models = alpha.den, []
            d2, k_a_sq = den * den, k * alpha.a_sq
            for spectrum, end in spectra:
                if spectrum is None:
                    if drop:
                        counts["validity"] += width
                    else:
                        models.append(end)
                    continue
                af = ratio(spectrum.af0 * d2 + k_a_sq, d2)
                sign = (af > 0) - (af < 0)
                # the cone query of wB, asked at af >= 0 and wB != 0 only, as by w_verdict
                effective = None if sign < 0 or spectrum.wB_zero else spectrum.wB_effective()
                unmet, flags, close = _ANOMALY[require, spectrum.wB_zero, effective][sign]
                if drop and unmet:
                    counts["anomaly"] += width
                    continue
                readings = ""
                try:
                    if spectrum.af_offset is not None:
                        readings = (
                            f',"af_displayed":"{af + spectrum.af_offset}","af_direct":"{af}"'
                            f',"display_agrees":{spectrum.agrees}'
                        )
                    text = f"{end}{spectrum.af_opening}{af}{flags}{readings}{close}"
                except ValueError:  # str() refused an af past the digit limit
                    raise jsonio.unprintable("af", "'n', 'eta', 'lambda' or 'alpha'") from None
                chi = None
                if not (unmet and short_circuit):
                    # 3/2 resid^2 - (n+1) alpha.resid over 2 den rd^2, rd eta's den
                    rd = spectrum.den
                    p = dot(alpha.nums, spectrum.resid_dual)
                    value = ratio(spectrum.resid_sq3 * den - m * p * rd, 2 * den * rd * rd)
                    chi = value > 0, f'{_SPECTRAL_CHI[value > 0]}{value}"}}'
                models.append((text, unmet, chi))
            if not models:
                continue
            rows = alpha.rows or _rows(alpha, pols, True)
            terms = [[f"{head}{alpha.text}{text}", None, None, pol, (n, a)] for text, pol, a, _ in rows]
            _emit(terms, models, _spectral_window, short_circuit, lines, counts)
            flush()


# ---------------------------------------------------------------------------
# search configs and enumeration


@dataclass
class SearchConfig:
    base: str
    mode: str  # "pullback" | "spectral"
    n_range: tuple
    x_values: tuple = (0,)
    alpha_box: tuple = ()
    c2E_range: tuple | None = None
    eta_box: tuple | None = None
    lambda_values: tuple = ()
    H_values: tuple = ()
    h_values: tuple = ()
    require: str | None = None
    # validated, then unread: no query enumerates any more, and the
    # benchmark (bench/child.py) still passes it to check_model
    bound: int | None = None
    limit: int | None = None

    @staticmethod
    def from_json(obj: dict) -> "SearchConfig":
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        for key in ("base", "mode", "n_range"):
            if key not in obj:
                raise ValueError(f"config missing required field '{key}'")
        mode = obj["mode"]
        if mode not in ("pullback", "spectral"):
            raise ValueError(f"field 'mode' must be 'pullback' or 'spectral', got {mode!r}")
        if "x_values" in obj:
            x_values = _int_list(obj["x_values"], "x_values")
        elif "x_range" in obj:
            x_values = tuple(_axis(_int_pair(obj["x_range"], "x_range"), "x_range"))
        else:
            x_values = (0,)
        _surface(obj["base"])  # an unknown base is refused before scanning
        return SearchConfig(
            base=str(obj["base"]),
            mode=mode,
            n_range=_int_pair(obj["n_range"], "n_range"),
            x_values=x_values,
            alpha_box=_int_pairs(obj.get("alpha_box", []), "alpha_box"),
            c2E_range=_int_pair(obj["c2E_range"], "c2E_range") if "c2E_range" in obj else None,
            eta_box=_int_pairs(obj["eta_box"], "eta_box") if "eta_box" in obj else None,
            lambda_values=_frac_list(obj.get("lambda_values", []), "lambda_values"),
            H_values=tuple(_int_list(v, "H_values") for v in _list(obj.get("H_values", []), "H_values")),
            h_values=_frac_list(obj.get("h_values", []), "h_values"),
            require=_require(obj.get("require")),
            bound=_nonnegative_int(obj["bound"], "bound") if "bound" in obj else None,
            limit=_nonnegative_int(obj["limit"], "limit") if obj.get("limit") is not None else None,
        )


def _list(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config field '{name}' must be a list, got {value!r}")
    return value


# _surface, _int, _require, _refuse_wrong_kind and _refuse_unusable_H also
# check the fields of a `check` model file.


def _surface(value) -> BaseSurface:
    try:
        return make_base(str(value))
    except ValueError as exc:
        raise ValueError(f"field 'base': {exc}") from None


def _int(value, name: str) -> int:
    # bool is an int subclass; int() would truncate floats and parse strings
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{name}' must hold integers, got {value!r}")
    jsonio.refuse_too_many_digits(value, name=name)
    return value


def _nonnegative_int(value, name: str) -> int:
    if _int(value, name) < 0:
        raise ValueError(f"field '{name}' must be non-negative, got {value!r}")
    return value


def _require(value):
    if value not in (None, "W_zero", "W_effective"):
        raise ValueError(f"field 'require' must be 'W_zero', 'W_effective' or null, got {value!r}")
    return value


def _refuse_wrong_kind(s: BaseSurface, mode: str, pol: Polarization, in_config=False) -> None:
    """The polarization rule of a `mode` model on `s`, and h > 0.

    Enriques models take H: there H = h c1 is pure 2-torsion, never ample.
    On F0 and dPk, where H = h c1 is ample exactly when h > 0, a pullback
    model takes h, which its non-split stage reads, and a spectral model
    exactly one of h and H.  Fields are named as in a `check` model file, or
    under `in_config` as in a search config.
    """
    suffix, where = ("_values", "config field") if in_config else ("", "field")
    needed, other = ("H", "h") if s.is_enriques else ("h", "H")
    if getattr(pol, other) is not None and (s.is_enriques or mode == "pullback"):
        raise ValueError(
            f"{where} '{other}{suffix}' does not apply to {mode} models"
            f" on base {s.kind}, which take {needed}{suffix}"
        )
    if pol.H is None and pol.h is None:
        if s.is_enriques:
            need = f"Enriques {mode} models need an explicit polarization H"
        elif mode == "pullback":
            need = "pullback models on a -K-ample base need the ray parameter h"
        else:
            need = "spectral models need a polarization (H or h)"
        raise ValueError(f"field 'polarization': {need}")
    if pol.H is not None and pol.h is not None:
        raise ValueError(f"field 'polarization': {mode} models on base {s.kind} take exactly one of h and H")
    if pol.h is not None and pol.h <= 0:
        raise ValueError(f"field 'h{suffix}' must be positive, got {jsonio.frac_to_str(pol.h)!r}")


def _refuse_unusable_H(s: BaseSurface, mode: str, H: DivisorClass, where: str) -> None:
    """Refuse an H that is not ample and, as the spectral stability stage
    needs H ample, a spectral H whose ampleness is undecided."""
    ample = s.cone_position(H).ample
    if ample is False or (ample is None and mode == "spectral"):
        status = "not" if ample is False else "not known to be"
        raise ValueError(f"{where} is {status} ample on base {s.kind}")


def _int_list(value, name: str) -> tuple:
    return tuple(_int(v, name) for v in _list(value, name))


def _int_pair(value, name: str) -> tuple:
    if len(_list(value, name)) != 2:
        raise ValueError(f"config field '{name}' must be a pair [lo, hi], got {value!r}")
    return _int_list(value, name)


def _int_pairs(value, name: str) -> tuple:
    return tuple(_int_pair(pair, name) for pair in _list(value, name))


def _axis(pair: tuple, name: str) -> range:
    if pair[1] - pair[0] >= sys.maxsize:
        raise ValueError(f"config field '{name}' spans more than {sys.maxsize} values")
    return range(pair[0], pair[1] + 1)


def _frac_list(value, name: str) -> tuple:
    return tuple(jsonio.frac_field(v, name) for v in _list(value, name))


def _axes(config: SearchConfig, s: BaseSurface) -> tuple:
    """(axes, pols): axes = (block_axes, inner), the sized axes, last
    fastest, of the blocks (n, x, alpha_box; or n, alpha_box) and of their
    models (c2E; or eta_box, lambda), or None for a box with an empty axis;
    pols, the polarizations (_PolTerms, params text), H_values first and
    sharing one table of window solves.  Refuses, naming its fields, a class
    with more coordinates than the base rank, a polarization of the wrong
    kind or not ample, and an axis or a count of pullback blocks (spectral
    models) past sys.maxsize."""
    classes = [("alpha_box", config.alpha_box), ("eta_box", config.eta_box or ())]
    for name, coords in classes + [("H_values", vec) for vec in config.H_values]:
        if len(coords) > s.rank:
            raise ValueError(
                f"config field '{name}' has {len(coords)} entries"
                f" but base {s.kind} has rank {s.rank}"
            )
    alpha = [_axis(pair, "alpha_box") for pair in config.alpha_box]
    n = _axis(config.n_range, "n_range")
    if config.mode == "pullback":
        if config.c2E_range is None:
            raise ValueError("config missing field 'c2E_range', which pullback searches need")
        block_axes, inner = [n, config.x_values, *alpha], [_axis(config.c2E_range, "c2E_range")]
    else:
        eta = [_axis(pair, "eta_box") for pair in config.eta_box or ()]
        block_axes, inner = [n, *alpha], [*eta, config.lambda_values or (Fraction(0),)]
    # a box with an empty axis has no block
    per_block = math.prod(map(len, inner))
    blocks = math.prod(map(len, block_axes)) if per_block else 0
    if blocks * (1 if config.mode == "pullback" else per_block) > sys.maxsize:
        fields = "'x_values'" if config.mode == "pullback" else "'eta_box', 'lambda_values'"
        raise ValueError(f"config fields 'n_range', 'alpha_box', {fields} give more than {sys.maxsize} blocks")
    pols, solves = [], {}
    for vec in config.H_values:
        pol = Polarization(H=DivisorClass(vec + (0,) * (s.rank - len(vec))))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        _refuse_unusable_H(s, config.mode, pol.H, f"config field 'H_values' entry {list(vec)}")
        pols.append((_PolTerms(s, pol, solves), f'"H":[{",".join(map(str, vec))}],'))
    for h in config.h_values:
        pol = Polarization(h=Fraction(h))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        pols.append((_PolTerms(s, pol, solves), f'"h":"{jsonio.frac_to_str(h)}",'))
    if not pols:
        raise ValueError("config field 'H_values' or 'h_values' must list a polarization")
    return ((block_axes, inner) if blocks else None), pols


def _alphas(s: BaseSurface, axes) -> list:
    """The `_Alpha` (den = 1) of each point of the alpha box, in order, over
    its live coordinates: the box's, widened to cover c1's support and to
    one at least.  That is the full rank on F0 and dPk, and the box's on
    Enriques, where c1 is pure torsion.  alpha^2 comes from the Gram block
    of those coordinates, and no alpha takes a `BaseSurface.dual`.  The
    points come from product(), which holds each axis whole: the list of
    alphas is at least as long as any axis, and an empty box never gets
    here (`_axes`)."""
    width = max(len(axes), 1, *(i + 1 for i, c in enumerate(s.c1_ints) if c))
    # alpha^2 = sum of q alpha_i alpha_j over the block's nonzero entries, i <= j
    rows = enumerate(s._gram_rows[:width])
    quad = [(i, j, g if i == j else 2 * g) for i, row in rows for j, g in row if i <= j < width]
    pad, tail = (0,) * (width - len(axes)), '","0' * (s.rank - width)
    nums = (point + pad for point in product(*axes))
    return [_Alpha(s, vec, 1, sum([q * vec[i] * vec[j] for i, j, q in quad]), tail) for vec in nums]


def _spectra(s: BaseSurface, n: int, inner) -> list:
    """The models of n's (eta, lambda), in enumeration order, as `_spectral`
    reads them: (`_Spectrum`, what closes the params after the
    polarization) for a valid model, (None, (its whole text after the
    params, "validity", None)) for an invalid one, the same for every
    alpha.  Validity is that of the zero twist, as every twist of the box
    is integral: n's `_rank_validity`, then, for a valid n,
    `check_spectral_parts` on eta's ints, taken once per eta of
    product(*eta axes).  The params text is written by hand."""
    models, rank = [], _rank_validity(n)
    *etas, lams = inner
    lams = [(lam, f'"],"lambda":"{lam}"}}') for lam in lams]
    for eta in product(*etas):
        # without eta_box, eta = 12 c1 (on Enriques c1 is pure 2-torsion, so 0)
        nums = eta + (0,) * (s.rank - len(eta)) if eta else tuple(12 * c for c in s.c1_ints)
        dual, text = s.dual(nums), '"eta":["' + '","'.join(map(str, nums))
        for lam, lam_text in lams:
            validity = rank[1]
            if rank[0]:
                try:
                    fiber = check_spectral_parts(s, n, lam, (nums, dual, 1), 0)
                except ValueError as exc:
                    validity = _invalid(str(exc))
                else:
                    models.append((_Spectrum(s, n, lam, nums, dual, 1, 0, fiber), text + lam_text))
                    continue
            models.append((None, (f'{text}{lam_text},"verdicts":{{{validity}', "validity", None)))
    return models


_WRITE_RUN = 256  # lines per write of `run_search`, at least: the box's text is never held whole


def run_search(config: SearchConfig, jobs: int = 1, out=None):
    """Scan the whole box; write JSONL records to `out`; return the summary.

    `config.limit` caps the records written; the summary still counts the
    whole box.  `jobs` is accepted and unread: every scan runs in the
    calling process, so the output cannot depend on it (README.md).
    The walk (`_pullback` or `_spectral`) calls flush() after each block,
    which writes once `_WRITE_RUN` lines or more are held.
    """
    s = make_base(config.base)
    axes, pols = _axes(config, s)
    lines, counts, emitted = [], dict.fromkeys((None, *STAGES), 0), 0

    def flush(run: int = _WRITE_RUN) -> None:
        """Once `run` lines or more are held, write them, up to `config.limit`
        in all, and drop them."""
        nonlocal emitted
        if len(lines) < run:
            return
        kept = lines if config.limit is None else lines[: max(0, config.limit - emitted)]
        if out is not None and kept:
            out.write("\n".join(kept) + "\n")
        emitted += len(kept)
        lines.clear()

    if axes:  # a box with an empty axis has no block
        (ns, *alpha), inner = axes
        require, drop = config.require, config.require is not None
        heads = ((n, f'{{"params":{{"base":"{s.kind}","n":{n},') for n in ns)
        if config.mode == "pullback":
            xs, *alpha = alpha
            xs = [(x, f'"x":{x},"c2E":') for x in xs]
            ns = ((n, head, _rank_validity(n)) for n, head in heads)
            c2Es = [(c2E, f"{c2E}}}") for c2E in inner[0]]
            _pullback(s, require, ns, xs, _alphas(s, alpha), c2Es, pols, True, drop, lines, counts, flush)
        else:
            ns = ((n, head, _spectra(s, n, inner)) for n, head in heads)
            _spectral(s, require, ns, _alphas(s, alpha), pols, True, drop, lines, counts, flush)
    flush(0)
    summary = {
        "scanned": sum(counts.values()),
        "passed": counts[None],
        "stage_failures": {stage: counts[stage] for stage in STAGES},
        "emitted": emitted,
    }
    if out is not None:
        out.write("# " + _ENCODER.encode(summary) + "\n")
    return summary
