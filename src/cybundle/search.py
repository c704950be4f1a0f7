"""Exhaustive model scans: validity -> anomaly -> non-split -> stability.

Search configs describe finite integer boxes; enumeration is lexicographic
and the JSONL output is deterministic for any worker count.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat

from . import jsonio
from .anomaly import AnomalyOutcome, spectral_af, w_verdict
from .bundles import PullbackBundle, SpectralBundle, _resid, validate_bundle
from .nonsplit import chi_line, nonsplit_verdict
from .ring import DivisorX
from .surfaces import BaseSurface, DivisorClass, MinDegree, dot, make_base, ratio
from .windows import solve_delpezzo, solve_enriques, spectral_stability, window_scale, z_approx

STAGES = ("validity", "anomaly", "nonsplit", "stability")

# The stages run on exact scalars: ints where integral and Fractions
# otherwise, worked out over the least common denominator of the classes
# they pair (`BaseSurface.integer_parts`); the spectral af starts from the
# fiber term that `validate_bundle` returns.  The public Fraction functions
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
# hand, anything else (an error message, a window's floats) by the encoder.
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


def _invalid(error: str) -> tuple:
    """(passed, text) of a validity verdict that fails with `error`."""
    return False, '"validity":' + _ENCODER.encode({"passed": False, "error": error})


def _class_text(coeffs, torsion: int) -> str:
    """The JSON text of the class with these coefficients (`jsonio.divisor_to_json`)."""
    strings = '","'.join(map(jsonio.frac_to_str, coeffs))
    return f'{{"coeffs":["{strings}"],"torsion":{torsion}}}'


def _nonsplit_text(passed: bool, clause: str, value) -> tuple:
    """(passed, text) of a non-split verdict."""
    return passed, (
        f'"nonsplit":{{"passed":{_JSON[passed]},"clause":"{clause}","value":"{jsonio.frac_to_str(value)}"}}'
    )


def _quotient(p: int, q: int) -> str:
    """The JSON string of p/q, q > 0, as `jsonio.frac_to_str` writes the Fraction."""
    g = math.gcd(p, q)
    return f'"{p // g}"' if g == q else f'"{p // g}/{q // g}"'


def _window_text(solved, scale: tuple) -> str:
    """The stability verdict of the window `solved` in t (`windows.solve_*`)
    at `scale`, as the encoder writes {**window_to_json(w), "passed": ...} of
    w = `windows.window_at(solved, scale)`, with no Fraction: only the
    z_interval_approx floats go through the encoder."""
    lo, hi, binding, nonempty = solved
    variable, num, den, _ = scale
    ends = ["null" if end is None else _quotient(end[0] * num, end[1] * den) for end in (lo, hi)]
    names = '"' + '","'.join(binding) + '"' if binding else ""
    approx = z_approx(solved, scale)
    approx = "" if approx is None else ',"z_interval_approx":' + _ENCODER.encode([round(v, 12) for v in approx])
    nonempty = _JSON[nonempty]
    return (
        f'{{"variable":"{variable}","lower":{ends[0]},"upper":{ends[1]},"nonempty":{nonempty},'
        f'"binding":[{names}]{approx},"passed":{nonempty}}}'
    )


def _validity(s: BaseSurface, bundle) -> tuple:
    """((passed, text), fiber): the validity verdict of `validate_bundle`
    and, for valid spectral data, the fiber term it returned (else None)."""
    try:
        return _VALID, validate_bundle(s, bundle)
    except ValueError as exc:
        return _invalid(str(exc)), None


def _zero_twist(s: BaseSurface) -> DivisorX:
    return DivisorX(0, DivisorClass.zero(s.rank))


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

    The model is evaluated as a block of one by `_Block.scan`, the path of
    every scan, with the validity verdict of its own bundle and
    polarization; the first failed stage is `failed_stage`.  A failure stops
    the run under `short_circuit`, a validity failure always.  `bound` is
    accepted and unread: the benchmark (bench/child.py) still passes it.
    """
    alpha = bundle.twist.alpha
    # alpha of the wrong rank fails validity, and the block reads no alpha
    alpha = _Alpha(s, *s.integer_parts(alpha)) if alpha.rank == s.rank else None
    validity, fiber = _validity(s, bundle)
    if isinstance(bundle, SpectralBundle):
        spectrum = _Spectrum(s, bundle.n, bundle.eta, bundle.lam, fiber) if validity[0] else None
        block, mode, model, data = _SpectralBlock, "spectral", (spectrum, validity), None
    else:
        block, mode, model, data = _PullbackBlock, "pullback", bundle.c2E, bundle.twist.x
    try:
        _refuse_wrong_kind(s, mode, pol)
        terms = _PolTerms(s, pol)
        if validity[0] and mode == "spectral":
            try:  # the stability stage reads it and needs H ample
                terms.min_degree
            except ValueError:  # not ample, which `_refuse_unusable_H` decides alike and raises
                _refuse_unusable_H(s, mode, pol.H, "field 'H'")
    except ValueError as exc:
        # a valid bundle fails validity with a polarization of the wrong kind
        # or, if spectral, with an H that is not ample
        terms = None
        if validity[0]:
            validity = _invalid(str(exc))
    block = block(s, require, bundle.n, validity, alpha, data)
    lines, counts = [], dict.fromkeys((None, *STAGES), 0)
    head = '{"params":' + _ENCODER.encode(params or {})
    block.scan([(model, "")], [(terms, "")], head, "", short_circuit, False, lines, counts)
    (failed,) = (stage for stage, count in counts.items() if count)
    return ModelRecord(lines[0], failed)


class _PolTerms:
    """What the stages read of one polarization, worked out once per config
    (or per `check_model`): the class H (None for a ray h), the integer
    parts of H, H^2 for an explicit H, the z of the non-split slope (h on
    F0/dPk, 1 on Enriques), the `scale` and `sign` of its windows and, on
    first use, the minimum degree.  `stability` holds the verdicts so far,
    by (n, x, a) of a window (a = alpha.c1 on F0/dPk, alpha.H on Enriques)
    and by (n, alpha.H) if spectral; `solves`, shared by the polarizations of
    a scan, windows solved in t.  It has passed `_refuse_wrong_kind`."""

    def __init__(self, s: BaseSurface, pol: Polarization, solves: dict | None = None):
        self.s, self.H = s, pol.H
        self.h = None if pol.h is None else Fraction(pol.h)
        if pol.H is not None:
            nums, self.H_dual, self.H_den = s.integer_parts(pol.H)
            self.hsq = ratio(dot(nums, self.H_dual), self.H_den * self.H_den)
            self.scale, self.sign = window_scale(hsq=self.hsq), (self.hsq > 0) - (self.hsq < 0)
        else:
            # H = h c1 = (p/q) c1 over its least denominator q/k, k = gcd(q, c1)
            p, q = self.h.numerator, self.h.denominator
            k = math.gcd(q, *s.c1_ints)
            self.H_den = q // k
            self.H_dual = s.dual([p * (c // k) for c in s.c1_ints])
            self.scale, self.sign = window_scale(self.h), 1  # h > 0
        self.z = Fraction(1) if s.is_enriques else self.h
        self.stability, self.solves = {}, {} if solves is None else solves

    @cached_property
    def min_degree(self) -> MinDegree:
        if self.H is not None:
            return self.s.min_positive_degree(self.H)
        # H = h c1 with h > 0 scales every generator degree by h: the minimum
        # is h times that of c1, with the same witness and tie-break
        md = self.s.min_positive_degree(self.s.c1)
        return MinDegree(self.h * md.value, md.witness)

    @cached_property
    def min_degree_text(self) -> str:
        """The end of the spectral stability verdict: min_degree on."""
        md = self.min_degree
        witness = _class_text(md.witness.coeffs, md.witness.torsion)
        # no degree query is bounded any more; the key stays until the
        # output format next changes (ROADMAP items 7 and 9)
        return f'"min_degree":"{jsonio.frac_to_str(md.value)}","witness":{witness},"bound_limited":false}}'


class _Spectrum:
    """What the spectral models of one valid (n, eta, lambda) share, worked
    out once per scan (or `check_model`) from the fiber term of c2(V_n) that
    `validate_bundle` returned and eta = nums/den: wB = 12 c1 - eta (x = 0,
    so it does not depend on alpha) as numerators with its JSON text and, on
    first use, its effectivity; af0, af without n(n+1)/2 alpha^2;
    `af_offset` = af_displayed - af when eta = 12 c1 (else None), also free
    of alpha; and resid = eta - n c1 as integer parts with 3 den^2 resid^2."""

    def __init__(self, s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction, fiber: Fraction):
        self.s = s
        self.af0 = s.c2 + 11 * s.c1_sq - fiber.numerator  # the fiber term is integral
        nums, _, den = s.integer_parts(eta)
        # wB = 12 c1 - eta over den; 12 c1 carries no torsion
        self.wB_nums = [12 * den * c - a for c, a in zip(s.c1_ints, nums)]
        self.wB_text = _class_text([ratio(w, den) for w in self.wB_nums], eta.torsion)
        self.wB_zero = not eta.torsion and not any(self.wB_nums)
        self.af_offset = None
        if self.wB_zero:
            # eta = 12 c1: the readings of the twist alpha = 0, whose zero
            # class is wB; no effectivity query
            zero = _zero_twist(s)
            bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=zero)
            report = spectral_af(s, bundle, AnomalyOutcome(zero.alpha, self.af0, *w_verdict(self.af0, True, None)))
            offset = report.af_displayed - report.af_direct
            self.af_offset = ratio(offset.numerator, offset.denominator)
        resid = _resid(s, n, nums, den)
        self.resid_dual, self.resid_den = s.dual(resid), den
        self.resid_sq3 = 3 * dot(resid, self.resid_dual)

    @cached_property
    def wB_effective(self) -> bool:
        return self.s.effective(self.wB_nums)


class _Alpha:
    """What the blocks of one twist class alpha share, kept in the `alphas`
    table of one `_scan` (or built by `check_model`): alpha = nums/den over
    its least common denominator, dual = Gram.nums, a_sq = den^2 alpha^2,
    a_c1 = den alpha.c1, its params text and, filled at line time,
    `slopes`: per polarization, the non-split verdict of an x > 0 model
    whose slope (2H - z c1).alpha fails, or None where the slope does not
    fail."""

    __slots__ = ("nums", "dual", "den", "a_sq", "text", "a_c1", "slopes")

    def __init__(self, s: BaseSurface, nums, dual, den: int, text: str = ""):
        self.nums, self.dual, self.den, self.text = nums, dual, den, text
        self.a_sq, self.a_c1, self.slopes = dot(nums, dual), dot(dual, s.c1_ints), {}


class _Block:
    """The invariants of a run of the box in which only the fastest axes
    vary: a pullback block per (n, x, alpha), a model per c2E, and a spectral
    one per (n, alpha), a model per (eta, lambda); polarizations fastest.
    Built from n, validity (`_validity`), `_Alpha` and `data` (a pullback
    twist's x); an invalid block works out nothing else.  A subclass gives
    `scan` the models meeting the requirement (`_run`), what only lines read
    (`_line_terms`) and verdicts (passed, '"key":{...}'): `_anomaly` per
    model, as (failed stage, text after the params); `_slope` per
    polarization, a failing slope's non-split verdict (else None); `_chi` per
    model, the one the other polarizations share; `_stability` per polarization."""

    def __init__(self, s: BaseSurface, require: str | None, n: int, validity: tuple, alpha: _Alpha, data):
        self.s, self.require, self.n, self.validity = s, require, n, validity
        if validity[0]:
            self.alpha = alpha
            self._invariants(data)

    def scan(self, models, pols, head: str, tail: str, short_circuit: bool, drop: bool, lines, counts) -> None:
        """Append the JSONL lines of the block's models times `pols`
        ((_PolTerms, text), fastest) to `lines`, counted in `counts` by failed
        stage (None if passed).  `models`: (key, end); a line opens with head
        + text + tail + end.  A failure stops a model under `short_circuit`, a
        validity failure always; under `drop` one failing validity or the
        requirement gets no line."""
        if not self.validity[0]:
            counts["validity"] += len(models) * len(pols)
            if not drop:
                rest = ',"verdicts":{' + self.validity[1] + _TAILS["validity"]
                lines += [head + text + tail + end + rest for _, end in models for _, text in pols]
            return
        if drop:
            models = self._run(models, counts, len(pols))
            if not models:
                return
        self._line_terms()
        # per polarization: its params prefix, the verdict of a slope that
        # fails (else None: chi decides) and, once asked, its stability verdict
        terms = [[head + text + tail, self._slope(pol), None, pol] for pol, text in pols]
        for key, end in models:
            unmet, opening = self._anomaly(key)
            end += opening
            if unmet and (short_circuit or unmet == "validity"):
                counts[unmet] += len(terms)
                lines += [term[0] + end + _TAILS[unmet] for term in terms]
                continue
            chi = None
            for term in terms:
                prefix, nonsplit, stability, pol = term
                if nonsplit is None:
                    nonsplit = chi = chi or self._chi(key)
                failed = unmet or (None if nonsplit[0] else "nonsplit")
                if failed is None or not short_circuit:
                    if stability is None:
                        stability = term[2] = self._stability(pol)
                    failed = failed or (None if stability[0] else "stability")
                    lines.append(f"{prefix}{end},{nonsplit[1]},{stability[1]}{_TAILS[failed]}")
                else:
                    lines.append(f"{prefix}{end},{nonsplit[1]}{_TAILS[failed]}")
                counts[failed] += 1

    def _line_terms(self) -> None:
        pass

    def _slope(self, pol) -> None:
        return None

    def _meets(self, w_zero: bool, w_effective: bool) -> bool:
        require = self.require
        return require is None or (w_zero if require == "W_zero" else w_effective)

    def _anomaly_verdict(self, wb_text: str, af, w_zero: bool, w_effective: bool, readings: str = "") -> tuple:
        """(None or "anomaly", text after the params) of a valid model;
        `readings`, the text of the two af readings, go before "passed"."""
        passed = self._meets(w_zero, w_effective)
        return None if passed else "anomaly", (
            f'{_OPEN}"anomaly":{{"wB":{wb_text},"af":"{jsonio.frac_to_str(af)}","W_zero":{_JSON[w_zero]},'
            f'"W_effective":{_JSON[w_effective]}{readings},"passed":{_JSON[passed]}}}'
        )

    def _alpha_H(self, pol: _PolTerms):
        return ratio(dot(self.alpha.nums, pol.H_dual), self.alpha.den * pol.H_den)


class _PullbackBlock(_Block):
    """Per block: af0 (af = af0 - c2E) and wB over den; for lines, the terms
    of `_line_terms`; if some af >= 0 asks, whether wB is effective.  Per
    c2E: the anomaly verdict and the chi verdict.  Per (alpha,
    polarization), for x > 0: the slope verdict.  Per polarization: the
    stability window, solved once per (n, x, a) for all of them."""

    def _invariants(self, x) -> None:
        s, n, alpha = self.s, self.n, self.alpha
        self.x = x = int(x)
        den = alpha.den
        d2, k = den * den, n * (n + 1) // 2
        self.af0 = ratio((s.c2 + 11 * s.c1_sq) * d2 + k * alpha.a_sq, d2)
        # wB = (12 - k x^2) c1 + 2 k x alpha, over den
        c, t = 12 - k * x * x, 2 * k * x
        self.wB_nums = [c * den * ci + t * ai for ci, ai in zip(s.c1_ints, alpha.nums)]
        self.wB_torsion = c * s.c1.torsion % 2  # t is even: t alpha has no torsion
        self.wB_zero = not self.wB_torsion and not any(self.wB_nums)

    @cached_property
    def wB_effective(self) -> bool:
        return self.s.effective(self.wB_nums)

    def _run(self, models, counts, width: int) -> list:
        """The models meeting the requirement, the others counted as anomaly
        failures: af = af0 - c2E, so W_zero keeps c2E = af0 if wB = 0, and
        W_effective c2E <= floor(af0) if wB is zero or effective."""
        lo = models[0][0]
        if self.require == "W_zero":
            i = self.af0 - lo
            kept = models[i : i + 1] if self.wB_zero and type(i) is int and i >= 0 else []
        else:
            stop = max(0, math.floor(self.af0) - lo + 1)
            kept = models[:stop] if stop and (self.wB_zero or self.wB_effective) else []
        counts["anomaly"] += (len(models) - len(kept)) * width
        return kept

    def _line_terms(self) -> None:
        """chi0, chi_slope and the text of wB."""
        s, den = self.s, self.alpha.den
        self.chi0, self.chi_slope = chi_line(self.n, self.x, self.alpha.a_sq, self.alpha.a_c1, den, s.c1_sq)
        self.wB_text = _class_text([ratio(w, den) for w in self.wB_nums], self.wB_torsion)

    def _anomaly(self, c2E) -> tuple:
        af = self.af0 - c2E
        return self._anomaly_verdict(self.wB_text, af, *w_verdict(af, self.wB_zero, lambda: self.wB_effective))

    def _slope(self, pol):
        """For x > 0, the verdict of pol's slope (2H - z c1).alpha if it is
        > 0, which fails the model whatever chi is; None otherwise."""
        if self.x <= 0:
            return None
        slopes = self.alpha.slopes
        if pol in slopes:
            return slopes[pol]
        # over den * H_den * z_den
        alpha, z = self.alpha, pol.z
        num = 2 * dot(alpha.nums, pol.H_dual) * z.denominator - z.numerator * alpha.a_c1 * pol.H_den
        slope = ratio(num, alpha.den * pol.H_den * z.denominator)
        verdict = None
        if slope > 0:
            ns = nonsplit_verdict(self.x, slope, None)
            verdict = _nonsplit_text(ns.passed, ns.clause, ns.value)
        slopes[pol] = verdict
        return verdict

    def _chi(self, c2E) -> tuple:
        """The verdict of chi at c2E, which every slope that does not fail
        leaves to chi (0 stands for such a slope), refused if unprintable."""
        ns = nonsplit_verdict(self.x, 0 if self.x > 0 else None, self.chi0 - self.chi_slope * c2E)
        try:
            return _nonsplit_text(ns.passed, ns.clause, ns.value)
        except ValueError:
            raise jsonio.unprintable("chi", "'n', 'x', 'alpha' or 'c2E'") from None

    def _stability(self, pol) -> tuple:
        n, x = self.n, self.x
        # an Enriques pullback model takes H, one on F0/dPk a ray h
        a = self._alpha_H(pol) if pol.h is None else ratio(self.alpha.a_c1, self.alpha.den)
        verdict = pol.stability.get((n, x, a))
        if verdict is None:
            key = n, x, a, pol.sign
            if key not in pol.solves:
                solved = solve_delpezzo(n, x, a, self.s.c1_sq) if pol.h else solve_enriques(n, x, a, pol.sign)
                pol.solves[key] = solved
            solved = pol.solves[key]
            verdict = pol.stability[n, x, a] = solved[3], '"stability":' + _window_text(solved, pol.scale)
        return verdict


class _SpectralBlock(_Block):
    """Per block: k alpha^2 over den^2, k = n(n+1)/2.  Per model, from its
    key (`_Spectrum` of its (n, eta, lambda), None if invalid; validity):
    af with its flags, the anomaly verdict, with both af readings if eta =
    12 c1, and the non-split verdict 3/2 resid^2 - (n+1) alpha.resid > 0.
    Per polarization: 0 < n alpha.H < (Lambda.H)_min, once per (n, alpha.H)."""

    def _invariants(self, _) -> None:
        self.d2, self.k_a_sq = self.alpha.den**2, self.n * (self.n + 1) // 2 * self.alpha.a_sq

    def _flags(self, spectrum: _Spectrum) -> tuple:
        """(af, W_zero, W_effective) of the model of `spectrum`."""
        af = ratio(spectrum.af0 * self.d2 + self.k_a_sq, self.d2)
        return af, *w_verdict(af, spectrum.wB_zero, lambda: spectrum.wB_effective)

    def _run(self, models, counts, width: int) -> list:
        """The models of valid data meeting the requirement, the others
        counted as validity or anomaly failures."""
        kept = [m for m in models if m[0][0] is not None and self._meets(*self._flags(m[0][0])[1:])]
        invalid = sum(m[0][0] is None for m in models)
        counts["validity"] += invalid * width
        counts["anomaly"] += (len(models) - len(kept) - invalid) * width
        return kept

    def _anomaly(self, model) -> tuple:
        spectrum, validity = model
        if spectrum is None:
            return "validity", ',"verdicts":{' + validity[1]
        af, w_zero, w_effective = self._flags(spectrum)
        readings = ""
        try:
            if spectrum.af_offset is not None:
                displayed = af + spectrum.af_offset
                readings = (
                    f',"af_displayed":"{jsonio.frac_to_str(displayed)}","af_direct":"{jsonio.frac_to_str(af)}"'
                    f',"display_agrees":{_JSON[af == displayed]}'
                )
            return self._anomaly_verdict(spectrum.wB_text, af, w_zero, w_effective, readings)
        except ValueError:  # str() refused an af past the digit limit
            raise jsonio.unprintable("af", "'n', 'eta', 'lambda' or 'alpha'") from None

    def _chi(self, model) -> tuple:
        # 3/2 resid^2 - (n+1) alpha.resid over 2 den resid_den^2
        spectrum, den = model[0], self.alpha.den
        p, rd = dot(self.alpha.nums, spectrum.resid_dual), spectrum.resid_den
        value = ratio(spectrum.resid_sq3 * den - 2 * (self.n + 1) * p * rd, 2 * den * rd * rd)
        return _nonsplit_text(value > 0, "spectral chi>0", value)

    def _stability(self, pol) -> tuple:
        a_h = self._alpha_H(pol)
        verdict = pol.stability.get((self.n, a_h))
        if verdict is None:
            ver = spectral_stability(self.n, a_h, pol.min_degree)
            verdict = pol.stability[self.n, a_h] = ver.passed, (
                f'"stability":{{"passed":{_JSON[ver.passed]},"alpha_H":"{jsonio.frac_to_str(ver.a_h)}",'
                f'"n_alpha_H":"{jsonio.frac_to_str(ver.n_a_h)}",' + pol.min_degree_text
            )
        return verdict


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
    """(block_axes, inner, pols, blocks): the sized axes, last fastest, of
    the blocks (n, x, alpha_box; or n, alpha_box) and of their models (c2E;
    or eta_box, lambda), the polarizations (_PolTerms, params text), H_values
    first and sharing one table of window solves, and the number of blocks.
    Refuses, naming its fields, a class with more coordinates than the base
    rank, a polarization of the wrong kind or not ample, and an axis or a
    count of pullback blocks (spectral models) past sys.maxsize."""
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
    # chunks are runs of whole blocks; a box with an empty axis has none
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
    return block_axes, inner, pols, blocks


def _points(axes, start: int, stop: int):
    """The points start..stop-1 of product(*axes), in its order, holding no
    axis whole: each axis is a range or a short tuple, the first point is
    found by mixed radix and the rest walk the last axis row by row."""
    if start < stop:
        *outer, last = axes
        size = len(last)
        first = start // size
        for row, prefix in enumerate(_points(outer, first, -(-stop // size)) if outer else [()], first):
            for value in last[max(start - row * size, 0) : min(stop - row * size, size)]:
                yield (*prefix, value)


def _block(config: SearchConfig, s: BaseSurface, point: tuple, inner, alphas: dict, shared: dict):
    """(block, head, tail, models) of the block at `point`: a line opens
    with head ('{"params":' and the params up to alpha), its polarization
    entry, tail and its model's end.  `inner`: every pullback block's models,
    or the spectral inner axes.  The tables of one `_scan` keep per alpha its
    `_Alpha` (den = 1), and in `shared` per n the pullback validity verdict
    or the spectral models, whose verdicts are those of the zero twist: every
    twist of the box is integral, so passes `validate_bundle`."""
    n, pullback = point[0], config.mode == "pullback"
    coords = point[2:] if pullback else point[1:]
    alpha = alphas.get(coords)
    if alpha is None:
        nums = coords + (0,) * (s.rank - len(coords))
        text = "[" + ",".join(f'"{c}"' for c in nums) + "]"
        alpha = alphas[coords] = _Alpha(s, nums, s.dual(nums), 1, text)
    head = f'{{"params":{{"base":"{s.kind}","n":{n},"alpha":{alpha.text},'
    if pullback:
        validity = shared.get(n)
        if validity is None:
            validity = shared[n] = _validity(s, PullbackBundle(n=n, c2E=None, twist=_zero_twist(s)))[0]
        x = point[1]
        return _PullbackBlock(s, config.require, n, validity, alpha, x), head, f'"x":{x},"c2E":', inner
    models = shared.get(n)
    if models is None:
        models = shared[n] = []
        for *eta, lam in _points(inner, 0, math.prod(map(len, inner))):
            # without eta_box, eta = 12 c1 (on Enriques c1 is pure 2-torsion, so 0)
            eta = tuple(eta) or tuple(12 * c for c in s.c1_ints)
            eta = DivisorClass(eta + (0,) * (s.rank - len(eta)))
            validity, fiber = _validity(s, SpectralBundle(n=n, eta=eta, lam=lam, twist=_zero_twist(s)))
            spectrum = _Spectrum(s, n, eta, lam, fiber) if validity[0] else None
            params = {"eta": [str(c) for c in eta.coeffs], "lambda": jsonio.frac_to_str(lam)}
            models.append(((spectrum, validity), _ENCODER.encode(params)[1:]))
    return _SpectralBlock(s, config.require, n, _VALID, alpha, None), head, "", models


def _scan(config: SearchConfig, axes: tuple, start: int, stop: int, run: float = math.inf):
    """Yield (text, lines, counts) of blocks start..stop-1 of the box of
    `axes` in enumeration order, per run of whole blocks of at least `run`
    lines and for the rest: the JSONL text, its lines and the models by
    failed stage (None: passed).  A serial scan works out the polarization
    tables (`_PolTerms`) once, a pool chunk in its own copy."""
    s = make_base(config.base)
    block_axes, inner, pols, _ = axes
    if config.mode == "pullback" and start < stop:
        inner = [(c2E, f"{c2E}}}") for c2E in inner[0]]
    lines, counts, alphas, shared = [], dict.fromkeys((None, *STAGES), 0), {}, {}
    for point in _points(block_axes, start, stop):
        block, head, tail, models = _block(config, s, point, inner, alphas, shared)
        block.scan(models, pols, head, tail, True, config.require is not None, lines, counts)
        if len(lines) >= run:
            yield "\n".join(lines) + "\n", len(lines), counts
            lines, counts = [], dict.fromkeys(counts, 0)
    yield "\n".join(lines) + "\n" if lines else "", len(lines), counts


_WRITE_RUN = 256  # lines per write of `run_search`, at least: the box's text is never held whole
_POOL_MIN_MODELS = 60_000  # the measured crossover of `--jobs 2` (README.md)


def _chunk(config: SearchConfig, axes: tuple, start: int, stop: int) -> list:
    """A pool task: the runs of `_scan` over one chunk, joined in the worker."""
    return list(_scan(config, axes, start, stop, _WRITE_RUN))


def _pool_pays(config: SearchConfig, models: int) -> bool:
    """Whether a pool may beat the calling process: below `_POOL_MIN_MODELS`
    models its fixed cost (forking, pickling each chunk's text back)
    outweighs the rendering it splits; a required box renders too few lines."""
    return config.require is None and models >= _POOL_MIN_MODELS


def run_search(config: SearchConfig, jobs: int = 1, out=None):
    """Scan the whole box; write JSONL records to `out`; return the summary.

    `config.limit` caps the records written; the summary still counts the
    whole box.  `jobs` > 1 starts a pool only where `_pool_pays`.  Output is
    byte-identical for any `jobs`: chunks are merged in enumeration order.
    """
    axes = _axes(config, make_base(config.base))
    _, inner, pols, blocks = axes
    jobs = jobs if _pool_pays(config, blocks * math.prod(map(len, inner)) * len(pols)) else 1
    step = -(-blocks // (jobs * 4))
    counts, emitted = dict.fromkeys((None, *STAGES), 0), 0
    with ExitStack() as stack:
        if jobs > 1 and step < blocks:
            # imported here, so that a serial scan never loads the pool; with
            # fork, it starts all of its workers up front.  Each chunk gets the axes pickled.
            from concurrent.futures import ProcessPoolExecutor

            starts = range(0, blocks, step)
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(starts))))
            stops = [min(lo + step, blocks) for lo in starts]
            parts = chain.from_iterable(pool.map(_chunk, repeat(config), repeat(axes), starts, stops))
        else:
            parts = _scan(config, axes, 0, blocks, _WRITE_RUN)
        for text, lines, tally in parts:
            for failed, count in tally.items():
                counts[failed] += count
            if config.limit is not None and emitted + lines > config.limit:
                lines = max(0, config.limit - emitted)
                text = "".join(line + "\n" for line in text.split("\n")[:lines])
            if out is not None:
                out.write(text)
            emitted += lines
    summary = {
        "scanned": sum(counts.values()),
        "passed": counts[None],
        "stage_failures": {stage: counts[stage] for stage in STAGES},
        "emitted": emitted,
    }
    if out is not None:
        out.write("# " + json.dumps(summary, separators=(",", ":")) + "\n")
    return summary
