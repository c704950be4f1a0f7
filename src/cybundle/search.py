"""Exhaustive model scans: validity -> anomaly -> non-split -> stability.

Search configs describe finite integer boxes; enumeration is lexicographic
and the JSONL output is deterministic for any worker count.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, product, repeat

from . import jsonio
from .anomaly import AnomalyOutcome, spectral_af, w_verdict
from .bundles import PullbackBundle, SpectralBundle, check_spectral_data, validate_bundle
from .nonsplit import chi_line, nonsplit_verdict
from .ring import DivisorX
from .surfaces import BaseSurface, DivisorClass, dot, make_base, ratio
from .windows import spectral_stability, window_delpezzo, window_enriques

STAGES = ("validity", "anomaly", "nonsplit", "stability")

# The stages run on exact scalars: ints where integral and Fractions
# otherwise, worked out over the least common denominator of the classes
# they pair (`BaseSurface.integer_parts`).  The public Fraction functions
# that take one model at a time (`anomaly_class`, `chi_nonsplit`,
# `nonsplit_feasible`, `spectral_nonsplit`, `spectral_stability_check`)
# compute the same verdicts and are the tests' oracles for these kernels.


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
    strings = ",".join(f'"{jsonio.frac_to_str(c)}"' for c in coeffs)
    return f'{{"coeffs":[{strings}],"torsion":{torsion}}}'


def _validity(s: BaseSurface, bundle, spectral_data=None) -> tuple:
    """(passed, text) of the validity verdict of `validate_bundle`."""
    try:
        validate_bundle(s, bundle, spectral_data)
    except ValueError as exc:
        return _invalid(str(exc))
    return _VALID


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
    polarization.  The first failed stage is `failed_stage`.  A failure
    stops the run under `short_circuit`; a verdict carrying an "error",
    which only the validity stage gives, always stops it.  `bound` is
    accepted and unread: no query enumerates any more, and the benchmark
    (bench/child.py) still passes it.
    """
    alpha, parts = bundle.twist.alpha, None
    if alpha.rank == s.rank:  # else validity fails, and the block reads no parts
        nums, dual, den = s.integer_parts(alpha)
        parts = nums, dual, den, dot(nums, dual)
    if isinstance(bundle, SpectralBundle):
        data = _Spectrum(s, bundle.n, bundle.eta, bundle.lam)
        block, mode, c2E, validity = _SpectralBlock, "spectral", None, _validity(s, bundle, data.check)
    else:
        data = bundle.twist.x
        block, mode, c2E, validity = _PullbackBlock, "pullback", bundle.c2E, _validity(s, bundle)
    terms = _PolTerms(s, mode, pol)
    # a valid bundle fails validity with a polarization of the wrong kind
    block = block(s, require, bundle.n, terms.validity if validity[0] else validity, parts, data)
    lines, counts = [], dict.fromkeys((None, *STAGES), 0)
    block.scan([(c2E, "")], [(terms, "")], _ENCODER.encode(params or {}), "", short_circuit, False, lines, counts)
    (failed,) = (stage for stage, count in counts.items() if count)
    return ModelRecord(lines[0], failed)


class _PolTerms:
    """What the stages read of one polarization, worked out once per config
    (or per `check_model`): the class H (h c1 for a ray h) with its
    integer parts, H^2, the z of the non-split slope (h on F0/dPk, 1 on
    Enriques) and, on first use, the minimum degree.  `windows` holds the stability
    verdicts solved so far, by (n, x, a) with a = alpha.c1 on F0/dPk and
    alpha.H on Enriques, the only inputs of the window besides H.
    `validity` is the validity verdict of the polarization rule."""

    def __init__(self, s: BaseSurface, mode: str, pol: Polarization):
        self.s = s
        try:
            _refuse_wrong_kind(s, mode, pol)
        except ValueError as exc:
            self.validity = _invalid(str(exc))
            return
        self.validity = _VALID
        self.h = None if pol.h is None else Fraction(pol.h)
        self.H = pol.H if pol.H is not None else s.c1.scale(self.h)
        nums, self.H_dual, self.H_den = s.integer_parts(self.H)
        self.z = Fraction(1) if s.is_enriques else self.h
        self.hsq = ratio(dot(nums, self.H_dual), self.H_den * self.H_den)
        self.windows: dict = {}

    @cached_property
    def min_degree(self):
        return self.s.min_positive_degree(self.H)

    @cached_property
    def min_degree_text(self) -> str:
        """The end of the spectral stability verdict: min_degree on."""
        md = self.min_degree
        witness = _class_text(md.witness.coeffs, md.witness.torsion)
        # no degree query is bounded any more; the key stays until the
        # output format next changes (ROADMAP items 7 and 9)
        return f'"min_degree":"{jsonio.frac_to_str(md.value)}","witness":{witness},"bound_limited":false}}'


class _Spectrum:
    """What the spectral blocks of one (n, eta, lambda) share, worked out once
    per scan (or per `check_model`).  `error` is the message of
    `check_spectral_data`, or None; then there are wB = 12 c1 - eta (the
    twist pi^*alpha has x = 0, so wB does not depend on alpha) with its JSON
    text and, on first use, its effectivity; af0, the part of af without
    n(n+1)/2 alpha^2; `displayed0`, that part of af_displayed when eta = 12
    c1 (else None); and resid = eta - n c1 as integer parts with 3 den^2
    resid^2."""

    def __init__(self, s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction):
        try:
            fiber = check_spectral_data(s, n, eta, lam)
        except ValueError as exc:
            self.error = str(exc)
            return
        self.error = None
        self.s = s
        self.af0 = s.c2 + 11 * s.c1_sq - fiber.numerator  # the fiber term is integral
        twelve_c1 = s.c1.scale(12)
        self.wB = twelve_c1 - eta
        self.wB_text = _class_text(self.wB.coeffs, self.wB.torsion)
        self.wB_zero = self.wB.is_zero()
        self.displayed0 = None
        if eta == twelve_c1:
            # the reading of the twist alpha = 0; wB = 0, so no effectivity query
            zero = SpectralBundle(n=n, eta=eta, lam=lam, twist=_zero_twist(s))
            outcome = AnomalyOutcome(self.wB, self.af0, *w_verdict(self.af0, True, None))
            self.displayed0 = spectral_af(s, zero, outcome).af_displayed
        nums, self.resid_dual, self.resid_den = s.integer_parts(eta - s.c1.scale(n))
        self.resid_sq3 = 3 * dot(nums, self.resid_dual)

    def check(self, *_) -> None:
        """The `spectral_data` hook of `validate_bundle`: raise the data's error."""
        if self.error is not None:
            raise ValueError(self.error)

    @cached_property
    def wB_effective(self) -> bool:
        return self.s.effective(self.s.integer_parts(self.wB)[0])


class _Block:
    """The invariants of one run of the box in which only the fastest axes
    vary: c2E and then the polarization for pullback models, a block per
    (n, x, alpha); the polarization alone for spectral models, a block per
    (n, alpha, eta, lambda).  Built from its n, the validity verdict of its
    bundle (`_validity`), alpha as integer `parts` (nums, dual, den, a_sq =
    den^2 alpha^2) and `data`: the twist's x for a pullback run, the
    `_Spectrum` of its (n, eta, lambda) for a spectral one.  An invalid
    block works out nothing else.  A subclass gives `scan` the c2E meeting
    the requirement (`_run`), what only lines read (`_line_terms`) and the
    verdicts as (passed, "key":{...} text): `_anomaly` per c2E, `_nonsplit`
    per (c2E, polarization) and `_stability` per polarization."""

    def __init__(self, s: BaseSurface, require: str | None, n: int, validity: tuple, parts, data):
        self.s, self.require, self.n, self.validity = s, require, n, validity
        if validity[0]:
            self.nums, self.dual, self.den, self.a_sq = parts
            self._invariants(data)

    def scan(self, models, pols, head: str, tail: str, short_circuit: bool, drop: bool, lines, counts) -> None:
        """Append the JSONL lines of the block's models (c2E, pol), pol
        fastest, to `lines` and count them by failed stage (None if passed)
        in `counts`.  `models`: (c2E, end) over consecutive c2E ((None, "")
        if spectral); `pols`: (_PolTerms, text); params text: head + text +
        tail + end.  A failure stops a model under `short_circuit`, a
        validity failure always.  Under `drop`, models failing validity or
        the requirement get no line and are counted per block or per c2E."""
        size = len(models) * len(pols)
        if not self.validity[0]:
            counts["validity"] += size
            if not drop:
                rest = ',"verdicts":{' + self.validity[1] + _TAILS["validity"]
                lines += ['{"params":' + head + text + tail + end + rest for _, end in models for _, text in pols]
            return
        if drop:
            start, stop = self._run(models[0][0], len(models))
            models = models[start:stop]
            counts["anomaly"] += size - len(models) * len(pols)
            if not models:
                return
        self._line_terms(models[0][0], models[-1][0], pols)
        prefixes = [(pol, '{"params":' + head + text + tail) for pol, text in pols]
        stability = {}
        for c2E, end in models:
            passed, anomaly = self._anomaly(c2E)
            end += ',"verdicts":{' + _VALID[1] + "," + anomaly
            unmet = None if passed else "anomaly"
            for pol, prefix in prefixes:
                texts, failed = [prefix + end], unmet
                if failed is None or not short_circuit:
                    passed, text = self._nonsplit(c2E, pol)
                    texts.append(text)
                    failed = failed or (None if passed else "nonsplit")
                    if failed is None or not short_circuit:
                        verdict = stability.get(pol)
                        if verdict is None:
                            verdict = stability[pol] = self._stability(pol)
                        texts.append(verdict[1])
                        failed = failed or (None if verdict[0] else "stability")
                counts[failed] += 1
                lines.append(",".join(texts) + _TAILS[failed])

    def _meets(self, w_zero: bool, w_effective: bool) -> bool:
        return {"W_zero": w_zero, "W_effective": w_effective}.get(self.require, True)

    def _anomaly_verdict(self, wb_text: str, af, w_zero: bool, w_effective: bool, readings: str = "") -> tuple:
        """(passed, text) of the anomaly verdict; `readings`, the text of the
        two af readings, go before "passed"."""
        passed = self._meets(w_zero, w_effective)
        return passed, (
            f'"anomaly":{{"wB":{wb_text},"af":"{jsonio.frac_to_str(af)}","W_zero":{_JSON[w_zero]},'
            f'"W_effective":{_JSON[w_effective]}{readings},"passed":{_JSON[passed]}}}'
        )

    def _alpha_dot(self, dual, den: int) -> tuple:
        """(P, q) with alpha.c = P/q, for c of integer parts (_, dual, den)."""
        return dot(self.nums, dual), self.den * den


class _PullbackBlock(_Block):
    """Per block: af0 (af = af0 - c2E) and wB over den; for lines, the terms
    of `_line_terms`; if some af >= 0 asks, whether wB is effective.  Per
    c2E: the anomaly and chi verdicts.  Per polarization: the slope verdict
    and the stability verdict, solved once per (n, x, a) and polarization."""

    def _invariants(self, x) -> None:
        s, n, den = self.s, self.n, self.den
        self.x = x = int(x)
        d2, k = den * den, n * (n + 1) // 2
        self.af0 = ratio((s.c2 + 11 * s.c1_sq) * d2 + k * self.a_sq, d2)
        # wB = (12 - k x^2) c1 + 2 k x alpha, over den
        c, t = 12 - k * x * x, 2 * k * x
        self.wB_nums = [c * den * ci + t * ai for ci, ai in zip(s.c1_ints, self.nums)]
        self.wB_torsion = c * s.c1.torsion % 2  # t is even: t alpha has no torsion
        self.wB_zero = not self.wB_torsion and not any(self.wB_nums)

    def _run(self, lo: int, count: int) -> tuple:
        """(start, stop): the models of c2E lo + start .. lo + stop - 1 meet
        the requirement.  af = af0 - c2E, so W_zero keeps c2E = af0 if wB =
        0, and W_effective c2E <= floor(af0) if wB is zero or effective."""
        if self.require == "W_zero":
            i = self.af0 - lo
            return (i, i + 1) if self.wB_zero and type(i) is int and 0 <= i < count else (0, 0)
        stop = min(count, max(0, math.floor(self.af0) - lo + 1))
        return 0, stop if stop and (self.wB_zero or self.wB_effective) else 0

    def _line_terms(self, lo: int, hi: int, pols) -> None:
        """alpha.c1, chi0, chi_slope, the c2E ends lo and hi, the text of wB
        and for x > 0 each polarization's slope."""
        s, den = self.s, self.den
        self.a_c1_num = dot(self.dual, s.c1_ints)
        self.a_c1 = ratio(self.a_c1_num, den)
        self.chi0, self.chi_slope = chi_line(self.n, self.x, self.a_sq, self.a_c1_num, den, s.c1_sq)
        self._chi_ends = lo, hi
        self.wB_text = _class_text([ratio(w, den) for w in self.wB_nums], self.wB_torsion)
        self._slopes, self._verdicts = {}, {}
        for pol, _ in pols if self.x > 0 else ():
            # (2H - z c1).alpha over den * H_den * z_den
            (p, q), z = self._alpha_dot(pol.H_dual, pol.H_den), pol.z
            num = 2 * p * z.denominator - z.numerator * self.a_c1_num * pol.H_den
            self._slopes[pol] = ratio(num, q * z.denominator)

    @cached_property
    def wB_effective(self) -> bool:
        return self.s.effective(self.wB_nums)

    def _anomaly(self, c2E) -> tuple:
        af = self.af0 - c2E
        return self._anomaly_verdict(self.wB_text, af, *w_verdict(af, self.wB_zero, lambda: self.wB_effective))

    def _nonsplit(self, c2E, pol) -> tuple:
        """The verdict of chi at c2E and, for x > 0, the slope of pol: one
        slope > 0 fails whatever chi is, so it is kept by pol, others by c2E.
        The first verdict that prints chi refuses it if unprintable: chi is
        linear in c2E, so its values at the ends bound all others."""
        slope = self._slopes.get(pol)
        key = pol if slope is not None and slope > 0 else c2E
        verdict = self._verdicts.get(key)
        if verdict is None:
            if key is not pol and self._chi_ends:
                ends, self._chi_ends = self._chi_ends, None
                chis = (self.chi0 - self.chi_slope * e for e in ends)
                jsonio.refuse_unprintable("chi", "'n', 'x', 'alpha' or 'c2E'", *chis)
            ns = nonsplit_verdict(self.x, slope, self.chi0 - self.chi_slope * c2E)
            value = jsonio.frac_to_str(ns.value)
            verdict = self._verdicts[key] = ns.passed, (
                f'"nonsplit":{{"passed":{_JSON[ns.passed]},"clause":"{ns.clause}","value":"{value}"}}'
            )
        return verdict

    def _stability(self, pol) -> tuple:
        s, n, x = self.s, self.n, self.x
        a = ratio(*self._alpha_dot(pol.H_dual, pol.H_den)) if s.is_enriques else self.a_c1
        verdict = pol.windows.get((n, x, a))
        if verdict is None:
            if s.is_enriques:
                window = window_enriques(n, x, a, pol.hsq)
            else:
                window = window_delpezzo(n, x, a, s.c1_sq, pol.h)
            text = _ENCODER.encode({**jsonio.window_to_json(window), "passed": window.nonempty})
            verdict = pol.windows[n, x, a] = window.nonempty, '"stability":' + text
        return verdict


class _SpectralBlock(_Block):
    """Per block: af with its W_zero and W_effective flags; for lines, the
    anomaly verdict, with both af readings for the paper's eta = 12 c1
    family, and the non-split verdict 3/2 resid^2 - (n+1) alpha.resid > 0.
    Per polarization: the stability test 0 < n alpha.H < (Lambda.H)_min."""

    def _invariants(self, spectrum: _Spectrum) -> None:
        n, den = self.n, self.den
        self.spectrum, self.d2, self.k = spectrum, den * den, n * (n + 1) // 2
        self.af = ratio(spectrum.af0 * self.d2 + self.k * self.a_sq, self.d2)
        self.flags = w_verdict(self.af, spectrum.wB_zero, lambda: spectrum.wB_effective)

    def _run(self, lo, count: int) -> tuple:
        return 0, count if self._meets(*self.flags) else 0

    def _line_terms(self, lo, hi, pols) -> None:
        n, den, d2, k, af, spectrum = self.n, self.den, self.d2, self.k, self.af, self.spectrum
        jsonio.refuse_unprintable("af", "'n', 'eta', 'lambda' or 'alpha'", af)
        readings = ""
        if spectrum.displayed0 is not None:
            p, q = spectrum.displayed0.numerator, spectrum.displayed0.denominator
            displayed = ratio(p * d2 + k * self.a_sq * q, q * d2)
            readings = (
                f',"af_displayed":"{jsonio.frac_to_str(displayed)}","af_direct":"{jsonio.frac_to_str(af)}"'
                f',"display_agrees":{_JSON[af == displayed]}'
            )
        self.anomaly = self._anomaly_verdict(spectrum.wB_text, af, *self.flags, readings)
        # 3/2 resid^2 - (n+1) alpha.resid over 2 den resid_den^2
        p, _ = self._alpha_dot(spectrum.resid_dual, spectrum.resid_den)
        rd = spectrum.resid_den
        value = ratio(spectrum.resid_sq3 * den - 2 * (n + 1) * p * rd, 2 * den * rd * rd)
        self.nonsplit = value > 0, (
            f'"nonsplit":{{"passed":{_JSON[value > 0]},"clause":"spectral chi>0",'
            f'"value":"{jsonio.frac_to_str(value)}"}}'
        )

    def _anomaly(self, c2E) -> tuple:
        return self.anomaly

    def _nonsplit(self, c2E, pol) -> tuple:
        return self.nonsplit

    def _stability(self, pol) -> tuple:
        ver = spectral_stability(self.n, ratio(*self._alpha_dot(pol.H_dual, pol.H_den)), pol.min_degree)
        a_h, n_a_h = jsonio.frac_to_str(ver.a_h), jsonio.frac_to_str(ver.n_a_h)
        return ver.passed, (
            f'"stability":{{"passed":{_JSON[ver.passed]},"alpha_H":"{a_h}","n_alpha_H":"{n_a_h}",'
            + pol.min_degree_text
        )


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
            raise ValueError("mode must be 'pullback' or 'spectral'")
        if "x_values" in obj:
            x_values = _int_list(obj["x_values"], "x_values")
        elif "x_range" in obj:
            lo, hi = _int_pair(obj["x_range"], "x_range")
            x_values = tuple(range(lo, hi + 1))
        else:
            x_values = (0,)
        limit = obj.get("limit")
        if limit is not None:
            limit = _nonnegative_int(limit, "limit")
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
            limit=limit,
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


def _frac_list(value, name: str) -> tuple:
    return tuple(jsonio.frac_field(v, name) for v in _list(value, name))


def _axes(config: SearchConfig, s: BaseSurface) -> tuple:
    """(block_axes, c2Es, pols): the box's axes, sized sequences in
    enumeration order (last fastest), the blocks' apart from their models'.

    Block axes, pullback: n, x, one range per alpha_box pair; spectral: n,
    the alpha_box ranges, the eta_box ranges, lambda.  A block's models are
    c2Es (the c2E range; (None,) for spectral) times the polarizations,
    (_PolTerms, params text) pairs with H_values entries before h_values
    entries.  Refuses a class with more coordinates than the base rank and a
    polarization of the wrong kind or not ample, naming the config field, so
    that a bad config fails before any model is scanned.
    """
    classes = [("alpha_box", config.alpha_box), ("eta_box", config.eta_box or ())]
    for name, coords in classes + [("H_values", vec) for vec in config.H_values]:
        if len(coords) > s.rank:
            raise ValueError(
                f"config field '{name}' has {len(coords)} entries"
                f" but base {s.kind} has rank {s.rank}"
            )
    alpha = [range(lo, hi + 1) for lo, hi in config.alpha_box]
    n = range(config.n_range[0], config.n_range[1] + 1)
    if config.mode == "pullback":
        if config.c2E_range is None:
            raise ValueError("pullback searches need c2E_range")
        block_axes = [n, config.x_values, *alpha]
        c2Es = range(config.c2E_range[0], config.c2E_range[1] + 1)
    else:
        eta = [range(lo, hi + 1) for lo, hi in config.eta_box or ()]
        block_axes, c2Es = [n, *alpha, *eta, config.lambda_values or (Fraction(0),)], (None,)
    pols = []
    for vec in config.H_values:
        pol = Polarization(H=DivisorClass(vec + (0,) * (s.rank - len(vec))))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        _refuse_unusable_H(s, config.mode, pol.H, f"config field 'H_values' entry {list(vec)}")
        pols.append((_PolTerms(s, config.mode, pol), f'"H":[{",".join(map(str, vec))}],'))
    for h in config.h_values:
        pol = Polarization(h=Fraction(h))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        pols.append((_PolTerms(s, config.mode, pol), f'"h":"{jsonio.frac_to_str(h)}",'))
    if not pols:
        raise ValueError("config needs H_values or h_values")
    return block_axes, c2Es, pols


def _block(config: SearchConfig, s: BaseSurface, point: tuple, alphas: dict, shared: dict):
    """(block, head, tail) of the block at `point` of the block axes of
    `_axes`: a model's params text is head, its polarization entry and tail,
    then for a pullback model its c2E and the closing brace.  The tables of
    one `_scan`, keyed by box coordinates, keep per alpha its parts (from
    its int coordinates: den = 1) and text, and in `shared` per n (pullback)
    the validity verdict, or per (n, eta, lambda) (spectral) the
    `_Spectrum`, the validity verdict and the tail.  A verdict is that of
    the entry's bundle with the zero twist: every twist of the box is
    integral, so every twist check of `validate_bundle` passes."""
    n, *coords = point
    if config.mode == "pullback":
        x, *alpha = coords
    else:
        *coords, lam = coords
        alpha, eta = coords[: len(config.alpha_box)], coords[len(config.alpha_box):]
    alpha = tuple(alpha)
    entry = alphas.get(alpha)
    if entry is None:
        nums = alpha + (0,) * (s.rank - len(alpha))
        dual = s.dual(nums)
        text = "[" + ",".join(f'"{c}"' for c in nums) + "]"
        entry = alphas[alpha] = (nums, dual, 1, dot(nums, dual)), text
    parts, alpha_text = entry
    head = f'{{"base":"{s.kind}","n":{n},"alpha":{alpha_text},'
    if config.mode == "pullback":
        validity = shared.get(n)
        if validity is None:
            validity = shared[n] = _validity(s, PullbackBundle(n=n, c2E=None, twist=_zero_twist(s)))
        return _PullbackBlock(s, config.require, n, validity, parts, x), head, f'"x":{x},"c2E":'
    key = n, tuple(eta), lam
    entry = shared.get(key)
    if entry is None:
        # without eta_box, eta = 12 c1 (on Enriques c1 is pure 2-torsion, so 0)
        eta = key[1] or tuple(12 * c for c in s.c1_ints)
        eta = DivisorClass(eta + (0,) * (s.rank - len(eta)))
        spectrum = _Spectrum(s, n, eta, lam)
        zero = SpectralBundle(n=n, eta=eta, lam=lam, twist=_zero_twist(s))
        params = {"eta": [str(c) for c in eta.coeffs], "lambda": jsonio.frac_to_str(lam)}
        # the tail is the end of the params object
        entry = shared[key] = spectrum, _validity(s, zero, spectrum.check), _ENCODER.encode(params)[1:]
    spectrum, validity, tail = entry
    return _SpectralBlock(s, config.require, n, validity, parts, spectrum), head, tail


def _scan(config: SearchConfig, axes: tuple, start: int, stop: int):
    """(lines, counts) of blocks start..stop-1 of the box of `axes` (those
    of `_axes`), in enumeration order: the JSONL lines to emit, and the
    number of models by failed stage (None for those that pass).  The
    polarization terms hold the stability windows, which a serial scan
    solves once and each pool chunk in its own copy."""
    s = make_base(config.base)
    block_axes, c2Es, pols = axes
    models = [(c2E, "" if c2E is None else f"{c2E}}}") for c2E in c2Es]
    lines, counts, alphas, shared = [], dict.fromkeys((None, *STAGES), 0), {}, {}
    for point in islice(product(*block_axes), start, stop):
        block, head, tail = _block(config, s, point, alphas, shared)
        block.scan(models, pols, head, tail, True, config.require is not None, lines, counts)
    return lines, counts


def run_search(config: SearchConfig, jobs: int = 1, out=None):
    """Scan the whole box; write JSONL records to `out`; return the summary.

    `config.limit` caps the records written; the summary still counts the
    whole box.  Output is byte-identical for any `jobs` value: chunks are
    merged in enumeration order before writing.
    """
    axes = _axes(config, make_base(config.base))
    block_axes, c2Es, _ = axes
    # chunks are runs of whole blocks; a box with an empty axis has none
    blocks = math.prod(map(len, block_axes)) if c2Es else 0
    step = max(1, blocks if jobs <= 1 else -(-blocks // (jobs * 4)))
    starts = range(0, blocks, step)
    stops = [min(lo + step, blocks) for lo in starts]
    counts, emitted = dict.fromkeys((None, *STAGES), 0), 0
    chunks = repeat(config), repeat(axes), starts, stops
    with ExitStack() as stack:
        if len(starts) > 1:
            # imported here, so that a serial scan never loads the pool; with
            # fork, the pool starts all of its workers up front.  Each chunk
            # gets the axes pickled.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(starts))))
            parts = pool.map(_scan, *chunks)
        else:
            parts = map(_scan, *chunks)
        for lines, tally in parts:
            for failed, count in tally.items():
                counts[failed] += count
            if config.limit is not None:
                lines = lines[: max(0, config.limit - emitted)]
            if out is not None:
                out.writelines(line + "\n" for line in lines)
            emitted += len(lines)
    summary = {
        "scanned": sum(counts.values()),
        "passed": counts[None],
        "stage_failures": {stage: counts[stage] for stage in STAGES},
        "emitted": emitted,
    }
    if out is not None:
        out.write("# " + json.dumps(summary, separators=(",", ":")) + "\n")
    return summary
