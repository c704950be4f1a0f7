"""Exhaustive model scans: validity -> anomaly -> non-split -> stability.

Search configs describe finite integer boxes; enumeration is lexicographic
and the JSONL output is deterministic for any worker count.
"""

from __future__ import annotations

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
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


@dataclass
class ModelRecord:
    """One model's params and stage verdicts.  Records of one block share the
    dicts and lists of what the block computed once; treat them as read-only."""

    params: dict
    verdicts: dict
    overall: bool
    failed_stage: str | None

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "verdicts": self.verdicts,
            "overall": self.overall,
            "failed_stage": self.failed_stage,
        }

    def to_json_line(self) -> str:
        return _ENCODER.encode(self.to_json())


_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=False)


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

    The model is evaluated as a block of one, on the path every scan takes.
    The first failed stage is `failed_stage`.  A failure stops the run
    under `short_circuit`; a verdict carrying an "error", which only the
    validity stage gives, always stops it.  `bound` is accepted and unread:
    no query enumerates any more, and the benchmark (bench/child.py) still
    passes it.
    """
    block = _BLOCKS[type(bundle)](s, bundle, require, _Spectra(s))
    c2E = bundle.c2E if isinstance(bundle, PullbackBundle) else None
    return block.record(c2E, _PolTerms(s, block.mode, pol), short_circuit, params or {})


class _PolTerms:
    """What the stages read of one polarization, worked out once per config
    (or per `check_model`): the class H (h c1 for a ray h) with its integer
    parts, H^2, the z of the non-split slope (h on F0/dPk, 1 on Enriques)
    and, on first use, the minimum degree.  `windows` holds the stability
    verdicts solved so far, by (n, x, a) with a = alpha.c1 on F0/dPk and
    alpha.H on Enriques, the only inputs of the window besides H.  `error`
    holds the polarization rule the model breaks."""

    def __init__(self, s: BaseSurface, mode: str, pol: Polarization):
        self.s = s
        try:
            _refuse_wrong_kind(s, mode, pol)
        except ValueError as exc:
            self.error = str(exc)
            return
        self.error = None
        self.h = None if pol.h is None else Fraction(pol.h)
        self.H = pol.H if pol.H is not None else s.c1.scale(self.h)
        _, self.H_dual, self.H_den = s.integer_parts(self.H)
        self.z = Fraction(1) if s.is_enriques else self.h
        self.hsq = s.square(self.H)
        self.windows: dict = {}

    @cached_property
    def min_degree(self):
        return self.s.min_positive_degree(self.H)

    @cached_property
    def min_degree_json(self) -> tuple:
        """(min_degree, witness) of the spectral stability verdict."""
        md = self.min_degree
        return jsonio.frac_to_str(md.value), jsonio.divisor_to_json(md.witness)


class _Spectrum:
    """What the spectral blocks of one (n, eta, lambda) share, worked out once
    per config (or per `check_model`).  `error` is the message of
    `check_spectral_data`, or None; then `fiber` is FMW's fiber term, and
    there are wB = 12 c1 - eta (the twist pi^*alpha has x = 0, so wB does
    not depend on alpha) with its JSON and, on first use, its cone verdict;
    af0, the part of af without n(n+1)/2 alpha^2; `displayed0`, that part of
    af_displayed when eta = 12 c1 (else None); and resid = eta - n c1 as
    integer parts with 3 den^2 resid^2."""

    def __init__(self, s: BaseSurface, n: int, eta: DivisorClass, lam: Fraction):
        try:
            self.fiber = check_spectral_data(s, n, eta, lam)
        except ValueError as exc:
            self.error = str(exc)
            return
        self.error = None
        self.s = s
        self.af0 = s.c2 + 11 * s.c1_sq - self.fiber.numerator  # the fiber term is integral
        twelve_c1 = s.c1.scale(12)
        self.wB = twelve_c1 - eta
        self.wB_json = jsonio.divisor_to_json(self.wB)
        self.wB_zero = self.wB.is_zero()
        self.displayed0 = None
        if eta == twelve_c1:
            # the reading of the twist alpha = 0; wB = 0, so no cone query
            zero = SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, DivisorClass.zero(s.rank)))
            outcome = AnomalyOutcome(self.wB, self.af0, *w_verdict(self.af0, True, None))
            self.displayed0 = spectral_af(s, zero, outcome).af_displayed
        nums, self.resid_dual, self.resid_den = s.integer_parts(eta - s.c1.scale(n))
        self.resid_sq3 = 3 * dot(nums, self.resid_dual)

    @cached_property
    def wB_effective(self) -> bool:
        return self.s.cone_position(self.wB).effective


class _Spectra(dict):
    """The `_Spectrum` of each (n, eta, lambda) met so far on one base."""

    def __init__(self, s: BaseSurface):
        super().__init__()
        self.s = s

    def check(self, n: int, eta: DivisorClass, lam: Fraction) -> Fraction:
        """`check_spectral_data(s, n, eta, lam)`, run once per key."""
        spectrum = self.get((n, eta, lam))
        if spectrum is None:
            spectrum = self[n, eta, lam] = _Spectrum(self.s, n, eta, lam)
        if spectrum.error is not None:
            raise ValueError(spectrum.error)
        return spectrum.fiber


class _Block:
    """The invariants of one run of the box in which only the fastest axes
    vary: c2E and then the polarization for pullback models, a block per
    (n, x, alpha); the polarization alone for spectral models, a block per
    (n, alpha, eta, lambda).  Built from any model of the run; nothing it
    holds outlives it.  Stages (`stages`, in STAGES order) map (block, c2E,
    polarization terms) to a verdict dict, whose key order is part of the
    JSONL output.  Only validity reads the input for errors; the other
    stages compute from data it has passed.  alpha is held as integer
    parts: nums/den, with a_sq = den^2 alpha^2.
    """

    mode: str
    stages: tuple

    def __init__(self, s: BaseSurface, bundle, require: str | None, spectra: _Spectra):
        self.s, self.n, self.alpha, self.require = s, bundle.n, bundle.twist.alpha, require
        try:
            validate_bundle(s, bundle, spectra.check)
        except ValueError as exc:
            self.error = str(exc)
        else:
            self.error = None
            self.nums, self.dual, self.den = s.integer_parts(self.alpha)
            self.a_sq = dot(self.nums, self.dual)
            self._invariants(bundle, spectra)

    def record(self, c2E, pol: _PolTerms, short_circuit: bool, params: dict) -> ModelRecord:
        verdicts: dict = {}
        failed: str | None = None
        for name, stage in zip(STAGES, self.stages):
            verdict = verdicts[name] = stage(self, c2E, pol)
            if not verdict["passed"]:
                if failed is None:
                    failed = name
                if short_circuit or "error" in verdict:
                    break
        return ModelRecord(params, verdicts, failed is None, failed)

    def _alpha_dot(self, dual, den: int) -> tuple:
        """(P, q) with alpha.c = P/q, for c of integer parts (_, dual, den)."""
        return dot(self.nums, dual), self.den * den

    def _validity(self, c2E, pol) -> dict:
        error = self.error or pol.error
        return {"passed": False, "error": error} if error else {"passed": True}

    def _anomaly_verdict(self, wb_json, af, w_zero, w_effective, **readings) -> dict:
        """The anomaly verdict; `readings` go before "passed"."""
        passed = {"W_zero": w_zero, "W_effective": w_effective}
        return {
            "wB": wb_json,
            "af": jsonio.frac_to_str(af),
            "W_zero": w_zero,
            "W_effective": w_effective,
            **readings,
            "passed": passed.get(self.require, True),
        }


class _PullbackBlock(_Block):
    """Per block: validity, af0 and chi0 (af = af0 - c2E, chi = chi0 -
    chi_slope c2E), alpha.c1, wB as numerators over den with its JSON and,
    when a model with af >= 0 first asks, its cone query.  Per (block,
    polarization), on first use: the non-split slope.  Per model: af, chi
    and the lookup of the stability window, solved once per (n, x, a) and
    polarization."""

    mode = "pullback"

    def _invariants(self, bundle, spectra) -> None:
        s, n, den = self.s, self.n, self.den
        self.x = x = int(bundle.twist.x)
        d2, k = den * den, n * (n + 1) // 2
        self.a_c1_num = dot(self.dual, s.c1_ints)
        self.a_c1 = ratio(self.a_c1_num, den)
        self.af0 = ratio((s.c2 + 11 * s.c1_sq) * d2 + k * self.a_sq, d2)
        self.chi0, self.chi_slope = chi_line(n, x, self.a_sq, self.a_c1_num, den, s.c1_sq)
        # wB = (12 - k x^2) c1 + 2 k x alpha, over den
        c, t = 12 - k * x * x, 2 * k * x
        self.wB_nums = [c * den * ci + t * ai for ci, ai in zip(s.c1_ints, self.nums)]
        self.wB_torsion = c * s.c1.torsion % 2  # t is even: t alpha has no torsion
        self.wB_json = jsonio.coeffs_to_json([ratio(w, den) for w in self.wB_nums], self.wB_torsion)
        self.wB_zero = not self.wB_torsion and not any(self.wB_nums)
        self._effective = None
        self._slopes: dict = {}

    def _wb_effective(self) -> bool:
        if self._effective is None:
            wb = DivisorClass(tuple(Fraction(w, self.den) for w in self.wB_nums), self.wB_torsion)
            self._effective = self.s.cone_position(wb).effective
        return self._effective

    def _anomaly(self, c2E, pol) -> dict:
        af = self.af0 - c2E
        flags = w_verdict(af, self.wB_zero, self._wb_effective)
        return self._anomaly_verdict(self.wB_json, af, *flags)

    def _nonsplit(self, c2E, pol) -> dict:
        slope = None
        if self.x > 0:
            slope = self._slopes.get(pol)
            if slope is None:
                # (2H - z c1).alpha over den * H_den * z_den
                p, q = self._alpha_dot(pol.H_dual, pol.H_den)
                z = pol.z
                num = 2 * p * z.denominator - z.numerator * self.a_c1_num * pol.H_den
                slope = self._slopes[pol] = ratio(num, q * z.denominator)
        ns = nonsplit_verdict(self.x, slope, self.chi0 - self.chi_slope * c2E)
        return {"passed": ns.passed, "clause": ns.clause, "value": jsonio.frac_to_str(ns.value)}

    def _stability(self, c2E, pol) -> dict:
        s, n, x = self.s, self.n, self.x
        a = ratio(*self._alpha_dot(pol.H_dual, pol.H_den)) if s.is_enriques else self.a_c1
        verdict = pol.windows.get((n, x, a))
        if verdict is None:
            if s.is_enriques:
                window = window_enriques(n, x, a, pol.hsq)
            else:
                window = window_delpezzo(n, x, a, s.c1_sq, pol.h)
            verdict = pol.windows[n, x, a] = {**jsonio.window_to_json(window), "passed": window.nonempty}
        return verdict

    stages = (_Block._validity, _anomaly, _nonsplit, _stability)


class _SpectralBlock(_Block):
    """Per block: validity, whose spectral data check is read from the
    config's `_Spectrum` of (n, eta, lambda); the anomaly verdict, with both
    af readings for the paper's eta = 12 c1 family; and the non-split
    verdict 3/2 resid^2 - (n+1) alpha.resid > 0.  Per model, that is per
    polarization: the stability test 0 < n alpha.H < (Lambda.H)_min."""

    mode = "spectral"

    def _invariants(self, bundle, spectra) -> None:
        n, den, a_sq = self.n, self.den, self.a_sq
        spectrum = spectra[n, bundle.eta, bundle.lam]
        d2, k = den * den, n * (n + 1) // 2
        af = ratio(spectrum.af0 * d2 + k * a_sq, d2)
        flags = w_verdict(af, spectrum.wB_zero, lambda: spectrum.wB_effective)
        readings = {}
        if spectrum.displayed0 is not None:
            p, q = spectrum.displayed0.numerator, spectrum.displayed0.denominator
            displayed = ratio(p * d2 + k * a_sq * q, q * d2)
            readings = {
                "af_displayed": jsonio.frac_to_str(displayed),
                "af_direct": jsonio.frac_to_str(af),
                "display_agrees": af == displayed,
            }
        self.anomaly = self._anomaly_verdict(spectrum.wB_json, af, *flags, **readings)
        # 3/2 resid^2 - (n+1) alpha.resid over 2 den resid_den^2
        p, _ = self._alpha_dot(spectrum.resid_dual, spectrum.resid_den)
        rd = spectrum.resid_den
        value = ratio(spectrum.resid_sq3 * den - 2 * (n + 1) * p * rd, 2 * den * rd * rd)
        self.nonsplit = {
            "passed": value > 0,
            "clause": "spectral chi>0",
            "value": jsonio.frac_to_str(value),
        }

    def _anomaly(self, c2E, pol) -> dict:
        return self.anomaly

    def _nonsplit(self, c2E, pol) -> dict:
        return self.nonsplit

    def _stability(self, c2E, pol) -> dict:
        ver = spectral_stability(self.n, ratio(*self._alpha_dot(pol.H_dual, pol.H_den)), pol.min_degree)
        min_degree, witness = pol.min_degree_json
        return {
            "passed": ver.passed,
            "alpha_H": jsonio.frac_to_str(ver.a_h),
            "n_alpha_H": jsonio.frac_to_str(ver.n_a_h),
            "min_degree": min_degree,
            "witness": witness,
            # no degree query is bounded any more; the key stays until the
            # output format next changes (ROADMAP items 7 and 9)
            "bound_limited": False,
        }

    stages = (_Block._validity, _anomaly, _nonsplit, _stability)


_BLOCKS = {PullbackBundle: _PullbackBlock, SpectralBundle: _SpectralBlock}


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


@lru_cache(maxsize=4096)  # the classes of a box repeat across its blocks
def _padded_class(coeffs: tuple, rank: int) -> DivisorClass:
    return DivisorClass(coeffs + (0,) * (rank - len(coeffs)))


def _axes(config: SearchConfig, s: BaseSurface) -> list:
    """The box's axes, sized sequences in enumeration order (last fastest).

    Pullback: n, x, one range per alpha_box pair, c2E; spectral: n, the
    alpha_box ranges, the eta_box ranges, lambda.  Last come the
    polarizations as (_PolTerms, params entry) pairs, H_values entries
    before h_values entries.  Refuses a class with more coordinates than the
    base rank and a polarization of the wrong kind or not ample, naming the
    config field, so that a bad config fails before any model is scanned.
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
        axes = [n, config.x_values, *alpha, range(config.c2E_range[0], config.c2E_range[1] + 1)]
    else:
        eta = [range(lo, hi + 1) for lo, hi in config.eta_box or ()]
        axes = [n, *alpha, *eta, config.lambda_values or (Fraction(0),)]
    pols = []
    for vec in config.H_values:
        pol = Polarization(H=_padded_class(vec, s.rank))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        _refuse_unusable_H(s, config.mode, pol.H, f"config field 'H_values' entry {list(vec)}")
        pols.append((_PolTerms(s, config.mode, pol), {"H": list(vec)}))
    for h in config.h_values:
        pol = Polarization(h=Fraction(h))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        pols.append((_PolTerms(s, config.mode, pol), {"h": jsonio.frac_to_str(h)}))
    if not pols:
        raise ValueError("config needs H_values or h_values")
    axes.append(pols)
    return axes


def _model(config: SearchConfig, s: BaseSurface, point: tuple):
    """(bundle, head, tail) of one point of the box of `_axes`.  The params of
    a model are head, its polarization entry, tail and, for a pullback
    model, c2E; head and tail are the same for the whole block."""
    n, *coords, _ = point
    if config.mode == "pullback":
        x, *alpha, c2E = coords
    else:
        *coords, lam = coords
        alpha, eta = coords[: len(config.alpha_box)], coords[len(config.alpha_box):]
    alpha = _padded_class(tuple(alpha), s.rank)
    head = {"base": s.kind, "n": n, "alpha": [str(c) for c in alpha.coeffs]}
    if config.mode == "pullback":
        return PullbackBundle(n=n, c2E=c2E, twist=DivisorX(x, alpha)), head, {"x": x}
    # without eta_box, eta = 12 c1 (on Enriques c1 is pure 2-torsion, so 0)
    eta = _padded_class(tuple(eta) or tuple(12 * c for c in s.c1_ints), s.rank)
    tail = {"eta": [str(c) for c in eta.coeffs], "lambda": jsonio.frac_to_str(lam)}
    return SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha)), head, tail


@dataclass
class SearchSummary:
    scanned: int = 0
    passed: int = 0
    stage_failures: dict = field(default_factory=lambda: {k: 0 for k in STAGES})

    def to_json(self) -> dict:
        return {
            "scanned": self.scanned,
            "passed": self.passed,
            "stage_failures": self.stage_failures,
        }

    def merge(self, other: "SearchSummary") -> None:
        self.scanned += other.scanned
        self.passed += other.passed
        for key, val in other.stage_failures.items():
            self.stage_failures[key] += val


def _emit(record: ModelRecord, require: str | None) -> bool:
    """Records are emitted unconditionally without a requirement; with one,
    only records meeting the anomaly requirement appear in the stream."""
    if require is None:
        return True
    return record.verdicts.get("anomaly", {}).get("passed") is True


def _records(config: SearchConfig, start: int, stop: int | None, axes: list | None = None):
    """Yield the ModelRecord of box points start..stop-1 (None: to the end).

    A block is rebuilt whenever a point's block prefix, the axes before c2E
    (pullback) or before the polarization (spectral), changes; so a chunk
    that starts inside a block builds that block itself.  `axes` are those
    of `_axes`, built here if not given; with them go the per-config tables
    (the windows of each polarization, the spectral data), so a serial scan
    builds each table once and each pool chunk builds its own.
    """
    s = make_base(config.base)
    inner = 2 if config.mode == "pullback" else 1
    spectra = _Spectra(s)
    key = None
    if axes is None:
        axes = _axes(config, s)
    for point in islice(product(*axes), start, stop):
        if point[:-inner] != key:
            key = point[:-inner]
            bundle, head, tail = _model(config, s, point)
            block = _BLOCKS[type(bundle)](s, bundle, config.require, spectra)
        pol, pol_json = point[-1]
        params = {**head, **pol_json, **tail}
        c2E = None
        if inner == 2:
            c2E = params["c2E"] = point[-2]
        yield block.record(c2E, pol, True, params)


def _evaluate_range(config: SearchConfig, start: int, stop: int, axes: list | None = None):
    """JSONL lines to emit and the summary of one chunk of the box."""
    lines = []
    summary = SearchSummary()
    for record in _records(config, start, stop, axes):
        summary.scanned += 1
        if record.overall:
            summary.passed += 1
        else:
            summary.stage_failures[record.failed_stage] += 1
        if _emit(record, config.require):
            lines.append(record.to_json_line())
    return lines, summary


def enumerate_models(config: SearchConfig):
    """Yield a ModelRecord per lattice point of the box, in lex order.

    With a requirement set, only records meeting it are yielded.
    """
    for record in _records(config, 0, None):
        if _emit(record, config.require):
            yield record


def run_search(config: SearchConfig, jobs: int = 1, out=None):
    """Scan the whole box; write JSONL records to `out`; return the summary.

    `config.limit` caps the records written; the summary still counts the
    whole box.  Output is byte-identical for any `jobs` value: chunks are
    merged in enumeration order before writing.
    """
    axes = _axes(config, make_base(config.base))
    total = math.prod(map(len, axes))
    step = max(1, total if jobs <= 1 else -(-total // (jobs * 4)))
    starts = range(0, total, step)
    stops = [min(lo + step, total) for lo in starts]
    summary = SearchSummary()
    emitted = 0
    with ExitStack() as stack:
        if len(starts) > 1:
            # imported here, so that a serial scan never loads the pool; with
            # fork, the pool starts all of its workers up front.  Each chunk
            # builds its own axes from the config.
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(jobs, len(starts))))
            parts = pool.map(_evaluate_range, repeat(config), starts, stops)
        else:
            parts = map(_evaluate_range, repeat(config), starts, stops, repeat(axes))
        for lines, part in parts:
            summary.merge(part)
            if config.limit is not None:
                lines = lines[: max(0, config.limit - emitted)]
            if out is not None:
                out.writelines(line + "\n" for line in lines)
            emitted += len(lines)
    summary_obj = summary.to_json()
    summary_obj["emitted"] = emitted
    if out is not None:
        out.write("# " + json.dumps(summary_obj, separators=(",", ":")) + "\n")
    return summary_obj
