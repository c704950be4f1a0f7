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
from functools import cached_property
from itertools import islice, product, repeat

from . import jsonio
from .anomaly import AnomalyOutcome, spectral_af, w_base, w_fiber, w_verdict
from .bundles import PullbackBundle, SpectralBundle, validate_bundle
from .nonsplit import chi_value, nonsplit_verdict, spectral_nonsplit
from .ring import DivisorX
from .surfaces import BaseSurface, DivisorClass, make_base
from .windows import spectral_stability, window_delpezzo, window_enriques

STAGES = ("validity", "anomaly", "nonsplit", "stability")


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
        return json.dumps(self.to_json(), separators=(",", ":"), sort_keys=False)


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
    block = _BLOCKS[type(bundle)](s, bundle, require)
    c2E = bundle.c2E if isinstance(bundle, PullbackBundle) else None
    return block.record(c2E, _PolTerms(s, block.mode, pol), short_circuit, params or {})


class _PolTerms:
    """What the stages read of one polarization, worked out once per config
    (or per `check_model`): the class H (h c1 for a ray h), H^2, the z of
    the non-split slope (h on F0/dPk, 1 on Enriques) and, on first use, the
    minimum degree.  `error` holds the polarization rule the model breaks."""

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
        self.z = Fraction(1) if s.is_enriques else self.h
        self.hsq = s.square(self.H)

    @cached_property
    def min_degree(self):
        return self.s.min_positive_degree(self.H)


class _Block:
    """The invariants of one run of the box in which only the fastest axes
    vary: c2E and then the polarization for pullback models, a block per
    (n, x, alpha); the polarization alone for spectral models, a block per
    (n, alpha, eta, lambda).  Built from any model of the run; nothing it
    holds outlives it.  Stages (`stages`, in STAGES order) map (block, c2E,
    polarization terms) to a verdict dict, whose key order is part of the
    JSONL output.  Only validity reads the input for errors; the other
    stages compute from data it has passed.
    """

    mode: str
    stages: tuple

    def __init__(self, s: BaseSurface, bundle, require: str | None):
        self.s, self.n, self.alpha, self.require = s, bundle.n, bundle.twist.alpha, require
        try:
            c2u_fiber = validate_bundle(s, bundle)
        except ValueError as exc:
            self.error = str(exc)
        else:
            self.error = None
            self._invariants(bundle, c2u_fiber)

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
    """Per block: validity, alpha^2, alpha.c1, wB with its JSON and, when a
    model with af >= 0 first asks, its cone query.  Per (block,
    polarization), on first use: the non-split slope and the stability
    window.  Per model: af and chi."""

    mode = "pullback"

    def _invariants(self, bundle, c2u_fiber) -> None:
        s = self.s
        self.x = int(bundle.twist.x)
        self.a_sq, self.a_c1 = s.square(self.alpha), s.intersect(self.alpha, s.c1)
        self.wB = w_base(s, self.n, bundle.twist)
        self.wB_json = jsonio.divisor_to_json(self.wB)
        self.wB_zero = self.wB.is_zero()
        self._effective = None
        self._slopes: dict = {}
        self._windows: dict = {}

    def _wb_effective(self) -> bool:
        if self._effective is None:
            self._effective = self.s.cone_position(self.wB).effective
        return self._effective

    def _anomaly(self, c2E, pol) -> dict:
        af = w_fiber(self.s, self.n, self.a_sq, c2E)
        flags = w_verdict(af, self.wB_zero, self._wb_effective)
        return self._anomaly_verdict(self.wB_json, af, *flags)

    def _nonsplit(self, c2E, pol) -> dict:
        if self.x > 0 and pol not in self._slopes:
            self._slopes[pol] = 2 * self.s.intersect(pol.H, self.alpha) - pol.z * self.a_c1
        chi = chi_value(self.n, self.x, c2E, self.a_sq, self.a_c1, self.s.c1_sq)
        ns = nonsplit_verdict(self.x, self._slopes.get(pol), chi)
        return {"passed": ns.passed, "clause": ns.clause, "value": jsonio.frac_to_str(ns.value)}

    def _stability(self, c2E, pol) -> dict:
        verdict = self._windows.get(pol)
        if verdict is None:
            s, n, x = self.s, self.n, self.x
            if s.is_enriques:
                window = window_enriques(n, x, s.intersect(self.alpha, pol.H), pol.hsq)
            else:
                window = window_delpezzo(n, x, self.a_c1, s.c1_sq, pol.h)
            verdict = {**jsonio.window_to_json(window), "passed": window.nonempty}
            self._windows[pol] = verdict
        return verdict

    stages = (_Block._validity, _anomaly, _nonsplit, _stability)


class _SpectralBlock(_Block):
    """Per block: validity (with FMW's fiber term of c2(V_n), which it
    checks integral), the anomaly verdict with both af readings for the
    paper's eta = 12 c1 family, and the non-split verdict.  Per model, that
    is per polarization: the stability test."""

    mode = "spectral"

    def _invariants(self, bundle, c2u_fiber) -> None:
        s, n = self.s, self.n
        wb = w_base(s, n, bundle.twist, bundle.eta)
        af = w_fiber(s, n, s.square(self.alpha), c2u_fiber)
        flags = w_verdict(af, wb.is_zero(), lambda: s.cone_position(wb).effective)
        readings = {}
        if bundle.eta == s.c1.scale(12):
            rep = spectral_af(s, bundle, AnomalyOutcome(wb, af, *flags))
            readings = {
                "af_displayed": jsonio.frac_to_str(rep.af_displayed),
                "af_direct": jsonio.frac_to_str(rep.af_direct),
                "display_agrees": rep.agree,
            }
        self.anomaly = self._anomaly_verdict(jsonio.divisor_to_json(wb), af, *flags, **readings)
        ns = spectral_nonsplit(s, n, n + 1, bundle.eta, self.alpha)
        self.nonsplit = {
            "passed": ns.passed,
            "clause": "spectral chi>0",
            "value": jsonio.frac_to_str(ns.value),
        }

    def _anomaly(self, c2E, pol) -> dict:
        return self.anomaly

    def _nonsplit(self, c2E, pol) -> dict:
        return self.nonsplit

    def _stability(self, c2E, pol) -> dict:
        ver = spectral_stability(self.n, self.s.intersect(self.alpha, pol.H), pol.min_degree)
        return {
            "passed": ver.passed,
            "alpha_H": jsonio.frac_to_str(ver.a_h),
            "n_alpha_H": jsonio.frac_to_str(ver.n_a_h),
            "min_degree": jsonio.frac_to_str(ver.min_degree),
            "witness": jsonio.divisor_to_json(ver.witness),
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


def _padded_class(coeffs, rank) -> DivisorClass:
    coeffs = tuple(coeffs)
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
    alpha = _padded_class(alpha, s.rank)
    head = {"base": s.kind, "n": n, "alpha": [str(c) for c in alpha.coeffs]}
    if config.mode == "pullback":
        return PullbackBundle(n=n, c2E=c2E, twist=DivisorX(x, alpha)), head, {"x": x}
    eta = _padded_class(eta, s.rank) if eta else s.c1.scale(12)
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


def _records(config: SearchConfig, start: int, stop: int | None):
    """Yield the ModelRecord of box points start..stop-1 (None: to the end).

    A block is rebuilt whenever a point's block prefix, the axes before c2E
    (pullback) or before the polarization (spectral), changes; so a chunk
    that starts inside a block builds that block itself.
    """
    s = make_base(config.base)
    inner = 2 if config.mode == "pullback" else 1
    key = None
    for point in islice(product(*_axes(config, s)), start, stop):
        if point[:-inner] != key:
            key = point[:-inner]
            bundle, head, tail = _model(config, s, point)
            block = _BLOCKS[type(bundle)](s, bundle, config.require)
        pol, pol_json = point[-1]
        params = {**head, **pol_json, **tail}
        c2E = None
        if inner == 2:
            c2E = params["c2E"] = point[-2]
        yield block.record(c2E, pol, True, params)


def _evaluate_range(config: SearchConfig, start: int, stop: int):
    """JSONL lines to emit and the summary of one chunk of the box."""
    lines = []
    summary = SearchSummary()
    for record in _records(config, start, stop):
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
    total = math.prod(map(len, _axes(config, make_base(config.base))))
    step = max(1, total if jobs <= 1 else -(-total // (jobs * 4)))
    starts = range(0, total, step)
    stops = [min(lo + step, total) for lo in starts]
    summary = SearchSummary()
    emitted = 0
    with ExitStack() as stack:
        evaluate = map
        if len(starts) > 1:
            # imported here, so that a serial scan never loads the pool; with
            # fork, the pool starts all of its workers up front
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(jobs, len(starts)))
            evaluate = stack.enter_context(pool).map
        for lines, part in evaluate(_evaluate_range, repeat(config), starts, stops):
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
