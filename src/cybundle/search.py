"""Exhaustive model scans: validity -> anomaly -> non-split -> stability.

Search configs describe finite integer boxes; enumeration is lexicographic
and the JSONL output is deterministic for any worker count.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product, repeat

from . import jsonio
from .anomaly import anomaly_class, spectral_af
from .bundles import PullbackBundle, SpectralBundle, validate_bundle
from .nonsplit import nonsplit_feasible, spectral_nonsplit
from .ring import DivisorX
from .surfaces import BaseSurface, DivisorClass, make_base
from .windows import spectral_stability_check, window_delpezzo, window_enriques

STAGES = ("validity", "anomaly", "nonsplit", "stability")


@dataclass(frozen=True)
class Polarization:
    H: DivisorClass | None = None  # explicit polarization class
    h: Fraction | None = None  # H = h * c1 on a base with -K ample


@dataclass
class ModelRecord:
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

    The first failed stage is `failed_stage`.  A failure stops the run
    under `short_circuit`; a verdict carrying an "error", which only the
    validity stage gives, always stops it.  `bound` is accepted and unread:
    no query enumerates any more, and the benchmark (bench/child.py) still
    passes it.
    """
    verdicts: dict = {}
    failed: str | None = None
    for name, stage in _PIPELINES[type(bundle)]:
        verdict = verdicts[name] = stage(s, bundle, pol, require)
        if not verdict["passed"]:
            if failed is None:
                failed = name
            if short_circuit or "error" in verdict:
                break
    return ModelRecord(params or {}, verdicts, failed is None, failed)


# Stage functions: (s, bundle, pol, require) -> verdict dict, whose key
# order is part of the JSONL output.  Only `_validity` reads the input for
# errors; the later stages compute from data it has passed.


def _validity(s, bundle, pol, require) -> dict:
    try:
        validate_bundle(s, bundle)
        _refuse_wrong_kind(s, _MODES[type(bundle)], pol)
    except ValueError as exc:
        return {"passed": False, "error": str(exc)}
    return {"passed": True}


def _anomaly(s, bundle, pol, require) -> dict:
    return _anomaly_verdict(anomaly_class(s, bundle), require)


def _spectral_anomaly(s, bundle, pol, require) -> dict:
    """[W], plus both af readings for the paper's eta = 12 c1 family."""
    outcome = anomaly_class(s, bundle)
    if bundle.eta != s.c1.scale(12):
        return _anomaly_verdict(outcome, require)
    rep = spectral_af(s, bundle, outcome)
    return _anomaly_verdict(
        outcome, require, af_displayed=jsonio.frac_to_str(rep.af_displayed),
        af_direct=jsonio.frac_to_str(rep.af_direct), display_agrees=rep.agree,
    )


def _anomaly_verdict(outcome, require, **readings) -> dict:
    """The anomaly verdict of `outcome`; `readings` go before "passed"."""
    passed = {"W_zero": outcome.W_zero, "W_effective": outcome.W_effective is True}
    return {
        "wB": jsonio.divisor_to_json(outcome.wB),
        "af": jsonio.frac_to_str(outcome.af),
        "W_zero": outcome.W_zero,
        "W_effective": outcome.W_effective,
        **readings,
        "passed": passed.get(require, True),
    }


def _pullback_nonsplit(s, bundle, pol, require) -> dict:
    if s.is_enriques:
        h_class, z_rep = pol.H, Fraction(1)
    else:
        z_rep = Fraction(pol.h)
        h_class = s.c1.scale(z_rep)
    ns = nonsplit_feasible(
        s, bundle.n, int(bundle.twist.x), bundle.twist.alpha, bundle.c2E, h_class, z_rep
    )
    return {"passed": ns.passed, "clause": ns.clause, "value": jsonio.frac_to_str(ns.value)}


def _spectral_nonsplit(s, bundle, pol, require) -> dict:
    ns = spectral_nonsplit(s, bundle.n, bundle.n + 1, bundle.eta, bundle.twist.alpha)
    return {
        "passed": ns.passed,
        "clause": "spectral chi>0",
        "value": jsonio.frac_to_str(ns.value),
    }


def _pullback_stability(s, bundle, pol, require) -> dict:
    x = int(bundle.twist.x)
    if s.is_enriques:
        a = s.intersect(bundle.twist.alpha, pol.H)
        window = window_enriques(bundle.n, x, a, s.square(pol.H))
    else:
        a = s.intersect(bundle.twist.alpha, s.c1)
        window = window_delpezzo(bundle.n, x, a, s.c1_sq, pol.h)
    out = jsonio.window_to_json(window)
    out["passed"] = window.nonempty
    return out


def _spectral_stability(s, bundle, pol, require) -> dict:
    h = pol.H if pol.H is not None else s.c1.scale(Fraction(pol.h))
    ver = spectral_stability_check(s, bundle.n, bundle.twist.alpha, h)
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


# bundle type -> ((stage name, stage function), ...) in STAGES order
_PIPELINES = {
    PullbackBundle: tuple(
        zip(STAGES, (_validity, _anomaly, _pullback_nonsplit, _pullback_stability))
    ),
    SpectralBundle: tuple(
        zip(STAGES, (_validity, _spectral_anomaly, _spectral_nonsplit, _spectral_stability))
    ),
}
_MODES = {PullbackBundle: "pullback", SpectralBundle: "spectral"}  # as model files name them


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
    polarizations as (Polarization, params entry) pairs, H_values entries
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
        pols.append((pol, {"H": list(vec)}))
    for h in config.h_values:
        pol = Polarization(h=Fraction(h))
        _refuse_wrong_kind(s, config.mode, pol, in_config=True)
        pols.append((pol, {"h": jsonio.frac_to_str(h)}))
    if not pols:
        raise ValueError("config needs H_values or h_values")
    axes.append(pols)
    return axes


def _model(config: SearchConfig, s: BaseSurface, point: tuple):
    """(bundle, pol, params) of one point of the box of `_axes`."""
    n, *coords, (pol, pol_json) = point
    if config.mode == "pullback":
        x, *alpha, c2E = coords
    else:
        *coords, lam = coords
        alpha, eta = coords[: len(config.alpha_box)], coords[len(config.alpha_box):]
    alpha = _padded_class(alpha, s.rank)
    params = {"base": s.kind, "n": n, "alpha": [str(c) for c in alpha.coeffs], **pol_json}
    if config.mode == "pullback":
        params.update({"x": x, "c2E": c2E})
        return PullbackBundle(n=n, c2E=c2E, twist=DivisorX(x, alpha)), pol, params
    eta = _padded_class(eta, s.rank) if eta else s.c1.scale(12)
    params.update({"eta": [str(c) for c in eta.coeffs], "lambda": jsonio.frac_to_str(lam)})
    return SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha)), pol, params


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
    """Yield the ModelRecord of box points start..stop-1 (None: to the end)."""
    s = make_base(config.base)
    for point in islice(product(*_axes(config, s)), start, stop):
        bundle, pol, params = _model(config, s, point)
        yield check_model(s, bundle, pol, require=config.require, params=params)


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
            # with fork, the pool starts all of its workers up front
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
