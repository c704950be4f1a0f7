"""Tests for the exhaustive model scan."""

import dataclasses
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from cybundle import anomaly, bundles, cli, ring, search, windows
from cybundle.bundles import PullbackBundle, SpectralBundle
from cybundle.nonsplit import chi_line
from cybundle.ring import DivisorX
from cybundle.search import (
    ModelRecord,
    Polarization,
    SearchConfig,
    check_model,
    run_search,
)
from cybundle.surfaces import BaseSurface, DivisorClass, make_base
from cybundle import jsonio


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


def scan_records(config):
    """The records `run_search` writes, read back from its JSONL."""
    lines = [line for line in search_bytes(config, 1).splitlines() if not line.startswith("#")]
    return [
        ModelRecord(line, r["failed_stage"])
        for line, r in zip(lines, map(json.loads, lines))
    ]


SO10_CONFIG = SearchConfig(
    base="F0",
    mode="pullback",
    n_range=(3, 3),
    x_values=(1,),
    alpha_box=((-1, -1), (-1, -1)),
    c2E_range=(104, 104),
    h_values=(1,),
    require="W_zero",
)


# ---------------------------------------------------------------------------
# single-model pipeline


def test_check_model_so10_passes():
    f0 = make_base("F0")
    b = PullbackBundle(n=3, c2E=104, twist=DivisorX(1, DivisorClass((-1, -1))))
    rec = check_model(f0, b, Polarization(h=1), require="W_zero")
    assert rec.overall and rec.failed_stage is None
    assert all(v["passed"] for v in rec.verdicts.values())
    assert rec.verdicts["stability"]["nonempty"]


def test_check_model_spectral_example():
    f0 = make_base("F0")
    b = SpectralBundle(
        n=2,
        eta=f0.c1.scale(12),
        lam="3/2",
        twist=DivisorX(0, DivisorClass((1, -11))),
    )
    rec = check_model(f0, b, Polarization(H=DivisorClass((3, 34))), short_circuit=False)
    assert rec.verdicts["stability"]["passed"]
    assert rec.verdicts["nonsplit"]["passed"]
    det = rec.verdicts["anomaly"]
    assert det["af_direct"] != det["af_displayed"]
    assert det["display_agrees"] is False


def test_check_model_enriques_x_nonzero_fails_anomaly():
    enr = make_base("enriques")
    b = PullbackBundle(n=2, c2E=12, twist=DivisorX(1, pad((-1, 0), 10)))
    rec = check_model(
        enr, b, Polarization(H=pad((2, 3), 10)), require="W_zero", short_circuit=False
    )
    assert not rec.overall and rec.failed_stage == "anomaly"


def test_check_model_validity_short_circuit():
    f0 = make_base("F0")
    b = SpectralBundle(
        n=2, eta=f0.c1.scale(12), lam=1, twist=DivisorX(0, DivisorClass((1, -11)))
    )
    rec = check_model(f0, b, Polarization(H=DivisorClass((3, 34))))
    assert rec.failed_stage == "validity"
    assert rec.verdicts["validity"]["error"] == "spectral data invalid"
    assert "anomaly" not in rec.verdicts


def test_check_model_error_verdict_stops_without_short_circuit():
    # an error verdict ends the run even when failures do not
    enr = make_base("enriques")
    b = PullbackBundle(n=2, c2E=12, twist=DivisorX(1, pad((-1, 0), 10)))
    rec = check_model(enr, b, Polarization(), short_circuit=False)
    error = "field 'polarization': Enriques pullback models need an explicit polarization H"
    assert rec.line == (
        '{"params":{},"verdicts":{"validity":{"passed":false,"error":"' + error + '"}},'
        '"overall":false,"failed_stage":"validity"}'
    )
    assert rec.failed_stage == "validity" and not rec.overall


@pytest.mark.parametrize("short_circuit", [True, False])
@pytest.mark.parametrize(
    "kind, n, eta, lam, alpha, H, status",
    [
        ("F0", 2, (24, 24), Fraction(3, 2), (1, -11), (1, 0), "not"),
        ("enriques", 2, (2, 3), Fraction(1, 2), (0, -1), (1, 0), "not"),
        # outside Gamma^{1,1}, where ampleness is undecided
        ("enriques", 2, (2, 3), Fraction(1, 2), (0, -1), (4, 3, 1), "not known to be"),
    ],
)
def test_check_model_refuses_a_spectral_H_that_is_not_ample(kind, n, eta, lam, alpha, H, status, short_circuit):
    # the spectral stability stage needs H ample: a valid bundle with such an
    # H fails validity, with the message `cybundle check` prints, whichever
    # stages would run
    s = make_base(kind)
    bundle = SpectralBundle(n=n, eta=pad(eta, s.rank), lam=lam, twist=DivisorX(0, pad(alpha, s.rank)))
    rec = check_model(s, bundle, Polarization(H=pad(H, s.rank)), short_circuit=short_circuit)
    assert rec.failed_stage == "validity"
    error = f"field 'H' is {status} ample on base {kind}"
    assert rec.line == (
        '{"params":{},"verdicts":{"validity":{"passed":false,"error":"' + error + '"}},'
        '"overall":false,"failed_stage":"validity"}'
    )


def test_check_model_leaves_an_enriques_pullback_H_to_its_caller():
    # a pullback model reads H only through intersection numbers: like
    # `cybundle check` and a scan, check_model refuses a pullback H that is
    # not ample, and leaves one outside Gamma^{1,1}, whose ampleness is
    # undecided, to its caller
    enr = make_base("enriques")
    bundle = PullbackBundle(n=2, c2E=12, twist=DivisorX(0, pad((0, -1), 10)))
    rec = check_model(enr, bundle, Polarization(H=pad((2, 3, 1), 10)), short_circuit=False)
    assert rec.verdicts["validity"] == {"passed": True}
    assert list(rec.verdicts) == list(search.STAGES)


def test_record_invariant_overall_implies_all_stages():
    for rec in scan_records(SO10_CONFIG):
        if rec.overall:
            assert all(v.get("passed", True) for v in rec.verdicts.values())
            assert rec.failed_stage is None


# ---------------------------------------------------------------------------
# enumeration semantics


def test_singleton_so10_box():
    records = scan_records(SO10_CONFIG)
    assert len(records) == 1
    assert records[0].overall
    assert records[0].verdicts["anomaly"]["W_zero"]


def test_enriques_x_nonzero_w_zero_scan_never_passes():
    config = SearchConfig(
        base="enriques",
        mode="pullback",
        n_range=(2, 2),
        x_values=(-2, -1, 1, 2),
        alpha_box=((-2, 2), (-2, 2)),
        c2E_range=(12, 12),
        H_values=((2, 3),),
        require="W_zero",
    )
    records = scan_records(config)
    # the only [W]=0 hits have alpha = 0 (no non-split extension exists for
    # them), and every one fails a later stage: no x != 0 model survives
    assert all(not r.overall for r in records)
    for r in records:
        assert r.params["alpha"] == ["0", "0"] + ["0"] * 8
    out = io.StringIO()
    summary = run_search(config, out=out)
    assert summary["passed"] == 0


def test_empty_box_is_empty_stream():
    config = SearchConfig(
        base="F0",
        mode="pullback",
        n_range=(3, 2),  # empty range
        x_values=(1,),
        alpha_box=((0, 0), (0, 0)),
        c2E_range=(0, 10),
        h_values=(1,),
    )
    assert scan_records(config) == []
    out = io.StringIO()
    summary = run_search(config, out=out)
    assert summary["scanned"] == 0 and summary["emitted"] == 0


def test_limit_zero_still_scans():
    out = io.StringIO()
    summary = run_search(dataclasses.replace(SO10_CONFIG, limit=0), out=out)
    assert summary["scanned"] == 1
    assert summary["emitted"] == 0
    lines = out.getvalue().splitlines()
    assert lines == ["# " + json.dumps(summary, separators=(",", ":"))]


def _count_calls(monkeypatch, counts, func, owners=(search, anomaly, bundles, ring, windows)):
    """Count calls of `func` through every name bound to it in `owners`:
    the modules that import it, or the class of a method."""

    def counted(*args, **kwargs):
        counts[func.__name__] += 1
        return func(*args, **kwargs)

    counts[func.__name__] = 0
    for owner in owners:
        if getattr(owner, func.__name__, None) is func:
            monkeypatch.setattr(owner, func.__name__, counted)


def _blocks(records, inner):
    """Records grouped by block: params without the `inner` keys."""
    blocks = {}
    for r in records:
        key = tuple((k, repr(v)) for k, v in r.params.items() if k not in inner)
        blocks.setdefault(key, []).append(r)
    return list(blocks.values())


def _wb_queries(blocks, share=()):
    """The wB effectivity queries a scan should ask: one per block in which wB is
    not zero and some model has af >= 0; blocks whose params agree on the
    keys `share` (a spectral (n, eta, lambda)) ask once between them."""
    asked = Counter()
    seen = set()
    for block in blocks:
        anomalies = [r.verdicts["anomaly"] for r in block if "anomaly" in r.verdicts]
        key = tuple(repr(block[0].params[k]) for k in share) or id(block)
        if key not in seen and any(Fraction(a["af"]) >= 0 for a in anomalies):
            seen.add(key)
            wb = jsonio.divisor_from_json(anomalies[0]["wB"], make_base(block[0].params["base"]))
            if not wb.is_zero():
                asked[wb] += 1
    return asked


def test_each_model_quantity_computed_once(monkeypatch):
    # once per pullback n: the rank rule, its whole validity; once per
    # block, not per model: the pullback effectivity query of wB; once per
    # spectral (n, eta, lambda): the rank rule and the integer spectral data
    # rule on eta's parts, with no bundle validated, and the effectivity
    # query of wB = 12 c1 - eta; once per (n, x, alpha.c1), for every
    # polarization: the stability window's solve in t, and no window through
    # the Fraction wrapper.  No bundle rule (`validate_parts`) nor Fraction
    # wrapper of validity is on the scan path, nor the Chern ring
    counts = {}
    for func in (
        bundles.validate_bundle,
        bundles.validate_parts,
        bundles.check_rank,
        bundles.check_spectral_data,
        bundles.check_spectral_parts,
        bundles.chern_extension,
        ring.triple_product,
        windows.solve_delpezzo,
        windows.window_delpezzo,
    ):
        _count_calls(monkeypatch, counts, func)
    # every alpha and eta of these boxes is integral, so the kernel's
    # numerators are the coefficients of the class it is asked about
    queried = Counter()
    effective = BaseSurface.effective
    monkeypatch.setattr(
        BaseSurface,
        "effective",
        lambda s, nums, dual=None: queried.update([DivisorClass(tuple(nums))]) or effective(s, nums, dual),
    )
    # alpha = 0 blocks have af < 0 for every c2E and ask no effectivity query
    pullback = dataclasses.replace(
        SO10_CONFIG,
        n_range=(2, 3),
        x_values=(-1, 1, 2),
        alpha_box=((-2, 0), (-2, 0)),
        c2E_range=(98, 104),
        h_values=(1, 2),
        require=None,
    )
    # wB = 12 c1 - eta is not zero for eta != 12 c1; lambda = 1 is
    # parity-invalid for n = 2 and 1/2 for n = 3
    spectral = SearchConfig(
        base="F0",
        mode="spectral",
        n_range=(2, 3),
        alpha_box=((1, 1), (-12, -10)),
        eta_box=((24, 25), (23, 24)),
        lambda_values=(Fraction(1, 2), Fraction(3, 2), Fraction(1)),
        H_values=((3, 34),),
        h_values=(Fraction(1),),
    )
    records = [scan_records(c) for c in (pullback, spectral)]
    blocks = [_blocks(records[0], ("c2E", "h")), _blocks(records[1], ("H", "h"))]
    assert all(len(b) < len(r) for b, r in zip(blocks, records))
    spectra = {(r.params["n"], repr(r.params["eta"]), r.params["lambda"]) for r in records[1]}
    f0 = make_base("F0")
    windows_written = {
        (p["n"], p["x"], f0.intersect(pad([int(c) for c in p["alpha"]], 2), f0.c1), p["h"])
        for p in (r.params for r in records[0] if "stability" in r.verdicts)
    }
    windows_solved = {w[:3] for w in windows_written}
    assert len(spectra) < len(blocks[1])
    # the two rays share each solve
    assert 0 < len(windows_solved) < len(windows_written) < len(blocks[0])
    assert counts == {
        "validate_bundle": 0,
        "validate_parts": 0,
        "check_rank": len({r.params["n"] for r in records[0]}) + len(spectra),
        "check_spectral_data": 0,
        "check_spectral_parts": len(spectra),
        "chern_extension": 0,
        "triple_product": 0,
        "solve_delpezzo": len(windows_solved),
        "window_delpezzo": 0,
    }
    asked = _wb_queries(blocks[0]) + _wb_queries(blocks[1], ("n", "eta", "lambda"))
    assert 0 < sum(asked.values()) < len(blocks[0]) + len(spectra)
    assert Counter({c: queried[c] for c in asked}) == asked
    calls = []
    intersect = BaseSurface.intersect
    monkeypatch.setattr(BaseSurface, "intersect", lambda *args: calls.append(1) or intersect(*args))
    assert make_base("F0").c1_sq == 8 and calls == []
    # the set-up is in integers too: H^2, the parts of alpha and the
    # validity of the zero twist, in a scan and in check_model alike
    for base, pols in (("dP8", {"h_values": ["1", "3/2"]}), ("enriques", {"H_values": [[2, 3]]})):
        config = SearchConfig.from_json({
            "base": base,
            "mode": "pullback",
            "n_range": [2, 3],
            "x_values": [-1, 1],
            "alpha_box": [[-1, 1], [-1, 1], [0, 1]],
            "c2E_range": [10, 12],
            **pols,
        })
        assert run_search(config)["scanned"] == 2 * 2 * 18 * 3 * len(config.h_values or config.H_values)
        bundle, pol, params = next(_box_models(config))
        assert check_model(make_base(base), bundle, pol, short_circuit=False, params=params).verdicts
    assert calls == []


def test_each_enriques_quantity_computed_once(monkeypatch):
    # an Enriques pullback box: the walk asks `BaseSurface.effective` nothing
    # for wB, whose query reads alpha's pairings, and takes no dual at all:
    # alpha's pairings come from its live coordinates, the Gram block of the
    # box and the duals the set-up holds.  So do the F0 and dP8 boxes, which
    # ask `effective` of wB.  The set-up (`_axes`) is not counted: it takes
    # each polarization's parts and ampleness query, and the counters start
    # when it returns
    s = make_base("enriques")
    pullback = SearchConfig.from_json({
        "base": "enriques",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [-1, 1, 3],
        "alpha_box": [[-1, 1], [-1, 1]],
        "c2E_range": [0, 14],
        "H_values": [[2, 3], [3, 3]],
    })
    others = [
        dataclasses.replace(pullback, base=base, c2E_range=(lo, lo + 14), H_values=(), h_values=(1, Fraction(3, 2)))
        for base, lo in (("F0", 90), ("dP8", 0))
    ]
    counts = {}
    for func in (BaseSurface.effective, BaseSurface.dual):
        _count_calls(monkeypatch, counts, func, (BaseSurface,))
    axes = search._axes

    def set_up(*args):
        built = axes(*args)
        counts.update(effective=0, dual=0)
        return built

    monkeypatch.setattr(search, "_axes", set_up)
    for config in [*others, pullback]:
        lines = search_bytes(config, 1).splitlines()[:-1]
        alphas, pols = 9, len(config.h_values or config.H_values)
        assert len(lines) == 2 * 3 * alphas * 15 * pols
        assert counts["dual"] == 0
        assert (counts["effective"] == 0) == (config.base == "enriques"), config.base
    # the Enriques walk asked its query where af >= 0 and wB != 0, with both answers
    anomalies = [json.loads(line)["verdicts"]["anomaly"] for line in lines]
    asked = [a for a in anomalies if Fraction(a["af"]) >= 0 and not jsonio.divisor_from_json(a["wB"], s).is_zero()]
    assert {a["W_effective"] for a in asked} == {True, False}
    # an Enriques spectral box with invalid (eta, lambda): the validity
    # error of each is encoded once per n, and its text after the params is
    # one object, which the block of every alpha reads
    spectral = SearchConfig.from_json({
        "base": "enriques",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[0, 1], [-1, 0]],
        "eta_box": [[2, 3], [3, 4]],
        "lambda_values": ["1/2", "1", "3/2"],
        "H_values": [[5, 6], [3, 4]],
    })
    encode, emit = search._ENCODER.encode, search._emit
    errors, texts = [], {}

    def encoded(obj):
        if isinstance(obj, dict) and "error" in obj:
            errors.append(obj)
        return encode(obj)

    def emitted(terms, models, *rest):
        n = int(re.search(r'"n":(\d+),', terms[0][0])[1])
        for end, unmet, _ in models:
            if unmet == "validity":
                texts.setdefault((n, end), []).append(id(end))
        return emit(terms, models, *rest)

    monkeypatch.setattr(search._ENCODER, "encode", encoded)
    monkeypatch.setattr(search, "_emit", emitted)
    summary = run_search(spectral)
    assert summary["stage_failures"]["validity"] > 0 and summary["passed"] > 0
    assert len(errors) == len(texts) and {n for n, _ in texts} == {2, 3}
    assert all(len(ids) == 4 and len(set(ids)) == 1 for ids in texts.values())


def test_spectral_check_does_no_class_arithmetic(monkeypatch):
    # a valid F0/dPk spectral model is checked on integer parts: its spectral
    # data, af readings, wB, resid and minimum degree ask for no Fraction
    # class arithmetic, no intersect and no full cone query
    counts = {}
    for func, owner in (
        (BaseSurface.intersect, BaseSurface),
        (BaseSurface.cone_position, BaseSurface),
        (DivisorClass.scale, DivisorClass),
        (DivisorClass.__sub__, DivisorClass),
    ):
        _count_calls(monkeypatch, counts, func, (owner,))
    cases = [
        # the paper's eta = 12 c1 (wB = 0, both af readings), then wB != 0
        ("F0", 2, (24, 24), Fraction(3, 2), (1, -11), (5, 40)),
        ("F0", 2, (24, 25), Fraction(1, 2), (1, -10), (3, 34)),
        ("dP3", 3, (45, -15, -15, -15), Fraction(1), (1, 0, 0, -1), (3, -1, -1, -1)),
        ("dP8", 3, (33,) + (-11,) * 8, Fraction(-1), (0,) * 9, (6,) + (-2,) * 8),
        # rays H = h c1, whose minimum degree is h times that of c1
        ("F0", 2, (24, 24), Fraction(3, 2), (1, -11), Fraction(7, 5)),
        ("dP3", 3, (45, -15, -15, -15), Fraction(1), (1, 0, 0, -1), Fraction(1, 3)),
    ]
    for kind, n, eta, lam, alpha, H in cases:
        s = make_base(kind)
        bundle = SpectralBundle(n=n, eta=DivisorClass(eta), lam=lam, twist=DivisorX(0, DivisorClass(alpha)))
        pol = Polarization(h=H) if isinstance(H, Fraction) else Polarization(H=DivisorClass(H))
        record = check_model(s, bundle, pol, short_circuit=False)
        assert record.verdicts["validity"]["passed"] and "stability" in record.verdicts
    assert counts == {"intersect": 0, "cone_position": 0, "scale": 0, "__sub__": 0}


def test_each_record_rendered_from_fragments(monkeypatch):
    # the f0 seed-0 pullback box of the benchmark: no record goes through
    # the encoder, not even once per block; each is joined from block
    # fragments written by hand, a window's floats by repr.  The encoder
    # writes the summary line alone
    config = SearchConfig.from_json({
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 4],
        "x_values": [-2, -1, 1, 2],
        "alpha_box": [[-3, 3], [-3, 3]],
        "c2E_range": [90, 92],
        "h_values": ["1", "2"],
    })
    encode = search._ENCODER.encode
    calls = []
    monkeypatch.setattr(search._ENCODER, "encode", lambda obj: calls.append(1) or encode(obj))
    out = io.StringIO()
    summary = run_search(config, out=out)
    assert summary["scanned"] == 3528 and calls == [1]
    assert out.getvalue().endswith(f"\n# {json.dumps(summary, separators=(',', ':'))}\n")
    calls.clear()
    records = [ModelRecord(line, None) for line in out.getvalue().splitlines()[:-1]]
    assert len(records) == 3528
    assert any("z_interval_approx" in r.verdicts.get("stability", {}) for r in records)
    # the counter sees the encoder where it runs: on the params of a check
    bundle, pol, params = next(_box_models(config))
    check_model(make_base("F0"), bundle, pol, params=params)
    assert calls == [1]


def test_block_terms_computed_on_their_axes(monkeypatch):
    # the f0 seed-0 pullback box of the benchmark: non-split verdicts once
    # per (block, c2E) whose lines print chi and once per (alpha,
    # polarization) whose slope fails, not once per block and polarization;
    # at most one wB effectivity query per block, required scan or not
    box = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 4],
        "x_values": [-2, -1, 1, 2],
        "alpha_box": [[-3, 3], [-3, 3]],
        "c2E_range": [90, 92],
        "h_values": ["1", "2"],
    }
    counts = {}
    _count_calls(monkeypatch, counts, search.nonsplit_verdict, (search,))
    _count_calls(monkeypatch, counts, BaseSurface.effective, (BaseSurface,))
    records = scan_records(SearchConfig.from_json(box))
    blocks = _blocks(records, ("c2E", "h"))
    chi_runs, slopes, pairs = set(), set(), set()
    for r in records:
        p, clause = r.params, r.verdicts["nonsplit"]["clause"]
        alpha = tuple(p["alpha"])
        if clause == "(2H-zc1).alpha<=0":
            slopes.add((alpha, p["h"]))
        else:
            chi_runs.add((p["n"], p["x"], alpha, p["c2E"]))
        if p["x"] > 0:
            pairs.add((alpha, p["h"]))
    assert 0 < len(slopes) < len(pairs)
    assert 0 < counts["nonsplit_verdict"] <= len(chi_runs) + len(slopes) <= 3 * len(blocks) + len(pairs)
    assert 0 < counts["effective"] <= len(blocks)
    counts["effective"] = 0
    assert 0 < run_search(SearchConfig.from_json({**box, "require": "W_effective"}))["emitted"]
    assert 0 < counts["effective"] <= len(blocks)


def _rebuilt_frac_to_str(f) -> str:
    """`jsonio.frac_to_str` as it was, every non-int rebuilt through Fraction(f)."""
    if type(f) is int:
        return str(f)
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def test_frac_to_str_fast_path_prints_as_before():
    # a Fraction is printed as it is; anything else still goes through Fraction(f)
    big = 10**999 + 7
    values = [0, 1, -1, 12, -10**999, big, True, False]
    values += [Fraction(p, q) for p in (0, 1, -1, 6, -6, 10, big, -big) for q in (1, 2, 4, 3, 10**999)]
    values += ["6/4", "-10/4", " 8/2 ", "0.5", 0.25, -2.0]
    for v in values:
        assert jsonio.frac_to_str(v) == _rebuilt_frac_to_str(v), v
    assert jsonio.frac_to_str(Fraction(-6, 4)) == "-3/2" and jsonio.frac_to_str(Fraction(big, -1)) == str(-big)


def test_lexicographic_order():
    config = SearchConfig(
        base="F0",
        mode="pullback",
        n_range=(2, 3),
        x_values=(1, 2),
        alpha_box=((-1, 0), (-1, 0)),
        c2E_range=(90, 92),
        h_values=(1,),
    )
    params = [r.params for r in scan_records(config)]
    keys = [(p["n"], p["x"], p["alpha"], p["c2E"]) for p in params]
    assert keys == sorted(keys)
    assert len(keys) == 2 * 2 * 4 * 3


def _ordered_params(config):
    return [list(r.params.items()) for r in scan_records(config)]


def test_pullback_enumeration_order_matches_nested_loops():
    # two alpha_box pairs on the rank-3 dP2: the third coordinate is 0
    config = SearchConfig.from_json({
        "base": "dP2",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [-1, 1],
        "alpha_box": [[-1, 0], [0, 1]],
        "c2E_range": [100, 101],
        "h_values": ["1", "3/2"],
    })
    expected = []
    for n in (2, 3):
        for x in (-1, 1):
            for a0 in (-1, 0):
                for a1 in (0, 1):
                    for c2E in (100, 101):
                        for h in ("1", "3/2"):
                            expected.append([
                                ("base", "dP2"), ("n", n), ("alpha", [str(a0), str(a1), "0"]),
                                ("h", h), ("x", x), ("c2E", c2E),
                            ])
    assert _ordered_params(config) == expected


def test_spectral_enumeration_order_matches_nested_loops():
    # no lambda_values: lambda is 0; H_values entries come before h_values entries
    config = SearchConfig.from_json({
        "base": "F0",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[0, 1], [-11, -10]],
        "eta_box": [[24, 24], [24, 25]],
        "H_values": [[3, 34]],
        "h_values": ["1"],
    })
    expected = []
    for n in (2, 3):
        for a0 in (0, 1):
            for a1 in (-11, -10):
                for e1 in (24, 25):
                    for pol in (("H", [3, 34]), ("h", "1")):
                        expected.append([
                            ("base", "F0"), ("n", n), ("alpha", [str(a0), str(a1)]), pol,
                            ("eta", ["24", str(e1)]), ("lambda", "0"),
                        ])
    assert _ordered_params(config) == expected


# ---------------------------------------------------------------------------
# deterministic parallel driver


def search_bytes(config, jobs):
    out = io.StringIO()
    run_search(config, jobs=jobs, out=out)
    return out.getvalue()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_axes_built_once_per_scan(monkeypatch, jobs):
    # a 15-model box of 3 blocks: the scan, at any --jobs, reads the axes
    # that run_search built
    calls = []
    axes = search._axes
    monkeypatch.setattr(search, "_axes", lambda *args: calls.append(args) or axes(*args))
    config = dataclasses.replace(SO10_CONFIG, n_range=(2, 4), c2E_range=(100, 104), require=None)
    assert search_bytes(config, jobs).count("\n") == 15 + 1
    assert len(calls) == 1


DP2_PULLBACK = {
    "base": "dP2",
    "mode": "pullback",
    "n_range": [2, 3],
    "x_values": [-1, 1, 2],
    "alpha_box": [[-2, 0], [-1, 1]],
    "c2E_range": [80, 82],
    "h_values": ["1", "3/2"],
}

# n = 2 and 3 share each (eta, lambda); lambda = 1/2 is parity-invalid
# for n = 3 and 1 for n = 2
F0_SPECTRAL = {
    "base": "F0",
    "mode": "spectral",
    "n_range": [2, 3],
    "alpha_box": [[0, 1], [-11, -10]],
    "eta_box": [[24, 25], [24, 24]],
    "lambda_values": ["1/2", "1"],
    "H_values": [[3, 34], [1, 1]],
    "h_values": ["1"],
}


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(
            base="F0",
            mode="pullback",
            n_range=(2, 3),
            x_values=(1, 2),
            alpha_box=((-2, 0), (-2, 0)),
            c2E_range=(100, 106),
            h_values=(1,),
        ),
        # 54 blocks of 6 models
        SearchConfig.from_json(DP2_PULLBACK),
        # 3 blocks of 10 models
        dataclasses.replace(SO10_CONFIG, n_range=(2, 4), c2E_range=(100, 104), h_values=(1, 2), require=None),
        SearchConfig.from_json(F0_SPECTRAL),
    ],
    ids=["F0", "dP2", "SO10-blocks", "F0-spectral"],
)
def test_serial_parallel_equivalence(config):
    # --jobs is accepted and has no effect on the bytes
    serial = search_bytes(config, 1)
    assert serial.count("\n") > 1
    assert search_bytes(config, 2) == serial
    assert serial == search_bytes(config, 1)  # rerun determinism


def _volume(config):
    """The number of models of a config's box, from its fields."""
    sides = [config.n_range[1] - config.n_range[0] + 1]
    sides += [hi - lo + 1 for lo, hi in config.alpha_box + (config.eta_box or ())]
    if config.mode == "pullback":
        sides += [len(config.x_values), config.c2E_range[1] - config.c2E_range[0] + 1]
    else:
        sides.append(len(config.lambda_values) or 1)
    return math.prod(sides) * (len(config.H_values) + len(config.h_values))


def _stage_under(record, require):
    """The failed stage, under `require`, of the model of a record scanned
    without a requirement: one that passed validity fails the anomaly stage
    exactly when its anomaly verdict lacks the required flag."""
    failed = record["failed_stage"]
    if require and failed != "validity" and not record["verdicts"]["anomaly"][require]:
        return "anomaly"
    return failed


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig.from_json(DP2_PULLBACK),
        SearchConfig.from_json(F0_SPECTRAL),
        SearchConfig.from_json({
            "base": "enriques",
            "mode": "pullback",
            "n_range": [2, 3],
            "x_values": [-1, 0, 1],
            "alpha_box": [[-1, 1], [-1, 1]],
            "c2E_range": [10, 14],
            "H_values": [[2, 3]],
        }),
        dataclasses.replace(
            SO10_CONFIG,
            n_range=(2, 3),
            x_values=(-1, 1, 2),
            alpha_box=((-2, 0), (-2, 0)),
            c2E_range=(98, 104),
            h_values=(1, 2),
            require=None,
        ),
    ],
    ids=["dP2-pullback", "F0-spectral", "enriques-pullback", "F0-pullback"],
)
def test_summary_tallies_the_box(config):
    # the summary counts each model of the box once, by its failed stage;
    # the oracle is the require-free scan's records
    lines = search_bytes(config, 1).splitlines()[:-1]
    records = list(map(json.loads, lines))
    assert len(records) == _volume(config)
    for require in (None, "W_zero", "W_effective"):
        stages = [_stage_under(r, require) for r in records]
        tally = Counter(stages)
        unmet = ("validity", "anomaly") if require else ()
        emitted = [line for line, failed in zip(lines, stages) if failed not in unmet]
        out = io.StringIO()
        summary = run_search(dataclasses.replace(config, require=require), out=out)
        assert out.getvalue().splitlines()[:-1] == emitted
        assert summary == {
            "scanned": _volume(config),
            "passed": tally[None],
            "stage_failures": {stage: tally[stage] for stage in search.STAGES},
            "emitted": len(emitted),
        }


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
def test_empty_box_holds_no_axis_whole(mode):
    # an empty box (no c2E; no eta) whose alpha_box axis spans 10^7 values
    # scans nothing without building that axis, which product() would hold
    # as 10^7 ints, hundreds of MB
    box = {"base": "F0", "mode": mode, "n_range": [2, 2], "alpha_box": [[0, 10**7 - 1], [0, 0]], "h_values": ["1"]}
    box.update({"x_values": [1], "c2E_range": [1, 0]} if mode == "pullback" else {"eta_box": [[1, 0]]})
    config = SearchConfig.from_json(box)
    tracemalloc.start()
    try:
        summary = run_search(config, out=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["scanned"] == 0 and peak < 2**20


def _seeded_box(rng, mode):
    """A small seeded box on F0 or dP3 in `mode`, of at least two blocks."""
    base = rng.choice(["F0", "dP3"])
    box = {
        "base": base,
        "mode": mode,
        "n_range": [2, 3],
        "alpha_box": [[lo, lo + rng.randint(0, 3)] for lo in (rng.randint(-2, 1) for _ in range(rng.randint(1, 2)))],
        "h_values": ["1", "2"][: rng.randint(1, 2)],
    }
    if mode == "pullback":
        box.update(x_values=rng.sample([-2, -1, 1, 2], rng.randint(1, 3)), c2E_range=[100, 100 + rng.randint(0, 2)])
    else:
        c = 24 if base == "F0" else 36
        box.update(eta_box=[[c - rng.randint(0, 1), c]], lambda_values=["1/2", "1", "3/2"][: rng.randint(1, 3)])
    return SearchConfig.from_json(box)


@pytest.mark.parametrize("seed", range(6))
def test_chunk_walks_the_product_from_its_start(seed):
    # the alphas of the alpha_box axes and the etas of the eta_box axes, or
    # of no axes at all, come in the order of product(), from its start,
    # padded with zeros to the base rank; no axes give alpha = 0 and the
    # one eta = 12 c1
    rng = random.Random(f"points:{seed}")
    for mode in ("pullback", "spectral"):
        config = _seeded_box(rng, mode)
        s = make_base(config.base)
        (block_axes, inner), _ = search._axes(config, s)
        alpha_axes = block_axes[2:] if mode == "pullback" else block_axes[1:]
        for axes in (alpha_axes, []):
            got = [pad(alpha.nums, s.rank) for alpha in search._alphas(s, axes)]
            assert got == [pad(point, s.rank) for point in itertools.product(*axes)]
        if mode == "spectral":
            decode, lams = json.JSONDecoder().raw_decode, inner[-1]
            for eta_axes in (inner[:-1], []):
                models = search._spectra(s, 2, [*eta_axes, lams])
                params = [decode("{" + (text if spectrum else text[0]))[0] for spectrum, text in models]
                points = itertools.product(*eta_axes) if eta_axes else [[12 * c for c in s.c1_ints]]
                want = [pad(point, s.rank) for point in points]
                assert [pad([int(c) for c in p["eta"]], s.rank) for p in params[:: len(lams)]] == want


@pytest.mark.parametrize(
    "box, runs",
    [
        # 54 blocks of 6 models: each write holds two whole blocks
        (DP2_PULLBACK, [12] * 27),
        # n = 0 and 1 fail validity: 8 blocks (n, x, alpha) of 5 c2E x 2 h
        (
            {
                "base": "F0",
                "mode": "pullback",
                "n_range": [0, 1],
                "x_values": [1, 2],
                "alpha_box": [[-1, 0], [0, 0]],
                "c2E_range": [98, 102],
                "h_values": ["1", "2"],
            },
            [10] * 8,
        ),
        # 8 blocks (n, alpha) of 2 eta x 2 lambda x 3 polarizations
        (F0_SPECTRAL, [12] * 8),
    ],
    ids=["dP2-pullback", "F0-pullback-invalid-n", "F0-spectral"],
)
def test_scan_writes_runs_of_whole_blocks(monkeypatch, box, runs):
    # with runs of at least 10 lines, each write but the summary holds the
    # whole blocks of one run, so the box's text is never held whole
    config = SearchConfig.from_json(box)
    serial = search_bytes(config, 1)
    monkeypatch.setattr(search, "_WRITE_RUN", 10)
    writes = []
    run_search(config, out=SimpleNamespace(write=writes.append))
    assert "".join(writes) == serial
    assert [text.count("\n") for text in writes[:-1]] == runs


# ---------------------------------------------------------------------------
# required scans: each block's c2E axis split at af0


# per base: the polarizations, and af0 = c2 + 11 c1^2 of the blocks with
# alpha = 0, where n = 2, x = 2 gives wB = 0 on every base
_REQUIRED_BASES = {
    "F0": ({"h_values": ["1", "2"]}, 92),
    "dP5": ({"h_values": ["1", "3/2"]}, 52),
    "enriques": ({"H_values": [[2, 3], [3, 4]]}, 12),
}
# the c2E range around that af0: at its first, last or an interior c2E, or
# one below or one above the range
_AF0_PLACEMENTS = {"first": (0, 3), "last": (-3, 0), "interior": (-2, 2), "below": (1, 4), "above": (-4, -1)}


def _required_box(base, placement, seed):
    """A seeded pullback box on `base` that holds the wB = 0 block n = 2,
    x = 2, alpha = 0, with its af0 placed on the c2E range as `placement`."""
    rng = random.Random(seed)
    pols, af0 = _REQUIRED_BASES[base]
    lo, hi = _AF0_PLACEMENTS[placement]
    return {
        "base": base,
        "mode": "pullback",
        "n_range": [2, rng.choice([2, 3])],
        "x_values": sorted(rng.sample([-2, -1, 1], 2)) + [2],
        "alpha_box": [[-rng.randint(1, 2), rng.randint(0, 1)], [-1, rng.randint(0, 2)]],
        "c2E_range": [af0 + lo, af0 + hi],
        **pols,
    }


def _box_models(config):
    """(bundle, polarization, params) of each model of a pullback box, in
    enumeration order, with the params of its search record."""
    s = make_base(config.base)
    pols = [({"H": list(v)}, Polarization(H=pad(v, s.rank))) for v in config.H_values]
    pols += [({"h": jsonio.frac_to_str(h)}, Polarization(h=h)) for h in config.h_values]
    ns, c2Es = (range(lo, hi + 1) for lo, hi in (config.n_range, config.c2E_range))
    alphas = [range(lo, hi + 1) for lo, hi in config.alpha_box]
    for n, x, *alpha in itertools.product(ns, config.x_values, *alphas):
        twist = DivisorX(x, pad(alpha, s.rank))
        for c2E, (pol_params, pol) in itertools.product(c2Es, pols):
            alpha_text = [str(c) for c in pad(alpha, s.rank).coeffs]
            params = {"base": s.kind, "n": n, "alpha": alpha_text, **pol_params, "x": x, "c2E": c2E}
            yield PullbackBundle(n=n, c2E=c2E, twist=twist), pol, params


@pytest.mark.parametrize("placement", sorted(_AF0_PLACEMENTS))
@pytest.mark.parametrize("base, seed", [("F0", 1), ("dP5", 2), ("enriques", 3)])
def test_required_scan_matches_check_model(base, seed, placement):
    # the oracle: every model of the box through check_model, the record
    # kept when it meets the requirement, and the tally of all of them
    config = SearchConfig.from_json(_required_box(base, placement, seed))
    s = make_base(config.base)
    kinds = set()
    for require in ("W_zero", "W_effective"):
        kept, blocks, tally = [], [], Counter()
        for bundle, pol, params in _box_models(config):
            record = check_model(s, bundle, pol, require=require, params=params)
            tally[record.failed_stage] += 1
            anomaly = record.verdicts.get("anomaly")
            if anomaly is not None and Fraction(anomaly["af"]) >= 0:
                wb = jsonio.divisor_from_json(anomaly["wB"], s)
                kinds.add("zero" if wb.is_zero() else anomaly["W_effective"])
            if record.failed_stage not in ("validity", "anomaly"):
                kept.append(record.line)
                blocks.append((params["n"], params["x"], tuple(params["alpha"])))
        # a limit between two lines of one block's run: the second
        # polarization of a c2E, or the next c2E
        cut = next((i for i in range(1, len(kept)) if blocks[i - 1] == blocks[i]), None)
        assert (cut is None) == (not kept)
        for limit in (None, cut) if kept else (None,):
            out, required = io.StringIO(), dataclasses.replace(config, require=require, limit=limit)
            summary = run_search(required, out=out)
            emitted = kept[:limit]
            assert out.getvalue().splitlines()[:-1] == emitted
            assert summary == {
                "scanned": sum(tally.values()),
                "passed": tally[None],
                "stage_failures": {stage: tally[stage] for stage in search.STAGES},
                "emitted": len(emitted),
            }
    # the wB = 0 block has af >= 0 at some c2E unless its af0 is below the range
    assert kinds == ({True, False} if placement == "below" else {"zero", True, False})


def test_required_scan_renders_only_what_it_emits(monkeypatch):
    # 130,896 models in 1,296 blocks, of which 8 meet W_zero, the two that
    # pass all stages among them (n 3, x 1, alpha (-1,-1), c2E 104 and n 2,
    # x 1, alpha (-3,-3), c2E 146): a block renders the anomaly and
    # non-split verdicts of the c2E it keeps, and a dropped model nothing;
    # only a block that keeps a model writes the text of its wB, and none
    # asks a cone query
    config = SearchConfig.from_json({
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 5],
        "x_values": [-2, -1, 1, 2],
        "alpha_box": [[-4, 4], [-4, 4]],
        "c2E_range": [60, 160],
        "h_values": ["1"],
        "require": "W_zero",
    })
    counts = Counter()

    def count(owner, name):
        func = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: counts.update([name]) or func(*args))

    count(search, "nonsplit_verdict")
    count(search, "_anomaly_tail")
    count(search, "_class_text")
    count(BaseSurface, "effective")
    out = io.StringIO()
    summary = run_search(config, out=out)
    blocks = 4 * 4 * 9 * 9
    assert summary["scanned"] == _volume(config) == blocks * 101
    assert summary["emitted"] == 8 and summary["passed"] == 2
    assert 0 < counts["nonsplit_verdict"] <= summary["emitted"] + blocks
    assert 0 < counts["_anomaly_tail"] <= summary["emitted"] + blocks
    params = [json.loads(line)["params"] for line in out.getvalue().splitlines()[:-1]]
    kept = {(p["n"], p["x"], tuple(p["alpha"])) for p in params}
    assert 0 < counts["_class_text"] <= len(kept)
    # a block that W_zero keeps has wB = 0, whose cone query is never asked
    assert counts["effective"] == 0


def test_derived_number_past_the_digit_limit_names_its_fields():
    # chi grows like n^4 x^3 and passes the interpreter's limit on the
    # digits of a printed int; the scan refuses it before printing
    config = dataclasses.replace(SO10_CONFIG, n_range=(10**999, 10**999), x_values=(10**199,), require=None)
    with pytest.raises(ValueError, match="derived value chi .* field 'n', 'x', 'alpha' or 'c2E'"):
        run_search(config)


AF_PAST_THE_LIMIT = {
    # the spectral af grows like lambda^2 n eta^2: here past 4,300 digits
    "base": "F0",
    "mode": "spectral",
    "n_range": [10**999, 10**999],
    "alpha_box": [[0, 1], [0, 0]],
    "eta_box": [[3 * 10**999, 3 * 10**999]] * 2,
    "lambda_values": [f"{10**999 + 1}/2", f"{10**999 + 3}/2"],
    "h_values": ["1"],
}
AF_REFUSED = "derived value af has more than 4300 digits; lower field 'n', 'eta', 'lambda' or 'alpha'"


def test_unprintable_af_names_its_fields():
    # two blocks, one per alpha (alpha^2 = 0 for both, so af is that of
    # alpha = 0)
    config = SearchConfig.from_json(AF_PAST_THE_LIMIT)
    (block_axes, _), _ = search._axes(config, make_base("F0"))
    assert math.prod(map(len, block_axes)) == 2
    with pytest.raises(ValueError) as info:
        run_search(config, out=io.StringIO())
    assert str(info.value) == AF_REFUSED
    n = 10**999
    eta, zero = DivisorClass((3 * n, 3 * n)), DivisorX(0, DivisorClass((0, 0)))
    bundle = SpectralBundle(n=n, eta=eta, lam=Fraction(n + 1, 2), twist=zero)
    with pytest.raises(ValueError) as info:
        check_model(make_base("F0"), bundle, Polarization(h=Fraction(1)), short_circuit=False)
    assert str(info.value) == AF_REFUSED


BIG = 10**20  # past sys.maxsize, and far under the digit cap


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"c2E_range": [0, BIG]}, "config field 'c2E_range' spans more than"),
        ({"n_range": [2, BIG]}, "config field 'n_range' spans more than"),
        ({"alpha_box": [[0, 0], [-BIG, 0]]}, "config field 'alpha_box' spans more than"),
        ({"x_values": None, "x_range": [0, BIG]}, "config field 'x_range' spans more than"),
        # each axis has an index, their product does not
        ({"alpha_box": [[0, 10**10], [0, 10**10]]}, "config fields 'n_range', 'alpha_box', 'x_values' give more than"),
        ({"mode": "spectral", "eta_box": [[0, BIG]]}, "config field 'eta_box' spans more than"),
        (
            {"mode": "spectral", "eta_box": [[0, 10**10], [0, 10**10]]},
            "config fields 'n_range', 'alpha_box', 'eta_box', 'lambda_values' give more than",
        ),
    ],
)
def test_box_axis_past_maxsize_names_its_field(jobs, fields, message):
    box = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 2],
        "x_values": [1],
        "alpha_box": [[0, 0], [0, 0]],
        "c2E_range": [100, 104],
        "h_values": ["1"],
        **fields,
    }
    with pytest.raises(ValueError, match=f"^{message} {sys.maxsize} "):
        run_search(SearchConfig.from_json({k: v for k, v in box.items() if v is not None}), jobs=jobs)


def test_unprintable_chi_is_refused_only_where_a_line_prints_it():
    # the chi of these models is past the limit too, but no line prints it
    n, x, f0 = 10**999, 10**199, make_base("F0")
    big = dataclasses.replace(SO10_CONFIG, n_range=(n, n), x_values=(x,), c2E_range=(100, 104))
    # alpha = (1,1): the slope (2H - c1).alpha = 4 > 0 fails non-split, and the verdict prints it
    positive = DivisorX(x, DivisorClass((1, 1)))
    rec = check_model(f0, PullbackBundle(n=n, c2E=104, twist=positive), Polarization(h=1), short_circuit=False)
    assert rec.failed_stage == "nonsplit"
    assert rec.verdicts["nonsplit"] == {"passed": False, "clause": "(2H-zc1).alpha<=0", "value": "4"}
    out = io.StringIO()
    summary = run_search(dataclasses.replace(big, alpha_box=((1, 1), (1, 1)), require=None), out=out)
    assert summary["emitted"] == 5 and '"value":"4"' in out.getvalue()
    # alpha = (-1,-1) fails W_zero; short-circuited, no non-split verdict is rendered
    rec = check_model(f0, PullbackBundle(n=n, c2E=104, twist=DivisorX(x, DivisorClass((-1, -1)))),
                      Polarization(h=1), require="W_zero")
    assert rec.failed_stage == "anomaly" and "nonsplit" not in rec.verdicts
    summary = run_search(big)
    assert summary["scanned"] == 5 and summary["emitted"] == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_unprintable_chi_after_its_opening_is_refused(tmp_path, capsys, jobs):
    # a block keeps the chi verdict's text up to the value per sign of chi:
    # with the digit limit lowered to its least, the negative chi of the
    # block alpha = 0 prints at the first c2E and has one digit too many at
    # the next, which reuses the opening; the scan refuses it there, and so
    # does `cybundle search`, at --jobs 1 and 2
    limit, f0 = 640, make_base("F0")
    chi0, slope = chi_line(2, -1, 0, 0, 1, f0.c1_sq)
    assert slope == 3
    c2E = -(-(10**limit - 3 + chi0) // 3)  # the least c2E with |chi| >= 10^limit - 3
    chis = [chi0 - slope * c for c in (c2E, c2E + 1)]
    box = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 2],
        "x_values": [-1],
        "alpha_box": [[0, 1], [0, 0]],
        "c2E_range": [c2E, c2E + 1],
        "h_values": ["1"],
    }
    refused = f"derived value chi has more than {limit} digits; lower field 'n', 'x', 'alpha' or 'c2E'"
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert chis[0] < 0 and len(str(-chis[0])) == limit
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(chis[1])
        with pytest.raises(ValueError) as info:
            run_search(SearchConfig.from_json(box), jobs=jobs, out=io.StringIO())
        assert str(info.value) == refused
        path = tmp_path / "box.json"
        path.write_text(json.dumps(box))
        code = cli.main(["search", str(path), "--jobs", str(jobs), "--out", str(tmp_path / "out.jsonl")])
        assert code == 2 and capsys.readouterr().err == f"error: {refused}\n"
    finally:
        sys.set_int_max_str_digits(default)


def test_import_loads_no_process_pool():
    # the pool is imported where a parallel scan starts it
    code = (
        "import sys, cybundle, cybundle.cli;"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    src = os.path.dirname(os.path.dirname(search.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.strip() == "[]"


def test_replay_soundness():
    config = SearchConfig(
        base="F0",
        mode="pullback",
        n_range=(2, 4),
        x_values=(1, 2),
        alpha_box=((-2, 0), (-2, 0)),
        c2E_range=(92, 104),
        h_values=(1,),
        require="W_zero",
    )
    out = io.StringIO()
    run_search(config, out=out)
    s = make_base("F0")
    replayed = 0
    for line in out.getvalue().splitlines():
        if line.startswith("#"):
            continue
        rec = json.loads(line)
        if not rec["overall"]:
            continue
        p = rec["params"]
        alpha = DivisorClass(tuple(jsonio.frac_from_str(c) for c in p["alpha"]))
        bundle = PullbackBundle(
            n=p["n"], c2E=p["c2E"], twist=DivisorX(p["x"], alpha)
        )
        again = check_model(
            s, bundle, Polarization(h=jsonio.frac_from_str(p["h"])), require="W_zero"
        )
        assert again.overall
        replayed += 1
    assert replayed >= 1


def test_config_json_round_trip():
    obj = {
        "base": "enriques",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_range": [-1, 1],
        "alpha_box": [[-2, 2], [-2, 2]],
        "c2E_range": [10, 14],
        "H_values": [[2, 3]],
        "require": "W_effective",
        "bound": 30,
    }
    config = SearchConfig.from_json(obj)
    assert config.x_values == (-1, 0, 1)


def test_config_rejects_bad_fields():
    import pytest

    with pytest.raises(ValueError, match="mode"):
        SearchConfig.from_json({"base": "F0", "mode": "other", "n_range": [2, 2]})
    with pytest.raises(ValueError, match="require"):
        SearchConfig.from_json(
            {"base": "F0", "mode": "pullback", "n_range": [2, 2], "require": "maybe"}
        )
