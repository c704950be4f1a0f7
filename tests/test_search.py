"""Tests for the exhaustive model scan."""

import concurrent.futures
import dataclasses
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cybundle import anomaly, bundles, ring, search, windows
from cybundle.bundles import PullbackBundle, SpectralBundle
from cybundle.ring import DivisorX
from cybundle.search import (
    Polarization,
    SearchConfig,
    check_model,
    enumerate_models,
    run_search,
)
from cybundle.surfaces import BaseSurface, DivisorClass, make_base
from cybundle import jsonio


def pad(coeffs, rank):
    return DivisorClass(tuple(coeffs) + (0,) * (rank - len(coeffs)))


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
    assert list(rec.verdicts) == ["validity"]
    assert rec.verdicts["validity"]["passed"] is False
    assert "explicit polarization H" in rec.verdicts["validity"]["error"]
    assert rec.failed_stage == "validity" and not rec.overall


def test_record_invariant_overall_implies_all_stages():
    for rec in enumerate_models(SO10_CONFIG):
        if rec.overall:
            assert all(v.get("passed", True) for v in rec.verdicts.values())
            assert rec.failed_stage is None


# ---------------------------------------------------------------------------
# enumeration semantics


def test_singleton_so10_box():
    records = list(enumerate_models(SO10_CONFIG))
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
    records = list(enumerate_models(config))
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
    assert list(enumerate_models(config)) == []
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


def _count_calls(monkeypatch, counts, func):
    """Count calls of `func` through every module-level name bound to it."""

    def counted(*args, **kwargs):
        counts[func.__name__] += 1
        return func(*args, **kwargs)

    counts[func.__name__] = 0
    for module in (search, anomaly, bundles, ring, windows):
        if getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)


def _blocks(records, inner):
    """Records grouped by block: params without the `inner` keys."""
    blocks = {}
    for r in records:
        key = tuple((k, repr(v)) for k, v in r.params.items() if k not in inner)
        blocks.setdefault(key, []).append(r)
    return list(blocks.values())


def _wb_queries(blocks, share=()):
    """The wB cone queries a scan should ask: one per block in which wB is
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
    # once per block, not per model: validity and the pullback cone query of
    # wB; once per spectral (n, eta, lambda): the spectral data check and the
    # cone query of wB = 12 c1 - eta; once per (n, x, alpha.c1) and
    # polarization: the stability window.  The Chern ring is not on the
    # scan path at all
    counts = {}
    for func in (
        bundles.validate_bundle,
        bundles.check_spectral_data,
        bundles.chern_extension,
        ring.triple_product,
        windows.window_delpezzo,
    ):
        _count_calls(monkeypatch, counts, func)
    queried = Counter()
    cone_position = BaseSurface.cone_position
    monkeypatch.setattr(
        BaseSurface, "cone_position", lambda s, c: queried.update([c]) or cone_position(s, c)
    )
    # alpha = 0 blocks have af < 0 for every c2E and ask no cone query
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
    records = [list(enumerate_models(c)) for c in (pullback, spectral)]
    blocks = [_blocks(records[0], ("c2E", "h")), _blocks(records[1], ("H", "h"))]
    assert all(len(b) < len(r) for b, r in zip(blocks, records))
    spectra = {(r.params["n"], repr(r.params["eta"]), r.params["lambda"]) for r in records[1]}
    f0 = make_base("F0")
    windows_solved = {
        (p["n"], p["x"], f0.intersect(pad([int(c) for c in p["alpha"]], 2), f0.c1), p["h"])
        for p in (r.params for r in records[0] if "stability" in r.verdicts)
    }
    assert len(spectra) < len(blocks[1])
    assert 0 < len(windows_solved) < len(blocks[0])
    assert counts == {
        "validate_bundle": len(blocks[0]) + len(blocks[1]),
        "check_spectral_data": len(spectra),
        "chern_extension": 0,
        "triple_product": 0,
        "window_delpezzo": len(windows_solved),
    }
    asked = _wb_queries(blocks[0]) + _wb_queries(blocks[1], ("n", "eta", "lambda"))
    assert 0 < sum(asked.values()) < len(blocks[0]) + len(spectra)
    assert Counter({c: queried[c] for c in asked}) == asked
    calls = []
    intersect = BaseSurface.intersect
    monkeypatch.setattr(BaseSurface, "intersect", lambda *args: calls.append(1) or intersect(*args))
    assert make_base("F0").c1_sq == 8 and calls == []


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
    params = [r.params for r in enumerate_models(config)]
    keys = [(p["n"], p["x"], p["alpha"], p["c2E"]) for p in params]
    assert keys == sorted(keys)
    assert len(keys) == 2 * 2 * 4 * 3


def _ordered_params(config):
    return [list(r.params.items()) for r in enumerate_models(config)]


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


def test_serial_parallel_equivalence():
    config = SearchConfig(
        base="F0",
        mode="pullback",
        n_range=(2, 3),
        x_values=(1, 2),
        alpha_box=((-2, 0), (-2, 0)),
        c2E_range=(100, 106),
        h_values=(1,),
    )
    serial = search_bytes(config, 1)
    parallel = search_bytes(config, 4)
    assert serial == parallel
    assert serial == search_bytes(config, 1)  # rerun determinism


@pytest.mark.parametrize(
    "jobs, n_range, workers", [(2, (2, 4), [2]), (4, (2, 4), [3]), (2, (3, 3), [])]
)
def test_pool_has_at_most_one_worker_per_chunk(monkeypatch, jobs, n_range, workers):
    # a 3-model (or 1-model) box; the recording pool maps in this process
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    config = dataclasses.replace(SO10_CONFIG, n_range=n_range, require=None)
    serial = search_bytes(config, 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert search_bytes(config, jobs) == serial
    assert started == workers


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


@pytest.mark.parametrize("require", [None, "W_zero"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_enumerate_models_matches_run_search_lines(require, jobs):
    config = SearchConfig(
        base="F0",
        mode="pullback",
        n_range=(2, 3),
        x_values=(1, 2),
        alpha_box=((-2, 0), (-2, 0)),
        c2E_range=(92, 104),
        h_values=(1,),
        require=require,
    )
    records = [r.to_json_line() for r in enumerate_models(config)]
    lines = search_bytes(config, jobs).splitlines()
    assert lines[-1].startswith("# ")
    assert records == lines[:-1]
    assert records  # both requirements emit something on this box


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
