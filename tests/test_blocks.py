"""Block-built records against the Chern ring and against `check_model`.

A scan evaluates one block per run of the box in which only the fastest
axes vary (c2E and the polarization for pullback models, the polarization
alone for spectral ones), from closed forms; no stage touches the ring.
The oracles here are the ring's [W] = c2(X) - c2(V) (`c2_tangent` and
`bundle_chern`), and `check_model`, which evaluates a block of one model.
"""

import dataclasses
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cybundle import jsonio, search
from cybundle.anomaly import anomaly_class, spectral_af
from cybundle.bundles import PullbackBundle, SpectralBundle, bundle_chern, validate_bundle
from cybundle.nonsplit import chi_line, chi_line_at, chi_line_terms, chi_nonsplit, nonsplit_feasible, spectral_nonsplit
from cybundle.ring import DivisorX, c2_tangent
from cybundle.search import STAGES, ModelRecord, Polarization, SearchConfig, check_model, run_search
from cybundle.surfaces import DivisorClass, make_base
from cybundle.windows import spectral_stability_check, window_delpezzo, window_enriques

BASES = ("F0",) + tuple(f"dP{k}" for k in range(9)) + ("enriques",)


def _pad(coeffs, rank):
    return tuple(coeffs) + (0,) * (rank - len(coeffs))


def _ring_w(s, bundle):
    """(wB JSON, af string) of [W] = c2(X) - c2(V) through the ring."""
    w = c2_tangent(s) - bundle_chern(s, bundle).c2
    return jsonio.divisor_to_json(w.beta), jsonio.frac_to_str(w.fiber)


def _pullback_config(kind, rng):
    s = make_base(kind)
    af_zero = s.c2 + 11 * s.c1_sq  # c2E at which af = 0 for alpha^2 = 0
    lo = af_zero + rng.randint(-4, 2)
    if s.is_enriques:
        pols = {"H_values": [[2, 3], [3, 3]]}
    else:
        pols = {"h_values": sorted(rng.sample(["1/2", "1", "3/2", "2"], 2), key=Fraction)}
    return {
        "base": kind,
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": sorted(rng.sample([-2, -1, 0, 1, 2], 3)),
        "alpha_box": [[a, a + 1] for a in (rng.randint(-3, 1) for _ in range(min(s.rank, 2)))],
        "c2E_range": [lo, lo + 2],
        **pols,
    }


def _spectral_config(kind, rng):
    s = make_base(kind)
    if s.is_enriques:
        eta_box, pols = [[2, 3], [3, 4]], {"H_values": [[5, 6], [3, 4]]}
    else:
        # eta = 12 c1 + delta: n = 3 asks for every delta_i odd and 8 | eta.(eta
        # - 3 c1), which delta_0 in -3..2 and delta_1 in -3..0 meet on dP0-dP8
        twelve = [12 * int(c) for c in s.c1.coeffs]
        eta_box = [[twelve[0] - 3, twelve[0] + 2]] + [[v - 3, v] for v in twelve[1:2]]
        eta_box += [[v + 1, v + 1] for v in twelve[2:]]
        pols = {"h_values": ["1", "2"]}
        if kind == "F0":
            pols["H_values"] = [[3, 34]]
    return {
        "base": kind,
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[a, a + 1] for a in (rng.randint(-2, 1) for _ in range(min(s.rank, 1)))],
        "eta_box": eta_box,
        "lambda_values": ["1/2", "1", "3/2"][: 2 if s.rank > 2 else 3],
        **pols,
    }


def _model_of(s, params):
    """(bundle, polarization) of a record's params."""
    alpha = DivisorClass(tuple(Fraction(c) for c in params["alpha"]))
    if "c2E" in params:
        twist = DivisorX(params["x"], alpha)
        bundle = PullbackBundle(n=params["n"], c2E=params["c2E"], twist=twist)
    else:
        bundle = SpectralBundle(
            n=params["n"],
            eta=DivisorClass(tuple(Fraction(c) for c in params["eta"])),
            lam=Fraction(params["lambda"]),
            twist=DivisorX(0, alpha),
        )
    if "H" in params:
        return bundle, Polarization(H=DivisorClass(_pad(params["H"], s.rank)))
    return bundle, Polarization(h=Fraction(params["h"]))


def _search_bytes(config, jobs):
    out = io.StringIO()
    run_search(config, jobs=jobs, out=out)
    return out.getvalue()


def _scan_records(config):
    """The records `run_search` writes, read back from its JSONL."""
    lines = [line for line in _search_bytes(config, 1).splitlines() if not line.startswith("#")]
    return [
        ModelRecord(line, r["failed_stage"])
        for line, r in zip(lines, map(json.loads, lines))
    ]


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("kind", BASES)
def test_scan_records_match_ring_and_check_model(kind, mode):
    rng = random.Random(f"{kind}:{mode}")
    make_config = _pullback_config if mode == "pullback" else _spectral_config
    config = SearchConfig.from_json(make_config(kind, rng))
    s = make_base(kind)
    records = _scan_records(config)
    reached = 0
    for record in records:
        bundle, pol = _model_of(s, record.params)
        again = check_model(s, bundle, pol, require=config.require, params=record.params)
        assert again.to_json() == record.to_json()
        anomaly = record.verdicts.get("anomaly")
        if anomaly is not None:
            reached += 1
            assert (anomaly["wB"], anomaly["af"]) == _ring_w(s, bundle)
    # no box is vacuous: models reach the anomaly stage, and records end in
    # more than one way
    assert 0 < reached
    assert len({r.failed_stage for r in records}) > 1


# a scan reads validity from a table per n (pullback) or per (n, eta, lambda)
# (spectral); these boxes fail it in each way such an entry can: n < 2, the
# spectral parity rule, a non-effective eta - n c1 and a non-integral c2(V_n)
TABLE_BOXES = {
    "F0-pullback-n-0-3": (
        {
            "base": "F0",
            "mode": "pullback",
            "n_range": [0, 3],
            "x_values": [-1, 1, 2],
            "alpha_box": [[-1, 0], [-2, -1]],
            "c2E_range": [98, 100],
            "h_values": ["1", "2"],
        },
        {"bundle rank n must be >= 2", None},
    ),
    # for n = 2, eta = (3, *) leaves eta - 2 c1 = (-1, *), not effective on F0
    "F0-spectral-invalid": (
        {
            "base": "F0",
            "mode": "spectral",
            "n_range": [2, 3],
            "alpha_box": [[-1, 0], [-12, -11]],
            "eta_box": [[3, 4], [23, 24]],
            "lambda_values": ["1/2", "1", "3/2"],
            "H_values": [[3, 34]],
            "h_values": ["1"],
        },
        {"spectral data invalid", "spectral data invalid: eta - n*c1 not effective", None},
    ),
    "dP0-non-integral-c2": (
        {
            "base": "dP0",
            "mode": "spectral",
            "n_range": [3, 3],
            "alpha_box": [[0, 1]],
            "eta_box": [[15, 15]],
            "lambda_values": ["1"],
            "H_values": [[1]],
        },
        {"spectral data invalid: non-integral Chern class"},
    ),
    # no eta_box: eta = 12 c1, whose valid entries build the bundle of
    # `spectral_af`; n = 1 fails the rank rule
    "F0-spectral-12c1-n-1-3": (
        {
            "base": "F0",
            "mode": "spectral",
            "n_range": [1, 3],
            "alpha_box": [[-1, 0], [-12, -11]],
            "lambda_values": ["1/2", "1", "3/2"],
            "H_values": [[3, 34]],
            "h_values": ["1"],
        },
        {"bundle rank n must be >= 2", "spectral data invalid", None},
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("box", TABLE_BOXES.values(), ids=TABLE_BOXES.keys())
def test_validity_tables_match_check_model(box, jobs):
    obj, errors = box
    config = SearchConfig.from_json(obj)
    s = make_base(config.base)
    lines = [line for line in _search_bytes(config, jobs).splitlines() if not line.startswith("#")]
    for line in lines:
        params = json.loads(line)["params"]
        bundle, pol = _model_of(s, params)
        assert check_model(s, bundle, pol, params=params).to_json_line() == line
    assert {json.loads(line)["verdicts"]["validity"].get("error") for line in lines} == errors


@pytest.mark.parametrize("box", TABLE_BOXES.values(), ids=TABLE_BOXES.keys())
def test_scan_builds_no_bundle_per_block(monkeypatch, box):
    # a pullback scan builds no bundle and no twist: each n's validity is
    # the rank rule's; a spectral scan validates each (n, eta, lambda) from
    # the ints of eta and builds a bundle only for a valid eta = 12 c1,
    # whose `_Spectrum` asks `spectral_af` for the displayed af
    obj, _ = box
    config = SearchConfig.from_json(obj)
    twelve_c1 = [str(12 * c) for c in make_base(config.base).c1_ints]
    built = Counter()

    def counted(cls):
        return lambda *args, **kwargs: built.update([cls.__name__]) or cls(*args, **kwargs)

    assert not hasattr(search, "PullbackBundle")
    for cls in (SpectralBundle, DivisorX):
        monkeypatch.setattr(search, cls.__name__, counted(cls))
    lines = _search_bytes(config, 1).splitlines()
    records = [json.loads(line) for line in lines if not line.startswith("#")]
    params = [r["params"] for r in records]
    if config.mode == "pullback":
        entries = {p["n"] for p in params}
        blocks = {(p["n"], p["x"], *p["alpha"]) for p in params}
        want = Counter()
        # the box has blocks past validity, whose models a bundle could build
        assert any(r["verdicts"]["validity"]["passed"] for r in records)
    else:
        entries = {(p["n"], *p["eta"], p["lambda"]) for p in params}
        blocks = {(p["n"], *p["eta"], p["lambda"], *p["alpha"]) for p in params}
        count = len({
            (p["n"], p["lambda"])
            for p, r in zip(params, records)
            if p["eta"] == twelve_c1 and r["verdicts"]["validity"]["passed"]
        })
        want = Counter({"SpectralBundle": count, "DivisorX": count})
        assert count > 0 or "eta_box" in obj
    assert len(entries) < len(blocks)
    assert built == want


# a spectral block is one (n, alpha), its models the (eta, lambda) inner
# axis: lambda = 1 fails the parity rule for n = 2 and 1/2, 3/2 for n = 3,
# so invalid models sit between valid ones inside a block; wB = 12 c1 - eta
# is zero for one F0 eta and for no dP3 one
SPECTRAL_BLOCK_BOXES = {
    "F0": {
        "base": "F0",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[0, 1], [-12, -10]],
        "eta_box": [[23, 24], [24, 25]],
        "lambda_values": ["1/2", "1", "3/2"],
        "H_values": [[3, 34]],
        "h_values": ["1"],
    },
    "dP3": {
        "base": "dP3",
        "mode": "spectral",
        "n_range": [2, 3],
        "alpha_box": [[-2, 10], [-1, 0]],
        "eta_box": [[35, 35], [-13, -13], [-13, -13], [-13, -13]],
        "lambda_values": ["1/2", "1", "3/2"],
        "h_values": ["1", "2"],
    },
}


def _spectral_box_models(config, s):
    """(bundle, polarization, params) of each model of a spectral box, in
    enumeration order, from nested loops over its fields."""
    pols = [({"H": list(v)}, Polarization(H=DivisorClass(_pad(v, s.rank)))) for v in config.H_values]
    pols += [({"h": jsonio.frac_to_str(h)}, Polarization(h=h)) for h in config.h_values]
    ns = range(config.n_range[0], config.n_range[1] + 1)
    alphas = [range(lo, hi + 1) for lo, hi in config.alpha_box]
    etas = [range(lo, hi + 1) for lo, hi in config.eta_box]
    for n, *alpha in itertools.product(ns, *alphas):
        alpha = DivisorClass(_pad(alpha, s.rank))
        for *eta, lam in itertools.product(*etas, config.lambda_values):
            eta = DivisorClass(_pad(eta, s.rank))
            bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha))
            for pol_params, pol in pols:
                params = {"base": s.kind, "n": n, "alpha": [str(c) for c in alpha.coeffs], **pol_params}
                params.update({"eta": [str(c) for c in eta.coeffs], "lambda": jsonio.frac_to_str(lam)})
                yield bundle, pol, params


@pytest.mark.parametrize("require", [None, "W_zero", "W_effective"])
@pytest.mark.parametrize("kind", sorted(SPECTRAL_BLOCK_BOXES))
def test_spectral_blocks_match_check_model(kind, require):
    # the oracle: every model of the box through check_model, a block of
    # one, its record kept unless the requirement drops it, and the tally
    # of all of them; the scan's lines and summary
    config = SearchConfig.from_json({**SPECTRAL_BLOCK_BOXES[kind], "require": require})
    s = make_base(kind)
    kept, tally, wb_zero, valid = [], Counter(), Counter(), {}
    for bundle, pol, params in _spectral_box_models(config, s):
        record = check_model(s, bundle, pol, require=require, params=params)
        tally[record.failed_stage] += 1
        if require is None or record.failed_stage not in ("validity", "anomaly"):
            kept.append(record.line)
        passed = record.failed_stage != "validity"
        valid.setdefault((bundle.n, bundle.twist.alpha), set()).add(passed)
        wb_zero[bundle.eta == s.c1.scale(12)] += passed
    summary = {
        "scanned": sum(tally.values()),
        "passed": tally[None],
        "stage_failures": {stage: tally[stage] for stage in STAGES},
        "emitted": len(kept),
    }
    out = io.StringIO()
    assert run_search(config, out=out) == summary
    assert out.getvalue().splitlines()[:-1] == kept
    # not vacuous: blocks holding valid and invalid models, valid models
    # with wB != 0 (and on F0 with wB = 0), and, but for W_zero, which no
    # model meets, lines that reach a stage past the anomaly
    assert {True, False} in valid.values()
    assert wb_zero[False] > 0 and (wb_zero[True] > 0) == (kind == "F0")
    assert (require == "W_zero") == (tally["nonsplit"] + tally["stability"] + tally[None] == 0)


def _half_integral_models(kind, rng):
    s = make_base(kind)
    for _ in range(16):
        alpha = [Fraction(rng.randint(-5, 5), 2) for _ in range(s.rank)]
        alpha[rng.randrange(s.rank)] = Fraction(rng.choice((-1, 1)), 2)
        torsion = rng.randint(0, 1) if s.is_enriques else 0
        alpha = DivisorClass(tuple(alpha), torsion)
        if rng.random() < 0.5:
            # n(n+1) alpha^2 must be even: on dP0 only n = 7, 8 pass
            twist = DivisorX(rng.randint(-2, 2), alpha)
            c2e = s.c2 + 11 * s.c1_sq + rng.randint(-20, 20)
            bundle = PullbackBundle(n=rng.randint(2, 8), c2E=c2e, twist=twist)
        else:
            n = rng.randint(2, 3)
            eta = (DivisorClass(_pad((2, 3), 10)) if s.is_enriques else s.c1.scale(12))
            lam = Fraction(1, 2) if n % 2 == 0 else Fraction(1)
            bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha))
        if s.is_enriques:
            pol = Polarization(H=DivisorClass(_pad((5, 6), 10)))
        else:
            pol = Polarization(h=Fraction(rng.randint(1, 4), 2))
        yield s, bundle, pol


@pytest.mark.parametrize("kind", BASES)
def test_half_integral_twists_match_ring(kind):
    reached = 0
    for s, bundle, pol in _half_integral_models(kind, random.Random(kind)):
        record = check_model(s, bundle, pol, short_circuit=False)
        anomaly = record.verdicts.get("anomaly")
        if anomaly is None:  # n(n+1) alpha^2 odd, or the spectral parity rule
            assert record.failed_stage == "validity"
            continue
        reached += 1
        assert (anomaly["wB"], anomaly["af"]) == _ring_w(s, bundle)
    assert reached > 0


def _oracle_verdicts(s, bundle, pol, reached):
    """The verdicts of validity and of the stages in `reached`, from the
    public Fraction functions one model at a time."""
    try:
        validate_bundle(s, bundle)
    except ValueError as exc:
        return {"validity": {"passed": False, "error": str(exc)}}
    out = {"validity": {"passed": True}}
    outcome = anomaly_class(s, bundle)
    if "anomaly" in reached:
        out["anomaly"] = {
            "wB": jsonio.divisor_to_json(outcome.wB),
            "af": jsonio.frac_to_str(outcome.af),
            "W_zero": outcome.W_zero,
            "W_effective": outcome.W_effective,
        }
        if isinstance(bundle, SpectralBundle) and bundle.eta == s.c1.scale(12):
            rep = spectral_af(s, bundle, outcome)
            out["anomaly"]["af_displayed"] = jsonio.frac_to_str(rep.af_displayed)
            out["anomaly"]["af_direct"] = jsonio.frac_to_str(rep.af_direct)
            out["anomaly"]["display_agrees"] = rep.agree
    H = pol.H if pol.H is not None else s.c1.scale(pol.h)
    n, alpha = bundle.n, bundle.twist.alpha
    if isinstance(bundle, SpectralBundle):
        if "nonsplit" in reached:
            ns = spectral_nonsplit(s, n, n + 1, bundle.eta, alpha)
            out["nonsplit"] = {"passed": ns.passed, "value": jsonio.frac_to_str(ns.value)}
        if "stability" in reached:
            ver = spectral_stability_check(s, n, alpha, H)
            out["stability"] = {
                "passed": ver.passed,
                "alpha_H": jsonio.frac_to_str(ver.a_h),
                "n_alpha_H": jsonio.frac_to_str(ver.n_a_h),
                "min_degree": jsonio.frac_to_str(ver.min_degree),
                "witness": jsonio.divisor_to_json(ver.witness),
            }
        return out
    x = int(bundle.twist.x)
    if "nonsplit" in reached:
        z = 1 if s.is_enriques else pol.h
        ns = nonsplit_feasible(s, n, x, alpha, bundle.c2E, H, z)
        out["nonsplit"] = {"passed": ns.passed, "clause": ns.clause, "value": jsonio.frac_to_str(ns.value)}
        if ns.clause != "(2H-zc1).alpha<=0":
            assert ns.value == chi_nonsplit(s, n, x, alpha, bundle.c2E).chi
    if "stability" in reached:
        if s.is_enriques:
            window = window_enriques(n, x, s.intersect(alpha, H), s.square(H))
        else:
            window = window_delpezzo(n, x, s.intersect(alpha, s.c1), s.c1_sq, pol.h)
        out["stability"] = {**jsonio.window_to_json(window), "passed": window.nonempty}
    return out


def _assert_matches_oracles(s, bundle, pol, record):
    """Every verdict of `record`, the record of (bundle, pol), key by key,
    against the oracles; returns the stages compared past validity."""
    reached = [k for k in record.verdicts if k != "validity"]
    expected = _oracle_verdicts(s, bundle, pol, reached)
    assert list(expected) == ["validity", *reached], record.params
    for stage, verdict in expected.items():
        got = record.verdicts[stage]
        assert {k: got[k] for k in verdict} == verdict, (record.params, stage)
    return reached


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("kind", BASES)
def test_scan_kernels_match_fraction_oracles(kind, mode):
    # a scan shares its tables (spectral data per (n, eta, lambda), windows
    # per (n, x, a) and polarization) across blocks, so every x of the
    # pullback box and every lambda of the spectral box meets the others
    rng = random.Random(f"kernels:{kind}:{mode}")
    if mode == "pullback":
        config = dict(_pullback_config(kind, rng), x_values=[-2, -1, 0, 1, 2])
    else:
        config = _spectral_config(kind, rng)
    s = make_base(kind)
    reached = Counter()
    for record in _scan_records(SearchConfig.from_json(config)):
        reached.update(_assert_matches_oracles(s, *_model_of(s, record.params), record))
    assert reached["anomaly"] > 0 and reached["nonsplit"] > 0
    if mode == "pullback" or s.kind in ("F0", "enriques"):
        assert reached["stability"] > 0


@pytest.mark.parametrize("kind", BASES)
def test_half_integral_check_model_matches_fraction_oracles(kind):
    # den = 2: the kernels' scalars leave Z (alpha.H, the spectral non-split
    # value, the slope, window ends); chi and af of a valid model stay in Z
    fractional = 0
    for s, bundle, pol in _half_integral_models(kind, random.Random(f"kernels:{kind}")):
        record = check_model(s, bundle, pol, short_circuit=False)
        if "anomaly" in record.verdicts:
            _assert_matches_oracles(s, bundle, pol, record)
            fractional += "/" in json.dumps([record.verdicts["nonsplit"], record.verdicts["stability"]])
    assert fractional > 0


@pytest.mark.parametrize("kind", ["F0", "dP1", "dP3", "enriques"])
def test_half_integral_eta_check_model_matches_fraction_oracles(kind):
    # eta = nums/2, as a `check` model file may give it (a scan's eta is
    # integral), so resid = eta - n c1 and its pairings leave Z; twists on
    # both sides of the non-split root, so both non-split verdicts print
    s = make_base(kind)
    rng = random.Random(f"half-eta:{kind}")
    base = _pad((4, 6), 10) if s.is_enriques else [12 * c for c in s.c1_ints]
    seen = set()
    for _ in range(60):
        nums = [2 * b + rng.randint(-3, 3) for b in base]
        nums[rng.randrange(2)] |= 1
        eta = DivisorClass(tuple(Fraction(v, 2) for v in nums))
        alpha = DivisorClass(_pad([rng.randint(-8, 8) for _ in range(2)], s.rank))
        n, lam = rng.choice((2, 4)), rng.choice((Fraction(1, 2), Fraction(3, 2)))
        bundle = SpectralBundle(n=n, eta=eta, lam=lam, twist=DivisorX(0, alpha))
        pol = Polarization(H=DivisorClass(_pad((5, 6), 10))) if s.is_enriques else Polarization(h=Fraction(1))
        record = check_model(s, bundle, pol, short_circuit=False)
        if "nonsplit" in record.verdicts:
            _assert_matches_oracles(s, bundle, pol, record)
            seen.add(record.verdicts["nonsplit"]["passed"])
    assert seen == {True, False}


def _riemann_roch_chi(n, x, c2e, a_sq, a_c1, c1_sq):
    """chi by Riemann-Roch on the base, from the scalars a_sq = alpha^2,
    a_c1 = alpha.c1 and c1_sq = c1^2, as in tests/test_nonsplit.py: chi =
    ch2 + ch1.c1/2 + rank (c1^2 + c2)/12, where Noether's c1^2 + c2 = 12.

    x = 0: E tensor O(-m alpha), ch = (n, -n m alpha, -c2e + n m^2/2 alpha^2).
    x > 0: E_1 = R tensor E tensor O(-m alpha) with ch(R) = (y, A1 c1, A2
    c1^2/2), y = m x.  x < 0: E_2's chi is the negation of that expression
    at y = m x (`test_chi_antisymmetry`)."""
    m = n + 1
    if x == 0:
        return -c2e + Fraction(n * m * m, 2) * a_sq - Fraction(n * m, 2) * a_c1 + n
    y = m * x
    A1 = Fraction(-1) + Fraction(y * (y - 1), 2)
    A2 = Fraction(1) + Fraction(y * (y - 1) * (2 * y - 1), 6)
    rank = y * n
    ch1_c1 = n * A1 * c1_sq - y * n * m * a_c1
    ch2 = n * A2 * c1_sq / 2 - y * c2e - A1 * n * m * a_c1 + Fraction(y * n * m * m, 2) * a_sq
    chi = ch2 + ch1_c1 / 2 + rank
    return chi if x > 0 else -chi


@pytest.mark.parametrize("den", [1, 2, 3, 4])
def test_chi_line_matches_riemann_roch(den):
    # alpha = nums/den for any den, so chi0 leaves Z too; c1^2 of F0, dP0..dP8
    rng = random.Random(den)
    for _ in range(300):
        n, x, c1_sq = rng.randint(2, 8), rng.randint(-3, 3), rng.randint(1, 9)
        a_sq, a_c1 = rng.randint(-60, 60), rng.randint(-20, 20)
        chi0, slope = chi_line(n, x, a_sq, a_c1, den, c1_sq)
        assert slope == (abs((n + 1) * x) or 1)
        assert type(chi0) is (int if Fraction(chi0).denominator == 1 else Fraction)
        for c2e in (0, rng.randint(-50, 150)):
            expected = _riemann_roch_chi(n, x, c2e, Fraction(a_sq, den * den), Fraction(a_c1, den), c1_sq)
            assert chi0 - slope * c2e == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n=st.integers(2, 8),
    x=st.integers(-3, 3),
    den=st.integers(1, 3),
    c1_sq=st.integers(0, 9),
    alphas=st.lists(st.tuples(st.integers(-60, 60), st.integers(-20, 20)), min_size=1, max_size=4),
    c2e=st.integers(-50, 150),
)
def test_chi_split_matches_chi_line(n, x, den, c1_sq, alphas, c2e):
    # a scan works out chi's coefficients once per (n, x) and evaluates
    # them per alpha: for every alpha of the (n, x) this is chi_line, and
    # Riemann-Roch
    terms = chi_line_terms(n, x, c1_sq)
    for a_sq, a_c1 in alphas:
        chi0 = chi_line_at(terms, a_sq, a_c1, den)
        assert (chi0, terms[3]) == chi_line(n, x, a_sq, a_c1, den, c1_sq)
        expected = _riemann_roch_chi(n, x, c2e, Fraction(a_sq, den * den), Fraction(a_c1, den), c1_sq)
        assert chi0 - terms[3] * c2e == expected


# The JSONL line is rendered from text fragments, most of them by hand; the
# standard encoder, run on the line's own parse, is the oracle of the bytes.


def _assert_canonical(line):
    """`line` is what the encoder writes of its parse, and its verdicts run
    through a prefix of STAGES."""
    record = json.loads(line)
    assert line == json.dumps(record, separators=(",", ":"))
    assert list(record["verdicts"]) == list(STAGES[: len(record["verdicts"])]), line
    return record


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("kind", BASES)
def test_scan_lines_are_what_the_encoder_writes(kind, mode):
    # every record of the boxes of the two scan tests above
    make_config = _pullback_config if mode == "pullback" else _spectral_config
    configs = [make_config(kind, random.Random(f"{kind}:{mode}"))]
    kernels = make_config(kind, random.Random(f"kernels:{kind}:{mode}"))
    if mode == "pullback":
        kernels["x_values"] = [-2, -1, 0, 1, 2]
    lines = []
    for config in configs + [kernels]:
        lines += _search_bytes(SearchConfig.from_json(config), 1).splitlines()[:-1]
    records = [_assert_canonical(line) for line in lines]
    assert len({r["failed_stage"] for r in records}) > 1


@pytest.mark.parametrize("kind", BASES)
def test_check_model_lines_are_what_the_encoder_writes(kind):
    seen = 0
    for seed in (kind, f"kernels:{kind}"):
        for s, bundle, pol in _half_integral_models(kind, random.Random(seed)):
            record = check_model(s, bundle, pol, short_circuit=False, params={"base": kind, "seed": seed})
            seen += "/" in json.dumps(_assert_canonical(record.to_json_line())["verdicts"])
    assert seen > 0


def test_error_and_float_lines_are_what_the_encoder_writes():
    f0, enr = make_base("F0"), make_base("enriques")
    twist = DivisorX(0, DivisorClass((1, -11)))
    bad_parity = SpectralBundle(n=2, eta=f0.c1.scale(12), lam=1, twist=twist)
    enriques = PullbackBundle(n=2, c2E=12, twist=DivisorX(1, DivisorClass(_pad((-1, 0), 10))))
    so10 = PullbackBundle(n=3, c2E=104, twist=DivisorX(1, DivisorClass((-1, -1))))
    small = PullbackBundle(n=2, c2E=0, twist=DivisorX(-2, DivisorClass((-2, 3))))
    cases = [
        (f0, bad_parity, Polarization(H=DivisorClass((3, 34))), "spectral data invalid"),
        (enr, enriques, Polarization(), "explicit polarization H"),
        (f0, so10, Polarization(H=DivisorClass((1, 1))), "does not apply"),
        # the window of the SO(10) model at h = 10^150, whose floats the encoder writes
        (f0, so10, Polarization(h=Fraction(10**150)), "z_interval_approx"),
        # windows whose z ends repr writes in exponent form (z < 1e-4) and
        # with 12 significant digits
        (f0, small, Polarization(h=Fraction(1, 10**4)), '"z_interval_approx":[6.6666667e-05,6.9848866e-05]'),
        (f0, small, Polarization(h=Fraction(1, 3)), '"z_interval_approx":[0.222222222222,0.232829551807]'),
    ]
    for s, bundle, pol, expected in cases:
        line = check_model(s, bundle, pol, short_circuit=False, params={"case": expected}).to_json_line()
        _assert_canonical(line)
        assert expected in line


# Boxes whose blocks read every fragment a scan shares: per polarization
# the params prefix and a failing slope's verdict, per c2E the text through
# the anomaly verdict and the chi verdict, per (alpha, polarization) the
# slope.  On Enriques the slope is 2 H.alpha, and H = (2, 3) and (3, 2)
# give it opposite signs at alpha = (1, -1) and (-1, 1): within one block
# one polarization's slope fails and the other's leaves the model to chi.
# On F0/dPk z = h gives every ray the sign of alpha.c1.  In each box af
# crosses 0 and chi changes sign inside some block's c2E run, and the wB = 0
# block n = 2, x = 2, alpha = 0 has c2E = af0 in its run (W_zero).
SHARED_BOXES = {
    "enriques": {"alpha_box": [[-1, 1], [-1, 1]], "c2E_range": [0, 12], "H_values": [[2, 3], [3, 2]]},
    "F0": {"alpha_box": [[-2, 1], [-2, 1]], "c2E_range": [88, 96], "h_values": ["1/3", "3/2"]},
    "dP3": {"alpha_box": [[-1, 1], [-1, 1], [0, 1]], "c2E_range": [68, 76], "h_values": ["1/3", "3/2"]},
}


@pytest.mark.parametrize("base", SHARED_BOXES)
def test_shared_fragments_match_fraction_oracles(base):
    box = {"base": base, "mode": "pullback", "n_range": [2, 3], "x_values": [-1, 1, 2], **SHARED_BOXES[base]}
    config = SearchConfig.from_json(box)

    s = make_base(config.base)
    records = _scan_records(config)
    verdicts = [record.verdicts for record in records]
    runs, mixed = {}, 0
    for record, v in zip(records, verdicts):
        p = record.params
        runs.setdefault((p["n"], p["x"], *p["alpha"]), []).append(v)
    for run in runs.values():
        by_c2E = [run[i : i + 2] for i in range(0, len(run), 2)]
        mixed += any(len({v["nonsplit"]["clause"] for v in pair}) == 2 for pair in by_c2E)
    chi_clauses = ("chi_E1>0", "chi_E2<0")
    af_signs = [{Fraction(v["anomaly"]["af"]) >= 0 for v in run} for run in runs.values()]
    chi_signs = [
        {Fraction(v["nonsplit"]["value"]) > 0 for v in run if v["nonsplit"]["clause"] in chi_clauses}
        for run in runs.values()
    ]
    assert {True, False} in af_signs and {True, False} in chi_signs
    assert (mixed > 0) == s.is_enriques
    # every model: check_model's record of every stage against the oracles,
    # and the scan's record, which stops at its failed stage, against that
    for record, v in zip(records, verdicts):
        bundle, pol = _model_of(s, record.params)
        full = check_model(s, bundle, pol, short_circuit=False, params=record.params)
        assert _assert_matches_oracles(s, bundle, pol, full) == ["anomaly", "nonsplit", "stability"]
        assert {stage: full.verdicts[stage] for stage in v} == v
    # a requirement keeps the lines of the models that meet it
    for require in (None, "W_zero", "W_effective"):
        out = _search_bytes(dataclasses.replace(config, require=require), 1)
        kept = [r.line for r, v in zip(records, verdicts) if require is None or v["anomaly"][require]]
        assert out.splitlines()[:-1] == kept and kept
        assert len(kept) < len(records) or require is None


# per base, a pullback block (n, x, alpha) with an effective wB whose c2E
# run crosses both roots, af = 0 and chi = 0, inside c2E_range; x <= 0, so
# every line that passes the anomaly stage prints chi.  The box's first
# alpha coordinate spans two values: a second block follows with its own wB
# and chi line.
ROOT_BLOCKS = {
    "F0": (2, -1, (1, 2), [100, 105]),
    "dP0": (3, -1, (-4,), [197, 204]),
    "dP1": (2, -1, (2, 1), [98, 102]),
    "dP2": (2, 0, (-3, 0), [108, 111]),
    "dP3": (2, -1, (2, -1), [79, 82]),
    "dP4": (2, 0, (4, 0), [109, 111]),
    "dP5": (2, 0, (-3, 2), [66, 69]),
    "dP6": (2, 0, (-2, -1), [49, 52]),
    "dP7": (2, 0, (4, 2), [67, 69]),
    "dP8": (2, 0, (-3, 3), [19, 23]),
    "enriques": (2, -1, (-1, -1), [17, 21]),
}


def _pullback_box_models(config, s):
    """(bundle, polarization, params) of each model of a pullback box, in
    enumeration order, from nested loops over its fields."""
    pols = [({"H": list(v)}, Polarization(H=DivisorClass(_pad(v, s.rank)))) for v in config.H_values]
    pols += [({"h": jsonio.frac_to_str(h)}, Polarization(h=h)) for h in config.h_values]
    ns, c2Es = (range(lo, hi + 1) for lo, hi in (config.n_range, config.c2E_range))
    alphas = [range(lo, hi + 1) for lo, hi in config.alpha_box]
    for n, x, *alpha in itertools.product(ns, config.x_values, *alphas):
        alpha = DivisorClass(_pad(alpha, s.rank))
        for c2E, (pol_params, pol) in itertools.product(c2Es, pols):
            params = {"base": s.kind, "n": n, "alpha": [str(c) for c in alpha.coeffs], **pol_params}
            params.update({"x": x, "c2E": c2E})
            yield PullbackBundle(n=n, c2E=c2E, twist=DivisorX(x, alpha)), pol, params


@pytest.mark.parametrize("require", [None, "W_zero", "W_effective"])
@pytest.mark.parametrize("kind", BASES)
def test_runs_crossing_both_roots_match_check_model(kind, require):
    # a block writes each c2E's anomaly verdict from its opening and the
    # tail of its flags, and its chi verdict from the opening of the sign
    # of chi: across both roots, every line is the record check_model
    # writes for its model, a block of one, and every
    # verdict of those records is that of the Fraction oracles
    n, x, alpha, c2E_range = ROOT_BLOCKS[kind]
    s = make_base(kind)
    pols = {"H_values": [[2, 3]]} if s.is_enriques else {"h_values": ["1", "2"]}
    box = {
        "base": kind,
        "mode": "pullback",
        "n_range": [n, n],
        "x_values": [x],
        "alpha_box": [[alpha[0], alpha[0] + 1]] + [[a, a] for a in alpha[1:]],
        "c2E_range": c2E_range,
        "require": require,
        **pols,
    }
    config = SearchConfig.from_json(box)
    kept, tally, runs = [], Counter(), {}
    for bundle, pol, params in _pullback_box_models(config, s):
        record = check_model(s, bundle, pol, require=require, params=params)
        tally[record.failed_stage] += 1
        if require is None or record.failed_stage not in ("validity", "anomaly"):
            kept.append(record.line)
        if require is None:
            _assert_matches_oracles(s, bundle, pol, record)
            v = record.verdicts
            af, chi = Fraction(v["anomaly"]["af"]), Fraction(v["nonsplit"]["value"])
            run = runs.setdefault(tuple(params["alpha"]), {"af": set(), "chi": set(), "W_effective": set()})
            run["af"].add((af > 0) - (af < 0))
            run["chi"].add((chi > 0) - (chi < 0))
            run["W_effective"].add(v["anomaly"]["W_effective"])
    summary = {
        "scanned": sum(tally.values()),
        "passed": tally[None],
        "stage_failures": {stage: tally[stage] for stage in STAGES},
        "emitted": len(kept),
    }
    out = io.StringIO()
    assert run_search(config, out=out) == summary
    assert out.getvalue().splitlines()[:-1] == kept
    if require is None:
        # the block of ROOT_BLOCKS crosses both roots, and its W_effective
        # flips with the sign of af
        run = runs[tuple(str(c) for c in _pad(alpha, s.rank))]
        assert {-1, 1} <= run["af"] and {-1, 1} <= run["chi"]
        assert run["W_effective"] == {True, False}
        assert len(runs) == 2


# A scan works each alpha over its live coordinates: the box's, widened to
# c1's support and to one at least, with the zero rest written as one tail.
# On Enriques, where c1 is pure torsion, that is the box's own width; on F0
# and dPk the full rank.  Boxes of 0, 1 and all coordinates; the full ones
# have entries off the diagonal of the Gram block (and in E8(-1) on Enriques).
FULL_ALPHA_BOXES = {
    "F0": [[-1, 1], [0, 1]],
    "dP1": [[-1, 1], [0, 1]],
    "dP8": [[-1, 1], [1, 1], *[[0, 0]] * 6, [0, 1]],
    "enriques": [[-1, 1], [1, 1], [0, 0], [0, 0], [1, 1], *[[0, 0]] * 4, [0, 1]],
}


def _live_width_box(s, mode):
    """A box of `mode` on `s` without its alpha_box: pullback c2E around af =
    0 for alpha^2 = 0; spectral eta = 12 c1 + (d, 1, ..., 1), d = -3..1, on
    F0 and dPk and eta = (2..3, 3) on Enriques, each holding valid models."""
    if mode == "pullback":
        af_zero = s.c2 + 11 * s.c1_sq
        pols = {"H_values": [[2, 3]]} if s.is_enriques else {"h_values": ["1", "3/2"]}
        return {"x_values": [-1, 0, 1], "c2E_range": [af_zero - 2, af_zero + 1], "n_range": [2, 2], **pols}
    if s.is_enriques:
        eta_box, pols = [[2, 3], [3, 3]], {"H_values": [[5, 6], [3, 4]]}
    else:
        twelve = [12 * c for c in s.c1_ints]
        eta_box, pols = [[twelve[0] - 3, twelve[0] + 1]] + [[v + 1, v + 1] for v in twelve[1:]], {"h_values": ["1"]}
    return {"eta_box": eta_box, "lambda_values": ["1/2", "1", "3/2"], "n_range": [2, 3], **pols}


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("kind", sorted(FULL_ALPHA_BOXES))
def test_live_width_boxes_match_check_model(kind, mode):
    # every record of boxes of 0, 1 and all alpha coordinates, under each
    # requirement: the line check_model writes for its params, a block of
    # one over the full rank, and what the encoder writes of its parse; the
    # summary is the tally of check_model's verdicts
    s = make_base(kind)
    box_models = _pullback_box_models if mode == "pullback" else _spectral_box_models
    reached, asked = set(), {}
    for alpha_box in ([], [[-1, 1]], FULL_ALPHA_BOXES[kind]):
        for require in (None, "W_zero", "W_effective"):
            box = {"base": kind, "mode": mode, **_live_width_box(s, mode), "alpha_box": alpha_box}
            config = SearchConfig.from_json({**box, "require": require})
            kept, tally = [], Counter()
            for bundle, pol, params in box_models(config, s):
                record = check_model(s, bundle, pol, require=require, params=params)
                tally[record.failed_stage] += 1
                if require is None or record.failed_stage not in ("validity", "anomaly"):
                    kept.append(record.line)
                    reached.add((len(alpha_box), require, record.failed_stage))
                anomaly = record.verdicts.get("anomaly")
                if anomaly is not None and Fraction(anomaly["af"]) >= 0:
                    if not jsonio.divisor_from_json(anomaly["wB"], s).is_zero():
                        asked.setdefault(len(alpha_box), set()).add(anomaly["W_effective"])
            out = io.StringIO()
            summary = run_search(config, out=out)
            assert summary == {
                "scanned": sum(tally.values()),
                "passed": tally[None],
                "stage_failures": {stage: tally[stage] for stage in STAGES},
                "emitted": len(kept),
            }
            lines = out.getvalue().splitlines()[:-1]
            assert lines == kept, (alpha_box, require)
            for line in lines:
                _assert_canonical(line)
    # not vacuous: each width writes lines past the anomaly stage and, in a
    # pullback box, W_effective keeps some of them
    for coords in (0, 1, s.rank):
        assert {stage for c, r, stage in reached if c == coords and r is None} - {"validity", "anomaly"}
        if mode == "pullback":
            assert any(c == coords and r == "W_effective" for c, r, _ in reached)
    if mode == "pullback" and s.is_enriques:
        # alpha = (a, 0, ..., 0): wB = t alpha has wB^2 = 0 and wB.(1,1) = t a,
        # read from the whole Gram.(1,1) while the box has one coordinate
        assert asked[1] == {True, False}
