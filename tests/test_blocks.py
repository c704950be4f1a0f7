"""Block-built records against the Chern ring and against `check_model`.

A scan evaluates one block per run of the box in which only the fastest
axes vary (c2E and the polarization for pullback models, the polarization
alone for spectral ones), from closed forms; no stage touches the ring.
The oracles here are the ring's [W] = c2(X) - c2(V) (`c2_tangent` and
`bundle_chern`), and `check_model`, which evaluates a block of one model.
"""

import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from cybundle import jsonio
from cybundle.anomaly import anomaly_class, spectral_af
from cybundle.bundles import PullbackBundle, SpectralBundle, bundle_chern, validate_bundle
from cybundle.nonsplit import chi_line, chi_nonsplit, chi_value, nonsplit_feasible, spectral_nonsplit
from cybundle.ring import DivisorX, c2_tangent
from cybundle.search import Polarization, SearchConfig, check_model, enumerate_models, run_search
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


@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("kind", BASES)
def test_scan_records_match_ring_and_check_model(kind, mode):
    rng = random.Random(f"{kind}:{mode}")
    make_config = _pullback_config if mode == "pullback" else _spectral_config
    config = SearchConfig.from_json(make_config(kind, rng))
    s = make_base(kind)
    records = list(enumerate_models(config))
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
    for record in enumerate_models(SearchConfig.from_json(config)):
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


@pytest.mark.parametrize("den", [1, 2, 3, 4])
def test_chi_line_matches_chi_value(den):
    # alpha = nums/den for any den, so chi0 leaves Z too; c1^2 of F0, dP0..dP8
    rng = random.Random(den)
    for _ in range(300):
        n, x, c1_sq = rng.randint(2, 8), rng.randint(-3, 3), rng.randint(1, 9)
        a_sq, a_c1 = rng.randint(-60, 60), rng.randint(-20, 20)
        chi0, slope = chi_line(n, x, a_sq, a_c1, den, c1_sq)
        assert slope == (abs((n + 1) * x) or 1)
        assert type(chi0) is (int if Fraction(chi0).denominator == 1 else Fraction)
        for c2e in (0, rng.randint(-50, 150)):
            expected = chi_value(n, x, c2e, Fraction(a_sq, den * den), Fraction(a_c1, den), c1_sq)
            assert chi0 - slope * c2e == expected


def _search_bytes(config, jobs):
    out = io.StringIO()
    run_search(config, jobs=jobs, out=out)
    return out.getvalue()


def test_jobs_give_equal_bytes_when_chunks_cut_blocks():
    # blocks of 3 c2E values x 2 polarizations; 324 models, so --jobs 2 cuts
    # chunks of 41 models and --jobs 3 chunks of 27, neither a multiple of 6
    config = SearchConfig.from_json({
        "base": "dP2",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [-1, 1, 2],
        "alpha_box": [[-2, 0], [-1, 1]],
        "c2E_range": [80, 82],
        "h_values": ["1", "3/2"],
    })
    block = 3 * 2
    for jobs in (2, 3):
        assert -(-324 // (jobs * 4)) % block != 0
    serial = _search_bytes(config, 1)
    assert serial.count("\n") == 324 + 1
    assert _search_bytes(config, 2) == serial
    assert _search_bytes(config, 3) == serial
