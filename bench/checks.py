"""Output checks behind `failed_frac`.

Every record is checked for its own invariants, the stream for its summary,
and every stability window in the closed forms' domain against the
independent oracles `delpezzo_closed_form` / `enriques_closed_form`.  Each
function returns the keys of the models that failed, so a model counts once
however many of its checks fail.
"""

from __future__ import annotations

import json
from fractions import Fraction

import gen

STAGES = ("validity", "anomaly", "nonsplit", "stability")


def model_key(params: dict) -> str:
    return json.dumps(params, sort_keys=True)


def _pad(coeffs, rank):
    return tuple(coeffs) + (0,) * (rank - len(coeffs))


def _window_errors(cybundle, surface, params: dict, window: dict) -> list:
    n, x = params["n"], params["x"]
    alpha = cybundle.DivisorClass(tuple(int(c) for c in params["alpha"]))
    lower = None if window["lower"] is None else Fraction(window["lower"])
    upper = None if window["upper"] is None else Fraction(window["upper"])
    errors = []
    if window["passed"] != window["nonempty"]:
        errors.append("stability passed != nonempty")
    if window["nonempty"] and None not in (lower, upper) and not lower < upper:
        errors.append("non-empty window with lower >= upper")
    if surface.is_enriques:
        big_h = cybundle.DivisorClass(_pad(params["H"], surface.rank))
        a = surface.intersect(alpha, big_h)
        hsq = surface.intersect(big_h, big_h)
    else:
        a = surface.intersect(alpha, surface.c1)
        h = Fraction(params["h"])
    # the closed forms hold for x*a < 0 and |x| < |a| (acceptance criterion 5)
    if x * a >= 0 or abs(x) >= abs(a):
        return errors
    if surface.is_enriques:
        lo, hi = cybundle.enriques_closed_form(n, x, a, hsq)
    else:
        lo, hi = cybundle.delpezzo_closed_form(n, x, a, surface.c1_sq, h)
        lo, hi = max(lo, Fraction(0)), min(hi, h * h)
    if window["nonempty"] != (lo < hi):
        errors.append("window emptiness disagrees with the closed form")
    elif window["nonempty"] and (lower, upper) != (lo, hi):
        errors.append("window endpoints disagree with the closed form")
    return errors


def _spectral_errors(params: dict, verdict: dict) -> list:
    a_h, n_a_h = Fraction(verdict["alpha_H"]), Fraction(verdict["n_alpha_H"])
    min_deg = Fraction(verdict["min_degree"])
    errors = []
    if n_a_h != params["n"] * a_h:
        errors.append("n_alpha_H != n * alpha_H")
    if verdict["passed"] != (0 < n_a_h < min_deg):
        errors.append("spectral stability verdict disagrees with its numbers")
    if params["base"] in ("F0", "enriques"):
        # Gamma^{1,1} with Gram [[0,1],[1,0]]: the minimum degree is min(H1, H0)
        if min_deg != min(params["H"][:2]):
            errors.append("min_degree disagrees with min(H.(1,0), H.(0,1))")
    return errors


def _nonsplit_errors(verdict: dict) -> list:
    value = Fraction(verdict["value"])
    expect = {
        "chi_E1>0": value > 0,
        "chi_E2<0": value < 0,
        "chi_x0<0": value < 0,
        "spectral chi>0": value > 0,
        "(2H-zc1).alpha<=0": False,
    }.get(verdict["clause"])
    if verdict["passed"] != expect:
        return ["non-split verdict disagrees with its clause and value"]
    return []


def record_errors(cybundle, surface, record: dict, require, short_circuit: bool) -> list:
    """Invariant violations of one record, as a list of messages."""
    verdicts = record["verdicts"]
    stages = list(verdicts)
    errors = []
    if stages != list(STAGES[: len(stages)]) or not stages:
        return [f"stages {stages} are not a prefix of {STAGES}"]
    first_failed = next((s for s in stages if verdicts[s]["passed"] is not True), None)
    if record["failed_stage"] != first_failed:
        errors.append(f"failed_stage {record['failed_stage']} is not the first failing stage {first_failed}")
    if record["overall"] != (record["failed_stage"] is None):
        errors.append("overall disagrees with failed_stage")
    if record["overall"] and len(stages) != len(STAGES):
        errors.append("passing record is missing stages")
    if short_circuit and first_failed is not None and stages[-1] != first_failed:
        errors.append("short-circuited record continues past its failed stage")
    anomaly = verdicts.get("anomaly")
    if anomaly is not None:
        want = {
            None: True,
            "W_zero": anomaly["W_zero"],
            "W_effective": anomaly["W_effective"] is True,
        }[require]
        if anomaly["passed"] != want:
            errors.append("anomaly passed disagrees with the requirement")
    if "nonsplit" in verdicts and "clause" in verdicts["nonsplit"]:
        errors += _nonsplit_errors(verdicts["nonsplit"])
    stability = verdicts.get("stability")
    if stability is not None:
        if "nonempty" in stability:
            errors += _window_errors(cybundle, surface, record["params"], stability)
        else:
            errors += _spectral_errors(record["params"], stability)
    return errors


def check_stream(cybundle, surface, config: dict, text: str) -> tuple:
    """Check one `search` output stream.

    Returns (failed model keys, error messages, records).
    """
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) < 2 or not lines[-2].startswith("# "):
        return {"<stream>"}, ["stream does not end with a '# ' summary line"], []
    summary = json.loads(lines[-2][2:])
    body = lines[:-2]
    failed, messages, records = set(), [], []
    volume = gen.volume(config)
    require = config.get("require")
    for i, line in enumerate(body):
        record = json.loads(line)
        records.append(record)
        key = model_key(record["params"])
        errors = record_errors(cybundle, surface, record, require, short_circuit=True)
        if require is None and record["params"] != gen.model_params(config, i):
            errors.append(f"line {i} is not model {i} of the box")
        if require is not None and record["verdicts"].get("anomaly", {}).get("passed") is not True:
            errors.append("emitted record does not meet the requirement")
        if errors:
            failed.add(key)
            messages += [f"{key}: {e}" for e in errors]
    stage_sum = sum(summary["stage_failures"].values())
    problems = []
    if summary["scanned"] != volume:
        problems.append(f"scanned {summary['scanned']} != box volume {volume}")
    if summary["passed"] + stage_sum != summary["scanned"]:
        problems.append("passed + stage failures != scanned")
    if summary["emitted"] != len(body):
        problems.append(f"summary emitted {summary['emitted']} != {len(body)} lines")
    if require is None:
        if len(body) != summary["scanned"]:
            problems.append("without a requirement every scanned model must be emitted")
        if sum(r["overall"] for r in records) != summary["passed"]:
            problems.append("summary passed != passing records")
        for stage in STAGES:
            count = sum(r["failed_stage"] == stage for r in records)
            if count != summary["stage_failures"].get(stage, 0):
                problems.append(f"summary {stage} failures != records failing {stage}")
    if problems:
        failed.add(f"<summary {config['base']} {config['mode']}>")
        messages += problems
    return failed, messages, records


def check_sample_records(cybundle, surfaces, configs, sample, lines, scans) -> tuple:
    """Check the check_model(short_circuit=False) records of the sample.

    `scans` holds, per config, the scan records when every model is emitted
    (else None); a sampled record must agree with the scan record of the
    same model on every stage the scan evaluated.
    """
    failed, messages = set(), []
    for (ci, index), line in zip(sample, lines):
        record = json.loads(line)
        config = configs[ci]
        key = model_key(record["params"])
        errors = record_errors(cybundle, surfaces[ci], record, config.get("require"), short_circuit=False)
        if scans[ci] is not None:
            scanned = scans[ci][index]
            if scanned["params"] != record["params"]:
                errors.append("sampled params differ from the scan record")
            elif scanned["overall"] != record["overall"] or scanned["failed_stage"] != record["failed_stage"]:
                errors.append("check and search disagree on the outcome")
            elif any(record["verdicts"].get(s) != v for s, v in scanned["verdicts"].items()):
                errors.append("check and search disagree on a stage verdict")
        if errors:
            failed.add(key)
            messages += [f"{key}: {e}" for e in errors]
    return failed, messages


def undecided(record: dict) -> bool:
    anomaly = record["verdicts"].get("anomaly", {})
    stability = record["verdicts"].get("stability", {})
    return ("W_effective" in anomaly and anomaly["W_effective"] is None) or stability.get("bound_limited") is True


def differing_lines(reference: str, other: str) -> int:
    """Number of line positions at which two streams differ."""
    a, b = reference.split("\n"), other.split("\n")
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
