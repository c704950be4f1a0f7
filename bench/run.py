"""cybundle benchmark: seeded scan workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload f0-scan --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Each scan runs in a fresh interpreter (`bench/child.py`) through
`run_search`, the path `cybundle search` takes; scans repeat until
`--seconds` are used and the medians are reported.  A seeded check sample
is then timed through `check_model(short_circuit=False)`, the path
`cybundle check` takes.  Every output is checked (`bench/checks.py`).
Times are rescaled to a nominal host speed (`bench/calib.py`).
`--trace 1` runs one untraced and one traced pass instead and reports the
per-layer metrics (`bench/layers.py`).  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import calib
import checks
import gen
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SCANS = 3
SPEED_WINDOW_S = 0.1  # probe samples averaged on each side of a short interval
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("models_per_s", "1/s"),
    ("check_ms_p50", "ms"),
    ("check_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# functions reported per layer as `<name>.calls` and `<name>.self_s`
TRACED = (
    "surfaces.BaseSurface.intersect",
    "surfaces.BaseSurface.cone_position",
    "surfaces.BaseSurface.min_positive_degree",
    "ring.triple_product",
    "ring.divisor_square",
    "ring.pair_four_two",
    "ring.c2_tangent",
    "bundles.validate_bundle",
    "bundles.bundle_chern",
    "bundles.chern_extension",
    "bundles.c2_spectral",
    "bundles.check_spectral_data",
    "nonsplit.chi_nonsplit",
    "nonsplit.nonsplit_feasible",
    "nonsplit.spectral_nonsplit",
    "anomaly.anomaly_class",
    "anomaly.decompose_w",
    "anomaly.spectral_af",
    "windows.window_delpezzo",
    "windows.window_enriques",
    "windows.spectral_stability_check",
    "jsonio.frac_to_str",
    "jsonio.divisor_to_json",
    "jsonio.window_to_json",
    "search.check_model",
    "search.run_search",
    "search.ModelRecord.to_json_line",
)
LOC_MODULES = (
    "surfaces", "ring", "bundles", "anomaly", "nonsplit", "windows",
    "search", "jsonio", "cli", "fixtures", "__init__",
)


def per_layer_units() -> list:
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for layer in layers.LAYERS:
        out.append((f"{layer}.self_share", "ratio"))
    out += [
        (f"{layers.KEYED}.distinct_ratio", "ratio"),
        ("search.jsonl_bytes", "bytes"),
        ("search.pool.cpu_util", "ratio"),
        ("search.undecided_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    out += [(f"loc.{m}", "lines") for m in LOC_MODULES] + [("loc.total", "lines")]
    return out


# ---------------------------------------------------------------------------
# child processes


def _pinned(cpus):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def spawn(job: dict, cpus=None) -> dict:
    """Run bench/child.py on `job` in a fresh interpreter; return its result."""
    env = dict(os.environ)
    env.pop("CYBUNDLE_BOUND", None)  # every config pins bound=50 itself
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    job = dict(job, root=ROOT, steal_at_spawn=calib.steal_seconds(), t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=env, start_new_session=True, preexec_fn=_pinned(cpus),
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}):\n{err}")
    return json.loads(out.splitlines()[-1])


class Probes:
    """Speed probes (bench/probe.py), one pinned to each CPU in `cpus`."""

    def __init__(self, cpus):
        self.procs = [
            subprocess.Popen(
                [sys.executable, os.path.join(HERE, "probe.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                preexec_fn=_pinned({cpu}),
            )
            for cpu in sorted(cpus)
        ]
        self.samples: list = []

    def stop(self) -> list:
        """Close the probes' stdin, wait for them, return all samples."""
        for proc in self.procs:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            self.samples += [tuple(s) for s in json.loads(out)]
        self.procs = []
        return self.samples

    def kill(self):
        for proc in self.procs:
            proc.kill()
            proc.wait()
        self.procs = []


def normalised(samples, interval, pad: float = 0.0, stolen: float = 0.0) -> float:
    """Length of a [t0, t1] interval, less `stolen` seconds of steal time,
    rescaled to nominal host speed."""
    t0, t1 = interval
    return (t1 - t0 - stolen) * calib.factor(samples, t0, t1, pad=pad)


def read_streams(out_dir: str, count: int) -> list:
    texts = []
    for i in range(count):
        with open(os.path.join(out_dir, f"{i}.jsonl"), encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


# ---------------------------------------------------------------------------
# output checks shared by both modes


class Verdict:
    """Failed models, messages and counts of one workload run."""

    def __init__(self):
        self.failed: set = set()
        self.messages: list = []
        self.records = 0
        self.undecided = 0

    def add(self, failed, messages):
        self.failed |= set(failed)
        self.messages += messages

    def check_scan(self, cybundle, surfaces, configs, texts) -> list:
        """Check each stream; return per config the records if all are emitted."""
        scans = []
        for surface, config, text in zip(surfaces, configs, texts):
            failed, messages, records = checks.check_stream(cybundle, surface, config, text)
            self.add(failed, messages)
            self.records += len(records)
            self.undecided += sum(checks.undecided(r) for r in records)
            scans.append(records if config.get("require") is None else None)
        return scans

    def compare(self, label: str, reference: list, other: list):
        for i, (a, b) in enumerate(zip(reference, other)):
            diff = checks.differing_lines(a, b)
            if diff:
                self.add({f"<{label} config {i} line {k}>" for k in range(diff)},
                         [f"{label}: config {i} differs on {diff} lines"])

    def check_sample(self, cybundle, surfaces, configs, sample, result, scans):
        lines = result["check_lines"]
        errors = [(s, line) for s, line in zip(sample, lines) if line.startswith("!")]
        for (ci, index), line in errors:
            self.add({f"<sample {ci}:{index}>"}, [f"check_model raised on config {ci} model {index}: {line[1:]}"])
        ok = [(s, line) for s, line in zip(sample, lines) if not line.startswith("!")]
        failed, messages = checks.check_sample_records(
            cybundle, surfaces, configs, [s for s, _ in ok], [l for _, l in ok], scans
        )
        self.add(failed, messages)
        records = [json.loads(line) for _, line in ok]
        self.records += len(records)
        self.undecided += sum(checks.undecided(r) for r in records)


def _library():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import cybundle

    return cybundle


FINGERPRINTS = os.path.join(HERE, "fingerprints.json")


def fingerprint(workload: str, seed: int, texts: list) -> tuple:
    """sha256 of the streams (records and summary lines) and its status
    against bench/fingerprints.json.  A change is reported, never gated:
    a correctness fix may legitimately change records."""
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(f"{gen.family(workload)}:{seed}")
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        status = "not recorded for this seed"
    elif recorded["sha256"] == digest:
        status = "matches the recorded fingerprint"
    else:
        status = f"CHANGED from the recorded {recorded['sha256'][:16]} (reported, not gated)"
    return digest, status


# ---------------------------------------------------------------------------
# runs


def _cpus(jobs: int) -> tuple:
    """CPUs the scans are pinned to (and probed on), and the one for checks."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[:jobs]), {allowed[0]}


def _check_times_ms(result: dict, samples: list) -> tuple:
    """Normalised and raw per-model check_model times, in ms."""
    raw = [d * 1000 for _, d in result["checks"]]
    norm = [d * 1000 * calib.factor(samples, s, s + d, pad=SPEED_WINDOW_S) for s, d in result["checks"]]
    return norm, raw


def run_untraced(workload: str, seed: int, seconds: float, work: str) -> tuple:
    cybundle = _library()
    configs = gen.configs(workload, seed)
    surfaces = [cybundle.make_base(c["base"]) for c in configs]
    jobs = gen.jobs(workload)
    sample = gen.check_sample(workload, seed)
    scan_cpus, check_cpus = _cpus(jobs)
    verdict = Verdict()

    scans, streams = [], []
    probes = Probes(scan_cpus)
    try:
        start = time.monotonic()
        while True:
            out_dir = os.path.join(work, f"scan{len(scans)}")
            os.mkdir(out_dir)
            t0 = time.monotonic()
            res = spawn({"configs": configs, "jobs": jobs, "scan": True, "out_dir": out_dir}, scan_cpus)
            res["spawn_to_exit_s"] = time.monotonic() - t0
            scans.append(res)
            texts = read_streams(out_dir, len(configs))
            shutil.rmtree(out_dir)
            if streams:
                verdict.compare(f"repeat scan {len(scans) - 1}", streams, texts)
            else:
                streams = texts
            per_scan = statistics.median(s["spawn_to_exit_s"] for s in scans)
            if len(scans) >= MIN_SCANS and time.monotonic() - start + per_scan > seconds:
                break
        samples = probes.stop()
    finally:
        probes.kill()

    scan_records = verdict.check_scan(cybundle, surfaces, configs, streams)
    if jobs > 1:
        ref_dir = os.path.join(work, "reference-j1")
        os.mkdir(ref_dir)
        spawn({"configs": configs, "jobs": 1, "scan": True, "out_dir": ref_dir}, check_cpus)
        verdict.compare(f"--jobs 1 vs --jobs {jobs}", read_streams(ref_dir, len(configs)), streams)
    probes = Probes(check_cpus)
    try:
        passes = [
            spawn({"configs": configs, "jobs": 1, "sample": sample}, check_cpus)
            for _ in range(gen.check_passes(workload))
        ]
        check_samples = probes.stop()
    finally:
        probes.kill()
    verdict.check_sample(cybundle, surfaces, configs, sample, passes[0], scan_records)
    for k, other in enumerate(passes[1:], 1):
        if other["check_lines"] != passes[0]["check_lines"]:
            verdict.add({"<check pass>"}, [f"check pass {k} records differ from pass 0"])

    scanned = sum(s["scanned"] for s in scans[0]["summaries"])
    timed = [_check_times_ms(p, check_samples) for p in passes]
    times = [statistics.median(t) for t in zip(*(norm for norm, _ in timed))]
    raw_times = [statistics.median(t) for t in zip(*(raw for _, raw in timed))]
    tail_p = tail_percentile(len(times))
    rates = [scanned / normalised(samples, s["scan"], stolen=s["stolen_s"]) for s in scans]
    raw_rates = [scanned / (s["scan"][1] - s["scan"][0]) for s in scans]
    metrics = {
        "models_per_s": statistics.median(rates),
        "check_ms_p50": nearest_rank(times, 50),
        "check_ms_tail": nearest_rank(times, tail_p),
        "setup_s": statistics.median(
            normalised(samples, s["setup"], SPEED_WINDOW_S, s["setup_stolen_s"]) for s in scans),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in scans),
    }
    attempted = scanned + len(sample)
    digest, status = fingerprint(workload, seed, streams)
    notes = [
        f"scans: {len(scans)} x {scanned} models, jobs={jobs}, pinned to CPUs {sorted(scan_cpus)}",
        "raw (not normalised): models_per_s %.6g, check_ms_p50 %.6g, check_ms_tail %.6g, setup_s %.6g"
        % (statistics.median(raw_rates), nearest_rank(raw_times, 50), nearest_rank(raw_times, tail_p),
           statistics.median(s["setup"][1] - s["setup"][0] for s in scans)),
        "host during scans: speed %.3f x nominal, steal time %s s per scan" % (
            statistics.median(calib.factor(samples, *s["scan"]) ** -1 for s in scans),
            " ".join(f"{s['stolen_s']:.2f}" for s in scans)),
        f"check sample: {len(times)} models, median of {len(passes)} fresh-process passes, tail = p{tail_p:g}",
        f"failed_frac = {len(verdict.failed) / attempted:.6g} ({len(verdict.failed)}/{attempted})",
        f"undecided_frac = {verdict.undecided / verdict.records:.6g} ({verdict.undecided}/{verdict.records} records)",
        f"jsonl sha256 {digest[:16]}: {status}",
        "summaries: " + json.dumps(scans[0]["summaries"], separators=(",", ":")),
    ]
    units = dict(END_TO_END)
    return attempted, verdict, {k: (v, units[k]) for k, v in metrics.items()}, notes


def loc_counts() -> dict:
    counts = {}
    for module in LOC_MODULES:
        with open(os.path.join(ROOT, "src", "cybundle", f"{module}.py"), encoding="utf-8") as fh:
            counts[module] = sum(1 for _ in fh)
    return counts


def run_traced(workload: str, seed: int, work: str) -> tuple:
    cybundle = _library()
    configs = gen.configs(workload, seed)
    surfaces = [cybundle.make_base(c["base"]) for c in configs]
    jobs = gen.jobs(workload)
    sample = gen.check_sample(workload, seed)
    scan_cpus, _ = _cpus(jobs)
    verdict = Verdict()

    plain_dir, traced_dir, stats_dir = (os.path.join(work, d) for d in ("plain", "traced", "stats"))
    for d in (plain_dir, traced_dir, stats_dir):
        os.mkdir(d)
    base_job = {"configs": configs, "jobs": jobs, "scan": True, "sample": sample}
    probes = Probes(scan_cpus)
    try:
        plain = spawn(dict(base_job, out_dir=plain_dir), scan_cpus)
        traced = spawn(dict(base_job, out_dir=traced_dir, trace=True, stats_dir=stats_dir), scan_cpus)
        samples = probes.stop()
    finally:
        probes.kill()
    streams = read_streams(plain_dir, len(configs))
    scan_records = verdict.check_scan(cybundle, surfaces, configs, streams)
    verdict.check_sample(cybundle, surfaces, configs, sample, plain, scan_records)
    verdict.compare("traced vs untraced", streams, read_streams(traced_dir, len(configs)))
    if traced["check_lines"] != plain["check_lines"]:
        verdict.add({"<traced check sample>"}, ["traced check_model records differ from untraced"])

    workers = layers.worker_snapshots(stats_dir)
    stats = layers.merge([traced["trace"]] + workers)
    plain_s = normalised(samples, plain["work"])
    traced_s = normalised(samples, traced["work"])
    total_self = sum(stats["self_s"].values())
    scan_keys = Counter(traced["scan_keys"])
    for snap in workers:
        scan_keys.update(snap["keys"])
    ratio, per_base = layers.distinct_ratio(scan_keys)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = stats["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = stats["self_s"].get(name, 0.0)
    for layer in layers.LAYERS:
        share = sum(v for k, v in stats["self_s"].items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = share / total_self if total_self else 0.0
    loc = loc_counts()
    metrics.update({
        f"{layers.KEYED}.distinct_ratio": ratio,
        "search.jsonl_bytes": sum(len(t.encode()) for t in streams),
        "search.pool.cpu_util": plain["cpu_util"],
        "search.undecided_frac": verdict.undecided / verdict.records,
        "trace.overhead_frac": traced_s / plain_s - 1,
        **{f"loc.{m}": n for m, n in loc.items()},
        "loc.total": sum(loc.values()),
    })
    scanned = sum(s["scanned"] for s in plain["summaries"])
    attempted = scanned + len(sample)
    top = sorted(stats["self_s"].items(), key=lambda kv: -kv[1])[:12]
    notes = [
        f"untraced scan+check {plain_s:.3f} s, traced {traced_s:.3f} s (normalised), "
        f"overhead {traced_s / plain_s - 1:+.1%}",
        f"wrapped {len(stats['calls'])} called functions; pool workers reporting: {len(workers)}",
        "cone_position distinct/total queries of the scan, per base: "
        + ", ".join(f"{b} {r:.3f}" for b, r in per_base.items()),
        f"failed_frac = {len(verdict.failed) / attempted:.6g} ({len(verdict.failed)}/{attempted})",
        "largest self times:",
    ] + [
        f"  {name:<45} {t:9.4f} s {t / total_self:6.1%}  {stats['calls'].get(name, 0):>9} calls"
        for name, t in top
    ]
    units = dict(per_layer_units())
    return attempted, verdict, {k: (metrics[k], units[k]) for k in units}, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(HERE, ".work"))
    try:
        if trace:
            attempted, verdict, metrics, notes = run_traced(workload, seed, work)
        else:
            attempted, verdict, metrics, notes = run_untraced(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"== {workload} seed={seed} trace={int(trace)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for message in verdict.messages[:20]:
        print(f"  CHECK FAILED: {message}")
    return {
        "correct": not verdict.failed,
        "attempted": attempted,
        "failed": len(verdict.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cybundle", "__init__.py")):
        print(f"error: no cybundle source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
