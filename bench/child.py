"""One fresh interpreter of the benchmark: set up, scan, time check_model.

Reads a job (JSON) on stdin and prints one JSON result line on stdout.  The
parent passes its `time.monotonic()` at spawn time, so the setup interval
covers interpreter start, import, config parsing, `make_base` and, with more
than one job, starting a process pool.  All stamps are on the monotonic
clock, which the parent shares, so it can rescale them with the speed probe
samples (see calib.py).  Only public cybundle API is used.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import calib
import gen


def build_model(cybundle, surface, params: dict):
    """Bundle and polarization of one model from its JSONL `params`."""
    alpha = cybundle.DivisorClass(tuple(int(c) for c in params["alpha"]))
    if "c2E" in params:
        twist = cybundle.DivisorX(params["x"], alpha)
        bundle = cybundle.PullbackBundle(n=params["n"], c2E=params["c2E"], twist=twist)
    else:
        eta = cybundle.DivisorClass(tuple(int(c) for c in params["eta"]))
        twist = cybundle.DivisorX(0, alpha)
        bundle = cybundle.SpectralBundle(
            n=params["n"], eta=eta, lam=Fraction(params["lambda"]), twist=twist
        )
    if "H" in params:
        coeffs = tuple(params["H"]) + (0,) * (surface.rank - len(params["H"]))
        pol = cybundle.Polarization(H=cybundle.DivisorClass(coeffs))
    else:
        pol = cybundle.Polarization(h=Fraction(params["h"]))
    return bundle, pol


def _worker_pid(_) -> int:
    return os.getpid()


def _scan(search, configs, job) -> dict:
    summaries = []
    steal0 = calib.steal_seconds()
    cpu0, t0 = os.times(), time.monotonic()
    for i, config in enumerate(configs):
        with open(os.path.join(job["out_dir"], f"{i}.jsonl"), "w", encoding="utf-8") as out:
            summaries.append(search.run_search(config, jobs=job["jobs"], out=out))
    t1, cpu1 = time.monotonic(), os.times()
    steal1 = calib.steal_seconds()
    cpus = [str(c) for c in os.sched_getaffinity(0)]
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    # the pool keeps every CPU busy, so the mean steal is the capacity lost
    return {
        "scan": [t0, t1],
        "stolen_s": statistics.fmean(steal1[c] - steal0[c] for c in cpus),
        "summaries": summaries,
        "cpu_util": cpu / ((t1 - t0) * job["jobs"]),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _check_sample(cybundle, search, surfaces, configs, job) -> dict:
    checks, lines = [], []
    for ci, index in job["sample"]:
        params = gen.model_params(job["configs"][ci], index)
        bundle, pol = build_model(cybundle, surfaces[ci], params)
        config = configs[ci]
        start = time.monotonic()
        try:
            record = search.check_model(
                surfaces[ci], bundle, pol, require=config.require, bound=config.bound,
                short_circuit=False, params=params,
            )
            line = record.to_json_line()
        except Exception as exc:  # counted as a failed model by the parent
            line = f"!{exc!r}"
        checks.append((start, time.monotonic() - start))
        lines.append(line)
    return {"checks": checks, "check_lines": lines}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import cybundle
    import cybundle.search as search

    configs = [search.SearchConfig.from_json(c) for c in job["configs"]]
    surfaces = [cybundle.make_base(c.base) for c in configs]
    if job["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=job["jobs"]) as pool:
            list(pool.map(_worker_pid, range(job["jobs"])))
    ready, steal = time.monotonic(), calib.steal_seconds()
    cpus = [str(c) for c in os.sched_getaffinity(0)]
    # set-up is mostly single-threaded, so the steal of every CPU it may run on counts
    result = {
        "setup": [job["t_spawn"], ready],
        "setup_stolen_s": sum(steal[c] - job["steal_at_spawn"][c] for c in cpus),
    }

    tracer = None
    if job.get("trace"):
        import layers

        tracer = layers.Tracer()
        tracer.install()
        if job["jobs"] > 1:
            tracer.dump_in_workers(job["stats_dir"])
    work0 = time.monotonic()
    if job.get("scan"):
        result.update(_scan(search, configs, job))
        if tracer is not None:
            result["scan_keys"] = dict(tracer.keys)  # cone queries of the scan alone
    if job.get("sample"):
        result.update(_check_sample(cybundle, search, surfaces, configs, job))
    result["work"] = [work0, time.monotonic()]
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
