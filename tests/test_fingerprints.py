"""Byte-identity guard against the benchmark's recorded output fingerprints.

Scans seed 0 of each benchmark config family in-process, with the configs
of `bench/gen.py`, and compares the sha256 of the streams (records and
summary lines) with `bench/fingerprints.json`.  Reads both files, writes
neither; `bench/fingerprint.py` re-records the table when the output format
changes on purpose.
"""

import hashlib
import io
import json
import os
import types

import pytest

from cybundle.search import SearchConfig, run_search

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _gen():
    """bench/gen.py as a module, compiled here so that no bytecode is cached."""
    path = os.path.join(BENCH, "gen.py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("bench_gen")
    exec(compile(source, path, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["f0-scan", "dp-anomaly", "enriques-scan"])
def test_seed_zero_matches_recorded_fingerprint(workload):
    gen = _gen()
    with open(os.path.join(BENCH, "fingerprints.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[f"{gen.family(workload)}:0"]
    texts, summaries = [], []
    for config in gen.configs(workload, 0):
        out = io.StringIO()
        summaries.append(run_search(SearchConfig.from_json(config), jobs=1, out=out))
        texts.append(out.getvalue())
    assert summaries == recorded["summaries"]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == recorded["sha256"]
