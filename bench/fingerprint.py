"""Record JSONL fingerprints in bench/fingerprints.json.

    python3 bench/fingerprint.py [SEED ...]      (default: seeds 0-9)

Scans every workload family once per seed at --jobs 1 and stores the
sha256 of its streams (records and summary lines) with the summaries.
`run.py` reports whether a run's output still matches.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile

import gen
import run


def main(argv) -> int:
    seeds = [int(a) for a in argv] or list(range(10))
    try:
        with open(run.FINGERPRINTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    for workload in ("f0-scan", "dp-anomaly", "enriques-scan"):
        for seed in seeds:
            configs = gen.configs(workload, seed)
            work = tempfile.mkdtemp(dir=os.path.join(run.HERE, ".work"))
            try:
                res = run.spawn({"configs": configs, "jobs": 1, "scan": True, "out_dir": work})
                texts = run.read_streams(work, len(configs))
            finally:
                shutil.rmtree(work)
            table[f"{gen.family(workload)}:{seed}"] = {
                "sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
                "summaries": res["summaries"],
            }
            print(workload, seed, table[f"{gen.family(workload)}:{seed}"]["sha256"][:16], flush=True)
    with open(run.FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
