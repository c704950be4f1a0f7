"""Speed probe: times `calib.kernel` every PERIOD_S until stdin closes.

Started pinned to one CPU beside a measured scan; prints the (start,
duration) samples as one JSON line when its stdin reaches end of file.
"""

from __future__ import annotations

import json
import select
import sys
import time

import calib

PERIOD_S = 0.025


def main() -> int:
    samples = []
    while True:
        start = time.monotonic()
        calib.kernel()
        samples.append((start, time.monotonic() - start))
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
