"""Host-speed calibration for a shared machine.

On a shared 2-vCPU host the speed of each CPU swings by ~1.75x within
seconds (measured with the kernel below pinned to each CPU; CPU time swings
with wall time, so the cause is contention for the physical core, not
steal).  Every time the benchmark bounds is therefore rescaled to a nominal
host speed: a fixed Fraction-arithmetic kernel, the same kind of work
cybundle does, is timed on the same CPU during the measured interval, and
the interval is multiplied by (nominal kernel time) / (mean kernel time).  Raw times
are printed beside the normalised ones.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction

KERNEL_TERMS = 30  # ~0.3-0.6 ms: short enough that a probe is not preempted
NOMINAL_S = 0.0004  # kernel time that defines nominal host speed (~the fast phase)


def kernel() -> Fraction:
    """Small-tuple Fraction sums and comparisons, like cybundle's lattice code."""
    total = Fraction(0)
    for i in range(1, KERNEL_TERMS):
        parts = tuple(Fraction(j, 3) for j in range(i % 4 + 2))
        if sum(parts, Fraction(0)) * 2 > i % 5:
            total += parts[-1]
    return total


def factor(samples, t0: float, t1: float, nominal: float = NOMINAL_S, pad: float = 0.0) -> float:
    """`nominal` over the mean kernel time in [t0 - pad, t1 + pad].

    `samples` are (start, duration) pairs on the monotonic clock.  When
    fewer than two kernel runs started inside the window, the two nearest
    to its midpoint are used.  Runs over twice the median were preempted
    (a slow phase of the host is at most ~1.75x) and are dropped.
    """
    inside = [d for s, d in samples if t0 - pad <= s <= t1 + pad]
    if len(inside) < 2:
        mid = (t0 + t1) / 2
        inside = [d for _, d in sorted(samples, key=lambda sd: abs(sd[0] - mid))[:2]]
    cutoff = 2 * statistics.median(inside)
    return nominal / statistics.fmean(d for d in inside if d <= cutoff)


def steal_seconds() -> dict:
    """Per-CPU steal time so far, in seconds: time the hypervisor gave this
    vCPU to another guest.  The probe cannot see it (it is not running
    either), so scan intervals subtract it separately."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                out[name[3:]] = int(fields[7]) / tick
    return out
