"""How fast the host runs right now, from a fixed loop of host work.

The benchmark runs on shared machines whose speed drifts by 20-40% over
tens of seconds as other tenants come and go.  Host times are therefore
reported at a reference speed: each measured time is multiplied by
``REFERENCE_S`` over the time this loop takes next to it.  The loop is
interpreter work (dictionary lookups), which dominates the simulator's
host time and slows the most when the host is busy; a loop that also ran
NumPy operations tracked the drift worse.  It uses nothing from the
library, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

#: Seconds the loop takes at the reference speed.  Only a scale: a round
#: figure near the loop's median on the 2-vCPU Xeon (2.0 GHz) virtual
#: machine the benchmark was tuned on (4.6-6.5 ms).
REFERENCE_S = 5e-3

_TABLE = {i: i for i in range(512)}


def loop_seconds() -> float:
    """Time one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += _TABLE[i & 511]
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two loops of ``before`` and ``after``
    seconds, expressed at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
