"""Host-speed calibration for the benchmark's timings.

The host this benchmark was defined on (a 2-vCPU Xeon VM shared with other
tenants) changes speed by up to 1.8x for tens of seconds at a time, for all
code alike, and no process-level setting avoids it: raw medians of two 30 s
runs minutes apart differed by 50%.  So every timed call is bracketed by a
fixed reference loop, and its host seconds are scaled by
``REFERENCE_S / reference time``: the time the call would have taken with the
host at the speed where the reference loop takes ``REFERENCE_S``.  The loop
is the benchmark's own code with the program's mix of work (float math,
small frozen objects, string formatting), so a change to the program never
changes it.  Raw host seconds are recorded next to every calibrated value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

# Median time of ``reference_work()`` on the host the benchmark was defined
# on (Intel Xeon VM, 2 vCPUs, Python 3.11); the unit of calibrated seconds.
REFERENCE_S = 0.0125


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_work(n: int = 6000) -> int:
    """Fixed pure-Python work; returns a value so nothing is optimised away."""
    acc = 0.0
    rows = []
    p = _Point(0.0, 0.0)
    for i in range(n):
        t = i * 0.0005
        p = _Point(p.x + math.cos(t) * 0.1, p.y + math.sin(t) * 0.1)
        theta = math.atan2(p.y, p.x)
        acc += (p.x * p.x) / 4.0 + (p.y * p.y) / 9.0 + math.hypot(p.x, p.y) * theta
        if i % 3 == 0:
            rows.append(",".join((f"{t:.9g}", f"{p.x:.9g}", f"{theta:.9g}")))
    return len("\n".join(rows)) + int(acc)


def reference_seconds() -> float:
    """Host seconds of one ``reference_work()`` call."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from host seconds to calibrated seconds, for a call bracketed by
    reference times ``before`` and ``after``."""
    return REFERENCE_S / ((before + after) / 2)
