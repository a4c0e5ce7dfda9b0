"""Scaling measured times to a reference CPU speed.

The benchmark runs on shared virtual machines whose speed for a fixed
pure-Python loop drifts by 20-40 % within seconds, as other tenants load
the host.  Each timed interval is therefore bracketed by a fixed
calibration workload, and the time is reported as
``measured * REFERENCE_S / calibration``: the seconds the interval would
have taken at the speed where the calibration workload takes REFERENCE_S.
On a 2-core Xeon this cut the run-to-run spread of a workload's median
wall time from 10-40 % to 2-9 %.

The calibration is pure Python that builds, sorts and probes dicts of
64-bit ints and turns ints into digit strings and back, like the package's
own per-member loops.  It never calls the
package, so no change to the package moves it.  It adds about 2.5 MB to
the peak RSS of the process that runs it.
"""

from __future__ import annotations

import time

# about what calibration_s() takes on a 2-core Intel Xeon (Python 3.11)
REFERENCE_S = 0.07
MASK64 = (1 << 64) - 1


def calibration_s() -> float:
    t0 = time.perf_counter()
    x = 1
    for _ in range(4):
        # dict build, sort and probe
        table = {}
        for i in range(1 << 14):
            x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
            table[x] = i
        total = 0
        for key in sorted(table)[::3]:
            total += table[key]
        # ints to digit strings and back, as the code file writer and reader do
        lines = []
        for key in list(table)[:1024]:
            row = key >> 40
            digits = []
            for _ in range(24):
                row, d = divmod(row, 2)
                digits.append(chr(48 + d))
            lines.append("".join(digits))
        for line in lines:
            v = 0
            for ch in reversed(line):
                v = v * 2 + ord(ch) - 48
            total ^= v & -v
    return time.perf_counter() - t0


def scale_factor(calibrations) -> float:
    """Multiplier taking measured seconds to reference seconds."""
    return REFERENCE_S * len(calibrations) / sum(calibrations)
