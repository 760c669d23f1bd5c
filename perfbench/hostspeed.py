"""Host speed probe, timed next to the measured work so times can be scaled.

The reference host is a 2-vCPU virtual machine shared with other tenants.
Its speed drifts by up to a factor of two, over seconds and over minutes, and
the guest shows no steal time, so neither wall nor CPU time of a run is
steady on its own.  The benchmark therefore times this fixed slice of exact
arithmetic (Fraction elimination over math.comb entries, the same kind of
work binsums does) a few times per second during every pass, and reports each
op's time scaled to the reference speed:

    reference seconds = measured seconds * REFERENCE_S / probe seconds

with the probe taken just before and just after the op.  The probe is code
of the benchmark, not of binsums, so a change to the program moves the
scaled times and never the probe.  Raw times are printed next to them.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# About the median probe time on the reference host (1.5 ms in its fast
# phase, up to 3 ms in its slow one).  A constant, so that scaled times are
# comparable between runs and between commits.
REFERENCE_S = 0.002


def _work() -> Fraction:
    n = 7
    rows = [[Fraction(math.comb(i + j + 2, i + 1) % 17 + 1, (i * j) % 5 + 1)
             for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(math.comb(2 * k, k) % 1009 + 1, k + 3)
    return acc + rows[0][n]


def probe() -> float:
    """Seconds for one slice of the fixed work, the median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
