"""Small fixed kernels that gauge how fast a CPU is while a workload runs.

The benchmark's machine is shared: each CPU's speed swings by up to 2x in
spells of seconds to hours, and the workloads' wall times swing with it.
While a workload process runs, run.launch times one piece of a kernel every
INTERVAL_S on the same CPU, and run.end_to_end scales the process's times by
the kernel's REFERENCE_S over the pieces' mean time, so that the gated
metrics read as seconds at the reference speed.  Scaling takes out what
slows the kernel and the workload alike; a slowdown of the workload alone
shows in full.  The kernels share no code with chemoflux (a change to the
program cannot change them).  Each does the kind of work of the workloads
it gauges, since contention slows kinds of work unequally (pure-Python
Fraction arithmetic about twice as much as numpy calls here):

- "numeric" (solver workloads): small numpy stencils and FFTs, a little
  Fraction arithmetic and a plain Python loop;
- "exact" (ledger-scan): Fraction expressions at small rational points.

A piece takes 0.5-1 ms, so the gauge takes under 1% of the CPU.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

import numpy as np
import scipy.fft

from spans import clock

# Mean time of one piece on the baseline machine (a 2-vCPU Intel Xeon VM at
# 2.1 GHz) while the workloads ran.
REFERENCE_S = {"numeric": 0.85e-3, "exact": 0.75e-3}
INTERVAL_S = 0.1
# A sample over SPIKE times the median is clipped there: a piece preempted
# by something else says nothing about the CPU's speed.
SPIKE = 3.0

_FIELD = np.random.default_rng(0).standard_normal((16, 16, 16))
_POINTS = [(Fraction(i, 7), Fraction(j, 5)) for i in range(1, 8)
           for j in range(1, 7)]


def numeric() -> float:
    """Run one piece of the numeric kernel; its duration in seconds."""
    t0 = clock()
    a = _FIELD
    b = 0.5 * (np.roll(a, 1, 0) + np.roll(a, -1, 1)) - a * np.roll(a, 1, 2)
    scipy.fft.irfftn(scipy.fft.rfftn(b, workers=1), s=b.shape, workers=1)
    x = Fraction(1, 3)
    for i in range(1, 25):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    s = 0
    for i in range(2000):
        s += i * i
    return clock() - t0


def exact() -> float:
    """Run one piece of the exact kernel; its duration in seconds."""
    t0 = clock()
    half = Fraction(1, 2)
    for a, p in _POINTS:
        v = (a * p - 1) / (p + 2) + a / (3 * p)
        _ = v > half
    return clock() - t0


PIECES = {"numeric": numeric, "exact": exact}


def mean_piece(samples: list[float]) -> float:
    """The mean piece time of a process's samples, spikes clipped."""
    cap = SPIKE * statistics.median(samples)
    return statistics.fmean(min(t, cap) for t in samples)
