"""Host speed probe: a fixed piece of interpreter work timed between tasks.

A shared host runs the same code up to 1.5 times slower for stretches of
seconds to minutes while other tenants load the physical core; process CPU
time slows with wall time, so this is not steal time.  A stretch can cover
a task's every pass, or a whole run.  So each task latency is scaled to
the reference speed by the probe runs timed around it: multiplied by
REFERENCE_S over the fastest probe within WINDOW_S of the measured interval.
A figure that sees the whole run, the median of spawns spread over it, is
multiplied by REFERENCE_S over the run's fastest probe instead.

The probe runs only benchmark code, never the package, with the garbage
collector off, so a change to the package cannot move it.
"""

from __future__ import annotations

import bisect
import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# The probe's fastest time on the 2-vCPU host the baseline figures in
# README.md come from, in a quiet stretch.
REFERENCE_S = 6.0e-4
# Probe time as a share of task time: 5% keeps thousands of samples a run.
SHARE = 0.05
# How far around a measured interval its probes are taken from.  The host's
# speed holds for seconds; within half a second there are tens of probes.
WINDOW_S = 0.5

_FEET = np.linspace(0.0, 1.0, 33)


def _work() -> None:
    """Fraction sums, a float loop and small in-place numpy updates: the
    three kinds of work the package does, about 0.7 ms in all."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i * i)
    x = 0.0
    for i in range(3000):
        x += (i % 7) * 0.5
    a = _FEET.copy()
    b = np.empty(32)
    for _ in range(200):
        np.add(a[:-1], a[1:], out=b)
        a[1:] = b * 0.5


class Probe:
    """Keeps probe time at SHARE of the task time it is told about, and
    scales measured times by the probes around them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.task_s = 0.0
        self.probe_s = 0.0
        _work()  # warm-up, unmeasured

    def after_task(self, latency: float) -> None:
        """Runs probes right after a task, so that every task has some
        within WINDOW_S of it."""
        self.task_s += latency
        while self.probe_s < SHARE * self.task_s:
            gc.disable()
            t0 = perf_counter()
            _work()
            elapsed = perf_counter() - t0
            gc.enable()
            self.starts.append(t0)
            self.samples.append(elapsed)
            self.probe_s += elapsed

    def scaled(self, start: float, latency: float) -> float:
        """latency, measured from perf_counter() = start, at the reference
        speed: multiplied by REFERENCE_S over the fastest probe that started
        within WINDOW_S of the interval."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + latency + WINDOW_S)
        if lo == hi:
            # a probe slowed by the host earns credit for many tasks, which
            # can leave a gap wider than the window: take the probes either side
            lo, hi = max(lo - 1, 0), hi + 1
        return latency * REFERENCE_S / min(self.samples[lo:hi])

    def run_factor(self) -> float:
        """REFERENCE_S over the run's fastest probe, for a figure taken over
        the whole run."""
        return REFERENCE_S / min(self.samples)
