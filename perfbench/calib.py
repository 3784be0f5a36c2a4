"""Machine-speed calibration and the percentile rule.

On a shared machine the raw wall clock moves with the machine, not
with the program: NumPy-bound and interpreter-bound code slow down
together when a neighbour takes the core. Every time the benchmark
reports is therefore in *calibrated seconds*::

    calibrated = raw * REFERENCE_KERNEL_S / mean(nearby kernel samples)

where the mean drops the highest and lowest ``TRIM`` of the samples.
The kernel is fixed work of the two kinds the package does: a
``gammainc`` broadcast (SciPy-bound) and a Python loop of small NumPy
calls (interpreter-bound). Under a busy neighbour on the sibling vCPU
the loop slows about twice as much as the broadcast and more than any
workload op, so the broadcast takes about 85% of the kernel's time,
which puts the kernel's slowdown inside the range of the workloads'.
It is sampled after every op, and during ops from a ``SIGALRM``
handler every ``IN_CALL_PERIOD_S`` so that long calls are calibrated
by samples taken while they ran. The handler's own time is subtracted
from the op it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy import special

#: Kernel time on the reference machine (2-vCPU x86-64 VM, CPython
#: 3.11, NumPy 1.x/SciPy 1.x). Frozen: changing it rescales every
#: calibrated number, so it changes only with the kernel itself.
REFERENCE_KERNEL_S = 7.5e-4

#: Period of the in-call sampling timer.
IN_CALL_PERIOD_S = 0.05

#: Kernel samples taken on each side of an op besides those inside it.
NEIGHBOURS = 8

#: Share of nearby samples dropped at each end before averaging them.
TRIM = 0.1

#: An op percentile is reported only with this many ops beyond it.
MIN_BEYOND = 10

_A = np.linspace(0.5, 20.0, 48)[:, None]
_X = np.linspace(0.01, 40.0, 144)[None, :]
_SMALL = np.linspace(1.0, 2.0, 8)
_LOOP = 60


def kernel() -> float:
    """Run the calibration kernel once; returns its raw seconds."""
    start = time.perf_counter()
    acc = float(special.gammainc(_A, _X).sum())
    for i in range(_LOOP):
        acc += float(np.add(_SMALL, i).sum()) + (i * 7) % 13
    return time.perf_counter() - start


def factor(samples) -> float:
    """Calibration factor from kernel samples: reference over their
    trimmed mean.

    The machine's speed is bimodal and switches within a second, so the
    median of a window jumps from one mode to the other while an op
    sees the average slowdown; trimming keeps one preempted sample from
    setting the factor. At reference speed the factor is 1 and
    calibration is the identity.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return REFERENCE_KERNEL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile of one op kind's values, or ``None``
    when fewer than :data:`MIN_BEYOND` values lie beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must be in (0, 100)")
    if len(values) * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    return float(np.percentile(values, q))


def kind_latency(values, q: float) -> float:
    """:func:`percentile` where the rule allows it, else the median.

    A kind run once per rep (the paper's report) has too few ops for
    any percentile; its metric is then the median op, never a
    percentile over a handful of values.
    """
    value = percentile(values, q)
    return statistics.median(values) if value is None else value


class Sampler:
    """Timeline of kernel samples and the timing of ops against it.

    ``kernel`` is injectable so tests can run at a known speed.
    """

    def __init__(self, kernel=kernel) -> None:
        self._kernel = kernel
        self.times: list[float] = []
        self.durations: list[float] = []
        #: Seconds each sample took, including the handler's overhead.
        self.spent: list[float] = []
        #: Total seconds spent inside the timer handler.
        self.handler_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.durations.append(self._kernel())
        self.times.append(start)
        self.spent.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.spent[-1] = time.perf_counter() - start
        self.handler_s += self.spent[-1]

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run ``fn`` under the in-call timer, then take one kernel
        sample. Returns ``(result, start, end)``; ``fn``'s exceptions
        propagate after the sample is taken."""
        signal.setitimer(signal.ITIMER_REAL, IN_CALL_PERIOD_S, IN_CALL_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
            self.sample()
        return result, start, end

    def _pieces(self, start: float, end: float):
        """``(raw seconds, nearby samples)`` of each stretch of
        ``[start, end]`` between in-call samples, handler time excluded.
        Nearby are the :data:`NEIGHBOURS` samples on each side."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        for k in range(lo, hi + 1):
            stop = self.times[k] if k < hi else end
            window = self.durations[max(0, k - NEIGHBOURS):k + NEIGHBOURS]
            yield stop - start, window
            if k < hi:
                start = self.times[k] + self.spent[k]

    def raw(self, start: float, end: float) -> float:
        """Raw seconds of an op over ``[start, end]``."""
        return sum(seconds for seconds, _ in self._pieces(start, end))

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of an op over ``[start, end]``: each piece
        between in-call samples scaled by the factor of its nearby
        samples, so a slowdown during part of a long call is corrected
        where it happened."""
        return sum(
            seconds * factor(window) for seconds, window in self._pieces(start, end)
        )

    def spread(self) -> tuple[float, float]:
        """Median kernel time (s) and its interquartile range over the
        median."""
        q1, med, q3 = statistics.quantiles(self.durations, n=4)
        return med, (q3 - q1) / med
