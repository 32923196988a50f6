"""Machine-speed calibration for the timed runs.

The host the benchmark was defined on shares its cores.  Its speed flips
between a fast and a slow state every few milliseconds, and the share of slow
time drifts over minutes, so the wall time of the same pass moved by up to
±25 % from one run to the next.  To take that drift out, a short fixed
pure-Python kernel runs from a SIGALRM handler every INTERVAL_S, in the
benchmark's own thread, for the whole timed run.  Its mix of list indexing,
dict lookups, integer arithmetic and method calls resembles the package's hot
loops; a kernel of integer arithmetic alone slowed less than the workloads
did in the slow state.  An interval of benchmark work is then reported as

    (wall time - kernel time inside it) * REF_KERNEL_S / (mean kernel time near it)

that is, the time it would have taken at the speed where one kernel run takes
REF_KERNEL_S.  "Near" is the interval itself, widened to at least WINDOW_S,
and the mean leaves out stalled samples.
The kernel allocates no container, so it never starts the garbage
collector, and it slows the run by under 1 %.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

INTERVAL_S = 0.01
WINDOW_S = 1.0
MIN_SAMPLES = 50
STALL_FACTOR = 4
# The kernel's time at the defining host's fast state (its 2nd percentile
# there), so that reported times read close to unloaded wall times.
REF_KERNEL_S = 36e-6

_ROWS = [[(i * j) % 5 for j in range(16)] for i in range(16)]
_LOOKUP = {i: i & 7 for i in range(64)}


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 3, 5

    def apply(self, x):
        return (x * self.a + self.b) & 255


_AFFINE = _Affine()


def kernel():
    s = 0
    rows, lookup, affine = _ROWS, _LOOKUP, _AFFINE
    for i in range(32):
        row = rows[i & 15]
        for j in range(16):
            if row[j]:
                s += lookup[(i + j) & 63] * row[j]
        s = affine.apply(s)
    return s


class Speedometer:
    """Samples the kernel's time from a timer signal while it is running.
    Query it only after it has stopped."""

    def __init__(self):
        self.ends = []  # perf_counter at the end of each kernel sample
        self.times = []  # the kernel time of each sample
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            raise RuntimeError("no speed samples were taken")
        # A sample far above the median was stalled (the host descheduled the
        # thread), which says nothing about the speed; a few such samples would
        # move a mean by tens of percent.  They still count as kernel time.
        cap = STALL_FACTOR * statistics.median(self.times)
        self._spent = list(itertools.accumulate(self.times, initial=0.0))
        self._kept = list(itertools.accumulate((t <= cap for t in self.times), initial=0))
        self.stalled = len(self.times) - self._kept[-1]
        self._kept_time = list(itertools.accumulate(
            (t if t <= cap else 0.0 for t in self.times), initial=0.0))

    def _range(self, t0, t1):
        return bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def busy(self, t0, t1):
        """Wall time of [t0, t1] minus the kernel samples that ran inside it."""
        lo, hi = self._range(t0, t1)
        return (t1 - t0) - (self._spent[hi] - self._spent[lo])

    def scale(self, t0, t1):
        """REF_KERNEL_S over the mean unstalled kernel time in [t0, t1],
        widened symmetrically until it spans WINDOW_S and holds MIN_SAMPLES
        such samples."""
        pad = max(0.0, (WINDOW_S - (t1 - t0)) / 2)
        while True:
            lo, hi = self._range(t0 - pad, t1 + pad)
            kept = self._kept[hi] - self._kept[lo]
            if kept >= MIN_SAMPLES or (lo == 0 and hi == len(self.ends)):
                break
            pad = 2 * pad + INTERVAL_S
        return REF_KERNEL_S * kept / (self._kept_time[hi] - self._kept_time[lo])

    def normalized(self, t0, t1):
        """The busy time of [t0, t1] at the reference speed."""
        return self.busy(t0, t1) * self.scale(t0, t1)
