"""Op times normalized by the host's speed at the moment they ran.

On the shared hosts this benchmark runs on, the speed of a core swings
between a fast and a slow regime (the kernel below takes about 0.07 ms
or about 0.14 ms) over stretches of a fraction of a second to a few
seconds.  Wall times of identical work then differ by up to 2x
between runs, and neither medians nor minima over the rounds of a run
remove it.

A ``Pacer`` runs a small fixed kernel from a SIGALRM handler every few
milliseconds and records how long each call took.  An op's normalized
time is its wall time less the handler time inside it, each stretch
between two handler calls scaled by ``REF_S / k``, where ``k`` is the
mean kernel time of the samples on either side of the stretch.  It is
the op's cost in units of the kernel, expressed in seconds at a nominal
kernel time of ``REF_S``: the same on a fast or a slow stretch.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.005
# The kernel's time on an uncontended core of the host the benchmark was
# tuned on (minimum 70.6 us, 1st percentile 71.7 us over 20 s of calls).
REF_S = 7.2e-5


def kernel():
    s = Fraction(0)
    a = Fraction(1, 3)
    for k in range(1, 26):
        s += a / k
    return s


class Pacer:
    """Samples the kernel time every PERIOD_S while started.  Each handler
    call runs the kernel twice and times the second call, so the sample
    reflects the host's speed rather than the cache state the interrupted
    op left behind.  ``on_tick`` receives (start, end) of each handler
    call, so a tracer can keep the handler out of the layers' self time."""

    def __init__(self, on_tick=None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self.on_tick = on_tick

    def _tick(self, signum, frame):
        clock = time.perf_counter
        h0 = clock()
        kernel()
        t0 = clock()
        kernel()
        t1 = clock()
        self.starts.append(h0)
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        if self.on_tick is not None:
            self.on_tick(h0, t1)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, k):
        """REF_S over the mean of the samples of ticks k - 1 and k: the
        host's speed between those two ticks."""
        around = self.samples[max(0, k - 1) : k + 1]
        if not around:
            raise RuntimeError("no kernel sample near the interval; was the pacer started?")
        return REF_S / statistics.fmean(around)

    def normalized(self, a: float, b: float) -> float:
        """Normalized duration of the interval [a, b] of perf_counter time:
        each stretch between two handler calls is scaled by the speed the
        samples on either side of it show."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        cuts = [a] + [t for k in range(i, j) for t in (self.starts[k], self.ends[k])] + [b]
        return sum((cuts[2 * n + 1] - cuts[2 * n]) * self.speed(i + n) for n in range(j - i + 1))
