"""Machine speed probe for steady timings on a machine whose CPU speed drifts.

On the machine the reference figures come from, a fixed pure-Python loop
runs at speeds up to 2x apart, switching within a second and drifting over
minutes; the whole process slows down, not just the clock.  ``SpeedSampler``
runs a small fixed probe (about 0.25 ms) on a 25 ms interval timer while the
operations run, so the probe sees the same slow and fast phases as the
operation it interrupts.  ``seconds(t0, t1)`` scales a measured interval by
``REF_PROBE_S / mean probe time`` over that interval: the interval's length
at the reference probe speed.  Both the raw and the scaled times are
reported; see README.md.
"""

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.025
# The probe's time on this machine when it runs at full speed (its 1st
# percentile was 0.23 ms, its median 0.48 ms).
REF_PROBE_S = 0.00025
MIN_SAMPLES = 4


def probe():
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i % 13 + 1, i % 97 + 1)
    return s


class SpeedSampler:
    """Probe timings taken on SIGALRM while the sampler is running."""

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.starts = []
        self.costs = []
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def seconds(self, t0, t1):
        """The interval [t0, t1] at the reference probe speed.

        Uses the probes taken inside the interval, widened to the nearest
        ones in time when the interval holds fewer than MIN_SAMPLES.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            raise ValueError("no speed probes were taken")
        mean = sum(self.costs[lo:hi]) / (hi - lo)
        return (t1 - t0) * REF_PROBE_S / mean
