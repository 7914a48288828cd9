"""Host-speed sampling, so that wall times can be scaled to a fixed speed.

On the shared 2-vCPU Xeon virtual machine the benchmark was tuned on, the
same single-threaded Python code runs up to 1.7x slower in spells that
switch every 100 ms or so, and the share of slow time differs from one
40 s run to the next.  Steal time stays near zero and CPU time slows just
as wall time does, so neither removes it.

While a `HostSpeed` is active, a SIGALRM handler times a fixed pure-Python
kernel every INTERVAL_S seconds.  The kernel touches nothing of quiverdg,
so a change to the program cannot change it.  `scale(start, end)` turns
the wall time of an interval into the time it would have taken at the
speed where the kernel takes REFERENCE_KERNEL_S, by the kernel's mean time
over the samples taken inside the interval (or the nearest few, for short
intervals).  The handler costs about 0.5 % of the measured time, the same
for every version of the program.
"""

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.002
# About the kernel's median time on the machine named above, so that scaled
# times read close to its wall times.
REFERENCE_KERNEL_S = 1.0e-5
LEAST_SAMPLES = 8

_TABLE = {i: (i * 7919) % 1009 for i in range(64)}


def kernel():
    """Integer arithmetic and dict lookups; allocates no tracked object, so
    it never starts a garbage collection."""
    acc = 0
    table = _TABLE
    for i in range(48):
        acc = (acc + table[i & 63] * i) % 1000003
    return acc


class HostSpeed:
    def __init__(self):
        self.times = []
        self.kernel_s = []
        self._previous = None

    def _sample(self, signum, frame):
        started = perf_counter()
        kernel()
        self.kernel_s.append(perf_counter() - started)
        self.times.append(started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_over(self, start, end):
        """Mean kernel time over the samples in [start, end], widened to the
        LEAST_SAMPLES nearest ones when fewer fall inside."""
        if not self.times:
            raise RuntimeError("no host-speed sample was taken")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < LEAST_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - LEAST_SAMPLES // 2,
                            len(self.times) - LEAST_SAMPLES))
            hi = lo + LEAST_SAMPLES
        return statistics.fmean(self.kernel_s[lo:hi])

    def scale(self, start, end):
        """The wall time of [start, end] at the reference speed."""
        return (end - start) * REFERENCE_KERNEL_S / self.kernel_over(start,
                                                                     end)

    def mean_kernel(self):
        return statistics.fmean(self.kernel_s)
