"""Machine-speed correction for the untraced passes.

On a shared virtual machine the same code runs at speeds up to about 1.8x
apart from one second to the next, as other tenants load the physical
cores; the share of slow seconds drifts over minutes, so raw wall times
of one op list differ by 20-40% between runs minutes apart.  A fixed
pure-Python kernel (tuple and dict work, like the library's) slows with
the library's code, so its time measures the machine's speed at that
moment.

Between `SpeedProbe.begin` and `end` around one op, the kernel is timed
just before and after the op and, every INTERVAL_S of wall time, inside
it from a SIGALRM handler.  `end` returns the op's wall time with the
handler's time taken out, and its reference time: that wall time times
REF_KERNEL_S over the mean kernel time sampled across the op: the time
the op would take on a machine where the kernel takes REF_KERNEL_S
(about its time on an unloaded vCPU of the 2-vCPU Xeon VM the baseline
was measured on).  A change to the library changes the op's wall time
and not the kernel's, so it moves the reference time in proportion.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

KERNEL_KEYS = 3000
REF_KERNEL_S = 1.3e-3
INTERVAL_S = 0.05


def kernel():
    d = {}
    for i in range(KERNEL_KEYS):
        t = (i % 97, i % 89, i)
        d[t[:2]] = d.get(t[:2], 0) + t[2]
    return len(d)


class SpeedProbe:
    """Samples the kernel's time while it is entered (a context manager)."""

    def __init__(self):
        self.samples = []  # kernel seconds, in time order
        self.busy = 0.0    # seconds spent sampling, handler dispatch included
        self._sampling = False

    def sample(self):
        if self._sampling:  # an alarm inside a sample or a clock reading: skip it
            return
        self._sampling = True
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # the kernel's garbage must not start a collection of the library's heap
        try:
            k0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - k0)
        finally:
            if enabled:
                gc.enable()
            self.busy += time.perf_counter() - t0
            self._sampling = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        """Mark the start of an op; the kernel was sampled last just before."""
        self._sampling = True  # no alarm between reading the busy time and the clock
        mark = len(self.samples) - 1, self.busy, time.perf_counter()
        self._sampling = False
        return mark

    def end(self, mark):
        """Samples the kernel once more; returns (wall, reference) seconds
        of the op begun at mark."""
        self._sampling = True
        t1 = time.perf_counter()
        first, busy, t0 = mark
        wall = t1 - t0 - (self.busy - busy)
        self._sampling = False
        self.sample()
        return wall, wall * REF_KERNEL_S / statistics.fmean(self.samples[first:])
