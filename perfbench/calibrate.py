"""A fixed reference kernel that measures the host's speed during a run.

The host is shared: its cores switch between a fast and a slow state,
about a factor of two apart, for tenths of a second to minutes at a time,
and CPU time follows wall time, so a run cannot tell a slow package from
a slow core by its own clock. The benchmark therefore runs this kernel in
short samples spread over the whole run, in between the package's calls
and outside their timings, and scales each timed interval by
``REF_S / harmonic mean`` of the samples taken during it or within
``WINDOW_S`` of it. The kernel does the kind of work the package does (an
interpreted loop over floats and attributes, then small numpy vector
operations) and never calls the package, so a change to the package moves
the scaled times and a change of the core's speed does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Scaled times read as times on a host where the kernel takes this long.
REF_S = 0.020
# Least spacing between samples taken in between the package's calls.
EVERY_S = 0.15
# Samples this close to a timed interval tell the host's speed during it.
WINDOW_S = 0.5

_M = np.array([[4.0, 1.0, 0.5, 0.0, 0.2],
               [1.0, 3.0, 0.4, 0.1, 0.0],
               [0.5, 0.4, 5.0, 0.3, 0.1],
               [0.0, 0.1, 0.3, 2.0, 0.6],
               [0.2, 0.0, 0.1, 0.6, 3.5]])


class _State:
    __slots__ = ("gain", "offset")

    def __init__(self):
        self.gain, self.offset = 0.5, 1.5


def kernel():
    """Fixed work: a clipped scalar loop, then a projected gradient."""
    st = _State()
    xs = [float(i) for i in range(64)]
    acc = 0.0
    for _ in range(330):
        for x in xs:
            acc += min(max(x * st.gain - st.offset, 0.0), 10.0)
    b = np.ones(5)
    y = np.zeros(5)
    for _ in range(1300):
        y = np.clip(y - 0.1 * (_M @ y - b), -1.0, 1.0)
    return acc + float(y.sum())


class Calibrator:
    """Kernel samples of one run, and the factors that scale its times."""

    def __init__(self, every_s=EVERY_S):
        self.every_s = every_s  # None: only explicit samples
        self.samples = []  # kernel times, in the order taken
        self.mids = []  # the perf_counter reading halfway through each
        self.spent_s = 0.0  # wall time of all samples so far
        self.last = time.perf_counter()

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.mids.append(0.5 * (t0 + t1))
        self.spent_s += t1 - t0
        self.last = t1

    def tick(self):
        """Take a sample if ``every_s`` has passed since the last one."""
        if self.every_s is not None \
                and time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def median_s(self):
        return statistics.median(self.samples)

    def factor(self, t0, t1):
        """Multiply a time measured from t0 to t1 by this to put it on the
        reference host.

        It uses the samples within ``WINDOW_S`` of the interval, or the two
        nearest when there are fewer. Their harmonic mean is the kernel's
        time at the host's average speed over them.
        """
        mids = np.asarray(self.mids)
        lo = np.searchsorted(mids, t0 - WINDOW_S)
        hi = np.searchsorted(mids, t1 + WINDOW_S, side="right")
        if hi - lo >= 2:
            near = np.arange(lo, hi)
        else:
            near = np.argsort(np.abs(mids - 0.5 * (t0 + t1)))[:2]
        return REF_S * float(np.mean(1.0 / np.asarray(self.samples)[near]))
