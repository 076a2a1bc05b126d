"""How fast the shared host is running, so timings can be put on one scale.

The 2-core VM this benchmark was built on swings between a fast and a slow
state: the same fixed work takes 1.4-2x longer for stretches of 10-40 s,
with CPU time tracking wall time, so the cause is contention on the host and
not descheduling.  Runs a few minutes apart then differ by more than any
useful regression bound.  A reference kernel of fixed numpy and Python work,
which never touches ncrep, is timed between the trials of a phase, and the
phase's timings are divided by the kernel's mean slowdown over it.  The
kernel shares nothing with ncrep, so a change to ncrep moves the scaled
numbers exactly as it moves the raw ones.
"""

import statistics
import time

import numpy as np

PROBE_EVERY = 0.1  # one kernel timing owed per this many seconds of trials
MAX_BURST = 10  # kernel timings taken at once after a long trial
KERNEL_NOMINAL_S = 1e-3  # kernel time on the fast state of the reference VM

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_LARGE = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))


def reference_kernel():
    """Small complex products and eigensolves in a Python loop, plus a few
    64 x 64 products: the mix ncrep spends its time on.  Returns its wall time."""
    start = time.perf_counter()
    x = _SMALL
    for _ in range(40):
        x = x @ x.conj().T
        x = x / np.linalg.norm(x) + _SMALL
        np.linalg.eigh(x + x.conj().T)
    for _ in range(4):
        _LARGE @ _LARGE
    return time.perf_counter() - start


class HostSpeed:
    """Kernel timings of one phase of a run, as slowdowns against KERNEL_NOMINAL_S."""

    def __init__(self):
        self.slowdowns = []
        self._last = None

    def sample(self, count=1):
        for _ in range(count):
            self.slowdowns.append(reference_kernel() / KERNEL_NOMINAL_S)
        self._last = time.perf_counter()

    def keep_up(self):
        """Take the kernel timings owed since the last ones, one per PROBE_EVERY
        seconds, so the samples spread evenly over the phase."""
        if self._last is None:
            self.sample()
            return
        owed = int((time.perf_counter() - self._last) / PROBE_EVERY)
        if owed:
            self.sample(min(owed, MAX_BURST))

    @property
    def slowdown(self):
        return statistics.fmean(self.slowdowns)
