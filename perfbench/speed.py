"""Machine-speed probe: short fixed spins timed during every CLI call.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x, in phases from seconds to minutes, for the package and for any other
code alike.  Raw wall times then spread more between runs than any bound
worth having.  So while a timed call runs, a ``SIGALRM`` handler times a
fixed spin every ``INTERVAL_S`` of wall time, in the same process and on
the same CPU as the call.  The call's wall time, less the time spent in the
spins, is divided by the median spin time and scaled back to seconds at the
spin's nominal time ``NOMINAL_S``.  Drift that slows the call and the spin
alike cancels; a change to the package does not touch the spin.

Drift does not slow every kind of code by the same factor, so the spin has
two parts, timed apart: a pure-Python loop, which tracks interpreter-bound
calls (the CSV paths), and a numpy sort, which tracks numpy-bound calls
(the index and the estimators).  Each workload names the part it is
normalized by; both are kept in the run record.

The handler runs between Python bytecodes, so a long numpy call delays a
sample but is not cut short.  One spin is also timed just before and one
just after each call, so every call has at least two samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KINDS = ("python", "numpy")
# Each part's time on a quiet 2-vCPU Xeon (2.1 GHz) VM; they only scale the
# reported figures, which are compared run against run on one machine.
NOMINAL_S = {"python": 0.0005, "numpy": 0.0004}
INTERVAL_S = 0.1
PYTHON_ROUNDS = 6000
_SORT_INPUT = np.random.default_rng(0).random(40_000)


def spin(clock=time.perf_counter) -> tuple:
    """Run the fixed spin once; return the wall time of each part, as KINDS."""
    t0 = clock()
    x = 0
    for i in range(PYTHON_ROUNDS):
        x += i * i % 7
    t1 = clock()
    np.sort(_SORT_INPUT)
    t2 = clock()
    return t1 - t0, t2 - t1


class SpeedProbe:
    """Context manager sampling the spin around and during a block of code."""

    def __init__(self, spin=spin, interval: float = INTERVAL_S):
        self.spin = spin
        self.interval = interval
        self.samples: list[tuple] = []
        self.in_block_s = 0.0  # time spent in spins inside the block

    def _handler(self, signum, frame) -> None:
        t = self.spin()
        self.samples.append(t)
        self.in_block_s += sum(t)

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(self.spin())
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self.spin())

    def medians(self) -> dict:
        """Median time of each spin part over the samples."""
        return {k: statistics.median(s[i] for s in self.samples) for i, k in enumerate(KINDS)}

    def normalized(self, wall: float, kind: str) -> float:
        """``wall`` of the block, less the spins in it, at nominal speed."""
        return normalized(wall - self.in_block_s, self.medians()[kind], kind)


def normalized(wall: float, spin_s: float, kind: str) -> float:
    """``wall`` in seconds at nominal speed, given the measured time of one
    spin part."""
    return wall * NOMINAL_S[kind] / spin_s
