"""A reference clock that states measured times at a nominal machine speed.

The benchmark runs on shared machines whose speed changes by a third or
more for seconds to minutes at a time, as other tenants load the host.
Raw wall times then spread more between runs than the bounds allow.  The
clock times a fixed reference loop, built from the same kinds of numpy
calls on small arrays that treecrf makes, between the timed samples.  A
sample's machine speed is the median reference rate around it divided by
``REF_HZ``; a time divided by that speed (or a rate multiplied by it) is
what the sample would have taken on a machine that runs the loop
``REF_HZ`` times a second.  The loop does not call treecrf, so no change
to the program can change it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Reference passes per second of the unloaded 2-core x86-64 virtual machine
# the baseline was measured on.  Elsewhere a reference second is not a
# wall-clock second; figures compare between commits on one machine only.
REF_HZ = 500.0
# Seconds around a sample whose reference passes describe its machine speed.
NEAR_S = 0.25
# Least seconds between two reference passes that are not forced.
EVERY_S = 0.1

_REF_WIDE = np.random.default_rng(0).standard_normal((40, 40, 8))
_REF_NARROW = np.random.default_rng(1).standard_normal((13, 13, 4))


def reference_pass() -> float:
    """Width-by-width log-sum-exp over a fixed chart, once wide and once as
    many narrow passes, where per-call overhead dominates."""
    total = 0.0
    for w in range(1, 40):
        x = _REF_WIDE[: 41 - w, :w, :]
        m = x.max(axis=1, keepdims=True)
        total += float(np.log(np.exp(x - m).sum(axis=1)).sum())
    for _ in range(6):
        for w in range(1, 14):
            i = np.arange(14 - w)
            x = _REF_NARROW[i, i + w - 1, :]
            m = x.max(axis=1, keepdims=True)
            total += float(np.log(np.exp(x - m).sum(axis=1)).sum())
    return total


class ReferenceClock:
    """Reference passes taken at most every ``EVERY_S`` seconds, with times."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each pass
        self.rates: list[float] = []  # passes per second
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Take a reference pass if one is due, or at once with ``force``."""
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        start = time.perf_counter()
        reference_pass()
        self._last = time.perf_counter()
        self.times.append((start + self._last) / 2)
        self.rates.append(1.0 / (self._last - start))

    def speed(self, start: float, end: float) -> float:
        """Machine speed over ``[start, end]`` relative to ``REF_HZ``."""
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        near = self.rates[lo:hi]
        if not near:  # no pass close by: take the nearest one
            i = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
            near = [self.rates[i]]
        return statistics.median(near) / REF_HZ
