"""Host-speed probe: reports an operation's time at a fixed reference speed.

Each vCPU of the machine the benchmark was built on changes speed by up to
1.5x every few seconds, independently of the other vCPU and of the program
(NOTES.md, "Machine").  Raw wall times then depend mostly on when a run
happened.  While a timed pass runs, a SIGALRM interval timer makes the main
thread time one fixed pure-Python loop every ``INTERVAL_S``: pseudo-random
reads from a 512 KiB buffer.  The process stays single-threaded, because
the handler runs between bytecodes.

An operation's reported time is its wall time minus the time spent in the
handler, scaled by the mean of ``REF_LOOP_S / loop time`` over the probes
taken during it and just around it.  That is the time it would have taken
on a host that runs the loop in ``REF_LOOP_S``; a change to the program
moves it, a change in the host's speed does not.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.01
LOOP_ITERATIONS = 600
BUF_BYTES = 1 << 19
# about the median loop time on the machine the benchmark was built on
REF_LOOP_S = 200e-6
# probes this long before and after an operation also describe its speed
PAD_S = 3 * INTERVAL_S


def _loop(buf: bytes) -> int:
    # reads that miss the first-level caches track the program's slowdowns
    # better than pure arithmetic does (NOTES.md, "Host-speed normalization")
    s = j = 0
    mask = len(buf) - 1
    for _ in range(LOOP_ITERATIONS):
        j = (j * 1103515245 + 12345) & mask  # full-period LCG over the buffer
        s += buf[j]
    return s


class SpeedProbe:
    """Probe start times, loop times and handler end times, in time order."""

    def __init__(self) -> None:
        self.start = array("d")
        self.loop = array("d")
        self.end = array("d")
        self._buf = bytes(range(256)) * (BUF_BYTES // 256)

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop(self._buf)
        t1 = time.perf_counter()
        self.start.append(t0)
        self.loop.append(t1 - t0)
        self.end.append(time.perf_counter())

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran between ``t0`` and ``t1``."""
        i, j = bisect_left(self.start, t0), bisect_left(self.start, t1)
        return sum(self.end[k] - self.start[k] for k in range(i, j))

    def speed(self, t0: float, t1: float) -> float:
        """Mean of ``REF_LOOP_S / loop time`` over the probes around ``[t0, t1]``."""
        lo = bisect_left(self.start, t0 - PAD_S)
        hi = bisect_right(self.start, t1 + PAD_S)
        if lo == hi:  # no probe that close: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.start))
        return sum(REF_LOOP_S / self.loop[k] for k in range(lo, hi)) / (hi - lo)

    def normalize(self, t0: float, t1: float) -> float:
        """Time of the operation run from ``t0`` to ``t1``, at the reference speed."""
        return (t1 - t0 - self.busy(t0, t1)) * self.speed(t0, t1)
