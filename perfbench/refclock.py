"""A clock that reads seconds at a fixed reference speed of the machine.

The benchmark runs on vCPUs whose speed drifts with load from outside
the machine, by as much as 1.5x over a minute. A timed phase of a few
seconds therefore reads a different wall time in each stretch, for the
same work. ``RefClock`` takes that drift out: a SIGALRM timer stops the
program every ``INTERVAL_S`` seconds, between two bytecodes of the main
thread, and times a fixed calibration loop. Each stretch of program time
between two such samples is rescaled by ``CAL_REF_S`` over the calibration
time at its start. So a stretch that ran while the vCPU was 1.4x slow
counts 1/1.4 of its wall time.

The calibration loop is the benchmark's own code, so a change to the
program moves the rescaled time as it would move wall time at a steady
speed. Calibration time is kept out of both readings.
"""

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.05
# Calibration loop time at the reference speed: a round figure near the
# 0.46 ms median of calibrate() on a 2-vCPU Intel Xeon VM at 2.1 GHz with
# Python 3.11.7. Any fixed value works; it only sets the unit.
CAL_REF_S = 0.0005
CAL_REPEATS = 3


def _calibration_loop():
    """Small ints, tuples, frozensets and dict lookups: the mix of the program."""
    acc = 0
    seen = {}
    block = frozenset(range(8))
    for i in range(500):
        x = (i * 2654435761) & 31
        part = frozenset((x, x ^ 5, x ^ 9))
        rest = block - part
        acc ^= len(rest) + min(part)
        key = (x, len(rest))
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


def calibrate():
    """Best of a few calibration loops, in seconds."""
    best = None
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        _calibration_loop()
        took = perf_counter() - start
        if best is None or took < best:
            best = took
    return best


class RefClock:
    """Raw and rescaled seconds of program time since ``start``.

    ``read`` gives ``(raw_s, ref_s)``; both leave out the time spent in
    calibration. Each stretch is rescaled by the sample taken at its start.
    ``to_ref`` turns a ``perf_counter()`` reading taken while the clock ran
    into reference seconds, so spans can be timed with the bare counter and
    converted afterwards. Only one clock may run in a process, since it
    owns SIGALRM.
    """

    def __init__(self):
        self.raw = 0.0
        self.ref = 0.0
        self.samples = 0
        self.rate = None  # reference seconds per raw second in the open stretch
        self.mark = None  # perf_counter() at the start of the open stretch
        self._busy = False
        self.marks = []  # start of each stretch, and its (ref_s there, rate)
        self.stretches = []

    def start(self):
        self.rate = CAL_REF_S / calibrate()
        self.mark = perf_counter()
        self._log()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and close the open stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _tick(self, *_):
        if self._busy:  # a sample that ran past the next alarm
            return
        self._busy = True
        try:
            stretch = perf_counter() - self.mark
            self.raw += stretch
            self.ref += stretch * self.rate
            self.rate = CAL_REF_S / calibrate()
            self.mark = perf_counter()
            self.samples += 1
            self._log()
        finally:
            self._busy = False

    def _log(self):
        self.marks.append(self.mark)
        self.stretches.append((self.ref, self.rate))

    # The alarm may land between any two bytecodes of a reader, so a reader
    # retries when a sample came in while it read (a sequence lock).

    def read(self):
        while True:
            seen = self.samples
            stretch = perf_counter() - self.mark
            raw, ref = self.raw + stretch, self.ref + stretch * self.rate
            if seen == self.samples:
                return raw, ref

    def to_ref(self, t):
        i = max(bisect.bisect_right(self.marks, t) - 1, 0)
        ref, rate = self.stretches[i]
        return ref + max(t - self.marks[i], 0.0) * rate
