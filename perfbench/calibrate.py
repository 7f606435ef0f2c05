"""Fixed reference computation that gauges the machine's current speed.

On a shared host the speed of one core changes by a third for minutes at a
time, and by more for seconds, as other guests load the host; the process's
CPU time grows with it just as wall time does.  So while a pass runs its
jobs, a CPU-time timer interrupts it every ``PERIOD_S`` CPU seconds of
program work and runs this computation once, and the pass reports its times
scaled to a machine on which one ``reference()`` call takes ``NOMINAL_S``
CPU seconds:

    scaled time = program CPU time * NOMINAL_S / (mean CPU time of a call)

The calls are spread through the jobs, so they see the same changes of
speed as the work they scale.  Program CPU time is the CPU time of the
(only) thread minus the time spent in the calls.  It is read from the
thread's clock because, while a process-wide CPU timer is armed, the kernel
advances the process's clock only at scheduler ticks.

The reference is pure Python and does not use ``hyperoct``, so a change to
the program cannot change it.  It mixes the kinds of work the benchmarked
jobs do: sparse elimination over dictionaries of integers (modulo a
word-size prime, so the numbers stay the same size on every call),
interpreter arithmetic, and reads of Python objects scattered over more
memory than a core's own cache holds.  Without that last part the jobs,
whose data spans tens of megabytes, slow down about a quarter more than the
reference when the host is busy.  Those objects stay resident;
``FOOTPRINT_KB``, the growth of the peak resident set while they are built,
is what a pass subtracts from its own peak.
"""
from __future__ import annotations

import random
import resource
import signal
import time

NOMINAL_S = 0.035
PERIOD_S = 0.15
P = 2147483647
ROWS, COLS, DENSITY = 85, 105, 0.05
LOOP = 50_000
SCATTER = 40_000            # objects read twice per call, about 5 MB
EXPECTED = (85, 2_500_050_001, 4_879_880_000)   # checked on every call


def _matrix():
    rng = random.Random(7)
    return [{i: rng.choice((-2, -1, 1, 1, 2, 3)) for i in range(ROWS)
             if rng.random() < DENSITY} for _ in range(COLS)]


def _scattered():
    """Pairs allocated in order, then read in a shuffled order."""
    pairs = [(i, 3 * i + 1000) for i in range(SCATTER)]
    random.Random(11).shuffle(pairs)
    return pairs


_MATRIX = _matrix()
_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_SCATTERED = _scattered()
FOOTPRINT_KB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - _rss


def reference():
    """One call of the fixed computation; returns its three sums."""
    pivots = {}
    for column in _MATRIX:
        col = {k: v % P for k, v in column.items()}
        while col:
            r = max(col)
            if r not in pivots:
                inv = pow(col[r], P - 2, P)
                pivots[r] = {k: v * inv % P for k, v in col.items()}
                break
            b = col[r]
            for k, v in pivots[r].items():
                x = (col.get(k, 0) - v * b) % P
                if x:
                    col[k] = x
                else:
                    col.pop(k, None)
    s = 0
    for i in range(LOOP):
        s += i * i % 7 * i
    t = 0
    for _ in range(2):
        for pair in _SCATTERED:
            t += pair[1]
    return len(pivots), s % 10**13, t


class Gauge:
    """Reference calls made in one process, and the CPU time they took."""

    def __init__(self):
        self.calls = []
        self.total = 0.0
        self._ticking = False

    def run(self):
        c = time.thread_time()
        got = reference()
        took = time.thread_time() - c
        self.calls.append(took)
        self.total += took
        if got != EXPECTED:
            raise RuntimeError(f"reference computed {got}, not {EXPECTED}")

    def program_time(self):
        """CPU time of the thread, less the time of the reference calls."""
        while True:   # a call may run between the two reads; then retry
            total = self.total
            now = time.thread_time()
            if self.total == total:
                return now - total

    def scale(self):
        """Factor from program CPU seconds to scaled seconds."""
        return NOMINAL_S * len(self.calls) / self.total

    # The timer is one-shot and re-armed after each call, so a call never
    # interrupts another one.
    def start(self):
        self._ticking = True
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)

    def stop(self):
        self._ticking = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _tick(self, signum, frame):
        if self._ticking:
            self.run()
            signal.setitimer(signal.ITIMER_PROF, PERIOD_S)
