"""Host-speed readings, so that times can be given in units of a fixed loop.

The host is shared and its speed swings by up to 2x within a second
and over minutes.  A fixed pure-Python loop of 0.5-1 ms is
timed around and during each measured stretch; the stretch is reported
in units of the mean loop time.  Imports nothing from mutdyn.
"""
import math
import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.03
EDGE_LOOPS = 4


def probe_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of 0.5-1 ms."""
    t0 = perf_counter()
    acc = 0.0
    memo = {}
    for i in range(1500):
        x = i * 0.5
        acc += math.sqrt(x) if x > 1.0 else x
        memo[i & 255] = repr(x)
    return perf_counter() - t0


class SpeedProbe:
    """Readings of host speed taken around and during one stretch of work.

    The loop runs a few times on entry and on exit, and every 30 ms in
    between from an interval-timer signal; ``inside`` is the time those
    in-between readings took, to be taken out of the stretch's time.
    """

    def __init__(self):
        self.readings = []
        self.inside = 0.0
        self._old = None

    def edge(self) -> None:
        self.readings.extend(probe_loop() for _ in range(EDGE_LOOPS))

    def _tick(self, signum, frame):
        dt = probe_loop()
        self.readings.append(dt)
        self.inside += dt

    def __enter__(self):
        self.edge()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.edge()

    def units(self, seconds: float) -> float:
        """Busy seconds in units of the mean probe reading."""
        return seconds / statistics.fmean(self.readings)
