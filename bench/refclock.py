"""Reference clock: scales measured times to one fixed machine speed.

On a shared machine the speed of a core drifts by tens of percent within
seconds and from one minute to the next, which would swamp any change to
symplie.  A fixed piece of exact arithmetic, written here and never taken from
symplie so that no change to the package moves it, is timed between the
measured intervals and, on a timer signal, every ``Sampler.interval`` seconds
during them.  Each interval is then reported in reference seconds: its length
times ``NOMINAL_S`` over the median of the readings taken around and during
it, i.e. the time it would have taken on a machine where one reference unit
lasts ``NOMINAL_S``.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.001

_N = 4
_M = tuple(tuple(Fraction(a + 1, b + 2) for b in range(_N)) for a in range(_N))
_T = tuple(tuple(tuple(Fraction(a - b, c + 1) for c in range(_N)) for b in range(_N))
           for a in range(_N))


def _unit():
    """A matrix applied to the first leg of a rank-3 tensor over Fraction."""
    rng = range(_N)
    return tuple(tuple(tuple(sum((_M[a][p] * _T[p][b][c] for p in rng), Fraction(0))
                             for c in rng) for b in rng) for a in rng)


def sample(runs=3):
    """Seconds for one reference unit: the fastest of ``runs`` runs (the
    first warms the caches), with the cyclic collector held off so that
    garbage left by the measured code is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            _unit()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(readings):
    """Reference seconds per measured second, from readings taken around
    the measured interval."""
    return NOMINAL_S / statistics.median(readings)


class Sampler:
    """While active, reads the reference clock on SIGALRM every ``interval``
    seconds, so that a long interval is scaled by readings taken during it.
    ``clock`` is ``time.perf_counter`` less the time spent in those readings,
    which are thus never charged to the measured code."""

    def __init__(self, interval=0.05):
        self.interval = interval
        self.readings = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(sample(runs=2))
        self.spent += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self.spent

    def read(self):
        """Take a reading now, between measured intervals."""
        self.readings.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
