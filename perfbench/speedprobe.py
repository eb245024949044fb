"""A machine-speed probe that runs inside the measured process.

On a shared machine the speed of a CPU changes by a third or more within
seconds, as other tenants compete for the core and for the shared caches.
Random reads from a table larger than the private caches see the cache
contention; an arithmetic loop sees contention for the core.  While a
workload runs, ``SpeedProbe`` interrupts it every ``PERIOD_S`` with a timer
signal and times one pass of each, of about equal length.  ``scale`` converts
the run's time to the time it would take on a reference machine whose probe
takes ``REFERENCE_S``; the probe costs about 5% of the run.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

TABLE_SIZE = 1 << 18  # 2 MB of pointers to about 7 MB of int objects
READS = 4000
STEPS = 15000  # arithmetic steps, about as long as READS reads
PERIOD_S = 0.05
REFERENCE_S = 2e-3


class SpeedProbe:
    """Use as a context manager around the timed call, then read ``scale``."""

    def __init__(self) -> None:
        self._table = list(range(TABLE_SIZE))
        rng = random.Random(0)
        self._order = [rng.randrange(TABLE_SIZE) for _ in range(READS)]
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        table = self._table
        started = time.perf_counter()
        total = 0
        for i in self._order:
            total += table[i]
        for i in range(STEPS):
            total += i * i
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self.samples.clear()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """REFERENCE_S over the mean probe time (one extra probe when the
        timed call was shorter than one period)."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.mean(self.samples)
