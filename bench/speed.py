"""Machine-speed normalisation of the benchmark's timings.

On a shared machine the CPU speed one process gets drifts by up to 2x over
tens of seconds, and CPU time drifts with it, so raw wall-clock rates spread
between runs by more than any useful regression bound. The benchmark
therefore also times a fixed reference computation -- the rank-1 matmul loop
at the workload's dominant operand shape -- while the workload runs, and
scales each time to the speed at which that computation takes `ref_s`.
The reference computation is the benchmark's own code, so a change to plstm
cannot change it.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2  # wall time between probes while sampling


class Speedometer:
    """Times the reference computation on demand, or every INTERVAL_S from
    a SIGALRM handler, which runs in the main thread between bytecodes."""

    def __init__(self, shape, reps: int, ref_s: float):
        m, k, n = shape
        self._a = np.full((m, k), 0.5)
        self._b = np.full((k, n), 0.25)
        self.reps = reps
        self.ref_s = ref_s
        self.samples = []  # durations of the probes taken while sampling
        self.busy = 0.0  # wall time spent in the alarm handler

    def probe(self) -> float:
        """Seconds the reference computation takes now."""
        a, b = self._a, self._b
        t0 = perf_counter()
        for _ in range(self.reps):
            out = np.zeros((a.shape[0], b.shape[1]))
            for k in range(a.shape[1]):
                out += a[:, k : k + 1] * b[k : k + 1, :]
        return perf_counter() - t0

    def reading(self, n: int = 5) -> float:
        return statistics.median(self.probe() for _ in range(n))

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(self.probe())
        self.busy += perf_counter() - t0

    def now(self) -> float:
        """Wall clock minus the time spent probing."""
        while True:
            busy = self.busy
            t = perf_counter()
            if busy == self.busy:  # no probe ran in between
                return t - busy

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
