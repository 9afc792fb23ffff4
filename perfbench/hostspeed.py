"""Host speed, sampled with a fixed kernel all through a run.

On a shared host the speed of the CPU a run gets drifts by up to a factor of
two, from one second to the next and over minutes, in about the same
proportion for fermichain's interpreter-bound stepper and its array-bound
quadrature.  A run therefore times this kernel, which uses no fermichain
code, about every ``every_s`` seconds.  An interval of the run is then
measured twice: in raw seconds (less the time spent sampling), and scaled
by ``REFERENCE_S[threads] / k``, where ``k`` is the mean kernel time over
the samples taken inside the interval and the nearest one on either side.
Scaled seconds read as seconds at the speed the host had when the
benchmark was defined.  A change to fermichain moves scaled times as it
moves raw ones; host drift, common to the interval and its samples,
cancels.

Where a workload runs on the main thread alone, samples are taken by a
``SIGALRM`` timer, so that they fall inside long items too (the gate's c3
runs for about 20 s).  Where it runs on ``threads`` worker threads, a
sample taken by the main thread would overlap their work, so samples are
taken at item boundaries by ``tick()`` instead, and the kernel runs on as
many threads at once, so that a sample sees every CPU the workload uses.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import threading
import time

import numpy as np

# about the median kernel time, by the number of threads it runs on at
# once, in benchmark runs on the 2-CPU sandbox the benchmark was defined on;
# it sets the unit of scaled seconds and nothing else
REFERENCE_S = {1: 0.009, 2: 0.020}


def kernel() -> float:
    """About 8 ms of fixed work: small-matrix RK4 steps, then array sums."""
    a = np.arange(16.0).reshape(4, 4) / 64.0 - 0.1
    y = np.ones(4) / 2.0
    for _ in range(375):  # interpreter-bound, like the Lindblad stepper
        k1 = a @ y
        k2 = a @ (y + 0.005 * k1)
        k3 = a @ (y + 0.005 * k2)
        k4 = a @ (y + 0.01 * k3)
        y = y + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    x = np.linspace(1e-3, 50.0, 1 << 15)
    acc = 0.0
    for _ in range(7):  # array-bound, like a quadrature level
        acc += float(np.sum(x / (np.exp(x - 2.0) + 1.0) * np.log1p(x)))
    return float(y.sum()) + acc


class HostSpeed:
    """Kernel timings, taken every ``every_s`` seconds while started."""

    def __init__(self, threads: int = 1, every_s: float = 0.1):
        self.threads = threads
        self.timer = threads == 1
        self.every_s = every_s
        self.tics: list = []  # perf_counter() at each sample's start and end
        self.tocs: list = []
        self.running = False
        kernel()  # warm
        self.last = time.perf_counter()

    @property
    def samples(self) -> list:
        return [b - a for a, b in zip(self.tics, self.tocs)]

    def sample(self):
        workers = [threading.Thread(target=kernel) for _ in range(self.threads - 1)]
        tic = time.perf_counter()
        for worker in workers:
            worker.start()
        kernel()
        for worker in workers:
            worker.join()
        self.last = time.perf_counter()
        self.tics.append(tic)
        self.tocs.append(self.last)

    def tick(self):
        """Sample if due; a no-op while the timer takes the samples."""
        if self.running and not self.timer and (
                time.perf_counter() - self.last >= self.every_s):
            self.sample()

    def _on_alarm(self, signum, frame):
        if self.running:  # an alarm already due when stop() ran is dropped
            self.sample()
            self._arm()  # one-shot, re-armed after the sample: samples never nest

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def start(self):
        self.running = True
        self.sample()  # so that the first interval has a sample before it
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._arm()

    def stop(self):
        self.running = False
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # so that the last interval has a sample after it

    @contextlib.contextmanager
    def paused(self):
        """No samples inside, e.g. while a set-up probe runs beside us."""
        was = self.running
        if was:
            self.stop()
        try:
            yield
        finally:
            if was:
                self.start()

    def _inside(self, a: float, b: float) -> range:
        """Indices of the samples overlapping [a, b] and the nearest on either side."""
        first = max(bisect.bisect_left(self.tocs, a) - 1, 0)
        last = min(bisect.bisect_right(self.tics, b), len(self.tics) - 1)
        return range(first, last + 1)

    def raw(self, a: float, b: float) -> float:
        """Seconds from perf_counter() a to b, less the time spent sampling."""
        sampling = sum(max(0.0, min(b, self.tocs[i]) - max(a, self.tics[i]))
                       for i in self._inside(a, b))
        return b - a - sampling

    def scaled(self, a: float, b: float) -> float:
        """raw(a, b) in seconds at the reference speed."""
        kernel_s = statistics.fmean(self.tocs[i] - self.tics[i]
                                    for i in self._inside(a, b))
        return self.raw(a, b) * REFERENCE_S[self.threads] / kernel_s
