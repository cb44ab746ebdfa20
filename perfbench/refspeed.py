"""Host speed, measured with a fixed reference kernel.

The host's speed drifts: the same computation takes up to twice as long at
one time as at another, and CPU time drifts with wall time (see
BASELINE.md).  A benchmark run therefore times a small fixed kernel between
its cases, and reports its times scaled by ``REF_S / t_ref``: the time the
run would have taken at the speed at which the kernel takes ``REF_S``
seconds.  ``t_ref`` is the mean kernel time of the run, which adds up slow
and fast moments as the program's time does.  For cases that run in this
process, the kernel also runs every ``SAMPLE_EVERY_S`` seconds within
them, so that its runs spread evenly over the time the program runs.
Cases run as child processes are sampled only between them, and are
scaled by the square root of ``REF_S / t_ref``: about half of their time
is process start and imports, which the kernel tracks poorly, and full
scaling over-corrected them (see BASELINE.md).

The kernel uses numpy and scipy only, so no change to witnesskit can move
it, and it is shaped like the projection's inner work (small Hermitian
eigen-decompositions and BFGS searches), so it slows down with the host as
the program does.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np
import scipy.optimize

# The kernel's time at the host's usual speed, in seconds.
REF_S = 0.03
# Seconds between kernel runs within a case.
SAMPLE_EVERY_S = 0.2

_MATRIX = np.linspace(-1, 1, 16).reshape(4, 4)
_MATRIX = _MATRIX + _MATRIX.T


def _rosenbrock(x):
    return float(np.sum(10 * (x[1:] - x[:-1] ** 2) ** 2) + np.sum((1 - x[:-1]) ** 2))


def kernel():
    """The fixed computation whose time measures the host's speed."""
    x = _MATRIX
    for _ in range(800):
        w, v = np.linalg.eigh(x)
        x = (v * np.tanh(w)) @ v.T + 0.1 * _MATRIX
    for n in (5, 6):
        scipy.optimize.minimize(_rosenbrock, np.zeros(n), method="BFGS")


class Speed:
    """The kernel runs of one benchmark run: when each started and how long
    it took.

    ``sample`` runs the kernel between cases.  With ``inside``, ``during``
    also runs it every SAMPLE_EVERY_S seconds within a case, from a SIGALRM
    handler, so a long case is sampled while it runs; the time of those
    runs is added up in ``stolen_wall`` and ``stolen_cpu`` for the caller
    to take out of the case's times.
    """

    def __init__(self, inside: bool):
        self.inside = inside
        self.starts = []
        self.times = []
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._busy = False

    def sample(self):
        """Time one kernel run; returns its wall and CPU time."""
        cpu, start = time.process_time(), time.perf_counter()
        kernel()
        wall = time.perf_counter() - start
        self.starts.append(start)
        self.times.append(wall)
        return wall, time.process_time() - cpu

    def _on_alarm(self, signum, frame):
        if self._busy:  # an alarm during a kernel run
            return
        self._busy = True
        try:
            wall, cpu = self.sample()
            self.stolen_wall += wall
            self.stolen_cpu += cpu
        finally:
            self._busy = False

    @contextlib.contextmanager
    def during(self):
        """Sample the kernel periodically while the body runs, if ``inside``."""
        if not self.inside:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """REF_S over the mean kernel time; its square root without ``inside``."""
        ratio = REF_S / statistics.fmean(self.times)
        return ratio if self.inside else math.sqrt(ratio)
