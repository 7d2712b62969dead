"""Host-speed sampler: the yardstick that turns wall time into op_s.

The benchmark runs on a small share of a busy host whose speed swings by up
to 2x over seconds to minutes, and a workload's wall time swings with it.  A
timer signal interrupts the process doing the work every ``INTERVAL_S`` and
times one fixed chunk of work (pure-Python arithmetic and small numpy array
operations, the mix the package's hot loops are made of) on the same CPU, in
the same process, while the operation runs.  The operation's wall time,
scaled by ``NOMINAL_CHUNK_S`` over the mean chunk time seen during it, is its
length on a host of fixed speed: when the host slows, the wall time and the
chunk time grow together and the ratio stays put, while a change that makes
the program faster shortens the wall time and leaves the chunk alone.  The
chunk runs once unmeasured before it is timed, so the program's own cache
state does not show in it.  Sampling costs under 1 % of an operation.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# The timed chunk's length on an unloaded 2-vCPU x86-64 host (Xeon, 2 GHz
# class), so that op_s comes out near the wall time there.
NOMINAL_CHUNK_S = 50e-6

_A = np.linspace(0.0, 1.0, 48)


def _chunk():
    x = 0
    for i in range(150):
        x += i * i
    for _ in range(2):
        x += float(np.sum(np.exp(1j * _A)[:, None] * np.exp(-1j * _A)[None, :]).real)
    return x


class Sampler:
    """Context manager that times the chunk on every SIGALRM while it is
    entered.  ``samples`` holds the chunk times since the last ``reset()``."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _on_alarm(self, _signum, _frame):
        _chunk()
        t0 = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - t0)

    def reset(self):
        self.samples = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def chunk_time(samples):
    """Mean chunk time of an interval, or None without samples."""
    return statistics.fmean(samples) if samples else None


def normalise(wall_s, chunk_s):
    """Wall time on the fixed-speed host; the wall time itself when the
    interval was too short to be sampled."""
    return wall_s if not chunk_s else wall_s * NOMINAL_CHUNK_S / chunk_s
