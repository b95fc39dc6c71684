"""Machine-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half, in phases from a second to a minute long (a fixed loop took
21 ms in one phase and 34 ms in the next).  A raw time then measures the
phases the run landed in.  So while a timed region runs, a SIGALRM handler
samples the machine's speed every ``INTERVAL_S`` of wall time, in the same
thread, and the region is reported at the reference speed:

    reported = (measured - time spent in the handler) / slowdown

A sample times two fixed loops of the benchmark's own, which import nothing
from azarin, so a change to the program cannot move them:

* ``python_loop``: Gauss-Kronrod-sized numpy batches behind Python calls and
  scalar float arithmetic, the overhead-bound kind of work;
* ``vector_loop``: transcendentals over 8192-element arrays, the
  arithmetic-bound kind (the log-singular transform, the zero scan).

The phases do not slow the two kinds alike, so the slowdown mixes them by
the workload's ``python_share`` (the share of its pass in overhead-bound
code at the seed commit):

    slowdown = share * python / PYTHON_REF_S + (1 - share) * vector / VECTOR_REF_S

where each loop time is the mean of its samples after dropping the fastest
and the slowest tenth (a sample the scheduler preempted can read fifty
times too long; one in a hundred would move a plain mean by half).  Each
loop runs twice per sample and the second run is timed: the first refills
the caches the program evicted, so the sample measures the machine and not
the program's memory footprint.  The normalisation is unbiased whatever the
share, since the loops do not depend on the program; a share that misfits
the program only cancels less of the machine's drift.  The raw times are
kept in the run record.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PYTHON_REF_S = 0.00053   # seconds python_loop() takes at the reference speed
VECTOR_REF_S = 0.000147  # seconds vector_loop() takes at the reference speed
INTERVAL_S = 0.05        # wall time between two samples while a region is timed
TRIM = 0.1               # share of samples dropped at each end before averaging
SETUP_SAMPLES = 20       # samples right after the set-up, which starts before numpy loads

_NODES = np.linspace(-1.0, 1.0, 21)
_WEIGHTS = np.full(21, 2.0 / 21)
_LONG = np.linspace(1e-3, 50.0, 8192)


def python_loop():
    total = 0.0
    for i in range(48):
        k = 1.0 + 1e-3 * i
        x = 0.5 * _NODES + (0.5 + k)
        total += float(np.dot(_WEIGHTS, np.exp(-x * k) * np.cos(x + k)))
        for j in range(40):
            total += math.sqrt(j + k) * 1e-3
    return total


def vector_loop():
    total = 0.0
    for i in range(4):
        total += float(np.log1p(_LONG * (1.0 + 1e-3 * i)).sum() + np.exp(-_LONG).dot(_LONG))
    return total


def _warm_time(loop):
    loop()
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def trimmed_mean(values, trim=TRIM):
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Timed:
    """Times a region while sampling machine speed; use as
    ``with Timed(python_share) as t:``.

    After the block, ``t.raw_s`` is the wall time minus the samples' time,
    ``t.python_loops`` and ``t.vector_loops`` the loop times sampled,
    ``t.slowdown`` the machine's slowdown against the reference, and
    ``t.seconds`` the region at the reference speed.
    """

    def __init__(self, python_share=1.0):
        self.python_share = python_share

    def __enter__(self):
        self.python_loops = []
        self.vector_loops = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._tick()  # a short region still gets one sample
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, *_):
        start = time.perf_counter()
        self.python_loops.append(_warm_time(python_loop))
        self.vector_loops.append(_warm_time(vector_loop))
        self._spent += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = time.perf_counter() - self._start - self._spent
        share = self.python_share
        self.slowdown = (share * trimmed_mean(self.python_loops) / PYTHON_REF_S
                         + (1.0 - share) * trimmed_mean(self.vector_loops) / VECTOR_REF_S)
        self.seconds = self.raw_s / self.slowdown
        return False


def after(raw_s, samples=SETUP_SAMPLES):
    """``raw_s`` just measured, at the speed of ``python_loop`` sampled right
    after it.  For the set-up (imports and Python object construction),
    which is short and starts before numpy is imported.

    Returns (seconds at the reference speed, loop times sampled).
    """
    loops = [_warm_time(python_loop) for _ in range(samples)]
    return raw_s * PYTHON_REF_S / statistics.median(loops), loops
