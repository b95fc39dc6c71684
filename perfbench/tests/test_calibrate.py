"""Speed calibration: samples are taken, excluded from the region, and undone."""

import signal
import time

import pytest

import calibrate


def test_timed_samples_the_region_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Timed(0.25) as timed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample on entry, then one per INTERVAL_S of wall time
    assert len(timed.python_loops) == len(timed.vector_loops) >= 0.3 / calibrate.INTERVAL_S - 1
    # the samples' own time is taken out of the region
    assert timed.raw_s < 0.3 - sum(timed.python_loops) - sum(timed.vector_loops)
    slowdown = (0.25 * calibrate.trimmed_mean(timed.python_loops) / calibrate.PYTHON_REF_S
                + 0.75 * calibrate.trimmed_mean(timed.vector_loops) / calibrate.VECTOR_REF_S)
    assert timed.seconds == pytest.approx(timed.raw_s / slowdown, rel=1e-12)


def test_trimmed_mean_ignores_a_preempted_sample():
    loops = [1e-3] * 19 + [5e-2]
    assert abs(calibrate.trimmed_mean(loops) - 1e-3) < 1e-12


def test_after_scales_by_the_median_sample():
    seconds, loops = calibrate.after(2.0, samples=5)
    assert len(loops) == 5
    assert seconds == 2.0 * calibrate.PYTHON_REF_S / sorted(loops)[2]
