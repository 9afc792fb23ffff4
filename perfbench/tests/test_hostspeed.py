"""Checks on the host-speed samples that scale the end-to-end times.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import signal
import time

import pytest

from hostspeed import REFERENCE_S, HostSpeed


def _with_samples(spans, threads=1) -> HostSpeed:
    speed = HostSpeed(threads)
    speed.tics = [a for a, _ in spans]
    speed.tocs = [b for _, b in spans]
    return speed


def test_raw_leaves_out_the_time_spent_sampling():
    speed = _with_samples([(0.0, 1.0), (5.0, 6.0), (10.0, 11.0)])
    assert speed.raw(2.0, 4.0) == 2.0
    assert speed.raw(2.0, 8.0) == 5.0  # the sample 5..6 lies inside
    assert speed.raw(5.5, 7.0) == 1.0  # half a sample at the start


def test_scaled_uses_the_samples_inside_and_on_either_side():
    speed = _with_samples([(0.0, 0.01), (1.0, 1.03), (2.0, 2.02), (9.0, 9.5)])
    # 1.5..1.8 lies between the samples of 0.03 s and 0.02 s
    assert speed.scaled(1.5, 1.8) == pytest.approx(0.3 * REFERENCE_S[1] / 0.025)
    # 0.5..1.5 holds the one of 0.03 s and has 0.01 s and 0.02 s around it
    assert speed.scaled(0.5, 1.5) == pytest.approx(
        (1.0 - 0.03) * REFERENCE_S[1] / 0.02)
    assert _with_samples([(0.0, 0.07)], threads=2).scaled(1.0, 2.0) == (
        pytest.approx(REFERENCE_S[2] / 0.07))


def test_the_timer_samples_inside_a_long_item_and_is_taken_down():
    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed(1, every_s=0.05)
    speed.start()
    tic = time.perf_counter()
    while time.perf_counter() - tic < 0.5:  # one item with no boundary in it
        pass
    toc = time.perf_counter()
    speed.stop()
    inside = [a for a in speed.tics if tic < a < toc]
    assert len(inside) >= 3
    assert speed.raw(tic, toc) < toc - tic
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_threaded_workloads_sample_at_item_boundaries_only():
    speed = HostSpeed(2, every_s=3600.0)
    speed.start()
    taken = len(speed.samples)
    speed.tick()  # not due
    assert len(speed.samples) == taken
    speed.every_s = 0.0
    speed.tick()
    assert len(speed.samples) == taken + 1
    speed.stop()
    speed.tick()  # stopped
    assert len(speed.samples) == taken + 2  # the one stop() takes
