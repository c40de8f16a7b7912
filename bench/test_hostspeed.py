"""Tests of the host-speed correction.

Run with `python -m pytest bench/test_hostspeed.py`.
"""

import pytest

import hostspeed
from hostspeed import REFERENCE_S, WINDOW_S


def test_steady_host_scales_by_one_factor():
    refs = [(i * 0.1, 2 * REFERENCE_S) for i in range(10)]
    assert hostspeed.scale([0.05] * 10, refs) == pytest.approx([0.025] * 10)


def test_job_is_scaled_by_the_reference_timed_around_it():
    # a slow host for three jobs, then, far apart in time, one twice as fast
    refs = [(0.0, 2e-3), (0.1, 2e-3), (0.2, 2e-3), (10.0, 1e-3), (10.1, 1e-3)]
    scaled = hostspeed.scale([0.02] * 5, refs)
    assert scaled[:3] == pytest.approx([0.02 * REFERENCE_S / 2e-3] * 3)
    assert scaled[3:] == pytest.approx([0.02 * REFERENCE_S / 1e-3] * 2)


def test_job_always_counts_the_passes_right_before_and_after_it():
    refs = [(0.0, 2e-3), (10.0, 1e-3)]
    assert 10.0 > 2e-3 + 0.02 + WINDOW_S
    scaled = hostspeed.scale([0.02, 0.02], refs)
    assert scaled == pytest.approx([0.02 * REFERENCE_S / 1.5e-3, 0.02 * REFERENCE_S / 1e-3])


def test_reference_times_a_pass():
    start, seconds = hostspeed.reference()
    assert start > 0 and 0 < seconds < 1
