"""Scaling job times to the reference speed."""

import pytest

import speed
from speed import CAL_REF_S


def test_samples_inside_a_job_are_left_out_and_the_rest_is_scaled():
    # the machine runs at half the reference speed: calibration takes twice as long
    cal = 2 * CAL_REF_S
    samples = [(0.1 * i, 0.1 * i + cal) for i in range(20)]
    job = (0.55, 1.45)  # holds the samples that start at 0.6 .. 1.4
    inside = 9 * cal
    assert speed.scaled_times([job], samples) == pytest.approx([(0.9 - inside) / 2])


def test_a_job_takes_the_speed_of_the_samples_near_it():
    slow, fast = 2 * CAL_REF_S, CAL_REF_S / 2
    samples = [(0.05 * i, 0.05 * i + (slow if i < 100 else fast)) for i in range(200)]
    early, late = (1.011, 1.012), (8.011, 8.012)
    assert speed.scaled_times([early, late], samples) == pytest.approx([0.0005, 0.002])


def test_probe_samples_while_the_process_runs():
    probe = speed.Probe(interval_s=0.005)
    probe.start()
    t_end = speed.now() + 0.2
    while speed.now() < t_end:
        pass
    probe.stop()
    assert len(probe.samples) >= 5
    assert all(s < e for s, e in probe.samples)
