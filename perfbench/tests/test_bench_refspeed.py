"""Scaling a run's times by the reference kernel."""

import time

import pytest

import refspeed
import run
from refspeed import REF_S, SAMPLE_EVERY_S, Speed
from workloads import Case, Outcome


def test_factor_is_ref_s_over_the_mean_kernel_time_or_its_square_root():
    sampled_within, between_only = Speed(inside=True), Speed(inside=False)
    sampled_within.times = between_only.times = [REF_S, 2 * REF_S, 6 * REF_S]
    assert sampled_within.factor() == pytest.approx(1 / 3)
    assert between_only.factor() == pytest.approx(3 ** -0.5)


def wait(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return Outcome([])


def test_kernel_runs_within_a_case_are_taken_out_of_its_times():
    refspeed.kernel()
    speed = Speed(inside=True)
    wall, cpu, outcome = run.run_case(Case("wait"), lambda c: wait(2.5 * SAMPLE_EVERY_S), speed)
    assert len(speed.times) == 2
    assert speed.stolen_wall == pytest.approx(sum(speed.times))
    # the case waits 2.5 periods of wall time, kernel runs included
    assert wall == pytest.approx(2.5 * SAMPLE_EVERY_S - speed.stolen_wall, abs=0.05)
    assert outcome.failures == []


def test_no_kernel_runs_within_a_case_without_inside():
    speed = Speed(inside=False)
    run.run_case(Case("wait"), lambda c: wait(1.5 * SAMPLE_EVERY_S), speed)
    assert speed.times == [] and speed.stolen_wall == 0

