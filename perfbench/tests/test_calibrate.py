"""Tests of the reference gauge that scales the benchmark's times.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import calibrate  # noqa: E402
from calibrate import Gauge  # noqa: E402


def _spin(cpu_seconds):
    end = time.thread_time() + cpu_seconds
    while time.thread_time() < end:
        sum(range(1000))


def test_scale_is_nominal_over_mean_call():
    g = Gauge()
    g.run()
    g.run()
    assert g.total == pytest.approx(sum(g.calls))
    assert g.scale() == pytest.approx(
        calibrate.NOMINAL_S * 2 / sum(g.calls))


def test_timer_calls_run_during_work_and_are_not_program_time():
    g = Gauge()
    t0, p0 = time.thread_time(), g.program_time()
    g.start()
    _spin(6 * calibrate.PERIOD_S)
    g.stop()
    calls = len(g.calls)
    assert calls >= 3
    elapsed = time.thread_time() - t0
    program = g.program_time() - p0
    assert program + g.total == pytest.approx(elapsed, abs=1e-3)
    _spin(2 * calibrate.PERIOD_S)
    assert len(g.calls) == calls   # stopped: no more calls
