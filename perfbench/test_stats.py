"""Tests for the benchmark's statistics code.

Run with ``python3 -m pytest perfbench/test_stats.py`` from the root of the
checkout.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from loadgen import Records  # noqa: E402
from stats import self_time, supported_percentile  # noqa: E402


# ----------------------------------------------------------------------
# The highest percentile with >= 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),     # exactly 10 beyond p99
    (999, 95.0),      # 9.99 beyond p99: not enough
    (10000, 99.9),
    (200, 95.0),
    (199, 90.0),
    (100, 90.0),
    (20, 50.0),
    (19, None),
    (0, None),
])
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_respects_candidates():
    assert supported_percentile(5000, candidates=(95.0, 90.0)) == 95.0
    assert supported_percentile(50, candidates=(99.0, 95.0, 90.0)) is None


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_child_layers():
    # quad-opt h=10: 1.29 s build, of which split, noise and OLS take 0.53 s.
    assert self_time(1.29, [0.30, 0.13, 0.10]) == pytest.approx(0.76)
    assert self_time(0.5, []) == 0.5


def test_self_time_clamps_at_zero():
    assert self_time(0.1, [0.1000001]) == 0.0


# ----------------------------------------------------------------------
# Load generation: closed-loop latency and throughput (max_rps)
# ----------------------------------------------------------------------
def test_latency_and_throughput_of_a_closed_loop():
    sent = np.array([0.0, 0.5, 1.0, 1.5])
    done = np.array([0.5, 1.0, 1.5, 2.0])
    rec = Records(sent=sent, done=done, status=np.full(4, 200))
    assert rec.latency() == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert rec.throughput() == pytest.approx(2.0)
