"""Tests for the flow-level TCP download simulator."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import PiecewiseConstantTrace, constant_trace
from repro.tcp import TCPConnection
from repro.tcp.estimator import estimate_throughput
from repro.util import transfer_bytes


class TestBasics:
    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            TCPConnection(constant_trace(5.0, 10.0), rtt_s=0.0)

    def test_rejects_nonpositive_size(self):
        conn = TCPConnection(constant_trace(5.0, 10.0))
        with pytest.raises(ValueError):
            conn.download(0, 1.0)

    @pytest.mark.parametrize(
        "size, start, name",
        [
            (math.nan, 1.0, "size"),
            (math.inf, 1.0, "size"),
            (100_000, math.nan, "start"),
            (100_000, math.inf, "start"),
        ],
    )
    def test_rejects_non_finite_input(self, size, start, name):
        conn = TCPConnection(constant_trace(5.0, 100.0))
        before = dataclasses.replace(conn.state)
        with pytest.raises(ValueError, match=name):
            conn.download(size, start)
        assert conn.state == before

    def test_rejects_time_travel(self):
        conn = TCPConnection(constant_trace(5.0, 100.0))
        conn.download(100_000, 1.0)
        with pytest.raises(ValueError):
            conn.download(100_000, 0.5)

    def test_download_advances_state(self):
        conn = TCPConnection(constant_trace(5.0, 100.0))
        before = conn.state.cwnd_segments
        result = conn.download(500_000, 1.0)
        assert result.end_time_s > result.start_time_s
        assert conn.state.last_send_time_s == result.end_time_s
        assert conn.state.cwnd_segments >= before

    def test_reset_restores_initial_window(self):
        conn = TCPConnection(constant_trace(5.0, 100.0))
        conn.download(2_000_000, 1.0)
        conn.reset()
        assert conn.state.cwnd_segments == 10

    def test_duration_and_throughput_consistent(self):
        conn = TCPConnection(constant_trace(5.0, 100.0))
        r = conn.download(400_000, 1.0)
        assert r.throughput_mbps == pytest.approx(
            400_000 * 8 / 1e6 / r.duration_s
        )


class TestThroughputShape:
    """The Fig. 2(c) behaviour: throughput depends strongly on size."""

    def test_throughput_below_capacity(self):
        conn = TCPConnection(constant_trace(5.0, 1000.0))
        for size in [2_000, 50_000, 500_000, 4_000_000]:
            start = conn.state.last_send_time_s + 2.0
            r = conn.download(size, start)
            assert r.throughput_mbps <= 5.0 + 1e-9

    def test_large_chunks_approach_capacity(self):
        conn = TCPConnection(constant_trace(5.0, 10_000.0))
        r = conn.download(8_000_000, 1.0)
        assert r.throughput_mbps > 4.2

    def test_small_chunks_far_below_capacity(self):
        conn = TCPConnection(constant_trace(18.0, 1000.0))
        start = conn.state.last_send_time_s + 2.0
        r = conn.download(2_000, start)
        assert r.throughput_mbps < 1.0

    def test_download_time_at_least_ideal(self):
        conn = TCPConnection(constant_trace(6.0, 1000.0))
        size = 1_000_000
        r = conn.download(size, 1.0)
        ideal = size / transfer_bytes(6.0, 1.0)
        assert r.duration_s >= ideal - 1e-9

    def test_idle_gap_triggers_slow_start_restart(self):
        conn = TCPConnection(constant_trace(8.0, 1000.0))
        conn.download(3_000_000, 1.0)  # warms the window
        warm_cwnd = conn.state.cwnd_segments
        assert warm_cwnd > 10
        start = conn.state.last_send_time_s + 5.0
        r = conn.download(300_000, start)
        assert r.slow_start_restarted is True

    def test_back_to_back_keeps_window(self):
        conn = TCPConnection(constant_trace(8.0, 1000.0))
        r1 = conn.download(3_000_000, 1.0)
        r2 = conn.download(300_000, r1.end_time_s)
        assert r2.slow_start_restarted is False

    def test_warm_connection_faster_than_cold(self):
        warm = TCPConnection(constant_trace(8.0, 1000.0))
        warm.download(3_000_000, 1.0)
        t = warm.state.last_send_time_s
        r_warm = warm.download(200_000, t)

        cold = TCPConnection(constant_trace(8.0, 1000.0))
        cold.download(3_000_000, 1.0)
        t = cold.state.last_send_time_s + 10.0
        r_cold = cold.download(200_000, t)
        assert r_warm.duration_s < r_cold.duration_s


class TestVaryingBandwidth:
    def test_download_spanning_zero_period(self):
        trace = PiecewiseConstantTrace.from_uniform([5.0, 0.0, 5.0], 2.0)
        conn = TCPConnection(trace)
        size = transfer_bytes(5.0, 3.0)  # needs ~3 s of 5 Mbps
        r = conn.download(size, 0.0)
        # Two seconds at 5, two stalled, rest at 5 => more than 4 s.
        assert r.duration_s > 4.0

    def test_never_finishing_raises(self):
        trace = PiecewiseConstantTrace.from_uniform([5.0, 0.0], 1.0)
        conn = TCPConnection(trace)
        with pytest.raises(RuntimeError):
            conn.download(transfer_bytes(5.0, 100.0), 0.0)

    def test_bandwidth_increase_speeds_tail(self):
        slow = TCPConnection(constant_trace(2.0, 1000.0))
        rising = TCPConnection(
            PiecewiseConstantTrace.from_uniform([2.0, 20.0], 2.0)
        )
        size = 2_000_000
        d_slow = slow.download(size, 0.0).duration_s
        d_rise = rising.download(size, 0.0).duration_s
        assert d_rise < d_slow


class TestAgreementWithEstimator:
    """The simulator and Algorithm 4 must agree closely on constant links

    (this is the substance of the paper's Fig. 5)."""

    @pytest.mark.parametrize("capacity", [1.0, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("size", [25_000, 187_000, 1_000_000])
    def test_estimator_matches_simulator(self, capacity, size):
        conn = TCPConnection(constant_trace(capacity, 10_000.0))
        # Warm up with one chunk, then idle so SSR state is interesting.
        conn.download(500_000, 1.0)
        start = conn.state.last_send_time_s + 1.5
        state = conn.snapshot(start)
        predicted = estimate_throughput(capacity, state, size)
        actual = conn.download(size, start).throughput_mbps
        assert predicted == pytest.approx(actual, rel=0.25, abs=0.3)

    @given(
        capacity=st.floats(min_value=0.5, max_value=10.0),
        size=st.floats(min_value=4_000, max_value=4_000_000),
        gap=st.floats(min_value=0.12, max_value=8.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimator_error_bounded_property(self, capacity, size, gap):
        """Paper Fig. 5: |Y - f| mostly within ~1 Mbps on constant links."""
        conn = TCPConnection(constant_trace(capacity, 100_000.0))
        conn.download(500_000, 1.0)
        start = conn.state.last_send_time_s + gap
        state = conn.snapshot(start)
        predicted = estimate_throughput(capacity, state, size)
        actual = conn.download(size, start).throughput_mbps
        assert abs(predicted - actual) < 1.0
