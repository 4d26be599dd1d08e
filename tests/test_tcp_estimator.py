"""Tests for the Algorithm-4 throughput estimator f."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import (
    TCPStateSnapshot,
    estimate_download_time,
    estimate_throughput,
    estimate_throughput_grid_batch,
)
from repro.tcp.state import TCPStateColumns


def snap(cwnd=10, ssthresh=1 << 20, gap=5.0, rtt=0.08, rto=0.25):
    return TCPStateSnapshot(
        cwnd_segments=cwnd,
        ssthresh_segments=ssthresh,
        srtt_s=rtt,
        min_rtt_s=rtt,
        rto_s=rto,
        time_since_last_send_s=gap,
    )


class TestEstimateThroughput:
    def test_zero_capacity_gives_zero(self):
        assert estimate_throughput(0.0, snap(), 100_000) == 0.0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            estimate_throughput(-1.0, snap(), 1000)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            estimate_throughput(5.0, snap(), 0)

    def test_never_exceeds_capacity(self):
        for size in [2_000, 50_000, 500_000, 4_000_000]:
            for c in [0.5, 2.0, 5.0, 10.0]:
                assert estimate_throughput(c, snap(), size) <= c + 1e-9

    def test_large_chunks_approach_capacity(self):
        y = estimate_throughput(5.0, snap(), 8_000_000)
        assert y > 4.5

    def test_small_chunks_see_low_throughput(self):
        # The Fig. 2(c) effect: a 2 KB payload on an 18 Mbps link.
        y = estimate_throughput(18.0, snap(), 2_000)
        assert y < 1.0

    def test_monotone_in_size(self):
        sizes = [2_000, 20_000, 100_000, 500_000, 2_000_000]
        ys = [estimate_throughput(10.0, snap(), s) for s in sizes]
        assert all(a <= b + 1e-9 for a, b in zip(ys, ys[1:]))

    def test_monotone_in_capacity(self):
        grid = np.arange(0.5, 10.5, 0.5)
        ys = [estimate_throughput(c, snap(), 300_000) for c in grid]
        assert all(a <= b + 1e-9 for a, b in zip(ys, ys[1:]))

    def test_idle_gap_reduces_throughput(self):
        # Same chunk, but one connection has been idle (slow-start restart).
        warm = estimate_throughput(8.0, snap(cwnd=120, gap=0.0), 300_000)
        cold = estimate_throughput(8.0, snap(cwnd=120, gap=5.0), 300_000)
        assert cold < warm

    def test_request_overhead_matters_for_small_chunks(self):
        with_req = estimate_throughput(10.0, snap(), 20_000, request_rtts=1.0)
        without = estimate_throughput(10.0, snap(), 20_000, request_rtts=0.0)
        assert with_req < without


class TestEstimateDownloadTime:
    def test_zero_capacity_is_infinite(self):
        assert estimate_download_time(0.0, snap(), 100_000) == float("inf")

    def test_consistent_with_throughput(self):
        size = 300_000
        d = estimate_download_time(5.0, snap(), size)
        y = estimate_throughput(5.0, snap(), size)
        assert y == pytest.approx(size * 8 / 1e6 / d)

    def test_monotone_decreasing_in_capacity(self):
        ds = [estimate_download_time(c, snap(), 500_000) for c in [1, 2, 4, 8]]
        assert all(a >= b - 1e-9 for a, b in zip(ds, ds[1:]))

    def test_includes_request_round_trip(self):
        d = estimate_download_time(100.0, snap(cwnd=1000), 2_000, request_rtts=1.0)
        # One request RTT plus one transfer RTT.
        assert d == pytest.approx(2 * 0.08)


def one_chunk(grid, state, size):
    """The whole-session estimator on a one-chunk session: that row."""
    (row,) = estimate_throughput_grid_batch(
        grid, TCPStateColumns.of([state]), np.array([size], dtype=float)
    )
    return row


class TestGridEstimator:
    """The whole-session estimator against the scalar one, state by state."""

    def test_matches_scalar_version(self):
        grid = np.arange(0.0, 10.5, 0.5)
        state = snap(cwnd=35, ssthresh=28, gap=1.3)
        for size in [10_000, 120_000, 900_000]:
            vec = one_chunk(grid, state, size)
            scalar = [estimate_throughput(c, state, size) for c in grid]
            assert np.allclose(vec, scalar)

    def test_session_matches_scalar_per_chunk(self):
        grid = np.arange(0.0, 10.5, 0.5)
        rng = np.random.default_rng(3)
        states = [
            snap(
                cwnd=int(rng.integers(1, 200)),
                ssthresh=int(rng.integers(2, 200)),
                gap=float(rng.uniform(0.0, 3.0)),
            )
            for _ in range(30)
        ]
        sizes = rng.uniform(2_000, 4_000_000, 30)
        matrix = estimate_throughput_grid_batch(
            grid, TCPStateColumns.of(states), sizes
        )
        assert matrix.shape == (30, grid.size)
        for row, state, size in zip(matrix, states, sizes):
            scalar = [estimate_throughput(c, state, size) for c in grid]
            assert np.allclose(row, scalar)

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            one_chunk(np.array([-1.0]), snap(), 1000)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            one_chunk(np.array([1.0]), snap(), -5)

    @given(
        size=st.floats(min_value=2_000, max_value=4_000_000),
        cwnd=st.integers(min_value=1, max_value=500),
        gap=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40)
    def test_grid_property_consistency(self, size, cwnd, gap):
        grid = np.array([0.0, 0.5, 2.0, 7.5, 10.0])
        state = snap(cwnd=cwnd, gap=gap)
        vec = one_chunk(grid, state, size)
        scalar = [estimate_throughput(c, state, size) for c in grid]
        assert np.allclose(vec, scalar)
        # Never negative, never exceeds capacity.
        assert np.all(vec >= 0)
        assert np.all(vec <= grid + 1e-9)
