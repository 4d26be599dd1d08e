"""Tests for TCP state tracking and slow-start restart."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tcp import (
    INIT_CWND_SEGMENTS,
    MutableTCPState,
    TCPStateSnapshot,
    apply_slow_start_restart,
)
from repro.tcp.state import (
    TCPStateColumns,
    apply_slow_start_restart_batch,
    check_state_columns,
)


def make_snapshot(**overrides) -> TCPStateSnapshot:
    defaults = dict(
        cwnd_segments=40,
        ssthresh_segments=1 << 20,
        srtt_s=0.08,
        min_rtt_s=0.08,
        rto_s=0.25,
        time_since_last_send_s=0.0,
    )
    defaults.update(overrides)
    return TCPStateSnapshot(**defaults)


class TestSnapshot:
    def test_round_trip_dict(self):
        snap = make_snapshot()
        assert TCPStateSnapshot.from_dict(snap.to_dict()) == snap

    def test_rejects_zero_cwnd(self):
        with pytest.raises(ValueError):
            make_snapshot(cwnd_segments=0)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            make_snapshot(time_since_last_send_s=-1.0)

    def test_rejects_nonpositive_rtt(self):
        with pytest.raises(ValueError):
            make_snapshot(min_rtt_s=0.0)

    def test_rejects_nonpositive_rto(self):
        with pytest.raises(ValueError):
            make_snapshot(rto_s=0.0)


class TestSlowStartRestart:
    def test_no_restart_when_gap_small(self):
        cwnd, ssthresh, fired = apply_slow_start_restart(100, 64, 0.1, 0.25)
        assert (cwnd, ssthresh, fired) == (100, 64, False)

    def test_no_restart_when_cwnd_at_floor(self):
        cwnd, ssthresh, fired = apply_slow_start_restart(
            INIT_CWND_SEGMENTS, 64, 10.0, 0.25
        )
        assert fired is False
        assert cwnd == INIT_CWND_SEGMENTS

    def test_halves_once_per_rto(self):
        # gap of ~2.2 RTOs halves twice: 100 -> 50 -> 25.
        cwnd, _, fired = apply_slow_start_restart(100, 64, 0.55, 0.25)
        assert fired is True
        assert cwnd == 25

    def test_floors_at_restart_window(self):
        cwnd, _, _ = apply_slow_start_restart(100, 64, 100.0, 0.25)
        assert cwnd == INIT_CWND_SEGMENTS

    def test_ssthresh_raised_to_three_quarters(self):
        # After decay to 16, ssthresh = max(old, 16>>1 + 16>>2) = max(2, 12).
        cwnd, ssthresh, _ = apply_slow_start_restart(64, 2, 0.6, 0.25)
        assert cwnd == 16
        assert ssthresh == (cwnd >> 1) + (cwnd >> 2)

    def test_ssthresh_never_decreases(self):
        _, ssthresh, _ = apply_slow_start_restart(64, 1000, 0.6, 0.25)
        assert ssthresh == 1000

    @given(
        cwnd=st.integers(min_value=1, max_value=10_000),
        ssthresh=st.integers(min_value=2, max_value=10_000),
        gap=st.floats(min_value=0.0, max_value=100.0),
        rto=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_invariants_property(self, cwnd, ssthresh, gap, rto):
        new_cwnd, new_ssthresh, fired = apply_slow_start_restart(
            cwnd, ssthresh, gap, rto
        )
        assert new_cwnd >= min(cwnd, INIT_CWND_SEGMENTS)
        assert new_cwnd <= cwnd
        assert new_ssthresh >= ssthresh or new_ssthresh >= 2
        if not fired:
            assert (new_cwnd, new_ssthresh) == (cwnd, ssthresh)


@st.composite
def restart_cases(draw):
    """``(cwnd, ssthresh, idle, rto)`` around the restart's boundaries."""
    rto = draw(
        st.sampled_from([1e-9, 1e-3, 0.2, 0.3, 1.0, 60.0, 1e4])
        | st.floats(min_value=1e-9, max_value=1e4)
    )
    idle = draw(
        st.sampled_from([0.0, rto, float(np.nextafter(rto, np.inf)), 40 * rto])
        | st.integers(min_value=2, max_value=40).map(lambda m: m * rto)
        | st.floats(min_value=0.0, max_value=1e6)
    )
    cwnd = draw(
        st.sampled_from(
            [1, INIT_CWND_SEGMENTS - 1, INIT_CWND_SEGMENTS, INIT_CWND_SEGMENTS + 1]
        )
        | st.integers(min_value=1, max_value=1 << 50)
    )
    ssthresh = draw(st.integers(min_value=1, max_value=1 << 20))
    return cwnd, ssthresh, idle, rto


class TestSlowStartRestartBatch:
    """The array restart agrees with the scalar one element by element."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(cases=st.lists(restart_cases(), min_size=1, max_size=12))
    @example(cases=[(40, 64, 0.4, 0.2)])  # a gap of exactly two RTOs
    @example(cases=[(1 << 40, 2, 40 * 0.3, 0.3)])
    def test_matches_scalar(self, cases):
        cwnd, ssthresh, idle, rto = (np.asarray(c) for c in zip(*cases))
        got = apply_slow_start_restart_batch(cwnd, ssthresh, idle, rto)
        for n, case in enumerate(cases):
            want = apply_slow_start_restart(*case)
            assert (int(got[0][n]), int(got[1][n]), bool(got[2][n])) == want

    def test_inputs_are_not_modified(self):
        cwnd = np.asarray([100, 5])
        ssthresh = np.asarray([2, 2])
        apply_slow_start_restart_batch(cwnd, ssthresh, [1.0, 1.0], [0.25, 0.25])
        assert cwnd.tolist() == [100, 5] and ssthresh.tolist() == [2, 2]


class TestStateColumns:
    def test_of_snapshots_round_trips(self):
        snaps = [make_snapshot(cwnd_segments=c, rto_s=0.2 + c / 100) for c in (1, 10, 99)]
        columns = TCPStateColumns.of(snaps)
        assert len(columns) == 3
        assert columns.cwnd_segments.dtype == np.int64
        joined = TCPStateColumns.concatenate([columns, columns])
        for got, want in ((columns, snaps), (joined, snaps + snaps)):
            for field in dataclasses.fields(TCPStateSnapshot):
                column = getattr(got, field.name)
                assert column.tolist() == [getattr(s, field.name) for s in want]
        # A lone part is its own concatenation, so a one-log emission
        # build does not copy its columns.
        assert TCPStateColumns.concatenate([columns]) is columns

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("cwnd_segments", 0),
            ("ssthresh_segments", 0),
            ("srtt_s", 0.0),
            ("min_rtt_s", -1.0),
            ("rto_s", 0.0),
            ("time_since_last_send_s", -1.0),
        ],
    )
    def test_checks_reject_what_a_snapshot_rejects(self, name, value):
        good = TCPStateColumns.of([make_snapshot(), make_snapshot()])
        fields = {f: getattr(good, f).copy() for f in good.__dataclass_fields__}
        check_state_columns(**fields)
        fields[name][1] = value
        with pytest.raises(ValueError):
            make_snapshot(**{name: value})
        with pytest.raises(ValueError):
            check_state_columns(**fields)

    def test_rejects_ragged_columns(self):
        good = TCPStateColumns.of([make_snapshot(), make_snapshot()])
        fields = {f: getattr(good, f) for f in good.__dataclass_fields__}
        fields["rto_s"] = fields["rto_s"][:1]
        with pytest.raises(ValueError, match="equal length"):
            TCPStateColumns(**fields)


class TestMutableState:
    def test_rto_before_first_sample_is_one_second(self):
        state = MutableTCPState()
        assert state.rto_s == 1.0

    def test_observe_rtt_sets_srtt(self):
        state = MutableTCPState()
        state.observe_rtt(0.08)
        assert state.srtt_s == pytest.approx(0.08)
        assert state.min_rtt_s == pytest.approx(0.08)

    def test_min_rtt_tracks_minimum(self):
        state = MutableTCPState()
        state.observe_rtt(0.1)
        state.observe_rtt(0.05)
        state.observe_rtt(0.2)
        assert state.min_rtt_s == pytest.approx(0.05)

    def test_rto_has_floor(self):
        state = MutableTCPState()
        for _ in range(100):
            state.observe_rtt(0.001)
        assert state.rto_s >= 0.2

    def test_observe_rejects_nonpositive(self):
        state = MutableTCPState()
        with pytest.raises(ValueError):
            state.observe_rtt(0.0)

    def test_snapshot_gap_computation(self):
        state = MutableTCPState(last_send_time_s=10.0)
        state.observe_rtt(0.08)
        snap = state.snapshot(12.5)
        assert snap.time_since_last_send_s == pytest.approx(2.5)

    def test_snapshot_clamps_negative_gap(self):
        state = MutableTCPState(last_send_time_s=10.0)
        state.observe_rtt(0.08)
        snap = state.snapshot(9.0)
        assert snap.time_since_last_send_s == 0.0

    def test_srtt_converges_to_constant_rtt(self):
        state = MutableTCPState()
        for _ in range(200):
            state.observe_rtt(0.08)
        assert state.srtt_s == pytest.approx(0.08, rel=1e-6)
        assert state.rttvar_s == pytest.approx(0.0, abs=1e-3)
