"""Parity suite for the replay paths.

Each layer keeps one scalar reference, and this suite pins the paths
built on it:

* ``PiecewiseConstantTrace.time_to_transfer`` (the scalar interval walk)
  against known closed-form answers,
* the ``BatchTCPConnection`` download pass against scalar
  ``TCPConnection`` objects (the golden per-RTT loop) on random traces,
  RTTs, idle gaps and sizes, and on lanes pipe-full from round 0, bit
  for bit, and on the input both reject,
* ``CounterfactualEngine.evaluate_many`` over a prepared corpus vs
  back-to-back ``evaluate_corpus`` / per-trace ``evaluate_trace`` calls,
  and the engine's kernel tiers against each other.

The batch pass shares helpers with the scalar loop (``_grow_window``,
``_fluid_finish``), so the parity tests pin the stepping logic, not the
shared helpers.  Defects in shared code are instead caught by the
value-level tests here and in ``test_trace.py`` / ``test_tcp_connection.py``
(integral round-trips, session semantics).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    CounterfactualEngine,
    change_abr,
    change_buffer,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
)
from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.tcp.connection import KERNEL_TIERS, BatchTCPConnection, TCPConnection
from repro.util.rng import spawn_seeds
from repro.video import short_video


def random_lanes(rng: np.random.Generator, n_lanes: int):
    """Random piecewise traces sharing one irregular boundary grid.

    Interior zero-bandwidth gaps stay in play, but every tail is positive:
    a download over a trace that ends at zero bandwidth never finishes.
    """
    k = int(rng.integers(1, 14))
    bounds = np.cumsum(rng.uniform(0.05, 8.0, k + 1)) - 2.0
    lanes = []
    for _ in range(n_lanes):
        vals = rng.uniform(0.0, 10.0, k)
        vals[rng.random(k) < 0.3] = 0.0
        if vals[-1] == 0.0:
            vals[-1] = float(rng.uniform(0.5, 5.0))
        lanes.append(PiecewiseConstantTrace(bounds, vals))
    return lanes


class TestTimeToTransferParity:
    """Known answers of the scalar interval walk that every batch drain
    and compiled kernel transcribes."""

    def test_start_past_end_time(self):
        tr = PiecewiseConstantTrace([0.0, 10.0], [4.0])
        for start in (10.0, 25.0):
            assert tr.time_to_transfer(start, 1e6) == pytest.approx(2.0)

    def test_sub_interval_transfer(self):
        tr = PiecewiseConstantTrace([0.0, 5.0, 10.0], [8.0, 2.0])
        size = 1e5  # finishes well inside the first interval
        assert tr.time_to_transfer(1.0, size) == pytest.approx(size / (8.0 * 1e6 / 8))

    def test_zero_gap_then_resume(self):
        tr = PiecewiseConstantTrace([0.0, 2.0, 6.0, 8.0], [4.0, 0.0, 4.0])
        size = tr.integrate_bytes(0.0, 7.0)
        assert tr.time_to_transfer(0.0, size) == pytest.approx(7.0, abs=1e-6)

    def test_trailing_zero_raises_in_both(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [0.0])
        with pytest.raises(RuntimeError):
            tr.time_to_transfer(0.0, 1e5)

    def test_zero_size_is_free(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [1.0])
        assert tr.time_to_transfer(0.5, 0.0) == 0.0


class TestDownloadKernelParity:
    def test_randomized_download_sequences(self):
        """A 3-lane batch connection equals one scalar connection per lane,
        bit for bit, on random traces with irregular interval widths,
        random RTTs, idle gaps and sizes."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            lanes = random_lanes(rng, 3)
            rtt = float(rng.uniform(0.02, 0.3))
            batch = BatchTCPConnection(TraceBatch(lanes), rtt_s=rtt)
            scalar = [TCPConnection(tr, rtt_s=rtt) for tr in lanes]
            ends = np.zeros(len(lanes))
            for _ in range(int(rng.integers(1, 7))):
                starts = ends + rng.uniform(0.0, 4.0, len(lanes))
                sizes = 10 ** rng.uniform(3, 6.8, len(lanes))
                got = batch.download_batch(sizes, starts)
                for k, conn in enumerate(scalar):
                    want = conn.download(float(sizes[k]), float(starts[k]))
                    assert got.end_times_s[k] == want.end_time_s
                    assert batch._cwnd[k] == conn.state.cwnd_segments
                    assert batch._ssthresh[k] == conn.state.ssthresh_segments
                ends = got.end_times_s.copy()

    @pytest.mark.parametrize("idle_s", [0.0, 3.0], ids=["back-to-back", "idle-past-rto"])
    def test_pipe_full_lanes(self, idle_s):
        """K lanes whose pipe is full from round 0 equal K scalar
        connections bit for bit, back to back and after idle gaps that
        trigger the slow-start restart.  One long 1 Mbps interval keeps
        the BDP (10 kB at an 80 ms RTT) below the initial window (15 kB),
        so every download drains inside its interval."""
        n = 64
        trace = PiecewiseConstantTrace([0.0, 1e9], [1.0])
        batch = BatchTCPConnection(TraceBatch([trace] * n))
        scalar = [TCPConnection(trace) for _ in range(n)]
        rng = np.random.default_rng(5)
        starts = np.zeros(n)
        restarts = 0
        for _ in range(12):
            sizes = rng.uniform(2e4, 6e4, n)
            got = batch.download_batch(sizes, starts)
            for k, conn in enumerate(scalar):
                want = conn.download(float(sizes[k]), float(starts[k]))
                restarts += want.slow_start_restarted
                assert got.end_times_s[k] == want.end_time_s
                assert batch._cwnd[k] == conn.state.cwnd_segments
                assert batch._ssthresh[k] == conn.state.ssthresh_segments
            starts = got.end_times_s + idle_s
        assert (restarts > 0) == (idle_s > 0)

    @pytest.mark.parametrize(
        ("sizes", "starts", "lane", "reason"),
        [
            ([-5e4, np.nan], [5.0, 5.0], 0, "size must be finite and positive"),
            ([5e4, np.nan], [5.0, 5.0], 1, "size must be finite and positive"),
            ([5e4, 0.0], [5.0, 5.0], 1, "size must be finite and positive"),
            ([np.inf, 5e4], [5.0, 5.0], 0, "size must be finite and positive"),
            ([5e4, 5e4], [5.0, np.nan], 1, "start time must be finite"),
            ([5e4, 5e4], [np.inf, 5.0], 0, "start time must be finite"),
            ([5e4, 5e4], [5.0, 0.1], 1, "download at 0.1 precedes last send"),
        ],
        ids=[
            "negative-size", "nan-size", "zero-size", "inf-size",
            "nan-start", "inf-start", "start-before-last-send",
        ],
    )
    def test_bad_input_raises_and_leaves_state(self, sizes, starts, lane, reason):
        """Input the scalar download rejects makes the batch pass raise
        too, naming the first bad lane, before any lane's state moves."""
        trace = PiecewiseConstantTrace([0.0, 1e9], [4.0])
        batch = BatchTCPConnection(TraceBatch([trace, trace]))
        scalar = [TCPConnection(trace) for _ in range(2)]
        batch.download_batch(np.array([3e5, 6e5]), np.zeros(2))
        for conn, size in zip(scalar, (3e5, 6e5)):
            conn.download(size, 0.0)
        with pytest.raises(ValueError, match=reason):
            scalar[lane].download(sizes[lane], starts[lane])

        before = (
            batch._cwnd.copy(),
            batch._ssthresh.copy(),
            batch._last_send.copy(),
            dataclasses.astuple(batch._shared),
        )
        with pytest.raises(ValueError, match=f"lane {lane}: {reason}"):
            batch.download_batch(np.array(sizes), np.array(starts))
        assert np.array_equal(batch._cwnd, before[0])
        assert np.array_equal(batch._ssthresh, before[1])
        assert np.array_equal(batch._last_send, before[2])
        assert dataclasses.astuple(batch._shared) == before[3]


class TestPreparedCorpusParity:
    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=3, duration_s=500.0, seed=21)
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=3, seed=5)
        return setting_a, traces, engine

    def test_evaluate_many_equals_evaluate_corpus(self, fixtures):
        setting_a, traces, engine = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        prepared = engine.prepare_corpus(traces, setting_a)
        many = engine.evaluate_many(prepared, settings_b)
        for setting_b, shared in zip(settings_b, many):
            solo = engine.evaluate_corpus(traces, setting_a, setting_b)
            assert shared.setting_b == solo.setting_b
            assert shared.per_trace == solo.per_trace  # exact equality

    @pytest.mark.parametrize(
        "video_s",
        [None, 900.0, 120.0],
        ids=["setting-a-video", "longer-video", "shorter-video"],
    )
    def test_matches_per_trace_evaluate_trace(self, fixtures, video_s):
        """Per-trace answers equal the prepared-corpus path's whatever
        Setting B's video is: the replay horizon follows Setting B's video,
        so a longer one replays past Setting A's horizon (600 s video) and
        a shorter one well within it."""
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bba")
        if video_s is not None:
            setting_b = dataclasses.replace(
                setting_b, video=short_video(duration_s=video_s, seed=11)
            )
        seeds = spawn_seeds(5, len(traces))
        direct = [
            engine.evaluate_trace(i, tr, setting_a, setting_b, seed=s)
            for i, (tr, s) in enumerate(zip(traces, seeds))
        ]
        prepared = engine.prepare_corpus(traces, setting_a)
        shared = engine.evaluate_many(prepared, [setting_b])[0]
        assert shared.per_trace == direct

    def test_prepared_replay_is_deterministic(self, fixtures):
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bola")
        prepared = engine.prepare_corpus(traces, setting_a)
        first = engine.evaluate_many(prepared, [setting_b])[0]
        second = engine.evaluate_many(prepared, [setting_b])[0]
        assert first.per_trace == second.per_trace

    def test_empty_inputs_rejected(self, fixtures):
        setting_a, traces, engine = fixtures
        with pytest.raises(ValueError):
            engine.prepare_corpus([], setting_a)
        prepared = engine.prepare_corpus(traces[:1], setting_a)
        with pytest.raises(ValueError):
            engine.evaluate_many(prepared, [])


class TestEngineKernelTiers:
    """``CounterfactualEngine(kernel=...)`` reaches the replay kernels and
    every tier answers causal queries identically (PR 6)."""

    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=2, duration_s=400.0, seed=31)
        return setting_a, traces

    def test_all_tiers_answer_identically(self, fixtures):
        setting_a, traces = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        results = {}
        for tier in KERNEL_TIERS:
            engine = CounterfactualEngine(
                paper_veritas_config(), n_samples=3, seed=5, kernel=tier
            )
            prepared = engine.prepare_corpus(traces, setting_a)
            results[tier] = engine.evaluate_many(prepared, settings_b)
        for tier in ("scratch", "compiled"):
            for got, want in zip(results[tier], results["reference"]):
                assert got.per_trace == want.per_trace  # exact equality
