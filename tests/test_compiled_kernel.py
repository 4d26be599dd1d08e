"""Tests for the compiled replay kernel tier (PR 6).

``repro.tcp._compiled`` keeps two interchangeable implementations of the
whole-batch chunk-download kernel:

* the pure-Python mirror (always importable — the parity oracle),
* a cc + cffi build of a line-for-line C transcription (when a C
  compiler and cffi are present, as in the offline CI image).

This suite pins the active backend to the Python mirror bit-for-bit,
exercises the feature-detection/fallback contract
(``kernel="compiled"`` degrades to the scratch tier when no backend is
buildable), and runs whole sessions through the compiled tier against
serial replay.

Tolerance note: the cc build executes the same correctly-rounded
IEEE-754 float64 operations as the mirror in the same order (it
disables FMA contraction and fast-math), so on the platforms we test
results are bit-identical.  The documented cross-platform tolerance for
the compiled tier is ``rtol=1e-12``; the dedicated tolerance test below
asserts it explicitly while the lockstep tests pin exact equality.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (
    BatchStreamingSession,
    SessionConfig,
    StreamingSession,
    Video,
    default_ladder,
)
from repro.abr import BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm, _decisions
from repro.abr import mpc as mpc_module
from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.player import _fused
from repro.player.batch_session import LaneGroup
from repro.tcp import _compiled
from repro.tcp.connection import BatchTCPConnection
from repro.util import compiled as util_compiled

from test_batch_replay import (  # noqa: F401
    REPLAY_PATHS,
    assert_logs_identical,
    lane_traces,
    replay_kernel,
    video,
)


def make_problem(seed: int, n_lanes: int = 13, n_intervals: int = 40):
    """A random lane batch plus download state for the raw kernel call."""
    rng = np.random.default_rng(seed)
    bounds = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 3.0, n_intervals))))
    values2d = rng.uniform(0.0, 8.0, (n_lanes, n_intervals))
    values2d[rng.random((n_lanes, n_intervals)) < 0.1] = 0.0
    values2d[:, -1] = np.maximum(values2d[:, -1], 0.5)  # transfers terminate
    widths = np.diff(bounds)
    rates2d = values2d * 1_000_000 / 8
    cum2d = np.concatenate(
        [np.zeros((n_lanes, 1)), np.cumsum(rates2d * widths, axis=1)], axis=1
    )
    cwnd = np.full(n_lanes, 10, dtype=np.int64)
    cwnd[n_lanes // 2] = 500  # one lane deep into a grown window
    ssthresh = np.full(n_lanes, 100, dtype=np.int64)
    ssthresh[n_lanes // 2] = 4
    last_send = rng.uniform(0.0, 5.0, n_lanes)
    sizes = 10 ** rng.uniform(4.0, 6.8, n_lanes)
    starts = last_send + rng.uniform(0.0, 1.0, n_lanes)  # idle gaps: restarts
    return bounds, values2d, rates2d, cum2d, cwnd, ssthresh, last_send, sizes, starts


def run_kernel(problem, force_python: bool, monkeypatch):
    bounds, values2d, rates2d, cum2d, cwnd, ssthresh, last_send, sizes, starts = (
        problem
    )
    monkeypatch.setattr(_compiled, "FORCE_PYTHON", force_python)
    n = sizes.shape[0]
    cwnd, ssthresh, last_send = cwnd.copy(), ssthresh.copy(), last_send.copy()
    ends, idle = np.empty(n), np.empty(n)
    cwnd_pre = np.empty(n, dtype=np.int64)
    ssthresh_pre = np.empty(n, dtype=np.int64)
    status = _compiled.download_chunk(
        bounds, values2d, rates2d, cum2d, sizes, starts, 0.08, 0.2,
        cwnd, ssthresh, last_send, ends, idle, cwnd_pre, ssthresh_pre,
    )
    return status, cwnd, ssthresh, ends, idle, cwnd_pre, ssthresh_pre


class TestBackendDispatch:
    def test_backend_is_known(self):
        assert _compiled.backend() in ("python", "cc")

    def test_available_tracks_backend(self):
        # available() must agree with the dispatcher: a non-Python backend
        # means the tier is servable, FORCE_PYTHON means it always is.
        if _compiled.backend() != "python":
            assert _compiled.available()

    def test_force_python_makes_tier_available(self, monkeypatch):
        monkeypatch.setattr(_compiled, "FORCE_PYTHON", True)
        assert _compiled.available()
        assert _compiled.backend() == "python"

    def test_unavailable_compiled_falls_back_to_scratch(self, monkeypatch):
        monkeypatch.setattr(_compiled, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        batch = TraceBatch(lane_traces(3))
        with pytest.warns(RuntimeWarning, match='"compiled".*"scratch"'):
            conn = BatchTCPConnection(batch, kernel="compiled")
        assert conn.kernel == "compiled"  # the request is remembered...
        assert conn.tier == "scratch"  # ...but the scratch tier serves it

    def test_fallback_warning_once_per_ladder(self, monkeypatch):
        """One degrade warning per tier ladder per process, naming the
        requested and the effective tier."""
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        with pytest.warns(RuntimeWarning, match='replay kernel "compiled".*"scratch"'):
            util_compiled.warn_fallback("replay", "compiled", "scratch")
        with pytest.warns(RuntimeWarning, match='abduction kernel "compiled".*"numpy"'):
            util_compiled.warn_fallback("abduction", "compiled", "numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            util_compiled.warn_fallback("replay", "compiled", "scratch")
            util_compiled.warn_fallback("abduction", "compiled", "numpy")

    def test_cc_build_failure_is_graceful(self, monkeypatch, tmp_path):
        """An unusable cache dir must make the cc backend report
        unavailable instead of raising at construction."""
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")  # makedirs fails even as root
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(blocked / "cache"))
        fresh = util_compiled.CcLibrary(
            "_replay", _compiled._CDEF, _compiled._C_SOURCE
        )
        monkeypatch.setattr(_compiled, "_CC_LIB", fresh)
        assert _compiled._CC_LIB.load() is None
        assert _compiled.backend() == "python"
        assert not _compiled.available()


class TestRawKernelParity:
    @pytest.mark.skipif(
        _compiled.backend() == "python",
        reason="no compiled backend on this machine",
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_backend_bit_identical_to_mirror(self, seed, monkeypatch):
        problem = make_problem(seed)
        mirror = run_kernel(problem, True, monkeypatch)
        native = run_kernel(problem, False, monkeypatch)
        assert mirror[0] == native[0] == 0
        for got, want in zip(native[1:], mirror[1:]):
            assert np.array_equal(got, want)

    def test_zero_trailing_bandwidth_status(self, monkeypatch):
        problem = make_problem(4)
        bounds, values2d = problem[0], problem[1].copy()
        values2d[2, :] = 0.0  # one dead lane
        widths = np.diff(bounds)
        rates2d = values2d * 1_000_000 / 8
        cum2d = np.concatenate(
            [np.zeros((values2d.shape[0], 1)), np.cumsum(rates2d * widths, axis=1)],
            axis=1,
        )
        sizes = problem[7].copy()
        sizes[2] = 1e12
        doomed = (bounds, values2d, rates2d, cum2d, *problem[4:7], sizes, problem[8])
        assert run_kernel(doomed, True, monkeypatch)[0] == 1
        if _compiled.backend() != "python":
            assert run_kernel(doomed, False, monkeypatch)[0] == 1

    def test_batch_connection_raises_on_dead_lane(self, video):  # noqa: F811
        dead = PiecewiseConstantTrace.from_uniform([2.0, 1.0, 0.0], 5.0)
        conn = BatchTCPConnection(TraceBatch([dead, dead]), kernel="compiled")
        with pytest.raises(RuntimeError, match="trailing bandwidth"):
            conn.download_batch(np.array([1e9, 1e9]), np.array([0.0, 0.0]))


class TestCompiledSessionParity:
    @pytest.mark.parametrize("abr_factory", [BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm])
    def test_sessions_bit_identical_to_serial(self, video, abr_factory, monkeypatch):  # noqa: F811
        """Shipped ABRs on ``kernel="compiled"``: the whole-session kernel,
        then the per-chunk compiled loop with the fused plan withheld."""
        traces = lane_traces(6, seed=21)
        config = SessionConfig(buffer_capacity_s=5.0)
        serial = [
            StreamingSession(video, abr_factory(), trace, config).run()
            for trace in traces
        ]
        for path in ("fused", "compiled"):  # "compiled" patches the plan out
            batch_log = BatchStreamingSession(
                video, abr_factory, traces, config,
                kernel=replay_kernel(path, monkeypatch),
            ).run()
            for k, want in enumerate(serial):
                assert_logs_identical(want, batch_log.lane(k))

    def test_force_python_sessions_bit_identical(self, video, monkeypatch):  # noqa: F811
        """The pure-Python mirror must satisfy the same session contract —
        this keeps the compiled code path testable with no toolchain."""
        monkeypatch.setattr(_compiled, "FORCE_PYTHON", True)
        traces = lane_traces(5, seed=22)
        config = SessionConfig(buffer_capacity_s=6.0)
        batch_log = BatchStreamingSession(
            video, BOLAAlgorithm, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BOLAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_documented_tolerance(self, video):  # noqa: F811
        """The compiled tier's cross-platform guarantee is rtol=1e-12 on
        every logged float column (bit-exact where we can test)."""
        traces = lane_traces(4, seed=23)
        config = SessionConfig(buffer_capacity_s=5.0)
        compiled_log = BatchStreamingSession(
            video, BBAAlgorithm, traces, config, kernel="compiled"
        ).run()
        scratch_log = BatchStreamingSession(
            video, BBAAlgorithm, traces, config, kernel="scratch"
        ).run()
        np.testing.assert_allclose(
            compiled_log.end_times_s, scratch_log.end_times_s, rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(
            compiled_log.rebuffer_s, scratch_log.rebuffer_s, rtol=1e-12, atol=0.0
        )
        assert np.array_equal(compiled_log.qualities, scratch_log.qualities)


# ----------------------------------------------------------------------
# Compiled ABR decision kernels (PR 8).
# ----------------------------------------------------------------------


class TestDecisionKernelDispatch:
    def test_backends_known(self):
        assert _decisions.backend() in ("python", "cc")
        assert _fused.backend() in ("python", "cc")

    def test_force_python_disables_kernels(self, monkeypatch):
        """The mirror is a per-lane scalar loop, so FORCE_PYTHON keeps the
        vectorised NumPy deciders in production — but the fused session
        tier stays available (its mirror is still a valid backend)."""
        monkeypatch.setattr(_decisions, "FORCE_PYTHON", True)
        monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
        assert not _decisions.use_kernel()
        assert _decisions.backend() == "python"
        assert _fused.available()
        assert _fused.backend() == "python"

    def test_use_kernel_tracks_backend(self):
        if _decisions.backend() != "python":
            assert _decisions.use_kernel()
        else:
            assert not _decisions.use_kernel()


class TestDecisionKernelParity:
    """Raw mirror-vs-native parity for the decision kernels.

    The session suites pin the kernels against serial replay end to end;
    these tests pin the native backends against the Python mirror on the
    bare arrays, including the in-place predictor ring updates.
    """

    pytestmark = pytest.mark.skipif(
        _decisions.backend() == "python",
        reason="no compiled decision backend on this machine",
    )

    def test_bba_bit_identical(self, video, monkeypatch):  # noqa: F811
        abr = BBAAlgorithm()
        reservoir, upper, lowest, highest, r_min, r_max, rates = (
            abr.decision_kernel_plan(video, 20.0)
        )
        rng = np.random.default_rng(0)
        buffers = np.concatenate(
            [rng.uniform(0.0, 25.0, 64), [0.0, reservoir, upper, 25.0]]
        )
        got = np.empty(buffers.shape[0], dtype=np.int64)
        want = np.empty_like(got)
        _decisions.bba_decide(
            buffers, reservoir, upper, lowest, highest, r_min, r_max, rates, got
        )
        monkeypatch.setattr(_decisions, "FORCE_PYTHON", True)
        _decisions.bba_decide(
            buffers, reservoir, upper, lowest, highest, r_min, r_max, rates, want
        )
        assert np.array_equal(got, want)

    def test_bola_bit_identical(self, video, monkeypatch):  # noqa: F811
        abr = BOLAAlgorithm()
        weights = abr.decision_kernel_weights(video, 12.0)
        rng = np.random.default_rng(1)
        sizes = np.ascontiguousarray(video.sizes_for_chunk(3))
        buffers = rng.uniform(0.0, 12.0, 48)
        got = np.empty(48, dtype=np.int64)
        want = np.empty_like(got)
        _decisions.bola_decide(buffers, weights, sizes, got)
        monkeypatch.setattr(_decisions, "FORCE_PYTHON", True)
        _decisions.bola_decide(buffers, weights, sizes, want)
        assert np.array_equal(got, want)

    def test_mpc_observe_predict_bit_identical(self, monkeypatch):
        """Predictions AND the in-place ring mutations (errs, last_pred)
        must match the mirror at every step, including post-stall
        observations (tiny throughputs → large relative errors)."""
        window, error_window, cold_start = 5, 5, 1.0
        rng = np.random.default_rng(2)
        n_lanes, n_steps = 9, 12
        obs = rng.uniform(0.05, 20.0, (n_steps, n_lanes))
        obs[:, 0] = 1e-3  # starved lane: stall-like observations
        states = {}
        for force in (False, True):
            hist = np.zeros((n_lanes, window))
            errs = np.zeros((n_lanes, error_window))
            last_pred = np.full(n_lanes, -1.0)
            preds = np.empty((n_steps + 1, n_lanes))
            monkeypatch.setattr(_decisions, "FORCE_PYTHON", force)
            for n_obs in range(n_steps + 1):
                if n_obs > 0:
                    hist[:, (n_obs - 1) % window] = obs[n_obs - 1]
                _decisions.mpc_observe_predict(
                    hist, errs, last_pred, n_obs, window, error_window,
                    cold_start, preds[n_obs],
                )
            states[force] = (preds, errs, last_pred)
        for got, want in zip(states[False], states[True]):
            assert np.array_equal(got, want)

    def test_mpc_decide_bit_identical(self, video, monkeypatch):  # noqa: F811
        """The horizon search agrees with the mirror on every chunk —
        including the end-of-video rows where the horizon truncates."""
        pack = mpc_module._kernel_pack(video, 5)
        assert pack is not None
        meta, seq_flat, dbsum_flat, switch_flat, size_flat, db_flat = pack
        n_chunks = meta.shape[0]
        n_qualities = video.n_qualities
        rng = np.random.default_rng(3)
        k = 16
        for n in [0, 1, n_chunks - 5, n_chunks - 2, n_chunks - 1]:
            h, n_seq, seq_off, row_off = (int(x) for x in meta[n])
            buffers = rng.uniform(0.0, 10.0, k)
            pred = rng.uniform(1e-4, 30.0, k)
            last_q = rng.integers(-1, n_qualities, k).astype(np.int64)
            seq = seq_flat[seq_off : seq_off + n_seq * h]
            dbsum_row = dbsum_flat[row_off : row_off + n_seq]
            switch_row = switch_flat[row_off : row_off + n_seq]
            got = np.empty(k, dtype=np.int64)
            want = np.empty_like(got)
            monkeypatch.setattr(_decisions, "FORCE_PYTHON", False)
            _decisions.mpc_decide(
                n, h, n_seq, seq, size_flat, db_flat, n_qualities, dbsum_row,
                switch_row, buffers, pred, last_q, 8.0,
                video.chunk_duration_s, 100.0, 2.0, got,
            )
            monkeypatch.setattr(_decisions, "FORCE_PYTHON", True)
            _decisions.mpc_decide(
                n, h, n_seq, seq, size_flat, db_flat, n_qualities, dbsum_row,
                switch_row, buffers, pred, last_q, 8.0,
                video.chunk_duration_s, 100.0, 2.0, want,
            )
            assert np.array_equal(got, want)


def tie_video(n_chunks: int = 12) -> Video:
    """Every quality of every chunk has identical size and SSIM, so with
    zero penalties every MPC sequence scores the same QoE — the argmax
    must break the tie toward the first maximum on every backend."""
    ladder = default_ladder()
    q = len(ladder)
    sizes = np.full((n_chunks, q), 250_000.0)
    ssim = np.full((n_chunks, q), 0.97)
    return Video(ladder, 2.0, sizes, ssim)


class TestMPCKernelEdgeCases:
    """MPC horizon-search seams on every replay path."""

    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_end_of_video_truncation(self, tier, monkeypatch):
        """A video shorter than the horizon truncates the sequence table
        from chunk 0; longer videos truncate over the last H-1 chunks."""
        for duration in (6.0, 20.0):  # 3 chunks (< horizon) and 10 chunks
            short = Video.generate(default_ladder(), duration_s=duration, seed=11)
            factory = lambda: MPCAlgorithm(horizon=5)  # noqa: E731
            traces = lane_traces(4, seed=41)
            config = SessionConfig(buffer_capacity_s=8.0)
            batch_log = BatchStreamingSession(
                short, factory, traces, config,
                kernel=replay_kernel(tier, monkeypatch),
            ).run()
            for k, trace in enumerate(traces):
                serial = StreamingSession(short, factory(), trace, config).run()
                assert_logs_identical(serial, batch_log.lane(k))

    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_k1_single_lane_batch(self, video, tier, monkeypatch):  # noqa: F811
        traces = lane_traces(1, seed=42)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            video, MPCAlgorithm, traces, config,
            kernel=replay_kernel(tier, monkeypatch),
        ).run()
        serial = StreamingSession(video, MPCAlgorithm(), traces[0], config).run()
        assert batch_log.n_lanes == 1
        assert_logs_identical(serial, batch_log.lane(0))

    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_tied_qoe_argmax(self, tier, monkeypatch):
        """All-equal QoE tables: every sequence ties, so the chosen
        quality is decided purely by the first-maximum argmax rule —
        any backend scanning in a different order diverges loudly."""
        tie = tie_video()
        factory = lambda: MPCAlgorithm(  # noqa: E731
            horizon=4, rebuffer_penalty=0.0, switch_penalty=0.0
        )
        traces = lane_traces(3, seed=43)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            tie, factory, traces, config,
            kernel=replay_kernel(tier, monkeypatch),
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(tie, factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_predictor_error_state_after_stall(self, tier, monkeypatch):
        """Starved lanes stall repeatedly; the post-stall decisions depend
        on the predictor's error ring (large relative errors shrink the
        robust prediction), so parity here pins that in-kernel state."""
        stall_video = Video.generate(default_ladder(), duration_s=40.0, seed=12)
        # Every lane starved: well below the lowest ladder bitrate.
        rng = np.random.default_rng(44)
        traces = [
            PiecewiseConstantTrace.from_uniform(rng.uniform(0.02, 0.15, 30), 5.0)
            for _ in range(3)
        ]
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(
            stall_video, MPCAlgorithm, traces, config,
            kernel=replay_kernel(tier, monkeypatch),
        ).run()
        assert float(np.max(batch_log.rebuffer_s)) > 0.0  # stalls happened
        for k, trace in enumerate(traces):
            serial = StreamingSession(
                stall_video, MPCAlgorithm(), trace, config
            ).run()
            assert_logs_identical(serial, batch_log.lane(k))


# ----------------------------------------------------------------------
# Fused session kernel: the compiled tier's whole-session runner.
# ----------------------------------------------------------------------


class TestFusedTier:
    def test_fused_multi_partition_bit_identical(self, video):  # noqa: F811
        """BBA + BOLA + MPC partitions with different buffer capacities in
        one fused kernel call, against per-lane serial replay."""
        traces = lane_traces(9, seed=51)
        groups = [
            LaneGroup(BBAAlgorithm, SessionConfig(buffer_capacity_s=15.0), traces[:3]),
            LaneGroup(BOLAAlgorithm, SessionConfig(buffer_capacity_s=8.0), traces[3:6]),
            LaneGroup(MPCAlgorithm, SessionConfig(buffer_capacity_s=15.0), traces[6:]),
        ]
        batch_log = BatchStreamingSession.fused(video, groups, kernel="compiled").run()
        factories = [BBAAlgorithm] * 3 + [BOLAAlgorithm] * 3 + [MPCAlgorithm] * 3
        capacities = [15.0] * 3 + [8.0] * 3 + [15.0] * 3
        for k, trace in enumerate(traces):
            serial = StreamingSession(
                video,
                factories[k](),
                trace,
                SessionConfig(buffer_capacity_s=capacities[k]),
            ).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_request_overhead_bit_identical(self, video):  # noqa: F811
        traces = lane_traces(4, seed=52)
        config = SessionConfig(buffer_capacity_s=6.0, request_overhead_s=0.05)
        batch_log = BatchStreamingSession(
            video, BOLAAlgorithm, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BOLAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_force_python_sessions_bit_identical(self, video, monkeypatch):  # noqa: F811
        """The fused kernel's pure-Python mirror satisfies the same session
        contract — the whole fused path stays testable with no
        toolchain."""
        monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
        traces = lane_traces(5, seed=53)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            video, MPCAlgorithm, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, MPCAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_unavailable_fused_falls_back(self, video, monkeypatch):  # noqa: F811
        """Without a session-kernel backend, ``kernel="compiled"`` quietly
        runs the chunk loop on the per-chunk compiled download (the Python
        mirror here, so every machine takes this path) — bit-identical to
        serial replay, no warning."""
        monkeypatch.setattr(_fused, "available", lambda: False)
        monkeypatch.setattr(_compiled, "FORCE_PYTHON", True)
        calls = {"download_chunk": 0, "run_session": 0}
        for module, name in ((_compiled, "download_chunk"), (_fused, "run_session")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        traces = lane_traces(3, seed=58)
        config = SessionConfig(buffer_capacity_s=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch_log = BatchStreamingSession(
                video, MPCAlgorithm, traces, config, kernel="compiled"
            ).run()
        assert calls == {"download_chunk": video.n_chunks, "run_session": 0}
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, MPCAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_scalar_fallback_abr_uses_chunk_loop(self, video):  # noqa: F811
        """An ABR outside the fused kernel's reach (scalar decisions) on
        kernel="compiled" silently takes the per-chunk loop on the same
        connection — identical results, no error."""

        class PinnedBBA(BBAAlgorithm):
            name = "pinned-bba"

            def choose_quality(self, context):
                return min(1, context.video.n_qualities - 1)

        traces = lane_traces(3, seed=54)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(
            video, PinnedBBA, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, PinnedBBA(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_non_robust_mpc_uses_chunk_loop(self, video):  # noqa: F811
        """Plain (non-robust) MPC has no kernel pack, so the compiled tier
        must fall back to the per-chunk loop and still match serial."""
        factory = lambda: MPCAlgorithm(robust=False)  # noqa: E731
        traces = lane_traces(3, seed=55)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            video, factory, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_mixed_mpc_horizons_use_chunk_loop(self, video):  # noqa: F811
        """Two MPC partitions with different horizons cannot share one
        kernel pack; the fused plan rejects the mix and the per-chunk
        loop serves it bit-identically."""
        traces = lane_traces(4, seed=56)
        groups = [
            LaneGroup(
                lambda: MPCAlgorithm(horizon=4),
                SessionConfig(buffer_capacity_s=8.0),
                traces[:2],
            ),
            LaneGroup(
                lambda: MPCAlgorithm(horizon=5),
                SessionConfig(buffer_capacity_s=8.0),
                traces[2:],
            ),
        ]
        batch_log = BatchStreamingSession.fused(video, groups, kernel="compiled").run()
        horizons = [4, 4, 5, 5]
        for k, trace in enumerate(traces):
            serial = StreamingSession(
                video,
                MPCAlgorithm(horizon=horizons[k]),
                trace,
                SessionConfig(buffer_capacity_s=8.0),
            ).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_zero_capacity_and_stalls(self, video):  # noqa: F811
        """The default lane mix (starved / fast / zero-capacity lanes)
        through the fused kernel: stalls, overflow sleeps and mid-trace
        dead intervals all inside the compiled loop."""
        traces = lane_traces(8, seed=57)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(
            video, BBAAlgorithm, traces, config, kernel="compiled"
        ).run()
        assert float(np.max(batch_log.rebuffer_s)) > 0.0
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BBAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_dead_lane_raises(self):
        dead = PiecewiseConstantTrace.from_uniform([0.4, 0.2, 0.0], 5.0)
        tiny = Video.generate(default_ladder(), duration_s=120.0, seed=13)
        with pytest.raises(RuntimeError, match="trailing bandwidth"):
            BatchStreamingSession(
                tiny,
                BBAAlgorithm,
                [dead, dead],
                SessionConfig(buffer_capacity_s=5.0),
                kernel="compiled",
            ).run()
