"""Tests for the compiled replay tier.

The compiled tier's only native code is the whole-session kernel,
``repro.player._fused.run_session``.  It keeps two interchangeable
implementations:

* the pure-Python mirror (always importable — the parity oracle, run
  under ``_fused.FORCE_PYTHON``), which calls the per-lane download and
  decision cores of ``repro.tcp._compiled`` and ``repro.abr._decisions``;
* a cc + cffi build of a line-for-line C transcription of the mirror and
  those cores (when a C compiler and cffi are present, as in the offline
  CI image).

This suite pins the native build to the mirror bit for bit, exercises
the feature-detection/fallback contract (``kernel="compiled"`` resolves
to the scratch tier when no backend is buildable), checks that the
``scratch`` tier and the scalar session of the ``reference`` tier run no
native code, runs whole sessions through the compiled tier against
serial replay, and pins the mirror's MPC prefix-tree walk against a
flat search over the sequence table on generated inputs.  The C uses
only IEEE-754 basic operations, no libm, and is built without FMA
contraction or fast-math, so every comparison here is exact.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchStreamingSession,
    CounterfactualEngine,
    SessionConfig,
    StreamingSession,
    Video,
    default_ladder,
    paper_veritas_config,
)
from repro.abr import BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm, _decisions, mpc
from repro.abr._decisions import _mpc_decide_one
from repro.net.trace import PiecewiseConstantTrace, TraceBatch
from repro.player import _fused
from repro.player.batch_session import LaneGroup
from repro.player.logs import SessionLogBatch
from repro.tcp import _compiled
from repro.tcp.connection import BatchTCPConnection, resolve_kernel
from repro.util import compiled as util_compiled
from repro.video.ladder import QualityLadder

from test_batch_replay import (  # noqa: F401
    REPLAY_PATHS,
    assert_logs_identical,
    lane_traces,
    replay_kernel,
    video,
)


NATIVE = _fused.backend() == "cc"

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no cc+cffi build of the session kernel on this machine"
)


def assert_batches_identical(got: SessionLogBatch, want: SessionLogBatch):
    """Every column of two batch logs equal, bit for bit and dtype for dtype."""
    for field in dataclasses.fields(SessionLogBatch):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def random_lanes(seed: int, n_lanes: int, n_intervals: int = 40):
    """Shared-grid lanes with irregular interval widths, interior zero
    intervals and a positive tail (every transfer terminates)."""
    rng = np.random.default_rng(seed)
    bounds = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 3.0, n_intervals))))
    traces = []
    for _ in range(n_lanes):
        values = rng.uniform(0.0, 8.0, n_intervals)
        values[rng.random(n_intervals) < 0.1] = 0.0
        values[-1] = max(values[-1], 0.5)
        traces.append(PiecewiseConstantTrace(bounds, values))
    return traces


def run_on_backends(run, monkeypatch):
    """``run()`` on the native build, then on the mirror."""
    monkeypatch.setattr(_fused, "FORCE_PYTHON", False)
    native = run()
    monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
    return native, run()


class TestBackendDispatch:
    def test_backend_is_known(self):
        assert _fused.backend() in ("python", "cc")
        # The per-lane core modules build nothing: they report the
        # backend of the library they are compiled into.
        assert _compiled.backend() == _decisions.backend() == _fused.backend()

    def test_available_tracks_backend(self):
        # available() must agree with the dispatcher: a non-Python backend
        # means the tier is servable, FORCE_PYTHON means it always is.
        if _fused.backend() != "python":
            assert _fused.available()

    def test_force_python_makes_tier_available(self, monkeypatch):
        monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
        assert _fused.available()
        assert _fused.backend() == "python"

    def test_unavailable_compiled_falls_back_to_scratch(self, monkeypatch):
        """An explicit "compiled" resolves to the tier that serves it, so
        the engine and the session record "scratch"."""
        monkeypatch.setattr(_fused, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        with pytest.warns(RuntimeWarning, match='"compiled".*"scratch"'):
            assert resolve_kernel("compiled") == "scratch"
        engine = CounterfactualEngine(paper_veritas_config(), kernel="compiled")
        assert engine.kernel == "scratch"
        session = BatchStreamingSession(
            Video.generate(default_ladder(), duration_s=20.0, seed=3),
            BBAAlgorithm, lane_traces(3), SessionConfig(), kernel="compiled",
        )
        assert session.kernel == "scratch"

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
        fresh = util_compiled.CcLibrary("_fused", _fused._CDEF, _fused._C_SOURCE)
        monkeypatch.setattr(_fused, "_CC_LIB", fresh)
        assert _fused._CC_LIB.load() is None
        assert _fused.backend() == "python"
        assert not _fused.available()
        assert _compiled.backend() == _decisions.backend() == "python"


class TestRawKernelParity:
    """The native session kernel against its Python mirror, bit for bit,
    on random lane batches mixing all three in-kernel ABRs."""

    @staticmethod
    def _random_session(seed: int, video):  # noqa: F811
        rng = np.random.default_rng(100 + seed)
        traces = random_lanes(seed, n_lanes=9)
        factories = [BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm]
        groups = [
            LaneGroup(
                factories[i],
                SessionConfig(buffer_capacity_s=float(rng.uniform(4.0, 30.0))),
                traces[3 * i : 3 * i + 3],
            )
            for i in range(3)
        ]
        return BatchStreamingSession.fused(video, groups, kernel="compiled")

    @needs_native
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_backend_bit_identical_to_mirror(self, seed, video, monkeypatch):  # noqa: F811
        native, mirror = run_on_backends(
            lambda: self._random_session(seed, video).run(), monkeypatch
        )
        assert_batches_identical(native, mirror)

    def test_zero_trailing_bandwidth_status(self, monkeypatch):
        """A lane whose bandwidth never resumes makes the kernel return
        its status 1 on every backend, surfaced as the same RuntimeError
        the chunk loop raises."""
        dead = PiecewiseConstantTrace.from_uniform([0.4, 0.2, 0.0], 5.0)
        live = PiecewiseConstantTrace.from_uniform([0.4, 0.2, 3.0], 5.0)
        tiny = Video.generate(default_ladder(), duration_s=120.0, seed=13)
        for force_python in (True, False) if NATIVE else (True,):
            monkeypatch.setattr(_fused, "FORCE_PYTHON", force_python)
            with pytest.raises(RuntimeError, match="trailing bandwidth"):
                BatchStreamingSession(
                    tiny,
                    BBAAlgorithm,
                    [live, dead],
                    SessionConfig(buffer_capacity_s=5.0),
                    kernel="compiled",
                ).run()

    def test_batch_connection_raises_on_dead_lane(self, video):  # noqa: F811
        dead = PiecewiseConstantTrace.from_uniform([2.0, 1.0, 0.0], 5.0)
        conn = BatchTCPConnection(TraceBatch([dead, dead]))
        with pytest.raises(RuntimeError, match="trailing bandwidth"):
            conn.download_batch(np.array([1e9, 1e9]), np.array([0.0, 0.0]))


class TestCompiledSessionParity:
    @pytest.mark.parametrize("abr_factory", [BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm])
    def test_sessions_bit_identical_to_serial(self, video, abr_factory, monkeypatch):  # noqa: F811
        """Shipped ABRs on ``kernel="compiled"``: the whole-session kernel
        as built, then its Python mirror."""
        traces = lane_traces(6, seed=21)
        config = SessionConfig(buffer_capacity_s=5.0)
        serial = [
            StreamingSession(video, abr_factory(), trace, config).run()
            for trace in traces
        ]
        for path in ("fused", "compiled"):  # "compiled" runs the mirror
            batch_log = BatchStreamingSession(
                video, abr_factory, traces, config,
                kernel=replay_kernel(path, monkeypatch),
            ).run()
            for k, want in enumerate(serial):
                assert_logs_identical(want, batch_log.lane(k))

    def test_force_python_sessions_bit_identical(self, video, monkeypatch):  # noqa: F811
        """The pure-Python mirror must satisfy the same session contract —
        this keeps the compiled code path testable with no toolchain."""
        monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
        traces = lane_traces(5, seed=22)
        config = SessionConfig(buffer_capacity_s=6.0)
        batch_log = BatchStreamingSession(
            video, BOLAAlgorithm, traces, config, kernel="compiled"
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, BOLAAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_documented_tolerance(self, video):  # noqa: F811
        """The compiled tier's documented contract is bit-identity: every
        float and int column of the batch log equals the scratch tier's,
        for each in-kernel ABR."""
        traces = lane_traces(4, seed=23)
        config = SessionConfig(buffer_capacity_s=5.0)
        for abr_factory in (BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm):
            compiled_log = BatchStreamingSession(
                video, abr_factory, traces, config, kernel="compiled"
            ).run()
            scratch_log = BatchStreamingSession(
                video, abr_factory, traces, config, kernel="scratch"
            ).run()
            assert_batches_identical(compiled_log, scratch_log)


class TestNonNativeTiers:
    """``reference`` and ``scratch`` run no native code on any machine, so
    they stay an independent check on the compiled tier's C.  The
    ``reference`` tier is the scalar ``StreamingSession``, which replays
    the comparison lanes below under the same refusal."""

    @pytest.mark.parametrize("tier", ["scratch"])
    def test_tier_runs_no_native_code(self, video, tier, monkeypatch):  # noqa: F811
        def refuse(self):
            raise AssertionError(f"{tier} tier loaded the native {self.stem} library")

        monkeypatch.setattr(util_compiled.CcLibrary, "load", refuse)
        traces = lane_traces(3, seed=24)
        config = SessionConfig(buffer_capacity_s=8.0)
        for abr_factory in (BBAAlgorithm, BOLAAlgorithm, MPCAlgorithm):
            batch_log = BatchStreamingSession(
                video, abr_factory, traces, config, kernel=tier
            ).run()
            for k, trace in enumerate(traces):
                serial = StreamingSession(video, abr_factory(), trace, config).run()
                assert_logs_identical(serial, batch_log.lane(k))


# ----------------------------------------------------------------------
# The per-lane decision cores, compiled into the session kernel.
# ----------------------------------------------------------------------


class TestDecisionKernelDispatch:
    def test_backends_known(self):
        assert _decisions.backend() in ("python", "cc")
        assert _fused.backend() in ("python", "cc")

    def test_force_python_disables_kernels(self, monkeypatch):
        """``_fused.FORCE_PYTHON`` is the one hook: it routes the session
        kernel, cores included, through the mirror, and the compiled tier
        stays available (its mirror is still a valid backend)."""
        monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
        assert _decisions.backend() == "python"
        assert _compiled.backend() == "python"
        assert _fused.available()
        assert _fused.backend() == "python"


class TestDecisionKernelParity:
    """Native-vs-mirror parity of each decision core, driven through the
    only entry point that runs it, ``run_session``.

    The session suites pin the kernel against serial replay; these tests
    pin the native build against the Python mirror on every column,
    one in-kernel ABR at a time.
    """

    pytestmark = needs_native

    @staticmethod
    def _assert_backends_agree(video, factory, traces, capacities, monkeypatch):  # noqa: F811
        groups = [
            LaneGroup(factory, SessionConfig(buffer_capacity_s=cap), traces)
            for cap in capacities
        ]

        def run():
            return BatchStreamingSession.fused(
                video, groups, kernel="compiled"
            ).run()

        native, mirror = run_on_backends(run, monkeypatch)
        assert_batches_identical(native, mirror)

    def test_bba_bit_identical(self, video, monkeypatch):  # noqa: F811
        """Buffers below the reservoir, above the upper threshold and in
        between: capacities from 4 s to 40 s move the thresholds."""
        self._assert_backends_agree(
            video, BBAAlgorithm, random_lanes(5, 4), (4.0, 15.0, 40.0),
            monkeypatch,
        )

    def test_bola_bit_identical(self, video, monkeypatch):  # noqa: F811
        self._assert_backends_agree(
            video, BOLAAlgorithm, random_lanes(6, 4), (4.0, 12.0, 30.0),
            monkeypatch,
        )

    def test_mpc_decide_bit_identical(self, video, monkeypatch):  # noqa: F811
        """The predictor rings and the horizon search, including the
        end-of-video rows where the horizon truncates and starved lanes
        whose large relative errors shrink the robust prediction."""
        rng = np.random.default_rng(3)
        starved = [
            PiecewiseConstantTrace.from_uniform(rng.uniform(0.02, 0.15, 30), 5.0)
            for _ in range(2)
        ]
        fast = [
            PiecewiseConstantTrace.from_uniform(rng.uniform(0.5, 30.0, 30), 5.0)
            for _ in range(2)
        ]
        self._assert_backends_agree(
            video, MPCAlgorithm, starved + fast, (5.0, 20.0), monkeypatch
        )


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

    @pytest.mark.parametrize("rungs", [1, 2, 7])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 6, 7])
    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_horizons_and_ladders(self, horizon, rungs, tier, monkeypatch):
        """Every shape of the horizon search's prefix tree: the one-step
        leaves of h = 1, first rungs as the leaves' parents (h = 2),
        deep trees (h = 6, 7), a one-rung ladder (a chain) and a two-rung
        ladder (every node at a ladder edge).  The 16 s video (8 chunks)
        also truncates the horizon over its last h - 1 chunks."""
        ladder = QualityLadder(default_ladder().bitrates_mbps[-rungs:])
        short = Video.generate(ladder, duration_s=16.0, seed=14)
        assert mpc._kernel_pack(short, horizon) is not None
        factory = lambda: MPCAlgorithm(horizon=horizon)  # noqa: E731
        traces = lane_traces(3, seed=46)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            short, factory, traces, config,
            kernel=replay_kernel(tier, monkeypatch),
        ).run()
        for k, trace in enumerate(traces):
            serial = StreamingSession(short, factory(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    @pytest.mark.parametrize("tier", REPLAY_PATHS)
    def test_mid_table_tie(self, tier, monkeypatch):
        """Rungs 0-2 look strictly worse and rungs 3-6 look the same, at
        equal sizes and with both penalties zero: every path that stays
        within rungs 3-6 ties for the best QoE.  The first maximum in
        sequence order is the all-3 path, deep inside the table, so
        every decision is rung 3; a ``>=`` tie rule or a descending
        first-rung loop would pick rung 6."""
        ladder = default_ladder()
        n_chunks = 12
        sizes = np.full((n_chunks, len(ladder)), 250_000.0)
        ssim = np.tile([0.90, 0.92, 0.94, 0.97, 0.97, 0.97, 0.97], (n_chunks, 1))
        tie = Video(ladder, 2.0, sizes, ssim)
        factory = lambda: MPCAlgorithm(  # noqa: E731
            rebuffer_penalty=0.0, switch_penalty=0.0
        )
        traces = lane_traces(3, seed=47)
        config = SessionConfig(buffer_capacity_s=8.0)
        batch_log = BatchStreamingSession(
            tie, factory, traces, config,
            kernel=replay_kernel(tier, monkeypatch),
        ).run()
        assert np.all(batch_log.qualities == 3)
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

    def test_over_budget_qoe_tables(self, monkeypatch):
        """Past ``_TABLE_BUDGET_ELEMENTS`` scalar and batch MPC gather the
        QoE terms per decision, and the fused kernel gets no pack, so the
        compiled tier runs the chunk loop: serial, scratch and compiled
        sessions equal the in-budget ones column for column."""
        from repro.abr import mpc
        from repro.video import short_video

        traces = lane_traces(4, seed=45)
        config = SessionConfig(buffer_capacity_s=8.0)

        def sessions(video):
            serial = [
                StreamingSession(video, MPCAlgorithm(), trace, config).run()
                for trace in traces
            ]
            batch = [
                BatchStreamingSession(
                    video, MPCAlgorithm, traces, config, kernel=tier
                ).run()
                for tier in ("scratch", "compiled")
            ]
            return serial, batch

        in_serial, in_batch = sessions(short_video(duration_s=60.0, seed=9))
        monkeypatch.setattr(mpc, "_TABLE_BUDGET_ELEMENTS", 0)
        # A fresh video object: the tables are cached per video.
        over_video = short_video(duration_s=60.0, seed=9)
        over_serial, over_batch = sessions(over_video)

        assert mpc._kernel_pack(over_video, MPCAlgorithm().horizon) is None
        tables = mpc._VIDEO_TABLES[over_video]
        assert tables and all(entry == (None,) for entry in tables.values())
        for got, want in zip(over_serial, in_serial, strict=True):
            assert_logs_identical(want, got)
        for got, want in zip(over_batch, in_batch, strict=True):
            assert_batches_identical(got, want)


def flat_mpc_decide(b0, p, lq, n, h, sequences, size_flat, db_flat,
                    n_qualities, dbsum_row, switch_row, capacity, chunk_dur,
                    rebuffer_penalty, switch_penalty):
    """The horizon search as a flat loop: every row of ``sequences``
    simulated from scratch, then the first-maximum QoE."""
    if p < 1e-3:
        p = 1e-3
    scale = 8 / 1e6 / p
    has_prev = lq >= 0
    prev_db = 0.0
    if has_prev:
        prev_db = db_flat[max(n - 1, 0) * n_qualities + lq]
    best = 0.0
    best_s = 0
    for s, seq in enumerate(sequences):
        b = b0
        negst = 0.0
        for hh in range(h):
            lvl = b - size_flat[(n + hh) * n_qualities + seq[hh]] * scale
            if lvl < 0.0:
                negst += lvl
            if hh + 1 < h:
                t = lvl
                if t < 0.0:
                    t = 0.0
                t += chunk_dur
                if t > capacity:
                    t = capacity
                b = t
        qoe = dbsum_row[s] + negst * rebuffer_penalty
        if has_prev:
            jump = abs(db_flat[n * n_qualities + seq[0]] - prev_db)
            qoe -= (switch_row[s] + jump) * switch_penalty
        elif switch_penalty != 0.0:
            qoe -= switch_penalty * switch_row[s]
        if s == 0 or qoe > best:
            best = qoe
            best_s = s
    return int(sequences[best_s][0])


class TestMPCWalkOracle:
    """The mirror's prefix-tree walk against the flat search over
    ``_enumerate_sequences`` rows, on generated inputs: quantised sizes
    and SSIM-dB rows (so QoE ties are common), empty, tiny and full
    buffers, predictions below the 1e-3 clamp, every previous rung and
    zero and non-zero penalties."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_walk_matches_flat_search(self, data):
        q = data.draw(st.integers(1, 9), label="n_qualities")
        h = data.draw(st.integers(1, 7), label="horizon")
        n = data.draw(st.integers(0, 2), label="chunk")
        cells = (n + h) * q
        size_flat = np.asarray(data.draw(st.lists(
            st.integers(1, 8).map(lambda k: 125_000.0 * k),
            min_size=cells, max_size=cells,
        ), label="sizes"))
        db_flat = np.asarray(data.draw(st.lists(
            st.integers(0, 3).map(lambda k: 6.0 + 2.5 * k),
            min_size=cells, max_size=cells,
        ), label="ssim_db"))
        capacity = data.draw(st.sampled_from([2.0, 5.0, 15.0]), label="cap")
        b0 = data.draw(st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-9, capacity]),
            st.floats(0.0, capacity),
        ), label="buffer")
        p = data.draw(st.one_of(
            st.sampled_from([0.0, 1e-6, 9.99e-4, 1e-3]),
            st.floats(0.05, 12.0),
        ), label="prediction")
        lq = data.draw(st.integers(-1, q - 1), label="last_quality")
        chunk_dur = data.draw(st.sampled_from([2.0, 2.002, 4.0]), label="dur")
        rebuffer_penalty = data.draw(st.sampled_from([0.0, 4.3, 100.0]))
        switch_penalty = data.draw(st.sampled_from([0.0, 1.0, 2.0]))

        sequences = mpc._enumerate_sequences(q, h)
        db = db_flat.reshape(n + h, q)
        steps = [db[n + hh, sequences[:, hh]] for hh in range(h)]
        dbsum_row = steps[0].copy()
        switch_row = np.zeros(len(sequences))
        for hh in range(1, h):
            dbsum_row += steps[hh]
            switch_row += np.abs(steps[hh] - steps[hh - 1])

        args = (size_flat, db_flat, q, dbsum_row, switch_row, capacity,
                chunk_dur, rebuffer_penalty, switch_penalty)
        want = flat_mpc_decide(b0, p, lq, n, h, sequences, *args)
        assert _mpc_decide_one(b0, p, lq, n, h, *args) == want


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
        """Without a session-kernel backend, an explicit ``kernel="compiled"``
        warns once and runs the scratch chunk loop, never the kernel —
        bit-identical to serial replay."""
        monkeypatch.setattr(_fused, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        calls = {"run_session": 0}
        real = _fused.run_session

        def counting(*args):
            calls["run_session"] += 1
            return real(*args)

        monkeypatch.setattr(_fused, "run_session", counting)
        traces = lane_traces(3, seed=58)
        config = SessionConfig(buffer_capacity_s=5.0)
        with pytest.warns(RuntimeWarning, match='"compiled".*"scratch"'):
            batch_log = BatchStreamingSession(
                video, MPCAlgorithm, traces, config, kernel="compiled"
            ).run()
        assert calls == {"run_session": 0}
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, MPCAlgorithm(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_subclassed_abr_uses_chunk_loop(self, video, monkeypatch):  # noqa: F811
        """A subclass that keeps BBA's vectorised decider is outside the
        fused kernel's reach (it may override what the kernel does not
        see): kernel="compiled" silently takes the scratch chunk loop —
        identical results, no error, no kernel call."""

        class RenamedBBA(BBAAlgorithm):
            name = "renamed-bba"

        calls = {"run_session": 0}
        real = _fused.run_session

        def counting(*args):
            calls["run_session"] += 1
            return real(*args)

        monkeypatch.setattr(_fused, "run_session", counting)
        traces = lane_traces(3, seed=54)
        config = SessionConfig(buffer_capacity_s=5.0)
        batch_log = BatchStreamingSession(
            video, RenamedBBA, traces, config, kernel="compiled"
        ).run()
        assert calls == {"run_session": 0}
        for k, trace in enumerate(traces):
            serial = StreamingSession(video, RenamedBBA(), trace, config).run()
            assert_logs_identical(serial, batch_log.lane(k))

    def test_fused_non_robust_mpc_uses_chunk_loop(self, video):  # noqa: F811
        """Plain (non-robust) MPC has no kernel pack, so the compiled tier
        must fall back to the scratch chunk loop and still match serial."""
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
        kernel pack; the fused plan rejects the mix and the scratch chunk
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
