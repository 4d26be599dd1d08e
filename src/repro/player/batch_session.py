"""Lockstep multi-session replay: one chunk loop over K trace lanes.

A scalar replay (:class:`~repro.player.session.StreamingSession`) pays
per-chunk CPython work (the TCP download, the ABR decision call, record
construction, buffer bookkeeping) on every chunk, and every Setting-B
query pays it once per posterior sample.  :class:`BatchStreamingSession`
removes that multiplier: it replays streaming sessions over ``K``
bandwidth lanes at once, advancing all sessions chunk by chunk in
lockstep with array-valued buffer levels, stall accounting and congestion
state, and writing a column-oriented
:class:`~repro.player.logs.SessionLogBatch` instead of K record lists.

Lanes are organised into **partitions**: contiguous runs of lanes sharing
one ABR algorithm and player config.  A single counterfactual query uses
one partition (its K posterior samples); the engine fuses *several*
queries' lanes into one batch — same video, RTT and request overhead, but
different ABRs and buffer capacities per partition — so the fixed
per-chunk cost amortises over every replay of a sweep, not just one
query's samples.

Semantics are pinned to :class:`~repro.player.session.StreamingSession`:
every float the lockstep loop produces is **bit-identical** to what K
independent serial sessions would log (``tests/test_batch_replay.py``).
This relies on three facts:

* elementwise NumPy float64 arithmetic performs exactly the scalar IEEE
  operations, so vectorised buffer/stall updates match the scalar ones
  (per-lane buffer capacities broadcast the same way);
* the RTT estimator sees the same constant RTT once per chunk on every
  lane, so its state is a shared scalar, not a column;
* ABR decisions come from an exact vectorised ``choose_quality_batch``
  (BBA, BOLA — pure threshold/index arithmetic; MPC — per-lane predictor
  state advanced in lockstep from column observation histories).

The lockstep layer runs vectorised code only.  An ABR without a trusted
``choose_quality_batch`` (rate-based, random, a subclass that overrides
``choose_quality``), or with an ``observe_download`` feedback hook (e.g.
the Veritas-in-the-loop ABR, which needs materialized per-chunk records
mid-session), is rejected with ``ValueError``, as is the ``"reference"``
tier: both replay on the scalar
:class:`~repro.player.session.StreamingSession`, one per lane, through
:func:`~repro.causal.engine.run_setting`.
:func:`abr_supports_batch_replay` reports which ABRs qualify so callers
can route the others.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..abr.base import ABRAlgorithm, BatchABRContext
from ..abr.bba import BBAAlgorithm
from ..abr.bola import BOLAAlgorithm
from ..abr.mpc import MPCAlgorithm
from ..net.trace import PiecewiseConstantTrace, TraceBatch
from ..tcp.connection import BatchTCPConnection, resolve_kernel
from ..video.chunks import Video
from . import _fused
from .logs import SessionLogBatch
from .session import SessionConfig

__all__ = ["BatchStreamingSession", "LaneGroup", "abr_supports_batch_replay"]


def abr_supports_batch_replay(abr: ABRAlgorithm) -> bool:
    """Whether lockstep replay can drive ``abr``.

    It can when ``abr`` decides through a trusted vectorised
    ``choose_quality_batch`` (:func:`_vectorised_decider`) and has no
    ``observe_download`` feedback hook.  Every other ABR replays on the
    scalar session, one per lane.
    """
    return (
        getattr(abr, "observe_download", None) is None
        and _vectorised_decider(abr) is not None
    )


def _vectorised_decider(abr: ABRAlgorithm):
    """``abr.choose_quality_batch`` when it is safe to use, else ``None``.

    A batch implementation mirrors the scalar ``choose_quality`` of the
    class that defined it.  A subclass that overrides ``choose_quality``
    but *inherits* ``choose_quality_batch`` (e.g. a tweaked BBA) would
    silently diverge from serial replay on the vectorised path, so such
    algorithms replay on the scalar session instead: the batch method is
    only trusted when ``choose_quality`` is not overridden below the class
    that defined it.
    """
    scalar_depth = batch_depth = None
    for depth, klass in enumerate(type(abr).__mro__):
        attrs = klass.__dict__
        if batch_depth is None and "choose_quality_batch" in attrs:
            batch_depth = depth
        if scalar_depth is None and "choose_quality" in attrs:
            scalar_depth = depth
    if batch_depth is None or scalar_depth is None or scalar_depth < batch_depth:
        return None
    return abr.choose_quality_batch


class LaneGroup:
    """A contiguous run of lanes sharing one ABR factory and config."""

    __slots__ = ("abr_factory", "config", "traces")

    def __init__(
        self,
        abr_factory: Callable[[], ABRAlgorithm],
        config: SessionConfig,
        traces: Sequence[PiecewiseConstantTrace],
    ):
        if not traces:
            raise ValueError("a lane group needs at least one trace")
        self.abr_factory = abr_factory
        self.config = config
        self.traces = list(traces)


class _Partition:
    """Runtime decision state for one lane group."""

    __slots__ = ("start", "stop", "choose_batch", "context", "name", "wants_history")

    def __init__(self, start: int, stop: int, group: LaneGroup, video: Video):
        self.start = start
        self.stop = stop
        abr = group.abr_factory()
        if not abr_supports_batch_replay(abr):
            raise ValueError(
                f"{abr.name}: lockstep replay needs a trusted "
                "choose_quality_batch and no observe_download hook; replay "
                "this ABR with run_setting per lane"
            )
        self.name = abr.name
        self.choose_batch = abr.choose_quality_batch
        abr.reset()
        self.context = BatchABRContext(
            chunk_index=0,
            buffer_s=np.zeros(stop - start),
            buffer_capacity_s=group.config.buffer_capacity_s,
            last_quality=None,
            video=video,
        )
        # History-driven vectorised deciders (MPC's throughput predictor)
        # get per-chunk (K,) observation rows appended after each
        # download; threshold deciders skip the cost.
        self.wants_history = bool(getattr(abr, "uses_throughput_history", False))


class BatchStreamingSession:
    """K lockstep clients streaming ``video``, one per trace lane.

    Two construction forms:

    * ``BatchStreamingSession(video, abr_factory, traces, config)`` — one
      partition: K counterfactual bandwidths under a single Setting (the
      single-query shape);
    * ``BatchStreamingSession.fused(video, groups)`` — several
      :class:`LaneGroup` partitions advancing in one loop: the groups may
      differ in ABR and buffer capacity but must share the video, RTT and
      request overhead (the engine checks this when fusing queries).

    All lanes must share one trace boundary grid, and every group's ABR
    must pass :func:`abr_supports_batch_replay`; ``abr_factory`` is called
    once per group per :meth:`run`.  The session serves the ``"scratch"``
    and ``"compiled"`` tiers; :attr:`kernel` holds the tier that serves
    (see :func:`~repro.tcp.connection.resolve_kernel`).  The
    ``"reference"`` tier, like an ABR the lockstep loop cannot drive, is
    a ``ValueError``: it replays on the scalar session through
    :func:`~repro.causal.engine.run_setting`.
    """

    def __init__(
        self,
        video: Video,
        abr_factory: Callable[[], ABRAlgorithm] | None = None,
        traces: "TraceBatch | Sequence[PiecewiseConstantTrace] | None" = None,
        config: SessionConfig | None = None,
        kernel: str | None = None,
        groups: "Sequence[LaneGroup] | None" = None,
    ):
        # Fail at construction on unknown tier names; None picks the
        # fastest tier this machine can build.
        self.kernel = resolve_kernel(kernel)
        if self.kernel == "reference":
            raise ValueError(
                'kernel="reference" is the scalar session: replay each '
                "lane with run_setting"
            )
        prebuilt: TraceBatch | None = None
        if groups is None:
            if abr_factory is None or traces is None:
                raise ValueError("need abr_factory and traces (or groups)")
            if isinstance(traces, TraceBatch):
                prebuilt = traces
                lanes = [traces.lane(k) for k in range(traces.n_lanes)]
            else:
                lanes = list(traces)
            groups = [LaneGroup(abr_factory, config or SessionConfig(), lanes)]
        elif abr_factory is not None or traces is not None:
            raise ValueError("pass either groups or abr_factory/traces, not both")
        rtts = {g.config.rtt_s for g in groups}
        overheads = {g.config.request_overhead_s for g in groups}
        if len(rtts) != 1 or len(overheads) != 1:
            raise ValueError(
                "fused lane groups must share rtt_s and request_overhead_s"
            )
        self.video = video
        self.groups = list(groups)
        self.batch = (
            prebuilt
            if prebuilt is not None
            else TraceBatch([t for g in self.groups for t in g.traces])
        )
        self.rtt_s = rtts.pop()
        self.request_overhead_s = overheads.pop()

    @classmethod
    def fused(
        cls, video: Video, groups: "Sequence[LaneGroup]", kernel: str | None = None
    ) -> "BatchStreamingSession":
        """Build a multi-partition lockstep session (see class docstring)."""
        return cls(video, groups=groups, kernel=kernel)

    # ------------------------------------------------------------------
    def run(self) -> SessionLogBatch:
        """Simulate all K sessions in lockstep and return the column log."""
        video = self.video
        tb = self.batch
        n_lanes = tb.n_lanes

        partitions: list[_Partition] = []
        pos = 0
        for group in self.groups:
            partitions.append(
                _Partition(pos, pos + len(group.traces), group, video)
            )
            pos += len(group.traces)
        single = partitions[0] if len(partitions) == 1 else None

        capacity = np.empty(n_lanes)
        for part, group in zip(partitions, self.groups):
            capacity[part.start : part.stop] = group.config.buffer_capacity_s
        abr_names = [p.name for p in partitions for _ in range(p.stop - p.start)]

        connection = BatchTCPConnection(tb, rtt_s=self.rtt_s, start_time_s=0.0)
        if self.kernel == "compiled":
            plan = _fused_plan(partitions, video, n_lanes)
            if plan is not None:
                # The whole (lane-batch x session) loop in one compiled
                # call (bit-identical to the chunk loop below).
                return _FusedRunner(
                    self, capacity, abr_names, connection, plan
                ).run()
            # Some partition cannot run in-kernel (a subclassed ABR,
            # plain MPC, QoE tables over budget, mixed MPC configs): the
            # chunk loop below drives this session on the scratch pass
            # with the NumPy deciders, exactly as kernel="scratch" does.
        runner = _ScratchRunner(
            self, partitions, single, capacity, abr_names, connection
        )
        for n in range(video.n_chunks):
            runner.step(n)
        return runner.finish()


class _ScratchRunner:
    """Lockstep chunk loop of the scratch and compiled tiers.

    Mirrors :meth:`~repro.player.session.StreamingSession.run` float for
    float — the same IEEE float64 operations in the same order, the
    buffer and stall bookkeeping routed through preallocated per-batch
    buffers via ``out=`` ufuncs — so session logs stay bit-identical to
    the serial player.  Each :meth:`step` calls every partition's
    ``choose_quality_batch`` on its context and copies the decision into
    the shared quality buffer, then downloads the chunk on every lane
    with one :meth:`~repro.tcp.connection.BatchTCPConnection.download_batch`.
    """

    def __init__(
        self,
        session: "BatchStreamingSession",
        partitions: "list[_Partition]",
        single: "_Partition | None",
        capacity: np.ndarray,
        abr_names: list,
        connection: BatchTCPConnection,
    ):
        video = session.video
        tb = session.batch
        n_lanes = tb.n_lanes
        n_chunks = video.n_chunks
        self.video = video
        self.capacity = capacity
        self.abr_names = abr_names
        self.connection = connection
        self.chunk_dur = video.chunk_duration_s
        self.overhead = session.request_overhead_s
        self.rtt_s = session.rtt_s
        self.n_chunks = n_chunks
        self.n_qualities = video.n_qualities

        # Lockstep player state (arrays over lanes).
        self.level = np.zeros(n_lanes)
        self.now = np.zeros(n_lanes)
        self.total_rebuffer = np.zeros(n_lanes)
        self.total_bytes = np.zeros(n_lanes)
        self.startup_time = np.zeros(n_lanes)
        self.playing = False

        # Row views precomputed once; per-chunk gathers go through
        # ``np.take(..., out=)`` with no fresh temporaries.
        self.size_rows = list(video.size_matrix)
        self.bitrates = np.asarray(
            [video.bitrate_mbps(q) for q in range(video.n_qualities)]
        )

        shape = (n_chunks, n_lanes)
        self.col_quality = np.empty(shape, dtype=np.int64)
        self.col_size = np.empty(shape)
        self.col_start = np.empty(shape)
        self.col_end = np.empty(shape)
        self.col_before = np.empty(shape)
        self.col_after = np.empty(shape)
        self.col_rebuffer = np.empty(shape)
        self.col_cwnd = np.empty(shape, dtype=np.int64)
        self.col_ssthresh = np.empty(shape, dtype=np.int64)
        self.col_idle = np.empty(shape)
        self.col_srtt = np.empty(n_chunks)
        self.col_min_rtt = np.empty(n_chunks)
        self.col_rto = np.empty(n_chunks)

        # Per-chunk scratch buffers.
        self.quality = np.empty(n_lanes, dtype=np.int64)
        self.sizes = np.empty(n_lanes)
        self.wait = np.empty(n_lanes)
        self.tmp = np.empty(n_lanes)
        self.buf_before = np.empty(n_lanes)
        self.duration = np.empty(n_lanes)
        self.stall = np.zeros(n_lanes)  # stays zero until playback starts
        self.bmask = np.empty(n_lanes, dtype=bool)

        # Per-partition decision plumbing: persistent lane-slice views into
        # the shared buffers, bound to each partition's context once.
        self._decide = []
        self._hist = []
        for part in partitions:
            if single is not None:
                q_view = self.quality
                b_view = self.buf_before
                s_view = self.sizes
                d_view = self.duration
                m_view = self.bmask
            else:
                sl = slice(part.start, part.stop)
                q_view = self.quality[sl]
                b_view = self.buf_before[sl]
                s_view = self.sizes[sl]
                d_view = self.duration[sl]
                m_view = self.bmask[sl]
            context = part.context
            context.buffer_s = b_view
            self._decide.append((part.choose_batch, context, q_view))
            if part.wants_history:
                kp = part.stop - part.start
                thr = np.empty((n_chunks, kp))
                dur = np.empty((n_chunks, kp))
                self._hist.append(
                    (s_view, d_view, m_view, list(thr), list(dur), context)
                )

    def step(self, n: int) -> None:
        """Advance every lane through chunk ``n``."""
        level = self.level
        now = self.now
        tmp = self.tmp
        wait = self.wait
        playing = self.playing

        # 1. Sleep while the buffer is over capacity.
        np.subtract(level, self.capacity, out=wait)
        np.maximum(wait, 0.0, out=wait)
        if playing:
            np.subtract(level, wait, out=tmp)
            np.maximum(tmp, 0.0, out=level)
        np.add(now, wait, out=now)
        if self.overhead:
            if playing:
                np.subtract(self.overhead, level, out=tmp)
                np.maximum(tmp, 0.0, out=tmp)
                np.add(self.total_rebuffer, tmp, out=self.total_rebuffer)
                np.subtract(level, self.overhead, out=tmp)
                np.maximum(tmp, 0.0, out=level)
            np.add(now, self.overhead, out=now)

        # 2. ABR decisions from client-observable state only.  Contexts
        #    hold persistent views of buf_before, refreshed in place.
        np.copyto(self.buf_before, level)
        quality = self.quality
        for choose, context, q_view in self._decide:
            context.chunk_index = n
            chosen = choose(context)
            np.copyto(q_view, chosen)
            context.last_quality = chosen
        q_min = int(quality.min())
        q_max = int(quality.max())
        if q_min < 0 or q_max >= self.n_qualities:
            bad = q_min if q_min < 0 else q_max
            raise ValueError(
                f"batch replay chose invalid quality {bad} for chunk {n}"
            )
        sizes = self.sizes
        np.take(self.size_rows[n], quality, out=sizes)

        # 3. Lockstep download over all K traces.
        result = self.connection.download_batch(sizes, now)
        ends = result.end_times_s
        duration = self.duration
        np.subtract(ends, now, out=duration)
        if playing:
            stall = self.stall
            np.subtract(duration, level, out=stall)
            np.maximum(stall, 0.0, out=stall)
            np.subtract(level, duration, out=tmp)
            np.maximum(tmp, 0.0, out=level)
            np.add(self.total_rebuffer, stall, out=self.total_rebuffer)

        # 4. Append and log (result columns alias reusable buffers: copy
        #    them into the log rows before the next download).
        self.col_quality[n] = quality
        self.col_size[n] = sizes
        self.col_start[n] = now
        self.col_end[n] = ends
        self.col_before[n] = self.buf_before
        self.col_rebuffer[n] = self.stall
        self.col_cwnd[n] = result.cwnd_segments
        self.col_ssthresh[n] = result.ssthresh_segments
        self.col_idle[n] = result.time_since_last_send_s
        self.col_srtt[n] = result.srtt_s
        self.col_min_rtt[n] = result.min_rtt_s
        self.col_rto[n] = result.rto_s
        np.copyto(now, ends)
        np.add(level, self.chunk_dur, out=level)
        if n == 0:
            np.copyto(self.startup_time, now)
            self.playing = True
        self.col_after[n] = level
        np.add(self.total_bytes, sizes, out=self.total_bytes)

        # Observation histories (same order as the serial loop).
        for s_view, d_view, m_view, thr_rows, dur_rows, context in self._hist:
            np.less_equal(d_view, 0.0, out=m_view)
            if m_view.any():
                bad = float(d_view[m_view][0])
                raise ValueError(f"duration must be positive, got {bad!r}")
            row = thr_rows[n]
            np.divide(s_view, d_view, out=row)
            np.multiply(row, 8, out=row)
            np.divide(row, 1e6, out=row)
            drow = dur_rows[n]
            np.copyto(drow, d_view)
            context.throughput_history_mbps.append(row)
            context.download_time_history_s.append(drow)

    def finish(self) -> SessionLogBatch:
        """Assemble the column log (quality-derived columns in one shot)."""
        video = self.video
        col_quality = self.col_quality
        return SessionLogBatch(
            abr_names=self.abr_names,
            buffer_capacity_s=self.capacity,
            chunk_duration_s=self.chunk_dur,
            rtt_s=self.rtt_s,
            startup_time_s=self.startup_time,
            total_rebuffer_s=self.total_rebuffer,
            total_size_bytes=self.total_bytes,
            qualities=col_quality,
            size_bytes=self.col_size,
            start_times_s=self.col_start,
            end_times_s=self.col_end,
            buffer_before_s=self.col_before,
            buffer_after_s=self.col_after,
            rebuffer_s=self.col_rebuffer,
            ssim=np.take_along_axis(video.ssim_matrix, col_quality, axis=1),
            ssim_db=np.take_along_axis(
                video.ssim_db_matrix, col_quality, axis=1
            ),
            bitrate_mbps=self.bitrates[col_quality],
            cwnd_segments=self.col_cwnd,
            ssthresh_segments=self.col_ssthresh,
            time_since_last_send_s=self.col_idle,
            srtt_s=self.col_srtt,
            min_rtt_s=self.col_min_rtt,
            rto_s=self.col_rto,
        )


def _fused_plan(partitions: "list[_Partition]", video: Video, n_lanes: int):
    """Per-lane routing + per-partition parameter tables for the fused
    session kernel, or ``None`` when some partition cannot run in-kernel.

    Eligible partitions are exactly the shipped algorithm classes —
    ``type(abr)`` must *be* :class:`BBAAlgorithm` / :class:`BOLAAlgorithm`
    / :class:`MPCAlgorithm`, not a subclass: a subclass may override any
    method the kernels do not see, the same reasoning behind
    :func:`_vectorised_decider`'s MRO check.  MPC additionally needs its
    flattened horizon-search pack (robust mode, QoE tables within
    budget), and every MPC partition must share one video/horizon pack
    and predictor configuration, since the kernel carries a single table
    set and one ``(window, error_window)`` ring-buffer geometry.
    """
    n_parts = len(partitions)
    n_qualities = video.n_qualities
    kind = np.empty(n_lanes, dtype=np.int64)
    part = np.empty(n_lanes, dtype=np.int64)
    bba_f = np.zeros((n_parts, 4))
    bba_i = np.zeros((n_parts, 2), dtype=np.int64)
    bola_w = np.zeros((n_parts, n_qualities))
    mpc_pen = np.zeros((n_parts, 2))
    pack = None
    pred_key = None
    for i, p in enumerate(partitions):
        abr = p.choose_batch.__self__
        cap = p.context.buffer_capacity_s
        cls = type(abr)
        if cls is BBAAlgorithm:
            k = 0
            reservoir, upper, lowest, highest, r_min, r_max, _ = (
                abr.decision_kernel_plan(video, cap)
            )
            bba_f[i, 0] = reservoir
            bba_f[i, 1] = upper
            bba_f[i, 2] = r_min
            bba_f[i, 3] = r_max
            bba_i[i, 0] = lowest
            bba_i[i, 1] = highest
        elif cls is BOLAAlgorithm:
            k = 1
            bola_w[i] = abr.decision_kernel_weights(video, cap)
        elif cls is MPCAlgorithm:
            kp = abr.decision_kernel_pack(video)
            if kp is None:
                return None
            predictor = abr._predictor
            key = (
                predictor.window,
                predictor.error_window,
                predictor.cold_start_mbps,
            )
            if pack is None:
                pack = kp
                pred_key = key
            elif kp is not pack or key != pred_key:
                return None
            k = 2
            mpc_pen[i, 0] = abr.rebuffer_penalty
            mpc_pen[i, 1] = abr.switch_penalty
        else:
            return None
        kind[p.start : p.stop] = k
        part[p.start : p.stop] = i
    return kind, part, bba_f, bba_i, bola_w, mpc_pen, pack, pred_key


class _FusedRunner:
    """One fused-kernel call replaces the whole per-chunk session loop.

    Everything per-chunk — buffer/stall accounting, the ABR decision
    (with MPC's predictor ring buffers driven inside the kernel), the
    download and the column writes — happens inside a single
    :func:`repro.player._fused.run_session` call; only the shared RTT
    estimator sequence (a per-chunk scalar, identical across lanes) and
    the quality-derived log columns are produced in Python, before and
    after the call.  ``tests/test_dispatch_budget.py`` pins the single
    kernel entry; the parity suites pin the columns bit-identical to the
    chunk loop.
    """

    def __init__(
        self,
        session: "BatchStreamingSession",
        capacity: np.ndarray,
        abr_names: list,
        connection: BatchTCPConnection,
        plan: tuple,
    ):
        self.session = session
        self.capacity = capacity
        self.abr_names = abr_names
        self.connection = connection
        self.plan = plan

    def run(self) -> SessionLogBatch:
        session = self.session
        video = session.video
        tb = session.batch
        connection = self.connection
        n_lanes = tb.n_lanes
        n_chunks = video.n_chunks
        n_qualities = video.n_qualities
        kind, part, bba_f, bba_i, bola_w, mpc_pen, pack, pred_key = self.plan

        if pack is not None:
            meta, dbsum_flat, switch_flat, size_flat, db_flat = pack
            window, error_window, cold_start = pred_key
            hist = np.empty((n_lanes, window))
            errs = np.zeros((n_lanes, error_window))
            last_pred = np.full(n_lanes, -1.0)
        else:
            # No MPC lanes: 1-element placeholders the kernel never reads.
            meta = np.zeros((1, 3), dtype=np.int64)
            dbsum_flat = np.zeros(1)
            switch_flat = np.zeros(1)
            size_flat = np.ascontiguousarray(
                video.size_matrix, dtype=np.float64
            ).ravel()
            db_flat = np.zeros(1)
            window = error_window = 1
            cold_start = 0.0
            hist = np.zeros((1, 1))
            errs = np.zeros((1, 1))
            last_pred = np.zeros(1)
        rates = np.ascontiguousarray(
            video.ladder.bitrates_mbps, dtype=np.float64
        )

        # The shared RTT estimator sees the same constant RTT once per
        # chunk, so its per-chunk column values (pre-observe, logged as
        # download_batch logs them) and the rto the restart decay uses
        # are a precomputed sequence.  Advancing the connection's shared
        # state here leaves it exactly as n_chunks download_batch calls
        # would.
        shared = connection._shared
        rtt = session.rtt_s
        col_srtt = np.empty(n_chunks)
        col_min_rtt = np.empty(n_chunks)
        col_rto = np.empty(n_chunks)
        rto_seq = np.empty(n_chunks)
        for n in range(n_chunks):
            srtt, min_rtt, rto = shared.logged_rtts()
            col_srtt[n] = srtt
            col_min_rtt[n] = min_rtt
            rto_seq[n] = col_rto[n] = rto
            shared.observe_rtt(rtt)

        shape = (n_chunks, n_lanes)
        col_quality = np.empty(shape, dtype=np.int64)
        col_size = np.empty(shape)
        col_start = np.empty(shape)
        col_end = np.empty(shape)
        col_before = np.empty(shape)
        col_after = np.empty(shape)
        col_rebuffer = np.empty(shape)
        col_cwnd = np.empty(shape, dtype=np.int64)
        col_ssthresh = np.empty(shape, dtype=np.int64)
        col_idle = np.empty(shape)
        total_rebuffer = np.empty(n_lanes)
        total_bytes = np.empty(n_lanes)
        startup_time = np.empty(n_lanes)

        status = _fused.run_session(
            tb._bounds, tb._values2d, tb._rates2d, tb._cum2d,
            size_flat, db_flat, n_qualities, video.chunk_duration_s,
            self.capacity, session.request_overhead_s, rtt, rto_seq,
            kind, part, bba_f, bba_i, rates, bola_w, mpc_pen,
            meta, dbsum_flat, switch_flat,
            hist, errs, last_pred, window, error_window, cold_start,
            connection._cwnd, connection._ssthresh, connection._last_send,
            col_quality, col_size, col_start, col_end, col_before,
            col_after, col_rebuffer, col_cwnd, col_ssthresh, col_idle,
            total_rebuffer, total_bytes, startup_time,
        )
        if status == 1:
            raise RuntimeError(
                "transfer cannot complete: trailing bandwidth is zero"
            )
        if status == 2:
            raise ValueError(
                "duration must be positive (non-positive download "
                "duration observed in the fused session kernel)"
            )

        bitrates = np.asarray(
            [video.bitrate_mbps(q) for q in range(n_qualities)]
        )
        return SessionLogBatch(
            abr_names=self.abr_names,
            buffer_capacity_s=self.capacity,
            chunk_duration_s=video.chunk_duration_s,
            rtt_s=rtt,
            startup_time_s=startup_time,
            total_rebuffer_s=total_rebuffer,
            total_size_bytes=total_bytes,
            qualities=col_quality,
            size_bytes=col_size,
            start_times_s=col_start,
            end_times_s=col_end,
            buffer_before_s=col_before,
            buffer_after_s=col_after,
            rebuffer_s=col_rebuffer,
            ssim=np.take_along_axis(video.ssim_matrix, col_quality, axis=1),
            ssim_db=np.take_along_axis(
                video.ssim_db_matrix, col_quality, axis=1
            ),
            bitrate_mbps=bitrates[col_quality],
            cwnd_segments=col_cwnd,
            ssthresh_segments=col_ssthresh,
            time_since_last_send_s=col_idle,
            srtt_s=col_srtt,
            min_rtt_s=col_min_rtt,
            rto_s=col_rto,
        )
