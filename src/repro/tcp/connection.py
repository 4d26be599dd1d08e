"""Flow-level TCP download simulator.

This is the repo's substitute for the paper's Mahimahi + Linux TCP
testbed.  A :class:`TCPConnection` downloads chunks over a
time-varying :class:`~repro.net.trace.PiecewiseConstantTrace` using the same
congestion-control mechanisms the paper's estimator models — slow start,
additive congestion avoidance, and RFC 2861 slow-start restart after idle
periods — but, unlike the estimator, it sees the *actual* bandwidth at each
instant of the download rather than a single constant.

The simulation alternates between two regimes:

* **window-limited rounds** while ``cwnd`` is below the instantaneous BDP:
  each round lasts one RTT and moves ``cwnd`` segments;
* **fluid transfer** once the pipe is full: the remaining bytes drain at
  the (time-varying) link rate via ``trace.time_to_transfer``.

This produces exactly the observable biases the paper documents: small
chunks see throughput far below GTBW (Fig. 2(c)), idle gaps reset the
window, and only > BDP transfers observe throughput close to GTBW.

Three kernel tiers implement session replay, selected by the ``kernel=``
argument of :class:`~repro.causal.engine.CounterfactualEngine` and of
:class:`~repro.player.batch_session.BatchStreamingSession`.  ``None``
picks the fastest tier this machine can build: ``"compiled"`` when the
cc+cffi build of :mod:`repro.player._fused` loads, else ``"scratch"``
(:func:`resolve_kernel`):

=========  ==============  =====================  ======================
tier       job             chunk download         session loop
=========  ==============  =====================  ======================
reference  golden          scalar per-RTT loop    one scalar
           reference       (``TCPConnection``)    ``StreamingSession``
                                                  per lane
scratch    portable NumPy  NumPy round skip over  lockstep per-chunk
           (default        K lanes                loop over K lanes
           without cc)
compiled   fastest native  inside the session     one compiled call per
           (default with   kernel, else the       session, else the
           cc)             NumPy round skip       scratch per-chunk loop
=========  ==============  =====================  ======================

* The **reference** tier is the scalar session: a
  :class:`TCPConnection`, whose every download runs the golden per-RTT
  loop (:func:`_reference_download`), under
  :class:`~repro.player.session.StreamingSession`.  The engine replays
  each lane this way; the lockstep layer does not serve it.
* The **NumPy round skip** of :class:`BatchTCPConnection` downloads
  every chunk on all K lanes in closed form: per lane, the round that
  fills the pipe and the round that exhausts the data are counts over a
  cached window schedule (``_ScheduleTable``), a pipe-full lane drains at
  the link rate, and a drain that leaves its trace interval walks the
  cumulative-bytes integral.  The lanes it cannot resolve (a
  window-limited phase that crosses a trace interval, or outruns the
  ``_ScheduleTable`` horizon) spill to the per-RTT loop per lane.
* The **compiled** tier runs the whole session in one
  :func:`repro.player._fused.run_session` call whenever every
  partition's ABR has a kernel plan (the shipped BBA/BOLA/RobustMPC);
  any other session runs the per-chunk loop on the scratch pass with the
  NumPy deciders, exactly what ``"scratch"`` runs.  ``run_session`` is
  the only native replay code: ``"reference"`` and ``"scratch"`` run
  none.  It is a cc + cffi build of a C transcription, made at first
  use; when the build fails (no C compiler or no cffi),
  :func:`resolve_kernel` degrades an explicit ``"compiled"`` to
  ``"scratch"`` with a once-per-process ``RuntimeWarning``, and the
  default picks ``"scratch"`` silently.  Either way the resolved name is
  the tier that serves.

All tiers evaluate the same float predicates in the same order, so they
produce session logs bit-identical to the scalar session (see
``tests/test_replay_parity.py``, ``tests/test_batch_replay.py``,
``tests/test_compiled_kernel.py``).  The compiled tier is bit-identical
too: its C uses only IEEE-754 basic operations, no libm, and is built
with ``-fno-fast-math -ffp-contract=off``.  Unknown kernel names raise
``ValueError`` at construction time, listing the available tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..net.trace import (
    _EPS_BYTES,
    PiecewiseConstantTrace,
    TraceBatch,
)
from ..util.compiled import warn_fallback
from ..util.units import mbps_to_bytes_per_sec, throughput_mbps
from .constants import (
    INIT_CWND_SEGMENTS,
    INITIAL_SSTHRESH_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
    SLOW_START_GROWTH,
)
from .state import MutableTCPState, TCPStateSnapshot, apply_slow_start_restart

__all__ = [
    "KERNEL_TIERS",
    "BatchDownloadResult",
    "BatchTCPConnection",
    "DownloadResult",
    "TCPConnection",
    "resolve_kernel",
]

KERNEL_TIERS = ("reference", "scratch", "compiled")
"""All selectable kernel tiers, slowest (golden reference) first."""


def resolve_kernel(kernel: str | None) -> str:
    """The tier that will serve ``kernel``, or ``ValueError`` if unknown.

    ``None`` picks the fastest tier this machine can build: ``"compiled"``
    when the cc+cffi build of the one replay library,
    :mod:`repro.player._fused`, loads (its ``backend()`` is ``"cc"``; the
    first call builds it), else the portable ``"scratch"``, silently.  An
    explicit ``"compiled"`` that cannot be served degrades to
    ``"scratch"`` with a once-per-process ``RuntimeWarning``.  All
    construction paths (batch sessions, the engine, the CLI) funnel
    through here, so an unknown name fails loudly with the list of
    available tiers instead of silently running a default.
    """
    if kernel is not None and kernel not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel {kernel!r}; available tiers: {KERNEL_TIERS}"
        )
    if kernel is None or kernel == "compiled":
        # repro.player imports this module, so the import waits for the call.
        from ..player import _fused

        if kernel is None:
            return "compiled" if _fused.backend() == "cc" else "scratch"
        if not _fused.available():
            warn_fallback("replay", "compiled", "scratch")
            return "scratch"
    return kernel


def _grow_window(cwnd: int, ssthresh: int) -> int:
    """One round of window growth (slow start below ssthresh, else +1)."""
    if cwnd < ssthresh:
        return min(max(cwnd + 1, int(cwnd * SLOW_START_GROWTH)), MAX_CWND_SEGMENTS)
    return min(cwnd + 1, MAX_CWND_SEGMENTS)


class _ScheduleTable:
    """Padded 2D window schedules for the scratch kernel's round skip.

    One row per distinct ``(cwnd0, ssthresh)`` pair, every row populated
    out to a fixed ``HORIZON`` of rounds: ``cb[p, r]`` is the congestion
    window in bytes at the start of round ``r`` (the ``cwnd * MSS`` the
    per-RTT loop compares against the BDP and the remaining bytes),
    ``cum_mss`` the bytes sent over rounds ``0..r-1``, and
    ``cover = cb + cum_mss`` — all exact in float64, so the loop's
    ``cwnd * MSS >= size - sent * MSS`` and the countable
    ``cover[r] >= size`` agree bit for bit.  ``cwnds`` keeps one extra
    column so round ``r``'s post-growth window is a plain gather.  A lane
    whose window-limited phase outruns the horizon runs the per-RTT loop.

    Row lookup is a single ``searchsorted`` over the packed sorted keys,
    so a whole lane batch resolves its per-lane schedules without any
    per-group Python loop.  Rows build lazily on first sight of a pair —
    a whole miss batch at once through the same vectorised recurrence the
    round loop uses (:func:`_grow_window_batch`), appended into
    capacity-doubled stores with the sorted key index rebuilt per batch,
    so the table never pays per-row ``np.insert`` reallocation.
    """

    HORIZON = 32
    _INIT_CAP = 256

    def __init__(self):
        h = self.HORIZON
        self._cap = self._INIT_CAP
        self._n = 0
        self._keys = np.empty(self._cap, dtype=np.int64)
        self._cb = np.empty((self._cap, h))
        self._cover = np.empty((self._cap, h))
        self._cum_mss = np.empty((self._cap, h))
        self._cwnds = np.empty((self._cap, h + 1), dtype=np.int64)
        self._refresh()

    def _refresh(self) -> None:
        n = self._n
        self.cb = self._cb[:n]
        self.cover = self._cover[:n]
        self.cum_mss = self._cum_mss[:n]
        self.cwnds = self._cwnds[:n]
        # Flat views (leading slices of C-contiguous stores, so reshape
        # is a view) for `np.take(flat, row * width + col)` gathers.
        self.cum_mss_flat = self.cum_mss.reshape(-1)
        self.cwnds_flat = self.cwnds.reshape(-1)
        order = np.argsort(self._keys[:n], kind="stable")
        self.sorted_keys = self._keys[:n][order]
        self.order = order

    def _grow(self, need: int) -> None:
        cap = self._cap
        while cap < need:
            cap *= 2
        for name in ("_keys", "_cb", "_cover", "_cum_mss", "_cwnds"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)
        self._cap = cap

    def _build_rows(self, missing: np.ndarray) -> None:
        p = missing.size
        if self._n + p > self._cap:
            self._grow(self._n + p)
        h = self.HORIZON
        s = slice(self._n, self._n + p)
        cb = self._cb[s]
        cover = self._cover[s]
        cum_mss = self._cum_mss[s]
        cwnds = self._cwnds[s]
        c = (missing >> 21).copy()
        ssthresh = missing & ((1 << 21) - 1)
        cum = np.zeros(p, dtype=np.int64)
        # All quantities are integers below 2**53, so the float columns
        # hold exactly the values the per-RTT loop computes.
        for r in range(h):
            cwnds[:, r] = c
            cb[:, r] = c * MSS_BYTES
            cum_mss[:, r] = cum * MSS_BYTES
            cover[:, r] = cb[:, r] + cum_mss[:, r]
            cum += c
            c = _grow_window_batch(c, ssthresh)
        cwnds[:, h] = c
        self._keys[s] = missing
        self._n += p
        self._refresh()

    def rows_for(self, keys: np.ndarray) -> np.ndarray:
        """Row index per packed key, building unseen rows on demand."""
        sk = self.sorted_keys
        if sk.size:
            pos = np.searchsorted(sk, keys)
            np.minimum(pos, sk.size - 1, out=pos)
            if (sk[pos] == keys).all():
                return self.order[pos]
            missing = np.unique(keys[sk[pos] != keys])
        else:
            missing = np.unique(keys)
        self._build_rows(missing)
        return self.order[np.searchsorted(self.sorted_keys, keys)]


_SCHED_TABLE = _ScheduleTable()


# The per-RTT download kernel, shared between the scalar TCPConnection and
# the per-lane paths of BatchTCPConnection.  Module-level (rather than a
# method) so the batch engine runs *exactly* this code for lanes its
# vectorised pass cannot cover — bit-identity by construction.


def _fluid_finish(
    trace: PiecewiseConstantTrace,
    rtt: float,
    t: float,
    remaining: float,
    rounds: int,
    cwnd: int,
) -> tuple[float, int, int]:
    """Drain ``remaining`` bytes at the link rate starting at ``t``.

    time_to_transfer waits through zero-bandwidth intervals and raises
    only if bandwidth never resumes.  The window keeps opening ~1
    segment per RTT while the transfer proceeds in congestion
    avoidance.
    """
    fluid_s = trace.time_to_transfer(t, remaining)
    cwnd = min(cwnd + max(0, int(fluid_s / rtt)), MAX_CWND_SEGMENTS)
    rounds += max(1, math.ceil(fluid_s / rtt))
    return t + fluid_s, rounds, cwnd


def _reference_download(
    trace: PiecewiseConstantTrace,
    rtt: float,
    size_bytes: float,
    t0: float,
    cwnd: int,
    ssthresh: int,
) -> tuple[float, int, int]:
    """Per-RTT scalar loop: the golden reference kernel.

    Each window-limited round lasts one RTT and moves ``cwnd`` segments;
    once the pipe is full the rest drains as a fluid transfer.
    """
    rounds = 0
    sent_segments = 0
    while True:
        t = t0 + rounds * rtt
        remaining = size_bytes - sent_segments * MSS_BYTES
        bandwidth = trace.value_at(t)
        bdp_bytes = mbps_to_bytes_per_sec(bandwidth) * rtt
        cwnd_bytes = cwnd * MSS_BYTES
        if cwnd_bytes >= bdp_bytes:
            # Pipe is (or can be kept) full — drain at the link rate.
            return _fluid_finish(trace, rtt, t, remaining, rounds, cwnd)
        if cwnd_bytes >= remaining:
            # Final window-limited round: one RTT moves the rest.
            return t0 + (rounds + 1) * rtt, rounds + 1, _grow_window(cwnd, ssthresh)
        # Full window-limited round: one RTT moves cwnd segments.
        sent_segments += cwnd
        cwnd = _grow_window(cwnd, ssthresh)
        rounds += 1


@dataclass(frozen=True, slots=True)
class DownloadResult:
    """Outcome of a single chunk download."""

    start_time_s: float
    end_time_s: float
    size_bytes: float
    rounds: int
    slow_start_restarted: bool
    tcp_state_at_start: TCPStateSnapshot

    @property
    def duration_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def throughput_mbps(self) -> float:
        return throughput_mbps(self.size_bytes, self.duration_s)


class TCPConnection:
    """A persistent TCP connection downloading chunks over a bandwidth trace.

    Parameters
    ----------
    trace:
        Ground-truth bandwidth over time (Mbps).
    rtt_s:
        End-to-end round-trip propagation delay (the paper uses 80 ms).
    start_time_s:
        Wall-clock time at which the connection is established.

    Every download runs the golden per-RTT loop: this is the connection
    of the ``"reference"`` replay tier, and :class:`BatchTCPConnection`'s
    lanes are pinned bit-identical to it.
    """

    def __init__(
        self,
        trace: PiecewiseConstantTrace,
        rtt_s: float = 0.08,
        start_time_s: float = 0.0,
    ):
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive, got {rtt_s}")
        self.trace = trace
        self.rtt_s = rtt_s
        self.state = MutableTCPState(last_send_time_s=start_time_s)
        # The handshake measures the first RTT sample.
        self.state.observe_rtt(rtt_s)

    # ------------------------------------------------------------------
    def snapshot(self, now_s: float) -> TCPStateSnapshot:
        """The ``tcp_info`` record a client would log at time ``now_s``."""
        return self.state.snapshot(now_s)

    # ------------------------------------------------------------------
    def download(self, size_bytes: float, start_time_s: float) -> DownloadResult:
        """Download ``size_bytes`` starting at ``start_time_s``.

        Advances the connection's congestion state and returns the timing of
        the transfer.  Raises :class:`ValueError`, before touching any
        state, unless the size is finite and positive and the start time
        finite, and :class:`RuntimeError` if the trace bandwidth is zero
        forever after the start time (the transfer would never finish).
        """
        # NaN slips through ordered comparisons, and on a link whose BDP
        # exceeds the window cap the per-RTT loop never finishes a NaN or
        # infinite size.
        if not (math.isfinite(size_bytes) and size_bytes > 0):
            raise ValueError(f"size must be finite and positive, got {size_bytes}")
        if not math.isfinite(start_time_s):
            raise ValueError(f"start time must be finite, got {start_time_s}")
        if start_time_s < self.state.last_send_time_s:
            raise ValueError(
                f"download at {start_time_s} precedes last send at "
                f"{self.state.last_send_time_s}; requests must move forward in time"
            )

        state = self.state
        snapshot = state.snapshot(start_time_s)

        cwnd, ssthresh, restarted = apply_slow_start_restart(
            state.cwnd_segments,
            state.ssthresh_segments,
            snapshot.time_since_last_send_s,
            snapshot.rto_s,
        )

        # The HTTP request consumes one round trip before payload flows;
        # the client-side download time (what logs record) includes it.
        t0 = float(start_time_s) + self.rtt_s
        end_time, rounds, cwnd = _reference_download(
            self.trace, self.rtt_s, float(size_bytes), t0, cwnd, ssthresh
        )

        state.cwnd_segments = cwnd
        state.ssthresh_segments = ssthresh
        state.observe_rtt(self.rtt_s)
        state.last_send_time_s = end_time

        return DownloadResult(
            start_time_s=start_time_s,
            end_time_s=end_time,
            size_bytes=size_bytes,
            rounds=rounds,
            slow_start_restarted=restarted,
            tcp_state_at_start=snapshot,
        )

    # ------------------------------------------------------------------
    def reset(self, start_time_s: float = 0.0) -> None:
        """Forget all congestion state (a brand-new connection)."""
        self.state = MutableTCPState(last_send_time_s=start_time_s)
        self.state.observe_rtt(self.rtt_s)
        self.state.cwnd_segments = INIT_CWND_SEGMENTS


def _grow_window_batch(cwnd: np.ndarray, ssthresh: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_grow_window` (element-wise identical)."""
    slow_start = cwnd < ssthresh
    grown = np.where(
        slow_start,
        np.maximum(cwnd + 1, (cwnd * SLOW_START_GROWTH).astype(np.int64)),
        cwnd + 1,
    )
    return np.minimum(grown, MAX_CWND_SEGMENTS)


def _fluid_grow_batch(
    cwnd: np.ndarray, fluid_s: np.ndarray, rtt: float
) -> np.ndarray:
    """Vectorised post-fluid-drain window growth.

    Mirrors :func:`_fluid_finish`'s ``min(cwnd + max(0, int(fluid/rtt)),
    MAX)`` update element-wise for the scratch tier's spill-over drains.
    """
    ratio = fluid_s / rtt
    return np.minimum(
        cwnd + np.maximum(0, ratio.astype(np.int64)), MAX_CWND_SEGMENTS
    )


class _BatchScratch:
    """Per-batch scratch buffers of :class:`BatchTCPConnection`."""

    __slots__ = (
        "idle", "t0", "bdp", "rate0", "fluid", "f1", "f2", "f3", "rem", "tf",
        "cwnd_pre", "ssthresh_pre", "flat_idx", "idx1", "i1", "ti", "ti2",
        "dec", "trig", "act", "m", "hot",
    )

    def __init__(self, n_lanes: int):
        for name in (
            "idle", "t0", "bdp", "rate0", "fluid", "f1", "f2", "f3", "rem", "tf",
        ):
            setattr(self, name, np.empty(n_lanes))
        for name in (
            "cwnd_pre", "ssthresh_pre", "flat_idx", "idx1", "i1", "ti", "ti2",
            "dec",
        ):
            setattr(self, name, np.empty(n_lanes, dtype=np.int64))
        for name in ("trig", "act", "m", "hot"):
            setattr(self, name, np.empty(n_lanes, dtype=bool))


class BatchDownloadResult:
    """Column-oriented outcome of one lockstep chunk download over K lanes.

    The per-lane ``tcp_info`` snapshot decomposes into the per-lane columns
    plus the shared scalars — RTT bookkeeping is identical across lanes
    (every lane observes the same RTT once per download), so
    ``srtt``/``min_rtt``/``rto`` are per-chunk scalars, not columns.

    A connection hands the same instance back on every ``download_batch``
    call with its columns aliasing per-batch buffers — valid only until
    the next call; callers copy what they keep.
    """

    __slots__ = (
        "start_times_s",
        "end_times_s",
        "size_bytes",
        "cwnd_segments",
        "ssthresh_segments",
        "time_since_last_send_s",
        "srtt_s",
        "min_rtt_s",
        "rto_s",
    )


def _check_downloads(
    sizes: np.ndarray, starts: np.ndarray, last_send: np.ndarray
) -> None:
    """:meth:`TCPConnection.download`'s input checks on every lane, in its
    order; ``ValueError`` names the first lane to fail one."""
    # NaN fails every comparison, so each mask below also catches it.
    bad = np.flatnonzero(~((sizes > 0) & (sizes < np.inf)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"lane {k}: size must be finite and positive, got {sizes[k]}"
        )
    bad = np.flatnonzero(~np.isfinite(starts))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"lane {k}: start time must be finite, got {starts[k]}")
    bad = np.flatnonzero(starts < last_send)
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"lane {k}: download at {starts[k]} precedes last send at "
            f"{last_send[k]}; requests must move forward in time"
        )


class BatchTCPConnection:
    """K persistent TCP connections advanced in lockstep over a trace batch.

    One instance per :class:`~repro.net.trace.TraceBatch` lane set; the
    congestion state (cwnd, ssthresh, last send time) is array-valued while
    the RTT estimator state is shared (all lanes observe the same constant
    RTT, so their ``srtt``/``rto`` sequences are identical).

    Each :meth:`download_batch` call advances all K lanes through one
    chunk on the NumPy round skip.  The connection takes no tier: it
    serves the lockstep chunk loop of the ``"scratch"`` and
    ``"compiled"`` tiers, the compiled tier's native code runs whole
    sessions in :class:`~repro.player.batch_session.BatchStreamingSession`,
    and the ``"reference"`` tier is the scalar :class:`TCPConnection` (see
    the tier table in the module docstring).  Results are bit-identical
    to K independent scalar connections (see
    ``tests/test_batch_replay.py``).
    """

    def __init__(
        self,
        batch: TraceBatch,
        rtt_s: float = 0.08,
        start_time_s: float = 0.0,
    ):
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive, got {rtt_s}")
        self.batch = batch
        self.rtt_s = rtt_s
        n = batch.n_lanes
        self._shared = MutableTCPState(last_send_time_s=start_time_s)
        self._shared.observe_rtt(rtt_s)
        self._cwnd = np.full(n, INIT_CWND_SEGMENTS, dtype=np.int64)
        self._ssthresh = np.full(n, INITIAL_SSTHRESH_SEGMENTS, dtype=np.int64)
        self._last_send = np.full(n, float(start_time_s))
        self._scratch = _BatchScratch(n)
        self._result = BatchDownloadResult()

    @property
    def n_lanes(self) -> int:
        return self.batch.n_lanes

    # ------------------------------------------------------------------
    # The NumPy round skip
    # ------------------------------------------------------------------
    def _restart_scratch(self, idle: np.ndarray, rto: float) -> None:  # repro: scratch
        """In-place masked slow-start-restart decay of ``_cwnd``/``_ssthresh``.

        Element-wise identical to the scalar halving loop of
        :func:`~repro.tcp.state.apply_slow_start_restart`: untriggered lanes
        carry inert values through the masked iterations and are never
        written back.
        """
        b = self._scratch
        cwnd = self._cwnd
        np.greater(idle, rto, out=b.m)
        np.greater(cwnd, INIT_CWND_SEGMENTS, out=b.act)
        np.logical_and(b.m, b.act, out=b.trig)
        if not np.count_nonzero(b.trig):
            return
        np.copyto(b.rem, idle)
        np.copyto(b.dec, cwnd)
        np.copyto(b.act, b.trig)
        while True:
            # ``rem`` may decay unconditionally: lanes only ever leave the
            # active set (the loop mask is a monotone AND) and ``rem`` is
            # never read after the loop, so inactive lanes' values are
            # inert.  ``dec`` IS read after the loop and must freeze at
            # each lane's exit iteration, hence the masked write-back.
            np.subtract(b.rem, rto, out=b.rem)
            np.right_shift(b.dec, 1, out=b.ti)
            np.copyto(b.dec, b.ti, where=b.act)
            np.greater(b.rem, rto, out=b.m)
            np.logical_and(b.act, b.m, out=b.act)
            np.greater(b.dec, INIT_CWND_SEGMENTS, out=b.m)
            np.logical_and(b.act, b.m, out=b.act)
            if not np.count_nonzero(b.act):
                break
        np.maximum(b.dec, INIT_CWND_SEGMENTS, out=b.dec)
        np.copyto(cwnd, b.dec, where=b.trig)
        np.right_shift(b.dec, 1, out=b.ti)
        np.right_shift(b.dec, 2, out=b.ti2)
        np.add(b.ti, b.ti2, out=b.ti)
        np.maximum(b.ti, self._ssthresh, out=b.ti)
        np.maximum(b.ti, 2, out=b.ti)
        np.copyto(self._ssthresh, b.ti, where=b.trig)

    def download_batch(
        self, size_bytes: np.ndarray, start_times_s: np.ndarray
    ) -> BatchDownloadResult:
        """Download ``size_bytes[k]`` on every lane ``k`` starting at
        ``start_times_s[k]``; advances all K congestion states.

        Returns a reusable result whose columns alias per-batch buffers:
        copy anything you keep before the next ``download_batch`` call.

        The slow-start restart decays the windows in place
        (:meth:`_restart_scratch`), then every lane runs the vectorised
        round skip (:meth:`_skip_rounds_scratch`); a lane whose pipe is
        full when its payload starts is the skip's zero-round case.

        Raises :class:`ValueError`, naming the first bad lane and value,
        before touching any state, unless every size is finite and
        positive, every start finite and no start before its lane's last
        send: the checks of :meth:`TCPConnection.download`, lane by lane.
        """
        b = self._scratch
        rtt = self.rtt_s
        shared = self._shared
        starts = np.asarray(start_times_s, dtype=float)
        sizes = np.asarray(size_bytes, dtype=float)
        _check_downloads(sizes, starts, self._last_send)

        idle = b.idle
        np.subtract(starts, self._last_send, out=idle)
        np.maximum(idle, 0.0, out=idle)
        srtt, min_rtt, rto = shared.logged_rtts()
        np.copyto(b.cwnd_pre, self._cwnd)
        np.copyto(b.ssthresh_pre, self._ssthresh)

        self._restart_scratch(idle, rto)

        t0 = b.t0
        np.add(starts, rtt, out=t0)
        # ``ends`` aliases the live last-send state: idle (above) was the
        # only reader of the previous chunk's values.
        ends = self._last_send
        self._skip_rounds_scratch(t0, sizes, ends)

        shared.observe_rtt(rtt)
        return self._fill_result(starts, ends, sizes, srtt, min_rtt, rto)

    def _skip_rounds_scratch(
        self, t0: np.ndarray, sizes: np.ndarray, ends: np.ndarray
    ) -> None:
        """Vectorised closed-form round skip of one chunk on every lane.

        Within one constant-bandwidth interval the BDP is constant, so the
        first round of :func:`_reference_download` to fill the pipe
        (``kf``) and its data-exhaustion round (``kd``) are bisections of
        the per-lane window schedule — no per-RTT loop.  Per-lane
        schedules resolve through the shared :class:`_ScheduleTable` (one
        ``searchsorted`` row lookup, then a broadcast count against the
        padded rows — bisect_left as a monotone-predicate sum),
        pipe-full-at-round-0 lanes fall out with ``k == 0``, and the fluid
        drains that leave their interval merge into one batched
        :meth:`~repro.net.trace.TraceBatch.transfer_drain` call.  Lanes
        whose window-limited phase would cross an interval boundary or
        outrun the table horizon spill to the per-RTT loop per lane.
        """
        b = self._scratch
        tb = self.batch
        rtt = self.rtt_s
        cwnd = self._cwnd
        ssthresh = self._ssthresh
        bounds = tb._bounds
        last = tb.n_intervals - 1
        table = _SCHED_TABLE
        h = table.HORIZON

        # Each lane's interval at t0 and its BDP there, in the per-RTT
        # loop's float order: value * 1e6 / 8 * rtt.
        idx0 = tb.interval_indices(t0)
        flat = b.flat_idx
        np.add(idx0, tb._row_off, out=flat)  # flat index of (lane, idx0)
        bdp = b.bdp
        tb._values_flat.take(flat, out=bdp, mode="clip")
        np.multiply(bdp, 1_000_000, out=bdp)
        np.divide(bdp, 8, out=bdp)
        np.multiply(bdp, rtt, out=bdp)

        # ssthresh only ever rises toward (and never beyond) max(initial,
        # 3/4 * MAX_CWND), so the packed key is collision-free.
        rows = table.rows_for(cwnd * (1 << 21) + ssthresh)
        kf = np.add.reduce(table.cb[rows] < bdp[:, None], axis=1)
        kd = np.add.reduce(table.cover[rows] < sizes[:, None], axis=1)
        k = np.minimum(kf, kd)
        tk = t0 + k * rtt
        # Valid while round k stays within the table horizon and its BDP
        # probe still lands in the starting interval (the final interval's
        # value holds forever, mirroring value_at's clamp).
        ok = (k < h) & ((idx0 == last) | (tk < bounds[idx0 + 1]))
        if np.count_nonzero(ok) != ok.size:
            # Interval crossing mid-phase (or a horizon overrun): per-lane
            # per-RTT loop.
            for j in np.flatnonzero(~ok):
                e, _, grown = _reference_download(
                    tb.lane(int(j)),
                    rtt,
                    float(sizes[j]),
                    float(t0[j]),
                    int(cwnd[j]),
                    int(ssthresh[j]),
                )
                ends[j] = e
                cwnd[j] = grown
        fl = ok & (kf <= kd)
        if np.count_nonzero(fl):
            # Pipe full at round k: drain the remainder at the link rate
            # (ties between the checks go to the fluid branch, mirroring
            # the reference loop's per-round order).  The dominant hot
            # case — the drain completes inside the interval containing
            # round k, or past the trace end where the final rate holds —
            # runs full-width under the mask with the same float
            # expressions the scalar kernel evaluates; spill-over lanes
            # compact into one :meth:`TraceBatch.transfer_drain` call.
            kc = np.minimum(k, h - 1)
            rows1 = rows * (h + 1)
            np.add(rows1, kc, out=rows1)  # flat index of cwnds[rows, kc]
            rowh = rows * h
            np.add(rowh, kc, out=rowh)  # flat index of cum_mss[rows, kc]
            frem = b.rem
            table.cum_mss_flat.take(rowh, out=frem, mode="clip")
            np.subtract(sizes, frem, out=frem)
            rate0 = b.rate0
            tb._rates_flat.take(flat, out=rate0, mode="clip")
            np.add(idx0, 1, out=b.idx1)
            bounds.take(b.idx1, out=b.f1, mode="clip")
            np.subtract(b.f1, tk, out=b.f1)
            np.multiply(rate0, b.f1, out=b.f1)  # interval capacity
            np.subtract(frem, _EPS_BYTES, out=b.f2)
            hot = b.hot
            mask = b.m
            np.greater_equal(b.f1, b.f2, out=hot)
            np.greater_equal(tk, bounds[-1], out=mask)
            np.logical_or(hot, mask, out=hot)
            np.greater(rate0, 0.0, out=mask)
            np.logical_and(hot, mask, out=hot)
            np.greater_equal(tk, bounds[0], out=mask)
            np.logical_and(hot, mask, out=hot)
            np.logical_and(hot, fl, out=hot)
            if np.count_nonzero(hot):
                q = b.fluid
                q.fill(0.0)
                np.divide(frem, rate0, out=q, where=hot)
                np.add(tk, q, out=b.tf)
                np.subtract(b.tf, tk, out=q)  # fluid seconds, hot lanes
                np.add(tk, q, out=b.tf)
                np.copyto(ends, b.tf, where=hot)
                # _fluid_grow_batch under the mask: min(cwnd_k +
                # max(0, int(fluid/rtt)), MAX).
                np.divide(q, rtt, out=b.f3)
                np.copyto(b.i1, b.f3, casting="unsafe")
                np.maximum(b.i1, 0, out=b.i1)
                table.cwnds_flat.take(rows1, out=b.ti, mode="clip")
                np.add(b.ti, b.i1, out=b.i1)
                np.minimum(b.i1, MAX_CWND_SEGMENTS, out=b.i1)
                np.copyto(cwnd, b.i1, where=hot)
            np.logical_not(hot, out=mask)
            np.logical_and(mask, fl, out=mask)
            cold = np.flatnonzero(mask)
            if cold.size:
                ft = tk[cold]
                fluid_s = tb.transfer_drain(ft, frem[cold], cold, idx0[cold])
                ends[cold] = ft + fluid_s
                cwnd[cold] = _fluid_grow_batch(
                    table.cwnds_flat.take(rows1[cold]), fluid_s, rtt
                )
        gd = ok & (kf > kd)
        if np.count_nonzero(gd):
            # Data exhausted first: round kd is the final window-limited
            # round; the post-growth window is the next schedule column.
            kk = np.minimum(kd + 1, h)
            np.multiply(kk, rtt, out=b.f3)
            np.add(b.f3, t0, out=b.f3)
            np.copyto(ends, b.f3, where=gd)
            rowk = rows * (h + 1)
            np.add(rowk, kk, out=rowk)
            table.cwnds_flat.take(rowk, out=b.ti, mode="clip")
            np.copyto(cwnd, b.ti, where=gd)

    def _fill_result(self, starts, ends, sizes, srtt, min_rtt, rto):  # repro: scratch
        """Populate the reusable result record (columns alias buffers)."""
        b = self._scratch
        res = self._result
        res.start_times_s = starts
        res.end_times_s = ends
        res.size_bytes = sizes
        res.cwnd_segments = b.cwnd_pre
        res.ssthresh_segments = b.ssthresh_pre
        res.time_since_last_send_s = b.idle
        res.srtt_s = srtt
        res.min_rtt_s = min_rtt
        res.rto_s = rto
        return res
