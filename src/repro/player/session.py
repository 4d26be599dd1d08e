"""The streaming-session simulator (the paper's emulation testbed).

:class:`StreamingSession` wires together the substrates: an ABR algorithm
chooses qualities, a :class:`~repro.tcp.connection.TCPConnection` downloads
chunks over a ground-truth bandwidth trace, and a
:class:`~repro.player.buffer.PlayerBuffer` tracks playback.  Running a
session produces a :class:`~repro.player.logs.SessionLog` — the observed
data Setting A hands to Veritas — and the same class replays a session under
a *reconstructed* trace for Setting-B counterfactuals.

The event loop per chunk ``n``:

1. the player sleeps while the buffer is above capacity (this produces the
   idle gaps that trigger TCP slow-start restart — a key observable),
2. the ABR picks a quality from client-visible state only,
3. the TCP connection downloads the chunk over the trace (the buffer drains
   meanwhile; hitting zero counts as a stall),
4. the chunk is appended and the log record written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..abr.base import ABRAlgorithm, ABRContext
from ..net.trace import PiecewiseConstantTrace
from ..tcp.connection import TCPConnection
from ..util.units import throughput_mbps
from ..video.chunks import Video
from .buffer import PlayerBuffer
from .logs import FLOAT_COLUMNS, INT_COLUMNS, ChunkRecord, SessionLog

__all__ = ["SessionConfig", "StreamingSession"]


@dataclass(frozen=True)
class SessionConfig:
    """Player/network settings for one session (the paper's "Setting")."""

    buffer_capacity_s: float = 5.0
    rtt_s: float = 0.08
    request_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.buffer_capacity_s <= 0:
            raise ValueError("buffer capacity must be positive")
        if self.rtt_s <= 0:
            raise ValueError("rtt must be positive")
        if self.request_overhead_s < 0:
            raise ValueError("request overhead cannot be negative")


class StreamingSession:
    """One client streaming ``video`` over ``trace`` with ``abr``."""

    def __init__(
        self,
        video: Video,
        abr: ABRAlgorithm,
        trace: PiecewiseConstantTrace,
        config: SessionConfig | None = None,
    ):
        self.video = video
        self.abr = abr
        self.trace = trace
        self.config = config or SessionConfig()

    def run(self) -> SessionLog:
        """Simulate the whole session and return its log."""
        video = self.video
        config = self.config
        abr = self.abr
        abr.reset()

        connection = TCPConnection(self.trace, rtt_s=config.rtt_s, start_time_s=0.0)
        buffer = PlayerBuffer(config.buffer_capacity_s)

        # Each chunk's column of the log's float and int matrices.
        float_columns: list[tuple] = []
        int_columns: list[tuple] = []
        throughput_history: list[float] = []
        download_history: list[float] = []
        last_quality: int | None = None
        now = 0.0
        startup_time = 0.0

        # One context object reused across chunks (per-chunk fields are
        # rewritten below); the history lists are shared and grow in place.
        context = ABRContext(
            chunk_index=0,
            buffer_s=0.0,
            buffer_capacity_s=config.buffer_capacity_s,
            last_quality=None,
            video=video,
            throughput_history_mbps=throughput_history,
            download_time_history_s=download_history,
        )
        observe = getattr(abr, "observe_download", None)

        # Hoisted bound methods / constants: the loop below runs once per
        # chunk across every replay of every counterfactual query, so plain
        # attribute chasing is a measurable share of replay wall time.
        overflow_wait = buffer.overflow_wait_s
        drain = buffer.drain
        append_playback = buffer.append_chunk
        download = connection.download
        choose_quality = abr.choose_quality
        chunk_size_bytes = video.chunk_size_bytes
        chunk_ssim = video.chunk_ssim
        floats_append = float_columns.append
        ints_append = int_columns.append
        tp_append = throughput_history.append
        dl_append = download_history.append
        chunk_dur = video.chunk_duration_s
        n_qualities = video.n_qualities
        overhead = config.request_overhead_s
        bitrates = [video.bitrate_mbps(q) for q in range(n_qualities)]
        abr_name = abr.name

        for n in range(video.n_chunks):
            # 1. Sleep while the buffer is over capacity.  The buffer keeps
            #    draining during the sleep; no stall is possible here.
            wait = overflow_wait()
            if wait > 0:
                drain(wait)
                now += wait
            if overhead:
                drain(overhead)
                now += overhead

            # 2. ABR decision from client-observable state only.
            context.chunk_index = n
            context.buffer_s = buffer_before = buffer.level_s
            context.last_quality = last_quality
            quality = choose_quality(context)
            if not 0 <= quality < n_qualities:
                raise ValueError(
                    f"{abr_name} chose invalid quality {quality} for chunk {n}"
                )
            size = chunk_size_bytes(n, quality)

            # 3. Download over the ground-truth trace.
            result = download(size, now)
            duration = result.end_time_s - result.start_time_s
            stall = drain(duration)
            now = result.end_time_s

            # 4. Append and log.
            append_playback(chunk_dur)
            if n == 0:
                startup_time = now
                buffer.start_playback()

            state = result.tcp_state_at_start
            ssim = chunk_ssim(n, quality)
            # In FLOAT_COLUMNS / INT_COLUMNS order.
            floats_append(
                (
                    size,
                    result.start_time_s,
                    result.end_time_s,
                    buffer_before,
                    buffer.level_s,
                    stall,
                    ssim,
                    bitrates[quality],
                    state.srtt_s,
                    state.min_rtt_s,
                    state.rto_s,
                    state.time_since_last_send_s,
                )
            )
            ints_append((n, quality, state.cwnd_segments, state.ssthresh_segments))
            tp_append(throughput_mbps(size, duration))
            dl_append(duration)
            last_quality = quality

            # Feedback hook for algorithms that learn from finished
            # downloads (e.g. the Veritas-in-the-loop ABR).
            if observe is not None:
                observe(
                    ChunkRecord(
                        index=n,
                        quality=quality,
                        size_bytes=size,
                        start_time_s=result.start_time_s,
                        end_time_s=result.end_time_s,
                        tcp_state=state,
                        buffer_before_s=buffer_before,
                        buffer_after_s=buffer.level_s,
                        rebuffer_s=stall,
                        ssim=ssim,
                        bitrate_mbps=bitrates[quality],
                    )
                )

        return SessionLog.from_columns(
            abr.name,
            (
                config.buffer_capacity_s,
                video.chunk_duration_s,
                config.rtt_s,
                startup_time,
                buffer.total_rebuffer_s,
            ),
            np.array(float_columns).reshape(-1, len(FLOAT_COLUMNS)).T,
            np.array(int_columns).reshape(-1, len(INT_COLUMNS)).T,
        )
