"""QoE metrics over session logs.

The paper evaluates counterfactual answers with "standard metrics such as
video quality (measured by SSIM) and rebuffering ratios" (§4.1), and the
appendix adds average bitrate (Fig. 14).  All three are derived purely from
a :class:`~repro.player.logs.SessionLog`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..video.ladder import ssim_to_db
from .logs import SessionLog, SessionLogBatch, sequential_sum

__all__ = ["QoEMetrics", "compute_metrics", "compute_metrics_batch"]


@dataclass(frozen=True)
class QoEMetrics:
    """Session-level quality-of-experience summary."""

    mean_ssim: float
    mean_ssim_db: float
    rebuffer_ratio: float
    """Stall time as a fraction of the session duration (0..1)."""
    avg_bitrate_mbps: float
    """Delivered bits divided by video playback duration."""
    startup_time_s: float
    quality_switches: int
    n_chunks: int

    @property
    def rebuffer_percent(self) -> float:
        """Rebuffering ratio as "% of session", the unit of Figs. 8–11."""
        return 100.0 * self.rebuffer_ratio


def compute_metrics(log: SessionLog) -> QoEMetrics:
    """Compute :class:`QoEMetrics` for a finished session.

    Reads only the log's columns, so it builds no records.  Each chunk's
    SSIM is converted with ``ssim_to_db``, the floats the video caches for
    :func:`compute_metrics_batch`, and the delivered bytes are summed
    sequentially, as the session loop accumulates them.
    """
    if log.n_chunks == 0:
        raise ValueError("cannot compute metrics for an empty session")

    ssim = log.column("ssim")
    sizes_total = sequential_sum(log.column("size_bytes").tolist())
    playback_s = log.n_chunks * log.chunk_duration_s

    session_duration = log.session_duration_s
    rebuffer_ratio = (
        log.total_rebuffer_s / session_duration if session_duration > 0 else 0.0
    )

    return QoEMetrics(
        mean_ssim=float(ssim.mean()),
        mean_ssim_db=float(np.mean([ssim_to_db(s) for s in ssim.tolist()])),
        rebuffer_ratio=float(rebuffer_ratio),
        avg_bitrate_mbps=float(sizes_total * 8 / 1e6 / playback_s),
        startup_time_s=log.startup_time_s,
        quality_switches=int(np.count_nonzero(np.diff(log.qualities()))),
        n_chunks=log.n_chunks,
    )


def compute_metrics_batch(batch: SessionLogBatch) -> "list[QoEMetrics]":
    """Per-lane :class:`QoEMetrics` straight from a batch log's columns.

    Metric-only consumers (the counterfactual engine's Setting-B queries)
    never materialize per-chunk :class:`~repro.player.logs.ChunkRecord`
    objects: SSIM means reduce over the stored columns (the dB column was
    gathered from the video's cached per-cell conversions, so the floats
    match the scalar path), and the rebuffer/byte totals reuse the session
    loop's sequential accumulations.  Lane ``k`` of the result is
    bit-identical to ``compute_metrics(batch.lane(k))``.
    """
    n_chunks = batch.n_chunks
    if n_chunks == 0:
        raise ValueError("cannot compute metrics for an empty session")

    playback_s = n_chunks * batch.chunk_duration_s
    switches = np.count_nonzero(np.diff(batch.qualities, axis=0), axis=0)
    out = []
    for k in range(batch.n_lanes):
        total_rebuffer = float(batch.total_rebuffer_s[k])
        session_duration = (
            float(batch.startup_time_s[k]) + playback_s + total_rebuffer
        )
        rebuffer_ratio = (
            total_rebuffer / session_duration if session_duration > 0 else 0.0
        )
        out.append(
            QoEMetrics(
                mean_ssim=float(batch.ssim[:, k].mean()),
                mean_ssim_db=float(batch.ssim_db[:, k].mean()),
                rebuffer_ratio=float(rebuffer_ratio),
                avg_bitrate_mbps=float(
                    batch.total_size_bytes[k] * 8 / 1e6 / playback_s
                ),
                startup_time_s=float(batch.startup_time_s[k]),
                quality_switches=int(switches[k]),
                n_chunks=n_chunks,
            )
        )
    return out
