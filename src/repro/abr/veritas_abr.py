"""Veritas-in-the-loop ABR: causal download-time prediction online.

§2.2 describes how Fugu is deployed: "at any given time step of a live
session, Fugu is used to predict the download times for all possible chunk
sizes, and an appropriate chunk size is selected" — which is a *causal*
query that associational predictors answer with bias.  This module closes
the loop with Veritas instead: every few chunks it re-abducts the latent
bandwidth from the session so far, projects it forward through the
transition matrix, and scores each ladder rung by its predicted download
time via the TCP estimator ``f``.

This is the paper's implied "what you could build with Veritas" system
(an extension beyond its evaluation); it reuses the interventional
machinery of §4.4 unchanged.
"""

from __future__ import annotations

import numpy as np

from ..core.abduction import VeritasAbduction, VeritasConfig
from ..player.logs import (
    FLOAT_COLUMNS,
    INT_COLUMNS,
    ChunkRecord,
    SessionLog,
    sequential_sum,
)
from ..tcp.estimator import estimate_download_time
from ..tcp.state import TCPStateSnapshot
from ..video.ladder import ssim_to_db
from .base import ABRAlgorithm, ABRContext

__all__ = ["VeritasABRAlgorithm"]


class VeritasABRAlgorithm(ABRAlgorithm):
    """Model-predictive quality selection driven by abducted bandwidth.

    Parameters
    ----------
    config:
        Veritas hyperparameters (grid, δ, ε, σ, transitions).
    reabduct_every:
        Re-run abduction every this many chunks (it is O(session so far),
        so amortising keeps the per-chunk cost bounded).
    rebuffer_penalty / switch_penalty:
        QoE weights, as in :class:`~repro.abr.mpc.MPCAlgorithm`.
    safety:
        Multiplicative margin on the predicted capacity (< 1 is cautious).
    """

    name = "veritas-abr"

    def __init__(
        self,
        config: VeritasConfig | None = None,
        reabduct_every: int = 5,
        rebuffer_penalty: float = 100.0,
        switch_penalty: float = 1.0,
        safety: float = 0.6,
    ):
        if reabduct_every < 1:
            raise ValueError(f"reabduct_every must be >= 1, got {reabduct_every}")
        if not 0 < safety <= 1.5:
            raise ValueError(f"safety must be in (0, 1.5], got {safety}")
        self._abduction = VeritasAbduction(config)
        self.reabduct_every = reabduct_every
        self.rebuffer_penalty = rebuffer_penalty
        self.switch_penalty = switch_penalty
        self.safety = safety
        self.reset()

    def reset(self) -> None:
        self._records: list[ChunkRecord] = []
        # The log matrices of the records seen by the last abduction, so
        # each record is converted once.
        self._floats = np.empty((len(FLOAT_COLUMNS), 0))
        self._ints = np.empty((len(INT_COLUMNS), 0), dtype=np.int64)
        self._expected_capacity: float | None = None
        self._chunks_since_abduction = 0

    # ------------------------------------------------------------------
    def observe_download(self, record: ChunkRecord) -> None:
        """Feed back the finished chunk (called by the session simulator)."""
        self._records.append(record)
        self._chunks_since_abduction += 1
        # Drift detector: a download far slower than the current belief
        # allows means the network shifted — refresh the abduction now
        # rather than waiting out the amortisation window.
        if self._expected_capacity is not None and self._expected_capacity > 0:
            observed = record.throughput_mbps
            if observed < 0.5 * self._expected_capacity:
                self._chunks_since_abduction = self.reabduct_every

    def _capacity_estimate(self, context: ABRContext) -> float:
        if not self._records:
            return 0.3  # conservative cold start, like the other ABRs
        if (
            self._expected_capacity is None
            or self._chunks_since_abduction >= self.reabduct_every
        ):
            first = self._records[0]
            new = self._records[self._floats.shape[1] :]
            floats, ints = zip(*(r.log_columns() for r in new))
            self._floats = np.hstack([self._floats, np.array(floats).T])
            self._ints = np.hstack([self._ints, np.array(ints).T])
            log = SessionLog.from_columns(
                self.name,
                (
                    context.buffer_capacity_s,
                    context.video.chunk_duration_s,
                    first.tcp_state.min_rtt_s,
                    first.end_time_s,
                    sequential_sum(r.rebuffer_s for r in self._records),
                ),
                self._floats,
                self._ints,
            )
            posterior = self._abduction.solve(log)
            self._expected_capacity = posterior.expected_capacity_after(0)
            self._chunks_since_abduction = 0
        return self._expected_capacity

    def choose_quality(self, context: ABRContext) -> int:
        video = context.video
        capacity = self.safety * self._capacity_estimate(context)
        tcp_state = self._last_tcp_state()

        best_q, best_score = 0, -float("inf")
        last_db = None
        if context.last_quality is not None and context.chunk_index > 0:
            last_db = ssim_to_db(
                video.chunk_ssim(context.chunk_index - 1, context.last_quality)
            )
        for q in range(video.n_qualities):
            size = video.chunk_size_bytes(context.chunk_index, q)
            download_s = self._predict_download(capacity, tcp_state, size)
            stall = max(0.0, download_s - context.buffer_s)
            score = ssim_to_db(video.chunk_ssim(context.chunk_index, q))
            score -= self.rebuffer_penalty * stall
            if last_db is not None:
                score -= self.switch_penalty * abs(
                    ssim_to_db(video.chunk_ssim(context.chunk_index, q)) - last_db
                )
            if score > best_score:
                best_q, best_score = q, score
        return best_q

    # ------------------------------------------------------------------
    def _last_tcp_state(self) -> TCPStateSnapshot | None:
        return self._records[-1].tcp_state if self._records else None

    @staticmethod
    def _predict_download(
        capacity_mbps: float, tcp_state: TCPStateSnapshot | None, size_bytes: float
    ) -> float:
        if capacity_mbps <= 0:
            return float("inf")
        if tcp_state is None:
            # No TCP observation yet: assume the link rate is achievable.
            return size_bytes * 8 / 1e6 / capacity_mbps
        return estimate_download_time(capacity_mbps, tcp_state, size_bytes)
