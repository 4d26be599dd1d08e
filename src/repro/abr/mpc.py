"""MPC: model-predictive-control bitrate adaptation (Yin et al. [48]).

RobustMPC plans over a short horizon of future chunks: for each candidate
quality sequence it simulates the buffer forward using a conservative
(harmonic-mean, error-discounted) throughput prediction and picks the first
step of the sequence maximising a QoE objective

    QoE = Σ ssim_db(chunk) − λ·|Δ ssim_db| − μ·rebuffer_seconds

(the SSIM-based objective Puffer deploys, matching the paper's setup).

To keep per-decision cost bounded the enumeration allows any quality for the
first step but only ±1 ladder moves for subsequent horizon steps — the
standard trajectory-pruning trick; unrestricted ladders of 7 qualities over
horizon 5 would enumerate 16 807 sequences for no measurable QoE gain.
The NumPy deciders (:meth:`MPCAlgorithm.choose_quality` and
:meth:`~MPCAlgorithm.choose_quality_batch`) evaluate the candidates
vectorised across sequences; the fused session kernel's per-lane core
(:func:`repro.abr._decisions._mpc_decide_one`) walks the sequences'
prefix tree instead, with the same float operations along every path.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

import numpy as np

from ..video.ladder import ssim_to_db
from .base import (
    ABRAlgorithm,
    ABRContext,
    BatchABRContext,
    HarmonicMeanPredictor,
    HarmonicMeanPredictorBatch,
)

__all__ = ["MPCAlgorithm"]

# Per-video precomputed QoE tables, keyed by the Video object itself (the
# entry dies with the video).  The SSIM-sum and switch-penalty terms of the
# MPC objective do not depend on the throughput prediction or the buffer,
# so they are computed for every chunk index at once and shared by all MPC
# instances streaming that video — only the stall recursion remains
# per-decision work.
_VIDEO_TABLES: "WeakKeyDictionary" = WeakKeyDictionary()

_TABLE_BUDGET_ELEMENTS = 8_000_000
"""Skip precomputation for (chunks x sequences) products above this."""


def _video_tables(video, sequences: np.ndarray, n_qualities: int, horizon: int):
    """``(db_sum, switch_sum)`` tables of shape ``(n_valid, n_seq)``.

    ``db_sum[n, s]`` is the horizon SSIM-dB total of sequence ``s`` started
    at chunk ``n``; ``switch_sum[n, s]`` the within-horizon ``|Δ ssim_db|``
    total.  Returns ``None`` when the video is too large to justify the
    table memory.
    """
    per_video = _VIDEO_TABLES.get(video)
    if per_video is None:
        per_video = {}
        _VIDEO_TABLES[video] = per_video
    key = (n_qualities, horizon)
    tables = per_video.get(key)
    if tables is None:
        n_valid = video.n_chunks - horizon + 1
        n_seq = sequences.shape[0]
        if n_valid < 1 or n_valid * n_seq * (horizon + 2) > _TABLE_BUDGET_ELEMENTS:
            tables = (None,)
        else:
            db = video.ssim_db_matrix
            seq_t = sequences.T  # (horizon, n_seq)
            gathered = [
                db[h : h + n_valid][:, seq_t[h]] for h in range(horizon)
            ]
            db_sum = gathered[0].copy()
            for h in range(1, horizon):
                db_sum += gathered[h]
            switch_sum = None
            for h in range(1, horizon):
                step = np.abs(gathered[h] - gathered[h - 1])
                switch_sum = step if switch_sum is None else switch_sum + step
            if switch_sum is None:
                switch_sum = np.zeros_like(db_sum)
            tables = (db_sum, switch_sum)
        per_video[key] = tables
    return None if tables[0] is None else tables


# Flattened per-chunk QoE tables for the fused session kernel, keyed by
# the Video object (dies with it).  The entry for a (video, horizon) pair
# is ``None`` when the QoE tables exceed the precomputation budget — such
# sessions then run the chunk loop.
_KERNEL_PACKS: "WeakKeyDictionary" = WeakKeyDictionary()


def _kernel_pack(video, horizon: int):
    """Per-chunk flattened QoE tables for the fused session kernel.

    Returns ``(meta, dbsum_flat, switch_flat, size_flat, db_flat)`` or
    ``None``.  ``meta[n]`` is ``[h_n, n_seq, row_off]`` for chunk ``n``:
    the end-of-video-truncated horizon, the sequence count at that
    horizon, and the offset of this chunk's precomputed SSIM-dB /
    switch-penalty rows inside ``dbsum_flat`` / ``switch_flat``, one
    entry per sequence in :func:`_enumerate_sequences` order.  The pack
    holds no sequence table: the kernel's horizon search walks the
    sequences' prefix tree and visits its leaves in that same order.
    ``size_flat`` / ``db_flat`` are the raveled ``(n_chunks,
    n_qualities)`` video matrices.
    """
    per_video = _KERNEL_PACKS.get(video)
    if per_video is None:
        per_video = {}
        _KERNEL_PACKS[video] = per_video
    if horizon in per_video:
        return per_video[horizon]

    n_chunks = video.n_chunks
    n_qualities = video.n_qualities
    meta = np.empty((n_chunks, 3), dtype=np.int64)
    sequences_by_h: dict[int, np.ndarray] = {}
    dbsum_parts: list[np.ndarray] = []
    switch_parts: list[np.ndarray] = []
    row_off = 0
    pack = None
    complete = True
    for n in range(n_chunks):
        h = min(horizon, n_chunks - n)
        sequences = sequences_by_h.get(h)
        if sequences is None:
            sequences = sequences_by_h[h] = _enumerate_sequences(n_qualities, h)
        tables = _video_tables(video, sequences, n_qualities, h)
        if tables is None:
            complete = False
            break
        db_sum, switch_sum = tables
        n_seq = sequences.shape[0]
        meta[n, 0] = h
        meta[n, 1] = n_seq
        meta[n, 2] = row_off
        dbsum_parts.append(db_sum[n])
        switch_parts.append(switch_sum[n])
        row_off += n_seq
    if complete:
        pack = (
            meta,
            np.concatenate(dbsum_parts),
            np.concatenate(switch_parts),
            np.ascontiguousarray(video.size_matrix, dtype=np.float64).ravel(),
            np.ascontiguousarray(video.ssim_db_matrix, dtype=np.float64).ravel(),
        )
    per_video[horizon] = pack
    return pack


def _enumerate_sequences(n_qualities: int, horizon: int) -> np.ndarray:
    """All quality sequences: first step free, then ±1 moves per step."""
    sequences = [[q] for q in range(n_qualities)]
    for _ in range(horizon - 1):
        extended = []
        for seq in sequences:
            last = seq[-1]
            for move in (-1, 0, 1):
                nxt = last + move
                if 0 <= nxt < n_qualities:
                    extended.append(seq + [nxt])
        sequences = extended
    return np.asarray(sequences, dtype=int)


class MPCAlgorithm(ABRAlgorithm):
    """RobustMPC with an SSIM-dB QoE objective.

    Parameters
    ----------
    horizon:
        Number of future chunks to plan over (the paper's MPC uses 5).
    rebuffer_penalty:
        QoE penalty per second of predicted stall (dB-equivalent units).
    switch_penalty:
        QoE penalty per dB of SSIM change between consecutive chunks.
    robust:
        Apply the max-recent-error discount to the throughput prediction
        (RobustMPC); plain MPC when ``False``.
    """

    name = "mpc"

    uses_throughput_history = True

    def __init__(
        self,
        horizon: int = 5,
        rebuffer_penalty: float = 100.0,
        switch_penalty: float = 2.0,
        robust: bool = True,
    ):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if rebuffer_penalty < 0 or switch_penalty < 0:
            raise ValueError("penalties must be non-negative")
        self.horizon = horizon
        self.rebuffer_penalty = rebuffer_penalty
        self.switch_penalty = switch_penalty
        self.robust = robust
        self._predictor = HarmonicMeanPredictor()
        self._batch_predictor: HarmonicMeanPredictorBatch | None = None
        self._sequence_cache: dict[tuple[int, int], np.ndarray] = {}
        self._plan_cache: dict[tuple[int, int], tuple] = {}
        self._batch_scratch_cache: dict[tuple[int, int, int], tuple] = {}

    def reset(self) -> None:
        self._predictor.reset()
        self._batch_predictor = None

    # ------------------------------------------------------------------
    def _sequences(self, n_qualities: int, horizon: int) -> np.ndarray:
        key = (n_qualities, horizon)
        if key not in self._sequence_cache:
            self._sequence_cache[key] = _enumerate_sequences(n_qualities, horizon)
        return self._sequence_cache[key]

    def _plan(self, n_qualities: int, horizon: int) -> tuple:
        """Cached per-(Q, horizon) decision workspace.

        ``flat`` maps (horizon step, sequence) onto the flattened
        ``(horizon, Q)`` size/SSIM slices so every decision needs exactly
        one gather per matrix; the scratch arrays are reused across
        decisions to keep the hot loop allocation-free.
        """
        key = (n_qualities, horizon)
        plan = self._plan_cache.get(key)
        if plan is None:
            sequences = self._sequences(n_qualities, horizon)
            flat = (
                np.arange(horizon)[:, None] * n_qualities + sequences.T
            )  # (horizon, n_seq)
            n_seq = sequences.shape[0]
            scratch = np.empty((horizon, n_seq))
            buf = np.empty(n_seq)
            row = np.empty(n_seq)
            plan = (sequences, flat, scratch, buf, row)
            self._plan_cache[key] = plan
        return plan

    def choose_quality(self, context: ABRContext) -> int:
        video = context.video
        n = context.chunk_index
        horizon = min(self.horizon, video.n_chunks - n)
        if horizon <= 0:
            raise ValueError(f"chunk index {n} beyond video end")

        if context.throughput_history_mbps:
            self._predictor.observe(context.throughput_history_mbps[-1])
        predicted = self._predictor.predict(context.throughput_history_mbps)
        if not self.robust:
            # Undo the robustness discount: use the plain harmonic mean.
            recent = np.asarray(
                context.throughput_history_mbps[-self._predictor.window:], dtype=float
            )
            if recent.size:
                predicted = float(len(recent) / np.sum(1.0 / recent))
        predicted = max(predicted, 1e-3)

        sequences, flat, scratch, buf, row = self._plan(video.n_qualities, horizon)

        # Per-(horizon step, sequence) download seconds: one gather from the
        # video's cached size matrix (the per-decision Python rebuild of
        # these tables used to dominate session wall time).
        d_steps = video.size_matrix[n : n + horizon].ravel()[flat]
        d_steps *= 8 / 1e6 / predicted  # (horizon, n_seq)

        chunk_dur = video.chunk_duration_s
        capacity = context.buffer_capacity_s

        # Buffer recursion (the only sequential part of the QoE):
        # scratch[h] = buffer_h - d_h, from which both the stall term
        # (max(d - b, 0) == -min(scratch, 0)) and the next buffer level
        # (min(max(scratch, 0) + dur, cap)) follow.
        buffer = context.buffer_s  # scalar: broadcasts on the first step
        for h in range(horizon):
            level = scratch[h]
            np.subtract(buffer, d_steps[h], out=level)
            if h + 1 < horizon:
                np.maximum(level, 0.0, out=buf)
                buf += chunk_dur
                np.minimum(buf, capacity, out=buf)
                buffer = buf
        np.minimum(scratch, 0.0, out=scratch)
        neg_stall = scratch.sum(axis=0)  # == -sum of stalls
        neg_stall *= self.rebuffer_penalty

        if context.last_quality is not None:
            prev_db = ssim_to_db(
                video.chunk_ssim(max(n - 1, 0), context.last_quality)
            )
        else:
            prev_db = None

        tables = _video_tables(video, sequences, video.n_qualities, horizon)
        if tables is not None:
            db_sum, switch_sum = tables
            qoe = db_sum[n] + neg_stall
            if prev_db is not None:
                # |first-step ssim_db - previous chunk's|: computed on the
                # Q ladder levels then gathered per sequence (flat[0] is
                # each sequence's first-step quality).
                level_jump = np.abs(video.ssim_db_matrix[n] - prev_db)
                np.add(switch_sum[n], level_jump[flat[0]], out=row)
                row *= self.switch_penalty
                qoe -= row
            elif self.switch_penalty:
                qoe -= self.switch_penalty * switch_sum[n]
        else:
            # Large-video fallback: gather the SSIM terms per decision.
            db_steps = video.ssim_db_matrix[n : n + horizon].ravel()[flat]
            qoe = db_steps.sum(axis=0)
            qoe += neg_stall
            if horizon > 1:
                sw = np.subtract(db_steps[1:], db_steps[:-1])
                np.abs(sw, out=sw)
                switches = sw.sum(axis=0)
            else:
                switches = None
            if prev_db is not None:
                np.subtract(db_steps[0], prev_db, out=row)
                np.abs(row, out=row)
                if switches is None:
                    switches = row
                else:
                    switches += row
            if switches is not None:
                switches *= self.switch_penalty
                qoe -= switches

        best = int(np.argmax(qoe))
        return int(sequences[best, 0])

    # ------------------------------------------------------------------
    def choose_quality_batch(self, context: BatchABRContext) -> np.ndarray:
        """Vectorised MPC decision for ``K`` lockstep lanes.

        Lanes share the chunk index, so everything except the throughput
        prediction and the buffer/switch state is common: the per-lane QoE
        surface is the shared ``(horizon, n_seq)`` tables scaled and
        shifted by per-lane scalars.  Lane ``k`` of the result is
        bit-identical to :meth:`choose_quality` on lane ``k``'s scalar
        context — the arithmetic runs in the same order per element, with
        the RobustMPC predictor vectorised as
        :class:`~repro.abr.base.HarmonicMeanPredictorBatch` (pinned by
        ``tests/test_batch_replay.py``).
        """
        video = context.video
        n = context.chunk_index
        horizon = min(self.horizon, video.n_chunks - n)
        if horizon <= 0:
            raise ValueError(f"chunk index {n} beyond video end")
        n_lanes = context.n_lanes

        predictor = self._batch_predictor
        if predictor is None or predictor.n_lanes != n_lanes:
            scalar = self._predictor
            predictor = self._batch_predictor = HarmonicMeanPredictorBatch(
                n_lanes,
                window=scalar.window,
                error_window=scalar.error_window,
                cold_start_mbps=scalar.cold_start_mbps,
            )
        history = context.throughput_history_mbps
        if history:
            predictor.observe(history[-1])
        predicted = predictor.predict(history)
        if not self.robust:
            recent = history[-predictor.window:]
            if recent:
                # Lanes on the leading axis so each lane's window is a
                # contiguous row: summing the last axis then applies the
                # same pairwise reduction np.sum uses on the scalar
                # path's 1-D window, keeping predictions bit-identical.
                inv = 1.0 / np.stack(recent, axis=-1)
                predicted = len(recent) / inv.sum(axis=1)
        predicted = np.maximum(predicted, 1e-3)

        sequences, flat, _, _, _ = self._plan(video.n_qualities, horizon)
        n_seq = sequences.shape[0]
        scratch_key = (n_lanes, video.n_qualities, horizon)
        workspace = self._batch_scratch_cache.get(scratch_key)
        if workspace is None:
            workspace = self._batch_scratch_cache[scratch_key] = (
                np.empty((n_lanes, horizon, n_seq)),
                np.empty((n_lanes, n_seq)),
                np.empty((n_lanes, horizon, n_seq)),
            )
        scratch, buf, d_steps = workspace

        # Shared per-(step, sequence) seconds-per-Mbps base, scaled by each
        # lane's predicted throughput: same gather-then-multiply the scalar
        # path performs, broadcast over lanes.
        base = video.size_matrix[n : n + horizon].ravel()[flat]
        np.multiply(
            base[None, :, :], (8 / 1e6 / predicted)[:, None, None], out=d_steps
        )

        chunk_dur = video.chunk_duration_s
        capacity = context.buffer_capacity_s
        buffer = context.buffer_s[:, None]
        for h in range(horizon):
            level = scratch[:, h, :]
            np.subtract(buffer, d_steps[:, h, :], out=level)
            if h + 1 < horizon:
                np.maximum(level, 0.0, out=buf)
                buf += chunk_dur
                np.minimum(buf, capacity, out=buf)
                buffer = buf
        np.minimum(scratch, 0.0, out=scratch)
        neg_stall = scratch.sum(axis=1)
        neg_stall *= self.rebuffer_penalty

        if context.last_quality is not None:
            # ssim_db_matrix caches the scalar ssim_to_db conversions, so
            # this gather matches the scalar path's per-cell calls.
            prev_db = video.ssim_db_matrix[
                max(n - 1, 0), np.asarray(context.last_quality, dtype=int)
            ]
        else:
            prev_db = None

        tables = _video_tables(video, sequences, video.n_qualities, horizon)
        if tables is not None:
            db_sum, switch_sum = tables
            qoe = db_sum[n] + neg_stall
            if prev_db is not None:
                level_jump = np.abs(video.ssim_db_matrix[n] - prev_db[:, None])
                rows = switch_sum[n] + level_jump[:, flat[0]]
                rows *= self.switch_penalty
                qoe -= rows
            elif self.switch_penalty:
                qoe -= self.switch_penalty * switch_sum[n]
        else:
            # Large-video fallback, mirroring the scalar branch.
            db_steps = video.ssim_db_matrix[n : n + horizon].ravel()[flat]
            qoe = db_steps.sum(axis=0) + neg_stall
            if horizon > 1:
                sw = np.subtract(db_steps[1:], db_steps[:-1])
                np.abs(sw, out=sw)
                switches = sw.sum(axis=0)
            else:
                switches = None
            if prev_db is not None:
                first_jump = np.abs(db_steps[0] - prev_db[:, None])
                switches = (
                    first_jump if switches is None else switches + first_jump
                )
            if switches is not None:
                switches = switches * self.switch_penalty
                qoe -= switches

        return sequences[qoe.argmax(axis=1), 0]

    # ------------------------------------------------------------------
    def decision_kernel_pack(self, video):
        """Flattened horizon-search tables consumed by the fused session
        kernel (:mod:`repro.player._fused`), or ``None`` when this
        instance cannot run in-kernel: QoE tables over budget, or plain
        MPC, whose un-discounted harmonic mean uses ``np.sum``'s pairwise
        reduction, which the kernel's sequential loop cannot reproduce
        bit for bit at window 8."""
        if not self.robust:
            return None
        return _kernel_pack(video, self.horizon)
