"""BOLA Basic v1 (Spiteri et al. [38], as implemented on Puffer [2]).

BOLA is a Lyapunov-drift-plus-penalty scheme: at each chunk boundary it
requests the quality maximising

    (V * (utility_q + gp) - buffer_level) / size_q .

Utilities are logarithmic in bitrate (the BOLA paper's choice).  The control
parameters ``V`` and ``gp`` are calibrated from two boundary conditions, the
same way Puffer's BOLA-BASIC derives them:

* at a buffer of one chunk duration the algorithm should switch away from
  the lowest quality, and
* at ``upper_fraction`` of the buffer capacity it should reach the highest.

The quality-switch buffer threshold between adjacent levels ``q → q+1`` is
``B = V * (a_q + gp)`` with ``a_q = (S_{q+1} u_q - S_q u_{q+1}) /
(S_{q+1} - S_q)``; the two conditions give two linear equations in ``V`` and
``V*gp``.
"""

from __future__ import annotations

import math

import numpy as np

from ..video.chunks import Video
from .base import ABRAlgorithm, ABRContext, BatchABRContext

__all__ = ["BOLAAlgorithm"]


class BOLAAlgorithm(ABRAlgorithm):
    """BOLA Basic v1 with log-bitrate utilities.

    Parameters
    ----------
    upper_fraction:
        Fraction of the buffer capacity at which the highest quality should
        become preferred (the second calibration point).
    """

    name = "bola"

    def __init__(self, upper_fraction: float = 0.9):
        if not 0 < upper_fraction <= 1:
            raise ValueError(f"upper_fraction must be in (0, 1], got {upper_fraction}")
        self.upper_fraction = upper_fraction
        self._calibration: tuple[float, float] | None = None
        self._calibrated_for: tuple[int, float] | None = None
        self._weights: list[float] | None = None
        self._weights_arr: np.ndarray | None = None

    def reset(self) -> None:
        self._calibration = None
        self._calibrated_for = None
        self._weights = None
        self._weights_arr = None

    # ------------------------------------------------------------------
    @staticmethod
    def _utilities(video: Video) -> np.ndarray:
        rates = np.asarray(video.ladder.bitrates_mbps)
        return np.log(rates / rates[0])

    def _calibrate(self, video: Video, capacity_s: float) -> tuple[float, float]:
        """Solve for (V, gp) from the two buffer-threshold conditions."""
        key = (id(video.ladder), capacity_s)
        if self._calibrated_for == key and self._calibration is not None:
            return self._calibration

        utilities = self._utilities(video)
        # Mean ladder sizes (bytes) stand in for the per-chunk sizes when
        # deriving thresholds, as in Puffer's BOLA-BASIC.
        mean_sizes = np.asarray(
            [video.bitrate_mbps(q) * 1e6 / 8 * video.chunk_duration_s
             for q in range(video.n_qualities)]
        )

        def pairwise_a(q: int) -> float:
            s_lo, s_hi = mean_sizes[q], mean_sizes[q + 1]
            u_lo, u_hi = utilities[q], utilities[q + 1]
            return (s_hi * u_lo - s_lo * u_hi) / (s_hi - s_lo)

        if video.n_qualities == 1:
            calibration = (1.0, 1.0)
        else:
            b_low = video.chunk_duration_s
            b_high = max(self.upper_fraction * capacity_s, b_low + 0.5)
            a_first = pairwise_a(0)
            a_last = pairwise_a(video.n_qualities - 2)
            if math.isclose(a_last, a_first):
                v = 1.0
            else:
                v = (b_high - b_low) / (a_last - a_first)
            v_gp = b_low - v * a_first
            gp = v_gp / v if v != 0 else 1.0
            calibration = (v, gp)

        self._calibration = calibration
        self._calibrated_for = key
        # Per-quality objective weights v * (utility + gp): fixed for the
        # whole session, so the per-chunk decision is a tiny scalar loop.
        v, gp = calibration
        self._weights = [
            v * (u + gp) for u in self._utilities(video).tolist()
        ]
        self._weights_arr = np.asarray(self._weights)
        return calibration

    def choose_quality(self, context: ABRContext) -> int:
        video = context.video
        self._calibrate(video, context.buffer_capacity_s)
        weights = self._weights
        buffer_s = context.buffer_s
        n = context.chunk_index
        best_q = 0
        best_score = None
        for q, w in enumerate(weights):
            score = (w - buffer_s) / video.chunk_size_bytes(n, q)
            if best_score is None or score > best_score:
                best_score = score
                best_q = q
        return best_q

    def decision_kernel_weights(self, video: Video, capacity: float) -> np.ndarray:
        """Per-quality objective weights ``v * (utility + gp)`` consumed by
        the fused session kernel (:mod:`repro.player._fused`)."""
        self._calibrate(video, capacity)
        return self._weights_arr

    def choose_quality_batch(self, context: BatchABRContext) -> np.ndarray:
        """Vectorised :meth:`choose_quality` over K lockstep lanes.

        One ``(K, Q)`` drift-plus-penalty score matrix per chunk; the
        row-wise ``argmax`` keeps the first maximum, matching the scalar
        loop's strict-improvement tie rule."""
        video = context.video
        self._calibrate(video, context.buffer_capacity_s)
        sizes = video.sizes_for_chunk(context.chunk_index)
        scores = (self._weights_arr[None, :] - context.buffer_s[:, None]) / sizes[
            None, :
        ]
        return np.argmax(scores, axis=1)
