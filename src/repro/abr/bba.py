"""BBA: buffer-based rate adaptation (Huang et al., SIGCOMM 2014 [18]).

BBA ignores throughput estimates entirely and maps the current buffer level
onto the bitrate ladder: below a *reservoir* it always requests the lowest
quality; above an *upper threshold* it requests the highest; in between it
interpolates linearly on the bitrate axis.  Because it never looks at
network conditions, it is notably more aggressive than MPC — the behaviour
the paper's Fig. 8 documents (higher SSIM *and* higher rebuffering).
"""

from __future__ import annotations

import numpy as np

from .base import ABRAlgorithm, ABRContext, BatchABRContext

__all__ = ["BBAAlgorithm"]


class BBAAlgorithm(ABRAlgorithm):
    """Buffer-based adaptation with a linear buffer→bitrate map.

    Parameters
    ----------
    reservoir_fraction:
        Fraction of the buffer capacity reserved at the bottom (always
        lowest quality below it), floored at one chunk duration.
    upper_fraction:
        Fraction of capacity above which the highest quality is requested.
    """

    name = "bba"

    def __init__(self, reservoir_fraction: float = 0.2, upper_fraction: float = 0.9):
        if not 0 < reservoir_fraction < upper_fraction <= 1:
            raise ValueError(
                "need 0 < reservoir_fraction < upper_fraction <= 1, got "
                f"{reservoir_fraction} and {upper_fraction}"
            )
        self.reservoir_fraction = reservoir_fraction
        self.upper_fraction = upper_fraction
        self._plan: tuple | None = None

    def reset(self) -> None:
        self._plan = None

    def _ensure_plan(self, video, capacity: float) -> tuple:
        """Session-constant thresholds/ladder endpoints, computed once."""
        plan = self._plan
        if plan is None or plan[0] is not video.ladder or plan[1] != capacity:
            ladder = video.ladder
            reservoir = max(
                video.chunk_duration_s, self.reservoir_fraction * capacity
            )
            upper = self.upper_fraction * capacity
            if upper <= reservoir:
                # Degenerate tiny buffers: fall back to a two-point map.
                upper = reservoir + 1e-6
            plan = self._plan = (
                ladder,
                capacity,
                reservoir,
                upper,
                ladder.lowest.index,
                ladder.highest.index,
                ladder.lowest.bitrate_mbps,
                ladder.highest.bitrate_mbps,
                np.asarray(ladder.bitrates_mbps),
            )
        return plan

    def decision_kernel_plan(self, video, capacity: float) -> tuple:
        """Scalar plan consumed by the fused session kernel
        (:mod:`repro.player._fused`): ``(reservoir, upper, lowest,
        highest, r_min, r_max, rates)``."""
        plan = self._ensure_plan(video, capacity)
        _, _, reservoir, upper, lowest, highest, r_min, r_max, rates = plan
        return reservoir, upper, lowest, highest, r_min, r_max, rates

    def choose_quality(self, context: ABRContext) -> int:
        video = context.video
        plan = self._ensure_plan(video, context.buffer_capacity_s)
        _, _, reservoir, upper, lowest, highest, r_min, r_max, _ = plan

        buffer_s = context.buffer_s
        if buffer_s <= reservoir:
            return lowest
        if buffer_s >= upper:
            return highest

        # Linear interpolation on the bitrate axis between the ladder ends.
        fraction = (buffer_s - reservoir) / (upper - reservoir)
        target_rate = r_min + fraction * (r_max - r_min)
        return video.ladder.highest_below(target_rate).index

    def choose_quality_batch(self, context: BatchABRContext) -> np.ndarray:
        """Vectorised :meth:`choose_quality` over K lockstep lanes.

        Pure threshold/interpolation arithmetic on the same floats the
        scalar path uses; ``highest_below`` becomes one ``searchsorted``
        with identical tie behaviour (bitrate == target is kept)."""
        plan = self._ensure_plan(context.video, context.buffer_capacity_s)
        _, _, reservoir, upper, lowest, highest, r_min, r_max, rates = plan

        buffer_s = context.buffer_s
        fraction = (buffer_s - reservoir) / (upper - reservoir)
        target_rate = r_min + fraction * (r_max - r_min)
        quality = np.searchsorted(rates, target_rate, side="right") - 1
        np.maximum(quality, lowest, out=quality)
        quality[buffer_s <= reservoir] = lowest
        quality[buffer_s >= upper] = highest
        return quality
