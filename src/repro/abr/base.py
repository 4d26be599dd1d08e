"""ABR algorithm interface and throughput predictors.

Every algorithm sees an :class:`ABRContext` at each chunk boundary — the
information a real DASH client has: current buffer level, observed per-chunk
throughput history, the next chunk's ladder of encoded sizes, and (for
lookahead algorithms such as MPC) the video object itself.  Crucially the
context does *not* include the ground-truth bandwidth; that is the latent
confounder the paper is about.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ..video.chunks import Video

__all__ = [
    "ABRContext",
    "ABRAlgorithm",
    "BatchABRContext",
    "HarmonicMeanPredictor",
    "HarmonicMeanPredictorBatch",
]


@dataclass
class ABRContext:
    """Client-side observable state at the moment a chunk must be requested.

    Attributes
    ----------
    chunk_index:
        Index ``n`` of the chunk about to be requested.
    buffer_s / buffer_capacity_s:
        Current playout buffer level and the configured cap (seconds).
    last_quality:
        Ladder index of the previously selected chunk (``None`` for the
        first chunk).
    throughput_history_mbps / download_time_history_s:
        Observed per-chunk throughput ``Y_1..Y_{n-1}`` and download times,
        oldest first.
    video:
        The video being streamed (sizes/SSIM for the current and future
        chunks; lookahead algorithms may read ahead).
    """

    chunk_index: int
    buffer_s: float
    buffer_capacity_s: float
    last_quality: int | None
    video: Video
    throughput_history_mbps: list[float] = field(default_factory=list)
    download_time_history_s: list[float] = field(default_factory=list)

    @property
    def n_qualities(self) -> int:
        return self.video.n_qualities


@dataclass
class BatchABRContext:
    """Observable state of ``K`` lockstep sessions at one chunk boundary.

    The array-valued counterpart of :class:`ABRContext`, handed to
    ``choose_quality_batch`` by the batched replay engine
    (:class:`~repro.player.batch_session.BatchStreamingSession`).
    Algorithms whose decision reads the per-chunk observation history
    (e.g. MPC's throughput predictor) set ``uses_throughput_history`` and
    receive it as column rows: entry ``n`` of each history list is the
    ``(K,)`` per-lane observation for chunk ``n``, with lane ``k``'s value
    bit-identical to the scalar :class:`ABRContext` history entry.
    Algorithms with no ``choose_quality_batch`` never see this context:
    the engine replays them on the scalar session, one per lane.
    """

    chunk_index: int
    buffer_s: NDArray[np.float64]
    """Per-lane playout buffer levels, shape ``(K,)``."""
    buffer_capacity_s: float
    last_quality: NDArray[np.int64] | None
    """Per-lane previous ladder indices (``None`` for the first chunk)."""
    video: Video
    throughput_history_mbps: "list[NDArray[np.float64]]" = field(default_factory=list)
    """Per-chunk ``(K,)`` observed-throughput rows, oldest first."""
    download_time_history_s: "list[NDArray[np.float64]]" = field(default_factory=list)
    """Per-chunk ``(K,)`` download-time rows, oldest first."""

    @property
    def n_lanes(self) -> int:
        return int(self.buffer_s.shape[0])

    @property
    def n_qualities(self) -> int:
        return self.video.n_qualities


class ABRAlgorithm(ABC):
    """Base class for adaptive-bitrate algorithms.

    Subclasses implement :meth:`choose_quality`; algorithms with per-session
    state (e.g. MPC's robust error tracking) override :meth:`reset`, which
    the session simulator calls once before playback starts.

    Algorithms whose decision is pure threshold/index arithmetic may
    additionally implement ``choose_quality_batch(context:
    BatchABRContext) -> np.ndarray`` — the batched replay engine then makes
    one vectorised decision for all K lockstep lanes per chunk.  The
    contract is exactness: lane ``k`` of the returned array must equal what
    :meth:`choose_quality` would return for lane ``k``'s scalar context
    (BBA, BOLA and MPC ship such implementations; the engine replays
    anything else on the scalar session, one per lane).
    """

    name: str = "abr"

    uses_throughput_history: bool = False
    """Whether ``choose_quality_batch`` reads the batch context's
    observation histories; the lockstep engine only pays the per-chunk
    history-row appends for algorithms that set this."""

    @abstractmethod
    def choose_quality(self, context: ABRContext) -> int:
        """Return the ladder index to request for ``context.chunk_index``."""

    def reset(self) -> None:
        """Clear any per-session state (default: stateless)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class HarmonicMeanPredictor:
    """Robust harmonic-mean throughput predictor (the RobustMPC estimator).

    Predicts the harmonic mean of the last ``window`` observed throughputs,
    discounted by the maximum recent relative prediction error — the
    standard conservative correction from the MPC paper [48].
    """

    def __init__(
        self,
        window: int = 8,
        error_window: int = 12,
        cold_start_mbps: float = 0.3,
    ) -> None:
        if window < 1 or error_window < 1:
            raise ValueError("windows must be >= 1")
        if cold_start_mbps <= 0:
            raise ValueError(
                f"cold-start prediction must be positive, got {cold_start_mbps}"
            )
        self.window = window
        self.error_window = error_window
        self.cold_start_mbps = cold_start_mbps
        self._errors: list[float] = []
        self._last_prediction: float | None = None

    def reset(self) -> None:
        self._errors = []
        self._last_prediction = None

    def observe(self, actual_mbps: float) -> None:
        """Record the realised throughput for the chunk just downloaded."""
        if actual_mbps <= 0:
            raise ValueError(f"throughput must be positive, got {actual_mbps}")
        if self._last_prediction is not None and self._last_prediction > 0:
            error = abs(self._last_prediction - actual_mbps) / actual_mbps
            self._errors.append(error)
            if len(self._errors) > self.error_window:
                self._errors.pop(0)

    def predict(self, history_mbps: list[float]) -> float:
        """Predicted throughput (Mbps) for the next download."""
        if not history_mbps:
            # Deployed players start at the bottom of the ladder and probe
            # upward (Puffer's MPC-HM behaves the same way).
            prediction = self.cold_start_mbps
        else:
            recent = history_mbps[-self.window:]
            inv_sum = 0.0
            for v in recent:
                if v <= 0:
                    raise ValueError("throughput history must be positive")
                inv_sum += 1.0 / v
            harmonic = len(recent) / inv_sum
            max_error = max(self._errors) if self._errors else 0.0
            prediction = harmonic / (1.0 + max_error)
        self._last_prediction = prediction
        return prediction


class HarmonicMeanPredictorBatch:
    """Lane-vectorised :class:`HarmonicMeanPredictor` for lockstep replay.

    Tracks the predictor state of ``K`` lanes advancing together: the
    rolling error window becomes a list of ``(K,)`` rows (every lane
    observes exactly once per chunk, so the scalar predictor's list
    semantics map directly onto row appends) and predictions come out as
    ``(K,)`` arrays.  Lane ``k``'s stream of predictions is bit-identical
    to a scalar predictor fed lane ``k``'s history: the accumulations run
    in the same order and predictions are always positive, so the scalar
    ``last_prediction > 0`` guard never diverges per lane.
    """

    def __init__(
        self,
        n_lanes: int,
        window: int = 8,
        error_window: int = 12,
        cold_start_mbps: float = 0.3,
    ) -> None:
        if n_lanes < 1:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        if window < 1 or error_window < 1:
            raise ValueError("windows must be >= 1")
        if cold_start_mbps <= 0:
            raise ValueError(
                f"cold-start prediction must be positive, got {cold_start_mbps}"
            )
        self.n_lanes = n_lanes
        self.window = window
        self.error_window = error_window
        self.cold_start_mbps = cold_start_mbps
        self._error_rows: "list[NDArray[np.float64]]" = []
        self._last_prediction: NDArray[np.float64] | None = None

    def reset(self) -> None:
        self._error_rows = []
        self._last_prediction = None

    def observe(self, actual_mbps: NDArray[np.float64]) -> None:
        """Record the per-lane realised throughputs of the last chunk."""
        if np.any(actual_mbps <= 0):
            raise ValueError("throughput must be positive")
        last = self._last_prediction
        if last is not None:
            error = np.abs(last - actual_mbps) / actual_mbps
            self._error_rows.append(error)
            if len(self._error_rows) > self.error_window:
                self._error_rows.pop(0)

    def predict(self, history_rows: "list[NDArray[np.float64]]") -> NDArray[np.float64]:
        """Predicted per-lane throughput (Mbps) for the next download."""
        if not history_rows:
            prediction = np.full(self.n_lanes, self.cold_start_mbps)
        else:
            recent = history_rows[-self.window:]
            # Same sequential 1/v accumulation as the scalar predictor, one
            # lane-row at a time, so per-lane floats cannot reassociate.
            inv_sum = np.zeros(self.n_lanes)
            for row in recent:
                if np.any(row <= 0):
                    raise ValueError("throughput history must be positive")
                inv_sum += 1.0 / row
            harmonic = len(recent) / inv_sum
            max_error = (
                np.maximum.reduce(self._error_rows) if self._error_rows else 0.0
            )
            prediction = harmonic / (1.0 + max_error)
        self._last_prediction = prediction
        return prediction
