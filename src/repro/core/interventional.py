"""Interventional queries: bias-free download-time prediction (§4.4).

Given a session *so far*, predict the download time of the next chunk for
**any** candidate size — including sizes the deployed ABR would never have
chosen.  This is the query on which associational predictors (Fugu) are
biased and Veritas is not (Fig. 12).

Procedure (following §4.4): abduct the GTBW posterior from the chunks seen
so far, take the most likely (Viterbi/MAP) path, project its final state
forward through the transition matrix to the next chunk's start window, and
feed the expected capacity into the TCP throughput estimator ``f`` together
with the connection's current TCP state.

One question asks about every candidate size of the next chunk against the
same prefix.  :meth:`VeritasAbduction.solve` returns its last posterior
while the prefix is unchanged, so the question costs one emission build and
one Viterbi pass; :meth:`VeritasDownloadPredictor.predict` reads only the
MAP path and so never runs forward-backward, which
:meth:`~VeritasDownloadPredictor.predict_distribution` runs once per prefix
when it first samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..player.logs import SessionLog
from ..tcp.estimator import estimate_download_time
from ..tcp.state import TCPStateSnapshot
from ..util.rng import SeedLike, ensure_rng
from .abduction import VeritasAbduction, VeritasConfig
from .interpolation import window_index
from .sampler import sample_state_path

__all__ = [
    "VeritasDownloadPredictor",
    "InterventionalPrediction",
    "DownloadTimeDistribution",
]


@dataclass(frozen=True)
class InterventionalPrediction:
    """A download-time prediction with the intermediate quantities exposed."""

    download_time_s: float
    expected_capacity_mbps: float
    window_gap: int


@dataclass(frozen=True)
class DownloadTimeDistribution:
    """A sampled predictive distribution over the next download time.

    Fugu's deployed predictor outputs a distribution over transmit times;
    Veritas can do the same by propagating posterior *samples* of the
    capacity path (plus one forward transition draw) through ``f``.
    """

    samples_s: tuple[float, ...]

    def quantile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(np.asarray(self.samples_s), q))

    @property
    def median_s(self) -> float:
        return self.quantile(0.5)

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.samples_s))


class VeritasDownloadPredictor:
    """Predict next-chunk download times from a session prefix."""

    def __init__(self, config: VeritasConfig | None = None):
        self._abduction = VeritasAbduction(config)

    @property
    def config(self) -> VeritasConfig:
        return self._abduction.config

    def _window_gap(
        self,
        history: SessionLog,
        candidate_size_bytes: float,
        next_start_time_s: float,
    ) -> int:
        """Validate one question; return its δ-window gap past the last chunk."""
        if history.n_chunks == 0:
            raise ValueError("need at least one observed chunk to predict")
        if candidate_size_bytes <= 0:
            raise ValueError(
                f"candidate size must be positive, got {candidate_size_bytes}"
            )
        last_start = float(history.column("start_time_s")[-1])
        if next_start_time_s < last_start:
            raise ValueError(
                "next chunk cannot start before the last observed chunk"
            )
        delta_s = self.config.delta_s
        return window_index(next_start_time_s, delta_s) - window_index(
            last_start, delta_s
        )

    def predict(
        self,
        history: SessionLog,
        candidate_size_bytes: float,
        next_start_time_s: float,
        tcp_state: TCPStateSnapshot,
    ) -> InterventionalPrediction:
        """Predict the download time of a hypothetical next chunk.

        Parameters
        ----------
        history:
            Log of the session so far (at least one chunk).
        candidate_size_bytes:
            Size of the chunk whose download time is being asked about —
            the *intervention*; any size is allowed.
        next_start_time_s:
            When the candidate download would start.
        tcp_state:
            The connection's TCP state at that moment (observable via
            ``tcp_info`` in a real deployment).
        """
        gap = self._window_gap(history, candidate_size_bytes, next_start_time_s)
        posterior = self._abduction.solve(history)
        expected_capacity = posterior.expected_capacity_after(gap)
        download_s = estimate_download_time(
            expected_capacity, tcp_state, candidate_size_bytes
        )
        return InterventionalPrediction(
            download_time_s=download_s,
            expected_capacity_mbps=expected_capacity,
            window_gap=gap,
        )

    def predict_distribution(
        self,
        history: SessionLog,
        candidate_size_bytes: float,
        next_start_time_s: float,
        tcp_state: TCPStateSnapshot,
        n_samples: int = 25,
        seed: SeedLike = None,
    ) -> DownloadTimeDistribution:
        """Sampled predictive distribution over the next download time.

        Each sample draws a posterior capacity path (Algorithm 1), then a
        forward capacity through ``A^Δ`` from that path's final state, and
        evaluates ``f``.  The spread reflects both inversion ambiguity and
        future bandwidth uncertainty.
        """
        gap = self._window_gap(history, candidate_size_bytes, next_start_time_s)
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")

        posterior = self._abduction.solve(history)
        problem = posterior.problem
        rng = ensure_rng(seed)
        values = problem.grid.values_mbps

        samples = []
        for _ in range(n_samples):
            path = sample_state_path(
                posterior.viterbi.states, posterior.smoothing.xi, seed=rng
            )
            forward = problem.transitions.power(gap)[int(path[-1])]
            capacity = float(values[int(rng.choice(values.size, p=forward))])
            samples.append(
                estimate_download_time(capacity, tcp_state, candidate_size_bytes)
            )
        return DownloadTimeDistribution(samples_s=tuple(samples))
