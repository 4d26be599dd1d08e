"""The EHMM emission model (paper Eq. 3).

For chunk ``n`` with observed throughput ``Y_n``, TCP start state ``W_sn``
and size ``S_n``, the emission probability of capacity state ``c`` is

    P(Y_n | W_sn, S_n, C_sn = c) = Normal(f(c, W_sn, S_n), σ²)

where ``f`` is the domain-specific TCP throughput estimator (Algorithm 4).
The Gaussian absorbs ``f``'s modelling error (Fig. 5).

An estimator is a whole-session function
``f(grid_values, states, sizes_bytes) -> (n_chunks, n_states)``: the
``(K,)`` capacity grid, the session's TCP state as
:class:`~repro.tcp.state.TCPStateColumns` and its ``(n_chunks,)`` chunk
sizes in, the predicted throughput of every chunk in every state out.
The default is :func:`~repro.tcp.estimator.estimate_throughput_grid_batch`.
The module also provides the **naive** estimator used by the ablation
bench, :func:`naive_emission`: ``f(c, ·, ·) = c``, i.e. assuming observed
throughput equals GTBW — which is exactly the assumption Veritas exists to
avoid.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..tcp.estimator import (
    REQUEST_RTTS,
    chunk_state_arrays,
    estimate_throughput_grid_batch,
)
from ..tcp.state import TCPStateColumns
from ..util.compiled import warn_fallback
from . import _kernels
from .grid import CapacityGrid

__all__ = ["EmissionModel", "naive_emission"]


def naive_emission(
    grid_values: np.ndarray, states: TCPStateColumns, sizes_bytes: np.ndarray
) -> np.ndarray:
    """Ablation: assume every chunk would observe the full capacity.

    The grid, once per chunk of ``states`` (``(n_chunks, n_states)``).
    """
    grid = np.asarray(grid_values, dtype=float)
    return np.tile(grid, (len(states), 1))


class EmissionModel:
    """Gaussian emission around a per-state throughput predictor.

    A small ``outlier_mass`` mixes in a uniform component over the
    observable throughput range.  The emission approximation of Eq. 3 uses
    only the capacity at the chunk's *start* window; when GTBW shifts
    mid-download the observation can sit far from ``f(c, W, S)`` for every
    state ``c``, and a pure Gaussian would let a single such chunk dominate
    the whole trajectory.  The mixture caps the influence of those
    model-mismatch outliers without affecting well-modelled chunks.

    ``estimator`` is a whole-session function (see the module
    docstring); the NumPy path of :meth:`log_prob_matrix` calls it once,
    on all of the session's chunks.
    """

    def __init__(
        self,
        grid: CapacityGrid,
        sigma_mbps: float = 0.5,
        estimator: Callable[
            [np.ndarray, TCPStateColumns, np.ndarray], np.ndarray
        ] = estimate_throughput_grid_batch,
        outlier_mass: float = 0.05,
    ):
        if sigma_mbps <= 0:
            raise ValueError(f"sigma must be positive, got {sigma_mbps}")
        if not 0 <= outlier_mass < 1:
            raise ValueError(f"outlier_mass must be in [0, 1), got {outlier_mass}")
        self.grid = grid
        self.sigma_mbps = float(sigma_mbps)
        self.estimator = estimator
        self.outlier_mass = float(outlier_mass)

    # ------------------------------------------------------------------
    def log_prob_matrix(
        self,
        observed_mbps: Sequence[float],
        states: TCPStateColumns,
        sizes_bytes: Sequence[float],
        kernel: str | None = None,
    ) -> np.ndarray:
        """Log emissions for a whole session (shape ``(n_chunks, n_states)``).

        The estimator predicts every chunk's throughput in every state in
        one call, and the Gaussian/outlier mixture is evaluated on that
        matrix with in-place array ops.  ``tests/test_vectorized_parity.py``
        pins the result against a per-row oracle built on the scalar
        :func:`~repro.tcp.estimator.estimate_throughput`.

        Rows are chunk-independent — row ``n`` depends only on its own
        ``(observation, tcp_state, size)`` triple — so concatenating the
        chunks of several sessions into one call yields rows bit-identical
        to the per-session calls.  The corpus-batched abduction pipeline
        (``build_problems_batch``) relies on this contract.

        ``states`` is the chunks' TCP state as columns (what
        :meth:`SessionLog.tcp_state_columns` serves; a snapshot sequence
        goes through :meth:`TCPStateColumns.of` first).

        ``kernel="compiled"`` builds the whole matrix (Algorithm-4 round
        schedules included) in one :mod:`repro.core._kernels` call when
        the estimator is
        :func:`~repro.tcp.estimator.estimate_throughput_grid_batch` — rows
        within ``rtol=1e-13`` of this path.  Other estimators, and
        compiled requests without a compiled backend (after a
        once-per-process warning), use the NumPy path.
        """
        observed = np.asarray(observed_mbps, dtype=float)
        sizes = np.asarray(sizes_bytes, dtype=float)
        if not observed.size == len(states) == sizes.size:
            raise ValueError(
                "observations, TCP states, and sizes must have equal length"
            )
        if observed.size == 0:
            raise ValueError("need at least one observation")
        if np.any(observed < 0):
            bad = float(observed[observed < 0][0])
            raise ValueError(f"observed throughput must be >= 0, got {bad}")

        if (
            kernel == "compiled"
            and self.estimator is estimate_throughput_grid_batch
        ):
            if not _kernels.available():
                warn_fallback("abduction", "compiled", "numpy")
            else:
                if np.any(sizes <= 0):
                    raise ValueError("sizes must be positive")
                cwnd0, ssthresh0, min_rtt = chunk_state_arrays(states)
                return _kernels.emission_log_probs(
                    observed,
                    cwnd0,
                    ssthresh0,
                    min_rtt,
                    sizes,
                    self.grid.values_mbps,
                    REQUEST_RTTS,
                    self.sigma_mbps,
                    self.outlier_mass,
                    self.grid.max_mbps,
                )

        predicted = self.estimator(self.grid.values_mbps, states, sizes)
        # The Gaussian, then its mixture with a uniform density over
        # [0, grid max] (floored so the uniform component is proper even
        # for tiny grids), evaluated in place on one (n_chunks, n_states)
        # buffer.
        out = observed[:, None] - predicted
        out /= self.sigma_mbps
        np.multiply(out, out, out=out)
        out *= -0.5
        out -= math.log(self.sigma_mbps * math.sqrt(2 * math.pi))
        if self.outlier_mass == 0:
            return out
        uniform_density = 1.0 / max(self.grid.max_mbps, 1.0)
        log_uniform = math.log(self.outlier_mass * uniform_density)
        out -= log_uniform
        np.minimum(out, 700.0, out=out)
        np.exp(out, out=out)
        out *= 1.0 - self.outlier_mass
        np.log1p(out, out=out)
        out += log_uniform
        return out
