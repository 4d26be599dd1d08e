"""EHMM assembly: turning a session log into the arrays the algorithms need.

:class:`EHMMProblem` is the bridge between the player substrate (session
logs, whose TCP state the emission build reads as columns) and the
inference algorithms (pure array code): it holds the log-emission matrix,
the window gaps Δn, and the pieces needed to turn sampled state paths back
into bandwidth traces.

Every problem is assembled by :func:`build_problems_batch`, which builds
the emission rows of all its logs in one
:meth:`~repro.core.emission.EmissionModel.log_prob_matrix` call;
:func:`build_problem`, what scalar :meth:`VeritasAbduction.solve
<repro.core.abduction.VeritasAbduction.solve>` runs, is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..player.logs import SessionLog
from ..tcp.state import TCPStateColumns
from .emission import EmissionModel
from .grid import CapacityGrid
from .interpolation import window_gaps
from .transitions import TransitionModel

__all__ = ["EHMMProblem", "build_problem", "build_problems_batch"]


@dataclass(frozen=True)
class EHMMProblem:
    """All inference inputs derived from one session log."""

    grid: CapacityGrid
    transitions: TransitionModel
    delta_s: float
    log_emissions: np.ndarray
    """(N, K) log emission matrix."""
    deltas: np.ndarray
    """(N,) window gaps Δn (Δ_1 = 0)."""
    start_times_s: np.ndarray
    observed_mbps: np.ndarray
    session_end_s: float

    @property
    def n_chunks(self) -> int:
        return int(self.log_emissions.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.log_emissions.shape[1])


def build_problem(
    log: SessionLog,
    grid: CapacityGrid,
    transitions: TransitionModel,
    emission: EmissionModel,
    delta_s: float,
) -> EHMMProblem:
    """Assemble the EHMM arrays for ``log``: :func:`build_problems_batch`
    on a stack of one, on the NumPy emission path.

    Raises :class:`ValueError` for empty logs and for mismatched grid /
    transition model sizes, both of which indicate harness bugs.
    """
    return build_problems_batch([log], grid, transitions, emission, delta_s)[0]


def build_problems_batch(
    logs: "list[SessionLog]",
    grid: CapacityGrid,
    transitions: TransitionModel,
    emission: EmissionModel,
    delta_s: float,
    kernel: str | None = None,
) -> "list[EHMMProblem]":
    """Assemble EHMM problems for several logs with one emission evaluation.

    The chunks of every session are concatenated (observations, sizes
    and the logs' TCP-state columns, so no per-chunk object is built)
    and the emission matrix is evaluated in a single
    batched call — emission rows depend only on their own
    ``(observation, tcp_state, size)`` triple, so each row is
    bit-identical to a build of its log alone — then split back into
    per-session ``(n_chunks, K)`` views.  Logs may have
    different chunk counts.  ``kernel`` is forwarded to
    :meth:`EmissionModel.log_prob_matrix` (``"compiled"`` builds the
    concatenated matrix in one :mod:`repro.core._kernels` call).
    """
    if not logs:
        raise ValueError("need at least one session log")
    if transitions.n_states != grid.n_states:
        raise ValueError(
            f"transition model has {transitions.n_states} states but grid "
            f"has {grid.n_states}"
        )
    if emission.grid is not grid:
        raise ValueError("emission model must share the problem's grid")

    observed_per_log = []
    starts_per_log = []
    sizes_per_log = []
    tcp_per_log = []
    for log in logs:
        if log.n_chunks == 0:
            raise ValueError("cannot build an EHMM problem from an empty log")
        observed_per_log.append(log.throughputs_mbps())
        starts_per_log.append(log.start_times_s())
        sizes_per_log.append(log.sizes_bytes())
        tcp_per_log.append(log.tcp_state_columns())

    log_b_all = emission.log_prob_matrix(
        np.concatenate(observed_per_log),
        TCPStateColumns.concatenate(tcp_per_log),
        np.concatenate(sizes_per_log),
        kernel=kernel,
    )

    problems = []
    pos = 0
    for log, observed, starts in zip(logs, observed_per_log, starts_per_log):
        count = log.n_chunks
        problems.append(
            EHMMProblem(
                grid=grid,
                transitions=transitions,
                delta_s=delta_s,
                log_emissions=log_b_all[pos : pos + count],
                deltas=window_gaps(starts, delta_s),
                start_times_s=starts,
                observed_mbps=observed,
                session_end_s=float(log.end_times_s()[-1]),
            )
        )
        pos += count
    return problems
