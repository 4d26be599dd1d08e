"""Veritas's Viterbi variant (paper Algorithm 3).

Standard log-space Viterbi with one change: the transition between chunks
``n-1`` and ``n`` is ``A^Δn`` rather than a constant ``A``, where ``Δn`` is
the number of GTBW windows between the two chunk start times (Fig. 4).
``Δn = 0`` (two chunks starting in the same window) uses the identity —
both chunks then share the same hidden capacity window, as required.

Abduction kernel tiers: :func:`viterbi_path_batch` accepts
``kernel="compiled"`` to extract every stacked session's path in one
:mod:`repro.core._kernels` call.  Viterbi is pure adds plus first-maximum
argmax, so the compiled paths are bit-identical to the NumPy tier (what
``kernel=None`` runs here); without a compiled backend the request
degrades to NumPy with a once-per-process :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.compiled import warn_fallback
from . import _kernels
from .forward_backward import check_batch_inputs, unique_power_stack
from .transitions import TransitionModel

__all__ = ["ViterbiResult", "ViterbiBatchResult", "viterbi_path", "viterbi_path_batch"]


@dataclass(frozen=True)
class ViterbiResult:
    """Maximum-likelihood hidden state path and its log joint probability."""

    states: np.ndarray
    log_probability: float


def viterbi_path(
    log_emissions: np.ndarray,
    transitions: TransitionModel,
    deltas: np.ndarray,
) -> ViterbiResult:
    """Most likely capacity index sequence ``I*_{1:N}`` (paper Eq. 4).

    Parameters
    ----------
    log_emissions:
        ``(N, K)`` log emission matrix (chunk × capacity state).
    transitions:
        The transition model supplying ``log A^Δ``.
    deltas:
        ``(N,)`` integer window gaps; ``deltas[0]`` is ignored (the first
        chunk uses the initial distribution).
    """
    log_b = np.asarray(log_emissions, dtype=float)
    if log_b.ndim != 2:
        raise ValueError("log_emissions must be 2-D (chunks x states)")
    n_chunks, n_states = log_b.shape
    if n_states != transitions.n_states:
        raise ValueError(
            f"emissions have {n_states} states but transition model has "
            f"{transitions.n_states}"
        )
    gaps = np.asarray(deltas, dtype=int)
    if gaps.shape != (n_chunks,):
        raise ValueError(f"deltas must have shape ({n_chunks},), got {gaps.shape}")
    if np.any(gaps[1:] < 0):
        raise ValueError("window gaps must be non-negative")

    score = transitions.log_initial + log_b[0]
    # np.intp: argmax(out=...) requires the platform index type exactly.
    backpointers = np.zeros((n_chunks, n_states), dtype=np.intp)
    columns = np.arange(n_states)
    candidate = np.empty((n_states, n_states))

    for n in range(1, n_chunks):
        log_a = transitions.log_power(int(gaps[n]))
        # candidate[i, j] = score[i] + log A^Δn[i, j]; the best row per
        # column is the backpointer and its entry the new score.
        np.add(score[:, None], log_a, out=candidate)
        best = backpointers[n]
        candidate.argmax(axis=0, out=best)
        score = candidate[best, columns]
        score += log_b[n]

    path = np.empty(n_chunks, dtype=int)
    path[-1] = int(np.argmax(score))
    for n in range(n_chunks - 1, 0, -1):
        path[n - 1] = backpointers[n, path[n]]

    return ViterbiResult(states=path, log_probability=float(np.max(score)))


@dataclass(frozen=True)
class ViterbiBatchResult:
    """Maximum-likelihood paths for ``T`` same-length sessions."""

    states: np.ndarray
    """(T, N) state index paths."""
    log_probabilities: np.ndarray
    """(T,) log joint probabilities."""

    @property
    def n_sessions(self) -> int:
        return int(self.states.shape[0])

    def session(self, t: int) -> ViterbiResult:
        """Session ``t``'s path as an ordinary :class:`ViterbiResult`."""
        return ViterbiResult(
            states=self.states[t],
            log_probability=float(self.log_probabilities[t]),
        )


def viterbi_path_batch(
    log_emissions: np.ndarray,
    transitions: TransitionModel,
    deltas: np.ndarray,
    kernel: str | None = None,
) -> ViterbiBatchResult:
    """Run :func:`viterbi_path` for ``T`` same-length sessions in lockstep.

    ``log_emissions`` is ``(T, N, K)`` and ``deltas`` ``(T, N)``; each
    session keeps its own window gaps.  Per chunk the ``(T, K, K)``
    candidate tensor is built with one broadcast add and reduced with one
    ``argmax`` instead of ``T`` separate passes.  Session ``t`` of the
    result is bit-identical to the scalar path: the scoring arithmetic is
    elementwise and ``argmax`` resolves ties to the lowest index on both
    paths.

    ``kernel="compiled"`` extracts every session's path in one
    :mod:`repro.core._kernels` call instead (bit-identical — same adds,
    same first-max tie rule); without a compiled backend the request
    degrades to this path with a once-per-process warning.
    """
    log_b, gaps = check_batch_inputs(log_emissions, transitions, deltas)
    n_sessions, n_chunks, n_states = log_b.shape

    if kernel == "compiled":
        if not _kernels.available():
            warn_fallback("abduction", "compiled", "numpy")
        elif n_chunks > 1:
            log_stack, slots = unique_power_stack(
                transitions, gaps[:, 1:], log=True
            )
            states, log_probabilities = _kernels.viterbi_stack(
                log_b, transitions.log_initial, log_stack, slots
            )
            return ViterbiBatchResult(
                states=states, log_probabilities=log_probabilities
            )
        # n_chunks == 1 is a single argmax; the NumPy path below is exact.

    score = transitions.log_initial + log_b[:, 0]
    backpointers = np.zeros((n_sessions, n_chunks, n_states), dtype=np.intp)

    if n_chunks > 1:
        # log A^Δ gathered per chunk from the cached per-Δ logs (a full
        # (T, N-1, K, K) tensor is never materialized here — unlike the
        # forward-backward, Viterbi only reads one chunk slice at a time).
        log_stack, slots = unique_power_stack(transitions, gaps[:, 1:], log=True)

    for n in range(1, n_chunks):
        candidate = score[:, :, None] + log_stack[slots[:, n - 1]]
        best = candidate.argmax(axis=1)
        backpointers[:, n] = best
        score = np.take_along_axis(candidate, best[:, None, :], axis=1)[:, 0, :]
        score += log_b[:, n]

    path = np.empty((n_sessions, n_chunks), dtype=int)
    path[:, -1] = score.argmax(axis=1)
    for n in range(n_chunks - 1, 0, -1):
        path[:, n - 1] = np.take_along_axis(
            backpointers[:, n], path[:, n, None], axis=1
        )[:, 0]

    return ViterbiBatchResult(
        states=path, log_probabilities=score.max(axis=1)
    )
