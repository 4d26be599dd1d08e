"""Veritas's forward–backward variant (paper Algorithm 2).

The scaled Baum-Welch forward-backward recursion with the constant
transition matrix replaced by the embedded powers ``A^Δn``.  Outputs:

* ``gamma[n, i]  = P(C_sn = iε | Y_{1:N}, W_{s_{1:N}}, S_{1:N})`` — the
  posterior marginals,
* ``xi[n, i, j]  = P(C_sn = iε, C_s{n+1} = jε | ...)`` — the pairwise
  posterior Γ of paper Eq. 6, which drives the capacity sampler, and
* the data log-likelihood (useful for hyperparameter diagnostics).

Emissions arrive in log space; each row is max-shifted before
exponentiation so chunks whose observation is unlikely under *every*
capacity state cannot underflow the scaled recursion to 0/0.

Abduction kernel tiers: :func:`forward_backward_batch` accepts
``kernel="compiled"`` to run the whole stacked recursion (including the
pairwise-posterior build) in one :mod:`repro.core._kernels` call —
results within ``rtol=1e-13`` of the NumPy tier (what ``kernel=None``
runs here, itself pinned against the loop oracle that
``tests/test_vectorized_parity.py`` keeps; the engine-level default is picked by
:func:`~repro.core.abduction.resolve_abduction_kernel`).  When no
compiled backend is available the request degrades to the NumPy tier
with a once-per-process :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.compiled import warn_fallback
from . import _kernels
from .transitions import TransitionModel

__all__ = [
    "ForwardBackwardResult",
    "ForwardBackwardBatchResult",
    "forward_backward",
    "forward_backward_batch",
]

_TINY = 1e-300


@dataclass(frozen=True)
class ForwardBackwardResult:
    """Posterior marginals, pairwise posteriors, and the log-likelihood."""

    gamma: np.ndarray
    """(N, K) posterior state marginals."""
    xi: np.ndarray
    """(N-1, K, K) pairwise posteriors Γ (paper Eq. 6); empty for N == 1."""
    log_likelihood: float


def forward_backward(
    log_emissions: np.ndarray,
    transitions: TransitionModel,
    deltas: np.ndarray,
) -> ForwardBackwardResult:
    """Run the scaled forward-backward recursion with ``A^Δn`` transitions."""
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

    # Per-row max shift keeps the scaled recursion away from 0/0 even when
    # an observation is improbable under every state.
    shifts = log_b.max(axis=1)
    b = np.exp(log_b - shifts[:, None])

    alpha = np.zeros((n_chunks, n_states))
    scale = np.zeros(n_chunks)

    alpha[0] = transitions.initial * b[0]
    scale[0] = alpha[0].sum()
    if scale[0] <= 0:
        raise FloatingPointError("forward pass underflowed at chunk 0")
    alpha[0] /= scale[0]

    # gaps[0] is never used (the first chunk draws from the initial
    # distribution), so its power is not computed.  Row views are hoisted
    # into lists once so the recursions do no per-step indexing of the 2-D
    # arrays.
    powers = [None] + [transitions.power(int(gaps[n])) for n in range(1, n_chunks)]
    alpha_rows = list(alpha)
    b_rows = list(b)
    previous = alpha_rows[0]
    for n in range(1, n_chunks):
        row = alpha_rows[n]
        np.dot(previous, powers[n], out=row)
        row *= b_rows[n]
        total = row.sum()
        if total <= 0:
            raise FloatingPointError(f"forward pass underflowed at chunk {n}")
        row /= total
        scale[n] = total
        previous = row

    # weighted[n] = b[n] * beta[n] is shared by the beta recursion and the
    # pairwise-posterior step, so it is computed once per chunk.
    beta = np.zeros((n_chunks, n_states))
    weighted = np.empty((n_chunks, n_states))
    beta[-1] = 1.0
    weighted[-1] = b[-1]
    beta_rows = list(beta)
    weighted_rows = list(weighted)
    scale_list = scale.tolist()
    for n in range(n_chunks - 2, -1, -1):
        row = beta_rows[n]
        np.dot(powers[n + 1], weighted_rows[n + 1], out=row)
        row /= scale_list[n + 1]
        np.multiply(b_rows[n], row, out=weighted_rows[n])

    gamma = alpha * beta
    gamma /= np.maximum(gamma.sum(axis=1, keepdims=True), _TINY)

    if n_chunks > 1:
        # joint[n, i, j] = alpha[n, i] * A^Δ[n+1][i, j] * b[n+1, j] * beta[n+1, j]
        # for every chunk pair at once, then each slice is normalised.
        joint = np.stack(powers[1:])
        joint *= alpha[:-1, :, None]
        joint *= weighted[1:, None, :]
        totals = np.einsum("nij->n", joint)
        bad = np.flatnonzero(totals <= 0)
        if bad.size:
            n = int(bad[0])
            raise FloatingPointError(
                f"pairwise posterior underflowed between chunks {n} and {n + 1}"
            )
        joint /= totals[:, None, None]
        xi = joint
    else:
        xi = np.zeros((0, n_states, n_states))

    log_likelihood = float(np.sum(np.log(scale)) + np.sum(shifts))
    return ForwardBackwardResult(gamma=gamma, xi=xi, log_likelihood=log_likelihood)


@dataclass(frozen=True)
class ForwardBackwardBatchResult:
    """Stacked forward-backward output for ``T`` same-length sessions.

    Session ``t``'s slices are bit-identical to running
    :func:`forward_backward` on that session alone; the stacked ``xi``
    tensor stays in one contiguous block so the batched FFBS sampler can
    consume it without re-stacking.
    """

    gamma: np.ndarray
    """(T, N, K) posterior state marginals."""
    xi: np.ndarray
    """(T, N-1, K, K) pairwise posteriors; second axis empty for N == 1."""
    log_likelihoods: np.ndarray
    """(T,) data log-likelihoods."""

    @property
    def n_sessions(self) -> int:
        return int(self.gamma.shape[0])

    def session(self, t: int) -> ForwardBackwardResult:
        """Session ``t``'s result as an ordinary :class:`ForwardBackwardResult`."""
        return ForwardBackwardResult(
            gamma=self.gamma[t],
            xi=self.xi[t],
            log_likelihood=float(self.log_likelihoods[t]),
        )


def unique_power_stack(
    transitions: TransitionModel, gaps: np.ndarray, log: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``(stack, slots)``: unique ``A^Δ`` (or ``log A^Δ``) matrices + indices.

    Gap values repeat heavily (most chunk pairs are 0 or 1 windows apart),
    so the cached per-Δ matrices are stacked once; ``stack[slots]`` (or a
    per-chunk ``stack[slots[:, n]]`` gather) reconstructs the full
    per-(session, chunk) tensor.  Shared by the stacked forward-backward
    and Viterbi recursions.
    """
    unique_gaps, inverse = np.unique(gaps, return_inverse=True)
    lookup = transitions.log_power if log else transitions.power
    stack = np.stack([lookup(int(g)) for g in unique_gaps])
    return stack, inverse.reshape(gaps.shape)


def check_batch_inputs(
    log_emissions: np.ndarray, transitions: TransitionModel, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Shared validation for the stacked recursions (3-D emissions)."""
    log_b = np.asarray(log_emissions, dtype=float)
    if log_b.ndim != 3:
        raise ValueError(
            "log_emissions must be 3-D (sessions x chunks x states)"
        )
    n_sessions, n_chunks, n_states = log_b.shape
    if n_sessions == 0 or n_chunks == 0:
        raise ValueError("need at least one session and one chunk")
    if n_states != transitions.n_states:
        raise ValueError(
            f"emissions have {n_states} states but transition model has "
            f"{transitions.n_states}"
        )
    gaps = np.asarray(deltas, dtype=int)
    if gaps.shape != (n_sessions, n_chunks):
        raise ValueError(
            f"deltas must have shape ({n_sessions}, {n_chunks}), "
            f"got {gaps.shape}"
        )
    if np.any(gaps[:, 1:] < 0):
        raise ValueError("window gaps must be non-negative")
    return log_b, gaps


def forward_backward_batch(
    log_emissions: np.ndarray,
    transitions: TransitionModel,
    deltas: np.ndarray,
    kernel: str | None = None,
) -> ForwardBackwardBatchResult:
    """Run :func:`forward_backward` for ``T`` same-length sessions at once.

    ``log_emissions`` is ``(T, N, K)`` and ``deltas`` ``(T, N)``; each
    session keeps its own window gaps (and therefore its own transition
    powers).  The recursions advance all sessions in lockstep: chunk ``n``
    costs one stacked ``matmul`` over the ``(T, K)`` state vectors instead
    of ``T`` separate ``np.dot`` dispatches, and the pairwise-posterior
    step normalises the whole ``(T, N-1, K, K)`` tensor in one pass.

    Session ``t`` of the result is **bit-identical** to the scalar path:
    NumPy's stacked ``matmul`` applies the same BLAS kernel per ``(K,)``
    × ``(K, K)`` slice that ``np.dot`` uses, and every other step is
    elementwise or a per-row reduction (pinned by
    ``tests/test_batch_prepare.py``).

    ``kernel="compiled"`` instead runs the recursions in one
    :mod:`repro.core._kernels` call per stack (posteriors within
    ``rtol=1e-13`` of this path); without a compiled backend the request
    degrades to this path with a once-per-process warning.
    """
    log_b, gaps = check_batch_inputs(log_emissions, transitions, deltas)
    n_sessions, n_chunks, n_states = log_b.shape

    if kernel == "compiled":
        if not _kernels.available():
            warn_fallback("abduction", "compiled", "numpy")
        elif n_chunks > 1:
            stack, slots = unique_power_stack(transitions, gaps[:, 1:])
            gamma, xi, log_likelihoods = _kernels.forward_backward_stack(
                log_b, transitions.initial, stack, slots
            )
            return ForwardBackwardBatchResult(
                gamma=gamma, xi=xi, log_likelihoods=log_likelihoods
            )
        # n_chunks == 1 has no recursion to compile; the NumPy path below
        # is a handful of vector ops and already exact.

    shifts = log_b.max(axis=2)
    b = np.exp(log_b - shifts[:, :, None])

    alpha = np.zeros((n_sessions, n_chunks, n_states))
    scale = np.zeros((n_sessions, n_chunks))

    alpha[:, 0] = transitions.initial * b[:, 0]
    scale[:, 0] = alpha[:, 0].sum(axis=1)
    bad = np.flatnonzero(scale[:, 0] <= 0)
    if bad.size:
        raise FloatingPointError(
            f"forward pass underflowed at chunk 0 (session {int(bad[0])})"
        )
    alpha[:, 0] /= scale[:, 0, None]

    # gaps[:, 0] is never used (the first chunk draws from the initial
    # distribution).  The gathered powers tensor is reused as the joint
    # buffer of the pairwise-posterior step below, which consumes it after
    # the recursions have read their per-chunk views; the gather produces
    # a fresh writable array, never the cached matrices themselves.
    if n_chunks > 1:
        stack, slots = unique_power_stack(transitions, gaps[:, 1:])
        powers = stack[slots]
    else:
        powers = np.zeros((n_sessions, 0, n_states, n_states))

    previous = alpha[:, 0]
    for n in range(1, n_chunks):
        row = np.matmul(previous[:, None, :], powers[:, n - 1])[:, 0, :]
        row *= b[:, n]
        total = row.sum(axis=1)
        bad = np.flatnonzero(total <= 0)
        if bad.size:
            raise FloatingPointError(
                f"forward pass underflowed at chunk {n} "
                f"(session {int(bad[0])})"
            )
        row /= total[:, None]
        alpha[:, n] = row
        scale[:, n] = total
        previous = row

    # weighted[:, n] = b[:, n] * beta[:, n] is shared by the beta recursion
    # and the pairwise-posterior step, exactly as in the scalar path.
    beta = np.zeros((n_sessions, n_chunks, n_states))
    weighted = np.empty((n_sessions, n_chunks, n_states))
    beta[:, -1] = 1.0
    weighted[:, -1] = b[:, -1]
    for n in range(n_chunks - 2, -1, -1):
        row = np.matmul(powers[:, n], weighted[:, n + 1, :, None])[:, :, 0]
        row /= scale[:, n + 1, None]
        beta[:, n] = row
        np.multiply(b[:, n], row, out=weighted[:, n])

    gamma = alpha * beta
    gamma /= np.maximum(gamma.sum(axis=2, keepdims=True), _TINY)

    if n_chunks > 1:
        joint = powers
        joint *= alpha[:, :-1, :, None]
        joint *= weighted[:, 1:, None, :]
        totals = np.einsum("tnij->tn", joint)
        bad_pairs = np.argwhere(totals <= 0)
        if bad_pairs.size:
            t, n = (int(v) for v in bad_pairs[0])
            raise FloatingPointError(
                f"pairwise posterior underflowed between chunks {n} and "
                f"{n + 1} (session {t})"
            )
        joint /= totals[:, :, None, None]
        xi = joint
    else:
        xi = np.zeros((n_sessions, 0, n_states, n_states))

    log_likelihoods = np.log(scale).sum(axis=1) + shifts.sum(axis=1)
    return ForwardBackwardBatchResult(
        gamma=gamma, xi=xi, log_likelihoods=log_likelihoods
    )
