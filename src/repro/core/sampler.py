"""The capacity sampler (paper Algorithm 1).

Draws posterior samples of the per-chunk hidden capacities ``C_{s_{1:N}}``:
the last chunk's state is anchored at the Viterbi (maximum likelihood)
solution, and earlier states are sampled backwards from the pairwise
posterior Γ — ``P(C_sn = i | C_s{n+1} = j, observations) ∝ Γ[n, i, j]``.

Sampling (rather than a single point estimate) is what lets Veritas report
a *range* of counterfactual outcomes reflecting the intrinsic uncertainty
of the inversion (§3.3, Fig. 7(b)).

Abduction kernel tiers: :func:`sample_state_paths_stack` accepts
``kernel="compiled"`` to run the whole stacked inverse-CDF backward pass
in one :mod:`repro.core._kernels` call.  The uniforms are still drawn in
Python — one ``ensure_rng(seed).random((N-1, count))`` block per session,
exactly as the NumPy tier consumes them — and the kernel's counting
arithmetic reproduces the NumPy CDF construction op for op, so the
sampled paths are bit-identical given the same pairwise posteriors.
Without a compiled backend the request degrades to the NumPy tier with a
once-per-process :class:`RuntimeWarning`.
"""

from __future__ import annotations

import numpy as np

from ..util.compiled import warn_fallback
from ..util.rng import SeedLike, ensure_rng
from . import _kernels

__all__ = [
    "sample_state_path",
    "sample_state_paths",
    "sample_state_paths_stack",
]


def sample_state_path(
    viterbi_states: np.ndarray,
    xi: np.ndarray,
    seed: SeedLike = None,
    anchor_last: bool = True,
    gamma: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one posterior sample of the hidden capacity index sequence.

    Parameters
    ----------
    viterbi_states:
        ``(N,)`` Viterbi path; its final state anchors the backward pass
        when ``anchor_last`` (the paper's Algorithm 1).
    xi:
        ``(N-1, K, K)`` pairwise posteriors from forward-backward.
    anchor_last:
        When ``False``, the last state is drawn from ``gamma[-1]`` instead
        (a fully Bayesian FFBS variant; requires ``gamma``).
    gamma:
        ``(N, K)`` posterior marginals (only needed when not anchoring).
    """
    states = np.asarray(viterbi_states, dtype=int)
    n_chunks = states.shape[0]
    if n_chunks == 0:
        raise ValueError("cannot sample an empty path")
    if xi.shape[0] != max(n_chunks - 1, 0):
        raise ValueError(
            f"xi has {xi.shape[0]} pair entries for {n_chunks} chunks"
        )
    rng = ensure_rng(seed)

    path = np.empty(n_chunks, dtype=int)
    if anchor_last:
        path[-1] = states[-1]
    else:
        if gamma is None:
            raise ValueError("gamma is required when anchor_last=False")
        marginal = np.maximum(gamma[-1], 0)
        marginal = marginal / marginal.sum()
        path[-1] = int(rng.choice(marginal.size, p=marginal))

    for n in range(n_chunks - 2, -1, -1):
        weights = np.maximum(xi[n][:, path[n + 1]], 0)
        total = weights.sum()
        if total <= 0:
            # Degenerate column (next state unreachable in the pairwise
            # posterior): fall back to the Viterbi state, which is always
            # consistent with the observations.
            path[n] = states[n]
            continue
        path[n] = int(rng.choice(weights.size, p=weights / total))
    return path


def _inverse_cdf_draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First index per column of ``cdf`` whose value exceeds ``u``.

    ``cdf`` is ``(K, M)`` with each column a non-decreasing CDF ending at 1;
    ``u`` is ``(M,)`` uniforms.  Strict ``>`` skips zero-mass states whose
    CDF entry ties the draw (including ``u == 0`` on a leading zero).
    """
    return np.minimum((cdf <= u[None, :]).sum(axis=0), cdf.shape[0] - 1)


def sample_state_paths(
    viterbi_states: np.ndarray,
    xi: np.ndarray,
    count: int,
    seed: SeedLike = None,
    anchor_last: bool = True,
    gamma: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Draw ``count`` independent posterior paths (§4.1 uses K = 5).

    Vectorised FFBS: all ``count`` paths advance through the backward pass
    together.  Each chunk normalises the pairwise posterior's columns into
    per-column CDFs once, then resolves every sample with a single
    ``rng.random((count,))`` draw by inverse-CDF lookup — instead of the
    ``count × N`` ``rng.choice`` calls of the one-path-at-a-time reference
    (the behavioural yardstick, kept in ``tests/test_vectorized_parity.py``).
    Degenerate columns fall back to the Viterbi state exactly
    as the scalar sampler does.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    states = np.asarray(viterbi_states, dtype=int)
    n_chunks = states.shape[0]
    if n_chunks == 0:
        raise ValueError("cannot sample an empty path")
    if xi.shape[0] != max(n_chunks - 1, 0):
        raise ValueError(
            f"xi has {xi.shape[0]} pair entries for {n_chunks} chunks"
        )
    rng = ensure_rng(seed)

    paths = np.empty((count, n_chunks), dtype=int)
    if anchor_last:
        paths[:, -1] = states[-1]
    else:
        if gamma is None:
            raise ValueError("gamma is required when anchor_last=False")
        marginal = np.maximum(gamma[-1], 0)
        cdf = np.cumsum(marginal / marginal.sum())
        cdf[-1] = 1.0
        paths[:, -1] = _inverse_cdf_draw(cdf[:, None], rng.random(count))

    n_pairs = n_chunks - 1
    if n_pairs:
        # All per-column CDFs and all uniforms are precomputed in bulk; the
        # backward loop itself is a handful of O(K * count) gathers per chunk.
        weights = np.maximum(xi, 0.0)
        totals = weights.sum(axis=1)
        reachable = totals > 0
        cdfs = np.cumsum(weights, axis=1)
        cdfs /= np.where(reachable, totals, 1.0)[:, None, :]
        # Exact 1.0 tops: draws lie in [0, 1), so the strict-> lookup can
        # never overrun the support of a reachable column.
        tops = cdfs[:, -1, :]
        tops[reachable] = 1.0
        all_reachable = reachable.all(axis=1)
        uniforms = rng.random((n_pairs, count))

    for n in range(n_pairs - 1, -1, -1):
        successors = paths[:, n + 1]
        columns = cdfs[n].take(successors, axis=1)
        drawn = (columns <= uniforms[n]).sum(axis=0)
        if all_reachable[n]:
            paths[:, n] = drawn
        else:
            # Degenerate columns (next state unreachable in the pairwise
            # posterior) fall back to the always-consistent Viterbi state.
            paths[:, n] = np.where(reachable[n][successors], drawn, states[n])
    return list(paths)


def sample_state_paths_stack(
    viterbi_states: np.ndarray,
    xi: np.ndarray,
    count: int,
    seeds: "list",
    kernel: str | None = None,
) -> np.ndarray:
    """Draw ``count`` posterior paths for ``T`` stacked sessions at once.

    ``viterbi_states`` is ``(T, N)`` and ``xi`` ``(T, N-1, K, K)`` — the
    stacked output of ``forward_backward_batch``.  Session ``t`` consumes
    exactly one ``rng.random((N-1, count))`` block from ``seeds[t]``
    (anything :func:`~repro.util.rng.ensure_rng` accepts), so its
    ``count`` paths in the returned ``(T, count, N)`` array are
    bit-identical to ``sample_state_paths(states[t], xi[t], count,
    seed=seeds[t])`` — the backward pass just advances every session's
    samples together, one gather per chunk instead of one per session per
    chunk.  Degenerate columns fall back to the per-session Viterbi state
    exactly as the scalar sampler does.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    states = np.asarray(viterbi_states, dtype=int)
    if states.ndim != 2:
        raise ValueError("viterbi_states must be 2-D (sessions x chunks)")
    n_sessions, n_chunks = states.shape
    if n_sessions == 0 or n_chunks == 0:
        raise ValueError("cannot sample an empty path stack")
    if xi.ndim != 4 or xi.shape[:2] != (n_sessions, max(n_chunks - 1, 0)):
        raise ValueError(
            f"xi must be (sessions, pairs, K, K) matching {states.shape}, "
            f"got {xi.shape}"
        )
    if len(seeds) != n_sessions:
        raise ValueError(f"need one seed per session, got {len(seeds)}")

    if kernel == "compiled":
        if not _kernels.available():
            warn_fallback("abduction", "compiled", "numpy")
        elif n_chunks > 1:
            uniforms = np.stack(
                [ensure_rng(seed).random((n_chunks - 1, count)) for seed in seeds]
            )
            return _kernels.ffbs_stack(states, xi, uniforms)
        # n_chunks == 1 draws nothing; the trivial path below is exact.

    paths = np.empty((n_sessions, count, n_chunks), dtype=int)
    paths[:, :, -1] = states[:, -1][:, None]

    n_pairs = n_chunks - 1
    if n_pairs:
        # Same precomputation as the single-session sampler, with a
        # leading session axis; the cumulative sums overwrite the weights
        # buffer in place (the totals are already banked).
        weights = np.maximum(xi, 0.0)
        totals = weights.sum(axis=2)
        reachable = totals > 0
        cdfs = np.cumsum(weights, axis=2, out=weights)
        cdfs /= np.where(reachable, totals, 1.0)[:, :, None, :]
        tops = cdfs[:, :, -1, :]
        tops[reachable] = 1.0
        all_reachable = reachable.all(axis=2)
        uniforms = np.stack(
            [ensure_rng(seed).random((n_pairs, count)) for seed in seeds]
        )
        session_rows = np.arange(n_sessions)[:, None]
        session_cube = session_rows[:, :, None]
        state_cols = np.arange(cdfs.shape[2])[None, :, None]

    for n in range(n_pairs - 1, -1, -1):
        successors = paths[:, :, n + 1]
        columns = cdfs[:, n][session_cube, state_cols, successors[:, None, :]]
        drawn = (columns <= uniforms[:, n][:, None, :]).sum(axis=1)
        if all_reachable[:, n].all():
            paths[:, :, n] = drawn
        else:
            ok = reachable[:, n][session_rows, successors]
            paths[:, :, n] = np.where(ok, drawn, states[:, n][:, None])
    return paths
