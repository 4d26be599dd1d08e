"""Parity tests: vectorised inference paths vs their scalar references.

The vectorised engine (batched Algorithm-4 grids, batch emission matrix,
einsum pairwise posteriors, inverse-CDF FFBS) must agree with the scalar
reference implementations to <= 1e-9 across randomized sessions, including
the awkward cases: Δ = 0 gaps, single-chunk sessions, and zero-capacity
grid points.  The four loop oracles (Algorithm 4 state by state, the
emission mixture one row at a time, forward-backward one chunk pair at a
time, FFBS one path at a time) live here, not in the package: nothing
else runs them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    CapacityGrid,
    EmissionModel,
    TransitionModel,
    forward_backward,
    naive_emission,
    sample_state_path,
    sample_state_paths,
    tridiagonal_matrix,
    viterbi_path,
)
from repro.core.forward_backward import _TINY, ForwardBackwardResult
from repro.tcp import (
    TCPStateSnapshot,
    apply_slow_start_restart,
    estimate_throughput,
    estimate_throughput_grid_batch,
)
from repro.tcp.constants import MSS_BYTES
from repro.tcp.estimator import REQUEST_RTTS, _segments, _window_phase
from repro.tcp.state import TCPStateColumns
from repro.util.rng import SeedLike, ensure_rng
from repro.util.units import mbps_to_bytes_per_sec

TOL = 1e-9


# ---------------------------------------------------------------------------
# Loop oracles: the scalar formulations the vectorised paths replaced, kept
# here as the golden references these parity tests pin them against.


def estimate_throughput_grid_reference(
    gtbw_grid_mbps: np.ndarray,
    tcp_state: TCPStateSnapshot,
    size_bytes: float,
    request_rtts: float = REQUEST_RTTS,
) -> np.ndarray:
    """Scalar-loop formulation of one chunk's row of
    :func:`estimate_throughput_grid_batch`.

    Kept as the golden reference for the vectorised fast path: it walks the
    paper's ``while`` loop state by state, caching round counts per BDP
    bucket, exactly as the original implementation did.
    """
    grid = np.asarray(gtbw_grid_mbps, dtype=float)
    if np.any(grid < 0):
        raise ValueError("GTBW grid values must be non-negative")
    if size_bytes <= 0:
        raise ValueError(f"size must be positive, got {size_bytes}")

    cwnd0, ssthresh0, _ = apply_slow_start_restart(
        tcp_state.cwnd_segments,
        tcp_state.ssthresh_segments,
        tcp_state.time_since_last_send_s,
        tcp_state.rto_s,
    )
    min_rtt = tcp_state.min_rtt_s
    request_s = request_rtts * min_rtt
    data_segments = _segments(size_bytes)
    chunk_mbits = size_bytes * 8 / 1e6

    out = np.empty_like(grid)
    rounds_cache: dict[int, tuple[int, int]] = {}
    for i, c in enumerate(grid):
        if c == 0:
            out[i] = 0.0
            continue
        rate = mbps_to_bytes_per_sec(c)
        bdp_segments = _segments(rate * min_rtt)
        if cwnd0 > bdp_segments:
            if data_segments > bdp_segments:
                download_s = request_s + size_bytes / rate
            else:
                download_s = request_s + min_rtt
        else:
            phase = rounds_cache.get(bdp_segments)
            if phase is None:
                phase = _window_phase(data_segments, bdp_segments, cwnd0, ssthresh0)
                rounds_cache[bdp_segments] = phase
            rounds, sent = phase
            tail_bytes = max(0.0, size_bytes - sent * MSS_BYTES)
            download_s = request_s + rounds * min_rtt + tail_bytes / rate
        out[i] = chunk_mbits / download_s
    return out


def log_prob_row_reference(
    model: EmissionModel,
    observed_mbps: float,
    tcp_state: TCPStateSnapshot,
    size_bytes: float,
    estimate=estimate_throughput,
) -> np.ndarray:
    """One chunk's log emissions over the grid, term by term (golden
    reference for :meth:`EmissionModel.log_prob_matrix`).

    ``estimate(c, tcp_state, size_bytes)`` predicts the throughput of one
    state ``c``: the scalar Algorithm 4 by default.  The Gaussian and its
    mixture with the uniform outlier density follow.
    """
    predicted = np.array(
        [estimate(c, tcp_state, size_bytes) for c in model.grid.values_mbps]
    )
    z = (observed_mbps - predicted) / model.sigma_mbps
    log_normal = -0.5 * z * z - math.log(
        model.sigma_mbps * math.sqrt(2 * math.pi)
    )
    if model.outlier_mass == 0:
        return log_normal
    # Uniform density over [0, grid max], floored so it stays proper.
    uniform_density = 1.0 / max(model.grid.max_mbps, 1.0)
    log_uniform = math.log(model.outlier_mass * uniform_density)
    peak = np.log1p(
        (1.0 - model.outlier_mass)
        * np.exp(np.minimum(log_normal - log_uniform, 700.0))
    )
    return log_uniform + peak


def forward_backward_reference(
    log_emissions: np.ndarray,
    transitions: TransitionModel,
    deltas: np.ndarray,
) -> ForwardBackwardResult:
    """Loop formulation of :func:`forward_backward` (golden reference).

    Identical recursions with the pairwise posteriors accumulated one chunk
    pair at a time; parity tests pin the vectorised ``xi`` path against it.
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

    shifts = log_b.max(axis=1)
    b = np.exp(log_b - shifts[:, None])

    alpha = np.zeros((n_chunks, n_states))
    scale = np.zeros(n_chunks)

    alpha[0] = transitions.initial * b[0]
    scale[0] = alpha[0].sum()
    if scale[0] <= 0:
        raise FloatingPointError("forward pass underflowed at chunk 0")
    alpha[0] /= scale[0]

    powers = [transitions.power(int(gaps[n])) for n in range(n_chunks)]
    for n in range(1, n_chunks):
        alpha[n] = (alpha[n - 1] @ powers[n]) * b[n]
        scale[n] = alpha[n].sum()
        if scale[n] <= 0:
            raise FloatingPointError(f"forward pass underflowed at chunk {n}")
        alpha[n] /= scale[n]

    beta = np.zeros((n_chunks, n_states))
    beta[-1] = 1.0
    for n in range(n_chunks - 2, -1, -1):
        beta[n] = powers[n + 1] @ (b[n + 1] * beta[n + 1])
        beta[n] /= scale[n + 1]

    gamma = alpha * beta
    gamma /= np.maximum(gamma.sum(axis=1, keepdims=True), _TINY)

    if n_chunks > 1:
        xi = np.zeros((n_chunks - 1, n_states, n_states))
        for n in range(n_chunks - 1):
            joint = (
                alpha[n][:, None]
                * powers[n + 1]
                * (b[n + 1] * beta[n + 1])[None, :]
            )
            total = joint.sum()
            if total <= 0:
                raise FloatingPointError(
                    f"pairwise posterior underflowed between chunks {n} and {n + 1}"
                )
            xi[n] = joint / total
    else:
        xi = np.zeros((0, n_states, n_states))

    log_likelihood = float(np.sum(np.log(scale)) + np.sum(shifts))
    return ForwardBackwardResult(gamma=gamma, xi=xi, log_likelihood=log_likelihood)


def sample_state_paths_reference(
    viterbi_states: np.ndarray,
    xi: np.ndarray,
    count: int,
    seed: SeedLike = None,
    anchor_last: bool = True,
    gamma: np.ndarray | None = None,
) -> list[np.ndarray]:
    """One-path-at-a-time FFBS (golden reference for the batched sampler)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = ensure_rng(seed)
    return [
        sample_state_path(
            viterbi_states, xi, seed=rng, anchor_last=anchor_last, gamma=gamma
        )
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Random sessions and problems.


def random_tcp_state(rng) -> TCPStateSnapshot:
    return TCPStateSnapshot(
        cwnd_segments=int(rng.integers(1, 500)),
        ssthresh_segments=int(rng.integers(1, 500)),
        srtt_s=float(rng.uniform(0.01, 0.3)),
        min_rtt_s=float(rng.uniform(0.01, 0.3)),
        rto_s=float(rng.uniform(0.2, 1.0)),
        time_since_last_send_s=float(rng.uniform(0.0, 10.0)),
    )


def random_session(rng, n_chunks):
    states = [random_tcp_state(rng) for _ in range(n_chunks)]
    sizes = [float(rng.uniform(2_000, 4_000_000)) for _ in range(n_chunks)]
    observed = [float(rng.uniform(0.0, 12.0)) for _ in range(n_chunks)]
    return states, sizes, observed


def one_chunk_batch(grid, state, size):
    """:func:`estimate_throughput_grid_batch` on a one-chunk session."""
    (row,) = estimate_throughput_grid_batch(
        grid, TCPStateColumns.of([state]), np.array([size])
    )
    return row


class TestEstimatorParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_grid_matches_reference_and_scalar(self, seed):
        rng = np.random.default_rng(seed)
        state = random_tcp_state(rng)
        size = float(rng.uniform(2_000, 4_000_000))
        # Zero-capacity grid point included on purpose.
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 50.0, 40))])
        fast = one_chunk_batch(grid, state, size)
        reference = estimate_throughput_grid_reference(grid, state, size)
        scalar = np.array([estimate_throughput(c, state, size) for c in grid])
        assert np.allclose(fast, reference, atol=TOL, rtol=0)
        assert np.allclose(fast, scalar, atol=TOL, rtol=0)
        assert fast[0] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_per_chunk(self, seed):
        rng = np.random.default_rng(100 + seed)
        states, sizes, _ = random_session(rng, n_chunks=30)
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 20.0, 25))])
        batch = estimate_throughput_grid_batch(
            grid, TCPStateColumns.of(states), np.asarray(sizes)
        )
        reference = np.vstack(
            [
                estimate_throughput_grid_reference(grid, w, s)
                for w, s in zip(states, sizes)
            ]
        )
        scalar = np.array(
            [
                [estimate_throughput(c, w, s) for c in grid]
                for w, s in zip(states, sizes)
            ]
        )
        assert np.allclose(batch, reference, atol=TOL, rtol=0)
        assert np.allclose(batch, scalar, atol=TOL, rtol=0)

    def test_batch_single_chunk(self):
        rng = np.random.default_rng(7)
        states, sizes, _ = random_session(rng, n_chunks=1)
        grid = np.array([0.0, 0.5, 5.0, 10.0])
        batch = estimate_throughput_grid_batch(
            grid, TCPStateColumns.of(states), np.asarray(sizes)
        )
        assert batch.shape == (1, 4)
        assert np.allclose(
            batch[0],
            estimate_throughput_grid_reference(grid, states[0], sizes[0]),
            atol=TOL,
            rtol=0,
        )
        assert np.allclose(
            batch[0],
            [estimate_throughput(c, states[0], sizes[0]) for c in grid],
            atol=TOL,
            rtol=0,
        )


class TestEmissionParity:
    @pytest.mark.parametrize("outlier_mass", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_matches_row_stack(self, outlier_mass, seed):
        rng = np.random.default_rng(200 + seed)
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid, outlier_mass=outlier_mass)
        states, sizes, observed = random_session(rng, n_chunks=40)
        # A repeated (state, size) pair must give a repeated row.
        states[7], sizes[7] = states[2], sizes[2]
        matrix = model.log_prob_matrix(observed, TCPStateColumns.of(states), sizes)
        rows = np.vstack(
            [
                log_prob_row_reference(model, y, w, s)
                for y, w, s in zip(observed, states, sizes)
            ]
        )
        assert np.allclose(matrix, rows, atol=TOL, rtol=0)

    def test_single_chunk_session(self):
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid)
        rng = np.random.default_rng(8)
        states, sizes, observed = random_session(rng, n_chunks=1)
        matrix = model.log_prob_matrix(observed, TCPStateColumns.of(states), sizes)
        assert matrix.shape == (1, grid.n_states)
        assert np.allclose(
            matrix[0],
            log_prob_row_reference(model, observed[0], states[0], sizes[0]),
            atol=TOL,
            rtol=0,
        )

    def test_naive_emission_batch(self):
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid, estimator=naive_emission)
        rng = np.random.default_rng(9)
        states, sizes, observed = random_session(rng, n_chunks=5)
        matrix = model.log_prob_matrix(observed, TCPStateColumns.of(states), sizes)
        rows = np.vstack(
            [
                log_prob_row_reference(
                    model, y, w, s, estimate=lambda c, state, size: c
                )
                for y, w, s in zip(observed, states, sizes)
            ]
        )
        assert np.allclose(matrix, rows, atol=TOL, rtol=0)

    def test_rejects_negative_observation(self):
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid)
        rng = np.random.default_rng(10)
        states, sizes, observed = random_session(rng, n_chunks=3)
        observed[1] = -0.5
        with pytest.raises(ValueError):
            model.log_prob_matrix(observed, TCPStateColumns.of(states), sizes)


def random_problem(rng, n_chunks, n_states=5, max_delta=3):
    model = TransitionModel(
        tridiagonal_matrix(n_states, stay_prob=0.6, jump_mass=0.05)
    )
    log_b = rng.normal(0.0, 3.0, size=(n_chunks, n_states))
    # Δ = 0 gaps occur whenever max_delta sampling hits zero.
    deltas = np.concatenate([[0], rng.integers(0, max_delta + 1, n_chunks - 1)])
    return model, log_b, deltas


class TestForwardBackwardParity:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(400 + seed)
        model, log_b, deltas = random_problem(rng, n_chunks=int(rng.integers(2, 50)))
        fast = forward_backward(log_b, model, deltas)
        reference = forward_backward_reference(log_b, model, deltas)
        assert np.allclose(fast.gamma, reference.gamma, atol=TOL, rtol=0)
        assert np.allclose(fast.xi, reference.xi, atol=TOL, rtol=0)
        assert fast.log_likelihood == pytest.approx(
            reference.log_likelihood, abs=TOL
        )

    def test_single_chunk(self):
        rng = np.random.default_rng(11)
        model, log_b, deltas = random_problem(rng, n_chunks=1)
        fast = forward_backward(log_b, model, deltas)
        reference = forward_backward_reference(log_b, model, deltas)
        assert fast.xi.shape == reference.xi.shape == (0, 5, 5)
        assert np.allclose(fast.gamma, reference.gamma, atol=TOL, rtol=0)

    def test_all_zero_gaps(self):
        """Chunks crammed into one δ-window (every Δ = 0)."""
        rng = np.random.default_rng(12)
        model = TransitionModel(tridiagonal_matrix(4, jump_mass=0.01))
        log_b = rng.normal(0.0, 2.0, size=(8, 4))
        deltas = np.zeros(8, dtype=int)
        fast = forward_backward(log_b, model, deltas)
        reference = forward_backward_reference(log_b, model, deltas)
        assert np.allclose(fast.gamma, reference.gamma, atol=TOL, rtol=0)
        assert np.allclose(fast.xi, reference.xi, atol=TOL, rtol=0)


class TestSamplerParity:
    def _solved(self, seed=0, n_chunks=12, n_states=4):
        rng = np.random.default_rng(seed)
        model, log_b, deltas = random_problem(rng, n_chunks, n_states)
        vit = viterbi_path(log_b, model, deltas)
        fb = forward_backward(log_b, model, deltas)
        return vit, fb

    def test_batched_respects_anchor_and_support(self):
        vit, fb = self._solved(seed=1)
        for path in sample_state_paths(vit.states, fb.xi, count=50, seed=3):
            assert path[-1] == vit.states[-1]
            for n in range(len(path) - 1):
                assert fb.xi[n, path[n], path[n + 1]] > 0

    def test_batched_determinism(self):
        vit, fb = self._solved(seed=2)
        a = sample_state_paths(vit.states, fb.xi, count=8, seed=9)
        b = sample_state_paths(vit.states, fb.xi, count=8, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_batched_matches_reference_distribution(self):
        """Pairwise transition frequencies agree with the scalar sampler."""
        vit, fb = self._solved(seed=3, n_chunks=6, n_states=3)
        n_samples = 4000
        batched = np.stack(
            sample_state_paths(vit.states, fb.xi, count=n_samples, seed=0)
        )
        scalar = np.stack(
            sample_state_paths_reference(
                vit.states, fb.xi, count=n_samples, seed=0
            )
        )
        for n in range(batched.shape[1]):
            freq_batched = np.bincount(batched[:, n], minlength=3) / n_samples
            freq_scalar = np.bincount(scalar[:, n], minlength=3) / n_samples
            assert np.allclose(freq_batched, freq_scalar, atol=0.05)

    def test_degenerate_column_falls_back_to_viterbi(self):
        """A zero column in xi must select the Viterbi state, as the scalar
        sampler does."""
        vit, fb = self._solved(seed=4, n_chunks=3, n_states=3)
        xi = fb.xi.copy()
        xi[0, :, :] = 0.0  # every predecessor column degenerate
        batched = sample_state_paths(vit.states, xi, count=10, seed=5)
        for path in batched:
            assert path[0] == vit.states[0]
        scalar = sample_state_path(vit.states, xi, seed=5)
        assert scalar[0] == vit.states[0]

    def test_single_chunk_paths(self):
        vit, fb = self._solved(seed=5, n_chunks=1)
        paths = sample_state_paths(vit.states, fb.xi, count=4, seed=0)
        assert len(paths) == 4
        assert all(p.shape == (1,) and p[0] == vit.states[-1] for p in paths)

    def test_unanchored_matches_gamma(self):
        vit, fb = self._solved(seed=6, n_chunks=5, n_states=3)
        paths = sample_state_paths(
            vit.states, fb.xi, count=3000, seed=1, anchor_last=False,
            gamma=fb.gamma,
        )
        last = np.array([p[-1] for p in paths])
        freq = np.bincount(last, minlength=3) / len(paths)
        assert np.allclose(freq, fb.gamma[-1], atol=0.05)

    def test_count_validation(self):
        vit, fb = self._solved()
        with pytest.raises(ValueError):
            sample_state_paths(vit.states, fb.xi, count=0)

    def test_unanchored_requires_gamma(self):
        vit, fb = self._solved()
        with pytest.raises(ValueError):
            sample_state_paths(vit.states, fb.xi, count=2, anchor_last=False)
