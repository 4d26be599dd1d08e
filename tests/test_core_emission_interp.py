"""Tests for the emission model and trace interpolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CapacityGrid,
    EmissionModel,
    interpolate_capacity_trace,
    naive_emission,
    window_gaps,
    window_index,
)
from repro.core import _kernels
from repro.tcp import TCPStateSnapshot
from repro.tcp.estimator import chunk_state_arrays
from repro.tcp.state import TCPStateColumns, apply_slow_start_restart


def snap(gap=2.0):
    return TCPStateSnapshot(
        cwnd_segments=10,
        ssthresh_segments=1 << 20,
        srtt_s=0.08,
        min_rtt_s=0.08,
        rto_s=0.25,
        time_since_last_send_s=gap,
    )


@pytest.fixture
def grid():
    return CapacityGrid(0.5, 10.0)


def one_chunk_row(model, observed, state, size):
    """:meth:`EmissionModel.log_prob_matrix` on a one-chunk session."""
    (row,) = model.log_prob_matrix(
        [observed], TCPStateColumns.of([state]), [size]
    )
    return row


class TestEmissionModel:
    def test_rejects_bad_sigma(self, grid):
        with pytest.raises(ValueError):
            EmissionModel(grid, sigma_mbps=0.0)

    def test_rejects_bad_outlier_mass(self, grid):
        with pytest.raises(ValueError):
            EmissionModel(grid, outlier_mass=1.0)

    def test_row_shape(self, grid):
        model = EmissionModel(grid)
        row = one_chunk_row(model, 3.0, snap(), 500_000)
        assert row.shape == (grid.n_states,)
        assert np.all(np.isfinite(row))

    def test_row_peaks_near_truth_for_large_chunks(self, grid):
        """Large chunks nearly saturate the link, so the argmax capacity
        should be close to the observed throughput."""
        model = EmissionModel(grid, outlier_mass=0.0)
        observed = 4.0
        row = one_chunk_row(model, observed, snap(), 4_000_000)
        best = grid.value_of(int(np.argmax(row)))
        assert abs(best - observed) <= 1.0

    def test_small_chunk_plateau_is_one_sided(self, grid):
        """For tiny chunks, capacities above a threshold are equally likely
        — the paper's uncertainty phenomenon (§4.3)."""
        model = EmissionModel(grid, outlier_mass=0.0)
        row = one_chunk_row(model, 0.8, snap(), 25_000)
        top = row.max()
        plateau = grid.values_mbps[row > top - 0.1]
        assert plateau.max() == grid.max_mbps
        assert plateau.min() >= 0.5

    def test_outlier_mass_caps_penalty(self, grid):
        plain = EmissionModel(grid, outlier_mass=0.0)
        robust = EmissionModel(grid, outlier_mass=0.05)
        # An absurd observation: 9 Mbps for a chunk predicted ~1 Mbps.
        row_plain = one_chunk_row(plain, 9.0, snap(), 25_000)
        row_robust = one_chunk_row(robust, 9.0, snap(), 25_000)
        assert row_plain.min() < row_robust.min()
        assert row_robust.min() > -10.0

    def test_matrix_stacks_rows(self, grid):
        model = EmissionModel(grid)
        mat = model.log_prob_matrix(
            [2.0, 3.0], TCPStateColumns.of([snap(), snap()]), [100_000, 200_000]
        )
        assert mat.shape == (2, grid.n_states)

    def test_matrix_validates_lengths(self, grid):
        model = EmissionModel(grid)
        with pytest.raises(ValueError):
            model.log_prob_matrix(
                [1.0], TCPStateColumns.of([snap(), snap()]), [100, 200]
            )

    def test_matrix_rejects_empty(self, grid):
        model = EmissionModel(grid)
        with pytest.raises(ValueError):
            model.log_prob_matrix([], TCPStateColumns.of([]), [])

    def test_negative_observation_rejected(self, grid):
        model = EmissionModel(grid)
        with pytest.raises(ValueError):
            one_chunk_row(model, -1.0, snap(), 1000)

    def test_naive_emission_ignores_tcp(self, grid):
        states = TCPStateColumns.of([snap(), snap(gap=0.0), snap(gap=9.0)])
        vals = naive_emission(grid.values_mbps, states, [25_000, 2e6, 3e3])
        assert vals.shape == (3, grid.n_states)
        for row in vals:
            assert np.array_equal(row, grid.values_mbps)

    def test_naive_vs_tcp_emission_differ(self, grid):
        tcp = EmissionModel(grid)
        naive = EmissionModel(grid, estimator=naive_emission)
        row_tcp = one_chunk_row(tcp, 1.0, snap(), 25_000)
        row_naive = one_chunk_row(naive, 1.0, snap(), 25_000)
        # Naive thinks capacity ~1 Mbps; TCP-aware knows a small chunk at
        # 1 Mbps observed is consistent with much higher capacity.
        assert int(np.argmax(row_naive)) == grid.index_of(1.0)
        assert int(np.argmax(row_tcp)) >= grid.index_of(1.0)



def idle_heavy_session(seed, n_chunks=60):
    """Snapshots whose idle gaps straddle the RTO (restart on and off)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_chunks):
        rto = float(rng.choice([0.2, 0.25, 1.0]))
        states.append(
            TCPStateSnapshot(
                cwnd_segments=int(rng.choice([1, 10, 11, 64, 400, 16384])),
                ssthresh_segments=int(rng.integers(1, 1 << 20)),
                srtt_s=float(rng.uniform(0.01, 0.3)),
                min_rtt_s=float(rng.uniform(0.01, 0.3)),
                rto_s=rto,
                time_since_last_send_s=float(
                    rng.choice([0.0, rto, 2 * rto, rng.uniform(0.0, 30.0)])
                ),
            )
        )
    sizes = rng.uniform(2_000, 4_000_000, n_chunks)
    observed = rng.uniform(0.0, 12.0, n_chunks)
    return states, sizes, observed


class TestEmissionFromColumns:
    """Emissions from :class:`TCPStateColumns` built from snapshots."""

    @pytest.mark.parametrize("kernel", ["numpy", "compiled"])
    @pytest.mark.parametrize("outlier_mass", [0.0, 0.05])
    def test_log_prob_matrix_bit_identical(self, grid, kernel, outlier_mass):
        """A row depends on its own chunk only: the matrix over a whole
        session equals the stacked matrices of its two halves, bit for
        bit (the corpus-batched build concatenates sessions this way)."""
        if kernel == "compiled" and not _kernels.available():
            pytest.skip("no compiled abduction backend")
        model = EmissionModel(grid, outlier_mass=outlier_mass)
        states, sizes, observed = idle_heavy_session(seed=5)
        whole = model.log_prob_matrix(
            observed, TCPStateColumns.of(states), sizes, kernel=kernel
        )
        halves = [
            model.log_prob_matrix(
                observed[part], TCPStateColumns.of(states[part]), sizes[part],
                kernel=kernel,
            )
            for part in (slice(None, 37), slice(37, None))
        ]
        assert np.array_equal(whole, np.vstack(halves))

    def test_state_arrays_match_scalar_restart(self):
        states, _, _ = idle_heavy_session(seed=6, n_chunks=200)
        cwnd0, ssthresh0, min_rtt = chunk_state_arrays(TCPStateColumns.of(states))
        for n, state in enumerate(states):
            cw, ss, _ = apply_slow_start_restart(
                state.cwnd_segments,
                state.ssthresh_segments,
                state.time_since_last_send_s,
                state.rto_s,
            )
            assert (cwnd0[n], ssthresh0[n], min_rtt[n]) == (cw, ss, state.min_rtt_s)

    def test_custom_estimator_gets_whole_session(self, grid):
        """A custom estimator is called once per build, with the session's
        columns and sizes, on a compiled request too (the compiled kernel
        transcribes only the TCP estimator)."""
        calls = []

        def estimator(values, states, sizes):
            calls.append((values, states, sizes))
            return np.tile(sizes[:, None] * 8 / 1e6, (1, values.size))

        model = EmissionModel(grid, estimator=estimator)
        states, sizes, observed = idle_heavy_session(seed=7, n_chunks=5)
        columns = TCPStateColumns.of(states)
        for kernel in (None, "compiled"):
            matrix = model.log_prob_matrix(observed, columns, sizes, kernel=kernel)
            assert matrix.shape == (5, grid.n_states)
        assert len(calls) == 2
        for values, got_states, got_sizes in calls:
            assert np.array_equal(values, grid.values_mbps)
            assert got_states is columns
            assert np.array_equal(got_sizes, sizes)


class TestWindows:
    def test_window_index(self):
        assert window_index(0.0, 5.0) == 0
        assert window_index(4.99, 5.0) == 0
        assert window_index(5.0, 5.0) == 1
        assert window_index(47.0, 5.0) == 9

    def test_window_index_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            window_index(1.0, 0.0)
        with pytest.raises(ValueError):
            window_index(-1.0, 5.0)

    def test_window_gaps_paper_figure4(self):
        """Fig. 4: chunks 2,3 share a window (gap 0); 4 to 5 spans 2."""
        starts = np.array([1.0, 6.0, 7.0, 16.0, 26.0])
        gaps = window_gaps(starts, 5.0)
        assert list(gaps) == [0, 1, 0, 2, 2]

    def test_window_gaps_rejects_unsorted(self):
        with pytest.raises(ValueError):
            window_gaps(np.array([5.0, 1.0]), 5.0)

    def test_window_gaps_rejects_empty(self):
        with pytest.raises(ValueError):
            window_gaps(np.array([]), 5.0)


class TestInterpolation:
    def test_constant_capacity(self, grid):
        trace = interpolate_capacity_trace(
            np.array([1.0, 7.0, 13.0]), np.array([4.0, 4.0, 4.0]), 5.0, grid
        )
        assert np.all(trace.values == 4.0)

    def test_linear_between_windows(self, grid):
        # Chunk at window 0 with 2 Mbps, chunk at window 4 with 4 Mbps:
        # intermediate windows interpolate.
        trace = interpolate_capacity_trace(
            np.array([1.0, 21.0]), np.array([2.0, 4.0]), 5.0, grid
        )
        assert trace.value_at(2.5) == 2.0
        assert trace.value_at(22.5) == 4.0
        assert trace.value_at(12.5) == pytest.approx(3.0)

    def test_values_quantized_to_grid(self, grid):
        trace = interpolate_capacity_trace(
            np.array([1.0, 26.0]), np.array([1.0, 4.0]), 5.0, grid
        )
        offsets = trace.values / grid.epsilon_mbps
        assert np.allclose(offsets, np.round(offsets))

    def test_duration_extension(self, grid):
        trace = interpolate_capacity_trace(
            np.array([1.0]), np.array([3.0]), 5.0, grid, duration_s=60.0
        )
        assert trace.end_time >= 60.0
        assert trace.value_at(59.0) == 3.0

    def test_chunks_in_same_window_averaged(self, grid):
        trace = interpolate_capacity_trace(
            np.array([1.0, 2.0]), np.array([2.0, 4.0]), 5.0, grid
        )
        assert trace.value_at(2.5) == pytest.approx(3.0)

    def test_shape_validation(self, grid):
        with pytest.raises(ValueError):
            interpolate_capacity_trace(
                np.array([1.0, 2.0]), np.array([1.0]), 5.0, grid
            )
        with pytest.raises(ValueError):
            interpolate_capacity_trace(
                np.array([2.0, 1.0]), np.array([1.0, 1.0]), 5.0, grid
            )
