"""Tests for the synthetic trace generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transitions import tridiagonal_matrix
from repro.net import (
    constant_trace,
    markov_trace_from_matrix,
    random_walk_trace,
    square_wave_trace,
    trace_corpus,
)
from repro.workloads import bimodal_corpus, paper_corpus, wide_corpus


class TestBasicGenerators:
    def test_constant(self):
        tr = constant_trace(18.0, 100.0)
        assert tr.value_at(50.0) == 18.0
        assert tr.duration == 100.0

    def test_square_wave_alternates(self):
        tr = square_wave_trace(1.0, 5.0, period=10.0, duration=40.0)
        assert tr.value_at(5.0) == 1.0
        assert tr.value_at(15.0) == 5.0
        assert tr.value_at(25.0) == 1.0

    def test_square_wave_start_high(self):
        tr = square_wave_trace(1.0, 5.0, period=10.0, duration=20.0, start_high=True)
        assert tr.value_at(5.0) == 5.0

    def test_square_wave_rejects_bad_period(self):
        with pytest.raises(ValueError):
            square_wave_trace(1.0, 5.0, period=0.0, duration=10.0)


class TestRandomWalk:
    def test_deterministic_with_seed(self):
        a = random_walk_trace(5.0, 300.0, seed=1)
        b = random_walk_trace(5.0, 300.0, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_respects_bounds(self):
        tr = random_walk_trace(5.0, 2000.0, low=3.0, high=7.0, seed=2)
        assert tr.values.min() >= 3.0
        assert tr.values.max() <= 7.0

    def test_stays_near_mean(self):
        tr = random_walk_trace(5.0, 5000.0, seed=3, low=0.5, high=20.0)
        assert 3.0 <= tr.mean() <= 7.0

    def test_rejects_mean_outside_bounds(self):
        with pytest.raises(ValueError):
            random_walk_trace(20.0, 100.0, low=1.0, high=10.0)

    def test_rejects_bad_stay_prob(self):
        with pytest.raises(ValueError):
            random_walk_trace(5.0, 100.0, stay_prob=1.5)

    def test_dips_reach_dip_range(self):
        tr = random_walk_trace(
            6.0, 5000.0, seed=4, low=3.0, high=9.0,
            dip_prob=0.2, dip_range_mbps=(1.0, 1.5), dip_windows=(2, 3),
        )
        assert tr.values.min() <= 1.5

    def test_no_dips_when_disabled(self):
        tr = random_walk_trace(6.0, 5000.0, seed=4, low=3.0, high=9.0, dip_prob=0.0)
        assert tr.values.min() >= 3.0

    def test_dip_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            random_walk_trace(5.0, 100.0, dip_prob=0.1, dip_windows=(3, 2))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_steps_are_on_grid(self, seed):
        tr = random_walk_trace(
            5.0, 500.0, step_mbps=0.5, seed=seed, low=0.5, high=10.0
        )
        # Without dips every value is mean + k * 0.5 for integer k.
        offsets = (tr.values - 5.0) / 0.5
        assert np.allclose(offsets, np.round(offsets))


class TestMarkovFromMatrix:
    def test_states_follow_support(self):
        matrix = tridiagonal_matrix(5, stay_prob=0.9, jump_mass=0.0)
        tr = markov_trace_from_matrix(matrix, epsilon=1.0, duration=500.0, seed=0)
        # Tridiagonal walk: consecutive values differ by at most one step.
        diffs = np.abs(np.diff(tr.values))
        assert diffs.max() <= 1.0 + 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            markov_trace_from_matrix(np.ones((2, 3)), 1.0, 10.0)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            markov_trace_from_matrix(np.eye(3) * 0.5, 1.0, 10.0)

    def test_initial_state_respected(self):
        matrix = np.eye(4)
        tr = markov_trace_from_matrix(
            matrix, epsilon=2.0, duration=50.0, initial_state=3, seed=0
        )
        assert np.all(tr.values == 6.0)

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError):
            markov_trace_from_matrix(np.eye(2), 1.0, 10.0, initial_state=5)


GRID_GENERATORS = {
    "square_wave": lambda **kw: square_wave_trace(1.0, 5.0, period=10.0, **kw),
    "random_walk": lambda **kw: random_walk_trace(5.0, seed=0, **kw),
    "markov": lambda **kw: markov_trace_from_matrix(np.eye(2), 1.0, seed=0, **kw),
}


class TestSpanValidation:
    @pytest.mark.parametrize("duration", [0.0, -5.0])
    @pytest.mark.parametrize("generator", sorted(GRID_GENERATORS))
    def test_rejects_non_positive_duration(self, generator, duration):
        with pytest.raises(ValueError, match="duration must be positive"):
            GRID_GENERATORS[generator](duration=duration)

    @pytest.mark.parametrize("generator", ["random_walk", "markov"])
    def test_rejects_zero_interval(self, generator):
        with pytest.raises(ValueError, match="interval must be positive"):
            GRID_GENERATORS[generator](duration=60.0, interval=0.0)


class TestCorpora:
    def test_trace_corpus_count_and_determinism(self):
        a = trace_corpus(5, (3.0, 8.0), 100.0, seed=9)
        b = trace_corpus(5, (3.0, 8.0), 100.0, seed=9)
        assert len(a) == 5
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.values, tb.values)

    def test_trace_corpus_rejects_zero_count(self):
        with pytest.raises(ValueError):
            trace_corpus(0, (1.0, 2.0), 10.0)

    def test_trace_corpus_rejects_bad_range(self):
        with pytest.raises(ValueError):
            trace_corpus(1, (5.0, 2.0), 10.0)

    def test_paper_corpus_ranges(self):
        traces = paper_corpus(count=10, duration_s=600.0, seed=5)
        assert len(traces) == 10
        means = [t.mean() for t in traces]
        assert min(means) > 1.0
        assert max(means) < 9.5

    def test_bimodal_corpus_modes_are_separated(self):
        poor, good = bimodal_corpus(count_per_mode=5, duration_s=300.0, seed=5)
        assert len(poor) == 5 and len(good) == 5
        assert max(t.values.max() for t in poor) <= 0.3
        assert min(t.values.min() for t in good) >= 9.0

    def test_wide_corpus_spans_range(self):
        traces = wide_corpus(count=30, duration_s=300.0, seed=5)
        means = [t.mean() for t in traces]
        assert min(means) < 2.5
        assert max(means) > 7.5
