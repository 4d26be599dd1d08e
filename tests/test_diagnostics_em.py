"""Tests for posterior diagnostics and EM transition learning."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MPCAlgorithm,
    SessionConfig,
    StreamingSession,
    VeritasAbduction,
    VeritasConfig,
    constant_trace,
    paper_veritas_config,
    random_walk_trace,
)
from repro.core import diagnose_posterior, learn_transition_matrix
from repro.core.transitions import TransitionModel
from repro.video import short_video


@pytest.fixture(scope="module")
def biased_posterior():
    """A session with both sharp (big-chunk) and flat (small-chunk) regions."""
    video = short_video(duration_s=180.0, seed=5)
    trace = random_walk_trace(
        6.0, 900.0, seed=23, low=1.5, high=9.0, step_mbps=1.0,
        dip_prob=0.08, dip_range_mbps=(1.2, 2.0),
    )
    log = StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
    return VeritasAbduction(paper_veritas_config()).solve(log)


class TestDiagnostics:
    def test_shapes_and_ranges(self, biased_posterior):
        report = diagnose_posterior(biased_posterior)
        assert len(report.chunks) == biased_posterior.problem.n_chunks
        assert 0.0 <= report.uncertain_fraction <= 1.0
        assert report.max_entropy_bits >= report.mean_entropy_bits >= 0.0
        for chunk in report.chunks:
            assert chunk.interval_low_mbps <= chunk.interval_high_mbps
            assert chunk.entropy_bits >= 0.0

    def test_credible_interval_mass_monotone(self, biased_posterior):
        narrow = diagnose_posterior(biased_posterior, credible_mass=0.5)
        wide = diagnose_posterior(biased_posterior, credible_mass=0.99)
        for a, b in zip(narrow.chunks, wide.chunks):
            assert a.interval_width_mbps <= b.interval_width_mbps + 1e-9

    def test_uncertain_regions_contiguous(self, biased_posterior):
        report = diagnose_posterior(biased_posterior, width_threshold_mbps=1.0)
        regions = report.uncertain_regions()
        for start, end in regions:
            assert start <= end
        # Regions are ordered and disjoint.
        for (s1, e1), (s2, e2) in zip(regions, regions[1:]):
            assert e1 <= s2

    def test_validation(self, biased_posterior):
        with pytest.raises(ValueError):
            diagnose_posterior(biased_posterior, credible_mass=0.0)
        with pytest.raises(ValueError):
            diagnose_posterior(biased_posterior, width_threshold_mbps=0.0)

    def test_small_chunks_more_uncertain_than_large(self):
        """The paper's §4.2 observation, quantified: a session of tiny
        chunks has wider capacity intervals than one of large chunks."""
        video = short_video(duration_s=120.0, seed=5)
        trace = constant_trace(8.0, 2000.0)

        class FixedQuality(MPCAlgorithm):
            def __init__(self, q):
                super().__init__()
                self._q = q

            def choose_quality(self, context):
                return self._q

        reports = {}
        for label, q in [("small", 0), ("large", video.n_qualities - 1)]:
            log = StreamingSession(
                video, FixedQuality(q), trace, SessionConfig()
            ).run()
            post = VeritasAbduction(paper_veritas_config()).solve(log)
            reports[label] = diagnose_posterior(post)
        assert (
            reports["small"].mean_entropy_bits
            > reports["large"].mean_entropy_bits
        )


class TestEM:
    @pytest.fixture(scope="class")
    def logs(self):
        video = short_video(duration_s=120.0, seed=6)
        out = []
        for seed, mean in [(1, 4.0), (2, 6.0)]:
            trace = random_walk_trace(mean, 600.0, seed=seed, low=2.0, high=9.0)
            out.append(
                StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
            )
        return out

    def test_result_is_stochastic_matrix(self, logs):
        result = learn_transition_matrix(logs, iterations=2)
        assert np.allclose(result.matrix.sum(axis=1), 1.0)
        assert np.all(result.matrix >= 0)

    def test_likelihood_not_decreasing_materially(self, logs):
        result = learn_transition_matrix(logs, iterations=3)
        lls = result.log_likelihoods
        assert len(lls) >= 2
        # EM on the unit-gap subset plus smoothing: allow tiny wobble but
        # the final likelihood must not be materially worse than the start.
        assert lls[-1] >= lls[0] - 5.0

    def test_learning_improves_on_mismatched_prior(self, logs):
        """Starting from a memoryless prior, EM should recover most of the
        likelihood gap to the hand-tuned tridiagonal prior."""
        uniform_cfg = VeritasConfig(transition_kind="uniform")
        before = learn_transition_matrix(logs, uniform_cfg, iterations=1)
        after = learn_transition_matrix(logs, uniform_cfg, iterations=4)
        assert after.log_likelihoods[-1] >= before.log_likelihoods[-1]

    def test_validation(self, logs):
        with pytest.raises(ValueError):
            learn_transition_matrix([])
        with pytest.raises(ValueError):
            learn_transition_matrix(logs, iterations=0)
        with pytest.raises(ValueError):
            learn_transition_matrix(logs, smoothing=-1.0)

    def test_model_property(self, logs):
        result = learn_transition_matrix(logs, iterations=1)
        assert result.model.n_states == result.matrix.shape[0]

    def test_single_log_em_matches_fresh_engines(self, logs):
        """EM reassigns ``solver.transitions`` and solves the *same* log
        again, so every iteration must score the new matrix — exactly what
        a fresh engine per iteration computes."""
        log = logs[0]
        iterations, tolerance = 5, 1e-3
        result = learn_transition_matrix([log], iterations=iterations)

        prior = VeritasAbduction().transitions.matrix
        matrix = prior
        expected: list[float] = []

        def score(matrix):
            solver = VeritasAbduction()
            solver.transitions = TransitionModel(matrix)
            posterior = solver.solve(log)
            expected.append(posterior.log_likelihood)
            return posterior

        for _ in range(iterations):
            posterior = score(matrix)
            if len(expected) >= 2 and expected[-1] - expected[-2] < tolerance:
                break
            unit = posterior.problem.deltas[1:] == 1
            counts = posterior.smoothing.xi[unit].sum(axis=0)
            matrix = counts + prior
            matrix = matrix / matrix.sum(axis=1, keepdims=True)
        else:
            score(matrix)

        assert result.log_likelihoods == tuple(expected)
        assert np.array_equal(result.matrix, matrix)
        assert len(expected) >= 3 and expected[-1] > expected[0]
