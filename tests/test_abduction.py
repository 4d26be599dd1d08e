"""Integration tests for end-to-end Veritas abduction.

These exercise the headline capability: given only a session log (no
ground-truth bandwidth), the inferred GTBW should track the truth far
better than the observed-throughput Baseline whenever TCP effects bias the
observations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    MPCAlgorithm,
    SessionConfig,
    StreamingSession,
    VeritasAbduction,
    VeritasConfig,
    baseline_trace,
    constant_trace,
    paper_veritas_config,
    random_walk_trace,
)
from repro.core import abduction
from repro.core.forward_backward import forward_backward
from repro.core.transitions import TransitionModel, sticky_matrix
from repro.video import short_video


class TestConfig:
    def test_defaults_match_paper(self):
        config = VeritasConfig()
        assert config.delta_s == 5.0
        assert config.epsilon_mbps == 0.5
        assert config.sigma_mbps == 0.5
        assert config.transition_kind == "tridiagonal"

    def test_rejects_unknown_transition(self):
        with pytest.raises(ValueError):
            VeritasConfig(transition_kind="magic")

    def test_rejects_unknown_emission(self):
        with pytest.raises(ValueError):
            VeritasConfig(emission_kind="magic")

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            VeritasConfig(delta_s=0.0)


class TestAbductionBasics:
    def test_solve_empty_log_raises(self, mpc_log):
        empty = mpc_log.truncated(0)
        veritas = VeritasAbduction(paper_veritas_config())
        with pytest.raises(ValueError):
            veritas.solve(empty)

    def test_posterior_shapes(self, solved_posterior, mpc_log):
        post = solved_posterior
        assert post.viterbi.states.shape == (mpc_log.n_chunks,)
        assert post.smoothing.gamma.shape[0] == mpc_log.n_chunks
        assert np.isfinite(post.log_likelihood)

    def test_map_capacities_on_grid(self, solved_posterior):
        caps = solved_posterior.map_capacities_mbps()
        offsets = caps / 0.5
        assert np.allclose(offsets, np.round(offsets))

    def test_posterior_mean_within_grid(self, solved_posterior):
        mean = solved_posterior.posterior_mean_capacities_mbps()
        assert np.all(mean >= 0.0)
        assert np.all(mean <= 10.0)

    def test_sampling_deterministic_with_seed(self, solved_posterior):
        a = solved_posterior.sample_trace(seed=3)
        b = solved_posterior.sample_trace(seed=3)
        assert np.array_equal(a.values, b.values)

    def test_sample_traces_count(self, solved_posterior):
        traces = solved_posterior.sample_traces(count=5, seed=1)
        assert len(traces) == 5

    def test_sample_traces_rejects_zero(self, solved_posterior):
        with pytest.raises(ValueError):
            solved_posterior.sample_traces(count=0)

    def test_trace_duration_extension(self, mpc_log):
        veritas = VeritasAbduction(paper_veritas_config())
        post = veritas.solve(mpc_log, trace_duration_s=2000.0)
        assert post.map_trace().end_time >= 2000.0

    def test_expected_capacity_after(self, solved_posterior):
        now = solved_posterior.expected_capacity_after(0)
        later = solved_posterior.expected_capacity_after(50)
        assert 0.0 <= now <= 10.0
        assert 0.0 <= later <= 10.0
        with pytest.raises(ValueError):
            solved_posterior.expected_capacity_after(-1)


class TestRecoveryAccuracy:
    def _run(self, trace, duration=240.0, seed=3):
        video = short_video(duration_s=duration, seed=seed)
        log = StreamingSession(
            video, MPCAlgorithm(), trace, SessionConfig()
        ).run()
        veritas = VeritasAbduction(paper_veritas_config())
        return log, veritas.solve(log)

    def test_constant_bandwidth_recovered(self):
        trace = constant_trace(4.0, 2000.0)
        log, post = self._run(trace)
        caps = post.map_capacities_mbps()
        # Skip the cold-start ramp; steady state should pin 4.0 well.
        steady = caps[20:]
        assert np.median(steady) == pytest.approx(4.0, abs=0.75)

    def test_map_beats_baseline_under_bias(self):
        """The core claim: on a biased session, Veritas MAP tracks GTBW
        better than the observed-throughput Baseline."""
        trace = random_walk_trace(
            7.0, 2000.0, seed=21, low=4.0, high=9.0, step_mbps=1.0, stay_prob=0.5
        )
        log, post = self._run(trace, duration=300.0)
        base = baseline_trace(log)
        grid_t = np.arange(5.0, log.end_times_s()[-1] - 5.0, 2.0)
        gt = trace.values_at(grid_t)
        mae_map = np.mean(np.abs(post.map_trace().values_at(grid_t) - gt))
        mae_base = np.mean(np.abs(base.values_at(grid_t) - gt))
        assert mae_map < mae_base

    def test_loglik_prefers_true_sigma_scale(self):
        """Wildly wrong sigma should not fit better than the default."""
        trace = constant_trace(4.0, 2000.0)
        video = short_video(duration_s=240.0, seed=3)
        log = StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
        good = VeritasAbduction(VeritasConfig(sigma_mbps=0.5)).solve(log)
        bad = VeritasAbduction(VeritasConfig(sigma_mbps=50.0)).solve(log)
        assert good.log_likelihood > bad.log_likelihood

    def test_naive_emission_underestimates_under_bias(self):
        """Dropping the TCP-state control (ablation) must hurt: the naive
        emission reads biased throughput at face value."""
        trace = constant_trace(8.0, 2000.0)
        video = short_video(duration_s=240.0, seed=3)
        log = StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
        tcp_post = VeritasAbduction(VeritasConfig(emission_kind="tcp")).solve(log)
        naive_post = VeritasAbduction(VeritasConfig(emission_kind="naive")).solve(log)
        tcp_mean = tcp_post.map_capacities_mbps()[20:].mean()
        naive_mean = naive_post.map_capacities_mbps()[20:].mean()
        assert naive_mean < tcp_mean
        assert tcp_mean == pytest.approx(8.0, abs=1.2)

    def test_samples_bracket_map(self, solved_posterior):
        samples = solved_posterior.sample_traces(count=5, seed=0)
        grid_t = np.arange(10.0, 200.0, 5.0)
        map_vals = solved_posterior.map_trace().values_at(grid_t)
        lo = np.min([s.values_at(grid_t) for s in samples], axis=0)
        hi = np.max([s.values_at(grid_t) for s in samples], axis=0)
        # MAP should mostly lie within the sampled envelope.
        inside = np.mean((map_vals >= lo - 0.5) & (map_vals <= hi + 0.5))
        assert inside > 0.8


class TestSolveReuse:
    """``solve`` returns its last posterior while its inputs are unchanged,
    and the posterior runs forward-backward only when ``smoothing`` is read."""

    @staticmethod
    def _spy(monkeypatch):
        calls = {"build_problem": 0, "viterbi_path": 0, "forward_backward": 0}
        for name in calls:
            real = getattr(abduction, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(abduction, name, counting)
        return calls

    @staticmethod
    def _counts(build, viterbi, fb):
        return {"build_problem": build, "viterbi_path": viterbi, "forward_backward": fb}

    @staticmethod
    def _assert_fresh(posterior, log, trace_duration_s=None, transitions=None):
        """``posterior`` equals a solve by an engine with no history."""
        solver = VeritasAbduction(paper_veritas_config())
        if transitions is not None:
            solver.transitions = transitions
        fresh = solver.solve(log, trace_duration_s)
        assert np.array_equal(posterior.viterbi.states, fresh.viterbi.states)
        assert np.array_equal(posterior.smoothing.gamma, fresh.smoothing.gamma)
        assert np.array_equal(posterior.smoothing.xi, fresh.smoothing.xi)
        assert np.array_equal(posterior.log_likelihood, fresh.log_likelihood)

    def test_repeat_solve_returns_same_posterior(self, monkeypatch, mpc_log):
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(mpc_log)
        assert solver.solve(mpc_log) is first
        assert calls == self._counts(1, 1, 0)

    def test_truncated_copy_hits(self, monkeypatch, mpc_log):
        copy = mpc_log.truncated(mpc_log.n_chunks)
        assert copy is not mpc_log
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(mpc_log)
        assert solver.solve(copy) is first
        assert calls == self._counts(1, 1, 0)

    def test_appended_log_misses(self, monkeypatch, mpc_log):
        """A log cannot grow in place; the grown log, built anew, misses."""
        log = mpc_log.truncated(mpc_log.n_chunks - 1)
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(log)
        with pytest.raises(AttributeError):
            log.records.append(mpc_log.records[-1])
        grown = dataclasses.replace(
            log, records=log.records + mpc_log.records[-1:]
        )
        second = solver.solve(grown)
        assert second is not first
        assert second.problem.n_chunks == mpc_log.n_chunks
        assert calls == self._counts(2, 2, 0)
        self._assert_fresh(second, grown)

    def test_replaced_chunk_misses(self, monkeypatch, mpc_log):
        """A chunk cannot be replaced in place; the edited log, built anew,
        misses."""
        log = mpc_log.truncated(mpc_log.n_chunks)
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(log)
        last = log.records[-1]
        bigger = dataclasses.replace(last, size_bytes=4 * last.size_bytes)
        with pytest.raises(TypeError):
            log.records[-1] = bigger
        edited = dataclasses.replace(log, records=log.records[:-1] + (bigger,))
        second = solver.solve(edited)
        assert second is not first
        assert calls == self._counts(2, 2, 0)
        assert not np.array_equal(
            second.problem.log_emissions, first.problem.log_emissions
        )
        self._assert_fresh(second, edited)

    def test_other_trace_duration_misses(self, monkeypatch, mpc_log):
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(mpc_log)
        second = solver.solve(mpc_log, trace_duration_s=2000.0)
        assert second is not first
        assert second.map_trace().end_time >= 2000.0
        assert calls == self._counts(2, 2, 0)
        self._assert_fresh(second, mpc_log, trace_duration_s=2000.0)

    def test_reassigned_transitions_miss(self, monkeypatch, mpc_log):
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        first = solver.solve(mpc_log)
        sticky = TransitionModel(sticky_matrix(solver.grid.n_states))
        solver.transitions = sticky
        second = solver.solve(mpc_log)
        assert second is not first
        assert second.problem.transitions is sticky
        assert calls == self._counts(2, 2, 0)
        assert second.log_likelihood != first.log_likelihood
        self._assert_fresh(second, mpc_log, transitions=sticky)

    def test_smoothing_runs_forward_backward_once(self, monkeypatch, mpc_log):
        solver = VeritasAbduction(paper_veritas_config())
        calls = self._spy(monkeypatch)
        posterior = solver.solve(mpc_log)
        assert calls["forward_backward"] == 0
        smoothing = posterior.smoothing
        assert posterior.smoothing is smoothing
        assert calls == self._counts(1, 1, 1)
        problem = posterior.problem
        eager = forward_backward(
            problem.log_emissions, problem.transitions, problem.deltas
        )
        assert np.array_equal(smoothing.gamma, eager.gamma)
        assert np.array_equal(smoothing.xi, eager.xi)
        assert np.array_equal(smoothing.log_likelihood, eager.log_likelihood)
