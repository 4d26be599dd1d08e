"""Parity and plumbing suite for the compiled abduction kernels (PR 9).

Pins the :mod:`repro.core._kernels` accuracy contract:

* the Python mirror and the native cc backend are bit-identical
  (same scalar arithmetic, libm on both sides),
* integer outputs — Viterbi paths, FFBS sample paths — are bit-identical
  to the NumPy tier,
* float outputs — emissions, gamma/xi posteriors, log-likelihoods — agree
  with the NumPy tier within ``rtol=1e-13``, on random stacks and on the
  Setting-A logs of a paper corpus,
* the wired batch entry points (``kernel="compiled"``) route through the
  kernels and degrade to NumPy with a once-per-process warning when no
  backend is available, and an explicit compiled tier resolves to
  ``"numpy"`` then,
* every compiled-kernel module in the package reports a consistent
  backend tier name (the shared ``repro.util.compiled`` detection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abr import _decisions
from repro.core import _kernels
from repro.core import CapacityGrid, EmissionModel, VeritasAbduction
from repro.core.abduction import (
    ABDUCTION_TIERS,
    resolve_abduction_kernel,
    sample_traces_batch,
)
from repro.core.forward_backward import (
    forward_backward_batch,
    unique_power_stack,
)
from repro.core.sampler import sample_state_paths_stack
from repro.core.transitions import TransitionModel, tridiagonal_matrix
from repro.core.viterbi import viterbi_path_batch
from repro.player import _fused
from repro.tcp import _compiled
from repro.tcp.estimator import REQUEST_RTTS, chunk_state_arrays
from repro.tcp.state import TCPStateColumns, TCPStateSnapshot
from repro.util import compiled as util_compiled
from repro.util.compiled import BACKEND_NAMES

RTOL = 1e-13


def random_tcp_state(rng) -> TCPStateSnapshot:
    return TCPStateSnapshot(
        cwnd_segments=int(rng.integers(1, 500)),
        ssthresh_segments=int(rng.integers(1, 500)),
        srtt_s=float(rng.uniform(0.01, 0.3)),
        min_rtt_s=float(rng.uniform(0.01, 0.3)),
        rto_s=float(rng.uniform(0.2, 1.0)),
        time_since_last_send_s=float(rng.uniform(0.0, 10.0)),
    )


def random_stack(seed, n_sessions=4, n_chunks=12, n_states=9):
    """Random stacked inputs: ``(log_b, transitions, gaps)``."""
    rng = np.random.default_rng(seed)
    transitions = TransitionModel(tridiagonal_matrix(n_states, stay_prob=0.8))
    log_b = rng.normal(-3.0, 2.0, size=(n_sessions, n_chunks, n_states))
    # Δ = 0 gaps included on purpose (identity transitions).
    gaps = rng.integers(0, 4, size=(n_sessions, n_chunks))
    return log_b, transitions, gaps


def force_python(monkeypatch):
    monkeypatch.setattr(_kernels, "FORCE_PYTHON", True)


class TestBackendConsistency:
    """The shared repro.util.compiled detection (PR 9 satellite)."""

    def test_all_kernel_modules_report_canonical_tiers(self):
        backends = {
            "_fused": _fused.backend(),
            "_kernels": _kernels.backend(),
        }
        for module, name in backends.items():
            assert name in BACKEND_NAMES, (module, name)
        # One toolchain, one answer: both libraries feature-detect through
        # repro.util.compiled, so the resolved tier cannot differ.
        assert len(set(backends.values())) == 1, backends
        # The per-lane core modules build nothing: they report the backend
        # of the replay library they are compiled into.
        assert _compiled.backend() == _decisions.backend() == _fused.backend()

    def test_force_python_reports_python(self, monkeypatch):
        force_python(monkeypatch)
        assert _kernels.backend() == "python"
        assert _kernels.available()  # mirrors still serve the kernel path


class TestKernelParity:
    """The four kernels vs the NumPy batch implementations."""

    def test_forward_backward_matches_numpy(self):
        log_b, transitions, gaps = random_stack(0)
        want = forward_backward_batch(log_b, transitions, gaps)
        stack, slots = unique_power_stack(transitions, gaps[:, 1:])
        gamma, xi, ll = _kernels.forward_backward_stack(
            log_b, transitions.initial, stack, slots
        )
        assert np.allclose(want.gamma, gamma, rtol=RTOL, atol=0)
        assert np.allclose(want.xi, xi, rtol=RTOL, atol=0)
        assert np.allclose(want.log_likelihoods, ll, rtol=RTOL, atol=0)

    def test_viterbi_bit_identical_to_numpy(self):
        log_b, transitions, gaps = random_stack(1)
        want = viterbi_path_batch(log_b, transitions, gaps)
        log_stack, slots = unique_power_stack(transitions, gaps[:, 1:], log=True)
        states, logp = _kernels.viterbi_stack(
            log_b, transitions.log_initial, log_stack, slots
        )
        assert np.array_equal(want.states, states)
        assert np.array_equal(want.log_probabilities, logp)

    def test_ffbs_bit_identical_to_numpy(self):
        log_b, transitions, gaps = random_stack(2)
        smooth = forward_backward_batch(log_b, transitions, gaps)
        vit = viterbi_path_batch(log_b, transitions, gaps)
        seeds = [100 + t for t in range(log_b.shape[0])]
        want = sample_state_paths_stack(vit.states, smooth.xi, 7, seeds)
        from repro.util.rng import ensure_rng

        uniforms = np.stack(
            [ensure_rng(s).random((log_b.shape[1] - 1, 7)) for s in seeds]
        )
        paths = _kernels.ffbs_stack(vit.states, smooth.xi, uniforms)
        assert np.array_equal(want, paths)

    def test_ffbs_degenerate_column_falls_back_to_viterbi(self):
        """An unreachable successor column must yield the Viterbi state."""
        n_states = 4
        states = np.array([[1, 2, 3]], dtype=np.int64)
        xi = np.zeros((1, 2, n_states, n_states))
        xi[0, 0, :, :] = 1.0 / n_states**2  # pair 0 fully reachable
        # pair 1: column 3 (the successor actually used) has zero mass.
        xi[0, 1, :, :2] = 0.125
        uniforms = np.full((1, 2, 3), 0.5)
        paths = _kernels.ffbs_stack(states, xi, uniforms)
        assert (paths[0, :, 1] == states[0, 1]).all()

    def test_emission_matches_numpy(self):
        rng = np.random.default_rng(3)
        tcp_states = TCPStateColumns.of(
            [random_tcp_state(rng) for _ in range(40)]
        )
        sizes = rng.uniform(2_000, 4_000_000, 40)
        observed = rng.uniform(0.0, 12.0, 40)
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid)
        want = model.log_prob_matrix(observed, tcp_states, sizes)
        cwnd0, ssthresh0, min_rtt = chunk_state_arrays(tcp_states)
        got = _kernels.emission_log_probs(
            observed, cwnd0, ssthresh0, min_rtt, sizes, grid.values_mbps,
            REQUEST_RTTS, model.sigma_mbps, model.outlier_mass, grid.max_mbps,
        )
        assert np.allclose(want, got, rtol=RTOL, atol=0)

    def test_emission_zero_outlier_mass_branch(self):
        rng = np.random.default_rng(4)
        tcp_states = TCPStateColumns.of(
            [random_tcp_state(rng) for _ in range(10)]
        )
        sizes = rng.uniform(2_000, 4_000_000, 10)
        observed = rng.uniform(0.0, 12.0, 10)
        grid = CapacityGrid(0.5, 10.0)
        model = EmissionModel(grid, outlier_mass=0.0)
        want = model.log_prob_matrix(observed, tcp_states, sizes)
        cwnd0, ssthresh0, min_rtt = chunk_state_arrays(tcp_states)
        got = _kernels.emission_log_probs(
            observed, cwnd0, ssthresh0, min_rtt, sizes, grid.values_mbps,
            REQUEST_RTTS, model.sigma_mbps, 0.0, grid.max_mbps,
        )
        assert np.allclose(want, got, rtol=RTOL, atol=0)

    def test_forward_underflow_raises_batch_message(self):
        """A zero transition stack underflows the forward pass at chunk 1
        with the NumPy tier's exact error message."""
        log_b, transitions, gaps = random_stack(5)
        n_states = log_b.shape[2]
        stack = np.zeros((1, n_states, n_states))
        slots = np.zeros((log_b.shape[0], log_b.shape[1] - 1), dtype=np.int64)
        with pytest.raises(
            FloatingPointError,
            match=r"forward pass underflowed at chunk 1 \(session 0\)",
        ):
            _kernels.forward_backward_stack(
                log_b, transitions.initial, stack, slots
            )


@pytest.mark.skipif(
    _kernels.backend() == "python",
    reason="no native backend to compare the mirror against",
)
class TestMirrorBitIdentity:
    """FORCE_PYTHON mirror vs the native backend: bit-identical."""

    def test_all_kernels_bit_identical(self, monkeypatch):
        log_b, transitions, gaps = random_stack(6)
        stack, slots = unique_power_stack(transitions, gaps[:, 1:])
        log_stack, _ = unique_power_stack(transitions, gaps[:, 1:], log=True)
        rng = np.random.default_rng(7)
        tcp_states = TCPStateColumns.of(
            [random_tcp_state(rng) for _ in range(15)]
        )
        sizes = rng.uniform(2_000, 4_000_000, 15)
        observed = rng.uniform(0.0, 12.0, 15)
        grid = CapacityGrid(0.5, 10.0)
        cwnd0, ssthresh0, min_rtt = chunk_state_arrays(tcp_states)
        emission_args = (
            observed, cwnd0, ssthresh0, min_rtt, sizes, grid.values_mbps,
            REQUEST_RTTS, 0.5, 0.05, grid.max_mbps,
        )

        native_fb = _kernels.forward_backward_stack(
            log_b, transitions.initial, stack, slots
        )
        native_vit = _kernels.viterbi_stack(
            log_b, transitions.log_initial, log_stack, slots
        )
        uniforms = np.stack(
            [np.random.default_rng(s).random((log_b.shape[1] - 1, 5))
             for s in range(log_b.shape[0])]
        )
        native_paths = _kernels.ffbs_stack(
            native_vit[0], native_fb[1], uniforms
        )
        native_emission = _kernels.emission_log_probs(*emission_args)

        force_python(monkeypatch)
        mirror_fb = _kernels.forward_backward_stack(
            log_b, transitions.initial, stack, slots
        )
        mirror_vit = _kernels.viterbi_stack(
            log_b, transitions.log_initial, log_stack, slots
        )
        mirror_paths = _kernels.ffbs_stack(native_vit[0], native_fb[1], uniforms)
        mirror_emission = _kernels.emission_log_probs(*emission_args)

        for native, mirror in zip(native_fb, mirror_fb):
            assert np.array_equal(native, mirror)
        for native, mirror in zip(native_vit, mirror_vit):
            assert np.array_equal(native, mirror)
        assert np.array_equal(native_paths, mirror_paths)
        assert np.array_equal(native_emission, mirror_emission)


class TestWiredEntryPoints:
    """kernel="compiled" on the batch functions routes and degrades right."""

    def test_forward_backward_batch_compiled(self):
        log_b, transitions, gaps = random_stack(8)
        want = forward_backward_batch(log_b, transitions, gaps)
        got = forward_backward_batch(log_b, transitions, gaps, kernel="compiled")
        assert np.allclose(want.gamma, got.gamma, rtol=RTOL, atol=0)
        assert np.allclose(want.xi, got.xi, rtol=RTOL, atol=0)
        assert np.allclose(
            want.log_likelihoods, got.log_likelihoods, rtol=RTOL, atol=0
        )

    def test_viterbi_batch_compiled_bit_identical(self):
        log_b, transitions, gaps = random_stack(9)
        want = viterbi_path_batch(log_b, transitions, gaps)
        got = viterbi_path_batch(log_b, transitions, gaps, kernel="compiled")
        assert np.array_equal(want.states, got.states)
        assert np.array_equal(want.log_probabilities, got.log_probabilities)

    def test_sampler_stack_compiled_bit_identical(self):
        log_b, transitions, gaps = random_stack(10)
        smooth = forward_backward_batch(log_b, transitions, gaps)
        vit = viterbi_path_batch(log_b, transitions, gaps)
        seeds = [30 + t for t in range(log_b.shape[0])]
        want = sample_state_paths_stack(vit.states, smooth.xi, 5, seeds)
        got = sample_state_paths_stack(
            vit.states, smooth.xi, 5, seeds, kernel="compiled"
        )
        assert np.array_equal(want, got)

    def test_emission_model_compiled(self):
        rng = np.random.default_rng(11)
        tcp_states = TCPStateColumns.of(
            [random_tcp_state(rng) for _ in range(25)]
        )
        sizes = rng.uniform(2_000, 4_000_000, 25)
        observed = rng.uniform(0.0, 12.0, 25)
        model = EmissionModel(CapacityGrid(0.5, 10.0))
        want = model.log_prob_matrix(observed, tcp_states, sizes)
        got = model.log_prob_matrix(
            observed, tcp_states, sizes, kernel="compiled"
        )
        assert np.allclose(want, got, rtol=RTOL, atol=0)

    def test_single_chunk_stack_takes_numpy_path(self):
        """N == 1 has no recursion; the compiled request must not warn and
        must match the NumPy tier exactly."""
        rng = np.random.default_rng(12)
        transitions = TransitionModel(tridiagonal_matrix(5, stay_prob=0.8))
        log_b = rng.normal(-2.0, 1.0, size=(3, 1, 5))
        gaps = np.zeros((3, 1), dtype=int)
        want = forward_backward_batch(log_b, transitions, gaps)
        got = forward_backward_batch(log_b, transitions, gaps, kernel="compiled")
        assert np.array_equal(want.gamma, got.gamma)
        assert got.xi.shape == (3, 0, 5, 5)

    def test_compiled_falls_back_with_warning(self, monkeypatch):
        """No backend => numpy results plus one RuntimeWarning per process."""
        log_b, transitions, gaps = random_stack(13)
        monkeypatch.setattr(_kernels, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        want = forward_backward_batch(log_b, transitions, gaps)
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = forward_backward_batch(
                log_b, transitions, gaps, kernel="compiled"
            )
        assert np.array_equal(want.gamma, got.gamma)
        assert np.array_equal(want.xi, got.xi)
        # Second degrade in the same process stays silent.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            viterbi_path_batch(log_b, transitions, gaps, kernel="compiled")

    def test_resolve_abduction_kernel(self, monkeypatch):
        # The default is the fastest tier the machine can build.
        native = _kernels.backend() == "cc"
        assert resolve_abduction_kernel(None) == (
            "compiled" if native else "numpy"
        )
        # A tier resolves to the one that serves: an explicit compiled
        # request without a backend is numpy, with one warning.
        monkeypatch.setattr(_kernels, "available", lambda: True)
        for tier in ABDUCTION_TIERS:
            assert resolve_abduction_kernel(tier) == tier
        monkeypatch.setattr(_kernels, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_abduction_kernel("compiled") == "numpy"
        assert resolve_abduction_kernel("numpy") == "numpy"
        assert resolve_abduction_kernel("reference") == "reference"
        with pytest.raises(ValueError, match="unknown abduction kernel"):
            resolve_abduction_kernel("turbo")
        with pytest.raises(ValueError, match="unknown abduction kernel"):
            VeritasAbduction().solve_batch([], kernel="turbo")

    def test_cli_exposes_abduction_kernel_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["counterfactual", "--abduction-kernel", "compiled"]
        )
        assert args.abduction_kernel == "compiled"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["counterfactual", "--abduction-kernel", "turbo"]
            )


class TestSolveBatchTiers:
    """VeritasAbduction tiers end to end on real session logs."""

    @pytest.fixture(scope="class")
    def session_logs(self):
        from repro import (
            MPCAlgorithm,
            SessionConfig,
            StreamingSession,
            random_walk_trace,
            short_video,
        )

        video = short_video(duration_s=90.0, seed=3)
        logs = []
        for s in (20, 21, 22):
            trace = random_walk_trace(
                mean_mbps=5.0, duration=300.0, seed=s, low=2.0, high=9.0
            )
            logs.append(
                StreamingSession(
                    video, MPCAlgorithm(), trace, SessionConfig()
                ).run()
            )
        return logs

    def test_reference_tier_matches_numpy_bit_for_bit(self, session_logs):
        from repro import paper_veritas_config

        abduction = VeritasAbduction(paper_veritas_config())
        reference = abduction.solve_batch(session_logs, kernel="reference")
        numpy_tier = abduction.solve_batch(session_logs, kernel="numpy")
        for a, b in zip(reference, numpy_tier):
            assert np.array_equal(a.viterbi.states, b.viterbi.states)
            assert np.array_equal(a.smoothing.gamma, b.smoothing.gamma)
            assert np.array_equal(a.smoothing.xi, b.smoothing.xi)
            assert a.log_likelihood == b.log_likelihood

    def test_compiled_tier_within_contract(self, session_logs):
        from repro import paper_veritas_config

        abduction = VeritasAbduction(paper_veritas_config())
        numpy_tier = abduction.solve_batch(session_logs, kernel="numpy")
        compiled = abduction.solve_batch(session_logs, kernel="compiled")
        for a, b in zip(numpy_tier, compiled):
            assert np.array_equal(a.viterbi.states, b.viterbi.states)
            assert np.allclose(
                a.smoothing.gamma, b.smoothing.gamma, rtol=RTOL, atol=0
            )
            assert np.allclose(a.smoothing.xi, b.smoothing.xi, rtol=RTOL, atol=0)
            assert np.isclose(a.log_likelihood, b.log_likelihood, rtol=RTOL)

    def test_compiled_sampling_matches_numpy(self, session_logs):
        from repro import paper_veritas_config

        posteriors = VeritasAbduction(paper_veritas_config()).solve_batch(
            session_logs, kernel="numpy"
        )
        seeds = [5, 6, 7]
        want = sample_traces_batch(posteriors, 4, seeds, kernel="numpy")
        got = sample_traces_batch(posteriors, 4, seeds, kernel="compiled")
        for traces_a, traces_b in zip(want, got):
            for a, b in zip(traces_a, traces_b):
                assert np.array_equal(a.boundaries, b.boundaries)
                assert np.array_equal(a.values, b.values)

    def test_reference_sampling_matches_numpy(self, session_logs):
        from repro import paper_veritas_config

        posteriors = VeritasAbduction(paper_veritas_config()).solve_batch(
            session_logs, kernel="numpy"
        )
        seeds = [5, 6, 7]
        want = sample_traces_batch(posteriors, 4, seeds, kernel="numpy")
        got = sample_traces_batch(posteriors, 4, seeds, kernel="reference")
        for traces_a, traces_b in zip(want, got):
            for a, b in zip(traces_a, traces_b):
                assert np.array_equal(a.boundaries, b.boundaries)
                assert np.array_equal(a.values, b.values)

    def test_engine_accepts_abduction_kernel(self):
        from repro import CounterfactualEngine, paper_veritas_config

        engine = CounterfactualEngine(
            paper_veritas_config(), abduction_kernel="compiled"
        )
        # The tier that serves: numpy where no compiled backend exists.
        assert engine.abduction_kernel == (
            "compiled" if _kernels.available() else "numpy"
        )
        with pytest.raises(ValueError, match="unknown abduction kernel"):
            CounterfactualEngine(
                paper_veritas_config(), abduction_kernel="turbo"
            )


@pytest.mark.skipif(
    _kernels.backend() != "cc", reason="no native abduction backend"
)
def test_compiled_tier_within_contract_on_paper_corpus():
    """The tolerance holds at corpus scale: the Setting-A logs of 8 paper
    traces solved on the numpy and the compiled tier."""
    from repro import paper_corpus, paper_setting_a, paper_veritas_config
    from repro.causal.engine import run_setting_batch

    traces = paper_corpus(count=8, duration_s=600.0, seed=11)
    deployed = run_setting_batch(paper_setting_a(), traces)
    logs = [deployed.lane(k) for k in range(len(traces))]
    abduction = VeritasAbduction(paper_veritas_config())
    numpy_tier = abduction.solve_batch(logs, kernel="numpy")
    compiled = abduction.solve_batch(logs, kernel="compiled")
    for a, b in zip(numpy_tier, compiled):
        assert np.allclose(
            a.problem.log_emissions, b.problem.log_emissions, rtol=RTOL, atol=0
        )
        assert np.array_equal(a.viterbi.states, b.viterbi.states)
        assert np.allclose(a.smoothing.gamma, b.smoothing.gamma, rtol=RTOL, atol=0)
        assert np.allclose(a.smoothing.xi, b.smoothing.xi, rtol=RTOL, atol=0)
        assert np.isclose(a.log_likelihood, b.log_likelihood, rtol=RTOL, atol=0)
