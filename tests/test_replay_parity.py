"""Parity suite for the replay fast paths (PR 2).

Three layers each keep a scalar reference implementation alive; this suite
pins the fast paths to them bit for bit:

* ``PiecewiseConstantTrace.time_to_transfer`` (bisection over the
  cumulative-bytes integral) vs ``time_to_transfer_reference`` (interval
  walk),
* ``TCPConnection``'s closed-form interval kernel (what the scratch and
  compiled tiers run on a scalar connection) vs the per-RTT reference
  loop — including whole sessions under BBA/BOLA/MPC,
* ``CounterfactualEngine.evaluate_many`` over a prepared corpus vs
  back-to-back ``evaluate_corpus`` / per-trace ``evaluate_trace`` calls.

Scope note: bit-identity between fast path and reference is only
achievable because they share head/bookkeeping helpers
(``_transfer_prefix``, ``_grow_window``, ``_fluid_finish``), so these
parity tests pin the *search/stepping* logic, not the shared helpers.
Defects in the shared code are instead caught by the value-level tests
here (known closed-form answers) and in ``test_trace.py`` /
``test_tcp_connection.py`` (integral round-trips, session semantics).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.tcp.connection as connection_module
from repro import (
    CounterfactualEngine,
    change_abr,
    change_buffer,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
)
from repro.causal.engine import run_setting
from repro.net.trace import PiecewiseConstantTrace
from repro.tcp.connection import KERNEL_TIERS, TCPConnection
from repro.util.rng import spawn_seeds
from repro.video import short_video


def random_trace(
    rng: np.random.Generator,
    with_gaps: bool = True,
    trailing_positive: bool = False,
):
    """A random piecewise trace, optionally with zero-bandwidth intervals."""
    k = int(rng.integers(1, 14))
    bounds = np.cumsum(rng.uniform(0.05, 8.0, k + 1)) - 2.0
    vals = rng.uniform(0.0, 10.0, k)
    if with_gaps:
        vals[rng.random(k) < 0.3] = 0.0
    if vals[-1] == 0.0 and (trailing_positive or rng.random() < 0.7):
        vals[-1] = float(rng.uniform(0.5, 5.0))
    return PiecewiseConstantTrace(bounds, vals)


class TestTimeToTransferParity:
    def test_randomized_bit_identical(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(1500):
            tr = random_trace(rng)
            start = float(rng.uniform(tr.start_time - 5, tr.end_time + 5))
            size = float(10 ** rng.uniform(-2, 7))
            try:
                fast = tr.time_to_transfer(start, size)
                fast_err = None
            except RuntimeError:
                fast = fast_err = "stalled"
            try:
                ref = tr.time_to_transfer_reference(start, size)
                ref_err = None
            except RuntimeError:
                ref = ref_err = "stalled"
            assert fast_err == ref_err
            assert fast == ref  # bit-identical, no tolerance
            checked += 1
        assert checked == 1500

    def test_start_past_end_time(self):
        tr = PiecewiseConstantTrace([0.0, 10.0], [4.0])
        for start in (10.0, 25.0):
            fast = tr.time_to_transfer(start, 1e6)
            assert fast == tr.time_to_transfer_reference(start, 1e6)
            assert fast == pytest.approx(2.0)

    def test_sub_interval_transfer(self):
        tr = PiecewiseConstantTrace([0.0, 5.0, 10.0], [8.0, 2.0])
        size = 1e5  # finishes well inside the first interval
        fast = tr.time_to_transfer(1.0, size)
        assert fast == tr.time_to_transfer_reference(1.0, size)
        assert fast == pytest.approx(size / (8.0 * 1e6 / 8))

    def test_zero_gap_then_resume(self):
        tr = PiecewiseConstantTrace([0.0, 2.0, 6.0, 8.0], [4.0, 0.0, 4.0])
        size = tr.integrate_bytes(0.0, 7.0)
        fast = tr.time_to_transfer(0.0, size)
        assert fast == tr.time_to_transfer_reference(0.0, size)
        assert fast == pytest.approx(7.0, abs=1e-6)

    def test_trailing_zero_raises_in_both(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [0.0])
        with pytest.raises(RuntimeError):
            tr.time_to_transfer(0.0, 1e5)
        with pytest.raises(RuntimeError):
            tr.time_to_transfer_reference(0.0, 1e5)

    def test_zero_size_is_free(self):
        tr = PiecewiseConstantTrace([0.0, 2.0], [1.0])
        assert tr.time_to_transfer(0.5, 0.0) == 0.0
        assert tr.time_to_transfer_reference(0.5, 0.0) == 0.0


class TestDownloadKernelParity:
    def test_randomized_download_sequences(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            # Downloads over a trace that ends at zero bandwidth stall
            # forever (a RuntimeError in both kernels), so keep the tail
            # positive; interior zero-bandwidth gaps stay in play.
            tr = random_trace(rng, trailing_positive=True)
            rtt = float(rng.uniform(0.02, 0.3))
            fast = TCPConnection(tr, rtt_s=rtt, kernel="scratch")
            ref = TCPConnection(tr, rtt_s=rtt, kernel="reference")
            t = 0.0
            for _ in range(int(rng.integers(1, 7))):
                t += float(rng.uniform(0.0, 4.0))
                size = float(10 ** rng.uniform(3, 6.8))
                ra = fast.download(size, t)
                rb = ref.download(size, t)
                assert ra == rb  # dataclass equality: all fields bit-identical
                assert fast.state.cwnd_segments == ref.state.cwnd_segments
                assert fast.state.ssthresh_segments == ref.state.ssthresh_segments
                t = ra.end_time_s

    def test_unknown_kernel_rejected(self):
        tr = PiecewiseConstantTrace([0.0, 1.0], [1.0])
        for name in ("warp-drive", "analytic", "fused"):  # incl. retired tiers
            with pytest.raises(ValueError, match="available tiers"):
                TCPConnection(tr, kernel=name)

    @pytest.mark.parametrize("abr", ["bba", "bola", "mpc"])
    def test_full_session_logs_bit_identical(self, abr, monkeypatch):
        setting_a = paper_setting_a(seed=7)
        setting = change_abr(setting_a, abr)
        traces = paper_corpus(count=2, duration_s=500.0, seed=99)
        logs = {}
        for kernel in ("scratch", "reference"):
            monkeypatch.setattr(connection_module, "DEFAULT_KERNEL", kernel)
            logs[kernel] = [run_setting(setting, tr) for tr in traces]
        for log_fast, log_ref in zip(logs["scratch"], logs["reference"]):
            assert log_fast == log_ref  # SessionLog equality is field-exact


class TestPreparedCorpusParity:
    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=3, duration_s=500.0, seed=21)
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=3, seed=5)
        return setting_a, traces, engine

    def test_evaluate_many_equals_evaluate_corpus(self, fixtures):
        setting_a, traces, engine = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        prepared = engine.prepare_corpus(traces, setting_a)
        many = engine.evaluate_many(prepared, settings_b)
        for setting_b, shared in zip(settings_b, many):
            solo = engine.evaluate_corpus(traces, setting_a, setting_b)
            assert shared.setting_b == solo.setting_b
            assert shared.per_trace == solo.per_trace  # exact equality

    @pytest.mark.parametrize(
        "video_s",
        [None, 900.0, 120.0],
        ids=["setting-a-video", "longer-video", "shorter-video"],
    )
    def test_matches_per_trace_evaluate_trace(self, fixtures, video_s):
        """Per-trace answers equal the prepared-corpus path's whatever
        Setting B's video is: the replay horizon follows Setting B's video,
        so a longer one replays past Setting A's horizon (600 s video) and
        a shorter one well within it."""
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bba")
        if video_s is not None:
            setting_b = dataclasses.replace(
                setting_b, video=short_video(duration_s=video_s, seed=11)
            )
        seeds = spawn_seeds(5, len(traces))
        direct = [
            engine.evaluate_trace(i, tr, setting_a, setting_b, seed=s)
            for i, (tr, s) in enumerate(zip(traces, seeds))
        ]
        prepared = engine.prepare_corpus(traces, setting_a)
        shared = engine.evaluate_many(prepared, [setting_b])[0]
        assert shared.per_trace == direct

    def test_prepared_replay_is_deterministic(self, fixtures):
        setting_a, traces, engine = fixtures
        setting_b = change_abr(setting_a, "bola")
        prepared = engine.prepare_corpus(traces, setting_a)
        first = engine.evaluate_many(prepared, [setting_b])[0]
        second = engine.evaluate_many(prepared, [setting_b])[0]
        assert first.per_trace == second.per_trace

    def test_empty_inputs_rejected(self, fixtures):
        setting_a, traces, engine = fixtures
        with pytest.raises(ValueError):
            engine.prepare_corpus([], setting_a)
        prepared = engine.prepare_corpus(traces[:1], setting_a)
        with pytest.raises(ValueError):
            engine.evaluate_many(prepared, [])


class TestEngineKernelTiers:
    """``CounterfactualEngine(kernel=...)`` reaches the replay kernels and
    every tier answers causal queries identically (PR 6)."""

    @pytest.fixture(scope="class")
    def fixtures(self):
        setting_a = paper_setting_a(seed=7)
        traces = paper_corpus(count=2, duration_s=400.0, seed=31)
        return setting_a, traces

    def test_all_tiers_answer_identically(self, fixtures):
        setting_a, traces = fixtures
        settings_b = [change_abr(setting_a, "bba"), change_buffer(setting_a, 30.0)]
        results = {}
        for tier in KERNEL_TIERS:
            engine = CounterfactualEngine(
                paper_veritas_config(), n_samples=3, seed=5, kernel=tier
            )
            prepared = engine.prepare_corpus(traces, setting_a)
            results[tier] = engine.evaluate_many(prepared, settings_b)
        for tier in ("scratch", "compiled"):
            for got, want in zip(results[tier], results["reference"]):
                assert got.per_trace == want.per_trace  # exact equality
