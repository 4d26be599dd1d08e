"""Tests for the counterfactual engine and evaluation helpers."""

from __future__ import annotations

import dataclasses
import multiprocessing

import numpy as np
import pytest

import repro.causal.engine as engine_module
from repro import (
    CounterfactualEngine,
    Setting,
    change_abr,
    change_buffer,
    change_ladder,
    format_counterfactual_report,
    higher_ladder,
    make_abr,
    paper_veritas_config,
    per_trace_series,
    random_walk_trace,
    run_setting,
    scheme_summaries,
)
from repro.causal import CounterfactualResult, TraceCounterfactual
from repro.player import QoEMetrics, SessionConfig
from repro.video import short_video


@pytest.fixture(scope="module")
def setting_a():
    return Setting(
        name="A",
        abr_factory=lambda: make_abr("mpc"),
        config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
        video=short_video(duration_s=120.0, seed=4),
    )


@pytest.fixture(scope="module")
def corpus():
    return [
        random_walk_trace(m, 600.0, seed=s, low=1.5, high=9.0, step_mbps=1.0)
        for m, s in [(4.0, 1), (6.0, 2)]
    ]


@pytest.fixture(scope="module")
def engine():
    return CounterfactualEngine(paper_veritas_config(), n_samples=3, seed=0)


@pytest.fixture(scope="module")
def abr_result(engine, corpus, setting_a):
    return engine.evaluate_corpus(corpus, setting_a, change_abr(setting_a, "bba"))


class TestQueries:
    def test_change_abr(self, setting_a):
        b = change_abr(setting_a, "bba")
        assert b.make_abr().name == "bba"
        assert b.config == setting_a.config
        assert b.video is setting_a.video

    def test_change_buffer(self, setting_a):
        b = change_buffer(setting_a, 30.0)
        assert b.config.buffer_capacity_s == 30.0
        assert b.make_abr().name == "mpc"

    def test_change_ladder(self, setting_a):
        b = change_ladder(setting_a, higher_ladder(), seed=0)
        assert b.video.ladder.highest.bitrate_mbps == 8.0
        assert b.video.n_chunks == setting_a.video.n_chunks

    def test_describe_mentions_parts(self, setting_a):
        desc = setting_a.describe()
        assert "mpc" in desc
        assert "5" in desc

    def test_each_replay_gets_fresh_abr(self, setting_a):
        assert setting_a.make_abr() is not setting_a.make_abr()


class TestVeritasRange:
    """The Veritas band of ``CounterfactualResult.metric_table`` (§4.3)."""

    @staticmethod
    def band(samples):
        """``(low, high, median)`` of one trace whose K samples have these
        mean SSIMs."""

        def metrics(ssim):
            return QoEMetrics(
                mean_ssim=ssim,
                mean_ssim_db=0.0,
                rebuffer_ratio=0.0,
                avg_bitrate_mbps=1.0,
                startup_time_s=0.5,
                quality_switches=0,
                n_chunks=10,
            )

        trace = TraceCounterfactual(
            0, metrics(0.9), metrics(0.9), metrics(0.9), tuple(map(metrics, samples))
        )
        table = CounterfactualResult("A", "B", [trace]).metric_table("mean_ssim")
        return tuple(
            float(table[key][0])
            for key in ("veritas_low", "veritas_high", "veritas_median")
        )

    def test_second_order_statistics(self):
        low, high, median = self.band((5.0, 1.0, 3.0, 4.0, 2.0))
        assert low == 2.0  # second smallest
        assert high == 4.0  # second largest
        assert median == 3.0

    def test_small_sample_falls_back_to_min_max(self):
        low, high, _ = self.band((2.0, 1.0))
        assert low == 1.0
        assert high == 2.0


class TestEngine:
    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            CounterfactualEngine(n_samples=0)

    def test_rejects_empty_corpus(self, engine, setting_a):
        with pytest.raises(ValueError):
            engine.evaluate_corpus([], setting_a, setting_a)

    def test_result_structure(self, abr_result, corpus):
        assert len(abr_result.per_trace) == len(corpus)
        tc = abr_result.per_trace[0]
        assert len(tc.veritas_metrics) == 3
        assert tc.trace_index == 0

    def test_metric_table_keys(self, abr_result):
        table = abr_result.metric_table("mean_ssim")
        assert set(table) == {
            "truth",
            "baseline",
            "veritas_low",
            "veritas_high",
            "veritas_median",
            "setting_a",
        }
        assert all(len(v) == len(abr_result.per_trace) for v in table.values())

    def test_veritas_low_le_high(self, abr_result):
        table = abr_result.metric_table("rebuffer_percent")
        assert np.all(table["veritas_low"] <= table["veritas_high"] + 1e-12)

    def test_identity_counterfactual_with_oracle_is_exact(
        self, engine, corpus, setting_a
    ):
        """Replaying Setting A over the true trace must reproduce Setting A."""
        result = engine.evaluate_trace(0, corpus[0], setting_a, setting_a)
        assert result.truth_metrics.mean_ssim == pytest.approx(
            result.setting_a_metrics.mean_ssim
        )
        assert result.truth_metrics.rebuffer_ratio == pytest.approx(
            result.setting_a_metrics.rebuffer_ratio
        )

    def test_seeded_reproducibility(self, corpus, setting_a):
        e1 = CounterfactualEngine(paper_veritas_config(), n_samples=2, seed=5)
        e2 = CounterfactualEngine(paper_veritas_config(), n_samples=2, seed=5)
        b = change_abr(setting_a, "bba")
        r1 = e1.evaluate_corpus(corpus, setting_a, b)
        r2 = e2.evaluate_corpus(corpus, setting_a, b)
        t1 = r1.metric_table("mean_ssim")
        t2 = r2.metric_table("mean_ssim")
        for key in t1:
            assert np.allclose(t1[key], t2[key])

    def test_parallel_corpus_bit_identical_to_serial(self, corpus, setting_a):
        """evaluate_corpus(n_workers=4) must reproduce serial results exactly."""
        b = change_abr(setting_a, "bba")
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=2, seed=3)
        serial = engine.evaluate_corpus(corpus, setting_a, b)
        parallel = engine.evaluate_corpus(corpus, setting_a, b, n_workers=4)
        assert len(parallel.per_trace) == len(serial.per_trace)
        for metric in ("mean_ssim", "rebuffer_percent", "avg_bitrate_mbps"):
            serial_table = serial.metric_table(metric)
            parallel_table = parallel.metric_table(metric)
            for key in serial_table:
                assert np.array_equal(serial_table[key], parallel_table[key])

    def test_engine_level_worker_setting(self, corpus, setting_a):
        """n_workers can also be fixed at engine construction."""
        b = change_abr(setting_a, "bba")
        serial = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=3
        ).evaluate_corpus(corpus, setting_a, b)
        pooled = CounterfactualEngine(
            paper_veritas_config(), n_samples=2, seed=3, n_workers=2
        ).evaluate_corpus(corpus, setting_a, b)
        table_a = serial.metric_table("mean_ssim")
        table_b = pooled.metric_table("mean_ssim")
        for key in table_a:
            assert np.array_equal(table_a[key], table_b[key])

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork start method",
    )
    def test_pooled_evaluate_many_matches_serial(self, setting_a, monkeypatch):
        """A pooled evaluate_many replays one contiguous trace shard per
        worker and answers every query exactly as the serial run does.

        BBA decides vectorised in the fused loop, while rate-based (no
        vectorised decider) and veritas-abr (an ``observe_download`` ABR)
        replay on the scalar session inside their shard.
        """
        traces = [
            random_walk_trace(m, 300.0, seed=s, low=1.5, high=9.0, step_mbps=1.0)
            for m, s in [(4.0, 1), (6.0, 2), (5.0, 3), (3.0, 4)]
        ]
        settings_b = [
            change_abr(setting_a, name) for name in ("bba", "rate", "veritas-abr")
        ]
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=2, seed=3)
        prepared = engine.prepare_corpus(traces, setting_a)
        serial = engine.evaluate_many(prepared, settings_b)

        shard_counts = []
        supervised = engine_module.run_supervised

        def spy(fn, tasks, **kwargs):
            shard_counts.append(len(tasks))
            return supervised(fn, tasks, **kwargs)

        monkeypatch.setattr(engine_module, "run_supervised", spy)
        pooled = engine.evaluate_many(prepared, settings_b, n_workers=2)

        assert shard_counts == [2]
        for got, want in zip(pooled, serial, strict=True):
            assert [t.trace_index for t in got.per_trace] == [0, 1, 2, 3]
            for metric in (f.name for f in dataclasses.fields(QoEMetrics)):
                got_table = got.metric_table(metric)
                want_table = want.metric_table(metric)
                for key in want_table:
                    assert np.array_equal(got_table[key], want_table[key])

    def test_rejects_bad_worker_count(self, corpus, setting_a):
        with pytest.raises(ValueError):
            CounterfactualEngine(n_workers=0)
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=2)
        with pytest.raises(ValueError):
            engine.evaluate_corpus(corpus, setting_a, setting_a, n_workers=0)

    def test_prediction_errors_nonnegative(self, abr_result):
        errors = abr_result.prediction_errors("mean_ssim")
        assert np.all(errors["baseline"] >= 0)
        assert np.all(errors["veritas"] >= 0)

    def test_run_setting_smoke(self, setting_a, corpus):
        log = run_setting(setting_a, corpus[0])
        assert log.n_chunks == setting_a.video.n_chunks


class TestEvaluationHelpers:
    def test_per_trace_series_sorted(self, abr_result):
        series = per_trace_series(abr_result, "mean_ssim", sort_by="truth")
        assert np.all(np.diff(series["truth"]) >= 0)

    def test_per_trace_series_bad_key(self, abr_result):
        with pytest.raises(ValueError):
            per_trace_series(abr_result, "mean_ssim", sort_by="nope")

    def test_scheme_summaries_structure(self, abr_result):
        summaries = scheme_summaries(abr_result, "rebuffer_percent")
        assert "truth" in summaries and "baseline" in summaries
        assert {"mean", "median", "p10", "p90"} <= set(summaries["truth"])

    def test_report_renders(self, abr_result):
        report = format_counterfactual_report(abr_result)
        assert "mean_ssim" in report
        assert "baseline" in report
        assert "traces: 2" in report
