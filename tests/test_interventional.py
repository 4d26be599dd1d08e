"""Tests for interventional download-time prediction (§4.4 / Fig. 12)."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro import (
    FuguPredictor,
    MPCAlgorithm,
    RandomABRAlgorithm,
    SessionConfig,
    StreamingSession,
    VeritasAbduction,
    VeritasDownloadPredictor,
    constant_trace,
    paper_veritas_config,
    random_walk_trace,
)
from repro.core import abduction
from repro.video import short_video


@pytest.fixture(scope="module")
def predictor():
    return VeritasDownloadPredictor(paper_veritas_config())


@pytest.fixture(scope="module")
def video():
    return short_video(duration_s=120.0, seed=6)


@pytest.fixture(scope="module")
def session_log(video):
    trace = constant_trace(5.0, 2000.0)
    return StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()


@pytest.fixture(scope="module")
def walk_log(video):
    """Random rungs over a wandering link, like the Fig. 12 sessions."""
    trace = random_walk_trace(4.0, 2000.0, seed=8, low=1.0, high=9.0)
    return StreamingSession(
        video, RandomABRAlgorithm(seed=3), trace, SessionConfig()
    ).run()


class TestVeritasPredictor:
    def test_rejects_empty_history(self, predictor, session_log):
        record = session_log.records[10]
        with pytest.raises(ValueError):
            predictor.predict(
                session_log.truncated(0), 500_000,
                record.start_time_s, record.tcp_state,
            )

    def test_rejects_bad_size(self, predictor, session_log):
        record = session_log.records[10]
        with pytest.raises(ValueError):
            predictor.predict(
                session_log.truncated(10), -1,
                record.start_time_s, record.tcp_state,
            )

    def test_rejects_backwards_time(self, predictor, session_log):
        record = session_log.records[10]
        with pytest.raises(ValueError):
            predictor.predict(
                session_log.truncated(10), 500_000,
                0.0, record.tcp_state,
            )

    @pytest.mark.parametrize("method", ["predict", "predict_distribution"])
    @pytest.mark.parametrize(
        "n_chunks, size, start_s, message",
        [
            (0, 500_000, None, "need at least one observed chunk to predict"),
            (10, -1, None, "candidate size must be positive, got -1"),
            (
                10, 500_000, 0.0,
                "next chunk cannot start before the last observed chunk",
            ),
        ],
        ids=["empty-history", "bad-size", "backwards-start"],
    )
    def test_both_methods_validate_alike(
        self, predictor, session_log, method, n_chunks, size, start_s, message
    ):
        record = session_log.records[10]
        if start_s is None:
            start_s = record.start_time_s
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(predictor, method)(
                session_log.truncated(n_chunks), size, start_s, record.tcp_state
            )

    def test_prediction_close_to_actual(self, predictor, session_log):
        """Predict each held-out chunk's actual download time."""
        errors = []
        for n in range(20, session_log.n_chunks, 17):
            record = session_log.records[n]
            prefix = session_log.truncated(n)
            pred = predictor.predict(
                prefix, record.size_bytes, record.start_time_s, record.tcp_state
            )
            errors.append(abs(pred.download_time_s - record.download_time_s))
        assert np.median(errors) < 0.5

    def test_expected_capacity_reasonable(self, predictor, session_log):
        record = session_log.records[30]
        pred = predictor.predict(
            session_log.truncated(30), record.size_bytes,
            record.start_time_s, record.tcp_state,
        )
        assert pred.expected_capacity_mbps == pytest.approx(5.0, abs=1.5)
        assert pred.window_gap >= 0

    def test_interventional_sizes_supported(self, predictor, session_log):
        """The whole point: sizes the ABR never chose still get sane answers."""
        record = session_log.records[30]
        prefix = session_log.truncated(30)
        d_small = predictor.predict(
            prefix, 10_000, record.start_time_s, record.tcp_state
        ).download_time_s
        d_huge = predictor.predict(
            prefix, 8_000_000, record.start_time_s, record.tcp_state
        ).download_time_s
        assert d_small < d_huge
        # An 8 MB chunk on a 5 Mbps link takes at least 12.8 s.
        assert d_huge > 10.0


class TestOneAbductionPerQuestion:
    """A question — every rung of the next chunk against one prefix — costs
    one emission build and one Viterbi pass, and answers never depend on
    which questions came before."""

    @staticmethod
    def _spy(monkeypatch):
        calls = {
            "solve": 0,
            "build_problem": 0,
            "viterbi_path": 0,
            "forward_backward": 0,
        }

        def counting(real, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            VeritasAbduction, "solve", counting(VeritasAbduction.solve, "solve")
        )
        for name in ("build_problem", "viterbi_path", "forward_backward"):
            monkeypatch.setattr(
                abduction, name, counting(getattr(abduction, name), name)
            )
        return calls

    def test_all_rungs_cost_one_abduction(self, monkeypatch, video, walk_log):
        n = 30
        record = walk_log.records[n]
        prefix = walk_log.truncated(n)
        sizes = video.sizes_for_chunk(n)
        assert len(sizes) == 7
        predictor = VeritasDownloadPredictor(paper_veritas_config())
        calls = self._spy(monkeypatch)
        for size in sizes:
            predictor.predict(
                prefix, float(size), record.start_time_s, record.tcp_state
            )
        assert calls == {
            "solve": 7,
            "build_problem": 1,
            "viterbi_path": 1,
            "forward_backward": 0,
        }

    def test_answers_independent_of_question_order(
        self, video, session_log, walk_log
    ):
        config = paper_veritas_config()
        shared = VeritasDownloadPredictor(config)

        def check(history, record, size):
            args = (history, size, record.start_time_s, record.tcp_state)
            answer = shared.predict(*args)
            assert answer == VeritasDownloadPredictor(config).predict(*args)
            return answer

        def ask(log, n, rungs):
            for q in rungs:
                size = float(video.sizes_for_chunk(n)[q])
                check(log.truncated(n), log.records[n], size)

        # Three prefixes of each of two sessions, three of the six asked
        # twice, shuffled; each visit asks about three rungs of the next
        # chunk.
        rng = np.random.default_rng(2)
        prefixes = [(log, n) for log in (session_log, walk_log) for n in (12, 25, 40)]
        prefixes += prefixes[::2]
        plan = [prefixes[i] for i in rng.permutation(len(prefixes))]
        assert any(
            a[0] is b[0] and a[1] > b[1] for a, b in zip(plan, plan[1:])
        ), "the plan must ask a shorter prefix right after a longer one"

        half = len(plan) // 2
        for log, n in plan[:half]:
            ask(log, n, rng.permutation(7)[:3])

        # A history that grows by a chunk and is then revised between
        # questions, each version a new log.
        size = float(video.sizes_for_chunk(19)[6])
        history = walk_log.truncated(18)
        check(history, walk_log.records[18], size)
        history = dataclasses.replace(
            history, records=history.records + walk_log.records[18:19]
        )
        appended = check(history, walk_log.records[19], size)
        # The last three downloads moved twice the bytes in the same time
        # (a longer download would overlap the next chunk's start).
        faster = tuple(
            dataclasses.replace(r, size_bytes=2 * r.size_bytes)
            for r in history.records[-3:]
        )
        history = dataclasses.replace(history, records=history.records[:-3] + faster)
        replaced = check(history, walk_log.records[19], size)
        assert replaced != appended  # a stale posterior would be visible

        for log, n in plan[half:]:
            ask(log, n, rng.permutation(7)[:3])

    def test_distribution_after_predict(self, monkeypatch, video, walk_log):
        n = 25
        record = walk_log.records[n]
        args = (
            walk_log.truncated(n),
            float(video.sizes_for_chunk(n)[-1]),
            record.start_time_s,
            record.tcp_state,
        )
        predictor = VeritasDownloadPredictor(paper_veritas_config())
        calls = self._spy(monkeypatch)
        predictor.predict(*args)
        spread = predictor.predict_distribution(*args, n_samples=20, seed=7)
        assert calls == {
            "solve": 2,
            "build_problem": 1,
            "viterbi_path": 1,
            "forward_backward": 1,
        }
        fresh = VeritasDownloadPredictor(paper_veritas_config())
        assert spread == fresh.predict_distribution(*args, n_samples=20, seed=7)


class TestFuguBias:
    """The Fig. 2(b) / Fig. 12 phenomenon, in miniature."""

    @pytest.fixture(scope="class")
    def biased_fugu(self):
        """Fugu trained on MPC logs over bimodal (poor/good) conditions."""
        logs = []
        for i, mbps in enumerate([0.25, 0.25, 9.5, 9.5]):
            video = short_video(duration_s=120.0, seed=i)
            trace = constant_trace(mbps, 5000.0)
            logs.append(
                StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
            )
        fugu = FuguPredictor(seed=0)
        fugu.train(logs, epochs=30, seed=1)
        return fugu, logs

    def test_fugu_underestimates_forced_large_chunk(self, biased_fugu):
        """On a poor-network session, forcing a large (high-quality) chunk:
        the associational model predicts far less than physics allows."""
        fugu, logs = biased_fugu
        poor_log = logs[0]  # 0.25 Mbps conditions
        sizes = list(poor_log.sizes_bytes()[:20])
        times = list(poor_log.download_times_s()[:20])
        forced_size = 1_000_000  # a high-quality chunk
        predicted = fugu.predict_download_time(forced_size, sizes, times)
        physical_floor = forced_size * 8 / 1e6 / 0.25  # 32 s at 0.25 Mbps
        assert predicted < 0.7 * physical_floor

    def test_fugu_ok_for_small_chunk(self, biased_fugu):
        """For the chunk size the deployed ABR would pick, Fugu is decent."""
        fugu, logs = biased_fugu
        poor_log = logs[0]
        n = 25
        record = poor_log.records[n]
        sizes = list(poor_log.sizes_bytes()[:n])
        times = list(poor_log.download_times_s()[:n])
        predicted = fugu.predict_download_time(record.size_bytes, sizes, times)
        assert predicted == pytest.approx(record.download_time_s, rel=0.6, abs=0.4)

    def test_veritas_beats_fugu_on_forced_chunk(self, biased_fugu):
        """Veritas's causal prediction respects the physical floor."""
        fugu, logs = biased_fugu
        poor_log = logs[0]
        n = 25
        record = poor_log.records[n]
        prefix = poor_log.truncated(n)
        forced_size = 1_000_000
        veritas = VeritasDownloadPredictor(paper_veritas_config())
        v_pred = veritas.predict(
            prefix, forced_size, record.start_time_s, record.tcp_state
        ).download_time_s
        f_pred = fugu.predict_download_time(
            forced_size,
            list(poor_log.sizes_bytes()[:n]),
            list(poor_log.download_times_s()[:n]),
        )
        physical = forced_size * 8 / 1e6 / 0.25
        assert abs(v_pred - physical) < abs(f_pred - physical)
