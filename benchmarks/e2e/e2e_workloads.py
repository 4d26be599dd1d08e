"""The four workloads of the end-to-end benchmark.

Each workload is one closed-loop client of the Veritas pipeline: a rep is
one request (a corpus job, a query sweep or one interventional query), and
the next rep starts only when the previous answer is back.  Every request
runs in the client's own process, on one core.  Inputs come
from the seed alone; sizes are fixed here (the constructor arguments exist
so the self-test can shrink them).  Every engine is
``CounterfactualEngine(paper_veritas_config(), n_samples=5, seed=7)`` on
the default kernel tiers, so the benchmark measures what a user gets.

A workload provides ``setup(seed, workdir)``, an untimed ``warmup()``
whose :class:`RepOutcome` pins the answers, ``rep(q)``, which asks
question ``q`` (corpus workloads ask the same question every rep), and
``gates()``, which cross-check its own path against the scalar reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    CounterfactualEngine,
    RandomABRAlgorithm,
    StreamingSession,
    VeritasAbduction,
    VeritasDownloadPredictor,
    cap_bitrate,
    change_abr,
    change_buffer,
    change_ladder,
    higher_ladder,
    paper_corpus,
    paper_veritas_config,
    random_walk_trace,
)
from repro.util.rng import spawn_seeds
from repro.video import short_video
from repro.workloads.scenarios import paper_setting_a

__all__ = ["RepOutcome", "WORKLOADS"]

N_SAMPLES = 5
ENGINE_SEED = 7
PARITY_RTOL = 1e-9
QOE_FIELDS = (
    "mean_ssim",
    "mean_ssim_db",
    "rebuffer_ratio",
    "avg_bitrate_mbps",
    "startup_time_s",
    "quality_switches",
    "n_chunks",
)


@dataclass(frozen=True)
class RepOutcome:
    """What one request returned, reduced to what the gates check."""

    expected: int
    """Answers asked for: (setting, trace) pairs, or 1 query."""
    answered: int
    faults: int
    """``FaultLog`` entries."""
    digest: str
    """sha256 of the answers."""
    error: float
    """Mean absolute error of the answers against the ground truth."""


def _engine(**kwargs) -> CounterfactualEngine:
    return CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED, **kwargs
    )


def _reference_engine() -> CounterfactualEngine:
    return _engine(use_batch=False, kernel="reference", abduction_kernel="reference")


def _setting_a(video_s: float | None):
    return paper_setting_a(video=None if video_s is None else short_video(video_s))


def _corpus_outcome(results: list, per_result: int) -> RepOutcome:
    """Digest and accuracy of one call's results (they share one FaultLog)."""
    digest = hashlib.sha256()
    errors = []
    for result in results:
        indices = [t.trace_index for t in result.per_trace]
        digest.update(np.asarray(indices, dtype=np.int64).tobytes())
        for field in QOE_FIELDS:
            table = result.metric_table(field)
            for scheme in sorted(table):
                digest.update(np.asarray(table[scheme], dtype=np.float64).tobytes())
        errors.append(result.prediction_errors("avg_bitrate_mbps")["veritas"])
    return RepOutcome(
        expected=per_result * len(results),
        answered=sum(len(r.per_trace) for r in results),
        faults=len(results[0].faults),
        digest=digest.hexdigest(),
        error=float(np.mean(np.concatenate(errors))),
    )


def _tables_agree(results: list, reference: list) -> bool:
    """Every QoE table of ``results`` within ``PARITY_RTOL`` of the reference."""
    for ours, ref in zip(results, reference, strict=True):
        for field in QOE_FIELDS:
            a, b = ours.metric_table(field), ref.metric_table(field)
            if any(
                a[k].shape != b[k].shape
                or not np.allclose(a[k], b[k], rtol=PARITY_RTOL, atol=0.0)
                for k in a
            ):
                return False
    return True


class FreshCorpus:
    """Fig. 9 at the paper's scale: one ``evaluate_corpus`` per rep."""

    name = "fresh-corpus"
    why = (
        "Fig. 9 flow (MPC to BBA) over 100 paper traces of 900 s: deploy, "
        "abduction and replay every rep, so abduction and memory work show here"
    )
    error_unit = "Mbps"
    min_reps = 3
    same_question = True

    def __init__(self, n_traces: int = 100, trace_s: float = 900.0, video_s: float | None = None):
        self.n_traces = n_traces
        self.trace_s = trace_s
        self.video_s = video_s

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setting_a = _setting_a(self.video_s)
        self.setting_b = change_abr(self.setting_a, "bba")
        self.corpus = paper_corpus(count=self.n_traces, duration_s=self.trace_s, seed=seed)
        self.engine = _engine()
        self.checkpoint_dir = self._prime(self.engine, self.corpus, workdir)

    def _prime(self, engine, corpus, workdir: Path) -> Path | None:
        """Work done once before the reps; returns the checkpoint dir."""
        return None

    def _answer(self, engine, corpus, checkpoint_dir) -> RepOutcome:
        result = engine.evaluate_corpus(
            corpus,
            self.setting_a,
            self.setting_b,
            on_error="skip",
            checkpoint_dir=checkpoint_dir,
        )
        return _corpus_outcome([result], len(corpus))

    def warmup(self) -> RepOutcome:
        return self.rep(-1)

    def rep(self, q: int) -> RepOutcome:
        return self._answer(self.engine, self.corpus, self.checkpoint_dir)

    def checkpoint_bytes(self) -> int:
        if self.checkpoint_dir is None:
            return 0
        return sum(p.stat().st_size for p in self.checkpoint_dir.iterdir())

    def gates(self) -> "dict[str, bool]":
        """A 2-trace corpus through this workload's path vs the reference."""
        corpus = paper_corpus(count=2, duration_s=self.trace_s, seed=self.seed)
        engine = _engine()
        ours = engine.evaluate_corpus(
            corpus,
            self.setting_a,
            self.setting_b,
            checkpoint_dir=self._prime(engine, corpus, self.workdir / "parity"),
        )
        ref = _reference_engine().evaluate_corpus(corpus, self.setting_a, self.setting_b)
        return {"reference_parity": _tables_agree([ours], [ref])}


class ResumeCorpus(FreshCorpus):
    name = "resume-corpus"
    why = (
        "fresh-corpus over checkpoints written in setup: every trace is a "
        "checkpoint hit, so replay and checkpoint reads do all the work and "
        "abduction none"
    )

    def _prime(self, engine, corpus, workdir: Path) -> Path:
        checkpoint_dir = workdir / "checkpoints"
        engine.prepare_corpus(
            corpus, self.setting_a, on_error="skip", checkpoint_dir=checkpoint_dir
        )
        return checkpoint_dir


def sweep_queries(setting_a) -> list:
    """The 11 Setting-B queries: ABR x buffer, a higher ladder, a cap."""
    queries = [
        change_buffer(change_abr(setting_a, abr), buffer_s)
        for abr in ("bba", "bola", "mpc")
        for buffer_s in (5.0, 15.0, 30.0)
    ]
    queries.append(change_ladder(setting_a, higher_ladder()))
    queries.append(cap_bitrate(setting_a, 1.5))
    return queries


class QuerySweep:
    """Many what-ifs over one prepared corpus: replay only."""

    name = "query-sweep"
    why = (
        "11 Setting-B queries per rep over 16 traces prepared in setup: "
        "replay only (player, tcp, abr) with fused and unfused partitions, "
        "no abduction"
    )
    error_unit = "Mbps"
    min_reps = 3
    same_question = True

    def __init__(self, n_traces: int = 16, trace_s: float = 900.0, video_s: float | None = None):
        self.n_traces = n_traces
        self.trace_s = trace_s
        self.video_s = video_s

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.setting_a = _setting_a(self.video_s)
        self.queries = sweep_queries(self.setting_a)
        corpus = paper_corpus(count=self.n_traces, duration_s=self.trace_s, seed=seed)
        self.engine = _engine()
        self.prepared = self.engine.prepare_corpus(corpus, self.setting_a, on_error="skip")

    def warmup(self) -> RepOutcome:
        return self.rep(-1)

    def rep(self, q: int) -> RepOutcome:
        results = self.engine.evaluate_many(self.prepared, self.queries, on_error="skip")
        return _corpus_outcome(results, len(self.prepared))

    def checkpoint_bytes(self) -> int:
        return 0

    def gates(self) -> "dict[str, bool]":
        """All 11 queries fused as in a rep; three checked on the reference.

        The three are BBA at 15 s, which replays in the fused partitions,
        and the ladder and cap queries, which each have their own video.
        """
        checked = (1, 9, 10)
        corpus = paper_corpus(count=2, duration_s=self.trace_s, seed=self.seed)
        engine = _engine()
        ours = engine.evaluate_many(engine.prepare_corpus(corpus, self.setting_a), self.queries)
        ref_engine = _reference_engine()
        ref = ref_engine.evaluate_many(
            ref_engine.prepare_corpus(corpus, self.setting_a),
            [self.queries[i] for i in checked],
        )
        return {"reference_parity": _tables_agree([ours[i] for i in checked], ref)}


class Interventional:
    """Fig. 12's online question, one chunk at a time."""

    name = "interventional"
    why = (
        "Fig. 12: per-chunk download-time queries for every rung, given the "
        "session so far; the online path through scalar abduction, no batch, "
        "replay or pool code"
    )
    error_unit = "s"
    min_reps = 50
    same_question = False
    n_sessions = 4

    # Traces of 1800 s outlast every session: the 1 Mbps one stalls past
    # 900 s, and beyond its trace Veritas may predict an infinite download.
    def __init__(self, trace_s: float = 1800.0, video_s: float | None = None, n_probe: int = 30):
        self.trace_s = trace_s
        self.video_s = video_s
        self.n_probe = n_probe

    def setup(self, seed: int, workdir: Path) -> None:
        setting = _setting_a(self.video_s)
        self.video = setting.video
        seeds = spawn_seeds(seed, 2 * self.n_sessions + 1)
        logs = []
        for k, mean in enumerate(np.linspace(1.0, 9.0, self.n_sessions)):
            trace = random_walk_trace(
                mean_mbps=float(mean),
                duration=self.trace_s,
                interval=5.0,
                step_mbps=0.5,
                stay_prob=0.6,
                low=0.3,
                high=10.0,
                seed=seeds[k],
            )
            abr = RandomABRAlgorithm(seed=seeds[self.n_sessions + k])
            logs.append(StreamingSession(self.video, abr, trace, setting.config).run())
        # Prefixes are built here, outside the timed reps.
        self.queries = [
            (log.records[n], n, log.truncated(n))
            for log in logs
            for n in range(1, log.n_chunks)
        ]
        # Query cost grows with the prefix length, so questions are asked in
        # a golden-ratio order over prefix lengths: every run of reps, however
        # long, samples the lengths evenly and its latency quantiles steady.
        count = len(self.queries)
        spread = (np.random.default_rng(seeds[-1]).random() + np.arange(count) * 0.6180339887498949) % 1.0
        by_length = sorted(range(count), key=lambda q: (self.queries[q][1], q))
        self.order = np.asarray(by_length)[np.argsort(np.argsort(spread))]
        self.predictor = VeritasDownloadPredictor(paper_veritas_config())

    def _ask(self, q: int) -> "tuple[float, ...]":
        record, n, prefix = self.queries[q]
        return tuple(
            self.predictor.predict(
                prefix, float(size), record.start_time_s, record.tcp_state
            ).download_time_s
            for size in self.video.sizes_for_chunk(n)
        )

    def _outcome(self, answers: "list[tuple[float, ...]]", asked: "list[int]") -> RepOutcome:
        errors = [
            abs(answer[self.queries[q][0].quality] - self.queries[q][0].download_time_s)
            for q, answer in zip(asked, answers)
        ]
        return RepOutcome(
            expected=len(asked),
            answered=sum(all(np.isfinite(a)) and min(a) > 0 for a in answers),
            faults=0,
            digest=hashlib.sha256(np.asarray(answers).tobytes()).hexdigest(),
            error=float(np.mean(errors)),
        )

    def warmup(self) -> RepOutcome:
        """Answer the probe queries; the gates ask them again."""
        self.probe = [int(q) for q in self.order[: self.n_probe]]
        self.probe_answers = [self._ask(q) for q in self.probe]
        return self._outcome(self.probe_answers, self.probe)

    def rep(self, q: int) -> RepOutcome:
        query = int(self.order[(self.n_probe + q) % len(self.order)])
        return self._outcome([self._ask(query)], [query])

    def checkpoint_bytes(self) -> int:
        return 0

    def gates(self) -> "dict[str, bool]":
        """Re-asked probes answer the same; scalar and stacked solves agree."""
        abduction = VeritasAbduction(paper_veritas_config())
        stacked_ok = True
        for q in self.probe[:8]:
            prefix = self.queries[q][2]
            scalar = abduction.solve(prefix)
            stacked = abduction.solve_batch([prefix, prefix])[0]
            stacked_ok &= bool(
                np.array_equal(scalar.viterbi.states, stacked.viterbi.states)
                and np.allclose(
                    scalar.posterior_mean_capacities_mbps(),
                    stacked.posterior_mean_capacities_mbps(),
                    rtol=PARITY_RTOL,
                    atol=0.0,
                )
            )
        return {
            "repeat_answers": [self._ask(q) for q in self.probe] == self.probe_answers,
            "stacked_parity": stacked_ok,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (FreshCorpus, ResumeCorpus, QuerySweep, Interventional)
}
