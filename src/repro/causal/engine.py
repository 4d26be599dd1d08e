"""The counterfactual replay engine (paper Fig. 6).

For each ground-truth trace:

1. **Deploy** Setting A over the true bandwidth → the observed
   :class:`~repro.player.logs.SessionLog` (this is all any scheme may see,
   except the oracle).
2. **Reconstruct** the bandwidth with each scheme:
   oracle (the truth), Baseline (observed throughput + interpolation), and
   Veritas (K posterior samples).
3. **Replay** Setting B over every reconstructed trace and compute QoE.

The result object keeps everything per-trace so benchmarks can print the
paper's per-trace series (Figs. 9-11, 13-14) and summary numbers.

Steps 1-2 depend only on Setting A, so a corpus can be **prepared** once
(:meth:`CounterfactualEngine.prepare_corpus`) and then replayed against any
number of Setting-B queries (:meth:`CounterfactualEngine.evaluate_many`) —
the deployment, abduction and posterior sampling are amortised across
queries, which is what makes sweeping many what-ifs over a large corpus
cheap.  ``evaluate_corpus`` is the single-query convenience wrapper over
the same path and stays bit-identical to evaluating each trace end to end.

**Fault tolerance** (see :mod:`repro.runtime`): the corpus-level entry
points take an ``on_error`` policy (``"raise"`` | ``"degrade"`` |
``"skip"``).  Under ``"degrade"``/``"skip"`` a trace that fails in the
batch fast path is deterministically retried on the scalar reference path
(the ``"reference"`` replay tier, the scalar prepare) with the same seeds
(bit-identical when it succeeds); under ``"skip"`` a
trace whose scalar retry also fails is dropped with a structured
:class:`~repro.runtime.faults.TraceFault` instead of killing the run, and
every incident lands in the :class:`~repro.runtime.faults.FaultLog`
attached to the result.  With ``n_workers`` > 1 both corpus stages run
contiguous trace shards, one per worker, through the serial path's batched
code on a supervised fork pool (per-shard timeouts, worker-death
detection, bounded retries, in-process fallback).
``prepare_corpus(checkpoint_dir=...)`` persists each completed trace's
artifacts content-addressed by (trace, Setting-A, model, seed) so a
restart re-does zero deployment/abduction work for finished traces.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines.observed import baseline_trace
from ..core.abduction import (
    VeritasAbduction,
    VeritasConfig,
    resolve_abduction_kernel,
    sample_traces_batch,
)
from ..net.trace import PiecewiseConstantTrace, TraceBatch, boundary_key
from ..net.validation import check_corpus, validate_corpus
from ..runtime.checkpoint import CheckpointStore, fingerprint
from ..runtime.faults import FaultLog, TraceFault, resolve_on_error
from ..runtime.supervisor import SupervisorConfig, run_supervised
from ..player.batch_session import (
    BatchStreamingSession,
    LaneGroup,
    abr_supports_batch_replay,
)
from ..player.logs import SessionLog, SessionLogBatch
from ..player.metrics import QoEMetrics, compute_metrics, compute_metrics_batch
from ..player.session import StreamingSession
from ..tcp.connection import resolve_kernel
from ..util.rng import SeedLike, spawn_seeds
from ..video.chunks import Video
from .queries import Setting

__all__ = [
    "TraceCounterfactual",
    "CounterfactualResult",
    "PreparedTrace",
    "PreparedCorpus",
    "CounterfactualEngine",
    "run_setting",
    "run_setting_batch",
]


def run_setting(setting: Setting, trace: PiecewiseConstantTrace) -> SessionLog:
    """Emulate one session of ``setting`` over ``trace``."""
    session = StreamingSession(
        video=setting.video,
        abr=setting.make_abr(),
        trace=trace,
        config=setting.config,
    )
    return session.run()


def run_setting_batch(
    setting: Setting,
    traces: "TraceBatch | list[PiecewiseConstantTrace]",
    kernel: str | None = None,
) -> SessionLogBatch:
    """Emulate one session of ``setting`` over every trace lane in lockstep.

    All lanes must share a boundary grid and the setting's ABR must pass
    :func:`~repro.player.batch_session.abr_supports_batch_replay`; lane
    ``k`` of the result is bit-identical to :func:`run_setting` over lane
    ``k``.  It serves the ``"scratch"`` and ``"compiled"`` tiers
    (``kernel=None`` picks the fastest buildable one, see
    :func:`~repro.tcp.connection.resolve_kernel`); ``kernel="reference"``
    or an ABR the lockstep loop cannot drive is a ``ValueError``, because
    that replay is :func:`run_setting` per lane.
    """
    session = BatchStreamingSession(
        video=setting.video,
        abr_factory=setting.make_abr,
        traces=traces,
        config=setting.config,
        kernel=kernel,
    )
    return session.run()


@dataclass(frozen=True)
class TraceCounterfactual:
    """All Setting-B predictions for one ground-truth trace."""

    trace_index: int
    setting_a_metrics: QoEMetrics
    truth_metrics: QoEMetrics
    baseline_metrics: QoEMetrics
    veritas_metrics: tuple[QoEMetrics, ...]


@dataclass
class CounterfactualResult:
    """Counterfactual answers across a whole trace corpus.

    ``faults`` reports everything an ``on_error="degrade"``/``"skip"`` run
    survived; traces it lists as skipped are absent from ``per_trace``
    (every surviving entry is bit-identical to a clean run's).  When one
    :meth:`CounterfactualEngine.evaluate_many` call answers several
    queries, its results share one :class:`~repro.runtime.faults.FaultLog`
    instance.
    """

    setting_a: str
    setting_b: str
    per_trace: list[TraceCounterfactual] = field(default_factory=list)
    faults: FaultLog = field(default_factory=FaultLog)

    def metric_table(self, metric: str) -> dict[str, np.ndarray]:
        """Per-trace arrays of ``metric`` for every scheme.

        Keys: ``truth``, ``baseline``, ``veritas_low``, ``veritas_high``,
        ``veritas_median``, ``setting_a``.  The Veritas band follows the
        paper: "we consider the second lowest and second largest
        prediction for each metric across the samples, which we refer to
        as Veritas (Low) and Veritas (High)" (§4.3); with fewer than three
        samples it is the plain min/max.
        """
        truth = np.asarray([getattr(t.truth_metrics, metric) for t in self.per_trace])
        base = np.asarray(
            [getattr(t.baseline_metrics, metric) for t in self.per_trace]
        )
        # One (traces, K) sort yields low/high/median for every trace at
        # once instead of re-sorting the K samples per accessor per trace.
        samples = np.asarray(
            [
                [getattr(m, metric) for m in t.veritas_metrics]
                for t in self.per_trace
            ]
        )
        samples.sort(axis=1)
        k = samples.shape[1]
        low = samples[:, 1] if k >= 3 else samples[:, 0]
        high = samples[:, -2] if k >= 3 else samples[:, -1]
        med = np.median(samples, axis=1)
        orig = np.asarray(
            [getattr(t.setting_a_metrics, metric) for t in self.per_trace]
        )
        return {
            "truth": truth,
            "baseline": base,
            "veritas_low": low,
            "veritas_high": high,
            "veritas_median": med,
            "setting_a": orig,
        }

    def prediction_errors(self, metric: str) -> dict[str, np.ndarray]:
        """Absolute error vs the truth for Baseline and Veritas (median)."""
        table = self.metric_table(metric)
        return {
            "baseline": np.abs(table["baseline"] - table["truth"]),
            "veritas": np.abs(table["veritas_median"] - table["truth"]),
        }


@dataclass(frozen=True)
class PreparedTrace:
    """Everything Setting-A-dependent for one ground-truth trace.

    Holds the deployed log, its metrics, and the reconstructions (baseline
    trace + K posterior samples) so any Setting-B query can be answered
    with replays alone.  ``log_a`` holds the same matrices whether the
    trace deployed in a lockstep lane, on the scalar session or came from
    a checkpoint; no per-chunk record is built until a caller reads
    ``log_a.records``.
    """

    trace_index: int
    ground_truth: PiecewiseConstantTrace
    log_a: SessionLog
    setting_a_metrics: QoEMetrics
    baseline: PiecewiseConstantTrace
    samples: tuple[PiecewiseConstantTrace, ...]


@dataclass
class PreparedCorpus:
    """A corpus with Setting A deployed and abduction solved, ready to replay.

    Produced by :meth:`CounterfactualEngine.prepare_corpus`; consumed by
    :meth:`CounterfactualEngine.evaluate_many`.  ``faults`` reports the
    traces an ``on_error="skip"`` preparation dropped (they are absent
    from ``per_trace``; surviving entries are bit-identical to a clean
    run's) plus any pool-supervision incidents.
    """

    setting_a: Setting
    n_samples: int
    per_trace: list[PreparedTrace] = field(default_factory=list)
    faults: FaultLog = field(default_factory=FaultLog)

    def __len__(self) -> int:
        return len(self.per_trace)


# Shared state for forked pool workers: the ``(method, args)`` pair of
# :meth:`CounterfactualEngine._run_shards`.  Settings carry ABR factory
# closures that cannot cross a pickle boundary, so the pool relies on fork
# inheritance: the state is installed before the pool spawns and workers
# receive only their shard's trace indices.  The lock serialises
# concurrent calls for the span where workers may still fork, so one
# call's state cannot leak into another's workers.
_FORK_STATE: tuple | None = None
_FORK_LOCK = threading.Lock()


# repro: pool-worker
def _run_shard(shard: "tuple[int, ...]"):
    method, args = _FORK_STATE
    return method(shard, *args)


# ----------------------------------------------------------------------
# Checkpoint payloads: a PreparedTrace round-trips through a dict of numpy
# arrays (what CheckpointStore persists as one .npz).  The session log
# travels as SessionLog.to_columns gives it (ABR name, scalars, float and
# int column matrices), the baseline and posterior-sample traces as one
# concatenation of their boundary and value arrays; metrics are recomputed
# deterministically, so a reloaded PreparedTrace is bit-identical to the
# one that was saved.  Seven members per entry: each one is a zip-member
# read on resume.
def _prepared_payload(prepared: PreparedTrace) -> dict:
    abr_name, scalars, floats, ints = prepared.log_a.to_columns()
    traces = (prepared.baseline, *prepared.samples)
    return {
        "log_abr": np.asarray(abr_name),
        "log_scalars": np.asarray(scalars, dtype=np.float64),
        "log_floats": floats,
        "log_ints": ints,
        "trace_boundaries": np.concatenate([t.boundaries for t in traces]),
        "trace_values": np.concatenate([t.values for t in traces]),
        "trace_intervals": np.asarray([t.values.size for t in traces]),
    }


def _prepared_from_payload(
    payload: dict,
    trace_index: int,
    ground_truth: PiecewiseConstantTrace,
    n_samples: int,
) -> PreparedTrace | None:
    """Rebuild a PreparedTrace, or ``None`` if the payload is damaged.

    Damaged means unreadable or failing a check: a log column of the wrong
    length or a bad value (``SessionLog.from_columns``), a trace that is
    not one, or a sample count other than ``n_samples``.
    """
    try:
        log = SessionLog.from_columns(
            str(payload["log_abr"][()]),
            payload["log_scalars"].tolist(),
            payload["log_floats"],
            payload["log_ints"],
        )
        metrics = compute_metrics(log)
        intervals = payload["trace_intervals"].tolist()
        if len(intervals) != 1 + n_samples:
            return None
        traces = []
        b0 = v0 = 0
        for count in intervals:
            traces.append(
                PiecewiseConstantTrace(
                    payload["trace_boundaries"][b0 : b0 + count + 1],
                    payload["trace_values"][v0 : v0 + count],
                )
            )
            b0 += count + 1
            v0 += count
    except Exception:
        return None
    return PreparedTrace(
        trace_index=trace_index,
        ground_truth=ground_truth,
        log_a=log,
        setting_a_metrics=metrics,
        baseline=traces[0],
        samples=tuple(traces[1:]),
    )


def _replay_horizon(ground_truth: PiecewiseConstantTrace, video: Video) -> float:
    """How far a session over ``ground_truth``'s reconstructions replays:
    three times ``video``'s duration, at least the ground truth's span.
    The reconstructions hold their final value beyond their span."""
    return max(ground_truth.end_time, 3.0 * video.duration_s)


_SCALAR_TYPES = (bool, int, float, str, type(None))


def _is_dataclass_instance(value) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _scalar_attributes(obj) -> dict:
    """Scalar attributes of ``obj`` as they are, dataclass-instance
    attributes (configs such as ``VeritasConfig``) by ``repr``."""
    return {
        key: repr(value) if _is_dataclass_instance(value) else value
        for key, value in sorted(vars(obj).items())
        if isinstance(value, _SCALAR_TYPES) or _is_dataclass_instance(value)
    }


def _abr_fingerprint(abr) -> str:
    """A stable identity string for an ABR instance.

    Captures the registered name plus every scalar or dataclass attribute
    of a freshly constructed instance and of each other object it owns
    (e.g. the window of its throughput predictor, the ``VeritasConfig``
    of a veritas-abr's abduction) — enough to distinguish parameterised
    variants (different MPC horizons, rate-based windows, abduction
    configs) without trying to hash arbitrary objects.
    """
    simple = _scalar_attributes(abr)
    for key, value in sorted(vars(abr).items()):
        if hasattr(value, "__dict__") and not _is_dataclass_instance(value):
            simple[key] = _scalar_attributes(value)
    return f"{abr.name}:{simple!r}"


class CounterfactualEngine:
    """Runs the full Fig.-6 pipeline over a corpus of ground-truth traces.

    ``n_workers`` > 1 splits the traces of the corpus-level methods into
    ``min(n_workers, traces)`` contiguous shards on a supervised fork
    pool; each shard runs the batched prepare or replay code the serial
    path runs over the whole corpus.  Every trace gets its seed from the
    same ``spawn_seeds`` schedule and each per-trace step is deterministic
    given its seed, so pooled results are bit-identical to serial ones.

    ``kernel`` selects the replay tier (see
    ``repro.tcp.connection.KERNEL_TIERS``); all tiers are bit-identical.
    On ``"scratch"`` and ``"compiled"``, all lanes of a query — truth,
    baseline and the K posterior samples, across every trace being
    answered — are grouped by boundary grid and each group advances chunk
    by chunk as one
    :class:`~repro.player.batch_session.BatchStreamingSession`;
    ``"compiled"`` runs whole sessions — decisions included — in a single
    compiled call for the shipped BBA/BOLA/RobustMPC algorithms, and the
    scratch tier's chunk loop otherwise.  It is the only tier that runs
    native replay code.  ``"reference"`` replays every lane on its own
    scalar :class:`~repro.player.session.StreamingSession`
    (:func:`run_setting` + ``compute_metrics``), and so does every tier
    for a setting whose ABR the lockstep loop cannot drive (an
    ``observe_download`` hook or no trusted vectorised decider, see
    :func:`~repro.player.batch_session.abr_supports_batch_replay`).
    :meth:`prepare_corpus` deploys Setting A the same way over the
    ground-truth traces.

    ``abduction_kernel`` independently selects the abduction tier for the
    batched solve/sampling paths (see
    ``repro.core.abduction.ABDUCTION_TIERS``).  ``"numpy"`` is
    bit-identical to the scalar reference; ``"compiled"`` runs each
    same-length stack's emission build, forward-backward, Viterbi and
    FFBS as single compiled-kernel calls — Viterbi paths and sampled
    traces stay bit-identical, float posteriors are within
    ``rtol=1e-13``.  An explicit ``"compiled"`` on either ladder degrades
    to the portable tier at construction, with a once-per-process
    warning, when no compiled backend exists.  Checkpoint fingerprints
    do not include the tier: a corpus prepared on one tier reloads
    cleanly on another.

    ``None`` on either ladder picks the fastest tier this machine can
    build — ``"compiled"`` where that ladder's cc+cffi build loads,
    ``"scratch"`` / ``"numpy"`` elsewhere — silently; :attr:`kernel` and
    :attr:`abduction_kernel` hold the replay and abduction tiers that
    serve (after any degrade).
    ``use_batch=False`` is another spelling of ``kernel="reference",
    abduction_kernel="reference"`` and overrides the tiers passed.

    ``on_error`` sets the engine-wide fault policy (overridable per call):
    ``"raise"`` fail-stops (the default), ``"degrade"`` retries failing
    traces on the scalar reference path with the same seeds (bit-identical
    when the retry succeeds, loud when it does not), and ``"skip"``
    additionally drops traces whose scalar retry also fails, recording a
    :class:`~repro.runtime.faults.TraceFault` in the result's
    :class:`~repro.runtime.faults.FaultLog`.  ``shard_timeout_s`` /
    ``max_retries`` / ``retry_backoff_s`` configure the pool supervisor:
    a worker killed mid-shard or hung past the timeout is detected, its
    shard retried on a fresh pool with the same deterministic seeds, and
    an irrecoverable pool falls back to in-process execution — results
    stay bit-identical to serial whenever every retry succeeds.
    """

    def __init__(
        self,
        veritas_config: VeritasConfig | None = None,
        n_samples: int = 5,
        seed: SeedLike = 0,
        n_workers: int | None = None,
        use_batch: bool = True,
        kernel: str | None = None,
        abduction_kernel: str | None = None,
        on_error: str = "raise",
        shard_timeout_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not use_batch:
            kernel = abduction_kernel = "reference"
        self.kernel = resolve_kernel(kernel)
        self.abduction_kernel = resolve_abduction_kernel(abduction_kernel)
        self.abduction = VeritasAbduction(veritas_config)
        self.n_samples = n_samples
        self.n_workers = n_workers
        self.on_error = resolve_on_error(on_error)
        self.supervisor = SupervisorConfig(
            timeout_s=shard_timeout_s,
            max_retries=max_retries,
            backoff_s=retry_backoff_s,
        )
        self._seed = seed

    # ------------------------------------------------------------------
    def evaluate_trace(
        self,
        trace_index: int,
        ground_truth: PiecewiseConstantTrace,
        setting_a: Setting,
        setting_b: Setting,
        seed: SeedLike = None,
    ) -> TraceCounterfactual:
        """Answer the counterfactual for one ground-truth trace.

        Deploys Setting A and reconstructs the trace once on the
        reference tiers (:meth:`_prepare_traces` with ``kernel=
        "reference", abduction_kernel="reference"``: the scalar session, a
        scalar solve and ``sample_traces(n, seed)``), then replays
        Setting B over the truth, the baseline and the K posterior
        samples.
        """
        (prepared,) = self._prepare_traces(
            [trace_index],
            {trace_index: ground_truth},
            setting_a,
            {trace_index: seed},
            kernel="reference",
            abduction_kernel="reference",
        )
        return self._replay_prepared(prepared, setting_b)

    # ------------------------------------------------------------------
    def _prepare_traces(
        self,
        indices: "Sequence[int]",
        traces: (
            Sequence[PiecewiseConstantTrace] | Mapping[int, PiecewiseConstantTrace]
        ),
        setting_a: Setting,
        seeds: Sequence[SeedLike] | Mapping[int, SeedLike],
        *,
        kernel: str | None = None,
        abduction_kernel: str | None = None,
    ) -> "list[PreparedTrace]":
        """Prepare ``traces[i]`` for every ``i`` in ``indices``, batched:
        deploy Setting A, solve abduction and draw the K samples once.

        ``traces`` and ``seeds`` are indexed by the entries of
        ``indices``.  ``kernel`` / ``abduction_kernel`` override the
        engine's replay and abduction tiers.  Ground-truth traces sharing
        a boundary grid deploy Setting A as one fused
        :class:`~repro.player.batch_session.BatchStreamingSession`, and
        the resulting logs run abduction and posterior sampling through
        the stacked inference pipeline on the abduction tier
        (:meth:`VeritasAbduction.solve_batch` /
        :func:`~repro.core.abduction.sample_traces_batch`).  Traces with no
        same-grid peers deploy on the scalar session, and so does every
        trace on the ``"reference"`` replay tier or under an ABR the
        lockstep loop cannot drive; the ``"reference"`` abduction tier
        solves and samples each log scalar.  Every per-trace output is
        bit-identical across tiers under the same seed (pinned by
        ``tests/test_batch_prepare.py``).
        """
        kernel = kernel or self.kernel
        abduction_kernel = abduction_kernel or self.abduction_kernel
        lockstep = self._lockstep(setting_a, kernel)

        # 1. Deployment: one lockstep session per shared boundary grid
        #    (the corpus generators emit one uniform grid by construction,
        #    so this is usually a single group).
        groups: "dict[tuple, list[int]]" = {}
        for pos, i in enumerate(indices):
            groups.setdefault(boundary_key(traces[i]), []).append(pos)
        logs: "list[SessionLog | None]" = [None] * len(indices)
        metrics: "list[QoEMetrics | None]" = [None] * len(indices)
        for positions in groups.values():
            if not lockstep or len(positions) == 1:
                for pos in positions:
                    log = run_setting(setting_a, traces[indices[pos]])
                    logs[pos] = log
                    metrics[pos] = compute_metrics(log)
                continue
            lanes = [traces[indices[pos]] for pos in positions]
            log_batch = run_setting_batch(setting_a, lanes, kernel=kernel)
            lane_metrics = compute_metrics_batch(log_batch)
            for k, pos in enumerate(positions):
                logs[pos] = log_batch.lane(k)
                metrics[pos] = lane_metrics[k]

        # 2. Reconstructions: baselines per trace, then abduction and the
        #    K posterior samples once per same-shape session stack.
        horizons = [_replay_horizon(traces[i], setting_a.video) for i in indices]
        baselines = [
            baseline_trace(log, duration_s=horizon)
            for log, horizon in zip(logs, horizons)
        ]
        if abduction_kernel == "reference":
            # Scalar solves, not solve_batch: the degrade retry runs here
            # when the batched solve is what failed.
            posteriors = [
                self.abduction.solve(log, trace_duration_s=horizon)
                for log, horizon in zip(logs, horizons)
            ]
        else:
            posteriors = self.abduction.solve_batch(
                logs, trace_duration_s=horizons, kernel=abduction_kernel
            )
        samples = sample_traces_batch(
            posteriors, self.n_samples, [seeds[i] for i in indices],
            kernel=abduction_kernel,
        )

        return [
            PreparedTrace(
                trace_index=i,
                ground_truth=traces[i],
                log_a=logs[pos],
                setting_a_metrics=metrics[pos],
                baseline=baselines[pos],
                samples=tuple(samples[pos]),
            )
            for pos, i in enumerate(indices)
        ]

    @staticmethod
    def _lockstep(setting: Setting, kernel: str) -> bool:
        """Whether ``setting`` replays in lockstep on replay tier ``kernel``."""
        return kernel != "reference" and abr_supports_batch_replay(
            setting.make_abr()
        )

    def _replay_tasks(
        self, tasks: "list[tuple[Setting, PiecewiseConstantTrace]]", kernel: str
    ) -> "list[QoEMetrics]":
        """QoE metrics of one session per ``(setting, trace)`` task.

        On the ``"scratch"`` and ``"compiled"`` tiers, tasks sharing a
        boundary grid, video, RTT and request overhead fuse into one
        lockstep replay — across *different* settings (ABR / buffer
        capacity become per-partition / per-lane), so a query sweep's
        truth, baseline and posterior-sample lanes all amortise the chunk
        loop — and metrics are read straight off the column logs.
        Leftover singleton lanes, every lane on the ``"reference"`` tier
        and every lane of a setting whose ABR the lockstep loop cannot
        drive replay on the scalar session.  Both paths produce
        bit-identical metrics (pinned by ``tests/test_batch_replay.py``).
        """
        metrics: "list[QoEMetrics | None]" = [None] * len(tasks)
        batchable: dict[int, bool] = {}
        # Lane traces repeat across tasks (extended() returns self when the
        # span already covers the horizon), so hash each boundary array
        # once per distinct object, not once per task.
        boundary_keys: dict[int, tuple] = {}
        groups: dict[tuple, list[int]] = {}
        for i, (setting, trace) in enumerate(tasks):
            sid = id(setting)
            ok = batchable.get(sid)
            if ok is None:
                ok = batchable[sid] = self._lockstep(setting, kernel)
            if not ok:
                metrics[i] = compute_metrics(run_setting(setting, trace))
                continue
            tid = id(trace)
            bkey = boundary_keys.get(tid)
            if bkey is None:
                bkey = boundary_keys[tid] = boundary_key(trace)
            config = setting.config
            groups.setdefault(
                (bkey, id(setting.video), config.rtt_s, config.request_overhead_s),
                [],
            ).append(i)

        for indices in groups.values():
            if len(indices) == 1:
                i = indices[0]
                setting, trace = tasks[i]
                metrics[i] = compute_metrics(run_setting(setting, trace))
                continue
            # One partition per run of same-setting tasks (tasks arrive
            # setting-major, so each setting contributes one partition).
            lane_groups: "list[LaneGroup]" = []
            current_sid = None
            for i in indices:
                setting, trace = tasks[i]
                if id(setting) != current_sid:
                    current_sid = id(setting)
                    lane_groups.append(
                        LaneGroup(setting.make_abr, setting.config, [trace])
                    )
                else:
                    lane_groups[-1].traces.append(trace)
            video = tasks[indices[0]][0].video
            log_batch = BatchStreamingSession.fused(
                video, lane_groups, kernel=kernel
            ).run()
            for i, m in zip(indices, compute_metrics_batch(log_batch)):
                metrics[i] = m
        return metrics

    def _replay_settings(
        self,
        prepared_traces: "list[PreparedTrace]",
        settings_b: "list[Setting]",
        kernel: str | None = None,
    ) -> "list[list[TraceCounterfactual]]":
        """Answer several Setting-B queries for several prepared traces.

        Collects every replay lane of every query — truth, baseline and
        the K posterior samples per trace — into one task list so
        :meth:`_replay_tasks` can fuse lanes across both traces and
        settings, then reassembles the per-setting per-trace
        counterfactuals.  The reconstructions hold their final value
        beyond their span, so each lane is extended to its setting's
        replay horizon (three times Setting B's video, at least the
        ground truth's span).  ``kernel`` overrides the engine's replay
        tier.
        """
        tasks: "list[tuple[Setting, PiecewiseConstantTrace]]" = []
        lane_counts: "list[int]" = []
        # Settings sharing a replay horizon (the common sweep shape) reuse
        # one extended lane list per trace instead of rebuilding identical
        # trace objects once per setting.
        lane_cache: "dict[tuple[int, float], list[PiecewiseConstantTrace]]" = {}
        for setting_b in settings_b:
            for prepared in prepared_traces:
                gt = prepared.ground_truth
                horizon = _replay_horizon(gt, setting_b.video)
                key = (id(prepared), horizon)
                lanes = lane_cache.get(key)
                if lanes is None:
                    lanes = [
                        gt.extended(horizon),
                        prepared.baseline.extended(horizon),
                    ]
                    lanes.extend(s.extended(horizon) for s in prepared.samples)
                    lane_cache[key] = lanes
                lane_counts.append(len(lanes))
                tasks.extend((setting_b, lane) for lane in lanes)

        metrics = self._replay_tasks(tasks, kernel or self.kernel)

        out: "list[list[TraceCounterfactual]]" = []
        pos = 0
        counts = iter(lane_counts)
        for setting_b in settings_b:
            per_setting = []
            for prepared in prepared_traces:
                count = next(counts)
                chunk = metrics[pos : pos + count]
                pos += count
                per_setting.append(
                    TraceCounterfactual(
                        trace_index=prepared.trace_index,
                        setting_a_metrics=prepared.setting_a_metrics,
                        truth_metrics=chunk[0],
                        baseline_metrics=chunk[1],
                        veritas_metrics=tuple(chunk[2:]),
                    )
                )
            out.append(per_setting)
        return out

    def _replay_prepared(
        self,
        prepared: PreparedTrace,
        setting_b: Setting,
        kernel: str | None = None,
    ) -> TraceCounterfactual:
        """Answer one Setting-B query from one trace's cached reconstructions.

        ``kernel="reference"`` is the scalar reference path the ``on_error``
        degrade policy retries on: one :func:`run_setting` session per
        lane, bit-identical to every other tier.
        """
        return self._replay_settings([prepared], [setting_b], kernel)[0][0]

    # ------------------------------------------------------------------
    # Fault-isolation wrappers: same work as the methods they wrap, but a
    # failure in the batch fast path degrades to the scalar reference path
    # (same seeds, bit-identical when it succeeds) before — under "skip"
    # only — a trace is dropped with a structured TraceFault.
    # ------------------------------------------------------------------
    def _prepare_traces_safe(
        self,
        indices: "Sequence[int]",
        traces: "list[PiecewiseConstantTrace]",
        setting_a: Setting,
        seeds: "list[int]",
        policy: str,
        checkpoint: "tuple[CheckpointStore, dict] | None" = None,
    ) -> "tuple[list[PreparedTrace], list[TraceFault]]":
        """Prepare a shard under ``policy``; returns ``(prepared, faults)``.

        Runs in pool workers and in-process alike.  Newly prepared traces
        are persisted to ``checkpoint`` as soon as the shard completes, so
        a crash later in the run never loses finished work.
        """
        faults: "list[TraceFault]" = []
        try:
            prepared = self._prepare_traces(indices, traces, setting_a, seeds)
        except Exception as batch_exc:
            if policy == "raise":
                raise
            faults.append(
                TraceFault.from_exception(
                    -1, "prepare", batch_exc, tier="batch", skipped=False
                )
            )
            prepared = []
            for i in indices:
                try:
                    prepared.extend(
                        self._prepare_traces(
                            [i], traces, setting_a, seeds,
                            kernel="reference", abduction_kernel="reference",
                        )
                    )
                except Exception as exc:
                    if policy == "degrade":
                        raise
                    faults.append(
                        TraceFault.from_exception(
                            i,
                            "prepare",
                            exc,
                            tier="reference",
                            retries=1,
                            skipped=True,
                        )
                    )
        self._checkpoint_save(checkpoint, prepared)
        return prepared, faults

    def _replay_shard_safe(
        self,
        indices: "Sequence[int]",
        per_trace: "list[PreparedTrace]",
        settings_b: "list[Setting]",
        policy: str,
    ) -> "tuple[list[list[TraceCounterfactual | None]], list[TraceFault]]":
        """Answer every setting for ``per_trace[i]``, ``i`` in ``indices``.

        Runs in pool workers and in-process alike.  The shard replays as
        one fused :meth:`_replay_settings` call; if that fails under
        ``"degrade"``/``"skip"``, each (trace, setting) answer is retried
        on its own through :meth:`_replay_one_safe`, and ``None`` marks an
        answer ``"skip"`` dropped.
        """
        shard = [per_trace[i] for i in indices]
        try:
            return self._replay_settings(shard, settings_b), []
        except Exception as batch_exc:
            if policy == "raise":
                raise
            faults = [
                TraceFault.from_exception(
                    -1, "replay", batch_exc, tier="batch", skipped=False
                )
            ]
        answers: "list[list[TraceCounterfactual | None]]" = []
        for setting_b in settings_b:
            answers.append([])
            for item in shard:
                outcome, item_faults = self._replay_one_safe(item, setting_b, policy)
                answers[-1].append(outcome)
                faults.extend(item_faults)
        return answers, faults

    def _replay_one_safe(
        self, prepared: PreparedTrace, setting_b: Setting, policy: str
    ) -> "tuple[TraceCounterfactual | None, list[TraceFault]]":
        """One (trace, setting) answer under ``"degrade"``/``"skip"``.

        Returns ``(outcome, faults)`` where ``outcome`` is ``None`` only
        when ``policy == "skip"`` and the scalar retry also failed.
        """
        try:
            return self._replay_prepared(prepared, setting_b), []
        except Exception as batch_exc:
            try:
                outcome = self._replay_prepared(prepared, setting_b, "reference")
            except Exception as exc:
                if policy == "degrade":
                    raise
                return None, [
                    TraceFault.from_exception(
                        prepared.trace_index,
                        "replay",
                        exc,
                        tier="reference",
                        retries=1,
                        skipped=True,
                        setting=setting_b.describe(),
                    )
                ]
            return outcome, [
                TraceFault.from_exception(
                    prepared.trace_index,
                    "replay",
                    batch_exc,
                    tier="batch",
                    retries=1,
                    skipped=False,
                    setting=setting_b.describe(),
                )
            ]

    # ------------------------------------------------------------------
    # Checkpointing: content-addressed (trace, Setting-A, model, seed)
    # fingerprints name each prepared trace's artifact file.
    # ------------------------------------------------------------------
    def _checkpoint_base(self, setting_a: Setting) -> list:
        """Fingerprint parts shared by every trace of a prepared corpus."""
        config = self.abduction.config
        video = setting_a.video
        session = setting_a.config
        return [
            "prepared-trace",
            _abr_fingerprint(setting_a.make_abr()),
            session.buffer_capacity_s,
            session.rtt_s,
            session.request_overhead_s,
            video.chunk_duration_s,
            np.asarray([level.bitrate_mbps for level in video.ladder]),
            video._sizes,
            video._ssim,
            repr(sorted(dataclasses.asdict(config).items())),
            self.n_samples,
        ]

    def _checkpoint_key(self, base: list, trace, seed: int) -> str:
        return fingerprint(
            [*base, np.asarray(trace.boundaries), np.asarray(trace.values), seed]
        )

    @staticmethod
    def _checkpoint_save(
        checkpoint: "tuple[CheckpointStore, dict] | None",
        prepared: "list[PreparedTrace]",
    ) -> None:
        """Persist every newly prepared trace.

        Only traces that did not load reach here, so an entry already on
        disk under the same key is a damaged one and is overwritten
        (atomically, by :meth:`CheckpointStore.save`).
        """
        if checkpoint is None:
            return
        store, keys = checkpoint
        for item in prepared:
            key = keys.get(item.trace_index)
            if key is not None:
                store.save(key, _prepared_payload(item))

    # ------------------------------------------------------------------
    def prepare_corpus(
        self,
        traces: list[PiecewiseConstantTrace],
        setting_a: Setting,
        n_workers: int | None = None,
        on_error: str | None = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> PreparedCorpus:
        """Deploy Setting A and solve abduction for a whole corpus, once.

        The returned :class:`PreparedCorpus` answers any number of
        Setting-B queries through :meth:`evaluate_many` without re-running
        deployment or inference.  Per-trace seeding follows the same
        ``spawn_seeds`` schedule as :meth:`evaluate_corpus` — indexed by
        *original* corpus position, so traces keep their seeds even when
        ``on_error="skip"`` drops neighbours — and downstream replays are
        bit-identical to the end-to-end path.

        The preparation itself runs corpus-lockstep: same-grid traces
        deploy Setting A as one fused batch session (on the ``"scratch"``
        and ``"compiled"`` replay tiers) and same-shape logs share stacked
        abduction and sampling passes on the abduction tier (see
        :meth:`_prepare_traces`) — bit-identical to the per-trace path.
        ``n_workers`` > 1 splits the traces into contiguous shards, one
        per worker, on the supervised fork pool; each worker batches
        within its shard, so pooled results equal serial ones float for
        float.

        ``on_error`` (default: the engine-level policy) gates three fault
        classes: invalid input traces (NaN/Inf bandwidths etc. — rejected
        by validation with a ``stage="validate"`` fault under
        ``"degrade"``/``"skip"``, raised as
        :class:`~repro.net.validation.TraceValidationError` under
        ``"raise"``), per-trace preparation failures (degraded to the
        scalar path, then skipped), and pool failures (supervised
        retries, then in-process fallback).

        ``checkpoint_dir`` enables checkpoint/resume: each completed
        trace's artifacts (Setting-A log + posterior draws) are persisted
        as one content-addressed ``.npz`` keyed by (trace, Setting-A,
        abduction model, seed), and traces already present are reloaded
        bit-identically without re-running deployment or abduction.  An
        entry that does not load (unreadable, or failing the log's checks)
        is prepared again and overwritten.
        """
        if not traces:
            raise ValueError("need at least one ground-truth trace")
        policy = resolve_on_error(on_error, self.on_error)
        workers = self._resolve_workers(n_workers)
        traces = list(traces)
        seeds = spawn_seeds(self._seed, len(traces))
        faults = FaultLog()
        corpus = PreparedCorpus(
            setting_a=setting_a, n_samples=self.n_samples, faults=faults
        )

        # Input validation gate (malformed traces would otherwise send the
        # replay kernels into undefined behaviour, NaN poisoning included).
        if policy == "raise":
            check_corpus(traces)
            valid = list(range(len(traces)))
        else:
            diagnostics = validate_corpus(traces)
            for i, findings in diagnostics.items():
                faults.record_trace(
                    TraceFault(
                        trace_index=i,
                        stage="validate",
                        error_type="TraceValidationError",
                        message="; ".join(str(d) for d in findings),
                        tier="input",
                        skipped=True,
                    )
                )
            valid = [i for i in range(len(traces)) if i not in diagnostics]

        # Checkpoint resume: reload every already-prepared trace.
        checkpoint = None
        loaded: "dict[int, PreparedTrace]" = {}
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            base = self._checkpoint_base(setting_a)
            keys = {
                i: self._checkpoint_key(base, traces[i], seeds[i])
                for i in valid
            }
            for i in valid:
                payload = store.load(keys[i])
                if payload is not None:
                    prepared = _prepared_from_payload(
                        payload, i, traces[i], self.n_samples
                    )
                    if prepared is not None:
                        loaded[i] = prepared
            checkpoint = (store, keys)

        todo = [i for i in valid if i not in loaded]
        prepared_all = list(loaded.values())
        if todo:
            for prepared, shard_faults in self._run_shards(
                self._prepare_traces_safe,
                todo,
                (traces, setting_a, seeds, policy, checkpoint),
                workers,
                faults,
            ):
                prepared_all.extend(prepared)
                faults.traces.extend(shard_faults)

        prepared_all.sort(key=lambda item: item.trace_index)
        corpus.per_trace.extend(prepared_all)
        return corpus

    def evaluate_many(
        self,
        prepared: PreparedCorpus,
        settings_b: "list[Setting]",
        n_workers: int | None = None,
        on_error: str | None = None,
    ) -> "list[CounterfactualResult]":
        """Answer several Setting-B queries against one prepared corpus.

        The traces run as contiguous shards, one in-process or one per
        worker on the supervised fork pool when ``n_workers`` > 1, and
        each shard answers every query in one fused replay.  Results are
        bit-identical whatever the sharding, and to running
        :meth:`evaluate_corpus` once per setting (see the parity suite).

        ``on_error`` (default: the engine-level policy) controls per-trace
        replay isolation: under ``"degrade"``/``"skip"`` a shard whose
        fused replay fails is retried per (trace, setting) (batch first,
        then the scalar reference path — same inputs, bit-identical when
        it succeeds), and under ``"skip"`` a trace whose scalar retry also
        fails is dropped from that query's ``per_trace`` with a
        :class:`~repro.runtime.faults.TraceFault`.  All returned results
        share one :class:`~repro.runtime.faults.FaultLog` via their
        ``faults`` field.
        """
        if not prepared.per_trace:
            raise ValueError("prepared corpus is empty")
        if not settings_b:
            raise ValueError("need at least one Setting-B query")
        policy = resolve_on_error(on_error, self.on_error)
        workers = self._resolve_workers(n_workers)
        faults = FaultLog()
        shards = self._run_shards(
            self._replay_shard_safe,
            list(range(len(prepared.per_trace))),
            (prepared.per_trace, settings_b, policy),
            workers,
            faults,
        )
        for _, shard_faults in shards:
            faults.traces.extend(shard_faults)
        return [
            CounterfactualResult(
                setting_a=prepared.setting_a.describe(),
                setting_b=setting_b.describe(),
                # Answers "skip" dropped come back as None.
                per_trace=[
                    answer
                    for answers, _ in shards
                    for answer in answers[si]
                    if answer is not None
                ],
                faults=faults,
            )
            for si, setting_b in enumerate(settings_b)
        ]

    def evaluate_corpus(
        self,
        traces: list[PiecewiseConstantTrace],
        setting_a: Setting,
        setting_b: Setting,
        n_workers: int | None = None,
        on_error: str | None = None,
        checkpoint_dir: "str | Path | None" = None,
    ) -> CounterfactualResult:
        """Answer the counterfactual across a whole corpus.

        ``n_workers`` overrides the engine-level setting for this call;
        values > 1 evaluate on a process pool with the same deterministic
        per-trace seeding as the serial path (the results are bit-identical,
        only wall time changes).  ``on_error`` and ``checkpoint_dir`` are
        forwarded to :meth:`prepare_corpus` / :meth:`evaluate_many`; the
        returned result's ``faults`` log covers both stages.
        """
        prepared = self.prepare_corpus(
            traces,
            setting_a,
            n_workers=n_workers,
            on_error=on_error,
            checkpoint_dir=checkpoint_dir,
        )
        result = self.evaluate_many(
            prepared, [setting_b], n_workers=n_workers, on_error=on_error
        )[0]
        # One log covering both stages, preparation incidents first.
        result.faults.traces[:0] = prepared.faults.traces
        result.faults.pool[:0] = prepared.faults.pool
        return result

    # ------------------------------------------------------------------
    def _resolve_workers(self, n_workers: int | None) -> int | None:
        workers = self.n_workers if n_workers is None else n_workers
        if workers is not None and workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {workers}")
        return workers

    def _run_shards(
        self,
        method: Callable,
        indices: "list[int]",
        args: tuple,
        workers: int | None,
        faults: FaultLog,
    ) -> list:
        """Run ``method(shard, *args)`` over contiguous shards of ``indices``.

        Returns one result per shard, in index order.  With one worker, one
        index or no fork start method, the whole of ``indices`` is one
        in-process shard.  Otherwise ``min(workers, len(indices))`` shards
        run on forked workers under the supervisor
        (:func:`repro.runtime.supervisor.run_supervised`: per-shard
        timeouts, worker-death detection, bounded retries with backoff and
        in-process fallback), whose incidents land on ``faults``.  Workers
        inherit ``(method, args)`` through ``_FORK_STATE``, which the
        in-process fallback reads in the parent as well.
        """
        count = min(workers or 1, len(indices))
        if count == 1 or "fork" not in multiprocessing.get_all_start_methods():
            return [method(indices, *args)]
        shards = [
            tuple(int(i) for i in shard)
            for shard in np.array_split(np.asarray(indices), count)
        ]
        global _FORK_STATE
        with _FORK_LOCK:
            _FORK_STATE = (method, args)
            try:
                return run_supervised(
                    _run_shard,
                    shards,
                    workers=count,
                    mp_context=multiprocessing.get_context("fork"),
                    config=self.supervisor,
                    fault_log=faults,
                )
            finally:
                _FORK_STATE = None
