"""Fault-injection tests for the fault-tolerant corpus runtime.

Each test breaks the pipeline on purpose — a poisoned trace, a worker
killed mid-shard, a hang past the watchdog, a corrupted checkpoint — and
asserts the two contracts of :mod:`repro.runtime`:

1. the run completes, reporting every incident in the result's
   :class:`~repro.runtime.faults.FaultLog`, and
2. every surviving trace's answer is **bit-identical** to a clean run's
   (recovery re-executes with the same seeds, it never approximates).

Worker-side injection uses marker files plus ``os.getpid()`` guards: the
fork pool inherits a monkeypatched engine method whose sabotage fires only
in child processes and only while the marker exists, so the supervised
retry (fresh pool, marker consumed) succeeds deterministically.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np
import pytest

from repro import (
    CounterfactualEngine,
    Setting,
    VeritasConfig,
    change_abr,
    change_buffer,
    make_abr,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
    paper_video,
    random_walk_trace,
)
from repro.net import (
    PiecewiseConstantTrace,
    TraceValidationError,
    validate_corpus,
    validate_trace,
)
from repro.player import SessionConfig
from repro.runtime import CheckpointStore, FaultLog, SupervisorConfig, fingerprint
from repro.runtime.supervisor import run_supervised
from repro.video import short_video

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

HAVE_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")


def nan_trace(duration_s: float = 180.0) -> PiecewiseConstantTrace:
    """A trace that passes construction but poisons the replay kernels.

    The constructor's negativity check (``values < 0``) is False for NaN,
    so this slips through — exactly the gap ``validate_trace`` closes.
    """
    values = [5.0] * int(duration_s)
    values[3] = math.nan
    return PiecewiseConstantTrace.from_uniform(values, 1.0)


def break_batch_replay(monkeypatch):
    """Make every fused replay on the batch tiers fail; the ``"reference"``
    tier, which the degrade retry runs on, still answers."""
    real = CounterfactualEngine._replay_settings

    def fused_fails(self, per_trace, settings, kernel=None):
        if kernel != "reference":
            raise RuntimeError("fused replay exploded")
        return real(self, per_trace, settings, kernel)

    monkeypatch.setattr(CounterfactualEngine, "_replay_settings", fused_fails)


@pytest.fixture(scope="module")
def setting_a():
    return Setting(
        name="A",
        abr_factory=lambda: make_abr("bba"),
        config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
        video=short_video(duration_s=60.0, seed=4),
    )


@pytest.fixture(scope="module")
def corpus():
    return [
        random_walk_trace(m, 180.0, seed=s, low=1.5, high=9.0, step_mbps=1.0)
        for m, s in [(4.0, 1), (6.0, 2), (5.0, 3)]
    ]


def make_engine(**kwargs) -> CounterfactualEngine:
    kwargs.setdefault("n_samples", 2)
    kwargs.setdefault("seed", 3)
    return CounterfactualEngine(paper_veritas_config(), **kwargs)


def assert_same_trace_answers(got, expected):
    """Exact (frozen-dataclass) equality of per-trace counterfactuals."""
    assert [t.trace_index for t in got] == [t.trace_index for t in expected]
    for a, b in zip(got, expected):
        assert a == b  # QoEMetrics are frozen dataclasses: float-exact


def assert_same_prepared(got, expected):
    assert [p.trace_index for p in got] == [p.trace_index for p in expected]
    for a, b in zip(got, expected):
        assert a.log_a.to_dict() == b.log_a.to_dict()
        assert a.setting_a_metrics == b.setting_a_metrics
        assert np.array_equal(a.baseline.boundaries, b.baseline.boundaries)
        assert np.array_equal(a.baseline.values, b.baseline.values)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.boundaries, sb.boundaries)
            assert np.array_equal(sa.values, sb.values)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_nan_bandwidth_is_caught(self):
        diags = validate_trace(nan_trace())
        assert any(d.code == "non-finite-bandwidth" for d in diags)

    def test_clean_trace_has_no_diagnostics(self, corpus):
        assert not validate_trace(corpus[0])

    def test_validate_corpus_maps_by_index(self, corpus):
        bad = [corpus[0], nan_trace(), corpus[1]]
        diagnostics = validate_corpus(bad)
        assert set(diagnostics) == {1}

    def test_raise_policy_fails_loudly(self, corpus, setting_a):
        engine = make_engine(on_error="raise")
        with pytest.raises(TraceValidationError):
            engine.prepare_corpus([corpus[0], nan_trace()], setting_a)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            make_engine(on_error="retry")


# ---------------------------------------------------------------------------
# Per-trace isolation: skip / degrade
# ---------------------------------------------------------------------------
class TestTraceIsolation:
    def test_skip_poisoned_trace_bit_identical(self, corpus, setting_a):
        """Dropping trace 1 must not perturb traces 0 and 2.

        Seeds are indexed by original corpus position, so the run over
        [t0, poison, t2] must match a clean run over [t0, filler, t2]
        float for float on the survivors.
        """
        setting_b = change_abr(setting_a, "bola")
        poisoned = [corpus[0], nan_trace(), corpus[2]]
        clean = [corpus[0], corpus[1], corpus[2]]

        engine = make_engine(on_error="skip")
        result = engine.evaluate_corpus(poisoned, setting_a, setting_b)
        reference = make_engine().evaluate_corpus(clean, setting_a, setting_b)

        assert result.faults.skipped_trace_indices() == {1}
        fault = result.faults.traces[0]
        assert (fault.stage, fault.tier) == ("validate", "input")
        survivors = [t for t in reference.per_trace if t.trace_index != 1]
        assert_same_trace_answers(result.per_trace, survivors)

    def test_degrade_retries_on_reference_path(self, corpus, setting_a, monkeypatch):
        """A batch-path failure degrades to the scalar path, bit-identical."""
        reference = make_engine().prepare_corpus(corpus[:2], setting_a)

        engine = make_engine(on_error="degrade")

        def boom(*args, **kwargs):
            raise RuntimeError("batch abduction exploded")

        monkeypatch.setattr(engine.abduction, "solve_batch", boom)
        prepared = engine.prepare_corpus(corpus[:2], setting_a)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        shard_faults = [f for f in prepared.faults.traces if f.trace_index == -1]
        assert len(shard_faults) == 1
        assert not shard_faults[0].skipped
        assert shard_faults[0].error_type == "RuntimeError"

    def test_degrade_raises_when_reference_also_fails(
        self, corpus, setting_a, monkeypatch
    ):
        engine = make_engine(on_error="degrade")

        def boom(*args, **kwargs):
            raise RuntimeError("irrecoverable")

        monkeypatch.setattr(engine.abduction, "solve_batch", boom)
        monkeypatch.setattr(engine.abduction, "solve", boom)
        with pytest.raises(RuntimeError, match="irrecoverable"):
            engine.prepare_corpus(corpus[:2], setting_a)

    def test_replay_degrade_recovers_bit_identical(
        self, corpus, setting_a, monkeypatch
    ):
        setting_b = change_buffer(setting_a, 30.0)
        reference = make_engine().evaluate_corpus(corpus[:2], setting_a, setting_b)

        engine = make_engine(on_error="degrade")
        prepared = engine.prepare_corpus(corpus[:2], setting_a)
        original = CounterfactualEngine._replay_prepared
        retry_tiers = []

        def flaky(self, item, setting, kernel=None):
            # Only the batch tiers fail: the retry runs on the reference tier.
            if kernel != "reference":
                raise RuntimeError("batch replay exploded")
            retry_tiers.append(kernel)
            return original(self, item, setting, kernel)

        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", flaky)
        break_batch_replay(monkeypatch)
        result = engine.evaluate_many(prepared, [setting_b])[0]

        assert retry_tiers == ["reference", "reference"]
        assert_same_trace_answers(result.per_trace, reference.per_trace)
        recovered = [f for f in result.faults.traces if f.trace_index >= 0]
        assert len(recovered) == 2
        assert all(not f.skipped and f.tier == "batch" for f in recovered)

    def test_replay_skip_drops_irrecoverable_trace(
        self, corpus, setting_a, monkeypatch
    ):
        setting_b = change_buffer(setting_a, 30.0)
        engine = make_engine(on_error="skip")
        prepared = engine.prepare_corpus(corpus[:2], setting_a)
        reference = make_engine().evaluate_many(
            make_engine().prepare_corpus(corpus[:2], setting_a), [setting_b]
        )[0]

        original = CounterfactualEngine._replay_prepared

        def boom_for_first(self, item, setting, kernel=None):
            # Trace 0 fails on the batch attempt and the reference retry.
            if item.trace_index == 0:
                raise RuntimeError("trace 0 is cursed")
            return original(self, item, setting, kernel)

        break_batch_replay(monkeypatch)
        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", boom_for_first)
        result = engine.evaluate_many(prepared, [setting_b])[0]

        assert [t.trace_index for t in result.per_trace] == [1]
        assert result.faults.skipped_trace_indices() == {0}
        assert_same_trace_answers(
            result.per_trace,
            [t for t in reference.per_trace if t.trace_index == 1],
        )


# ---------------------------------------------------------------------------
# Pool supervision
# ---------------------------------------------------------------------------
def _times_ten(task):
    return task * 10


def _sabotage(method, marker, mode):
    """Class-level wrapper of ``method``: children crash/hang while
    ``marker`` exists."""
    parent = os.getpid()
    original = getattr(CounterfactualEngine, method)

    def wrapper(self, *args, **kwargs):
        if os.getpid() != parent and marker.exists():
            try:
                marker.unlink()
            except OSError:
                pass  # a sibling got there first; sabotage anyway
            if mode == "kill":
                os._exit(1)
            time.sleep(60.0)
        return original(self, *args, **kwargs)

    return wrapper


@needs_fork
class TestPoolSupervision:
    def test_worker_death_recovers_bit_identical(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus, setting_a)
        marker = tmp_path / "kill-once"
        marker.touch()
        monkeypatch.setattr(
            CounterfactualEngine,
            "_prepare_traces_safe",
            _sabotage("_prepare_traces_safe", marker, "kill"),
        )
        engine = make_engine()
        prepared = engine.prepare_corpus(corpus, setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        assert len(prepared.faults.pool) == 1
        fault = prepared.faults.pool[0]
        assert fault.kind == "worker-death"
        assert fault.recovered == "pool-retry"

    def test_replay_worker_death_recovers_bit_identical(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        settings_b = [change_abr(setting_a, "bola"), change_buffer(setting_a, 30.0)]
        engine = make_engine()
        prepared = engine.prepare_corpus(corpus, setting_a)
        reference = engine.evaluate_many(prepared, settings_b)
        marker = tmp_path / "kill-once"
        marker.touch()
        monkeypatch.setattr(
            CounterfactualEngine,
            "_replay_shard_safe",
            _sabotage("_replay_shard_safe", marker, "kill"),
        )
        results = engine.evaluate_many(prepared, settings_b, n_workers=2)

        for got, want in zip(results, reference, strict=True):
            assert_same_trace_answers(got.per_trace, want.per_trace)
        faults = results[0].faults
        assert len(faults.pool) == 1
        assert faults.pool[0].kind == "worker-death"
        assert faults.pool[0].recovered == "pool-retry"

    def test_pooled_replay_skip_matches_in_process(
        self, corpus, setting_a, monkeypatch
    ):
        """Shards isolate failures like the in-process run: the fused
        replay fails in every shard and trace 0 fails on both retry paths."""
        setting_b = change_buffer(setting_a, 30.0)
        engine = make_engine(on_error="skip")
        prepared = engine.prepare_corpus(corpus, setting_a)
        original = CounterfactualEngine._replay_prepared

        def boom_for_first(self, item, setting, kernel=None):
            # Trace 0 fails on the batch attempt and the reference retry.
            if item.trace_index == 0:
                raise RuntimeError("trace 0 is cursed")
            return original(self, item, setting, kernel)

        break_batch_replay(monkeypatch)
        monkeypatch.setattr(CounterfactualEngine, "_replay_prepared", boom_for_first)
        in_process = engine.evaluate_many(prepared, [setting_b])[0]
        pooled = engine.evaluate_many(prepared, [setting_b], n_workers=2)[0]

        for result in (in_process, pooled):
            assert [t.trace_index for t in result.per_trace] == [1, 2]
            assert result.faults.skipped_trace_indices() == {0}
        assert_same_trace_answers(pooled.per_trace, in_process.per_trace)
        assert [f for f in pooled.faults.traces if f.trace_index >= 0] == [
            f for f in in_process.faults.traces if f.trace_index >= 0
        ]
        assert not pooled.faults.pool

    def test_hung_worker_times_out_and_recovers(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus, setting_a)
        marker = tmp_path / "hang-once"
        marker.touch()
        monkeypatch.setattr(
            CounterfactualEngine,
            "_prepare_traces_safe",
            _sabotage("_prepare_traces_safe", marker, "hang"),
        )
        engine = make_engine(shard_timeout_s=10.0)
        prepared = engine.prepare_corpus(corpus, setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        kinds = {f.kind for f in prepared.faults.pool}
        assert "timeout" in kinds

    def test_irrecoverable_pool_falls_back_in_process(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        reference = make_engine().prepare_corpus(corpus[:2], setting_a)
        parent = os.getpid()
        original = CounterfactualEngine._prepare_traces_safe

        def always_die(self, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            CounterfactualEngine, "_prepare_traces_safe", always_die
        )
        engine = make_engine(max_retries=1, retry_backoff_s=0.0)
        prepared = engine.prepare_corpus(corpus[:2], setting_a, n_workers=2)

        assert_same_prepared(prepared.per_trace, reference.per_trace)
        assert prepared.faults.pool, "pool deaths must be reported"
        assert prepared.faults.pool[-1].recovered == "in-process"

    def test_run_supervised_preserves_task_order(self):
        log = FaultLog()
        results = run_supervised(
            _times_ten,
            [1, 2, 3],
            workers=2,
            config=SupervisorConfig(max_retries=0),
            fault_log=log,
        )
        assert results == [10, 20, 30]
        assert not log

    def test_supervisor_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)

    @pytest.mark.parametrize("field", ["timeout_s", "backoff_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_supervisor_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SupervisorConfig(**{field: value})


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------
class TestCheckpointResume:
    def test_resume_skips_all_abduction(self, corpus, setting_a, tmp_path, monkeypatch):
        ckpt = tmp_path / "store"
        first = make_engine().prepare_corpus(
            corpus, setting_a, checkpoint_dir=ckpt
        )
        assert len(CheckpointStore(ckpt)) == len(corpus)

        engine = make_engine()

        def no_abduction(*args, **kwargs):
            raise AssertionError("resume must not re-run abduction")

        monkeypatch.setattr(engine.abduction, "solve", no_abduction)
        monkeypatch.setattr(engine.abduction, "solve_batch", no_abduction)
        resumed = engine.prepare_corpus(corpus, setting_a, checkpoint_dir=ckpt)

        assert_same_prepared(resumed.per_trace, first.per_trace)

    def test_resume_is_incremental(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        make_engine().prepare_corpus(corpus[:2], setting_a, checkpoint_dir=ckpt)
        assert len(CheckpointStore(ckpt)) == 2
        full = make_engine().prepare_corpus(
            corpus, setting_a, checkpoint_dir=ckpt
        )
        assert len(CheckpointStore(ckpt)) == 3
        reference = make_engine().prepare_corpus(corpus, setting_a)
        assert_same_prepared(full.per_trace, reference.per_trace)

    def test_replays_from_checkpoint_are_bit_identical(
        self, corpus, setting_a, tmp_path
    ):
        setting_b = change_abr(setting_a, "bola")
        ckpt = tmp_path / "store"
        make_engine().prepare_corpus(corpus[:2], setting_a, checkpoint_dir=ckpt)
        resumed = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        reference = make_engine().evaluate_corpus(corpus[:2], setting_a, setting_b)
        result = make_engine().evaluate_many(resumed, [setting_b])[0]
        assert_same_trace_answers(result.per_trace, reference.per_trace)

    def test_different_seed_misses_checkpoint(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        make_engine(seed=3).prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        make_engine(seed=4).prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        # Different seed -> different fingerprint -> a second artifact.
        assert len(CheckpointStore(ckpt)) == 2

    def test_corrupt_checkpoint_recomputes(self, corpus, setting_a, tmp_path):
        ckpt = tmp_path / "store"
        first = make_engine().prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        store = CheckpointStore(ckpt)
        (key,) = store.keys()
        store.path_for(key).write_bytes(b"not an npz")
        again = make_engine().prepare_corpus(
            corpus[:1], setting_a, checkpoint_dir=ckpt
        )
        assert_same_prepared(again.per_trace, first.per_trace)

    @staticmethod
    def resume_without_abduction(corpus, setting_a, ckpt, monkeypatch):
        """A resume that fails if any trace is not a checkpoint hit."""
        engine = make_engine()

        def no_abduction(*args, **kwargs):
            raise AssertionError("resume must not re-run abduction")

        monkeypatch.setattr(engine.abduction, "solve", no_abduction)
        monkeypatch.setattr(engine.abduction, "solve_batch", no_abduction)
        return engine.prepare_corpus(corpus, setting_a, checkpoint_dir=ckpt)

    def test_unreadable_entry_is_rewritten(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        """The recompute after a damaged entry overwrites it, so the next
        resume loads every trace."""
        ckpt = tmp_path / "store"
        first = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        store = CheckpointStore(ckpt)
        key = store.keys()[0]
        store.path_for(key).write_bytes(b"not an npz")
        again = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        assert_same_prepared(again.per_trace, first.per_trace)
        assert store.load(key) is not None
        resumed = self.resume_without_abduction(
            corpus[:2], setting_a, ckpt, monkeypatch
        )
        assert_same_prepared(resumed.per_trace, first.per_trace)

    @pytest.mark.parametrize("damage", ["log_column_short", "zero_chunk_size"])
    def test_loadable_damaged_entry_is_a_miss(
        self, corpus, setting_a, tmp_path, monkeypatch, damage
    ):
        """An entry that loads but fails the log's checks is recomputed and
        rewritten, never replayed."""
        from repro.player.logs import FLOAT_COLUMNS

        ckpt = tmp_path / "store"
        clean = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        store = CheckpointStore(ckpt)
        key = store.keys()[1]
        payload = store.load(key)
        saved = {name: array.copy() for name, array in payload.items()}
        if damage == "log_column_short":
            payload["log_ints"] = payload["log_ints"][:, :-1]
        else:
            payload["log_floats"][FLOAT_COLUMNS.index("size_bytes"), 3] = 0.0
        store.save(key, payload)

        again = make_engine().prepare_corpus(
            corpus[:2], setting_a, checkpoint_dir=ckpt
        )
        assert_same_prepared(again.per_trace, clean.per_trace)
        rewritten = store.load(key)
        assert sorted(rewritten) == sorted(saved)
        for name, array in saved.items():
            assert np.array_equal(rewritten[name], array), name
        resumed = self.resume_without_abduction(
            corpus[:2], setting_a, ckpt, monkeypatch
        )
        assert_same_prepared(resumed.per_trace, clean.per_trace)

    def test_predictor_window_misses_checkpoint(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        """The Setting-A fingerprint covers the objects the ABR owns: a
        rate-based Setting A with another predictor window is another
        checkpoint, never a reload of the first window's logs."""
        ckpt = tmp_path / "store"
        narrow = change_abr(setting_a, "rate", window=3)
        wide = change_abr(setting_a, "rate", window=8)
        make_engine().prepare_corpus(corpus[:2], narrow, checkpoint_dir=ckpt)

        hits = []
        real_load = CheckpointStore.load

        def counting_load(self, key):
            payload = real_load(self, key)
            if payload is not None:
                hits.append(key)
            return payload

        monkeypatch.setattr(CheckpointStore, "load", counting_load)
        resumed = make_engine().prepare_corpus(corpus[:2], wide, checkpoint_dir=ckpt)
        assert hits == []
        assert len(CheckpointStore(ckpt)) == 4

        fresh = make_engine().prepare_corpus(corpus[:2], wide)
        assert_same_prepared(resumed.per_trace, fresh.per_trace)
        setting_b = change_abr(setting_a, "bola")
        got = make_engine().evaluate_many(resumed, [setting_b])[0]
        want = make_engine().evaluate_many(fresh, [setting_b])[0]
        assert_same_trace_answers(got.per_trace, want.per_trace)

    def test_abduction_config_misses_checkpoint(self, tmp_path, monkeypatch):
        """A veritas-abr Setting A owns a ``VeritasAbduction`` whose
        ``VeritasConfig`` is a frozen dataclass, not a scalar: another
        sigma is another checkpoint, never a reload of the first
        sigma's Setting-A logs."""
        corpus = [
            random_walk_trace(m, 120.0, seed=s, low=0.5, high=6.0, step_mbps=1.5)
            for m, s in [(2.0, 11), (3.0, 12)]
        ]
        base = paper_setting_a(video=short_video(duration_s=60.0))

        def setting(sigma):
            config = VeritasConfig(sigma_mbps=sigma)
            return change_abr(base, "veritas-abr", config=config)

        ckpt = tmp_path / "store"
        make_engine().prepare_corpus(corpus, setting(0.5), checkpoint_dir=ckpt)

        hits = []
        real_load = CheckpointStore.load

        def counting_load(self, key):
            payload = real_load(self, key)
            if payload is not None:
                hits.append(key)
            return payload

        monkeypatch.setattr(CheckpointStore, "load", counting_load)
        resumed = make_engine().prepare_corpus(
            corpus, setting(2.0), checkpoint_dir=ckpt
        )
        assert hits == []
        assert len(CheckpointStore(ckpt)) == 2 * len(corpus)
        fresh = make_engine().prepare_corpus(corpus, setting(2.0))
        assert_same_prepared(resumed.per_trace, fresh.per_trace)

    def test_fingerprint_is_content_addressed(self):
        a = fingerprint(["x", np.arange(4), 3])
        b = fingerprint(["x", np.arange(4), 3])
        c = fingerprint(["x", np.arange(4), 4])
        assert a == b != c


# ---------------------------------------------------------------------------
# Kernel degrade warning (satellite a)
# ---------------------------------------------------------------------------
class TestCompiledFallbackWarning:
    def test_warns_once_per_process(self, monkeypatch):
        from repro.player import _fused
        from repro.util import compiled as util_compiled

        monkeypatch.setattr(_fused, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())

        def build():
            return CounterfactualEngine(paper_veritas_config(), kernel="compiled")

        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = build()
        assert engine.kernel == "scratch"

        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            build()  # second degrade must be silent

    def test_abduction_warns_once_per_process_at_construction(self, monkeypatch):
        """The engine reports the abduction tier that serves, as it does
        the replay tier: the degrade happens, and warns, when it is built."""
        from repro.core import _kernels
        from repro.util import compiled as util_compiled

        monkeypatch.setattr(_kernels, "available", lambda: False)
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())

        def build():
            return CounterfactualEngine(
                paper_veritas_config(), abduction_kernel="compiled"
            )

        with pytest.warns(RuntimeWarning, match="falling back") as caught:
            engine = build()
        assert len(caught) == 1
        assert engine.abduction_kernel == "numpy"

        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert build().abduction_kernel == "numpy"  # silent the 2nd time


# ---------------------------------------------------------------------------
# Clean-path overhead of the fault bookkeeping
# ---------------------------------------------------------------------------
def count_calls(fn) -> int:
    """Python and C function calls made while ``fn()`` runs.

    Counts the ``call`` and ``c_call`` events of :func:`sys.setprofile`
    on this thread: a cost that repeats exactly, unlike a wall time.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestCleanPathOverhead:
    def test_skip_policy_call_count_within_two_percent(self):
        """``on_error="skip"`` bookkeeping is near free on a clean corpus.

        ``"skip"`` wraps every corpus stage in isolation try/excepts and
        threads a FaultLog through the call tree.  One ``evaluate_many``
        sweep (4 paper traces of 1,200 s, the 600 s paper video, MPC
        Setting A, BBA and BOLA queries, 5 samples) runs under ``"raise"``
        and under ``"skip"`` after one warm-up each, and the gate counts
        the function calls of each.  The counts repeat exactly, where the
        wall times of two identical code paths differ by several percent
        on a shared machine.  A C call counts once however long it runs,
        so the gate sees Python-level bookkeeping, not native work.
        """
        setting_a = Setting(
            name="settingA",
            abr_factory=lambda: make_abr("mpc"),
            config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
            video=paper_video(seed=7),
        )
        settings_b = [change_abr(setting_a, q) for q in ["bba", "bola"]]
        corpus = paper_corpus(count=4, duration_s=1200.0, seed=2023)
        engines = {
            policy: CounterfactualEngine(
                paper_veritas_config(), n_samples=5, seed=7, on_error=policy
            )
            for policy in ["raise", "skip"]
        }
        prepared = engines["raise"].prepare_corpus(corpus, setting_a)

        for engine in engines.values():  # warm caches
            results = engine.evaluate_many(prepared, settings_b)
            assert not any(r.faults for r in results)
        calls = {
            policy: count_calls(
                lambda e=engine: e.evaluate_many(prepared, settings_b)
            )
            for policy, engine in engines.items()
        }
        assert abs(calls["skip"] / calls["raise"] - 1.0) < 0.02, calls


# ---------------------------------------------------------------------------
# Acceptance: everything at once
# ---------------------------------------------------------------------------
@needs_fork
class TestAcceptance:
    def test_poison_kill_and_hang_in_one_run(
        self, corpus, setting_a, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance scenario: a poisoned trace, a worker
        killed mid-shard and a hung worker in one corpus run — it must
        complete, report all three in the FaultLog, and stay bit-identical
        to serial on the surviving traces."""
        setting_b = change_abr(setting_a, "bola")
        poisoned = [corpus[0], nan_trace(), corpus[2]]
        reference = make_engine().evaluate_corpus(corpus, setting_a, setting_b)

        kill = tmp_path / "kill-once"
        hang = tmp_path / "hang-once"
        kill.touch()
        parent = os.getpid()
        original = CounterfactualEngine._prepare_traces_safe

        def chaos(self, *args, **kwargs):
            if os.getpid() != parent:
                if kill.exists():
                    try:
                        kill.unlink()
                        hang.touch()
                    except OSError:
                        pass
                    os._exit(1)
                if hang.exists():
                    try:
                        hang.unlink()
                    except OSError:
                        pass
                    time.sleep(60.0)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CounterfactualEngine, "_prepare_traces_safe", chaos)
        engine = make_engine(on_error="skip", shard_timeout_s=10.0)
        result = engine.evaluate_corpus(
            poisoned, setting_a, setting_b, n_workers=2
        )

        assert result.faults.skipped_trace_indices() == {1}
        kinds = {f.kind for f in result.faults.pool}
        assert "worker-death" in kinds
        survivors = [t for t in reference.per_trace if t.trace_index != 1]
        assert_same_trace_answers(result.per_trace, survivors)
