"""One storage for session logs: every ``SessionLog`` is its matrices.

However a log is built (a lockstep lane, the scalar session, a checkpoint
entry, ``SessionLog(..., records=...)``), it holds one float and one int
matrix, read-only and owned by the log; ``records`` is a tuple built from
them on first read.  These tests pin that contract:

* a lane's records, ``to_dict()`` (types included), accessors and metrics
  equal the serial ``StreamingSession`` log's;
* ``records`` cannot be edited, and reading it, ``==`` and ``to_dict()``
  change no accessor's output; an edit is a new log, which the
  accessors and ``VeritasAbduction.solve``'s memo see;
* a log owns its matrices: ``from_columns`` copies its arguments, a
  prefix is a view of its parent's, and pickling keeps them read-only;
* a records-built log equals its ``from_columns`` copy, and both hit one
  memo entry; ``==`` and ``dataclasses.replace`` keep working;
* building from columns runs the record, snapshot and log checks;
* a default-tier ``prepare_corpus`` and a checkpoint resume construct no
  ``ChunkRecord`` and no ``TCPStateSnapshot``;
* ``truncated`` totals stalls sequentially, as the session loop does.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro import (
    BatchStreamingSession,
    CounterfactualEngine,
    SessionConfig,
    StreamingSession,
    VeritasAbduction,
    compute_metrics,
    compute_metrics_batch,
    make_abr,
    paper_veritas_config,
    random_walk_trace,
    short_video,
)
from repro.abr import MPCAlgorithm
from repro.causal.queries import Setting
from repro.player.logs import (
    FLOAT_COLUMNS,
    INT_COLUMNS,
    ChunkRecord,
    SessionLog,
    sequential_sum,
)
from repro.tcp.state import TCPStateSnapshot


@pytest.fixture(scope="module")
def video():
    return short_video(duration_s=120.0, seed=5)


@pytest.fixture(scope="module")
def traces():
    # One boundary grid, so the lanes replay in lockstep.
    return [
        random_walk_trace(m, 400.0, seed=s, low=0.3, high=6.0, step_mbps=1.0)
        for m, s in [(1.0, 1), (3.0, 2), (5.0, 3)]
    ]


@pytest.fixture(scope="module")
def config():
    return SessionConfig(buffer_capacity_s=8.0)


@pytest.fixture(scope="module")
def batch_log(video, traces, config):
    return BatchStreamingSession(video, MPCAlgorithm, traces, config).run()


@pytest.fixture(scope="module")
def serial_logs(video, traces, config):
    return [
        StreamingSession(video, MPCAlgorithm(), trace, config).run()
        for trace in traces
    ]


@pytest.fixture
def count_objects(monkeypatch):
    """Counts of ``ChunkRecord`` / ``TCPStateSnapshot`` constructions."""
    counts = {"records": 0, "snapshots": 0}
    for cls, key in ((ChunkRecord, "records"), (TCPStateSnapshot, "snapshots")):
        real = cls.__post_init__

        def counting(self, _real=real, _key=key):
            counts[_key] += 1
            _real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def types_of(value):
    """``value`` with every leaf replaced by its type."""
    if isinstance(value, dict):
        return {key: types_of(v) for key, v in value.items()}
    if isinstance(value, list):
        return [types_of(v) for v in value]
    return type(value)


def column_born(log: SessionLog) -> SessionLog:
    """A copy of ``log`` built from its columns (what a checkpoint resume
    builds)."""
    return SessionLog.from_columns(*log.to_columns())


def records_built(log: SessionLog) -> SessionLog:
    """A copy of ``log`` built from its records (what ``from_dict`` builds)."""
    return dataclasses.replace(log, records=list(log.records))


def assert_same_columns(a: SessionLog, b: SessionLog) -> None:
    """``a`` and ``b`` hold the same scalars and columns (read without
    building records)."""
    for mine, theirs in zip(a.to_columns(), b.to_columns()):
        assert np.array_equal(mine, theirs)


def accessor_outputs(log: SessionLog) -> list:
    """What every accessor of ``log`` returns, for before/after checks."""
    outputs = [log.n_chunks, log.session_end_s, compute_metrics(log)]
    outputs += [log.column(name) for name in FLOAT_COLUMNS + INT_COLUMNS]
    outputs += [
        getattr(log, accessor)()
        for accessor in (
            "sizes_bytes",
            "start_times_s",
            "end_times_s",
            "download_times_s",
            "throughputs_mbps",
            "qualities",
        )
    ]
    states = log.tcp_state_columns()
    outputs += [getattr(states, name) for name in vars(states)]
    outputs += list(log.to_columns())
    return outputs


def assert_same_outputs(before: list, after: list) -> None:
    assert len(before) == len(after)
    for a, b in zip(before, after):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


class TestLaneMatchesSerial:
    def test_records_and_to_dict(self, batch_log, serial_logs):
        for k, serial in enumerate(serial_logs):
            lane = batch_log.lane(k)
            assert lane.records == serial.records
            assert lane.to_dict() == serial.to_dict()
            assert types_of(lane.to_dict()) == types_of(serial.to_dict())
            record = lane.to_dict()["records"][0]
            assert type(record["quality"]) is int
            assert type(record["tcp_state"]["cwnd_segments"]) is int

    def test_accessors_and_metrics(self, batch_log, serial_logs, count_objects):
        batch_metrics = compute_metrics_batch(batch_log)
        for k, serial in enumerate(serial_logs):
            lane = batch_log.lane(k)
            assert lane.n_chunks == serial.n_chunks
            assert lane.session_end_s == serial.session_end_s
            for name in FLOAT_COLUMNS + INT_COLUMNS:
                got, want = lane.column(name), serial.column(name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), name
            for accessor in (
                "sizes_bytes",
                "start_times_s",
                "end_times_s",
                "download_times_s",
                "throughputs_mbps",
                "qualities",
            ):
                got = getattr(lane, accessor)()
                assert np.array_equal(got, getattr(serial, accessor)())
            assert compute_metrics(lane) == compute_metrics(serial)
            assert compute_metrics(lane) == batch_metrics[k]
        assert count_objects == {"records": 0, "snapshots": 0}

    def test_to_columns_round_trip(self, serial_logs):
        for serial in serial_logs:
            copy = column_born(serial)
            assert copy == serial
            assert copy.records == serial.records
            assert copy.to_dict() == serial.to_dict()


class TestRecordsSwitch:
    """``records`` is a read-only view: reading it switches nothing."""

    def test_edit_raises_and_new_log_reaches_memo(self, batch_log):
        log = batch_log.lane(1)
        solver = VeritasAbduction(paper_veritas_config())
        records = log.records
        assert log.records is records  # built once
        first = solver.solve(log)
        last = records[-1]
        bigger = dataclasses.replace(last, size_bytes=4 * last.size_bytes)
        with pytest.raises(TypeError):
            records[-1] = bigger
        with pytest.raises(AttributeError):
            records.append(bigger)
        with pytest.raises(AttributeError):
            log.records = list(records)
        assert solver.solve(log) is first

        edited = dataclasses.replace(log, records=records[:-1] + (bigger,))
        assert edited.sizes_bytes()[-1] == 4 * last.size_bytes
        second = solver.solve(edited)
        assert second is not first
        extra = dataclasses.replace(
            last,
            index=last.index + 1,
            start_time_s=last.end_time_s,
            end_time_s=last.end_time_s + 1.0,
        )
        grown = dataclasses.replace(log, records=records + (extra,))
        assert grown.n_chunks == batch_log.n_chunks + 1
        assert grown.end_times_s()[-1] == last.end_time_s + 1.0
        assert solver.solve(grown).problem.n_chunks == grown.n_chunks
        assert log == batch_log.lane(1)  # the original is untouched

    @pytest.mark.parametrize("source", ["lane", "session"])
    def test_reads_change_no_accessor(self, video, traces, config, source):
        if source == "lane":
            batch = BatchStreamingSession(video, MPCAlgorithm, traces, config)
            log = batch.run().lane(0)
        else:
            log = StreamingSession(video, MPCAlgorithm(), traces[0], config).run()
        before = accessor_outputs(log)
        assert log.records[0].index == 0
        assert log == column_born(log)
        assert log.to_dict()["records"][0]["index"] == 0
        assert_same_outputs(before, accessor_outputs(log))

    def test_pickle_stays_column_born(self, batch_log, count_objects):
        log = batch_log.lane(0)
        restored = pickle.loads(pickle.dumps(log))
        assert_same_columns(restored, log)
        assert np.array_equal(restored.sizes_bytes(), log.sizes_bytes())
        assert_same_columns(restored.truncated(5), log.truncated(5))
        assert count_objects == {"records": 0, "snapshots": 0}
        assert restored == log
        assert restored.truncated(5) == log.truncated(5)
        with pytest.raises(ValueError, match="read-only"):
            restored._floats[0, 0] = 1.0

    def test_equality_across_storage(self, batch_log, serial_logs):
        lane = batch_log.lane(2)
        assert lane != batch_log.lane(1)
        assert lane == column_born(serial_logs[2])
        assert lane == serial_logs[2]
        assert column_born(serial_logs[2]) == serial_logs[2]

    def test_replace(self, batch_log, serial_logs):
        lane = batch_log.lane(0)
        replaced = dataclasses.replace(lane, total_rebuffer_s=1.5)
        assert replaced.total_rebuffer_s == 1.5
        assert replaced.records == serial_logs[0].records
        prefix = dataclasses.replace(lane, records=serial_logs[0].records[:3])
        assert prefix.n_chunks == 3
        assert np.array_equal(prefix.sizes_bytes(), lane.sizes_bytes()[:3])


class TestOwnedMatrices:
    def test_from_columns_copies_its_arguments(self, serial_logs):
        serial = serial_logs[0]
        abr_name, scalars, floats, ints = serial.to_columns()
        log = SessionLog.from_columns(abr_name, scalars, floats, ints)
        floats[:] = 1.0
        ints[:] = 1
        assert log == serial
        log.sizes_bytes()[:] = 1.0  # accessors return copies
        log.tcp_state_columns().cwnd_segments[:] = 1
        assert log == serial
        for matrix in (log._floats, log._ints):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1

    def test_prefix_shares_its_parents_storage(self, serial_logs):
        log = serial_logs[1]
        prefix = log.truncated(7)
        assert np.shares_memory(prefix._floats, log._floats)
        assert np.shares_memory(prefix._ints, log._ints)
        assert prefix == column_born(log).truncated(7)
        assert prefix.records == log.records[:7]

    def test_records_built_equals_column_built(self, serial_logs):
        built = records_built(serial_logs[2])
        columns = column_born(built)
        assert built == columns == serial_logs[2]
        solver = VeritasAbduction(paper_veritas_config())
        first = solver.solve(built)
        assert solver.solve(columns) is first
        for log in (built, columns):
            assert pickle.loads(pickle.dumps(log)) == built


class TestColumnChecks:
    @pytest.fixture
    def columns(self, serial_logs):
        _, _, floats, ints = serial_logs[0].to_columns()
        return floats, ints

    def build(self, serial, floats, ints):
        return SessionLog.from_columns(
            serial.abr_name, [8.0, 2.0, 0.08, 1.0, 0.0], floats, ints
        )

    @pytest.mark.parametrize(
        ("name", "value", "message"),
        [
            ("size_bytes", 0.0, "size must be positive"),
            ("end_time_s", None, "end must follow start"),
            ("rebuffer_s", -1e-3, "negative rebuffer"),
            ("min_rtt_s", 0.0, "RTTs must be positive"),
            ("rto_s", -1.0, "rto must be positive"),
            ("time_since_last_send_s", -1.0, "idle gap"),
            ("cwnd_segments", 0, "cwnd"),
            ("ssthresh_segments", 0, "ssthresh"),
        ],
    )
    def test_bad_value_raises(self, serial_logs, columns, name, value, message):
        floats, ints = columns
        if name in INT_COLUMNS:
            ints[INT_COLUMNS.index(name), 7] = value
        elif value is None:  # an end at the start
            start = FLOAT_COLUMNS.index("start_time_s")
            floats[FLOAT_COLUMNS.index(name), 7] = floats[start, 7]
        else:
            floats[FLOAT_COLUMNS.index(name), 7] = value
        with pytest.raises(ValueError, match=message):
            self.build(serial_logs[0], floats, ints)

    def test_overlapping_chunks_raise(self, serial_logs, columns):
        floats, ints = columns
        end = FLOAT_COLUMNS.index("end_time_s")
        floats[FLOAT_COLUMNS.index("start_time_s"), 5] = floats[end, 4] - 0.5
        with pytest.raises(ValueError, match="starts before chunk"):
            self.build(serial_logs[0], floats, ints)

    def test_wrong_scalar_count_raises(self, serial_logs, columns):
        floats, ints = columns
        with pytest.raises(ValueError):
            SessionLog.from_columns(
                serial_logs[0].abr_name, [8.0, 2.0, 0.08, 1.0], floats, ints
            )

    @pytest.mark.parametrize("which", ["floats", "ints", "rows"])
    def test_bad_shape_raises(self, serial_logs, columns, which):
        floats, ints = columns
        if which == "floats":
            floats = floats[:, :-1]
        elif which == "ints":
            ints = ints[:, :-1]
        else:
            floats = floats[:-1]
        with pytest.raises(ValueError, match="log columns must be"):
            self.build(serial_logs[0], floats, ints)


class TestNoPerChunkObjects:
    def test_prepare_and_resume_build_none(self, tmp_path, count_objects):
        setting_a = Setting(
            name="A",
            abr_factory=lambda: make_abr("mpc"),
            config=SessionConfig(buffer_capacity_s=5.0, rtt_s=0.08),
            video=short_video(duration_s=60.0, seed=4),
        )
        corpus = [
            random_walk_trace(m, 180.0, seed=s, low=1.5, high=9.0, step_mbps=1.0)
            for m, s in [(4.0, 1), (6.0, 2), (5.0, 3)]
        ]
        engine = CounterfactualEngine(paper_veritas_config(), n_samples=2, seed=3)
        first = engine.prepare_corpus(corpus, setting_a, checkpoint_dir=tmp_path)
        resumed = engine.prepare_corpus(corpus, setting_a, checkpoint_dir=tmp_path)
        assert count_objects == {"records": 0, "snapshots": 0}
        for a, b in zip(first.per_trace, resumed.per_trace):
            assert a.log_a == b.log_a
            assert a.setting_a_metrics == b.setting_a_metrics


class TestSequentialStallTotals:
    def test_truncated_full_length_equals_session(self):
        """At this seed builtin ``sum()`` of Python 3.12 rounds the stall
        total differently from the session's running total."""
        video = short_video(duration_s=300.0)
        trace = random_walk_trace(
            1.0, 900.0, low=0.2, high=3.0, step_mbps=1.0, seed=9
        )
        log = StreamingSession(video, MPCAlgorithm(), trace, SessionConfig()).run()
        assert log.total_rebuffer_s > 0
        assert log.truncated(log.n_chunks) == log
        assert column_born(log).truncated(log.n_chunks) == log

    def test_tiny_stalls_after_a_large_one(self, serial_logs):
        base = serial_logs[0]
        stalls = [1.0] + [1e-16] * (base.n_chunks - 1)
        loop = 0.0
        for stall in stalls:
            loop += stall
        records = [
            dataclasses.replace(r, rebuffer_s=stall)
            for r, stall in zip(base.records, stalls)
        ]
        log = dataclasses.replace(base, records=records)
        for storage in (log, column_born(log)):
            assert storage.truncated(len(stalls)).total_rebuffer_s == loop
        assert sequential_sum(stalls) == loop


class TestVeritasABRLog:
    def test_capacity_log_sums_stalls_sequentially(self, video, traces, monkeypatch):
        """The log the veritas-abr re-abducts from totals its stalls in the
        session's order."""
        abr = make_abr("veritas-abr")
        seen = []
        real = abr._abduction.solve

        def spy(log, *args, **kwargs):
            seen.append(log)
            return real(log, *args, **kwargs)

        monkeypatch.setattr(abr._abduction, "solve", spy)
        StreamingSession(video, abr, traces[0], SessionConfig()).run()
        assert seen
        for log in seen:
            assert log.total_rebuffer_s == sequential_sum(
                r.rebuffer_s for r in log.records
            )
