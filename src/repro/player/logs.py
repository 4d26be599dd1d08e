"""Session logs: the observed data Veritas works from.

A :class:`SessionLog` holds exactly what the paper's Setting-A deployment
records per chunk (§3.3): size, start and end time of the download, the TCP
state at the start (cwnd, ssthresh, rto, ...), plus the quality index and
buffer level that the QoE metrics need.  It deliberately does **not**
contain the ground-truth bandwidth — keeping GTBW out of the log object is
what makes "Veritas never saw the ground truth" auditable in tests.

Every log holds the same data however it is built: its ABR name, its
:data:`SCALAR_FIELDS` values, one float64 and one int64 matrix, a row per
field of :data:`FLOAT_COLUMNS` / :data:`INT_COLUMNS` and a column per
chunk.  ``SessionLog(..., records=...)`` (the scalar session,
``from_dict``, the Veritas ABR) converts its :class:`ChunkRecord` objects
into those matrices once; :meth:`SessionLog.from_columns` (a lockstep
lane, a checkpoint entry) takes them directly.  The log owns its matrices
and keeps them read-only, and ``records`` is a tuple built from them on
first read.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..tcp.state import TCPStateColumns, TCPStateSnapshot, check_state_columns
from ..util.units import throughput_mbps

__all__ = [
    "FLOAT_COLUMNS",
    "INT_COLUMNS",
    "SCALAR_FIELDS",
    "ChunkRecord",
    "SessionLog",
    "SessionLogBatch",
    "sequential_sum",
]

_TCP_FIELDS = tuple(f.name for f in fields(TCPStateColumns))

FLOAT_COLUMNS = (
    "size_bytes",
    "start_time_s",
    "end_time_s",
    "buffer_before_s",
    "buffer_after_s",
    "rebuffer_s",
    "ssim",
    "bitrate_mbps",
    "srtt_s",
    "min_rtt_s",
    "rto_s",
    "time_since_last_send_s",
)
"""Rows of a log's float64 matrix: the float fields of
:class:`ChunkRecord` and of its snapshot."""

INT_COLUMNS = ("index", "quality", "cwnd_segments", "ssthresh_segments")
"""Rows of a log's int64 matrix."""

SCALAR_FIELDS = (
    "buffer_capacity_s",
    "chunk_duration_s",
    "rtt_s",
    "startup_time_s",
    "total_rebuffer_s",
)
"""The per-session numbers of a :class:`SessionLog`, in the order
:meth:`SessionLog.from_columns` takes and :meth:`SessionLog.to_columns`
gives them."""

_FLOAT_ROW = {name: i for i, name in enumerate(FLOAT_COLUMNS)}
_INT_ROW = {name: i for i, name in enumerate(INT_COLUMNS)}
# ChunkRecord's fields other than its snapshot.
_CHUNK_FIELDS = tuple(
    name for name in FLOAT_COLUMNS + INT_COLUMNS if name not in _TCP_FIELDS
)


def _row(floats: np.ndarray, ints: np.ndarray, name: str) -> np.ndarray:
    """Field ``name``'s row of a log's matrices (a view)."""
    return ints[_INT_ROW[name]] if name in _INT_ROW else floats[_FLOAT_ROW[name]]


# A record's fields of each matrix, snapshot fields included, as a tuple.
_FLOAT_GETTER, _INT_GETTER = (
    attrgetter(*(f"tcp_state.{n}" if n in _TCP_FIELDS else n for n in names))
    for names in (FLOAT_COLUMNS, INT_COLUMNS)
)


def _checked(floats, ints) -> "tuple[np.ndarray, np.ndarray]":
    """New C-ordered float64 and int64 copies of a log's matrices, after the
    checks of :class:`ChunkRecord`, :class:`TCPStateSnapshot` and of chunk
    order on whole rows; a bad column raises ``ValueError`` as a bad record
    does."""
    floats = np.array(floats, dtype=np.float64, order="C")
    ints = np.array(ints, dtype=np.int64, order="C")
    if (
        floats.ndim != 2
        or floats.shape[0] != len(FLOAT_COLUMNS)
        or ints.shape != (len(INT_COLUMNS), floats.shape[1])
    ):
        raise ValueError(
            f"log columns must be ({len(FLOAT_COLUMNS)}, n) floats and "
            f"({len(INT_COLUMNS)}, n) ints, got {floats.shape} and "
            f"{ints.shape}"
        )
    starts = _row(floats, ints, "start_time_s")
    ends = _row(floats, ints, "end_time_s")
    index = _row(floats, ints, "index")
    for bad, message in (
        (ends <= starts, "end must follow start"),
        (_row(floats, ints, "size_bytes") <= 0, "size must be positive"),
        (_row(floats, ints, "rebuffer_s") < 0, "negative rebuffer time"),
    ):
        if bad.any():
            raise ValueError(f"chunk {index[np.argmax(bad)]}: {message}")
    overlap = starts[1:] < ends[:-1] - 1e-9
    if overlap.any():
        cur = int(np.argmax(overlap)) + 1
        raise ValueError(
            f"chunk {index[cur]} starts before chunk {index[cur - 1]} ends"
        )
    check_state_columns(
        **{name: _row(floats, ints, name) for name in _TCP_FIELDS}
    )
    return floats, ints


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right float total, as the session loop accumulates it.

    Builtin ``sum()`` compensates float rounding since Python 3.12, so it
    can differ in the last bit from the session's running totals.
    """
    total = 0.0
    for value in values:
        total += value
    return float(total)


@dataclass(frozen=True, slots=True)
class ChunkRecord:
    """Everything logged about one chunk download."""

    index: int
    quality: int
    size_bytes: float
    start_time_s: float
    end_time_s: float
    tcp_state: TCPStateSnapshot
    buffer_before_s: float
    buffer_after_s: float
    rebuffer_s: float
    ssim: float
    bitrate_mbps: float

    def __post_init__(self) -> None:
        if self.end_time_s <= self.start_time_s:
            raise ValueError(
                f"chunk {self.index}: end {self.end_time_s} must follow "
                f"start {self.start_time_s}"
            )
        if self.size_bytes <= 0:
            raise ValueError(f"chunk {self.index}: size must be positive")
        if self.rebuffer_s < 0:
            raise ValueError(f"chunk {self.index}: negative rebuffer time")

    @property
    def download_time_s(self) -> float:
        return self.end_time_s - self.start_time_s

    @property
    def throughput_mbps(self) -> float:
        """Observed throughput ``Y_n = S_n / D_n`` in Mbps."""
        return throughput_mbps(self.size_bytes, self.download_time_s)

    def log_columns(self) -> "tuple[tuple[float, ...], tuple[int, ...]]":
        """This chunk's column of a log's float and int matrices, in
        :data:`FLOAT_COLUMNS` / :data:`INT_COLUMNS` order."""
        return _FLOAT_GETTER(self), _INT_GETTER(self)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "quality": self.quality,
            "size_bytes": self.size_bytes,
            "start_time_s": self.start_time_s,
            "end_time_s": self.end_time_s,
            "tcp_state": self.tcp_state.to_dict(),
            "buffer_before_s": self.buffer_before_s,
            "buffer_after_s": self.buffer_after_s,
            "rebuffer_s": self.rebuffer_s,
            "ssim": self.ssim,
            "bitrate_mbps": self.bitrate_mbps,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkRecord":
        data = dict(data)
        data["tcp_state"] = TCPStateSnapshot.from_dict(data["tcp_state"])
        return cls(**data)


@dataclass(init=False, eq=False)
class SessionLog:
    """The complete log of one streaming session.

    ``chunk_duration_s`` and the setting description travel with the log so
    downstream consumers (abduction, metrics, counterfactual replay) never
    need the original simulator objects.

    Built from :class:`ChunkRecord` objects (``records=...``) or from
    columns (:meth:`from_columns`), a log holds its per-chunk fields as two
    read-only matrices that nothing outside it can write: :attr:`n_chunks`,
    :meth:`column` and the array accessors, :meth:`tcp_state_columns`,
    :meth:`to_columns` and the QoE metrics read them, and the array
    accessors return copies.  ``records`` is a tuple of records built from
    the matrices on first read.  ``==`` compares the ABR name, the scalars
    and the matrices by value; a pickled log comes back through
    :meth:`from_columns`.
    """

    abr_name: str
    buffer_capacity_s: float
    chunk_duration_s: float
    rtt_s: float
    startup_time_s: float
    total_rebuffer_s: float
    # An init-only argument, converted into the matrices; the ``records``
    # property below reads it back, so ``dataclasses.replace`` keeps the
    # chunks of the log it copies.
    records: InitVar[Iterable[ChunkRecord]]

    def __init__(
        self,
        abr_name: str,
        buffer_capacity_s: float,
        chunk_duration_s: float,
        rtt_s: float,
        startup_time_s: float,
        total_rebuffer_s: float,
        records: Iterable[ChunkRecord] = (),
    ) -> None:
        records = list(records)
        n = len(records)
        floats = np.reshape(list(map(_FLOAT_GETTER, records)), (n, len(FLOAT_COLUMNS)))
        ints = np.reshape(list(map(_INT_GETTER, records)), (n, len(INT_COLUMNS)))
        scalars = (buffer_capacity_s, chunk_duration_s, rtt_s, startup_time_s)
        self._adopt(abr_name, (*scalars, total_rebuffer_s), *_checked(floats.T, ints.T))

    def _adopt(self, abr_name: str, scalars, floats, ints) -> None:
        """Take ownership of checked matrices, made read-only here."""
        self.abr_name = abr_name
        for name, value in zip(SCALAR_FIELDS, scalars, strict=True):
            setattr(self, name, value)
        floats.flags.writeable = False
        ints.flags.writeable = False
        self._floats = floats
        self._ints = ints
        self._records: "tuple[ChunkRecord, ...] | None" = None

    @classmethod
    def from_columns(
        cls,
        abr_name: str,
        scalars: Sequence[float],
        floats: np.ndarray,
        ints: np.ndarray,
    ) -> "SessionLog":
        """A log from columns: ``scalars`` holds the :data:`SCALAR_FIELDS`
        values in order, ``floats`` has a row per :data:`FLOAT_COLUMNS`
        entry and ``ints`` a row per :data:`INT_COLUMNS` entry, one column
        per chunk.

        The matrices are copied, so later writes to the arguments do not
        reach the log, and run the checks a record-built log runs.
        """
        log = cls.__new__(cls)
        log._adopt(abr_name, scalars, *_checked(floats, ints))
        return log

    @property
    def records(self) -> "tuple[ChunkRecord, ...]":
        """The chunks as :class:`ChunkRecord` objects of Python scalars,
        built from the matrices on first read."""
        if self._records is None:
            rows = dict(zip(FLOAT_COLUMNS, self._floats.tolist()))
            rows.update(zip(INT_COLUMNS, self._ints.tolist()))
            chunks = zip(*(rows[name] for name in _CHUNK_FIELDS))
            states = zip(*(rows[name] for name in _TCP_FIELDS))
            self._records = tuple(
                ChunkRecord(
                    **dict(zip(_CHUNK_FIELDS, chunk)),
                    tcp_state=TCPStateSnapshot(**dict(zip(_TCP_FIELDS, state))),
                )
                for chunk, state in zip(chunks, states)
            )
        return self._records

    def _scalars(self) -> "tuple[float, ...]":
        return tuple(getattr(self, name) for name in SCALAR_FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.abr_name == other.abr_name
            and self._scalars() == other._scalars()
            and np.array_equal(self._floats, other._floats)
            and np.array_equal(self._ints, other._ints)
        )

    def __reduce__(self):
        return (type(self).from_columns, self.to_columns())

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return int(self._floats.shape[1])

    @property
    def session_end_s(self) -> float:
        """Wall-clock time when playback of the last chunk completes."""
        if self.n_chunks == 0:
            return 0.0
        playback = self.n_chunks * self.chunk_duration_s
        return self.startup_time_s + playback + self.total_rebuffer_s

    @property
    def session_duration_s(self) -> float:
        return self.session_end_s

    # Convenience arrays used by abduction, metrics and the baselines ---
    def column(self, name: str) -> np.ndarray:
        """Per-chunk field ``name`` (of :data:`FLOAT_COLUMNS` or
        :data:`INT_COLUMNS`) as a new 1-D float64 / int64 array."""
        if name not in _FLOAT_ROW and name not in _INT_ROW:
            raise ValueError(f"unknown log column {name!r}")
        return _row(self._floats, self._ints, name).copy()

    def sizes_bytes(self) -> np.ndarray:
        return self.column("size_bytes")

    def start_times_s(self) -> np.ndarray:
        return self.column("start_time_s")

    def end_times_s(self) -> np.ndarray:
        return self.column("end_time_s")

    def download_times_s(self) -> np.ndarray:
        return self.end_times_s() - self.start_times_s()

    def throughputs_mbps(self) -> np.ndarray:
        # Vectorised equivalent of stacking each record's throughput_mbps
        # property (same operation order, so identical floats).  Durations
        # are validated positive at construction.
        sizes = self.sizes_bytes()
        durations = self.download_times_s()
        return sizes / durations * 8 / 1_000_000

    def qualities(self) -> np.ndarray:
        return self.column("quality")

    def tcp_state_columns(self) -> TCPStateColumns:
        """The TCP state at each chunk's start, as arrays."""
        return TCPStateColumns(**{name: self.column(name) for name in _TCP_FIELDS})

    def to_columns(self) -> "tuple[str, tuple, np.ndarray, np.ndarray]":
        """``(abr_name, scalars, floats, ints)``, the arguments of
        :meth:`from_columns`: the log's own ABR name and scalars and new
        matrices."""
        return self.abr_name, self._scalars(), self._floats.copy(), self._ints.copy()

    # Serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "abr_name": self.abr_name,
            **dict(zip(SCALAR_FIELDS, self._scalars())),
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionLog":
        data = dict(data)
        data["records"] = [ChunkRecord.from_dict(r) for r in data["records"]]
        return cls(**data)

    def save(self, path: str | Path) -> None:
        """Write the log as JSON (what a deployment would ship home)."""
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SessionLog":
        """Read a log written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def truncated(self, n_chunks: int) -> "SessionLog":
        """A prefix log containing only the first ``n_chunks`` chunks.

        Used by interventional queries: "given the session *so far*,
        predict the next download".  The prefix's matrices are views of
        the first ``n_chunks`` columns of this log's: no copy, and no
        re-check of rows that were checked here.  Its stall total is the
        sequential sum of the prefix's ``rebuffer_s``, the order the
        session loop accumulates in.
        """
        if not 0 <= n_chunks <= self.n_chunks:
            raise ValueError(
                f"cannot truncate to {n_chunks} chunks (have {self.n_chunks})"
            )
        scalars = dict(zip(SCALAR_FIELDS, self._scalars()))
        rebuffer = self._floats[_FLOAT_ROW["rebuffer_s"], :n_chunks]
        scalars["total_rebuffer_s"] = sequential_sum(rebuffer.tolist())
        prefix = SessionLog.__new__(SessionLog)
        columns = self._floats[:, :n_chunks], self._ints[:, :n_chunks]
        prefix._adopt(self.abr_name, scalars.values(), *columns)
        return prefix


@dataclass
class SessionLogBatch:
    """Column-oriented logs of ``K`` sessions replayed in lockstep.

    Produced by :class:`~repro.player.batch_session.BatchStreamingSession`:
    every per-chunk quantity is a ``(n_chunks, K)`` array (chunk-major so a
    lane is a column), per-session scalars are ``(K,)`` arrays, and the TCP
    RTT-estimator fields — identical across lanes by construction — are
    ``(n_chunks,)`` vectors.  QoE metrics are computed directly from the
    columns (:func:`~repro.player.metrics.compute_metrics_batch`), and
    :meth:`lane` gives lane ``k`` as a :class:`SessionLog`: its columns
    copied out, no per-chunk object built, and equal to the log of a
    serial replay of that lane.

    ``total_size_bytes`` carries the loop's sequential per-lane byte
    accumulation so derived metrics reproduce the scalar accumulation order
    exactly.  ``abr_names`` and ``buffer_capacity_s`` are per-lane because
    a fused batch replays several queries' lanes — different ABRs and
    buffer caps — in one loop.
    """

    abr_names: "list[str]"
    buffer_capacity_s: np.ndarray
    chunk_duration_s: float
    rtt_s: float
    startup_time_s: np.ndarray
    total_rebuffer_s: np.ndarray
    total_size_bytes: np.ndarray
    qualities: np.ndarray
    size_bytes: np.ndarray
    start_times_s: np.ndarray
    end_times_s: np.ndarray
    buffer_before_s: np.ndarray
    buffer_after_s: np.ndarray
    rebuffer_s: np.ndarray
    ssim: np.ndarray
    ssim_db: np.ndarray
    bitrate_mbps: np.ndarray
    cwnd_segments: np.ndarray
    ssthresh_segments: np.ndarray
    time_since_last_send_s: np.ndarray
    srtt_s: np.ndarray
    min_rtt_s: np.ndarray
    rto_s: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        return int(self.qualities.shape[0])

    @property
    def n_lanes(self) -> int:
        return int(self.qualities.shape[1])

    def lane(self, k: int) -> SessionLog:
        """Lane ``k`` as a :class:`SessionLog` built by
        :meth:`SessionLog.from_columns`, holding the matrices a serial
        replay of the lane holds."""
        if not 0 <= k < self.n_lanes:
            raise IndexError(f"lane {k} out of range for {self.n_lanes} lanes")

        def lane_column(name: str) -> np.ndarray:
            if name == "index":
                return np.arange(self.n_chunks)
            column = getattr(self, _BATCH_NAMES.get(name, name))
            # The RTT-estimator columns are lane-independent vectors.
            return column if column.ndim == 1 else column[:, k]

        # chunk_duration_s and rtt_s are shared by every lane.
        scalars = (getattr(self, name) for name in SCALAR_FIELDS)
        return SessionLog.from_columns(
            self.abr_names[k],
            [float(value[k]) if np.ndim(value) else value for value in scalars],
            np.stack([lane_column(name) for name in FLOAT_COLUMNS]),
            np.stack([lane_column(name) for name in INT_COLUMNS]),
        )


# Log columns whose batch attribute is named differently.
_BATCH_NAMES = {
    "quality": "qualities",
    "start_time_s": "start_times_s",
    "end_time_s": "end_times_s",
}
