"""TCP connection state and the logged ``tcp_info``-style snapshot.

The paper's key control variable is "the TCP state observed at the start of
the download of video chunks" — cwnd, ssthresh, RTT, min RTT, time since the
last data send, and RTO (§3.1), i.e. the fields of Linux's ``tcp_info``
struct.  :class:`TCPStateSnapshot` is the frozen, loggable version of that
state; :class:`MutableTCPState` is the live connection state the simulator
evolves.

Slow-start restart (RFC 2861 / paper Algorithm 4) lives here too because the
estimator ``f`` and the connection simulator must apply the *same* decay.
:class:`TCPStateColumns` is a session's snapshots as arrays, the form the
emission build reads, with :func:`apply_slow_start_restart_batch` as its
element-wise restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import (
    INIT_CWND_SEGMENTS,
    INITIAL_SSTHRESH_SEGMENTS,
    RTO_MIN_SECONDS,
    RTO_RTTVAR_FACTOR,
)


@dataclass(frozen=True, slots=True)
class TCPStateSnapshot:
    """Immutable ``tcp_info`` snapshot logged at the start of a chunk download.

    Attributes
    ----------
    cwnd_segments:
        Congestion window in MSS-sized segments.
    ssthresh_segments:
        Slow start threshold in segments.
    srtt_s / min_rtt_s:
        Smoothed and minimum round-trip times (seconds).
    rto_s:
        Retransmission timeout (seconds).
    time_since_last_send_s:
        Idle gap since the last data segment was sent; this is what decides
        whether slow-start restart fires for the next download.
    """

    cwnd_segments: int
    ssthresh_segments: int
    srtt_s: float
    min_rtt_s: float
    rto_s: float
    time_since_last_send_s: float

    def __post_init__(self) -> None:
        if self.cwnd_segments < 1:
            raise ValueError(f"cwnd must be >= 1 segment, got {self.cwnd_segments}")
        if self.ssthresh_segments < 1:
            raise ValueError(
                f"ssthresh must be >= 1 segment, got {self.ssthresh_segments}"
            )
        if self.min_rtt_s <= 0 or self.srtt_s <= 0:
            raise ValueError("RTTs must be positive")
        if self.rto_s <= 0:
            raise ValueError(f"rto must be positive, got {self.rto_s}")
        if self.time_since_last_send_s < 0:
            raise ValueError("idle gap cannot be negative")

    def to_dict(self) -> dict:
        return {
            "cwnd_segments": self.cwnd_segments,
            "ssthresh_segments": self.ssthresh_segments,
            "srtt_s": self.srtt_s,
            "min_rtt_s": self.min_rtt_s,
            "rto_s": self.rto_s,
            "time_since_last_send_s": self.time_since_last_send_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TCPStateSnapshot":
        return cls(**data)


_COLUMN_DTYPES = (
    ("cwnd_segments", np.int64),
    ("ssthresh_segments", np.int64),
    ("srtt_s", np.float64),
    ("min_rtt_s", np.float64),
    ("rto_s", np.float64),
    ("time_since_last_send_s", np.float64),
)


@dataclass(frozen=True, eq=False)
class TCPStateColumns:
    """A session's :class:`TCPStateSnapshot` fields as 1-D arrays.

    Entry ``n`` of every column is chunk ``n``'s snapshot; the segment
    counts are int64 and the times float64.  The whole-session estimator
    and emission functions take this form, and :meth:`of` turns a
    snapshot sequence into it.  Construction checks shapes, not values:
    the values come from snapshots or from a session log, whose
    construction ran the snapshot checks (:func:`check_state_columns`).
    """

    cwnd_segments: np.ndarray
    ssthresh_segments: np.ndarray
    srtt_s: np.ndarray
    min_rtt_s: np.ndarray
    rto_s: np.ndarray
    time_since_last_send_s: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.cwnd_segments)
        for name, dtype in _COLUMN_DTYPES:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.ndim != 1 or column.shape != shape:
                raise ValueError("TCP state columns must be 1-D and of equal length")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.cwnd_segments.shape[0])

    @classmethod
    def of(cls, states: Sequence[TCPStateSnapshot]) -> "TCPStateColumns":
        """A snapshot sequence as columns."""
        states = list(states)
        return cls(
            [s.cwnd_segments for s in states],
            [s.ssthresh_segments for s in states],
            [s.srtt_s for s in states],
            [s.min_rtt_s for s in states],
            [s.rto_s for s in states],
            [s.time_since_last_send_s for s in states],
        )

    @classmethod
    def concatenate(cls, parts: "Sequence[TCPStateColumns]") -> "TCPStateColumns":
        """The chunks of every part, in order (a lone part, itself)."""
        if len(parts) == 1:
            return parts[0]
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name, _ in _COLUMN_DTYPES
            )
        )


def check_state_columns(
    cwnd_segments: np.ndarray,
    ssthresh_segments: np.ndarray,
    srtt_s: np.ndarray,
    min_rtt_s: np.ndarray,
    rto_s: np.ndarray,
    time_since_last_send_s: np.ndarray,
) -> None:
    """The :class:`TCPStateSnapshot` checks on whole columns.

    Raises ``ValueError`` where some entry would fail a snapshot's
    construction.
    """
    if (cwnd_segments < 1).any():
        raise ValueError("cwnd must be >= 1 segment")
    if (ssthresh_segments < 1).any():
        raise ValueError("ssthresh must be >= 1 segment")
    if (min_rtt_s <= 0).any() or (srtt_s <= 0).any():
        raise ValueError("RTTs must be positive")
    if (rto_s <= 0).any():
        raise ValueError("rto must be positive")
    if (time_since_last_send_s < 0).any():
        raise ValueError("idle gap cannot be negative")


def apply_slow_start_restart(
    cwnd_segments: int,
    ssthresh_segments: int,
    idle_gap_s: float,
    rto_s: float,
    restart_cwnd: int = INIT_CWND_SEGMENTS,
) -> tuple[int, int, bool]:
    """Apply the RFC 2861 idle-restart decay used by paper Algorithm 4.

    For every RTO of idle time the congestion window halves, floored at the
    restart window; ssthresh is raised to at least 3/4 of the decayed window
    (``(cwnd >> 1) + (cwnd >> 2)`` in the paper's pseudo-code).

    Returns ``(new_cwnd, new_ssthresh, triggered)``.
    """
    if idle_gap_s <= rto_s or cwnd_segments <= restart_cwnd:
        return cwnd_segments, ssthresh_segments, False

    remaining_gap = idle_gap_s
    cwnd = cwnd_segments
    while remaining_gap > rto_s and cwnd > restart_cwnd:
        remaining_gap -= rto_s
        cwnd >>= 1
    cwnd = max(cwnd, restart_cwnd)
    ssthresh = max(ssthresh_segments, (cwnd >> 1) + (cwnd >> 2), 2)
    return cwnd, ssthresh, True


def apply_slow_start_restart_batch(
    cwnd_segments: np.ndarray,
    ssthresh_segments: np.ndarray,
    idle_gap_s: np.ndarray,
    rto_s: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`apply_slow_start_restart` element by element, on arrays, with
    the default restart window ``INIT_CWND_SEGMENTS``.

    The scalar loop halves ``cwnd`` while the idle gap, reduced by one RTO
    per halving, still exceeds the RTO and ``cwnd`` is above the restart
    window.  Both conditions only ever turn false, so the halving count is
    the smaller of two counts: the halvings that take ``cwnd`` to the
    restart window (``bit_length(cwnd // (INIT_CWND_SEGMENTS + 1))``,
    exact in integers) and the leading terms of the scalar's own repeated
    subtraction (``np.subtract.accumulate``, the same rounded differences
    in the same order) that exceed the RTO.  Every entry therefore leaves
    with the scalar's values.  Returns new ``(cwnd, ssthresh, triggered)``
    arrays (int64, int64, bool).
    """
    cwnd = np.asarray(cwnd_segments, dtype=np.int64)
    ssthresh = np.asarray(ssthresh_segments, dtype=np.int64)
    idle = np.asarray(idle_gap_s, dtype=np.float64)
    rto = np.asarray(rto_s, dtype=np.float64)
    triggered = ~((idle <= rto) | (cwnd <= INIT_CWND_SEGMENTS))
    if not triggered.any():
        return cwnd.copy(), ssthresh.copy(), triggered
    # Halvings until cwnd >> k <= INIT_CWND_SEGMENTS: the bit length of
    # cwnd // (INIT_CWND_SEGMENTS + 1), 0 for an untriggered small window.
    to_floor = np.searchsorted(
        _POWERS_OF_TWO, cwnd // (INIT_CWND_SEGMENTS + 1), "right"
    )
    # gaps[:, j] is the idle gap after j subtractions of the RTO; its
    # terms above the RTO are a prefix (none for an untriggered short gap).
    gaps = np.empty((idle.size, int(to_floor.max())))
    gaps[:, 0] = idle
    gaps[:, 1:] = rto[:, None]
    np.subtract.accumulate(gaps, axis=1, out=gaps)
    halvings = np.minimum((gaps > rto[:, None]).sum(axis=1), to_floor)
    decayed = np.maximum(cwnd >> halvings, INIT_CWND_SEGMENTS)
    floor = np.maximum((decayed >> 1) + (decayed >> 2), 2)
    return (
        np.where(triggered, decayed, cwnd),
        np.where(triggered, np.maximum(ssthresh, floor), ssthresh),
        triggered,
    )


_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))
"""``2**k`` for ``k < 63``: ``searchsorted(..., q, "right")`` is
``q.bit_length()`` for every non-negative int64 ``q``."""


@dataclass(slots=True)
class MutableTCPState:
    """Live TCP sender state evolved by :class:`~repro.tcp.connection.TCPConnection`."""

    cwnd_segments: int = INIT_CWND_SEGMENTS
    ssthresh_segments: int = INITIAL_SSTHRESH_SEGMENTS
    srtt_s: float = 0.0
    rttvar_s: float = 0.0
    min_rtt_s: float = float("inf")
    last_send_time_s: float = 0.0

    def observe_rtt(self, rtt_s: float) -> None:
        """RFC 6298 smoothed RTT / RTT variance update."""
        if rtt_s <= 0:
            raise ValueError(f"rtt must be positive, got {rtt_s}")
        self.min_rtt_s = min(self.min_rtt_s, rtt_s)
        if self.srtt_s == 0.0:
            self.srtt_s = rtt_s
            self.rttvar_s = rtt_s / 2
        else:
            self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * abs(self.srtt_s - rtt_s)
            self.srtt_s = 0.875 * self.srtt_s + 0.125 * rtt_s

    @property
    def rto_s(self) -> float:
        if self.srtt_s == 0.0:
            # RFC 6298: 1 s before the first RTT measurement.
            return 1.0
        return max(
            RTO_MIN_SECONDS, self.srtt_s + RTO_RTTVAR_FACTOR * self.rttvar_s
        )

    def logged_rtts(self) -> tuple[float, float, float]:
        """``(srtt, min_rtt, rto)`` as a ``tcp_info`` record logs them now.

        srtt reads 1.0 before the first RTT sample, and min_rtt reads that
        srtt while it is still infinite.  :meth:`snapshot` and both
        lockstep replay paths log the RTT fields through here.
        """
        srtt = self.srtt_s if self.srtt_s > 0 else 1.0
        min_rtt = self.min_rtt_s if self.min_rtt_s != float("inf") else srtt
        return srtt, min_rtt, self.rto_s

    def snapshot(self, now_s: float) -> TCPStateSnapshot:
        """Freeze the state as the ``tcp_info`` record for a download at ``now_s``."""
        srtt, min_rtt, rto = self.logged_rtts()
        return TCPStateSnapshot(
            cwnd_segments=self.cwnd_segments,
            ssthresh_segments=self.ssthresh_segments,
            srtt_s=srtt,
            min_rtt_s=min_rtt,
            rto_s=rto,
            time_since_last_send_s=max(0.0, now_s - self.last_send_time_s),
        )
