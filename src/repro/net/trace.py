"""Piecewise-constant bandwidth traces.

The Ground-Truth Bandwidth (GTBW) process in the paper is "a discrete
process over discrete time intervals ... with the GTBW during any time
interval being a constant" (§3.1).  :class:`PiecewiseConstantTrace` is that
object: a step function from time (seconds) to bandwidth (Mbps).

The class supports the handful of operations the rest of the library needs:

* point lookup (``value_at``) and interval averaging (``average``),
* integration — how many bytes a saturating flow moves in ``[t0, t1]``,
* the inverse integral (``time_to_transfer``) — when does a transfer of
  ``size`` bytes starting at ``t0`` complete,
* quantization onto an ε grid (used to compare reconstructions), and
* resampling onto a uniform δ grid.

Queries past the end of the trace hold the final value, matching how the
replay engine extends reconstructed traces when a counterfactual session
runs longer than the original one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from ..util.units import mbps_to_bytes_per_sec

__all__ = ["PiecewiseConstantTrace", "TraceBatch", "boundary_key"]

_EPS_TIME = 1e-12
_EPS_BYTES = 1e-9


def boundary_key(trace: "PiecewiseConstantTrace") -> tuple:
    """Hashable fingerprint of a trace's boundary grid.

    Traces with equal keys share an identical boundary array and can stack
    into one :class:`TraceBatch`; the replay and preparation engines group
    lanes by this key before fusing them into lockstep sessions.
    """
    bounds = trace.boundaries
    return (bounds.size, bounds.tobytes())


class PiecewiseConstantTrace:
    """A step function ``t -> bandwidth`` defined by interval boundaries.

    Parameters
    ----------
    boundaries:
        Strictly increasing times ``t_0 < t_1 < ... < t_k`` (seconds).  The
        trace takes ``values[i]`` on ``[t_i, t_{i+1})``.
    values:
        Bandwidth (Mbps) on each of the ``k`` intervals; all must be >= 0.
    """

    __slots__ = ("_bounds", "_values", "_rates", "_cum_bytes", "_mirrors")

    def __init__(self, boundaries: Sequence[float], values: Sequence[float]):
        # Always copy: the arrays are frozen below and aliasing a caller's
        # array would freeze it too.
        bounds = np.array(boundaries, dtype=float)
        vals = np.array(values, dtype=float)
        if bounds.ndim != 1 or vals.ndim != 1:
            raise ValueError("boundaries and values must be one-dimensional")
        if bounds.size != vals.size + 1:
            raise ValueError(
                f"need len(boundaries) == len(values) + 1, got "
                f"{bounds.size} and {vals.size}"
            )
        if vals.size == 0:
            raise ValueError("a trace needs at least one interval")
        if not np.all(np.diff(bounds) > 0):
            raise ValueError("boundaries must be strictly increasing")
        if np.any(vals < 0):
            raise ValueError("bandwidth values must be non-negative")
        self._bounds = bounds
        self._values = vals
        bounds.setflags(write=False)
        vals.setflags(write=False)
        # Cumulative bytes moved from start_time up to each boundary:
        # integrate_bytes() reads two entries instead of summing intervals,
        # and time_to_transfer() compares whole intervals against it.
        rates = mbps_to_bytes_per_sec(vals)
        self._rates = rates
        self._cum_bytes = np.concatenate(
            [[0.0], np.cumsum(rates * np.diff(bounds))]
        )
        self._cum_bytes.setflags(write=False)
        self._mirrors: tuple | None = None

    def _scalar_mirrors(self) -> tuple:
        """Plain-Python ``(bounds, values, rates, cum_bytes)`` list mirrors.

        The replay engine issues millions of point queries per corpus and
        bisect on a list is ~10x cheaper than a 0-d numpy searchsorted.
        Built lazily on the first scalar query so short-lived traces (e.g.
        ``resampled()`` intermediates) never pay the conversion.
        """
        mirrors = self._mirrors
        if mirrors is None:
            mirrors = self._mirrors = (
                self._bounds.tolist(),
                self._values.tolist(),
                self._rates.tolist(),
                self._cum_bytes.tolist(),
            )
        return mirrors

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_uniform(
        cls, values: Iterable[float], interval: float, start_time: float = 0.0
    ) -> "PiecewiseConstantTrace":
        """Build a trace whose intervals all last ``interval`` seconds."""
        vals = np.asarray(list(values), dtype=float)
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        bounds = start_time + interval * np.arange(vals.size + 1)
        return cls(bounds, vals)

    @classmethod
    def constant(
        cls, mbps: float, duration: float, start_time: float = 0.0
    ) -> "PiecewiseConstantTrace":
        """A single-interval constant-bandwidth trace."""
        return cls([start_time, start_time + duration], [mbps])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        return float(self._bounds[0])

    @property
    def end_time(self) -> float:
        return float(self._bounds[-1])

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def boundaries(self) -> np.ndarray:
        """Interval boundaries as a read-only view (no copy)."""
        return self._bounds

    @property
    def values(self) -> np.ndarray:
        """Per-interval bandwidths (Mbps) as a read-only view (no copy)."""
        return self._values

    def __len__(self) -> int:
        return int(self._values.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PiecewiseConstantTrace(intervals={len(self)}, "
            f"span=[{self.start_time:.3g}, {self.end_time:.3g}]s, "
            f"mean={self.mean():.3g} Mbps)"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _interval_index(self, t: float) -> int:
        """Index of the interval containing time ``t`` (clamped at the ends)."""
        bounds, values, _, _ = self._scalar_mirrors()
        idx = bisect_right(bounds, t) - 1
        if idx < 0:
            return 0
        last = len(values) - 1
        return idx if idx < last else last

    def value_at(self, t: float) -> float:
        """Bandwidth at time ``t`` (Mbps); clamps before/after the trace."""
        bounds, values, _, _ = self._scalar_mirrors()
        idx = bisect_right(bounds, t) - 1
        if idx < 0:
            idx = 0
        else:
            last = len(values) - 1
            if idx > last:
                idx = last
        return values[idx]

    def values_at(self, times: Iterable[float]) -> np.ndarray:
        """Vectorised :meth:`value_at`."""
        ts = np.asarray(list(times), dtype=float)
        idx = np.clip(
            np.searchsorted(self._bounds, ts, side="right") - 1, 0, len(self) - 1
        )
        return self._values[idx]

    def mean(self) -> float:
        """Time-weighted mean bandwidth over the trace span."""
        widths = np.diff(self._bounds)
        return float(np.sum(self._values * widths) / np.sum(widths))

    def _cum_bytes_at(self, t: float) -> float:
        """Cumulative bytes moved by a saturating flow from ``start_time`` to ``t``.

        The first/last value is held before/after the trace span, so the
        integral extends to the whole real line (negative before the start).
        """
        bounds, _, rates, cum = self._scalar_mirrors()
        if t <= bounds[0]:
            # Hold first value before the trace begins.
            return rates[0] * (t - bounds[0])
        if t >= bounds[-1]:
            return cum[-1] + rates[-1] * (t - bounds[-1])
        i = self._interval_index(t)
        return cum[i] + rates[i] * (t - bounds[i])

    def _cum_bytes_at_batch(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_cum_bytes_at` (elementwise-identical floats)."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty_like(ts)
        before = ts <= self.start_time
        after = ts >= self.end_time
        mid = ~(before | after)
        out[before] = self._rates[0] * (ts[before] - self.start_time)
        out[after] = self._cum_bytes[-1] + self._rates[-1] * (
            ts[after] - self.end_time
        )
        idx = np.clip(
            np.searchsorted(self._bounds, ts[mid], side="right") - 1,
            0,
            len(self) - 1,
        )
        out[mid] = self._cum_bytes[idx] + self._rates[idx] * (
            ts[mid] - self._bounds[idx]
        )
        return out

    def integrate_bytes(self, t0: float, t1: float) -> float:
        """Bytes a saturating flow moves on ``[t0, t1]`` (t1 may exceed the end)."""
        if t1 < t0:
            raise ValueError(f"need t0 <= t1, got {t0} > {t1}")
        return self._cum_bytes_at(t1) - self._cum_bytes_at(t0)

    def average(self, t0: float, t1: float) -> float:
        """Time-weighted mean bandwidth (Mbps) over ``[t0, t1]``."""
        if t1 <= t0:
            return self.value_at(t0)
        bytes_moved = self.integrate_bytes(t0, t1)
        return bytes_moved * 8 / 1e6 / (t1 - t0)

    def time_to_transfer(self, start: float, size_bytes: float) -> float:
        """Seconds for a saturating flow starting at ``start`` to move ``size_bytes``.

        The trace is held constant at its first value before
        ``start_time`` and its final value beyond ``end_time``.  Raises
        :class:`RuntimeError` when the transfer can never finish (zero
        bandwidth from some point on).

        The hot case finishes inside the interval containing ``start``;
        otherwise the walk visits the following intervals one at a time
        against the precomputed cumulative-bytes integral.  This is the
        golden reference that :class:`TraceBatch`'s drains and the
        compiled session kernel transcribe (pinned by
        ``tests/test_batch_replay.py``).
        """
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        if size_bytes == 0:
            return 0.0

        bounds, _, rates, cum = self._scalar_mirrors()
        remaining = float(size_bytes)
        t = float(start)
        if t >= bounds[-1]:
            # At/past the end of the trace the final value holds forever.
            rate = rates[-1]
            if rate <= 0:
                raise RuntimeError(
                    "transfer cannot complete: trailing bandwidth is zero"
                )
            return t + remaining / rate - start

        if t < bounds[0]:
            # Before the trace begins the first value holds.
            rate = rates[0]
            capacity = rate * (bounds[0] - t)
            if rate > 0 and capacity >= remaining - _EPS_BYTES:
                return remaining / rate
            cum_start, first_i = rate * (t - bounds[0]), 0
        else:
            i = self._interval_index(t)
            rate = rates[i]
            capacity = rate * (bounds[i + 1] - t)
            if rate > 0 and capacity >= remaining - _EPS_BYTES:
                return t + remaining / rate - start
            cum_start, first_i = cum[i] + rate * (t - bounds[i]), i + 1

        thresh = cum_start + remaining - _EPS_BYTES
        for i in range(first_i, len(rates)):
            if rates[i] > 0 and cum[i + 1] >= thresh:
                rest = remaining - (cum[i] - cum_start)
                return bounds[i] + rest / rates[i] - start

        # Past the end of the trace: the final value holds forever.
        rate = rates[-1]
        if rate <= 0:
            raise RuntimeError("transfer cannot complete: trailing bandwidth is zero")
        rest = remaining - (cum[-1] - cum_start)
        return bounds[-1] + rest / rate - start

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def quantized(self, epsilon: float) -> "PiecewiseConstantTrace":
        """Round every value to the nearest multiple of ``epsilon`` Mbps."""
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        vals = np.round(self._values / epsilon) * epsilon
        return PiecewiseConstantTrace(self._bounds, vals)

    def resampled(self, interval: float, duration: float | None = None) -> "PiecewiseConstantTrace":
        """Resample onto a uniform ``interval`` grid using interval averages."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        span = duration if duration is not None else self.duration
        count = max(1, int(np.ceil(span / interval - _EPS_TIME)))
        starts = self.start_time + interval * np.arange(count)
        # Interval averages via cumulative-integral differences: one
        # vectorised pass instead of per-cell integrate_bytes calls.
        ends = starts + interval
        bytes_moved = self._cum_bytes_at_batch(ends) - self._cum_bytes_at_batch(
            starts
        )
        vals = bytes_moved * 8 / 1e6 / (ends - starts)
        return PiecewiseConstantTrace.from_uniform(vals, interval, self.start_time)

    def extended(self, until: float) -> "PiecewiseConstantTrace":
        """Return a trace that explicitly lasts until at least ``until``."""
        if until <= self.end_time:
            return self
        bounds = np.concatenate([self._bounds, [until]])
        vals = np.concatenate([self._values, [self._values[-1]]])
        return PiecewiseConstantTrace(bounds, vals)

    def shifted(self, offset: float) -> "PiecewiseConstantTrace":
        """Return the same trace translated in time by ``offset`` seconds."""
        return PiecewiseConstantTrace(self._bounds + offset, self._values)

    def clipped(self, lo: float, hi: float) -> "PiecewiseConstantTrace":
        """Clamp all values into ``[lo, hi]`` Mbps."""
        if lo > hi:
            raise ValueError(f"need lo <= hi, got {lo} > {hi}")
        return PiecewiseConstantTrace(self._bounds, np.clip(self._values, lo, hi))

    # ------------------------------------------------------------------
    # Comparison helpers (used by tests and the fig7 benchmark)
    # ------------------------------------------------------------------
    def mean_absolute_error(
        self, other: "PiecewiseConstantTrace", interval: float = 1.0
    ) -> float:
        """Mean absolute difference between two traces on a common grid."""
        t0 = min(self.start_time, other.start_time)
        t1 = max(self.end_time, other.end_time)
        grid = np.arange(t0, t1, interval) + interval / 2
        return float(np.mean(np.abs(self.values_at(grid) - other.values_at(grid))))


class TraceBatch:
    """``K`` traces sharing one boundary grid, stacked for lockstep replay.

    The batched replay engine advances ``K`` counterfactual sessions in
    lockstep — one chunk loop over all lanes.  Its trace queries become
    array-valued: one ``searchsorted`` gives every lane's interval
    (:meth:`interval_indices`), and the cold fluid drains
    (:meth:`transfer_drain`) resolve their completion intervals over the
    stacked ``(K, intervals + 1)`` cumulative-bytes integrals.

    Every lane's result is **bit-identical** to the corresponding scalar
    :meth:`PiecewiseConstantTrace.time_to_transfer` call: the float
    expressions are evaluated element-wise in the same order and the
    interval search lands on the same completion interval (pinned by
    ``tests/test_batch_replay.py``).  All lanes must share an identical
    boundary array — posterior samples of one abduction (and uniform-grid
    reconstructions generally) satisfy this by construction; use
    :meth:`from_traces` to probe compatibility without raising.
    """

    __slots__ = (
        "_traces",
        "_bounds",
        "_values2d",
        "_rates2d",
        "_cum2d",
        "_next_pos",
        "_lane_idx",
        "_values_flat",
        "_rates_flat",
        "_cum_flat",
        "_row_off",
    )

    def __init__(self, traces: Sequence[PiecewiseConstantTrace]):
        lanes = list(traces)
        if not lanes:
            raise ValueError("a trace batch needs at least one lane")
        bounds = lanes[0].boundaries
        for t in lanes[1:]:
            if not np.array_equal(t.boundaries, bounds):
                raise ValueError(
                    "all lanes of a TraceBatch must share identical boundaries"
                )
        self._traces = lanes
        self._bounds = bounds
        # Stack the per-trace precomputed arrays: the floats are exactly the
        # ones the scalar paths use, so stacked arithmetic stays on the same
        # values.
        self._values2d = np.stack([t._values for t in lanes])
        self._rates2d = np.stack([t._rates for t in lanes])
        self._cum2d = np.stack([t._cum_bytes for t in lanes])
        self._next_pos: np.ndarray | None = None
        self._lane_idx = np.arange(len(lanes))
        # Flat views + per-lane row offsets: `np.take(flat, idx + row_off,
        # out=...)` is the allocation-free form of `arr2d[lane, idx]` the
        # scratch replay kernel uses (reshape on the freshly-stacked
        # C-contiguous arrays is a view, not a copy).
        self._values_flat = self._values2d.reshape(-1)
        self._rates_flat = self._rates2d.reshape(-1)
        self._cum_flat = self._cum2d.reshape(-1)
        self._row_off = self._lane_idx * self.n_intervals

    # ------------------------------------------------------------------
    @classmethod
    def from_traces(
        cls, traces: Sequence[PiecewiseConstantTrace]
    ) -> "TraceBatch | None":
        """Build a batch, or return ``None`` when boundaries differ.

        The replay engine uses this to decide between the lockstep batch
        path and per-lane serial replay.
        """
        lanes = list(traces)
        if not lanes:
            return None
        bounds = lanes[0].boundaries
        for t in lanes[1:]:
            if not np.array_equal(t.boundaries, bounds):
                return None
        return cls(lanes)

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return len(self._traces)

    @property
    def n_intervals(self) -> int:
        return int(self._values2d.shape[1])

    @property
    def boundaries(self) -> np.ndarray:
        """The shared boundary grid (read-only view)."""
        return self._bounds

    def lane(self, k: int) -> PiecewiseConstantTrace:
        """The underlying trace of lane ``k``."""
        return self._traces[k]

    def __len__(self) -> int:
        return self.n_lanes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceBatch(lanes={self.n_lanes}, intervals={self.n_intervals}, "
            f"span=[{self._bounds[0]:.3g}, {self._bounds[-1]:.3g}]s)"
        )

    # ------------------------------------------------------------------
    def interval_indices(self, times: np.ndarray) -> np.ndarray:
        """Per-lane interval index at per-lane time (clamped at the ends)."""
        idx = np.searchsorted(self._bounds, times, side="right") - 1
        np.minimum(idx, self.n_intervals - 1, out=idx)
        np.maximum(idx, 0, out=idx)
        return idx

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """Per-lane bandwidth (Mbps) at per-lane time ``times[k]``."""
        return self._values2d[self._lane_idx, self.interval_indices(times)]

    def _next_positive(self) -> np.ndarray:
        """``next_pos[k, i]``: first interval ``j >= i`` of lane ``k`` with a
        positive rate, or ``n_intervals`` when bandwidth never resumes."""
        nxt = self._next_pos
        if nxt is None:
            k = self.n_intervals
            idxs = np.where(self._rates2d > 0, np.arange(k)[None, :], k)
            nxt = np.ascontiguousarray(
                np.minimum.accumulate(idxs[:, ::-1], axis=1)[:, ::-1]
            )
            self._next_pos = nxt
        return nxt

    # Forward-walk budget for :meth:`transfer_drain`: most drains finish
    # within a couple of intervals of their start, so a short monotone
    # walk resolves them in 1-2 cheap iterations; the rare long spill
    # (a starved lane crossing many intervals) falls back to the scalar
    # interval walk.
    _DRAIN_WALK_MAX = 4

    def transfer_drain(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        lanes: np.ndarray,
        i0: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`PiecewiseConstantTrace.time_to_transfer` for the
        cold fluid drains of the lane subset ``lanes``.

        ``i0`` is the interval containing each start (the clamped final
        interval at/past the trace end).  Every lane must be cold: the
        scalar query's hot case (a positive rate whose start interval holds
        the whole transfer, or a start at/past the trace end) is not
        reproduced here, and the scratch round skip, the one caller,
        resolves those lanes inline with the scalar's expressions.  Cold
        lanes walk the cumulative-bytes integral forward up to
        ``_DRAIN_WALK_MAX`` intervals — the common spill is 1-2 — and
        anything longer, a before-trace start or a non-positive size drops
        to the per-lane scalar query, the bit-identity reference for every
        one of these paths.
        """
        bounds = self._bounds
        k = self.n_intervals
        out = np.empty(starts.shape)
        rate0 = self._rates_flat.take(lanes * k + i0)
        off = lanes * (k + 1)
        cum_start = self._cum_flat.take(off + i0) + rate0 * (
            starts - bounds.take(i0)
        )
        thresh = cum_start + sizes - _EPS_BYTES

        # Shapes routed straight to the scalar query.
        pre = (starts < bounds[0]) | (sizes <= 0.0)
        skip = pre if np.count_nonzero(pre) else None
        # Leftmost index in [i0 + 1, k + 1) with cum[idx] >= thresh, by
        # short forward walk (the drain's cursor only moves a little).
        m = i0 + 1
        need = None
        for _ in range(self._DRAIN_WALK_MAX):
            need = (m <= k) & (
                self._cum_flat.take(off + np.minimum(m, k)) < thresh
            )
            if skip is not None:
                need &= ~skip
            if not np.count_nonzero(need):
                break
            np.add(m, need, out=m)
        unresolved = (need | skip) if skip is not None else need
        solved = ~unresolved
        for j in np.flatnonzero(unresolved):
            out[j] = self._traces[int(lanes[j])].time_to_transfer(
                float(starts[j]), float(sizes[j])
            )

        # Completion interval: first positive-rate interval at or after
        # idx - 1 (zero-rate intervals are plateaus of cum).
        within = m <= k
        ii = np.where(within, m - 1, 0)
        nxt = self._next_positive().reshape(-1).take(lanes * k + ii)
        inside = solved & within & (nxt < k)
        if np.count_nonzero(inside):
            li = lanes[inside]
            ni = nxt[inside]
            rest = sizes[inside] - (
                self._cum_flat.take(off[inside] + ni) - cum_start[inside]
            )
            out[inside] = (
                bounds.take(ni)
                + rest / self._rates_flat.take(li * k + ni)
                - starts[inside]
            )
        tail = solved & ~inside
        if np.count_nonzero(tail):
            lt = lanes[tail]
            rate_last = self._rates_flat.take(lt * k + (k - 1))
            if np.any(rate_last <= 0):
                raise RuntimeError(
                    "transfer cannot complete: trailing bandwidth is zero"
                )
            rest = sizes[tail] - (
                self._cum_flat.take(off[tail] + k) - cum_start[tail]
            )
            out[tail] = bounds[-1] + rest / rate_last - starts[tail]
        return out

