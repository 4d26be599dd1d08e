"""Per-lane TCP download cores linked into :mod:`repro.player._fused`.

The whole-session replay kernel (:func:`repro.player._fused.run_session`)
downloads each chunk of each lane through the scalar core defined here:
slow-start-restart decay, the per-RTT window-limited round loop and the
fluid drain.  The core exists twice, in lockstep:

* plain Python (:func:`_download_one` and its helpers), which mirrors the
  scalar reference kernels in :mod:`repro.tcp.connection` /
  :mod:`repro.net.trace` float for float and is what the session
  kernel's mirror runs;
* a line-for-line C transcription (:data:`C_DEFINES` + :data:`C_HELPERS`)
  that ``_fused`` concatenates into the one shared library it builds.

The C uses only IEEE-754 basic operations, no libm, and is built with
``-fno-fast-math -ffp-contract=off``, so every float64 operation is the
same correctly-rounded op the mirror performs, in the same order: the
two are bit-identical, and so are the session logs they produce.

This module builds nothing itself.  :func:`backend` reports the backend
of the library its cores are compiled into, ``player._fused``.
"""

# repro: kernel-module

from __future__ import annotations

from .constants import (
    INIT_CWND_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
    SLOW_START_GROWTH,
)

__all__ = ["C_DEFINES", "C_HELPERS", "backend"]

_EPS_BYTES = 1e-9  # matches repro.net.trace._EPS_BYTES


def _interval_index(bounds, n_intervals, t):
    """Clamped ``bisect_right(bounds, t) - 1`` (mirrors ``value_at``)."""
    lo = 0
    hi = n_intervals + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if t < bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    idx = lo - 1
    if idx < 0:
        return 0
    if idx > n_intervals - 1:
        return n_intervals - 1
    return idx


def _transfer_time(bounds, rates2d, cum2d, n_intervals, lane, start, size):
    """Scalar ``time_to_transfer`` for one lane (reference interval walk).

    Returns the transfer duration in seconds, or ``-1.0`` when the
    transfer can never complete (zero trailing bandwidth) — the caller
    raises the RuntimeError, since the C transcription cannot format it.
    """
    if size <= 0.0:
        return 0.0
    remaining = size
    t = start

    if t >= bounds[n_intervals]:
        rate = rates2d[lane, n_intervals - 1]
        if rate <= 0.0:
            return -1.0
        return t + remaining / rate - start

    if t < bounds[0]:
        rate = rates2d[lane, 0]
        capacity = rate * (bounds[0] - t)
        if rate > 0.0 and capacity >= remaining - _EPS_BYTES:
            return remaining / rate
        cum_start = rate * (t - bounds[0])
        first_i = 0
    else:
        i = _interval_index(bounds, n_intervals, t)
        rate = rates2d[lane, i]
        capacity = rate * (bounds[i + 1] - t)
        if rate > 0.0 and capacity >= remaining - _EPS_BYTES:
            return t + remaining / rate - start
        cum_start = cum2d[lane, i] + rate * (t - bounds[i])
        first_i = i + 1

    thresh = cum_start + remaining - _EPS_BYTES
    for i in range(first_i, n_intervals):
        if rates2d[lane, i] > 0.0 and cum2d[lane, i + 1] >= thresh:
            rest = remaining - (cum2d[lane, i] - cum_start)
            return bounds[i] + rest / rates2d[lane, i] - start

    rate = rates2d[lane, n_intervals - 1]
    if rate <= 0.0:
        return -1.0
    rest = remaining - (cum2d[lane, n_intervals] - cum_start)
    return bounds[n_intervals] + rest / rate - start


def _grow_window(cwnd, ssthresh):
    """Scalar window growth (mirrors ``connection._grow_window``)."""
    if cwnd < ssthresh:
        grown = int(cwnd * SLOW_START_GROWTH)
        if grown < cwnd + 1:
            grown = cwnd + 1
    else:
        grown = cwnd + 1
    if grown > MAX_CWND_SEGMENTS:
        grown = MAX_CWND_SEGMENTS
    return grown


def _download_one(
    bounds, values2d, rates2d, cum2d, n_intervals, j, start, size, idle,
    rtt, rto, c, st,
):
    """One lane's chunk download: restart decay plus the per-RTT loop.

    Returns ``(end, cwnd, ssthresh)`` — ``end < 0.0`` signals a transfer
    that can never complete (zero trailing bandwidth).
    """
    # RFC 2861 slow-start restart (mirrors apply_slow_start_restart).
    if idle > rto and c > INIT_CWND_SEGMENTS:
        remaining_gap = idle
        while remaining_gap > rto and c > INIT_CWND_SEGMENTS:
            remaining_gap -= rto
            c >>= 1
        if c < INIT_CWND_SEGMENTS:
            c = INIT_CWND_SEGMENTS
        s34 = (c >> 1) + (c >> 2)
        if s34 > st:
            st = s34
        if st < 2:
            st = 2

    # Per-RTT reference loop (mirrors _reference_download).
    t0 = start + rtt
    rounds = 0
    sent_segments = 0
    end = 0.0
    while True:
        t = t0 + rounds * rtt
        remaining = size - sent_segments * MSS_BYTES
        bandwidth = values2d[j, _interval_index(bounds, n_intervals, t)]
        bdp_bytes = bandwidth * 1_000_000 / 8 * rtt
        cwnd_bytes = c * MSS_BYTES
        if cwnd_bytes >= bdp_bytes:
            # Pipe full: drain at the link rate (mirrors _fluid_finish).
            fluid_s = _transfer_time(
                bounds, rates2d, cum2d, n_intervals, j, t, remaining
            )
            if fluid_s < 0.0:
                return -1.0, c, st
            extra = int(fluid_s / rtt)
            if extra < 0:
                extra = 0
            c = c + extra
            if c > MAX_CWND_SEGMENTS:
                c = MAX_CWND_SEGMENTS
            end = t + fluid_s
            break
        if cwnd_bytes >= remaining:
            # Final window-limited round: one RTT moves the rest.
            end = t0 + (rounds + 1) * rtt
            c = _grow_window(c, st)
            break
        sent_segments += c
        c = _grow_window(c, st)
        rounds += 1
    return end, c, st


# ----------------------------------------------------------------------
# The C transcription of the cores above, in two fragments that
# repro.player._fused concatenates into its own source.
# ----------------------------------------------------------------------

C_DEFINES = (
    r"""
/* Per-lane download core: C transcription of the Python helpers in
 * repro/tcp/_compiled.py.  Must be compiled WITHOUT fast-math or FMA
 * contraction so every double op is the same correctly-rounded IEEE-754
 * operation NumPy performs.  All quantities stay below 2^53, so the
 * int64 <-> double conversions are exact. */
#include <stdint.h>

#define INIT_CWND %(init)dLL
#define MAX_CWND %(maxc)dLL
#define MSS %(mss)dLL
#define GROWTH %(growth)s
#define EPS_BYTES 1e-9
"""
    % {
        "init": INIT_CWND_SEGMENTS,
        "maxc": MAX_CWND_SEGMENTS,
        "mss": MSS_BYTES,
        "growth": repr(SLOW_START_GROWTH),
    }
)

C_HELPERS = r"""
static int64_t interval_index(const double *bounds, int64_t n_intervals,
                              double t) {
    int64_t lo = 0, hi = n_intervals + 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (t < bounds[mid]) hi = mid; else lo = mid + 1;
    }
    int64_t idx = lo - 1;
    if (idx < 0) return 0;
    if (idx > n_intervals - 1) return n_intervals - 1;
    return idx;
}

static double transfer_time(const double *bounds, const double *rates,
                            const double *cum, int64_t n_intervals,
                            double start, double size) {
    if (size <= 0.0) return 0.0;
    double remaining = size;
    double t = start;
    double cum_start;
    int64_t first_i;

    if (t >= bounds[n_intervals]) {
        double rate = rates[n_intervals - 1];
        if (rate <= 0.0) return -1.0;
        return t + remaining / rate - start;
    }
    if (t < bounds[0]) {
        double rate = rates[0];
        double capacity = rate * (bounds[0] - t);
        if (rate > 0.0 && capacity >= remaining - EPS_BYTES)
            return remaining / rate;
        cum_start = rate * (t - bounds[0]);
        first_i = 0;
    } else {
        int64_t i = interval_index(bounds, n_intervals, t);
        double rate = rates[i];
        double capacity = rate * (bounds[i + 1] - t);
        if (rate > 0.0 && capacity >= remaining - EPS_BYTES)
            return t + remaining / rate - start;
        cum_start = cum[i] + rate * (t - bounds[i]);
        first_i = i + 1;
    }
    double thresh = cum_start + remaining - EPS_BYTES;
    for (int64_t i = first_i; i < n_intervals; i++) {
        if (rates[i] > 0.0 && cum[i + 1] >= thresh) {
            double rest = remaining - (cum[i] - cum_start);
            return bounds[i] + rest / rates[i] - start;
        }
    }
    double rate = rates[n_intervals - 1];
    if (rate <= 0.0) return -1.0;
    double rest = remaining - (cum[n_intervals] - cum_start);
    return bounds[n_intervals] + rest / rate - start;
}

static int64_t grow_window(int64_t cwnd, int64_t ssthresh) {
    int64_t grown;
    if (cwnd < ssthresh) {
        grown = (int64_t)((double)cwnd * GROWTH);
        if (grown < cwnd + 1) grown = cwnd + 1;
    } else {
        grown = cwnd + 1;
    }
    if (grown > MAX_CWND) grown = MAX_CWND;
    return grown;
}

/* One lane's chunk download: restart decay plus the per-RTT loop.
 * Returns the end time, or -1.0 when the transfer can never complete
 * (zero trailing bandwidth).  cwnd/ssthresh are updated through the
 * io pointers. */
static double download_one(const double *bounds, const double *values,
                           const double *rates, const double *cum,
                           int64_t n_intervals, double start, double size,
                           double idle, double rtt, double rto,
                           int64_t *c_io, int64_t *st_io) {
    int64_t c = *c_io;
    int64_t st = *st_io;

    if (idle > rto && c > INIT_CWND) {
        double remaining_gap = idle;
        while (remaining_gap > rto && c > INIT_CWND) {
            remaining_gap -= rto;
            c >>= 1;
        }
        if (c < INIT_CWND) c = INIT_CWND;
        int64_t s34 = (c >> 1) + (c >> 2);
        if (s34 > st) st = s34;
        if (st < 2) st = 2;
    }

    double t0 = start + rtt;
    int64_t rounds = 0;
    int64_t sent_segments = 0;
    double end = 0.0;
    for (;;) {
        double t = t0 + (double)rounds * rtt;
        double remaining = size - (double)(sent_segments * MSS);
        double bandwidth =
            values[interval_index(bounds, n_intervals, t)];
        double bdp_bytes = bandwidth * 1000000.0 / 8.0 * rtt;
        double cwnd_bytes = (double)(c * MSS);
        if (cwnd_bytes >= bdp_bytes) {
            double fluid_s = transfer_time(
                bounds, rates, cum, n_intervals, t, remaining);
            if (fluid_s < 0.0) return -1.0;
            int64_t extra = (int64_t)(fluid_s / rtt);
            if (extra < 0) extra = 0;
            c += extra;
            if (c > MAX_CWND) c = MAX_CWND;
            end = t + fluid_s;
            break;
        }
        if (cwnd_bytes >= remaining) {
            end = t0 + (double)(rounds + 1) * rtt;
            c = grow_window(c, st);
            break;
        }
        sent_segments += c;
        c = grow_window(c, st);
        rounds += 1;
    }
    *c_io = c;
    *st_io = st;
    return end;
}
"""


def backend() -> str:
    """The backend of the library these cores are compiled into:
    :func:`repro.player._fused.backend`."""
    # repro.player imports repro.tcp, so the import waits for the call.
    from ..player import _fused

    return _fused.backend()
