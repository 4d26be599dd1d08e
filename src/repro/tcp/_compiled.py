"""Compiled chunk-download kernel (the ``kernel="compiled"`` tier).

One call to :func:`download_chunk` advances a whole lane batch through one
chunk download — slow-start-restart decay, the per-RTT window-limited
round loop and the fluid drain — as straight-line scalar code per lane,
with no NumPy ufunc dispatch at all.  The function is written as plain
Python mirroring the scalar reference kernels in
:mod:`repro.tcp.connection` / :mod:`repro.net.trace` float-for-float, and
a line-for-line C transcription of that mirror is the native backend:
when a C compiler and cffi are present it is compiled once into a small
shared library (cached under :mod:`repro.util.compiled`'s ``_ccache``
directory, or ``$REPRO_COMPILED_CACHE``) and called through cffi's ABI
mode.  The build deliberately disables FMA contraction and fast-math
(``-ffp-contract=off -fno-fast-math``) so every float64 operation is the
same correctly-rounded IEEE-754 op the Python mirror performs, in the
same order.

Feature detection:

* the cc build loads -> ``backend()`` is ``"cc"``, ``available()`` is
  True, ``BatchTCPConnection(kernel="compiled")`` runs it, and so does
  the default ``kernel=None``;
* no build -> the default picks the scratch tier and
  ``BatchTCPConnection(kernel="compiled")`` falls back to it with a
  warning.  The pure-Python mirror remains importable
  so the parity suite can pin the kernel's logic bit-for-bit against the
  reference implementation even on machines without any toolchain, and
  tests may set ``FORCE_PYTHON = True`` to drive the compiled code path
  end to end through the interpreter.

The C backend performs the same IEEE-754 float64 operations in the same
order as the Python mirror, so results are expected bit-identical; the
parity suite nevertheless documents a ``rtol=1e-12`` tolerance for the
compiled tier to absorb libm/codegen differences across platforms.
"""

from __future__ import annotations

from ..util.compiled import CcLibrary
from .constants import (
    INIT_CWND_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
    SLOW_START_GROWTH,
)

__all__ = [
    "FORCE_PYTHON",
    "available",
    "backend",
    "download_chunk",
]

FORCE_PYTHON = False
"""Test hook: route ``kernel="compiled"`` through the Python mirror."""

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
    that can never complete (zero trailing bandwidth).  Shared per-lane
    scalar core of both the batch download kernel and the fused session
    kernel, so the two stay float-for-float identical.
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


def _download_chunk_mirror(
    bounds,
    values2d,
    rates2d,
    cum2d,
    sizes,
    starts,
    rtt,
    rto,
    cwnd,
    ssthresh,
    last_send,
    ends,
    idle_out,
    cwnd_pre,
    ssthresh_pre,
):
    """Advance every lane through one chunk download in one call.

    ``cwnd`` / ``ssthresh`` / ``last_send`` are the live per-lane state
    arrays, updated in place (``ends`` may alias ``last_send``: each
    lane's prior send time is read before its end time is written).
    ``idle_out`` / ``cwnd_pre`` / ``ssthresh_pre`` receive the logged
    pre-restart snapshot columns.  Returns 0 on success, 1 when some
    lane's transfer can never complete (zero trailing bandwidth).
    """
    n_lanes = sizes.shape[0]
    n_intervals = values2d.shape[1]
    for j in range(n_lanes):
        start = starts[j]
        size = sizes[j]
        idle = start - last_send[j]
        if idle < 0.0:
            idle = 0.0
        idle_out[j] = idle
        cwnd_pre[j] = cwnd[j]
        ssthresh_pre[j] = ssthresh[j]

        end, c, st = _download_one(
            bounds, values2d, rates2d, cum2d, n_intervals, j, start, size,
            idle, rtt, rto, cwnd[j], ssthresh[j],
        )
        if end < 0.0:
            return 1

        cwnd[j] = c
        ssthresh[j] = st
        ends[j] = end
    return 0


# ----------------------------------------------------------------------
# cc + cffi backend: a line-for-line C transcription of the mirror above,
# built once at first use and loaded through cffi's ABI mode.
# ----------------------------------------------------------------------

_CDEF = """
long long download_chunk(
    long long n_lanes, long long n_intervals,
    const double *bounds, const double *values2d, const double *rates2d,
    const double *cum2d, const double *sizes, const double *starts,
    double rtt, double rto,
    long long *cwnd, long long *ssthresh, double *last_send, double *ends,
    double *idle_out, long long *cwnd_pre, long long *ssthresh_pre);
"""

# The C transcription is kept in reusable fragments: C_DEFINES + C_HELPERS
# form the shared per-lane download core that the fused session kernel
# (repro.player._fused) concatenates into its own source, so both shared
# libraries are compiled from the exact same scalar code.

C_DEFINES = (
    r"""
/* Compiled replay kernel: C transcription of the Python mirror in
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

_C_DOWNLOAD = r"""
long long download_chunk(
    long long n_lanes, long long n_intervals,
    const double *bounds, const double *values2d, const double *rates2d,
    const double *cum2d, const double *sizes, const double *starts,
    double rtt, double rto,
    long long *cwnd, long long *ssthresh, double *last_send, double *ends,
    double *idle_out, long long *cwnd_pre, long long *ssthresh_pre) {
    for (int64_t j = 0; j < n_lanes; j++) {
        const double *values = values2d + j * n_intervals;
        const double *rates = rates2d + j * n_intervals;
        const double *cum = cum2d + j * (n_intervals + 1);
        double start = starts[j];
        double size = sizes[j];
        double idle = start - last_send[j];
        if (idle < 0.0) idle = 0.0;
        idle_out[j] = idle;
        int64_t c = cwnd[j];
        int64_t st = ssthresh[j];
        cwnd_pre[j] = c;
        ssthresh_pre[j] = st;

        double end = download_one(bounds, values, rates, cum, n_intervals,
                                  start, size, idle, rtt, rto, &c, &st);
        if (end < 0.0) return 1;

        cwnd[j] = c;
        ssthresh[j] = st;
        ends[j] = end;
    }
    return 0;
}
"""

_C_SOURCE = C_DEFINES + C_HELPERS + _C_DOWNLOAD

_CC_LIB = CcLibrary("_replay", _CDEF, _C_SOURCE)
"""The C kernel, built once per source hash.  Any build failure — no
compiler, no cffi, unwritable cache dir, a compile error — is swallowed
and remembered: the tier then reports itself unavailable and
``kernel="compiled"`` falls back to scratch."""


def backend() -> str:
    """Which implementation serves :func:`download_chunk` right now."""
    return _CC_LIB.backend(FORCE_PYTHON)


def available() -> bool:
    """Whether the compiled tier can serve ``kernel="compiled"`` requests."""
    return _CC_LIB.available(FORCE_PYTHON)


def download_chunk(
    bounds,
    values2d,
    rates2d,
    cum2d,
    sizes,
    starts,
    rtt,
    rto,
    cwnd,
    ssthresh,
    last_send,
    ends,
    idle_out,
    cwnd_pre,
    ssthresh_pre,
):
    """Backend-dispatching entry point (see :func:`_download_chunk_mirror`)."""
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            ffi = _CC_LIB.ffi
            fb = ffi.from_buffer
            return lib.download_chunk(
                sizes.shape[0],
                values2d.shape[1],
                fb("double[]", bounds),
                fb("double[]", values2d),
                fb("double[]", rates2d),
                fb("double[]", cum2d),
                fb("double[]", sizes),
                fb("double[]", starts),
                rtt,
                rto,
                fb("long long[]", cwnd),
                fb("long long[]", ssthresh),
                fb("double[]", last_send),
                fb("double[]", ends),
                fb("double[]", idle_out),
                fb("long long[]", cwnd_pre),
                fb("long long[]", ssthresh_pre),
            )
    return _download_chunk_mirror(
        bounds, values2d, rates2d, cum2d, sizes, starts, rtt, rto,
        cwnd, ssthresh, last_send, ends, idle_out, cwnd_pre, ssthresh_pre,
    )
