"""Whole-session replay kernel (the native code of ``kernel="compiled"``).

One call to :func:`run_session` advances a whole lane batch through an
*entire* streaming session — per-chunk buffer/stall accounting, the ABR
decision (BBA / BOLA / RobustMPC, including the harmonic-mean predictor's
ring-buffer state), the TCP chunk download and every
:class:`~repro.player.logs.SessionLogBatch` column write — with no
per-chunk Python re-entry at all.
:class:`~repro.player.batch_session.BatchStreamingSession` runs it on the
compiled tier whenever every partition's ABR has a kernel plan; a session
it cannot plan runs the chunk loop on the scratch pass with the NumPy
deciders, exactly what ``kernel="scratch"`` runs.  This is the only
replay code that runs natively: the ``reference`` and ``scratch`` tiers
run none.

The kernel is the same scalar code the chunk loop evaluates:

* the per-lane download core is :func:`repro.tcp._compiled._download_one`
  (Python mirror) / ``download_one`` (C);
* the per-lane decision cores are ``_bba_one`` / ``_bola_one`` /
  ``_mpc_obs_pred_one`` / ``_mpc_decide_one`` from
  :mod:`repro.abr._decisions` (Python) and its ``C_HELPERS`` fragment (C);
  MPC's horizon search walks the sequences' prefix tree, so the kernel
  takes per-chunk QoE rows (:func:`repro.abr.mpc._kernel_pack`) and no
  sequence table;
* the session loop transcribes
  :meth:`repro.player.batch_session._ScratchRunner.step` float for float
  (``max(x, 0)`` clamps written as ``if x <= 0.0`` so signed zeros match
  ``np.maximum``).

The native backend is a cc + cffi build of the concatenated C fragments
when a C compiler and cffi are present; the pure-Python mirror stays
importable for parity tests via ``FORCE_PYTHON``.  :func:`available` is
False without the cc build: an explicit ``kernel="compiled"`` then
degrades to scratch with a warning, and the default picks scratch.

Lanes are fully independent inside a session (the RTT estimator state is
a precomputed shared sequence), so the kernel loops lane-outer /
chunk-inner; element-wise results are order-independent.  The C uses
only IEEE-754 basic operations, no libm, and is built with
``-fno-fast-math -ffp-contract=off``, so the native build, the mirror
and the chunk loop produce bit-identical session logs.
"""

from __future__ import annotations

from ..abr import _decisions
from ..tcp import _compiled
from ..tcp._compiled import _download_one
from ..abr._decisions import (
    _bba_one,
    _bola_one,
    _mpc_decide_one,
    _mpc_obs_pred_one,
)
from ..util.compiled import CcLibrary

__all__ = [
    "FORCE_PYTHON",
    "available",
    "backend",
    "run_session",
]

FORCE_PYTHON = False
"""Test hook: route the session kernel through the Python mirror."""


def _run_session_mirror(
    bounds, values2d, rates2d, cum2d,
    size_flat, db_flat, n_qualities, chunk_dur,
    capacity, overhead, rtt, rto_seq,
    kind, part,
    bba_f, bba_i, rates,
    bola_w,
    mpc_pen,
    meta, dbsum_flat, switch_flat,
    hist, errs, last_pred, window, error_window, cold_start,
    cwnd, ssthresh, last_send,
    col_quality, col_size, col_start, col_end, col_before, col_after,
    col_rebuffer, col_cwnd, col_ssthresh, col_idle,
    total_rebuffer, total_bytes, startup_time,
):
    """Advance every lane through the whole session in one call.

    Per-lane ABR routing: ``kind[k]`` selects the decision core (0 = BBA,
    1 = BOLA, 2 = RobustMPC) and ``part[k]`` indexes the per-partition
    parameter rows (``bba_f``/``bba_i``: reservoir/upper/r_min/r_max and
    lowest/highest; ``bola_w``: objective weights; ``mpc_pen``:
    rebuffer/switch penalties).  MPC lanes drive the predictor ring
    buffers (``hist``/``errs``/``last_pred``) and read the per-chunk
    horizon-search pack built by :func:`repro.abr.mpc._kernel_pack`:
    ``meta[n]`` is ``[h_n, n_seq, row_off]``, and ``dbsum_flat`` /
    ``switch_flat`` hold chunk ``n``'s per-sequence QoE totals at
    ``row_off``.  The pack has no sequence table: ``_mpc_decide_one``
    walks the sequences' prefix tree and indexes those rows by leaf.
    ``cwnd``/``ssthresh``/``last_send`` are live TCP state, updated in
    place; ``col_*`` are the ``(n_chunks, n_lanes)`` log columns.

    Returns 0 on success, 1 when some lane's transfer can never complete
    (zero trailing bandwidth), 2 on a non-positive download duration in
    an MPC observation (always an upstream logging bug).
    """
    n_chunks = col_quality.shape[0]
    n_lanes = kind.shape[0]
    n_intervals = values2d.shape[1]
    for k in range(n_lanes):
        kd = kind[k]
        p = part[k]
        cap = capacity[k]
        level = 0.0
        now = 0.0
        treb = 0.0
        tbytes = 0.0
        c = cwnd[k]
        st = ssthresh[k]
        ls = last_send[k]
        lq = -1
        for n in range(n_chunks):
            playing = n > 0
            # 1. Sleep while the buffer is over capacity (then the fixed
            #    request overhead), exactly the lockstep loop's clamps.
            wait = level - cap
            if wait <= 0.0:
                wait = 0.0
            if playing:
                z = level - wait
                if z <= 0.0:
                    z = 0.0
                level = z
            now = now + wait
            if overhead != 0.0:
                if playing:
                    so = overhead - level
                    if so <= 0.0:
                        so = 0.0
                    treb = treb + so
                    z = level - overhead
                    if z <= 0.0:
                        z = 0.0
                    level = z
                now = now + overhead
            buf_before = level

            # 2. ABR decision from client-observable state only.
            if kd == 0:
                q = _bba_one(
                    buf_before, bba_f[p, 0], bba_f[p, 1], bba_i[p, 0],
                    bba_i[p, 1], bba_f[p, 2], bba_f[p, 3], rates,
                    n_qualities,
                )
            elif kd == 1:
                q = _bola_one(
                    buf_before, bola_w[p],
                    size_flat[n * n_qualities : (n + 1) * n_qualities],
                    n_qualities,
                )
            else:
                pred = _mpc_obs_pred_one(
                    hist[k], errs[k], last_pred[k], n, window,
                    error_window, cold_start,
                )
                last_pred[k] = pred
                h = meta[n, 0]
                n_seq = meta[n, 1]
                roff = meta[n, 2]
                q = _mpc_decide_one(
                    buf_before, pred, lq, n, h, size_flat, db_flat,
                    n_qualities, dbsum_flat[roff : roff + n_seq],
                    switch_flat[roff : roff + n_seq], cap, chunk_dur,
                    mpc_pen[p, 0], mpc_pen[p, 1],
                )
            lq = q
            size = size_flat[n * n_qualities + q]

            # 3. Chunk download (the per-lane core of repro.tcp._compiled),
            #    with the logged pre-restart snapshot.
            idle = now - ls
            if idle < 0.0:
                idle = 0.0
            c_pre = c
            st_pre = st
            end, c, st = _download_one(
                bounds, values2d, rates2d, cum2d, n_intervals, k, now,
                size, idle, rtt, rto_seq[n], c, st,
            )
            if end < 0.0:
                return 1
            duration = end - now
            stall = 0.0
            if playing:
                stall = duration - level
                if stall <= 0.0:
                    stall = 0.0
                z = level - duration
                if z <= 0.0:
                    z = 0.0
                level = z
                treb = treb + stall

            # 4. Append and log.
            col_quality[n, k] = q
            col_size[n, k] = size
            col_start[n, k] = now
            col_end[n, k] = end
            col_before[n, k] = buf_before
            col_rebuffer[n, k] = stall
            col_cwnd[n, k] = c_pre
            col_ssthresh[n, k] = st_pre
            col_idle[n, k] = idle
            now = end
            ls = end
            level = level + chunk_dur
            if n == 0:
                startup_time[k] = now
            col_after[n, k] = level
            tbytes = tbytes + size
            if kd == 2:
                # Observation n for the predictor ring: the same
                # (size / duration) * 8 / 1e6 operation order as the
                # lockstep history rows, with its loud failure on
                # non-positive durations.
                if duration <= 0.0:
                    return 2
                hist[k, n % window] = size / duration * 8 / 1e6
        cwnd[k] = c
        ssthresh[k] = st
        last_send[k] = ls
        total_rebuffer[k] = treb
        total_bytes[k] = tbytes
    return 0


# ----------------------------------------------------------------------
# cc + cffi backend: the fused loop transcribed to C, compiled together
# with the C fragments of the per-lane cores it calls.
# ----------------------------------------------------------------------

_CDEF = """
long long run_session(
    long long n_lanes, long long n_chunks, long long n_intervals,
    long long n_qualities,
    const double *bounds, const double *values2d, const double *rates2d,
    const double *cum2d,
    const double *size_flat, const double *db_flat, double chunk_dur,
    const double *capacity, double overhead, double rtt,
    const double *rto_seq,
    const long long *kind, const long long *part,
    const double *bba_f, const long long *bba_i, const double *rates,
    const double *bola_w, const double *mpc_pen,
    const long long *meta,
    const double *dbsum_flat, const double *switch_flat,
    double *hist, double *errs, double *last_pred,
    long long window, long long error_window, double cold_start,
    long long *cwnd, long long *ssthresh, double *last_send,
    long long *col_quality, double *col_size, double *col_start,
    double *col_end, double *col_before, double *col_after,
    double *col_rebuffer, long long *col_cwnd, long long *col_ssthresh,
    double *col_idle,
    double *total_rebuffer, double *total_bytes, double *startup_time);
"""

_C_FUSED = r"""
/* Fused session loop: C transcription of _run_session_mirror in
 * repro/player/_fused.py.  The download/decision helpers above are the
 * C transcriptions of the per-lane cores in repro/tcp/_compiled.py and
 * repro/abr/_decisions.py. */

long long run_session(
    long long n_lanes, long long n_chunks, long long n_intervals,
    long long n_qualities,
    const double *bounds, const double *values2d, const double *rates2d,
    const double *cum2d,
    const double *size_flat, const double *db_flat, double chunk_dur,
    const double *capacity, double overhead, double rtt,
    const double *rto_seq,
    const long long *kind, const long long *part,
    const double *bba_f, const long long *bba_i, const double *rates,
    const double *bola_w, const double *mpc_pen,
    const long long *meta,
    const double *dbsum_flat, const double *switch_flat,
    double *hist, double *errs, double *last_pred,
    long long window, long long error_window, double cold_start,
    long long *cwnd, long long *ssthresh, double *last_send,
    long long *col_quality, double *col_size, double *col_start,
    double *col_end, double *col_before, double *col_after,
    double *col_rebuffer, long long *col_cwnd, long long *col_ssthresh,
    double *col_idle,
    double *total_rebuffer, double *total_bytes, double *startup_time) {
    for (int64_t k = 0; k < n_lanes; k++) {
        const double *values = values2d + k * n_intervals;
        const double *rates_k = rates2d + k * n_intervals;
        const double *cum = cum2d + k * (n_intervals + 1);
        int64_t kd = kind[k];
        int64_t p = part[k];
        double cap = capacity[k];
        double level = 0.0, now = 0.0, treb = 0.0, tbytes = 0.0;
        int64_t c = cwnd[k], st = ssthresh[k];
        double ls = last_send[k];
        int64_t lq = -1;
        for (int64_t n = 0; n < n_chunks; n++) {
            int playing = n > 0;
            double wait = level - cap;
            if (wait <= 0.0) wait = 0.0;
            if (playing) {
                double z = level - wait;
                if (z <= 0.0) z = 0.0;
                level = z;
            }
            now = now + wait;
            if (overhead != 0.0) {
                if (playing) {
                    double so = overhead - level;
                    if (so <= 0.0) so = 0.0;
                    treb = treb + so;
                    double z = level - overhead;
                    if (z <= 0.0) z = 0.0;
                    level = z;
                }
                now = now + overhead;
            }
            double buf_before = level;
            int64_t q;
            if (kd == 0) {
                q = bba_one(buf_before, bba_f[p * 4], bba_f[p * 4 + 1],
                            bba_i[p * 2], bba_i[p * 2 + 1],
                            bba_f[p * 4 + 2], bba_f[p * 4 + 3], rates,
                            n_qualities);
            } else if (kd == 1) {
                q = bola_one(buf_before, bola_w + p * n_qualities,
                             size_flat + n * n_qualities, n_qualities);
            } else {
                double pred = mpc_obs_pred_one(
                    hist + k * window, errs + k * error_window,
                    last_pred[k], n, window, error_window, cold_start);
                last_pred[k] = pred;
                int64_t h = meta[n * 3], roff = meta[n * 3 + 2];
                q = mpc_decide_one(buf_before, pred, lq, n, h, size_flat,
                                   db_flat, n_qualities, dbsum_flat + roff,
                                   switch_flat + roff, cap, chunk_dur,
                                   mpc_pen[p * 2], mpc_pen[p * 2 + 1]);
            }
            lq = q;
            double size = size_flat[n * n_qualities + q];
            double idle = now - ls;
            if (idle < 0.0) idle = 0.0;
            int64_t c_pre = c, st_pre = st;
            double end = download_one(bounds, values, rates_k, cum,
                                      n_intervals, now, size, idle, rtt,
                                      rto_seq[n], &c, &st);
            if (end < 0.0) return 1;
            double duration = end - now;
            double stall = 0.0;
            if (playing) {
                stall = duration - level;
                if (stall <= 0.0) stall = 0.0;
                double z = level - duration;
                if (z <= 0.0) z = 0.0;
                level = z;
                treb = treb + stall;
            }
            int64_t idx = n * n_lanes + k;
            col_quality[idx] = q;
            col_size[idx] = size;
            col_start[idx] = now;
            col_end[idx] = end;
            col_before[idx] = buf_before;
            col_rebuffer[idx] = stall;
            col_cwnd[idx] = c_pre;
            col_ssthresh[idx] = st_pre;
            col_idle[idx] = idle;
            now = end;
            ls = end;
            level = level + chunk_dur;
            if (n == 0) startup_time[k] = now;
            col_after[idx] = level;
            tbytes = tbytes + size;
            if (kd == 2) {
                if (duration <= 0.0) return 2;
                hist[k * window + n % window] =
                    size / duration * 8.0 / 1e6;
            }
        }
        cwnd[k] = c;
        ssthresh[k] = st;
        last_send[k] = ls;
        total_rebuffer[k] = treb;
        total_bytes[k] = tbytes;
    }
    return 0;
}
"""

_C_SOURCE = (
    _compiled.C_DEFINES + _compiled.C_HELPERS + _decisions.C_HELPERS + _C_FUSED
)

_CC_LIB = CcLibrary("_fused", _CDEF, _C_SOURCE)
"""The one replay library, built once per source hash.  Any build failure
— no compiler, no cffi, an unwritable cache dir, a compile error — is
swallowed and remembered: the compiled tier then reports itself
unavailable."""


def backend() -> str:
    """Which implementation serves :func:`run_session` right now."""
    return _CC_LIB.backend(FORCE_PYTHON)


def available() -> bool:
    """Whether the compiled tier can be served.

    ``FORCE_PYTHON`` counts as available so parity tests can drive the
    mirror end to end; without it only a loaded cc build does (the
    mirror is a per-lane per-chunk interpreter loop, far slower than the
    scratch tier).
    """
    return _CC_LIB.available(FORCE_PYTHON)


def run_session(
    bounds, values2d, rates2d, cum2d,
    size_flat, db_flat, n_qualities, chunk_dur,
    capacity, overhead, rtt, rto_seq,
    kind, part,
    bba_f, bba_i, rates,
    bola_w,
    mpc_pen,
    meta, dbsum_flat, switch_flat,
    hist, errs, last_pred, window, error_window, cold_start,
    cwnd, ssthresh, last_send,
    col_quality, col_size, col_start, col_end, col_before, col_after,
    col_rebuffer, col_cwnd, col_ssthresh, col_idle,
    total_rebuffer, total_bytes, startup_time,
):
    """Backend-dispatching entry point (see :func:`_run_session_mirror`)."""
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            return lib.run_session(
                kind.shape[0], col_quality.shape[0], values2d.shape[1],
                n_qualities,
                fb("double[]", bounds), fb("double[]", values2d),
                fb("double[]", rates2d), fb("double[]", cum2d),
                fb("double[]", size_flat), fb("double[]", db_flat),
                chunk_dur,
                fb("double[]", capacity), overhead, rtt,
                fb("double[]", rto_seq),
                fb("long long[]", kind), fb("long long[]", part),
                fb("double[]", bba_f), fb("long long[]", bba_i),
                fb("double[]", rates), fb("double[]", bola_w),
                fb("double[]", mpc_pen),
                fb("long long[]", meta),
                fb("double[]", dbsum_flat), fb("double[]", switch_flat),
                fb("double[]", hist), fb("double[]", errs),
                fb("double[]", last_pred),
                window, error_window, cold_start,
                fb("long long[]", cwnd), fb("long long[]", ssthresh),
                fb("double[]", last_send),
                fb("long long[]", col_quality), fb("double[]", col_size),
                fb("double[]", col_start), fb("double[]", col_end),
                fb("double[]", col_before), fb("double[]", col_after),
                fb("double[]", col_rebuffer),
                fb("long long[]", col_cwnd),
                fb("long long[]", col_ssthresh), fb("double[]", col_idle),
                fb("double[]", total_rebuffer),
                fb("double[]", total_bytes), fb("double[]", startup_time),
            )
    return _run_session_mirror(
        bounds, values2d, rates2d, cum2d, size_flat, db_flat, n_qualities,
        chunk_dur, capacity, overhead, rtt, rto_seq, kind, part, bba_f,
        bba_i, rates, bola_w, mpc_pen, meta, dbsum_flat, switch_flat, hist,
        errs, last_pred, window, error_window, cold_start, cwnd, ssthresh,
        last_send, col_quality, col_size, col_start, col_end, col_before,
        col_after, col_rebuffer, col_cwnd, col_ssthresh, col_idle,
        total_rebuffer, total_bytes, startup_time,
    )
