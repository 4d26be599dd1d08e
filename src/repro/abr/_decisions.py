"""Compiled ABR decision kernels (BBA / BOLA / MPC batch decisions).

PR 6 compiled the chunk *download* into one per-batch call; this module
does the same for the per-chunk ABR *decision*.  Each of the three
shipped algorithms' ``choose_quality_batch`` loops is transcribed into a
``repro.tcp._compiled``-style kernel — a pure-Python mirror (the parity
oracle) and a cc + cffi build of a line-for-line C transcription — with
the same feature detection and ``FORCE_PYTHON`` test hook.

The kernels:

* :func:`bba_decide` — BBA's reservoir/upper threshold map with the
  linear bitrate interpolation and ``searchsorted`` ladder lookup.
* :func:`bola_decide` — BOLA's drift-plus-penalty argmax with the scalar
  loop's strict-improvement (first-maximum) tie rule.
* :func:`mpc_observe_predict` / :func:`mpc_decide` — RobustMPC.  The
  harmonic-mean predictor's state lives in flat per-lane ring buffers
  (``hist`` observation window, ``errs`` error window, ``last_pred``)
  driven *inside* the kernel, and the horizon search runs the QoE-table
  scaling, buffer recursion, stall/switch penalties and first-max argmax
  per lane with zero NumPy dispatches.

Every kernel performs the same correctly-rounded IEEE-754 float64
operations in the same order as the NumPy batch implementations (which
are themselves pinned bit-identical to the scalar reference), so
decisions are expected bit-identical between the mirror and the C build;
the documented cross-platform tolerance for the MPC compiled backend is
``rtol=1e-12``.

The per-lane scalar cores (``_bba_one`` … ``_mpc_decide_one`` and the
``C_HELPERS`` fragment) are shared with the fused session kernel in
:mod:`repro.player._fused`, which inlines them into its multi-chunk
loop so one compiled call advances chunk → decision → chunk.
"""

from __future__ import annotations

from ..util.compiled import CcLibrary

__all__ = [
    "FORCE_PYTHON",
    "backend",
    "use_kernel",
    "bba_decide",
    "bola_decide",
    "mpc_observe_predict",
    "mpc_decide",
]

FORCE_PYTHON = False
"""Test hook: route every decision kernel through the Python mirror."""


# ----------------------------------------------------------------------
# Per-lane scalar cores.  These mirror the NumPy batch decisions
# float-for-float and are reused by the fused session kernel.
# ----------------------------------------------------------------------


def _bba_one(buf, reservoir, upper, lowest, highest, r_min, r_max, rates,
             n_qualities):
    """One lane's BBA decision (mirrors ``BBAAlgorithm.choose_quality``)."""
    if buf <= reservoir:
        return lowest
    if buf >= upper:
        return highest
    fraction = (buf - reservoir) / (upper - reservoir)
    target = r_min + fraction * (r_max - r_min)
    # bisect_right(rates, target) - 1, clamped below at `lowest` — the
    # same index arithmetic as ladder.highest_below / searchsorted.
    lo = 0
    hi = n_qualities
    while lo < hi:
        mid = (lo + hi) // 2
        if target < rates[mid]:
            hi = mid
        else:
            lo = mid + 1
    idx = lo - 1
    if idx < lowest:
        idx = lowest
    return idx


def _bola_one(buf, weights, sizes, n_qualities):
    """One lane's BOLA decision: strict-improvement argmax of the
    drift-plus-penalty score (first maximum wins, matching np.argmax)."""
    best_q = 0
    best = (weights[0] - buf) / sizes[0]
    for q in range(1, n_qualities):
        score = (weights[q] - buf) / sizes[q]
        if score > best:
            best = score
            best_q = q
    return best_q


def _mpc_obs_pred_one(hist_row, err_row, lp, n_obs, window, error_window,
                      cold_start):
    """One lane's RobustMPC observe + predict step.

    ``hist_row`` is the lane's observation ring (slot ``i % window``
    holds observation ``i``); ``err_row`` its error ring (slot
    ``(i - 1) % error_window`` holds the error recorded at decision
    ``i``, written here); ``lp`` the previous prediction.  ``n_obs`` is
    the number of observations pushed so far (the chunk index).
    Returns the new prediction — the caller stores it as the lane's
    ``last_prediction``.
    """
    if n_obs > 0:
        actual = hist_row[(n_obs - 1) % window]
        if lp > 0.0:
            e = lp - actual
            if e < 0.0:
                e = -e
            err_row[(n_obs - 1) % error_window] = e / actual
    if n_obs == 0:
        return cold_start
    cnt = n_obs
    if cnt > window:
        cnt = window
    inv_sum = 0.0
    for i in range(n_obs - cnt, n_obs):
        inv_sum += 1.0 / hist_row[i % window]
    harmonic = cnt / inv_sum
    n_err = n_obs
    if n_err > error_window:
        n_err = error_window
    max_error = 0.0
    for i in range(n_err):
        if err_row[i] > max_error:
            max_error = err_row[i]
    return harmonic / (1.0 + max_error)


def _mpc_decide_one(b0, p, lq, n, h, n_seq, seq, size_flat, db_flat,
                    n_qualities, dbsum_row, switch_row, capacity, chunk_dur,
                    rebuffer_penalty, switch_penalty):
    """One lane's MPC horizon search over the pruned sequence set.

    ``seq`` is the ``(n_seq, h)`` sequence table flattened row-major;
    ``dbsum_row`` / ``switch_row`` the precomputed per-sequence SSIM-dB
    and switch-penalty totals for this chunk; ``lq`` the previous ladder
    index (``-1`` for the first chunk).  Returns the chosen quality.
    """
    if p < 1e-3:
        p = 1e-3
    scale = 8 / 1e6 / p
    has_prev = lq >= 0
    prev_db = 0.0
    if has_prev:
        pn = n - 1
        if pn < 0:
            pn = 0
        prev_db = db_flat[pn * n_qualities + lq]
    best = 0.0
    best_s = 0
    for s in range(n_seq):
        b = b0
        negst = 0.0
        for hh in range(h):
            q = seq[s * h + hh]
            d = size_flat[(n + hh) * n_qualities + q] * scale
            lvl = b - d
            if lvl < 0.0:
                negst += lvl
            if hh + 1 < h:
                t = lvl
                if t < 0.0:
                    t = 0.0
                t += chunk_dur
                if t > capacity:
                    t = capacity
                b = t
        qoe = dbsum_row[s] + negst * rebuffer_penalty
        if has_prev:
            jump = db_flat[n * n_qualities + seq[s * h]] - prev_db
            if jump < 0.0:
                jump = -jump
            qoe -= (switch_row[s] + jump) * switch_penalty
        elif switch_penalty != 0.0:
            qoe -= switch_penalty * switch_row[s]
        if s == 0 or qoe > best:
            best = qoe
            best_s = s
    return seq[best_s * h]


# ----------------------------------------------------------------------
# Batch mirrors: loop the scalar cores over all lanes in one call.
# ----------------------------------------------------------------------


def _bba_decide_mirror(buffer_s, reservoir, upper, lowest, highest, r_min,
                       r_max, rates, out):
    n_qualities = rates.shape[0]
    for k in range(buffer_s.shape[0]):
        out[k] = _bba_one(
            buffer_s[k], reservoir, upper, lowest, highest, r_min, r_max,
            rates, n_qualities,
        )
    return 0


def _bola_decide_mirror(buffer_s, weights, sizes, out):
    n_qualities = weights.shape[0]
    for k in range(buffer_s.shape[0]):
        out[k] = _bola_one(buffer_s[k], weights, sizes, n_qualities)
    return 0


def _mpc_observe_predict_mirror(hist, errs, last_pred, n_obs, window,
                                error_window, cold_start, out_pred):
    for k in range(hist.shape[0]):
        pred = _mpc_obs_pred_one(
            hist[k], errs[k], last_pred[k], n_obs, window, error_window,
            cold_start,
        )
        last_pred[k] = pred
        out_pred[k] = pred
    return 0


def _mpc_decide_mirror(n, h, n_seq, seq, size_flat, db_flat, n_qualities,
                       dbsum_row, switch_row, buffer_s, pred, last_q,
                       capacity, chunk_dur, rebuffer_penalty, switch_penalty,
                       out):
    for k in range(buffer_s.shape[0]):
        out[k] = _mpc_decide_one(
            buffer_s[k], pred[k], last_q[k], n, h, n_seq, seq, size_flat,
            db_flat, n_qualities, dbsum_row, switch_row, capacity, chunk_dur,
            rebuffer_penalty, switch_penalty,
        )
    return 0


# ----------------------------------------------------------------------
# cc + cffi backend: line-for-line C transcription of the mirrors.
# ----------------------------------------------------------------------

_CDEF = """
long long bba_decide(long long n_lanes, const double *buffer_s,
    double reservoir, double upper, long long lowest, long long highest,
    double r_min, double r_max, const double *rates, long long n_qualities,
    long long *out);
long long bola_decide(long long n_lanes, const double *buffer_s,
    const double *weights, const double *sizes, long long n_qualities,
    long long *out);
long long mpc_observe_predict(long long n_lanes, const double *hist,
    double *errs, double *last_pred, long long n_obs, long long window,
    long long error_window, double cold_start, double *out_pred);
long long mpc_decide(long long n_lanes, long long n, long long h,
    long long n_seq, const long long *seq, const double *size_flat,
    const double *db_flat, long long n_qualities, const double *dbsum_row,
    const double *switch_row, const double *buffer_s, const double *pred,
    const long long *last_q, double capacity, double chunk_dur,
    double rebuffer_penalty, double switch_penalty, long long *out);
"""

C_HELPERS = r"""
/* ABR decision kernels: C transcription of the Python mirrors in
 * repro/abr/_decisions.py.  Like the replay kernel, compiled WITHOUT
 * fast-math or FMA contraction so every double op matches NumPy's. */

static int64_t bba_one(double buf, double reservoir, double upper,
                       int64_t lowest, int64_t highest, double r_min,
                       double r_max, const double *rates,
                       int64_t n_qualities) {
    if (buf <= reservoir) return lowest;
    if (buf >= upper) return highest;
    double fraction = (buf - reservoir) / (upper - reservoir);
    double target = r_min + fraction * (r_max - r_min);
    int64_t lo = 0, hi = n_qualities;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (target < rates[mid]) hi = mid; else lo = mid + 1;
    }
    int64_t idx = lo - 1;
    if (idx < lowest) idx = lowest;
    return idx;
}

static int64_t bola_one(double buf, const double *weights,
                        const double *sizes, int64_t n_qualities) {
    int64_t best_q = 0;
    double best = (weights[0] - buf) / sizes[0];
    for (int64_t q = 1; q < n_qualities; q++) {
        double score = (weights[q] - buf) / sizes[q];
        if (score > best) { best = score; best_q = q; }
    }
    return best_q;
}

static double mpc_obs_pred_one(const double *hist_row, double *err_row,
                               double lp, int64_t n_obs, int64_t window,
                               int64_t error_window, double cold_start) {
    if (n_obs > 0) {
        double actual = hist_row[(n_obs - 1) % window];
        if (lp > 0.0) {
            double e = lp - actual;
            if (e < 0.0) e = -e;
            err_row[(n_obs - 1) % error_window] = e / actual;
        }
    }
    if (n_obs == 0) return cold_start;
    int64_t cnt = n_obs < window ? n_obs : window;
    double inv_sum = 0.0;
    for (int64_t i = n_obs - cnt; i < n_obs; i++)
        inv_sum += 1.0 / hist_row[i % window];
    double harmonic = (double)cnt / inv_sum;
    int64_t n_err = n_obs < error_window ? n_obs : error_window;
    double max_error = 0.0;
    for (int64_t i = 0; i < n_err; i++)
        if (err_row[i] > max_error) max_error = err_row[i];
    return harmonic / (1.0 + max_error);
}

static int64_t mpc_decide_one(double b0, double p, int64_t lq, int64_t n,
                              int64_t h, int64_t n_seq, const int64_t *seq,
                              const double *size_flat, const double *db_flat,
                              int64_t n_qualities, const double *dbsum_row,
                              const double *switch_row, double capacity,
                              double chunk_dur, double rebuffer_penalty,
                              double switch_penalty) {
    if (p < 1e-3) p = 1e-3;
    double scale = 8.0 / 1e6 / p;
    int has_prev = lq >= 0;
    double prev_db = 0.0;
    if (has_prev) {
        int64_t pn = n - 1;
        if (pn < 0) pn = 0;
        prev_db = db_flat[pn * n_qualities + lq];
    }
    double best = 0.0;
    int64_t best_s = 0;
    for (int64_t s = 0; s < n_seq; s++) {
        double b = b0;
        double negst = 0.0;
        for (int64_t hh = 0; hh < h; hh++) {
            int64_t q = seq[s * h + hh];
            double d = size_flat[(n + hh) * n_qualities + q] * scale;
            double lvl = b - d;
            if (lvl < 0.0) negst += lvl;
            if (hh + 1 < h) {
                double t = lvl;
                if (t < 0.0) t = 0.0;
                t += chunk_dur;
                if (t > capacity) t = capacity;
                b = t;
            }
        }
        double qoe = dbsum_row[s] + negst * rebuffer_penalty;
        if (has_prev) {
            double jump = db_flat[n * n_qualities + seq[s * h]] - prev_db;
            if (jump < 0.0) jump = -jump;
            qoe -= (switch_row[s] + jump) * switch_penalty;
        } else if (switch_penalty != 0.0) {
            qoe -= switch_penalty * switch_row[s];
        }
        if (s == 0 || qoe > best) { best = qoe; best_s = s; }
    }
    return seq[best_s * h];
}
"""

_C_ENTRY = r"""
long long bba_decide(long long n_lanes, const double *buffer_s,
    double reservoir, double upper, long long lowest, long long highest,
    double r_min, double r_max, const double *rates, long long n_qualities,
    long long *out) {
    for (int64_t k = 0; k < n_lanes; k++)
        out[k] = bba_one(buffer_s[k], reservoir, upper, lowest, highest,
                         r_min, r_max, rates, n_qualities);
    return 0;
}

long long bola_decide(long long n_lanes, const double *buffer_s,
    const double *weights, const double *sizes, long long n_qualities,
    long long *out) {
    for (int64_t k = 0; k < n_lanes; k++)
        out[k] = bola_one(buffer_s[k], weights, sizes, n_qualities);
    return 0;
}

long long mpc_observe_predict(long long n_lanes, const double *hist,
    double *errs, double *last_pred, long long n_obs, long long window,
    long long error_window, double cold_start, double *out_pred) {
    for (int64_t k = 0; k < n_lanes; k++) {
        double pred = mpc_obs_pred_one(
            hist + k * window, errs + k * error_window, last_pred[k],
            n_obs, window, error_window, cold_start);
        last_pred[k] = pred;
        out_pred[k] = pred;
    }
    return 0;
}

long long mpc_decide(long long n_lanes, long long n, long long h,
    long long n_seq, const long long *seq, const double *size_flat,
    const double *db_flat, long long n_qualities, const double *dbsum_row,
    const double *switch_row, const double *buffer_s, const double *pred,
    const long long *last_q, double capacity, double chunk_dur,
    double rebuffer_penalty, double switch_penalty, long long *out) {
    for (int64_t k = 0; k < n_lanes; k++)
        out[k] = mpc_decide_one(
            buffer_s[k], pred[k], last_q[k], n, h, n_seq, seq, size_flat,
            db_flat, n_qualities, dbsum_row, switch_row, capacity,
            chunk_dur, rebuffer_penalty, switch_penalty);
    return 0;
}
"""

_C_SOURCE = "#include <stdint.h>\n" + C_HELPERS + _C_ENTRY

_CC_LIB = CcLibrary("_decisions", _CDEF, _C_SOURCE)


def backend() -> str:
    """Which implementation serves the decision kernels right now."""
    return _CC_LIB.backend(FORCE_PYTHON)


def use_kernel() -> bool:
    """Whether the ABR batch deciders should route through the kernels.

    True only for the cc build: the pure-Python mirror is a per-lane
    scalar loop, so without the cc build the vectorised NumPy decisions
    stay faster and remain the production path.
    """
    return backend() == "cc"


def bba_decide(buffer_s, reservoir, upper, lowest, highest, r_min, r_max,
               rates, out):
    """Backend-dispatching BBA batch decision (writes ladder indices to
    ``out``; int64, shape ``(K,)``)."""
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            return lib.bba_decide(
                buffer_s.shape[0], fb("double[]", buffer_s), reservoir,
                upper, lowest, highest, r_min, r_max, fb("double[]", rates),
                rates.shape[0], fb("long long[]", out),
            )
    return _bba_decide_mirror(
        buffer_s, reservoir, upper, lowest, highest, r_min, r_max, rates, out
    )


def bola_decide(buffer_s, weights, sizes, out):
    """Backend-dispatching BOLA batch decision."""
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            return lib.bola_decide(
                buffer_s.shape[0], fb("double[]", buffer_s),
                fb("double[]", weights), fb("double[]", sizes),
                weights.shape[0], fb("long long[]", out),
            )
    return _bola_decide_mirror(buffer_s, weights, sizes, out)


def mpc_observe_predict(hist, errs, last_pred, n_obs, window, error_window,
                        cold_start, out_pred):
    """Backend-dispatching RobustMPC observe + predict for all lanes.

    ``hist`` is the ``(K, window)`` observation ring (slot ``i % window``
    of each row holds observation ``i``), ``errs`` the
    ``(K, error_window)`` error ring — both updated in place along with
    ``last_pred``.  Predictions land in ``out_pred``.
    """
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            return lib.mpc_observe_predict(
                hist.shape[0], fb("double[]", hist), fb("double[]", errs),
                fb("double[]", last_pred), n_obs, window, error_window,
                cold_start, fb("double[]", out_pred),
            )
    return _mpc_observe_predict_mirror(
        hist, errs, last_pred, n_obs, window, error_window, cold_start,
        out_pred,
    )


def mpc_decide(n, h, n_seq, seq, size_flat, db_flat, n_qualities, dbsum_row,
               switch_row, buffer_s, pred, last_q, capacity, chunk_dur,
               rebuffer_penalty, switch_penalty, out):
    """Backend-dispatching MPC horizon search for all lanes."""
    if not FORCE_PYTHON:
        lib = _CC_LIB.load()
        if lib is not None:
            fb = _CC_LIB.ffi.from_buffer
            return lib.mpc_decide(
                buffer_s.shape[0], n, h, n_seq, fb("long long[]", seq),
                fb("double[]", size_flat), fb("double[]", db_flat),
                n_qualities, fb("double[]", dbsum_row),
                fb("double[]", switch_row), fb("double[]", buffer_s),
                fb("double[]", pred), fb("long long[]", last_q), capacity,
                chunk_dur, rebuffer_penalty, switch_penalty,
                fb("long long[]", out),
            )
    return _mpc_decide_mirror(
        n, h, n_seq, seq, size_flat, db_flat, n_qualities, dbsum_row,
        switch_row, buffer_s, pred, last_q, capacity, chunk_dur,
        rebuffer_penalty, switch_penalty, out,
    )
