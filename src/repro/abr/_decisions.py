"""Per-lane ABR decision cores linked into :mod:`repro.player._fused`.

The whole-session replay kernel (:func:`repro.player._fused.run_session`)
makes every chunk decision of the shipped algorithms through the scalar
cores defined here:

* :func:`_bba_one` — BBA's reservoir/upper threshold map with the linear
  bitrate interpolation and ``searchsorted`` ladder lookup;
* :func:`_bola_one` — BOLA's drift-plus-penalty argmax with the scalar
  loop's strict-improvement (first-maximum) tie rule;
* :func:`_mpc_obs_pred_one` / :func:`_mpc_decide_one` — RobustMPC.  The
  harmonic-mean predictor's state lives in flat per-lane ring buffers
  (``hist`` observation window, ``errs`` error window, ``last_pred``),
  and the horizon search runs the QoE-table scaling, buffer recursion,
  stall/switch penalties and first-max argmax per lane.

Each core exists twice, in lockstep: plain Python, which mirrors the
NumPy batch deciders (themselves pinned bit-identical to the scalar
``choose_quality``) float for float and is what the session kernel's
mirror runs, and a line-for-line C transcription (:data:`C_HELPERS`)
that ``_fused`` compiles into its library.  The C uses only IEEE-754
basic operations, no libm, and is built with ``-fno-fast-math
-ffp-contract=off``, so the two make bit-identical decisions.

This module builds nothing itself.  :func:`backend` reports the backend
of the library its cores are compiled into, ``player._fused``.
"""

# repro: kernel-module

from __future__ import annotations

__all__ = ["C_HELPERS", "backend"]


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
# The C transcription of the cores above, compiled into repro.player._fused.
# ----------------------------------------------------------------------

C_HELPERS = r"""
/* ABR decision cores: C transcription of the Python cores in
 * repro/abr/_decisions.py.  Like the download core, compiled WITHOUT
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


def backend() -> str:
    """The backend of the library these cores are compiled into:
    :func:`repro.player._fused.backend`."""
    # repro.player imports repro.abr, so the import waits for the call.
    from ..player import _fused

    return _fused.backend()
