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
  (``hist`` observation window, ``errs`` error window, ``last_pred``).
  The horizon search walks the prefix tree of the pruned sequences
  depth first, carrying the buffer and the stall sum down each path, so
  a shared prefix is simulated once (649 nodes instead of 421 sequences
  × 5 steps at 7 rungs and horizon 5).  It reads no sequence table: the
  leaves come in ``_enumerate_sequences`` order, so the precomputed
  per-sequence QoE rows are indexed by the leaf counter.

Each core exists twice, in lockstep: plain Python, which the session
kernel's mirror runs, and a line-for-line C transcription
(:data:`C_HELPERS`) that ``_fused`` compiles into its library.  Each
core makes the NumPy batch decider's decisions (those deciders are
pinned bit-identical to the scalar ``choose_quality``): BBA and BOLA
float for float, MPC with the same float operations in the same order
along every sequence, the NumPy decider evaluating all sequences at
once and the core walking their shared prefixes once.  The C uses only
IEEE-754 basic operations, no libm, and is built with ``-fno-fast-math
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


def _mpc_leaf_qoe(negst, s, jump, has_prev, dbsum_row, switch_row,
                  rebuffer_penalty, switch_penalty):
    """QoE of leaf ``s`` of the horizon search: its precomputed SSIM-dB
    total, its stall sum ``negst`` (a non-positive number of seconds)
    and its switch penalty, where ``jump`` is the first rung's
    ``|Δ ssim_db|`` from the previous chunk."""
    qoe = dbsum_row[s] + negst * rebuffer_penalty
    if has_prev:
        qoe -= (switch_row[s] + jump) * switch_penalty
    elif switch_penalty != 0.0:
        qoe -= switch_penalty * switch_row[s]
    return qoe


def _mpc_decide_one(b0, p, lq, n, h, size_flat, db_flat, n_qualities,
                    dbsum_row, switch_row, capacity, chunk_dur,
                    rebuffer_penalty, switch_penalty):
    """One lane's MPC horizon search: a depth-first walk of the ±1 tree.

    The candidate sequences (first rung free, then ±1 moves, see
    :func:`repro.abr.mpc._enumerate_sequences`) are the leaves of a
    prefix tree of depth ``h``.  The walk carries (buffer, stall sum)
    down each path, so a shared prefix is simulated once, and every path
    runs the same float operations in the same order as a from-scratch
    simulation of its sequence.  First rungs ascend and children are
    visited at rungs q-1, q, q+1, so leaf ``s`` is row ``s`` of the
    sequence table: ``dbsum_row`` / ``switch_row`` (this chunk's
    per-sequence SSIM-dB and switch-penalty totals) are indexed by the
    leaf counter, and the strict ``>`` keeps the first maximum, as
    ``np.argmax`` does.

    The per-depth stacks (``rung`` / ``top``: the current and the last
    sibling; ``buf`` / ``neg``: the buffer and stall sum entering that
    depth) cover depths ``0 .. h-2``.  The walk descends along first
    children to depth ``h-2``, runs that depth's siblings, each scoring
    its leaf children in place, then advances the deepest unfinished
    depth above.  ``h == 1`` scores the one-step leaves directly.  The C
    keeps the stacks and the ``h × Q`` download seconds in
    variable-length arrays on its stack.  ``lq`` is the previous ladder
    index (``-1`` for the first chunk).  Returns the chosen first rung.
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
    # Download seconds of rung q at horizon step hh, slot hh * Q + q:
    # the multiply every path through that (step, rung) makes.
    n_cells = h * n_qualities
    dsec = [0.0] * n_cells
    base = n * n_qualities
    for i in range(n_cells):
        dsec[i] = size_flat[base + i] * scale
    best = 0.0
    best_q = 0
    s = 0
    jump = 0.0
    if h == 1:
        for q in range(n_qualities):
            lvl = b0 - dsec[q]
            negst = 0.0
            if lvl < 0.0:
                negst += lvl
            if has_prev:
                jump = db_flat[base + q] - prev_db
                if jump < 0.0:
                    jump = -jump
            qoe = _mpc_leaf_qoe(negst, s, jump, has_prev, dbsum_row,
                                switch_row, rebuffer_penalty, switch_penalty)
            if s == 0 or qoe > best:
                best = qoe
                best_q = q
            s += 1
        return best_q
    last = h - 2
    leaf = (h - 1) * n_qualities
    rung = [0] * (h - 1)
    top = [0] * (h - 1)
    buf = [0.0] * (h - 1)
    neg = [0.0] * (h - 1)
    buf[0] = b0
    neg[0] = 0.0
    rung[0] = 0
    top[0] = n_qualities - 1
    d = 0
    while True:
        while d < last:
            r = rung[d]
            lvl = buf[d] - dsec[d * n_qualities + r]
            negst = neg[d]
            if lvl < 0.0:
                negst += lvl
            t = lvl
            if t < 0.0:
                t = 0.0
            t += chunk_dur
            if t > capacity:
                t = capacity
            d += 1
            buf[d] = t
            neg[d] = negst
            rung[d] = r - 1 if r > 0 else 0
            top[d] = r + 1 if r + 1 < n_qualities else n_qualities - 1
        b = buf[last]
        nb = neg[last]
        for r in range(rung[last], top[last] + 1):
            q0 = r if last == 0 else rung[0]
            if has_prev:
                jump = db_flat[base + q0] - prev_db
                if jump < 0.0:
                    jump = -jump
            lvl = b - dsec[last * n_qualities + r]
            negst = nb
            if lvl < 0.0:
                negst += lvl
            t = lvl
            if t < 0.0:
                t = 0.0
            t += chunk_dur
            if t > capacity:
                t = capacity
            lo = r - 1 if r > 0 else 0
            hi = r + 1 if r + 1 < n_qualities else n_qualities - 1
            for c in range(lo, hi + 1):
                lvl2 = t - dsec[leaf + c]
                ng = negst
                if lvl2 < 0.0:
                    ng += lvl2
                qoe = _mpc_leaf_qoe(ng, s, jump, has_prev, dbsum_row,
                                    switch_row, rebuffer_penalty,
                                    switch_penalty)
                if s == 0 or qoe > best:
                    best = qoe
                    best_q = q0
                s += 1
        d = last - 1
        while d >= 0 and rung[d] == top[d]:
            d -= 1
        if d < 0:
            return best_q
        rung[d] += 1


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

static double mpc_leaf_qoe(double negst, int64_t s, double jump,
                           int has_prev, const double *dbsum_row,
                           const double *switch_row,
                           double rebuffer_penalty, double switch_penalty) {
    double qoe = dbsum_row[s] + negst * rebuffer_penalty;
    if (has_prev) {
        qoe -= (switch_row[s] + jump) * switch_penalty;
    } else if (switch_penalty != 0.0) {
        qoe -= switch_penalty * switch_row[s];
    }
    return qoe;
}

static int64_t mpc_decide_one(double b0, double p, int64_t lq, int64_t n,
                              int64_t h, const double *size_flat,
                              const double *db_flat, int64_t n_qualities,
                              const double *dbsum_row,
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
    int64_t n_cells = h * n_qualities;
    double dsec[n_cells];
    int64_t base = n * n_qualities;
    for (int64_t i = 0; i < n_cells; i++)
        dsec[i] = size_flat[base + i] * scale;
    double best = 0.0;
    int64_t best_q = 0, s = 0;
    double jump = 0.0;
    if (h == 1) {
        for (int64_t q = 0; q < n_qualities; q++) {
            double lvl = b0 - dsec[q];
            double negst = 0.0;
            if (lvl < 0.0) negst += lvl;
            if (has_prev) {
                jump = db_flat[base + q] - prev_db;
                if (jump < 0.0) jump = -jump;
            }
            double qoe = mpc_leaf_qoe(negst, s, jump, has_prev, dbsum_row,
                                      switch_row, rebuffer_penalty,
                                      switch_penalty);
            if (s == 0 || qoe > best) { best = qoe; best_q = q; }
            s++;
        }
        return best_q;
    }
    int64_t last = h - 2;
    int64_t leaf = (h - 1) * n_qualities;
    int64_t rung[h - 1], top[h - 1];
    double buf[h - 1], neg[h - 1];
    buf[0] = b0;
    neg[0] = 0.0;
    rung[0] = 0;
    top[0] = n_qualities - 1;
    int64_t d = 0;
    for (;;) {
        while (d < last) {
            int64_t r = rung[d];
            double lvl = buf[d] - dsec[d * n_qualities + r];
            double negst = neg[d];
            if (lvl < 0.0) negst += lvl;
            double t = lvl;
            if (t < 0.0) t = 0.0;
            t += chunk_dur;
            if (t > capacity) t = capacity;
            d++;
            buf[d] = t;
            neg[d] = negst;
            rung[d] = r > 0 ? r - 1 : 0;
            top[d] = r + 1 < n_qualities ? r + 1 : n_qualities - 1;
        }
        double b = buf[last], nb = neg[last];
        for (int64_t r = rung[last]; r <= top[last]; r++) {
            int64_t q0 = last == 0 ? r : rung[0];
            if (has_prev) {
                jump = db_flat[base + q0] - prev_db;
                if (jump < 0.0) jump = -jump;
            }
            double lvl = b - dsec[last * n_qualities + r];
            double negst = nb;
            if (lvl < 0.0) negst += lvl;
            double t = lvl;
            if (t < 0.0) t = 0.0;
            t += chunk_dur;
            if (t > capacity) t = capacity;
            int64_t lo = r > 0 ? r - 1 : 0;
            int64_t hi = r + 1 < n_qualities ? r + 1 : n_qualities - 1;
            for (int64_t c = lo; c <= hi; c++) {
                double lvl2 = t - dsec[leaf + c];
                double ng = negst;
                if (lvl2 < 0.0) ng += lvl2;
                double qoe = mpc_leaf_qoe(ng, s, jump, has_prev, dbsum_row,
                                          switch_row, rebuffer_penalty,
                                          switch_penalty);
                if (s == 0 || qoe > best) { best = qoe; best_q = q0; }
                s++;
            }
        }
        d = last - 1;
        while (d >= 0 && rung[d] == top[d]) d--;
        if (d < 0) return best_q;
        rung[d]++;
    }
}
"""


def backend() -> str:
    """The backend of the library these cores are compiled into:
    :func:`repro.player._fused.backend`."""
    # repro.player imports repro.abr, so the import waits for the call.
    from ..player import _fused

    return _fused.backend()
