"""The paper's network throughput estimator ``f`` (Algorithm 4).

``f(C, W_sn, S_n)`` estimates the throughput a chunk of size ``S_n`` would
observe if the GTBW were ``C`` and the TCP connection started the download
in state ``W_sn``.  It models three phases of Reno-style congestion control:

* slow-start restart when the connection has been idle longer than the RTO,
* slow start (window doubles every round) below ssthresh,
* additive congestion avoidance (window + 1 per round) above it,

and charges one ``min_rtt`` per transmission round plus one round trip of
request latency (the HTTP GET a DASH client sends before any payload byte
arrives — included because the logged download time measures exactly that
span).  Loss is not modelled, as in the paper.  The result is capped at the
GTBW ``C``.

This function is the emission model of the Veritas EHMM: the whole point of
the paper is that conditioning on the logged TCP state lets the HMM "invert"
observed throughput back into latent GTBW.

Two implementations, one job each:

* :func:`estimate_throughput` / :func:`estimate_download_time` — the
  golden scalar path, one capacity and one ``tcp_info`` snapshot at a
  time.  Interventional queries, the Veritas ABR and the Fig. 5 bench
  run it.
* :func:`estimate_throughput_grid_batch` — every chunk of a session over
  the whole capacity grid at once: the estimator of the emission build
  (:class:`repro.core.emission.EmissionModel`) on every abduction tier
  but the compiled one.  Entry ``(n, k)`` equals the scalar estimate for
  state ``k`` and chunk ``n`` bit for bit (the same arithmetic in the
  same order; ``tests/test_vectorized_parity.py`` pins it against the
  scalar path and a state-by-state loop oracle).  The compiled emission
  kernel (:mod:`repro.core._kernels`) transcribes it.
"""

from __future__ import annotations

import math

import numpy as np

from ..util.units import mbps_to_bytes_per_sec
from .constants import MSS_BYTES, SLOW_START_GROWTH
from .state import (
    TCPStateColumns,
    TCPStateSnapshot,
    apply_slow_start_restart,
    apply_slow_start_restart_batch,
)

__all__ = [
    "REQUEST_RTTS",
    "chunk_state_arrays",
    "estimate_download_time",
    "estimate_throughput",
    "estimate_throughput_grid_batch",
]

REQUEST_RTTS = 1.0
"""Round trips charged for the chunk request before payload flows."""


def _segments(size_bytes: float) -> int:
    """Number of MSS-sized segments needed for ``size_bytes`` (at least 1)."""
    return max(1, math.ceil(size_bytes / MSS_BYTES))


def _window_phase(
    data_segments: int, bdp_segments: int, cwnd: int, ssthresh: int
) -> tuple[int, int]:
    """Window-limited phase of Algorithm 4: ``(rounds, segments_sent)``.

    Runs the paper's ``while sent < data_segments`` loop only while the
    congestion window is below the BDP (each such round lasts one RTT and
    moves ``cwnd`` segments).  Once the pipe is full the remainder drains at
    the link rate; the caller charges that tail as a fluid transfer — the
    continuous-time equivalent of the paper's ``ceil(remaining / bdp)``
    rounds, and exactly what the flow simulator does, which keeps the
    emission model unbiased (and monotone in the candidate capacity).
    """
    rounds = 0
    sent = 0
    while sent < data_segments and cwnd < bdp_segments:
        sent += cwnd  # cwnd < bdp, so min(cwnd, bdp) == cwnd
        if cwnd < ssthresh:
            cwnd = max(cwnd + 1, int(cwnd * SLOW_START_GROWTH))
        else:
            cwnd += 1
        rounds += 1
    return rounds, sent


def estimate_download_time(
    gtbw_mbps: float,
    tcp_state: TCPStateSnapshot,
    size_bytes: float,
    request_rtts: float = REQUEST_RTTS,
) -> float:
    """Download time (seconds) implied by Algorithm 4, request included."""
    if gtbw_mbps < 0:
        raise ValueError(f"GTBW must be non-negative, got {gtbw_mbps}")
    if size_bytes <= 0:
        raise ValueError(f"size must be positive, got {size_bytes}")
    if gtbw_mbps == 0:
        return float("inf")

    cwnd, ssthresh, _ = apply_slow_start_restart(
        tcp_state.cwnd_segments,
        tcp_state.ssthresh_segments,
        tcp_state.time_since_last_send_s,
        tcp_state.rto_s,
    )

    min_rtt = tcp_state.min_rtt_s
    request_s = request_rtts * min_rtt
    data_segments = _segments(size_bytes)
    bdp_segments = _segments(mbps_to_bytes_per_sec(gtbw_mbps) * min_rtt)

    rate = mbps_to_bytes_per_sec(gtbw_mbps)
    if cwnd > bdp_segments:
        if data_segments > bdp_segments:
            # Saturated transfer: payload drains at the link rate.
            return request_s + size_bytes / rate
        # Whole chunk fits in one congestion window: one round trip.
        return request_s + min_rtt

    rounds, sent = _window_phase(data_segments, bdp_segments, cwnd, ssthresh)
    tail_bytes = max(0.0, size_bytes - sent * MSS_BYTES)
    return request_s + rounds * min_rtt + tail_bytes / rate


def estimate_throughput(
    gtbw_mbps: float,
    tcp_state: TCPStateSnapshot,
    size_bytes: float,
    request_rtts: float = REQUEST_RTTS,
) -> float:
    """Paper Algorithm 4: expected observed throughput (Mbps) for one chunk.

    Parameters
    ----------
    gtbw_mbps:
        Candidate ground-truth bandwidth ``C`` (Mbps).
    tcp_state:
        ``tcp_info`` snapshot at the start of the download (``W_sn``).
    size_bytes:
        Chunk size ``S_n``.
    request_rtts:
        Round trips charged for the request (0 disables the overhead and
        recovers the paper's literal Algorithm 4).
    """
    download_s = estimate_download_time(
        gtbw_mbps, tcp_state, size_bytes, request_rtts=request_rtts
    )
    if not math.isfinite(download_s) or download_s <= 0:
        return 0.0
    return size_bytes * 8 / 1e6 / download_s


_SCHEDULE_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_SCHEDULE_CACHE_MAX = 4096


def _round_schedule(
    cwnd0: int, ssthresh0: int, data_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round window schedule shared by every BDP bucket of a grid.

    ``cwnds[r]`` is the congestion window at the *start* of round ``r`` and
    ``cum_sent[r]`` the segments sent over rounds ``0..r-1`` (so
    ``cum_sent[0] == 0``).  The schedule is generated once, up to the first
    round where ``cum_sent >= data_segments``; the window-phase outcome for
    any BDP ``B`` then reduces to
    ``rounds = min(first r with cum_sent[r] >= data, first r with cwnds[r] >= B)``,
    which :func:`estimate_throughput_grid_batch` resolves for every state
    of the grid with one comparison against the padded schedules of a
    session's chunks.  The schedule depends only on
    ``(cwnd0, ssthresh0, data_segments)``, so it is memoised — DASH chunk
    sizes repeat heavily across a session.
    """
    key = (cwnd0, ssthresh0, data_segments)
    cached = _SCHEDULE_CACHE.get(key)
    if cached is None:
        cwnds = [cwnd0]
        cum = [0]
        cwnd = cwnd0
        sent = 0
        while sent < data_segments:
            sent += cwnd
            if cwnd < ssthresh0:
                cwnd = max(cwnd + 1, int(cwnd * SLOW_START_GROWTH))
            else:
                cwnd += 1
            cum.append(sent)
            cwnds.append(cwnd)
        if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
            _SCHEDULE_CACHE.clear()
        cached = (
            np.asarray(cwnds, dtype=np.int64),
            np.asarray(cum, dtype=np.int64),
        )
        _SCHEDULE_CACHE[key] = cached
    return cached


def chunk_state_arrays(
    states: TCPStateColumns,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restart-applied per-chunk TCP state as ``(cwnd0, ssthresh0, min_rtt)``.

    Slow-start restart is the only state-dependent preprocessing Algorithm 4
    performs, so these three arrays are the complete per-chunk input of the
    estimator.  The restart runs on the whole session at once
    (:func:`~repro.tcp.state.apply_slow_start_restart_batch`, element-wise
    equal to the scalar decay).  Shared by
    :func:`estimate_throughput_grid_batch` and the compiled emission
    kernel (:mod:`repro.core._kernels`), which inlines the rest of the
    algorithm.
    """
    cwnd0, ssthresh0, _ = apply_slow_start_restart_batch(
        states.cwnd_segments,
        states.ssthresh_segments,
        states.time_since_last_send_s,
        states.rto_s,
    )
    return cwnd0, ssthresh0, states.min_rtt_s


def estimate_throughput_grid_batch(
    gtbw_grid_mbps: np.ndarray,
    states: TCPStateColumns,
    sizes_bytes: np.ndarray,
    request_rtts: float = REQUEST_RTTS,
) -> np.ndarray:
    """Algorithm 4 for *every* chunk of a session over the whole grid.

    Returns the ``(n_chunks, n_states)`` predicted-throughput matrix the
    EHMM emission model needs, resolving all chunks' window phases in one
    padded comparison.  Entry ``(n, k)`` is bit-identical to
    ``estimate_throughput(grid[k], snapshot_n, sizes_bytes[n])`` for the
    snapshot whose fields are entry ``n`` of each column of ``states``.
    """
    grid = np.asarray(gtbw_grid_mbps, dtype=float)
    if np.any(grid < 0):
        raise ValueError("GTBW grid values must be non-negative")
    n_chunks = len(states)
    sizes = np.asarray(sizes_bytes, dtype=float)
    if sizes.shape != (n_chunks,):
        raise ValueError("need one size per TCP state")
    if np.any(sizes <= 0):
        raise ValueError("sizes must be positive")

    rates = grid * 1e6 / 8
    safe_rates = np.where(grid > 0, rates, 1.0)

    data_segments = np.maximum(1, np.ceil(sizes / MSS_BYTES)).astype(np.int64)
    cwnd0, ssthresh0, min_rtt = chunk_state_arrays(states)
    schedules = [
        _round_schedule(cw, ss, segments)
        for cw, ss, segments in zip(
            cwnd0.tolist(), ssthresh0.tolist(), data_segments.tolist()
        )
    ]

    # bdp[n, k] and the padded per-chunk round schedules: the window-phase
    # round count is "first round whose window reaches the BDP", clamped to
    # the data-limited round count, exactly as in the per-chunk fast path.
    bdp_segments = np.maximum(
        1, np.ceil(rates[None, :] * min_rtt[:, None] / MSS_BYTES)
    ).astype(np.int64)
    max_len = max(c.size for c, _ in schedules)
    cwnd_pad = np.full((n_chunks, max_len), np.iinfo(np.int64).max)
    cum_pad = np.zeros((n_chunks, max_len), dtype=np.int64)
    max_rounds = np.empty(n_chunks, dtype=np.int64)
    for n, (cwnds, cum_sent) in enumerate(schedules):
        cwnd_pad[n, : cwnds.size] = cwnds
        cum_pad[n, : cum_sent.size] = cum_sent
        max_rounds[n] = cum_sent.size - 1

    first_full = (cwnd_pad[:, :, None] < bdp_segments[:, None, :]).sum(axis=1)
    rounds = np.minimum(first_full, max_rounds[:, None])
    sent = np.take_along_axis(cum_pad, rounds, axis=1)
    tail_bytes = np.maximum(0.0, sizes[:, None] - sent * MSS_BYTES)
    request_s = request_rtts * min_rtt
    window_limited = (
        request_s[:, None] + rounds * min_rtt[:, None] + tail_bytes / safe_rates
    )

    pipe_full = cwnd0[:, None] > bdp_segments
    saturated = request_s[:, None] + sizes[:, None] / safe_rates
    one_round = (request_s + min_rtt)[:, None]
    download_s = np.where(
        pipe_full,
        np.where(data_segments[:, None] > bdp_segments, saturated, one_round),
        window_limited,
    )
    chunk_mbits = sizes * 8 / 1e6
    return np.where(grid[None, :] > 0, chunk_mbits[:, None] / download_s, 0.0)
