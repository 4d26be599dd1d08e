"""Synthetic bandwidth-trace generators.

The paper drives its emulation testbed with FCC Measuring-Broadband-America
throughput traces (2016 raw data) replayed through Mahimahi.  That dataset
is not available offline, so this module provides seeded synthetic
equivalents with the same qualitative structure the paper relies on:

* bounded bandwidth within a configurable range (the paper uses 3–8 Mbps
  for the counterfactual studies, 0–0.3 / 9–10 Mbps for the Fugu bias
  study, and 0.5–10 Mbps for the estimator / interventional studies),
* piecewise-constant evolution on a coarse time grid, and
* positive temporal correlation (bandwidth drifts rather than jumps),
  which is what makes the tridiagonal HMM transition prior informative.

All generators return :class:`~repro.net.trace.PiecewiseConstantTrace`.
"""

from __future__ import annotations

import numpy as np

from ..util.rng import SeedLike, ensure_rng
from .trace import PiecewiseConstantTrace


def _require_positive(**values: float) -> None:
    # Checked before any ``duration / interval``: a non-positive duration
    # would otherwise become one interval, and a zero interval divide by 0.
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def constant_trace(mbps: float, duration: float) -> PiecewiseConstantTrace:
    """A constant-bandwidth link (used by the Fig. 2(c) / Fig. 5 studies)."""
    return PiecewiseConstantTrace.constant(mbps, duration)


def square_wave_trace(
    low: float,
    high: float,
    period: float,
    duration: float,
    start_high: bool = False,
) -> PiecewiseConstantTrace:
    """Alternate between ``low`` and ``high`` Mbps every ``period`` seconds."""
    _require_positive(period=period, duration=duration)
    count = max(1, int(np.ceil(duration / period)))
    pattern = [high, low] if start_high else [low, high]
    values = [pattern[i % 2] for i in range(count)]
    return PiecewiseConstantTrace.from_uniform(values, period)


def random_walk_trace(
    mean_mbps: float,
    duration: float,
    interval: float = 5.0,
    step_mbps: float = 0.5,
    stay_prob: float = 0.6,
    low: float = 0.1,
    high: float = 50.0,
    dip_prob: float = 0.0,
    dip_range_mbps: tuple[float, float] = (0.5, 1.5),
    dip_windows: tuple[int, int] = (2, 4),
    seed: SeedLike = None,
) -> PiecewiseConstantTrace:
    """A Markov random walk on a ``step_mbps`` grid around ``mean_mbps``.

    Every ``interval`` seconds the bandwidth stays put with probability
    ``stay_prob`` and otherwise moves one ``step_mbps`` up or down (with a
    weak pull toward ``mean_mbps`` so long traces do not drift away from
    their nominal level).  Values are clamped into ``[low, high]``.

    ``dip_prob`` optionally adds outage-like events: with that per-window
    probability the bandwidth falls to a value in ``dip_range_mbps`` for a
    number of windows drawn from ``dip_windows``, then returns to its
    pre-dip level.  Real broadband traces (FCC MBA) show such dips, and
    they are what push a deployed ABR to low qualities — producing the
    small-chunk observed-throughput bias that Veritas exists to undo.
    """
    _require_positive(duration=duration, interval=interval)
    if not 0 <= stay_prob <= 1:
        raise ValueError(f"stay_prob must be in [0, 1], got {stay_prob}")
    if step_mbps <= 0:
        raise ValueError(f"step_mbps must be positive, got {step_mbps}")
    if not low <= mean_mbps <= high:
        raise ValueError(
            f"mean {mean_mbps} outside allowed range [{low}, {high}]"
        )
    if not 0 <= dip_prob <= 1:
        raise ValueError(f"dip_prob must be in [0, 1], got {dip_prob}")
    if dip_windows[0] < 1 or dip_windows[1] < dip_windows[0]:
        raise ValueError(f"invalid dip window range {dip_windows}")
    rng = ensure_rng(seed)
    count = max(1, int(np.ceil(duration / interval)))
    values = np.empty(count)
    # Start near the nominal mean (one grid point of jitter keeps distinct
    # seeds from producing identical opening intervals).
    current = mean_mbps + step_mbps * rng.integers(-1, 2)
    current = float(np.clip(current, low, high))
    dip_remaining = 0
    dip_value = 0.0
    dip_entering = False
    for i in range(count):
        if dip_entering:
            # Second half of the ramp: land on the dip floor.
            values[i] = dip_value
            dip_entering = False
            dip_remaining -= 1
            continue
        if dip_remaining > 0:
            values[i] = dip_value
            dip_remaining -= 1
            continue
        if dip_prob and rng.random() < dip_prob:
            # Dips ramp down over one window (real broadband outages decay
            # rather than step): half-way first, floor afterwards.
            dip_value = float(rng.uniform(*dip_range_mbps))
            dip_remaining = int(rng.integers(dip_windows[0], dip_windows[1] + 1))
            values[i] = (current + dip_value) / 2.0
            dip_entering = True
            continue
        values[i] = current
        if rng.random() < stay_prob:
            continue
        # Pull toward the mean: 60/40 split in the mean's direction.
        toward_mean = np.sign(mean_mbps - current)
        if toward_mean == 0:
            direction = rng.choice([-1.0, 1.0])
        else:
            direction = toward_mean if rng.random() < 0.6 else -toward_mean
        current = float(np.clip(current + direction * step_mbps, low, high))
    return PiecewiseConstantTrace.from_uniform(values, interval)


def markov_trace_from_matrix(
    matrix: np.ndarray,
    epsilon: float,
    duration: float,
    interval: float = 5.0,
    initial_state: int | None = None,
    seed: SeedLike = None,
) -> PiecewiseConstantTrace:
    """Sample a trace from an explicit HMM transition matrix.

    Used by tests to generate data whose generative process matches the
    EHMM prior exactly (state ``i`` means bandwidth ``i * epsilon`` Mbps).
    """
    _require_positive(duration=duration, interval=interval)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-8):
        raise ValueError("transition matrix rows must sum to 1")
    rng = ensure_rng(seed)
    n_states = matrix.shape[0]
    count = max(1, int(np.ceil(duration / interval)))
    state = (
        int(rng.integers(0, n_states)) if initial_state is None else initial_state
    )
    if not 0 <= state < n_states:
        raise ValueError(f"initial_state {state} out of range")
    states = np.empty(count, dtype=int)
    for i in range(count):
        states[i] = state
        state = int(rng.choice(n_states, p=matrix[state]))
    return PiecewiseConstantTrace.from_uniform(states * epsilon, interval)


def trace_corpus(
    count: int,
    mean_range: tuple[float, float],
    duration: float,
    interval: float = 5.0,
    step_mbps: float = 0.5,
    stay_prob: float = 0.6,
    low: float = 0.1,
    high: float = 50.0,
    dip_prob: float = 0.0,
    dip_range_mbps: tuple[float, float] = (0.5, 1.5),
    dip_windows: tuple[int, int] = (2, 4),
    seed: SeedLike = None,
) -> list[PiecewiseConstantTrace]:
    """Generate ``count`` random-walk traces with means uniform in ``mean_range``."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    lo_mean, hi_mean = mean_range
    if lo_mean > hi_mean:
        raise ValueError(f"invalid mean range {mean_range}")
    rng = ensure_rng(seed)
    traces = []
    for _ in range(count):
        mean = float(rng.uniform(lo_mean, hi_mean))
        mean = float(np.clip(mean, low, high))
        traces.append(
            random_walk_trace(
                mean_mbps=mean,
                duration=duration,
                interval=interval,
                step_mbps=step_mbps,
                stay_prob=stay_prob,
                low=low,
                high=high,
                dip_prob=dip_prob,
                dip_range_mbps=dip_range_mbps,
                dip_windows=dip_windows,
                seed=rng,
            )
        )
    return traces
