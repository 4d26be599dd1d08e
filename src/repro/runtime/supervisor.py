"""Supervised process-pool execution: timeouts, retries, in-process fallback.

``ProcessPoolExecutor.map`` is fail-stop: one killed worker raises
``BrokenProcessPool`` and throws away every completed shard, and a *hung*
worker blocks the whole run forever.  :func:`run_supervised` wraps the same
fan-out with supervision:

* a per-task **timeout** (``timeout_s``) bounds how long any one shard may
  run; past it the pool is torn down (hung workers are terminated) and the
  unfinished tasks are retried on a fresh pool;
* **worker death** (``BrokenProcessPool``) is detected, completed results
  are harvested, and the casualties retried with exponential backoff;
* tasks that exhaust ``max_retries`` pool attempts fall back to
  **in-process** execution, so an irrecoverable pool degrades to the serial
  path instead of failing the run.

Every task function used with this module is deterministic given its task
value (per-trace seeds travel inside the tasks), so a retry — on a fresh
pool or in-process — reproduces the exact floats the first attempt would
have produced: supervised results are bit-identical to a clean serial run
whenever every task eventually succeeds.

Task-level exceptions (the function itself raising, as opposed to the pool
dying) are *not* retried here — they propagate to the caller, whose
``on_error`` policy decides (the engine catches them inside the worker and
returns structured faults instead).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

from .faults import FaultLog, PoolFault

__all__ = ["SupervisorConfig", "run_supervised"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for :func:`run_supervised`.

    ``timeout_s=None`` disables the watchdog (a hung worker then blocks,
    as before).  ``max_retries`` counts *pool* attempts per task beyond the
    first; once exhausted the task runs in-process.  ``backoff_s`` is the
    base of the exponential backoff between pool attempts.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not (
            self.timeout_s > 0 and math.isfinite(self.timeout_s)
        ):
            raise ValueError(
                f"timeout_s must be finite and positive, got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff_s >= 0 and math.isfinite(self.backoff_s)):
            raise ValueError(
                f"backoff_s must be finite and >= 0, got {self.backoff_s}"
            )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if a worker is hung.

    ``shutdown`` alone joins workers, which never returns while one is
    stuck; terminate them first.  ``_processes`` is private but stable
    across the CPythons we support, and the guard keeps us safe if it
    moves.
    """
    try:
        processes = list(getattr(pool, "_processes", {}).values())
    except Exception:
        processes = []
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # repro: ignore[HYG602] -- process already gone
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # repro: ignore[HYG602] -- best-effort teardown
        pass


def run_supervised(
    fn: Callable[[Any], Any],
    tasks: list[Any],
    *,
    workers: int,
    mp_context: Any = None,
    config: SupervisorConfig | None = None,
    fault_log: FaultLog | None = None,
) -> list[Any]:
    """Map ``fn`` over ``tasks`` on a supervised process pool.

    Returns results in task order.  Pool-level failures (worker death,
    shard timeouts, an uncreatable pool) are retried up to
    ``config.max_retries`` times with exponential backoff and then served
    by in-process execution; each incident is recorded as a
    :class:`~repro.runtime.faults.PoolFault` on ``fault_log``.  Exceptions
    raised by ``fn`` itself propagate unchanged.
    """
    config = config or SupervisorConfig()
    n = len(tasks)
    results: list = [None] * n
    done = [False] * n
    pending = list(range(n))
    attempt = 0

    while pending and attempt <= config.max_retries:
        if attempt:
            time.sleep(min(config.backoff_s * (2 ** (attempt - 1)), 2.0))
        failed, fault = _pool_attempt(
            fn, tasks, pending, results, done, workers, mp_context, config
        )
        if fault is not None and fault_log is not None:
            recovered = (
                "pool-retry" if attempt < config.max_retries else "in-process"
            )
            fault_log.record_pool(
                PoolFault(
                    kind=fault[0],
                    tasks=tuple(failed),
                    error_type=fault[1],
                    message=fault[2],
                    retries=attempt,
                    recovered=recovered,
                )
            )
        pending = failed
        attempt += 1

    # Pool attempts exhausted (or the pool could never be built): the
    # survivors run in-process.  fn is deterministic per task, so these
    # results are bit-identical to what a healthy pool would have returned.
    for idx in pending:
        results[idx] = fn(tasks[idx])
        done[idx] = True
    return results


def _pool_attempt(
    fn: Callable[[Any], Any],
    tasks: list[Any],
    pending: list[int],
    results: list[Any],
    done: list[bool],
    workers: int,
    mp_context: Any,
    config: SupervisorConfig,
) -> "tuple[list[int], tuple[str, str, str] | None]":
    """One pool round over ``pending``; returns ``(failed, fault_info)``.

    ``fault_info`` is ``None`` on a clean round, else a ``(kind,
    error_type, message)`` triple describing the first incident.  Completed
    futures are always harvested — even when the round dies halfway — so a
    retry only re-runs genuine casualties.
    """
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=mp_context
        )
    except Exception as exc:
        return list(pending), ("pool-unavailable", type(exc).__name__, str(exc))

    fault = None
    failed: list[int] = []
    try:
        futures = {idx: pool.submit(fn, tasks[idx]) for idx in pending}
    except Exception as exc:  # pool broke during submission
        _kill_pool(pool)
        return list(pending), ("worker-death", type(exc).__name__, str(exc))

    abandoned = False
    for idx, future in futures.items():
        if abandoned:
            # The pool is being torn down; harvest whatever finished.
            if future.done():
                try:
                    results[idx] = future.result(timeout=0)
                    done[idx] = True
                    continue
                except Exception:  # repro: ignore[HYG602] -- falls through to failed
                    pass
            failed.append(idx)
            continue
        try:
            results[idx] = future.result(timeout=config.timeout_s)
            done[idx] = True
        except FutureTimeout:
            fault = (
                "timeout",
                "TimeoutError",
                f"shard exceeded timeout_s={config.timeout_s:g}",
            )
            failed.append(idx)
            abandoned = True
        except BrokenProcessPool as exc:
            fault = ("worker-death", type(exc).__name__, str(exc) or "worker died")
            failed.append(idx)
            abandoned = True
        # Task-level exceptions from fn propagate to the caller's policy
        # layer (the pool itself is still healthy; shut it down first).
        except Exception:
            _kill_pool(pool)
            raise

    if abandoned:
        _kill_pool(pool)
    else:
        pool.shutdown(wait=True)
    return failed, fault
