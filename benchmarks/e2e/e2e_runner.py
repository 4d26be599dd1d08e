"""Runs one workload and reduces it to the benchmark's metrics.

A run has four steps:

1. setup: imports and the compiled-kernel build (timed by the caller from
   process start), the workload's own setup, and one untimed warm-up rep
   at full size.  Untraced runs set the workload up ``SETUP_REPEATS``
   times and count the median of those in ``setup_s``;
2. timed reps, one after another, until the next would end past the
   window (never fewer than the workload's ``min_reps``);
3. in a traced run (no clock) every second rep is traced and asks
   the same question as the untraced rep before it: the traced reps give
   the per-layer figures, and the pairs the tracing overhead;
4. gates: complete and repeatable answers, and the workload's own check
   against the scalar reference path.

The end-to-end times of an untraced run are in reference seconds, read
off a running :class:`~e2e_clock.HostClock`; the wall times are kept in
the record's ``detail``.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from pathlib import Path

from e2e_tracing import LAYER_METRICS, ROOT_SPAN, Tracer, layer_metrics

__all__ = ["E2E_METRICS", "SETUP_REPEATS", "kernel_backends", "run_workload"]

SETUP_REPEATS = 3

E2E_METRICS: "tuple[tuple[str, str], ...]" = (
    ("answers_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
"""Every end-to-end metric with its unit, in report order."""


def kernel_backends() -> "dict[str, str]":
    """Effective ``backend()`` of each kernel module (builds them if needed)."""
    from repro.abr import _decisions
    from repro.core import _kernels
    from repro.player import _fused
    from repro.tcp import _compiled

    return {m.__name__: m.backend() for m in (_compiled, _decisions, _fused, _kernels)}


def run_workload(workload, seed: int, seconds: float, clock, workdir: Path, started: float):
    """Run ``workload``; returns ``(record, spans)``.

    ``clock`` is a started :class:`~e2e_clock.HostClock` for an untraced
    run, or ``None`` for a traced one.  ``started`` is the
    ``perf_counter`` reading at process start, so ``setup_s`` includes
    imports and the kernel build.
    """
    workdir = Path(workdir)
    setup_start = time.perf_counter()
    tracer = None if clock is not None else Tracer()

    setup_spans = []
    for i in range(SETUP_REPEATS if tracer is None else 1):
        t = time.perf_counter()
        if tracer is None:
            workload.setup(seed, workdir / f"setup{i}")
        else:
            with tracer.installed():
                workload.setup(seed, workdir / f"setup{i}")
        setup_spans.append((t, time.perf_counter()))
    t = time.perf_counter()
    warm = workload.warmup()
    warmup_span = (t, time.perf_counter())

    plain, traced, outcomes = [], [], []
    error = None
    window = time.perf_counter()
    i = 0
    while True:
        try:
            if tracer is not None and i % 2 == 1:
                # The traced rep asks the same question as the untraced
                # one before it, so the pair gives the tracing overhead.
                tracer.rep = i
                with tracer.installed():
                    rep = tracer.traced(workload.rep, ROOT_SPAN)
                    t = time.perf_counter()
                    outcomes.append(rep(i // 2))
                    traced.append((t, time.perf_counter()))
            else:
                t = time.perf_counter()
                outcomes.append(workload.rep(i if tracer is None else i // 2))
                plain.append((t, time.perf_counter()))
        except Exception:
            error = traceback.format_exc()
            break
        i += 1
        elapsed = time.perf_counter() - window
        if i >= max(workload.min_reps, 2) and elapsed * (i + 1) / i > seconds:
            break
    window_end = time.perf_counter()

    attempted = sum(o.expected for o in outcomes)
    failed = sum(o.expected - o.answered + o.faults for o in outcomes)
    if error is not None:
        attempted += warm.expected
        failed += warm.expected
    gates = {
        "no_exception": error is None,
        "answers_complete": failed == 0 and warm.answered == warm.expected and warm.faults == 0,
    }
    if workload.same_question:
        gates["answers_repeat"] = all(o.digest == warm.digest for o in outcomes)
    t = time.perf_counter()
    if error is None:
        gates.update(workload.gates())
    gates_s = time.perf_counter() - t

    def wall(spans):
        return [t1 - t0 for t0, t1 in spans]

    detail = {
        "reps": len(plain),
        "traced_reps": len(traced),
        "rep_s": wall(plain),
        "traced_rep_s": wall(traced),
        "setup": {
            "imports_build_s": setup_start - started,
            "workload_setup_s": wall(setup_spans),
            "warmup_s": warmup_span[1] - warmup_span[0],
        },
        "gates_s": gates_s,
        "digest": warm.digest,
        "answer_err": warm.error,
        "answer_err_unit": workload.error_unit,
        "gates": gates,
        "error": error,
    }
    if tracer is None:
        ref = clock.ref_seconds
        rep_ref = [ref(t0, t1) for t0, t1 in plain]
        setup_s = (
            ref(started, setup_start)
            + statistics.median(ref(t0, t1) for t0, t1 in setup_spans)
            + ref(*warmup_span)
        )
        # The client's answer rate over the whole window.  Its spread over
        # seeds is about a fifth below that of the median rep's rate.
        metrics = {
            "answers_per_s": sum(o.expected for o in outcomes) / sum(rep_ref) if plain else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(E2E_METRICS)
        spans = []
        detail["rep_ref_s"] = rep_ref
        detail["host_speed"] = clock.speed(window, window_end)
        detail["clock_samples"] = clock.samples
    else:
        metrics = _layer_figures(tracer, workload, outcomes, detail)
        units = dict(LAYER_METRICS)
        spans = tracer.spans
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(tracer is not None),
        "correct": all(gates.values()) and failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
    }
    return record, spans


def _layer_figures(tracer, workload, outcomes, detail) -> "dict[str, float]":
    """Median per-rep layer figures over the traced reps."""
    by_rep: "dict[int, list]" = {}
    for span in tracer.spans:
        by_rep.setdefault(span.rep, []).append(span)
    in_setup = layer_metrics(by_rep.pop(-1, []))
    per_rep = [layer_metrics(spans) for spans in by_rep.values()]
    figures = {
        name: statistics.median(rep[name] for rep in per_rep) if per_rep else 0.0
        for name, _ in LAYER_METRICS
    }
    figures["runtime.ckpt_save_s"] = in_setup["runtime.ckpt_save_s"]
    figures["runtime.ckpt_mb"] = workload.checkpoint_bytes() / 1e6
    traced_outcomes = outcomes[1::2]
    if traced_outcomes:
        figures["runtime.faults"] = statistics.median(o.faults for o in traced_outcomes)
    pairs = zip(detail["traced_rep_s"], detail["rep_s"])
    if detail["traced_rep_s"]:
        figures["trace.overhead_frac"] = statistics.median(t / p for t, p in pairs) - 1.0
    return figures
