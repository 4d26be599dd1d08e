"""Outside-in span tracing for the end-to-end benchmark.

The benchmark times the pipeline's layers from outside, so ``src/`` carries
no instrumentation.  :class:`Tracer` replaces the module and class
attributes that callers look up at call time (``TARGETS``, e.g.
``repro.causal.engine.run_setting_batch``) with ``functools.wraps`` timing
wrappers, and restores the originals afterwards.  Every workload runs in
one process, so every span is recorded in it.

A span is ``(id, parent, name, start_ns, end_ns, pid, rep, value)``.
``value`` is a number a probe reads off the call: lanes of a replay,
1 for a checkpoint hit, posterior bytes.  A span's self time is its
duration minus the durations of its children, so the self times of the
spans under a root sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from typing import Callable, NamedTuple

__all__ = [
    "LAYER_METRICS",
    "ROOT_SPAN",
    "Span",
    "Tracer",
    "chrome_trace",
    "layer_metrics",
    "self_times",
]

ROOT_SPAN = "bench.rep"
"""Name of the span the runner puts around each traced rep."""


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    pid: int
    rep: int
    value: float | None


def _lanes(args, kwargs, result):
    return args[0].batch.n_lanes


def _one(args, kwargs, result):
    return 1


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _root_nbytes(array) -> "tuple[int, int]":
    while array.base is not None and hasattr(array.base, "nbytes"):
        array = array.base
    return id(array), array.nbytes


def _posterior_bytes(args, kwargs, result):
    """Bytes of the distinct ``xi``/``gamma`` buffers behind the posteriors.

    Posteriors of one stacked solve are views into shared tensors, so
    buffers are counted once each.
    """
    posteriors = result if isinstance(result, list) else [result]
    buffers = dict(
        _root_nbytes(array)
        for posterior in posteriors
        for array in (posterior.smoothing.xi, posterior.smoothing.gamma)
    )
    return sum(buffers.values())


# (module, attribute looked up by callers, layer time metric, probe).  A
# layer of None means the span's caller decides: a session run under
# Setting-A deployment is deploy time, any other is replay time.
TARGETS: "tuple[tuple[str, str, str | None, Callable | None], ...]" = (
    ("repro.causal.engine", "check_corpus", "net.validate_s", None),
    ("repro.causal.engine", "validate_corpus", "net.validate_s", None),
    ("repro.causal.engine", "run_setting_batch", "player.deploy_s", None),
    ("repro.causal.engine", "run_setting", None, _one),
    ("repro.player.batch_session", "BatchStreamingSession.run", None, _lanes),
    ("repro.causal.engine", "compute_metrics_batch", "player.metrics_s", None),
    ("repro.tcp.connection", "BatchTCPConnection.download_batch", "tcp.download_s", None),
    ("repro.core.interventional", "estimate_download_time", "tcp.estimate_s", None),
    ("repro.abr.bba", "BBAAlgorithm.choose_quality_batch", "abr.decide_s", None),
    ("repro.abr.bola", "BOLAAlgorithm.choose_quality_batch", "abr.decide_s", None),
    ("repro.abr.mpc", "MPCAlgorithm.choose_quality_batch", "abr.decide_s", None),
    ("repro.core.abduction", "build_problems_batch", "core.emission_s", None),
    ("repro.core.abduction", "build_problem", "core.emission_s", None),
    ("repro.core.abduction", "viterbi_path_batch", "core.viterbi_s", None),
    ("repro.core.abduction", "viterbi_path", "core.viterbi_s", None),
    ("repro.core.abduction", "forward_backward_batch", "core.fb_s", None),
    ("repro.core.abduction", "forward_backward", "core.fb_s", None),
    ("repro.core.abduction", "sample_state_paths_stack", "core.ffbs_s", None),
    ("repro.core.abduction", "sample_state_paths", "core.ffbs_s", None),
    ("repro.causal.engine", "sample_traces_batch", "core.interp_s", None),
    ("repro.core.abduction", "VeritasAbduction.solve", "core.solve_s", _posterior_bytes),
    ("repro.core.abduction", "VeritasAbduction.solve_batch", "core.solve_s", _posterior_bytes),
    ("repro.core.interventional", "VeritasDownloadPredictor.predict", "core.predict_s", None),
    ("repro.causal.engine", "baseline_trace", "baselines.baseline_s", None),
    ("repro.causal.engine", "CounterfactualEngine.evaluate_corpus", "causal.self_s", None),
    ("repro.causal.engine", "CounterfactualEngine.prepare_corpus", "causal.self_s", None),
    ("repro.causal.engine", "CounterfactualEngine.evaluate_many", "causal.self_s", None),
    ("repro.runtime.checkpoint", "CheckpointStore.load", "runtime.ckpt_load_s", _hit),
    ("repro.runtime.checkpoint", "CheckpointStore.save", "runtime.ckpt_save_s", None),
)


def _span_name(module: str, attribute: str) -> str:
    return f"{module.removeprefix('repro.')}.{attribute}"


_LAYER = {_span_name(m, a): layer for m, a, layer, _ in TARGETS}
_DEPLOY_CALLERS = {
    "causal.engine.run_setting_batch",
    "causal.engine.CounterfactualEngine.prepare_corpus",
}
_REPLAY_CALLERS = {"causal.engine.CounterfactualEngine.evaluate_many"}
_COUNTED = {
    "tcp.connection.BatchTCPConnection.download_batch": "tcp.download_calls",
    "core.interventional.estimate_download_time": "tcp.estimate_calls",
    "core.abduction.viterbi_path_batch": "core.stacks",
    "core.abduction.VeritasAbduction.solve": "core.solve_calls",
}

LAYER_METRICS: "tuple[tuple[str, str], ...]" = (
    ("net.validate_s", "s"),
    ("player.deploy_s", "s"),
    ("player.replay_s", "s"),
    ("player.replay_calls", "count"),
    ("player.lanes", "count"),
    ("player.metrics_s", "s"),
    ("tcp.download_s", "s"),
    ("tcp.download_calls", "count"),
    ("tcp.estimate_s", "s"),
    ("tcp.estimate_calls", "count"),
    ("abr.decide_s", "s"),
    ("abr.decide_calls", "count"),
    ("core.emission_s", "s"),
    ("core.viterbi_s", "s"),
    ("core.fb_s", "s"),
    ("core.ffbs_s", "s"),
    ("core.interp_s", "s"),
    ("core.solve_s", "s"),
    ("core.predict_s", "s"),
    ("core.stacks", "count"),
    ("core.solve_calls", "count"),
    ("core.posterior_mb", "MB"),
    ("baselines.baseline_s", "s"),
    ("causal.self_s", "s"),
    ("runtime.ckpt_load_s", "s"),
    ("runtime.ckpt_hits", "count"),
    ("runtime.ckpt_save_s", "s"),
    ("runtime.ckpt_mb", "MB"),
    ("runtime.faults", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
)
"""Every per-layer metric with its unit, in report order."""


class Tracer:
    """Records spans around the ``TARGETS`` while installed.

    ``rep`` tags every span recorded from now on.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.rep = -1
        self._stack: list[int] = []
        self._next = 0
        self._saved: list = []

    # ------------------------------------------------------------------
    def traced(self, fn: Callable, name: str, probe: Callable | None = None):
        """``fn`` wrapped so every call records one span named ``name``."""
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer._next += 1
            sid = tracer._next
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, None)
                raise
            value = probe(args, kwargs, result) if probe is not None else None
            tracer._close(sid, parent, name, start, value)
            return result

        return wrapper

    def _close(self, sid, parent, name, start, value) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(
            Span(sid, parent, name, start, end, self.pid, self.rep, value)
        )

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every ``TARGETS`` attribute for the duration of the block."""
        try:
            for module_name, attribute, _, probe in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                self._saved.append((owner, leaf, original))
                name = _span_name(module_name, attribute)
                setattr(owner, leaf, self.traced(original, name, probe))
            yield self
        finally:
            while self._saved:
                owner, leaf, original = self._saved.pop()
                setattr(owner, leaf, original)


# ----------------------------------------------------------------------
def self_times(spans: "list[Span]") -> "dict[int, int]":
    """Self time (ns) of every span: duration minus children."""
    by_id = {s.id: s for s in spans}
    own = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            own[parent.id] -= s.end_ns - s.start_ns
    return own


def _session_layer(span: Span, by_id: "dict[int, Span]") -> str:
    """Deploy or replay, by the nearest caller that tells them apart."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name in _DEPLOY_CALLERS:
            return "player.deploy_s"
        if parent.name in _REPLAY_CALLERS:
            return "player.replay_s"
        parent = by_id.get(parent.parent)
    return "player.replay_s"


def layer_metrics(spans: "list[Span]") -> "dict[str, float]":
    """Per-layer figures of one rep's spans.

    Times are summed self times, so a layer's time excludes the layers it
    calls.  ``trace.overhead_frac``, ``runtime.faults`` and the
    checkpoint-write figures are not span figures and stay 0 here; the
    runner fills them in.
    """
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    root_ns = root_self_ns = 0
    for s in spans:
        duration = s.end_ns - s.start_ns
        if s.name == ROOT_SPAN:
            root_ns += duration
            root_self_ns += own[s.id]
            continue
        layer = _LAYER[s.name]
        if layer is None:
            layer = _session_layer(s, by_id)
            if layer == "player.replay_s":
                out["player.replay_calls"] += 1
                out["player.lanes"] += s.value
        out[layer] += own[s.id] / 1e9
        counter = _COUNTED.get(s.name)
        if counter is not None:
            out[counter] += 1
        if layer == "abr.decide_s":
            out["abr.decide_calls"] += 1
        elif layer == "core.solve_s":
            parent = by_id.get(s.parent)
            if parent is None or parent.name != "core.abduction.VeritasAbduction.solve_batch":
                out["core.posterior_mb"] += s.value / 1e6
        elif layer == "runtime.ckpt_load_s":
            out["runtime.ckpt_hits"] += s.value
    if root_ns:
        out["trace.unattributed_frac"] = root_self_ns / root_ns
    return out


def chrome_trace(spans: "list[Span]", metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (opens in Perfetto): one thread per rep."""
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": s.start_ns / 1e3,
            "dur": (s.end_ns - s.start_ns) / 1e3,
            "pid": s.pid,
            "tid": s.rep,
            "args": {} if s.value is None else {"value": s.value},
        }
        for s in spans
    ]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }
