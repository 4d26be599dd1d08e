"""Causal-query layer: settings, counterfactual engine, evaluation."""

from .engine import (
    CounterfactualEngine,
    CounterfactualResult,
    PreparedCorpus,
    PreparedTrace,
    TraceCounterfactual,
    run_setting,
    run_setting_batch,
)
from .evaluation import (
    format_counterfactual_report,
    per_trace_series,
    scheme_summaries,
)
from .queries import Setting, cap_bitrate, change_abr, change_buffer, change_ladder

__all__ = [
    "CounterfactualEngine",
    "CounterfactualResult",
    "PreparedCorpus",
    "PreparedTrace",
    "Setting",
    "TraceCounterfactual",
    "cap_bitrate",
    "change_abr",
    "change_buffer",
    "change_ladder",
    "format_counterfactual_report",
    "per_trace_series",
    "run_setting",
    "run_setting_batch",
    "scheme_summaries",
]
