"""Static analysis for the kernel contracts (``repro lint``).

The repo's two native kernel modules (:mod:`repro.player._fused`, which
compiles in the per-lane cores of :mod:`repro.tcp._compiled` and
:mod:`repro.abr._decisions`, and :mod:`repro.core._kernels`) rest on
hand-maintained invariants — Python mirror ↔ native kernel structural
parity, IEEE-strict arithmetic in the C transcriptions, allocation-free
scratch paths, seed discipline — that the dynamic parity suites only
catch *after* a drift has shipped.  This
package checks them statically, before any benchmark runs:

* :mod:`repro.analysis.rules` — the rule registry.  Each rule is a class
  with an ``id``, a ``severity`` and a ``check(tree, source, path)``
  returning :class:`~repro.analysis.findings.Finding` records; see that
  module for the shipped rule families (kernel-mirror consistency,
  numerics safety, allocation discipline, determinism, fork-pool hygiene
  and general hygiene).
* :mod:`repro.analysis.driver` — walks the given paths, applies the
  rules, honours ``# repro: ignore[RULE]`` line suppressions and renders
  findings as text or JSON.  ``repro lint src/`` is the CLI entry point;
  it exits non-zero when any finding of severity ``error`` survives.

Pragmas (scanned by :mod:`repro.analysis.pragmas`) opt functions into the
stricter rule families::

    def _download_scratch(...):  # repro: scratch
        ...                      # ALLOC301: no allocating NumPy calls

    def _run_shard(...):  # repro: pool-worker
        ...               # POOL501: no module-global mutation

and ``# repro: ignore[ALLOC301]`` on a finding's line suppresses it (a
bare ``# repro: ignore`` suppresses every rule on that line).
"""

from __future__ import annotations

from .driver import (
    LintResult,
    lint_file,
    lint_paths,
    lint_source,
    main,
    render_json,
    render_text,
)
from .findings import Finding, Severity
from .rules import Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
]
