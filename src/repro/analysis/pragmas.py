"""Pragma and suppression comments understood by the lint engine.

Three comment forms steer the rules (all spelled ``# repro: ...`` so a
grep for the prefix finds every contract annotation in the tree):

* ``# repro: scratch`` — on a ``def`` line (or the line directly above
  it): the function is part of the allocation-free scratch hot path and
  :class:`~repro.analysis.rules.allocation.AllocationDiscipline` forbids
  allocating NumPy calls inside it.
* ``# repro: pool-worker`` — the function is dispatched onto forked pool
  workers; :class:`~repro.analysis.rules.pool_hygiene.PoolHygiene`
  forbids module-global mutation inside it.
* ``# repro: kernel-module`` — at module level: opts the whole file into
  the determinism rules even outside the ``repro.core`` / ``repro.tcp``
  / ``repro.player`` / ``repro.abr`` package paths (used by fixtures and
  out-of-tree kernels), and into
  :class:`~repro.analysis.rules.numerics.NoReassociatingReductions`
  (NUM201) like a file that assigns ``_CDEF``.  The per-lane core
  modules that :mod:`repro.player._fused` compiles in
  (:mod:`repro.tcp._compiled`, :mod:`repro.abr._decisions`) carry it.

and one suppression form, honoured by the driver:

* ``# repro: ignore[RULE1,RULE2]`` on the finding's line suppresses the
  named rules there; a bare ``# repro: ignore`` suppresses every rule on
  that line.
"""

from __future__ import annotations

import ast
import re

__all__ = [
    "function_has_pragma",
    "module_has_pragma",
    "pragma_lines",
    "suppressed_rules",
]

_PRAGMA_RE = re.compile(r"#\s*repro:\s*([a-z-]+)\s*$")
_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([^\]]*)\])?")


def pragma_lines(source: str, pragma: str) -> set[int]:
    """1-indexed lines carrying ``# repro: <pragma>``."""
    lines: set[int] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is not None and match.group(1) == pragma:
            lines.add(lineno)
    return lines


def function_has_pragma(
    node: ast.FunctionDef | ast.AsyncFunctionDef, lines: set[int]
) -> bool:
    """Whether ``node``'s def line (or the line above it) carries a pragma.

    The line above accommodates black-style signatures that leave no room
    for a trailing comment on the ``def`` line itself.  Decorated
    functions accept the pragma above the first decorator too.
    """
    first = node.lineno
    if node.decorator_list:
        first = min(first, min(d.lineno for d in node.decorator_list))
    return bool(lines & {node.lineno, first - 1, first})


def module_has_pragma(source: str, pragma: str) -> bool:
    """Whether the pragma appears anywhere at module level (any line)."""
    return bool(pragma_lines(source, pragma))


def suppressed_rules(line_text: str) -> set[str] | None:
    """Rule ids suppressed on this line, or ``None`` for no suppression.

    An empty set means "suppress everything" (bare ``# repro: ignore``).
    """
    match = _IGNORE_RE.search(line_text)
    if match is None:
        return None
    names = match.group(1)
    if names is None:
        return set()
    return {part.strip() for part in names.split(",") if part.strip()}
