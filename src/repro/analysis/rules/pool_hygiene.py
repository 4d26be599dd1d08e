"""Fork-pool hygiene rules (POOL5xx).

The corpus runtime dispatches work onto forked pool workers through
:mod:`repro.runtime.supervisor`.  A forked worker inherits a snapshot of
module globals; mutating them inside the worker silently diverges the
worker's world from the parent's (and from every sibling's), and the
write is lost when the worker exits.  The supported pattern is
read-only: workers read the ``_FORK_STATE`` snapshot the parent
installed and return results.

A function counts as a pool worker if it carries a
``# repro: pool-worker`` pragma, or if its name is passed as the first
argument to a ``run_supervised(...)`` call in the same module.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..pragmas import function_has_pragma, pragma_lines
from . import Rule, register

__all__ = ["NoWorkerGlobalMutation"]

_DISPATCHERS = {"run_supervised"}


def _dispatched_names(tree: ast.Module) -> set[str]:
    """Function names passed (as first argument) to a pool dispatcher."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        callee = node.func
        callee_name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr
            if isinstance(callee, ast.Attribute)
            else None
        )
        if callee_name in _DISPATCHERS and isinstance(node.args[0], ast.Name):
            names.add(node.args[0].id)
    return names


@register
class NoWorkerGlobalMutation(Rule):
    id = "POOL501"
    description = (
        "functions dispatched through runtime.supervisor pools must not "
        "mutate module globals; workers read the parent's _FORK_STATE "
        "snapshot and return results"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        marked = pragma_lines(source, "pool-worker")
        dispatched = _dispatched_names(tree)
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            is_worker = node.name in dispatched or function_has_pragma(node, marked)
            if not is_worker:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    names = ", ".join(inner.names)
                    findings.append(
                        self.finding(
                            path,
                            inner,
                            f"pool worker {node.name!r} declares "
                            f"'global {names}'; forked workers must not "
                            f"mutate module state — the write is invisible "
                            f"to the parent and to sibling workers",
                        )
                    )
        return findings
