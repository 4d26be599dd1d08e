"""Allocation-discipline rules (ALLOC3xx).

A function marked with a ``# repro: scratch`` pragma on (or directly
above) its ``def`` line allocates no array: every array it touches is
carried in a reusable scratch struct.  In the tree these are per-chunk
steps of the lockstep download that run on every lane of every chunk,
the masked slow-start-restart loop and the result fill of
:class:`~repro.tcp.connection.BatchTCPConnection`.  A stray ``np.zeros``
inside one of them adds per-call allocator traffic and GC pressure
without failing any functional test.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..pragmas import function_has_pragma, pragma_lines
from . import Rule, _iter_function_defs, register

__all__ = ["AllocationDiscipline"]

# NumPy entry points that always (or by default) allocate a fresh array.
_ALLOCATORS = {
    "arange",
    "array",
    "concatenate",
    "copy",
    "empty",
    "empty_like",
    "eye",
    "full",
    "full_like",
    "hstack",
    "linspace",
    "ones",
    "ones_like",
    "repeat",
    "stack",
    "tile",
    "vstack",
    "zeros",
    "zeros_like",
}

_NUMPY_NAMES = {"np", "numpy"}


@register
class AllocationDiscipline(Rule):
    id = "ALLOC301"
    description = (
        "functions marked '# repro: scratch' are on the allocation-free "
        "hot path and must not call array-allocating NumPy functions"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        marked = pragma_lines(source, "scratch")
        if not marked:
            return []
        findings: list[Finding] = []
        for func in _iter_function_defs(tree):
            if not function_has_pragma(func, marked):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in _ALLOCATORS
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in _NUMPY_NAMES
                ):
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"np.{callee.attr}(...) allocates inside scratch "
                            f"function {func.name!r}; reuse a scratch buffer "
                            f"or drop the '# repro: scratch' pragma",
                        )
                    )
        return findings
