"""Numerics-safety rules (NUM2xx).

The parity contract between the Python mirrors and the native backends
only holds while every backend evaluates the same floating-point
expression tree.  Two things break that silently:

* reassociating reductions on the Python side (``math.fsum``, builtin
  ``sum``) — bit-different from the sequential accumulation loops the C
  side runs;
* a C build that drops IEEE strictness (``-ffast-math`` or fused
  multiply-adds), which reassociates on the native side instead.

These rules pin both ends: every function of a kernel module
accumulates with explicit loops, and every ``CC_FLAGS``-style flag list
keeps ``-fno-fast-math`` and ``-ffp-contract=off``.  A kernel module is
a file that assigns ``_CDEF`` or carries the module-level
``# repro: kernel-module`` pragma; the per-lane core modules that a
``_CDEF`` module compiles into its library carry the pragma.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..pragmas import module_has_pragma
from . import Rule, _iter_function_defs, register

__all__ = ["CcFlagsStrict", "KernelBuildImport", "NoReassociatingReductions"]

_REDUCTIONS = {"sum", "fsum"}

_REQUIRED_FLAGS = ("-fno-fast-math", "-ffp-contract=off")


def _assigns_cdef(tree: ast.Module) -> bool:
    """Whether the module assigns ``_CDEF`` at top level (a kernel module)."""
    return any(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_CDEF" for t in node.targets)
        for node in tree.body
    )


@register
class NoReassociatingReductions(Rule):
    id = "NUM201"
    description = (
        "functions of kernel modules (files assigning _CDEF or carrying the "
        "kernel-module pragma) must not use reassociating reductions "
        "(builtin sum, math.fsum); accumulate with an explicit loop so "
        "mirror and C run the same expression tree"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        if not (_assigns_cdef(tree) or module_has_pragma(source, "kernel-module")):
            return []
        findings: list[Finding] = []
        seen: set[int] = set()
        # Innermost function first, so a nested def's calls are reported
        # once and under its own name.
        for func in reversed(list(_iter_function_defs(tree))):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                seen.add(id(node))
                callee = node.func
                name: str | None = None
                if isinstance(callee, ast.Name) and callee.id in _REDUCTIONS:
                    name = callee.id
                elif isinstance(callee, ast.Attribute) and callee.attr == "fsum":
                    name = "fsum"
                if name is not None:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{name}(...) inside kernel-module function "
                            f"{func.name!r} reassociates the accumulation; use "
                            f"an explicit loop to match the C backend "
                            f"bit-for-bit",
                        )
                    )
        return findings


@register
class CcFlagsStrict(Rule):
    id = "NUM202"
    description = (
        "compiler flag lists (names containing CC_FLAGS) must carry "
        "-fno-fast-math and -ffp-contract=off so the native backends stay "
        "IEEE-strict"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Name) and "CC_FLAGS" in target.id):
                    continue
                if not isinstance(node.value, (ast.List, ast.Tuple)):
                    continue
                flags = {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
                missing = [f for f in _REQUIRED_FLAGS if f not in flags]
                if missing:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{target.id} is missing {', '.join(missing)} — "
                            f"without them the C backend may reassociate or "
                            f"fuse float operations and drift from the mirror",
                        )
                    )
        return findings


@register
class KernelBuildImport(Rule):
    id = "NUM203"
    description = (
        "kernel modules (files defining _CDEF) must build through "
        "repro.util.compiled so the shared IEEE-strict CC_FLAGS apply"
    )

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        if not _assigns_cdef(tree):
            return []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module.endswith("util.compiled") or node.module == "compiled":
                    return []
            if isinstance(node, ast.Import):
                if any(a.name.endswith("util.compiled") for a in node.names):
                    return []
        return [
            self.finding(
                path,
                None,
                "module defines _CDEF but does not import from "
                "repro.util.compiled; ad-hoc builds bypass the shared "
                "IEEE-strict CC_FLAGS",
            )
        ]
