"""Lint rule registry.

Every rule is a class with three class attributes — ``id`` (stable,
referenced by ``# repro: ignore[...]`` suppressions), ``severity`` and
``description`` — and a ``check(tree, source, path)`` method returning
:class:`~repro.analysis.findings.Finding` records.  Register a rule with
the :func:`register` decorator; the driver instantiates each registered
class once per process and runs every rule over every file.

Shipped families (see the acceptance fixtures in
``tests/fixtures/lint/``):

========  ==============================================================
KM1xx     kernel-mirror consistency: the ``FORCE_PYTHON`` mirror, the
          cffi ``_CDEF`` block, the embedded C source and the
          backend-dispatching entry point of every compiled kernel must
          agree on names, argument order/count and array dtypes.
NUM2xx    numerics safety: no reassociating reductions inside kernel
          modules; C builds must stay IEEE-strict
          (``-fno-fast-math -ffp-contract=off``).
ALLOC3xx  allocation discipline: no array-allocating NumPy calls inside
          ``# repro: scratch`` functions.
DET4xx    determinism: no ambient RNG / wall-clock entropy inside the
          kernel packages; seeds flow through
          :func:`repro.util.rng.spawn_seeds`.
POOL5xx   fork-pool hygiene: no module-global mutation in functions
          dispatched through :mod:`repro.runtime.supervisor`.
HYG6xx    general hygiene: bare/silent excepts, mutable default
          arguments, unused imports.
========  ==============================================================

To add a rule: subclass :class:`Rule` in a module under this package,
decorate it with ``@register``, import the module below, give it a
fixture in ``tests/fixtures/lint/`` that makes it fire exactly once, and
keep ``repro lint src/`` clean at HEAD.
"""

from __future__ import annotations

import ast
from typing import Iterator, Type

from ..findings import Finding, Severity

__all__ = ["Rule", "all_rules", "get_rule", "register"]


class Rule:
    """Base class for lint rules."""

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        """Findings for one parsed file.

        ``tree`` is the parsed module, ``source`` the exact text it was
        parsed from and ``path`` the (display) path findings should
        carry.  Rules must not read the filesystem: everything they need
        is in the arguments, which keeps them runnable on fixtures and
        in-memory snippets.
        """
        raise NotImplementedError

    def finding(
        self, path: str, node: ast.AST | None, message: str, line: int = 1
    ) -> Finding:
        """Build a finding anchored at ``node`` (or at ``line``)."""
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", 0) + 1
        else:
            col = 1
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.id,
            severity=self.severity,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """The registered rule with this id (KeyError with the known ids)."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}") from None


def _iter_function_defs(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# Import for side effect: each module registers its rules at import time.
from . import allocation as _allocation  # noqa: E402
from . import determinism as _determinism  # noqa: E402
from . import hygiene as _hygiene  # noqa: E402
from . import kernel_mirror as _kernel_mirror  # noqa: E402
from . import numerics as _numerics  # noqa: E402
from . import pool_hygiene as _pool_hygiene  # noqa: E402

_ = (_allocation, _determinism, _hygiene, _kernel_mirror, _numerics, _pool_hygiene)
