"""Kernel-mirror consistency rules (KM1xx).

A compiled kernel module carries four coupled artefacts:

1. a pure-Python **mirror** (``_*_mirror``) — the ``FORCE_PYTHON``
   parity oracle and the fallback when the C build is unavailable;
2. a cffi ``_CDEF`` declaration block for the C ABI;
3. the embedded **C transcription** of the mirror;
4. a backend-dispatching **entry point** (same name as the C function)
   that routes to the cc build when it loaded, else to the mirror.

The parity suites prove the *values* agree; these rules prove the
*structure* agrees — names, argument order/count and array dtypes — so a
drift (an argument renamed in one copy, a reordered parameter, an
``int64`` array passed where the C side reads ``double``) is caught at
lint time instead of as a bit-mismatch three layers deep.  Any module
that assigns a ``_CDEF`` string is treated as a kernel module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from ..cparse import CParam, CParseError, find_c_definition, parse_cdef
from ..findings import Finding
from . import Rule, register

__all__ = [
    "CcCallAgreement",
    "CSourceAgreement",
    "DispatcherExists",
    "ForcePythonHook",
    "MirrorAgreement",
]

_MIRROR_NAME_RE = re.compile(r"^_\w*_mirror$")


@dataclass
class _KernelModule:
    """Everything the KM rules need about one kernel module, parsed once."""

    cdef_node: ast.Assign
    cdef_error: str | None = None
    functions: dict[str, list[CParam]] = field(default_factory=dict)
    dispatchers: dict[str, ast.FunctionDef] = field(default_factory=dict)
    mirrors: dict[str, ast.FunctionDef] = field(default_factory=dict)


def _analyze(tree: ast.Module) -> _KernelModule | None:
    """Parse the module's ``_CDEF`` and index dispatchers/mirrors."""
    cdef_node: ast.Assign | None = None
    cdef_text: str | None = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "_CDEF":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    cdef_node = node
                    cdef_text = value.value
    if cdef_node is None or cdef_text is None:
        return None

    module = _KernelModule(cdef_node=cdef_node)
    try:
        module.functions = parse_cdef(cdef_text)
    except CParseError as exc:
        module.cdef_error = str(exc)
        return module

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if node.name in module.functions:
                module.dispatchers[node.name] = node
            elif _MIRROR_NAME_RE.match(node.name):
                module.mirrors[node.name] = node
    return module


def _positional_params(node: ast.FunctionDef) -> list[str]:
    return [a.arg for a in node.args.posonlyargs + node.args.args]


def _lib_calls(dispatcher: ast.FunctionDef, name: str) -> list[ast.Call]:
    """Calls of the form ``<obj>.<name>(...)`` inside the dispatcher."""
    calls: list[ast.Call] = []
    for node in ast.walk(dispatcher):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        ):
            calls.append(node)
    return calls


def _mirror_calls(dispatcher: ast.FunctionDef) -> dict[str, list[ast.Call]]:
    """Mirror call sites inside the dispatcher, keyed by mirror name."""
    calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(dispatcher):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and _MIRROR_NAME_RE.match(node.func.id)
        ):
            calls.setdefault(node.func.id, []).append(node)
    return calls


def _buffer_dtype(node: ast.expr) -> str | None:
    """The cffi buffer ctype of an argument, or ``None`` for scalars.

    Matches both spellings used by the kernel modules::

        fb("double[]", array)
        ffi.from_buffer("long long[]", array)
    """
    if not isinstance(node, ast.Call) or not node.args:
        return None
    func = node.func
    named_fb = isinstance(func, ast.Name) and func.id == "fb"
    attr_fb = isinstance(func, ast.Attribute) and func.attr == "from_buffer"
    if not (named_fb or attr_fb):
        return None
    first = node.args[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value.removesuffix("[]").strip()
    return "<dynamic>"


class _KernelRule(Rule):
    """Base: run :meth:`check_module` on files that define ``_CDEF``."""

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        module = _analyze(tree)
        if module is None:
            return []
        if module.cdef_error is not None:
            # Every KM rule is blind without a parsed cdef; only KM101
            # reports the parse failure so it surfaces exactly once.
            if self.id == "KM101":
                return [
                    self.finding(
                        path, module.cdef_node, f"_CDEF does not parse: {module.cdef_error}"
                    )
                ]
            return []
        return self.check_module(module, source, path)

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        raise NotImplementedError


@register
class DispatcherExists(_KernelRule):
    id = "KM101"
    description = (
        "every function declared in a kernel module's _CDEF must have a "
        "same-named module-level Python dispatcher (and the _CDEF must parse)"
    )

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        return [
            self.finding(
                path,
                module.cdef_node,
                f"_CDEF declares {name!r} but the module defines no "
                f"dispatcher function of that name",
            )
            for name in module.functions
            if name not in module.dispatchers
        ]


@register
class CSourceAgreement(_KernelRule):
    id = "KM102"
    description = (
        "the embedded C source must define every _CDEF function with an "
        "identical parameter list (types, names, order)"
    )

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        for name, declared in module.functions.items():
            try:
                defined = find_c_definition(source, name)
            except CParseError as exc:
                findings.append(
                    self.finding(
                        path,
                        module.cdef_node,
                        f"C definition of {name!r} does not parse: {exc}",
                    )
                )
                continue
            if defined is None:
                findings.append(
                    self.finding(
                        path,
                        module.cdef_node,
                        f"no C definition of {name!r} found in the module's "
                        f"embedded source",
                    )
                )
            elif defined != declared:
                want = ", ".join(str(p) for p in declared)
                got = ", ".join(str(p) for p in defined)
                findings.append(
                    self.finding(
                        path,
                        module.cdef_node,
                        f"C definition of {name!r} disagrees with _CDEF: "
                        f"declared ({want}) but defined ({got})",
                    )
                )
        return findings


@register
class CcCallAgreement(_KernelRule):
    id = "KM103"
    description = (
        "the dispatcher's cc-backend call must pass one argument per _CDEF "
        "parameter, with from_buffer dtypes matching the declared pointer "
        "types at each position"
    )

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        for name, params in module.functions.items():
            dispatcher = module.dispatchers.get(name)
            if dispatcher is None:
                continue  # KM101 already reported
            calls = _lib_calls(dispatcher, name)
            if not calls:
                findings.append(
                    self.finding(
                        path,
                        dispatcher,
                        f"dispatcher {name!r} never invokes the cc entry "
                        f"point lib.{name}(...)",
                    )
                )
                continue
            for call in calls:
                findings.extend(self._check_call(path, name, params, call))
        return findings

    def _check_call(
        self, path: str, name: str, params: list[CParam], call: ast.Call
    ) -> list[Finding]:
        if call.keywords:
            return [
                self.finding(
                    path, call, f"lib.{name}(...) must use positional arguments only"
                )
            ]
        if len(call.args) != len(params):
            return [
                self.finding(
                    path,
                    call,
                    f"lib.{name}(...) passes {len(call.args)} arguments but "
                    f"_CDEF declares {len(params)} parameters",
                )
            ]
        findings: list[Finding] = []
        for i, (param, arg) in enumerate(zip(params, call.args)):
            dtype = _buffer_dtype(arg)
            if param.pointer:
                if dtype is None:
                    findings.append(
                        self.finding(
                            path,
                            arg,
                            f"lib.{name} argument {i} ({param.name!r}) is "
                            f"declared {param.ctype} * but is not passed "
                            f"through from_buffer",
                        )
                    )
                elif dtype != param.ctype:
                    findings.append(
                        self.finding(
                            path,
                            arg,
                            f"lib.{name} argument {i} ({param.name!r}) is "
                            f"declared {param.ctype} * but passed as "
                            f"from_buffer({dtype!r}[])".replace("'[])", "[]')"),
                        )
                    )
            elif dtype is not None:
                findings.append(
                    self.finding(
                        path,
                        arg,
                        f"lib.{name} argument {i} ({param.name!r}) is a "
                        f"scalar {param.ctype} but passed through from_buffer",
                    )
                )
        return findings


@register
class MirrorAgreement(_KernelRule):
    id = "KM104"
    description = (
        "each dispatcher must route to exactly one _*_mirror function whose "
        "parameters agree with the _CDEF: every mirror parameter is declared "
        "there, the declared arrays appear in the same order, and parameters "
        "only the C side carries are scalars"
    )

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        for name, params in module.functions.items():
            dispatcher = module.dispatchers.get(name)
            if dispatcher is None:
                continue  # KM101 already reported
            mirror_calls = _mirror_calls(dispatcher)
            if len(mirror_calls) != 1:
                called = ", ".join(sorted(mirror_calls)) or "none"
                findings.append(
                    self.finding(
                        path,
                        dispatcher,
                        f"dispatcher {name!r} must call exactly one mirror "
                        f"function (calls: {called})",
                    )
                )
                continue
            mirror_name, calls = next(iter(mirror_calls.items()))
            mirror = module.mirrors.get(mirror_name)
            if mirror is None:
                findings.append(
                    self.finding(
                        path,
                        dispatcher,
                        f"dispatcher {name!r} calls {mirror_name!r} which is "
                        f"not defined at module level",
                    )
                )
                continue
            mirror_params = _positional_params(mirror)
            for call in calls:
                if call.keywords or len(call.args) != len(mirror_params):
                    findings.append(
                        self.finding(
                            path,
                            call,
                            f"{mirror_name}(...) call passes "
                            f"{len(call.args)} positional arguments but the "
                            f"mirror takes {len(mirror_params)}",
                        )
                    )
            findings.extend(
                self._check_names(path, mirror, name, mirror_name, mirror_params, params)
            )
        return findings

    def _check_names(
        self,
        path: str,
        mirror: ast.FunctionDef,
        name: str,
        mirror_name: str,
        mirror_params: list[str],
        params: list[CParam],
    ) -> list[Finding]:
        findings: list[Finding] = []
        declared = {p.name for p in params}
        for param in mirror_params:
            if param not in declared:
                findings.append(
                    self.finding(
                        path,
                        mirror,
                        f"mirror {mirror_name!r} parameter {param!r} is not "
                        f"declared in _CDEF for {name!r} — renamed or out of "
                        f"sync with the native kernel",
                    )
                )
        if findings:
            return findings
        # Arrays must reach the mirror in cdef order; scalars (the
        # lane/chunk counts the Python side derives from shapes) may be
        # omitted or sit anywhere — the cdef hoists them to the front.
        positions: list[int] = []
        for param in params:
            if not param.pointer:
                continue
            if param.name in mirror_params:
                positions.append(mirror_params.index(param.name))
            else:
                findings.append(
                    self.finding(
                        path,
                        mirror,
                        f"_CDEF for {name!r} declares array parameter "
                        f"{param.name!r} ({param.ctype} *) that the mirror "
                        f"{mirror_name!r} never receives",
                    )
                )
        if any(b <= a for a, b in zip(positions, positions[1:])):
            order = ", ".join(
                p.name for p in params if p.pointer and p.name in mirror_params
            )
            findings.append(
                self.finding(
                    path,
                    mirror,
                    f"mirror {mirror_name!r} passes the _CDEF parameters of "
                    f"{name!r} in a different order than declared ({order})",
                )
            )
        return findings


@register
class ForcePythonHook(_KernelRule):
    id = "KM105"
    description = (
        "every kernel dispatcher must consult the module's FORCE_PYTHON "
        "test hook so parity suites can drive the mirror end to end"
    )

    def check_module(
        self, module: _KernelModule, source: str, path: str
    ) -> list[Finding]:
        findings: list[Finding] = []
        for name in module.functions:
            dispatcher = module.dispatchers.get(name)
            if dispatcher is None:
                continue  # KM101 already reported
            reads_hook = any(
                isinstance(node, ast.Name) and node.id == "FORCE_PYTHON"
                for node in ast.walk(dispatcher)
            )
            if not reads_hook:
                findings.append(
                    self.finding(
                        path,
                        dispatcher,
                        f"dispatcher {name!r} never consults FORCE_PYTHON — "
                        f"the mirror escape hatch is unreachable",
                    )
                )
        return findings
