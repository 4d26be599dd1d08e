"""Tests for the :mod:`repro.analysis` lint engine (``repro lint``).

Three layers:

* fixture tests — every registered rule fires exactly once on its
  known-bad snippet under ``tests/fixtures/lint/``;
* seeded-drift tests — a copy of a *live* kernel module with one
  argument renamed must trip the kernel-mirror rules (the scenario the
  engine exists for);
* driver/CLI tests — suppressions, severity gating, exit codes, JSON.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.cparse import CParam, CParseError, parse_cdef, parse_params
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

RULE_IDS = [rule.id for rule in all_rules()]

# The modules that assign _CDEF and build a native library.
CDEF_MODULES = [
    SRC / "repro" / "player" / "_fused.py",
    SRC / "repro" / "core" / "_kernels.py",
]

# Every module NUM201 checks: the _CDEF modules plus the per-lane core
# modules _fused compiles in, which carry the kernel-module pragma.
KERNEL_MODULES = [
    SRC / "repro" / "tcp" / "_compiled.py",
    SRC / "repro" / "abr" / "_decisions.py",
    *CDEF_MODULES,
]


def fires(source: str, rule_id: str, path: str = "fixture.py"):
    return [f for f in lint_source(source, path) if f.rule_id == rule_id]


class TestRegistry:
    def test_rules_registered(self):
        assert len(RULE_IDS) >= 15
        assert len(set(RULE_IDS)) == len(RULE_IDS)
        for rule_id in RULE_IDS:
            assert re.fullmatch(r"[A-Z]+\d+", rule_id), rule_id

    def test_rules_documented(self):
        for rule in all_rules():
            assert rule.description
            assert rule.severity in (Severity.WARNING, Severity.ERROR)

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError, match="known rules"):
            get_rule("NOPE999")


class TestFixtures:
    """Each rule fires exactly once on its known-bad snippet."""

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_rule_fires_exactly_once(self, rule_id):
        fixture = FIXTURES / f"{rule_id.lower()}.py"
        assert fixture.is_file(), (
            f"every rule needs a fixture; missing {fixture.name}"
        )
        source = fixture.read_text(encoding="utf-8")
        found = fires(source, rule_id, str(fixture))
        assert len(found) == 1, (
            f"{rule_id} fired {len(found)} times on {fixture.name}: {found}"
        )

    def test_no_stale_fixtures(self):
        known = {f"{rule_id.lower()}.py" for rule_id in RULE_IDS}
        on_disk = {p.name for p in FIXTURES.glob("*.py")}
        assert on_disk <= known, f"fixtures without a rule: {on_disk - known}"


class TestCleanTree:
    def test_lint_clean_tree(self):
        """``repro lint src/`` is clean at HEAD — errors AND warnings."""
        result = lint_paths([SRC])
        assert result.files_checked > 50
        assert result.findings == [], render_text(result)
        assert result.exit_code == 0


class TestSeededKernelDrift:
    """The kernel-mirror rules catch real drift seeded into live modules."""

    @staticmethod
    def _rename_first_mirror_param(source: str) -> str:
        match = re.search(r"def _\w+_mirror\(\s*(\w+)", source)
        assert match is not None
        name = match.group(1)
        start, end = match.span(1)
        return source[:start] + name + "_renamed" + source[end:]

    @pytest.mark.parametrize(
        "module", CDEF_MODULES, ids=lambda p: p.stem.lstrip("_")
    )
    def test_km104_catches_renamed_mirror_argument(self, module):
        source = module.read_text(encoding="utf-8")
        assert fires(source, "KM104", str(module)) == []
        seeded = self._rename_first_mirror_param(source)
        found = fires(seeded, "KM104", str(module))
        assert found, "renaming a mirror argument must trip KM104"
        assert "not declared in _CDEF" in found[0].message

    # The seeded function: a per-lane scalar core the fused kernel shares
    # where the module has one, else the module's first mirror.
    _HELPERS = {"_compiled": "_download_one", "_decisions": "_bba_one"}

    @staticmethod
    def _seed_reduction(source: str, func_name: str) -> str:
        """Insert a ``sum(...)`` call as the first statement of a function."""
        func = next(
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == func_name
        )
        first = func.body[0]
        lines = source.splitlines(keepends=True)
        lines.insert(first.lineno - 1, " " * first.col_offset + "sum((0.0,))\n")
        return "".join(lines)

    @pytest.mark.parametrize(
        "module", KERNEL_MODULES, ids=lambda p: p.stem.lstrip("_")
    )
    def test_num201_catches_reduction_in_kernel_helper(self, module):
        source = module.read_text(encoding="utf-8")
        assert fires(source, "NUM201", str(module)) == []
        helper = self._HELPERS.get(module.stem)
        if helper is None:
            match = re.search(r"def (_\w+_mirror)\(", source)
            assert match is not None
            helper = match.group(1)
        found = fires(self._seed_reduction(source, helper), "NUM201", str(module))
        assert len(found) == 1, "any kernel-module function must obey NUM201"
        assert repr(helper) in found[0].message

    def test_km103_catches_dtype_drift(self):
        source = (SRC / "repro" / "player" / "_fused.py").read_text()
        seeded = source.replace(
            'fb("double[]", rto_seq)', 'fb("long long[]", rto_seq)'
        )
        assert seeded != source
        found = fires(seeded, "KM103")
        assert found and "declared double *" in found[0].message

    def test_km102_catches_c_source_drift(self):
        source = (SRC / "repro" / "player" / "_fused.py").read_text()
        # Rename a parameter in the C *definition* (followed by "{") only;
        # the cdef declaration (followed by ";") keeps the original name.
        match = re.search(r"long long run_session\([^)]*\)[ \t\n]*\{", source)
        assert match is not None
        block = match.group(0)
        seeded = source.replace(block, re.sub(r"\brtt\b", "rtt_s", block, count=1), 1)
        assert seeded != source
        found = fires(seeded, "KM102")
        assert found and "disagrees with _CDEF" in found[0].message

    def test_kernel_modules_are_in_scope(self):
        """Both native modules parse as kernel modules (have a _CDEF), and
        both per-lane core modules opt into NUM201 by pragma."""
        from repro.analysis.pragmas import module_has_pragma
        from repro.analysis.rules.kernel_mirror import _analyze

        for module in CDEF_MODULES:
            parsed = _analyze(ast.parse(module.read_text()))
            assert parsed is not None, module
            assert parsed.cdef_error is None
            assert parsed.functions and parsed.dispatchers
        for module in set(KERNEL_MODULES) - set(CDEF_MODULES):
            source = module.read_text()
            assert _analyze(ast.parse(source)) is None, module
            assert module_has_pragma(source, "kernel-module"), module


class TestSuppressions:
    SOURCE = "import textwrap{comment}\n\n\ndef double(x):\n    return 2 * x\n"

    def test_named_suppression(self):
        src = self.SOURCE.format(comment="  # repro: ignore[HYG604]")
        assert fires(src, "HYG604") == []

    def test_bare_suppression(self):
        src = self.SOURCE.format(comment="  # repro: ignore")
        assert fires(src, "HYG604") == []

    def test_other_rule_suppression_does_not_apply(self):
        src = self.SOURCE.format(comment="  # repro: ignore[KM101]")
        assert len(fires(src, "HYG604")) == 1

    def test_unsuppressed_fires(self):
        assert len(fires(self.SOURCE.format(comment=""), "HYG604")) == 1


class TestPoolWorkerDispatch:
    """POOL501 treats a function passed to ``run_supervised`` as a pool
    worker even without the ``pool-worker`` pragma the fixture uses."""

    SOURCE = (
        "from repro.runtime.supervisor import run_supervised\n"
        "\n"
        "_CACHE = None\n"
        "\n"
        "\n"
        "def work(task):\n"
        "    global _CACHE\n"
        "    _CACHE = task\n"
        "    return task\n"
        "\n"
        "\n"
        "def run(tasks):\n"
        "    return run_supervised(work, tasks)\n"
    )

    def test_dispatched_worker_fires_at_global(self):
        found = fires(self.SOURCE, "POOL501")
        assert len(found) == 1, found
        assert found[0].line == self.SOURCE.splitlines().index("    global _CACHE") + 1

    def test_undispatched_function_is_not_a_worker(self):
        source = self.SOURCE.replace("run_supervised(work, tasks)", "work(tasks)")
        assert fires(source, "POOL501") == []


class TestDriver:
    def test_syntax_error_is_a_finding(self):
        found = lint_source("def broken(:\n", "bad.py")
        assert len(found) == 1
        assert found[0].rule_id == "SYNTAX"
        assert found[0].severity is Severity.ERROR

    def test_warnings_do_not_gate(self, tmp_path):
        target = tmp_path / "warn_only.py"
        target.write_text(
            "def f(fn):\n    try:\n        fn()\n"
            "    except Exception:\n        pass\n"
        )
        result = lint_paths([target])
        assert result.warnings and not result.errors
        assert result.exit_code == 0

    def test_skips_cache_dirs(self, tmp_path):
        (tmp_path / "_ccache").mkdir()
        (tmp_path / "_ccache" / "junk.py").write_text("def broken(:\n")
        (tmp_path / "ok.py").write_text("X = 1\n")
        result = lint_paths([tmp_path])
        assert result.files_checked == 1
        assert result.findings == []

    def test_render_json_roundtrip(self):
        result = lint_paths([FIXTURES / "hyg603.py"])
        payload = json.loads(render_json(result))
        assert payload["files_checked"] == 1
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "HYG603"
        line = result.findings[0]
        assert f"{line.path}:{line.line}:{line.col}:" in render_text(result)


class TestCli:
    def test_lint_clean_src_exits_zero(self, capsys):
        assert cli_main(["lint", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_lint_fixture_exits_one(self, capsys):
        assert cli_main(["lint", str(FIXTURES / "hyg603.py")]) == 1
        assert "HYG603" in capsys.readouterr().out

    def test_lint_json(self, capsys):
        code = cli_main(["lint", "--json", str(FIXTURES / "hyg603.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_lint_rule_filter(self, capsys):
        fixture = str(FIXTURES / "km101.py")
        assert cli_main(["lint", "--rules", "HYG604", fixture]) == 0
        assert cli_main(["lint", "--rules", "KM101", fixture]) == 1
        capsys.readouterr()

    def test_lint_unknown_rule(self, capsys):
        assert cli_main(["lint", "--rules", "NOPE999", str(SRC)]) == 2
        assert "known rules" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out


class TestCParse:
    def test_parse_params(self):
        params = parse_params("long long n, const double *out")
        assert params == [
            CParam("long long", "n", False),
            CParam("double", "out", True),
        ]

    def test_parse_params_void(self):
        assert parse_params(" void ") == []

    def test_parse_params_rejects_unnamed(self):
        with pytest.raises(CParseError):
            parse_params("double *")

    def test_parse_cdef_requires_functions(self):
        with pytest.raises(CParseError):
            parse_cdef("typedef int x;")

    def test_parse_cdef_live_modules(self):
        for module in CDEF_MODULES:
            source = module.read_text(encoding="utf-8")
            match = re.search(r'_CDEF = """(.*?)"""', source, re.S)
            assert match is not None, module
            functions = parse_cdef(match.group(1))
            assert functions
            for params in functions.values():
                assert any(p.pointer for p in params)


class TestToolingConfig:
    """The generic layer on top of `repro lint`: ruff + mypy --strict.

    Neither tool ships in the offline runtime image (CI installs them in
    the static-analysis job), so the execution tests skip gracefully
    when the tool is absent and only the configuration is asserted
    unconditionally.
    """

    def test_pyproject_configures_ruff_and_mypy(self):
        import tomllib

        data = tomllib.loads(
            (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        )
        ruff = data["tool"]["ruff"]
        assert ruff["extend-exclude"] == ["tests/fixtures"]
        assert "F" in ruff["lint"]["select"]
        mypy = data["tool"]["mypy"]
        assert mypy["strict"] is True
        assert "src/repro/analysis" in mypy["files"]
        # Every allowlisted path must exist — a vanished entry would make
        # the strict gate silently cover nothing.
        for entry in mypy["files"]:
            assert (REPO_ROOT / entry).exists(), entry

    def test_mypy_strict_allowlist(self):
        import subprocess
        import sys

        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_ruff_clean_on_analysis_package(self):
        import subprocess
        import sys

        pytest.importorskip("ruff")
        proc = subprocess.run(
            [sys.executable, "-m", "ruff", "check", "src/repro/analysis"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
