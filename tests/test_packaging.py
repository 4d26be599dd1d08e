"""Packaging smoke tests and repository-hygiene guards.

The first class pins the installability contract: the ``repro`` package
and its CLI import whether the library is installed or run from ``src``,
and pyproject.toml wires a working ``repro`` console entry point.  The
second guards against committed build residue (PR 4 accidentally tracked
13 ``__pycache__/*.pyc`` files) so broken installs and tracked bytecode
cannot land again.
"""

from __future__ import annotations

import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPackaging:
    def test_package_imports(self):
        import repro
        import repro.cli

        assert callable(repro.cli.main)
        assert hasattr(repro, "CounterfactualEngine")

    def test_pyproject_metadata(self):
        pyproject = REPO_ROOT / "pyproject.toml"
        assert pyproject.is_file(), "pyproject.toml must exist at the repo root"
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        project = data["project"]
        assert project["name"] == "repro"
        assert any(dep.startswith("numpy") for dep in project["dependencies"])
        # src layout package discovery.
        assert data["tool"]["setuptools"]["package-dir"][""] == "src"
        assert (REPO_ROOT / "src" / "repro" / "__init__.py").is_file()

    def test_console_entry_point_resolves(self):
        """The [project.scripts] target must import and be callable."""
        pyproject = REPO_ROOT / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        target = data["project"]["scripts"]["repro"]
        module_name, _, attr = target.partition(":")
        module = __import__(module_name, fromlist=[attr])
        entry = getattr(module, attr)
        assert callable(entry)

    def test_cli_runs_as_module(self):
        """`python -m repro.cli --help` exits 0 from the src tree."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--help"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0
        assert "counterfactual" in result.stdout


class TestTrackedArtifacts:
    @pytest.fixture(scope="class")
    def tracked_files(self):
        try:
            result = subprocess.run(
                ["git", "ls-files"],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            pytest.skip("git unavailable")
        if result.returncode != 0:
            pytest.skip("not a git checkout")
        return result.stdout.splitlines()

    def test_no_tracked_bytecode(self, tracked_files):
        offenders = [
            path
            for path in tracked_files
            if "__pycache__" in path or path.endswith(".pyc")
        ]
        assert offenders == [], f"bytecode committed to git: {offenders}"

    def test_no_tracked_build_residue(self, tracked_files):
        offenders = [
            path
            for path in tracked_files
            if ".egg-info" in path
            or path.startswith((".pytest_cache/", ".benchmarks/"))
            or (path.startswith("BENCH_") and path.endswith(".json"))
        ]
        assert offenders == [], f"build residue committed to git: {offenders}"

    def test_gitignore_covers_residue(self):
        gitignore = (REPO_ROOT / ".gitignore").read_text(encoding="utf-8")
        for pattern in (
            "__pycache__/",
            "*.pyc",
            ".pytest_cache/",
            ".hypothesis/",
            ".benchmarks/",
            "*.egg-info/",
            "BENCH_*.json",
        ):
            assert pattern in gitignore, f".gitignore misses {pattern!r}"
