"""The default tier rule of both kernel ladders.

``kernel=None`` (replay) and ``abduction_kernel=None`` (abduction) pick
the fastest tier the machine can build: ``"compiled"`` when that ladder's
cc+cffi build loads, the portable ``"scratch"`` / ``"numpy"`` otherwise.
The choice never warns, is recorded as a concrete tier name, changes no
answer, and is not made just to print ``repro --help`` or to answer with
scalar abduction only.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CounterfactualEngine,
    change_abr,
    fast_setting_a,
    paper_corpus,
    paper_veritas_config,
)
from repro.core import _kernels
from repro.core.abduction import resolve_abduction_kernel
from repro.player import _fused
from repro.player.metrics import QoEMetrics
from repro.tcp.connection import resolve_kernel
from repro.util import compiled as util_compiled

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def setting_a():
    return fast_setting_a(duration_s=180.0)


@pytest.fixture(scope="module")
def corpus():
    return paper_corpus(count=2, duration_s=400.0, seed=11)


def force_portable(monkeypatch):
    """Make both ladders' cc builds look absent (their mirrors serve)."""
    monkeypatch.setattr(_fused, "FORCE_PYTHON", True)
    monkeypatch.setattr(_kernels, "FORCE_PYTHON", True)


class TestResolveDefault:
    @pytest.mark.skipif(
        _fused.backend() != "cc" or _kernels.backend() != "cc",
        reason="needs the cc+cffi builds",
    )
    def test_native_build_picks_compiled(self):
        assert resolve_kernel(None) == "compiled"
        assert resolve_abduction_kernel(None) == "compiled"
        engine = CounterfactualEngine(paper_veritas_config())
        assert engine.kernel == "compiled"
        assert engine.abduction_kernel == "compiled"

    def test_without_build_picks_portable_tiers(self, monkeypatch):
        # FORCE_PYTHON keeps available() true, so the rule must read
        # backend(): a default run must not land on the Python mirrors.
        force_portable(monkeypatch)
        assert _fused.available() and _kernels.available()
        assert resolve_kernel(None) == "scratch"
        assert resolve_abduction_kernel(None) == "numpy"


class TestDefaultEngine:
    def test_portable_default_is_silent(self, monkeypatch, corpus, setting_a):
        force_portable(monkeypatch)
        # Re-arm the once-per-process warning so a degrade would show.
        monkeypatch.setattr(util_compiled, "_FALLBACK_WARNED", set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = CounterfactualEngine(
                paper_veritas_config(), n_samples=2, seed=4
            )
            result = engine.evaluate_corpus(
                corpus, setting_a, change_abr(setting_a, "bba")
            )
        assert engine.kernel == "scratch"
        assert engine.abduction_kernel == "numpy"
        assert len(result.per_trace) == len(corpus)

    def test_default_answers_equal_portable_tiers(self, corpus, setting_a):
        """Whatever tier the default picks, the answers are the portable
        tiers' answers, bit for bit."""
        setting_b = change_abr(setting_a, "bola")
        default = CounterfactualEngine(
            paper_veritas_config(), n_samples=3, seed=4
        ).evaluate_corpus(corpus, setting_a, setting_b)
        portable = CounterfactualEngine(
            paper_veritas_config(),
            n_samples=3,
            seed=4,
            kernel="scratch",
            abduction_kernel="numpy",
        ).evaluate_corpus(corpus, setting_a, setting_b)
        for field in dataclasses.fields(QoEMetrics):
            want = portable.metric_table(field.name)
            got = default.metric_table(field.name)
            assert want.keys() == got.keys()
            for scheme in want:
                assert np.array_equal(got[scheme], want[scheme]), (
                    field.name,
                    scheme,
                )


def run_fresh(args, cache: Path):
    """Run ``python *args`` in a fresh process whose compiled-library
    cache is ``cache``."""
    env = dict(os.environ)
    env["REPRO_COMPILED_CACHE"] = str(cache)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestHelpBuildsNothing:
    def test_help_leaves_cache_empty(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for args in (["--help"], ["counterfactual", "--help"]):
            proc = run_fresh(["-m", "repro.cli", *args], cache)
            assert proc.returncode == 0, proc.stderr
            assert list(cache.iterdir()) == [], args
        # The same environment does build into the cache when a tier is
        # resolved, so an empty cache above means nothing was built.
        proc = run_fresh(
            [
                "-c",
                "from repro.tcp.connection import resolve_kernel;"
                "print(resolve_kernel(None))",
            ],
            cache,
        )
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "compiled":
            assert list(cache.iterdir())


class TestScalarAbductionBuildsNothing:
    def test_predictor_leaves_cache_empty(self, tmp_path):
        """An interventional question runs scalar abduction only, so it
        builds no compiled library: the abduction tier is an argument of
        ``solve_batch``, not of the ``VeritasAbduction`` constructor."""
        cache = tmp_path / "cache"
        cache.mkdir()
        script = "; ".join(
            [
                "from repro import MPCAlgorithm, SessionConfig, StreamingSession",
                "from repro import VeritasDownloadPredictor, constant_trace",
                "from repro import paper_veritas_config",
                "from repro.video import short_video",
                "log = StreamingSession(short_video(duration_s=40.0, seed=6), "
                "MPCAlgorithm(), constant_trace(5.0, 400.0), SessionConfig()).run()",
                "record = log.records[10]",
                "p = VeritasDownloadPredictor(paper_veritas_config()).predict("
                "log.truncated(10), 500_000, record.start_time_s, record.tcp_state)",
                "print(p.download_time_s > 0)",
            ]
        )
        proc = run_fresh(["-c", script], cache)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
        assert list(cache.iterdir()) == []
