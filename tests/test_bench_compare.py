"""Tests for ``scripts/bench_compare.py``.

The comparison gates on two things: throughput regressions beyond the
threshold, and metrics that silently vanish between snapshots (the way a
regression escapes the gate entirely).  ``--allow-missing`` tolerates the
latter for intentional renames.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO_ROOT / "scripts" / "bench_compare.py"
)
assert _spec is not None and _spec.loader is not None
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def snapshot(tmp_path: Path, name: str, benchmarks: dict) -> Path:
    payload = {
        "benchmarks": [
            {"name": bench, "extra_info": extra, "stats": {"mean": 0.1}}
            for bench, extra in benchmarks.items()
        ]
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE = {"replay": {"chunks_per_sec": 100.0, "setup_ms": 5.0}}


def run(old: Path, new: Path, *extra: str) -> int:
    return bench_compare.main([str(old), str(new), *extra])


class TestRegressionGate:
    def test_identical_snapshots_pass(self, tmp_path, capsys):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(tmp_path, "new.json", BASE)
        assert run(old, new) == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(
            tmp_path, "new.json", {"replay": {"chunks_per_sec": 50.0}}
        )
        assert run(old, new, "--allow-missing") == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_small_drop_within_threshold_passes(self, tmp_path):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(
            tmp_path,
            "new.json",
            {"replay": {"chunks_per_sec": 90.0, "setup_ms": 5.0}},
        )
        assert run(old, new) == 0


class TestMissingMetricGate:
    def test_vanished_benchmark_fails(self, tmp_path, capsys):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(
            tmp_path, "new.json", {"other": {"chunks_per_sec": 100.0}}
        )
        assert run(old, new) == 1
        assert "vanished between snapshots" in capsys.readouterr().out

    def test_vanished_metric_key_fails(self, tmp_path, capsys):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(
            tmp_path, "new.json", {"replay": {"chunks_per_sec": 100.0}}
        )
        assert run(old, new) == 1
        assert "setup_ms" in capsys.readouterr().out

    def test_allow_missing_tolerates_both(self, tmp_path, capsys):
        old = snapshot(tmp_path, "old.json", BASE)
        new = snapshot(
            tmp_path, "new.json", {"other": {"chunks_per_sec": 100.0}}
        )
        assert run(old, new, "--allow-missing") == 0
        assert "tolerated" in capsys.readouterr().out

    def test_new_only_metric_is_informational(self, tmp_path):
        old = snapshot(tmp_path, "old.json", BASE)
        grown = {
            "replay": {**BASE["replay"], "batch_chunks_per_sec": 500.0},
            "fresh": {"solves_per_sec": 10.0},
        }
        new = snapshot(tmp_path, "new.json", grown)
        assert run(old, new) == 0

    def test_committed_baselines_still_compare_clean(self, capsys):
        """The committed baseline loads, gates clean against itself, and
        carries the replay-tier metrics the suite emits today (none of the
        retired ``analytic``/``fused`` tier keys, which would fail every
        CI diff as vanished)."""
        baseline = REPO_ROOT / "BENCH_baseline.json"
        assert run(baseline, baseline) == 0
        tiers = bench_compare.load_benchmarks(baseline)["test_perf_kernel_tiers"]
        assert "scratch_chunks_per_sec" in tiers
        assert not [
            key for key in tiers if key.startswith(("analytic_", "fused_"))
        ]
        capsys.readouterr()
