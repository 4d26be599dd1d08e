#!/usr/bin/env python
"""Diff two pytest-benchmark JSON snapshots and gate on throughput regressions.

The perf suite (``benchmarks/test_perf_inference.py``) records its
throughputs (``*_per_sec``) and wall times (``*_ms`` / ``*_s``) in
``benchmark.extra_info``, so the ``BENCH_*.json`` files pytest-benchmark
writes (``--benchmark-json=BENCH_ci.json``) carry the whole performance
picture; ``BENCH_baseline.json`` is the committed reference snapshot.  This script compares two such snapshots benchmark by
benchmark and **fails (exit 1) when any throughput metric regresses by
more than the threshold** (default 20%).

Usage::

    python scripts/bench_compare.py BENCH_old.json BENCH_new.json
    python scripts/bench_compare.py BENCH_old.json BENCH_new.json --threshold 0.1

Wall-time metrics are reported for context but only throughputs gate —
the bench container's clock is noisy and ``*_per_sec`` values are what
the acceptance criteria track.

A benchmark or metric that exists in the old snapshot but not the new one
also fails the run: a silently vanished metric is how a perf regression
escapes the gate entirely (the benchmark got renamed, the extra_info key
dropped, the test skipped).  Pass ``--allow-missing`` when the
disappearance is intentional (e.g. comparing across a benchmark-suite
rename).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

THROUGHPUT_SUFFIX = "_per_sec"
TIME_SUFFIXES = ("_ms", "_s")


def load_benchmarks(path: Path) -> dict[str, dict]:
    """Map benchmark name -> {metric: value} from a pytest-benchmark JSON."""
    data = json.loads(path.read_text(encoding="utf-8"))
    out: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        metrics = {}
        for key, value in (bench.get("extra_info") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[key] = float(value)
        stats = bench.get("stats") or {}
        if isinstance(stats.get("mean"), (int, float)):
            metrics["stats_mean_s"] = float(stats["mean"])
        out[bench["name"]] = metrics
    return out


def compare(
    old: dict[str, dict], new: dict[str, dict], threshold: float
) -> tuple[list[str], list[str], list[str]]:
    """Return (report lines, regression lines, missing-metric lines)."""
    lines: list[str] = []
    regressions: list[str] = []
    missing: list[str] = []
    for name in sorted(old):
        if name not in new:
            lines.append(f"! {name}: missing from new snapshot")
            missing.append(f"{name}: benchmark missing from new snapshot")
            continue
        # Metrics that *appear* are informational (no baseline to compare);
        # metrics that *disappear* gate — a vanished metric is how a perf
        # regression escapes the gate entirely.
        for key in sorted(set(old[name]) - set(new[name])):
            lines.append(f"! {name}.{key}: missing from new snapshot")
            missing.append(f"{name}.{key}: metric missing from new snapshot")
        for key in sorted(set(new[name]) - set(old[name])):
            lines.append(
                f"~ {name}.{key}: only in new snapshot (no baseline, skipped)"
            )
        shared = sorted(set(old[name]) & set(new[name]))
        for key in shared:
            before, after = old[name][key], new[name][key]
            if before <= 0:
                continue
            ratio = after / before
            if key.endswith(THROUGHPUT_SUFFIX):
                marker = "OK"
                if ratio < 1.0 - threshold:
                    marker = "REGRESSION"
                    regressions.append(
                        f"{name}.{key}: {before:,.2f} -> {after:,.2f} "
                        f"({ratio:.2f}x, limit {1.0 - threshold:.2f}x)"
                    )
                lines.append(
                    f"{'!' if marker == 'REGRESSION' else ' '} {name}.{key}: "
                    f"{before:,.2f} -> {after:,.2f}  [{ratio:.2f}x {marker}]"
                )
            elif key.endswith(TIME_SUFFIXES) or key == "stats_mean_s":
                lines.append(
                    f"  {name}.{key}: {before:.4g} -> {after:.4g}  "
                    f"[{ratio:.2f}x, informational]"
                )
    for name in sorted(set(new) - set(old)):
        lines.append(f"+ {name}: new benchmark (no baseline)")
    return lines, regressions, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark throughput regresses between snapshots"
    )
    parser.add_argument("old", type=Path, help="baseline BENCH_*.json")
    parser.add_argument("new", type=Path, help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="maximum tolerated fractional throughput drop (default 0.2)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="do not fail when a benchmark/metric present in the old "
             "snapshot is absent from the new one (intentional renames)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error(f"threshold must be in (0, 1), got {args.threshold}")

    old = load_benchmarks(args.old)
    new = load_benchmarks(args.new)
    if not old:
        parser.error(f"{args.old} contains no benchmarks")
    if not new:
        parser.error(f"{args.new} contains no benchmarks")

    lines, regressions, missing = compare(old, new, args.threshold)
    print(f"comparing {args.old} -> {args.new} (threshold {args.threshold:.0%})")
    for line in lines:
        print(line)
    failed = False
    if regressions:
        print(f"\n{len(regressions)} throughput regression(s) beyond threshold:")
        for reg in regressions:
            print(f"  {reg}")
        failed = True
    if missing:
        if args.allow_missing:
            print(f"\n{len(missing)} missing metric(s) tolerated (--allow-missing)")
        else:
            print(f"\n{len(missing)} metric(s) vanished between snapshots "
                  f"(pass --allow-missing if intentional):")
            for item in missing:
                print(f"  {item}")
            failed = True
    if failed:
        return 1
    print("\nno throughput regressions beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
