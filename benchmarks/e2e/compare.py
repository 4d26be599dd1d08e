"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base a1.json a2.json a3.json --new b1.json b2.json b3.json

Each file is what ``run.py --out`` writes: either all workloads, or one
untraced workload run (``run.py --workload W --trace 0 --out``).  For every
(end-to-end metric, workload) pair the table shows each side's median and
quartiles and a verdict, with the metric's direction and bound taken from
``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance over median)
  is wider than the bound, unless every new run reads better than every
  base run, which is ``better``;
* ``worse`` -- the new median is worse than the base median by more than
  the bound;
* ``better`` -- at least ten pairs (base run i against new run i), the new
  side wins at least nine tenths of them, ties counting for neither, and
  the medians differ by more than the base's quartile distance;
* ``same`` -- anything else.

Runs of one workload with the same seed must give the same answers: the
``answers`` line reports ``changed`` when the answer digests differ.  The
exit status is 1 when any pair is worse or any answers changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS_FOR_GAIN = 10


def load(paths: "list[Path]") -> "dict[str, list[dict]]":
    """``{workload: [{"metrics": {name: value}, "seed": s, "digest": d}, ...]}``."""
    runs: "dict[str, list[dict]]" = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        records = [r for r in data.get("runs", [data]) if r.get("trace") == 0]
        if not records:
            raise SystemExit(f"{path}: holds no untraced result")
        for r in records:
            runs.setdefault(r["workload"], []).append(
                {
                    "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                    "digest": r["detail"]["digest"],
                    "seed": r["seed"],
                }
            )
    return runs


def _quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: "list[float]", new: "list[float]", higher_better: bool, bound: float) -> str:
    sign = 1.0 if higher_better else -1.0
    b1, b_med, b3 = _quartiles(base)
    n1, n_med, n3 = _quartiles(new)
    spread = max((b3 - b1) / abs(b_med), (n3 - n1) / abs(n_med))
    if spread > bound:
        if min(sign * x for x in new) > max(sign * x for x in base):
            return "better"
        return "unresolved"
    if sign * (n_med - b_med) / abs(b_med) < -bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and sign * (n_med - b_med) > b3 - b1
    ):
        return "better"
    return "same"


def compare(base: "dict[str, list[dict]]", new: "dict[str, list[dict]]", spec: dict) -> int:
    status = 0
    header = f"{'metric':16s} {'workload':15s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}  verdict"
    print(header)
    print("-" * len(header))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in (w["name"] for w in spec["workloads"]):
            b = [r["metrics"][name] for r in base.get(workload, []) if name in r["metrics"]]
            n = [r["metrics"][name] for r in new.get(workload, []) if name in r["metrics"]]
            if not b or not n:
                print(f"{name:16s} {workload:15s} {'missing':>32s}")
                status = 1
                continue
            v = verdict(b, n, metric["better"] == "higher", metric["bound"])
            status |= v == "worse"
            cells = [
                "/".join(f"{x:.4g}" for x in _quartiles(side)) for side in (b, n)
            ]
            print(f"{name:16s} {workload:15s} {cells[0]:>32s} {cells[1]:>32s}  {v}")
    for workload in sorted(set(base) & set(new)):
        digests = {
            (r["seed"], r["digest"]) for r in base[workload] + new[workload]
        }
        seeds = {seed for seed, _ in digests}
        if len(digests) > len(seeds):
            print(f"answers {workload}: changed")
            status = 1
        else:
            print(f"answers {workload}: same")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--new", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    return compare(load(args.base), load(args.new), spec)


if __name__ == "__main__":
    sys.exit(main())
