"""End-to-end benchmark of the Veritas pipeline.

Run every workload (each in its own process, untraced and then traced),
check the answers across workloads and write one results file::

    python3 benchmarks/e2e/run.py [--seed 2023] [--out results.json] [--trace-out spans.json]

Run one workload and print its result as the last line of stdout::

    python3 benchmarks/e2e/run.py --workload fresh-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, in reference seconds (see
``e2e_clock.py``), and ``--trace 1`` the per-layer ones (see README.md).
The exit code is non-zero when a correctness gate fails.  Temporary files
(the compiled-kernel cache, checkpoints) go to a directory under
``benchmarks/e2e/.work`` that is removed on exit.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOAD_NAMES = (
    "fresh-corpus",
    "resume-corpus",
    "query-sweep",
    "interventional",
)
CHILD_TIMEOUT_S = 600


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, help="timed window per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full results here (JSON)")
    parser.add_argument("--trace-out", type=Path, help="write spans here (Chrome trace-event JSON)")
    return parser.parse_args(argv)


def _meta(backends: dict) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "backends": backends,
    }


def run_one(args, workdir: Path) -> int:
    # Everything the run writes stays in workdir: the kernel cache, the
    # compiler's and tempfile's temporary files, and checkpoints.
    os.environ["TMPDIR"] = str(workdir)
    os.environ["REPRO_COMPILED_CACHE"] = str(workdir / "ccache")
    tempfile.tempdir = str(workdir)
    sys.path.insert(0, str(SRC))
    from e2e_clock import HostClock

    # An untraced run samples the host's speed from here on, so setup_s
    # covers the imports and the kernel build in reference seconds too.
    clock = None if args.trace else HostClock()
    try:
        if clock is not None:
            clock.start()
        from e2e_runner import kernel_backends, run_workload
        from e2e_tracing import chrome_trace
        from e2e_workloads import WORKLOADS

        backends = kernel_backends()
        workload = WORKLOADS[args.workload]()
        record, spans = run_workload(workload, args.seed, args.seconds, clock, workdir, STARTED)
    finally:
        if clock is not None:
            clock.stop()
    record["meta"] = _meta(backends)
    detail = record["detail"]
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: "
        f"{detail['reps']} reps, {detail['traced_reps']} traced, "
        f"answer error {detail['answer_err']:.6g} {detail['answer_err_unit']}, "
        f"gates {detail['gates']}"
    )
    if detail["error"]:
        print(detail["error"], file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"  {name:26s} {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1))
    if args.trace_out:
        args.trace_out.write_text(json.dumps(chrome_trace(spans, {"workload": workload.name})))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args, workdir: Path) -> int:
    """Every workload untraced, then traced for a third of the window; one file."""
    runs = []
    events = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace, seconds in ((0, args.seconds), (1, max(1.0, args.seconds / 3))):
            out = workdir / f"{name}-{trace}.json"
            spans = workdir / f"{name}-spans.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--out", str(out),
            ]
            if trace and args.trace_out:
                cmd += ["--trace-out", str(spans)]
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
            status = status or proc.returncode or int(not out.exists())
            if out.exists():
                runs.append(json.loads(out.read_text()))
            if spans.exists():
                events += json.loads(spans.read_text())["traceEvents"]

    corpus_digests = {
        r["detail"]["digest"]
        for r in runs
        if r["trace"] == 0 and r["workload"] in ("fresh-corpus", "resume-corpus")
    }
    gates = {"corpus_digests_agree": len(corpus_digests) == 1}
    status = status or int(not all(gates.values()))
    print(f"\ncross-workload gates: {gates}")
    for r in runs:
        if r["trace"] == 0:
            cells = "  ".join(f"{k}={v['value']:.4g}{v['unit']}" for k, v in r["metrics"].items())
            print(f"{r['workload']:15s} correct={r['correct']}  {cells}")
    if args.out:
        results = {"seed": args.seed, "seconds": args.seconds, "gates": gates, "runs": runs}
        args.out.write_text(json.dumps(results, indent=1))
    if args.trace_out:
        args.trace_out.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.workload is None:
            return run_all(args, workdir)
        return run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
