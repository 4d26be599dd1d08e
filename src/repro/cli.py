"""Command-line interface: run the paper's workflows from a shell.

Five subcommands cover the main uses of the library:

* ``simulate``        — run Setting A over a synthetic corpus and write the
  session logs to a directory (the "deployment" step),
* ``abduct``          — infer posterior GTBW traces from one saved log,
* ``counterfactual``  — the full Fig.-6 pipeline: deploy, reconstruct,
  replay a what-if Setting B, and print the oracle/Baseline/Veritas report,
* ``validate``        — check trace files (CSV or Mahimahi) for format and
  content problems before feeding them to a corpus run,
* ``lint``            — run the :mod:`repro.analysis` kernel-contract
  static analysis over the source tree (mirror/C parity, numerics safety,
  allocation and seed discipline); exits non-zero on any error finding.

Examples::

    python -m repro.cli simulate --traces 5 --out /tmp/logs
    python -m repro.cli abduct /tmp/logs/session_000.json --samples 5
    python -m repro.cli counterfactual --query bba --traces 5
    python -m repro.cli counterfactual --query buffer --buffer-s 30
    python -m repro.cli counterfactual --query ladder
    python -m repro.cli validate corpus/*.csv
    python -m repro.cli lint src/ --json

``counterfactual`` accepts ``--query`` repeatedly; Setting A is deployed
and abduction solved once and every query replays against the shared
reconstructions::

    python -m repro.cli counterfactual --query bba --query bola --query buffer

``--kernel`` and ``--abduction-kernel`` pick the replay and abduction
tiers; every tier prints the same report.  ``--kernel reference
--abduction-kernel reference`` is the golden path: one scalar session per
replay lane and one scalar solve per session log::

    python -m repro.cli counterfactual --kernel reference --abduction-kernel reference

Robustness knobs on ``counterfactual`` (see :mod:`repro.runtime`):
``--on-error skip`` keeps a corpus run alive across malformed traces and
per-trace failures (degrading each casualty to the scalar reference path
first — bit-identical when the retry succeeds — and reporting every
incident in a fault summary), ``--shard-timeout``/``--max-retries``
configure the supervised worker pool, and ``--checkpoint-dir`` persists
each prepared trace so a restarted run re-does zero abduction work.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from . import (
    CounterfactualEngine,
    SessionLog,
    VeritasAbduction,
    change_abr,
    change_buffer,
    change_ladder,
    format_counterfactual_report,
    higher_ladder,
    paper_corpus,
    paper_setting_a,
    paper_veritas_config,
    run_setting,
)
from .net.io import TraceFormatError, load_csv, load_mahimahi
from .net.validation import validate_trace
from .core.abduction import ABDUCTION_TIERS
from .runtime.faults import ON_ERROR_POLICIES, FaultLog
from .tcp.connection import KERNEL_TIERS

__all__ = ["main", "build_parser"]


# argparse types for numeric flags: an out-of-range value is a usage error
# (exit 2, one line naming the flag) instead of a library traceback.
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def session_log(text: str) -> SessionLog:
    """``abduct``'s log: a readable JSON session log with at least one chunk."""
    try:
        log = SessionLog.load(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {text}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{text} is not JSON: {exc}")
    except KeyError as exc:
        raise argparse.ArgumentTypeError(f"{text} has no {exc} field")
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{text} is not a session log: {exc}")
    if log.n_chunks == 0:
        raise argparse.ArgumentTypeError(f"{text} has no chunks")
    return log


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Veritas reproduction: causal queries from streaming traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run Setting A and save session logs")
    sim.add_argument("--traces", type=positive_int, default=5)
    sim.add_argument("--duration-s", type=positive_float, default=900.0)
    sim.add_argument("--seed", type=non_negative_int, default=2023)
    sim.add_argument("--out", type=Path, required=True)

    abd = sub.add_parser("abduct", help="infer GTBW traces from a saved log")
    abd.add_argument("log")
    abd.add_argument("--samples", type=positive_int, default=5)
    abd.add_argument("--seed", type=non_negative_int, default=0)
    abd.add_argument("--out", type=Path, default=None,
                     help="optional JSON file for the sampled traces")

    cf = sub.add_parser("counterfactual", help="answer one or more what-if queries")
    cf.add_argument(
        "--query",
        choices=["bba", "bola", "buffer", "ladder"],
        action="append",
        default=None,
        help="repeatable; all queries share one prepared corpus (Setting A "
             "deployed and abduction solved once)",
    )
    cf.add_argument("--buffer-s", type=positive_float, default=30.0)
    cf.add_argument("--traces", type=positive_int, default=5)
    cf.add_argument("--duration-s", type=positive_float, default=900.0)
    cf.add_argument("--samples", type=positive_int, default=5)
    cf.add_argument("--seed", type=non_negative_int, default=2023)
    cf.add_argument(
        "--workers", type=positive_int, default=1,
        help="process-pool size for corpus evaluation (1 = serial; results "
             "are bit-identical either way)",
    )
    cf.add_argument(
        "--kernel",
        choices=list(KERNEL_TIERS),
        default=None,
        # Generated from the tier registry so a new tier cannot drift
        # out of this message (results are bit-identical on every tier).
        # The default is stated in words: resolving it would build the
        # compiled kernel just to print --help.
        help="replay kernel tier for Setting-A deployment and Setting-B "
             f"replay: {', '.join(KERNEL_TIERS)} (default: compiled where "
             "its cc+cffi build loads, else scratch; reference replays one "
             "scalar session per lane on the golden per-RTT loop, scratch "
             "replays lanes in lockstep with NumPy, compiled runs whole "
             "sessions natively and, when asked for by name, falls back to "
             "scratch with a warning when no compiled backend is available)",
    )
    cf.add_argument(
        "--abduction-kernel",
        choices=list(ABDUCTION_TIERS),
        default=None,
        # Generated from the abduction tier registry, like --kernel above.
        help="abduction kernel tier for batched solve/sampling: "
             f"{', '.join(ABDUCTION_TIERS)} (default: compiled where its "
             "cc+cffi build loads, else numpy; numpy is bit-identical to "
             "the scalar reference, compiled keeps integer outputs "
             "bit-identical with float posteriors within rtol=1e-13 and, "
             "when asked for by name, falls back to numpy with a warning "
             "when no compiled backend is available)",
    )
    cf.add_argument(
        "--on-error",
        choices=list(ON_ERROR_POLICIES),
        default="raise",
        help="fault policy for the corpus run: \"raise\" fail-stops "
             "(default), \"degrade\" retries failing traces on the scalar "
             "reference path (bit-identical when the retry succeeds), "
             "\"skip\" additionally drops irrecoverable traces and reports "
             "them in a fault summary",
    )
    cf.add_argument(
        "--checkpoint-dir", type=Path, default=None,
        help="persist each prepared trace to this directory "
             "(content-addressed npz) and skip already-prepared traces on "
             "restart",
    )
    cf.add_argument(
        "--shard-timeout", type=positive_float, default=None, metavar="SECONDS",
        help="per-shard watchdog for --workers pools: a shard past this "
             "deadline is retried on a fresh pool (default: no timeout)",
    )
    cf.add_argument(
        "--max-retries", type=non_negative_int, default=2,
        help="pool attempts per shard beyond the first before falling back "
             "to in-process execution (default: 2)",
    )

    val = sub.add_parser(
        "validate",
        help="check trace files for format and content problems",
    )
    val.add_argument("paths", type=Path, nargs="+", metavar="FILE")
    val.add_argument(
        "--format",
        choices=["auto", "csv", "mahimahi"],
        default="auto",
        help="input format; \"auto\" (default) treats *.csv as CSV and "
             "everything else as a Mahimahi delivery schedule",
    )
    val.add_argument(
        "--window-s", type=positive_float, default=1.0,
        help="bandwidth-averaging window for Mahimahi schedules (default 1s)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the kernel-contract static analysis (repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    setting = paper_setting_a(seed=7)
    traces = paper_corpus(
        count=args.traces, duration_s=args.duration_s, seed=args.seed
    )
    for i, trace in enumerate(traces):
        log = run_setting(setting, trace)
        path = args.out / f"session_{i:03d}.json"
        log.save(path)
        print(f"wrote {path} ({log.n_chunks} chunks)")
    return 0


def _cmd_abduct(args: argparse.Namespace) -> int:
    posterior = VeritasAbduction(paper_veritas_config()).solve(args.log)
    print(f"log-likelihood: {posterior.log_likelihood:.2f}")
    samples = posterior.sample_traces(count=args.samples, seed=args.seed)
    map_trace = posterior.map_trace()
    print(
        f"MAP trace: mean {map_trace.mean():.2f} Mbps over "
        f"[{map_trace.start_time:.0f}, {map_trace.end_time:.0f}]s"
    )
    for i, s in enumerate(samples):
        print(f"sample {i}: mean {s.mean():.2f} Mbps")
    if args.out is not None:
        payload = {
            "map": {"boundaries": list(map_trace.boundaries),
                    "values": list(map_trace.values)},
            "samples": [
                {"boundaries": list(s.boundaries), "values": list(s.values)}
                for s in samples
            ],
        }
        args.out.write_text(json.dumps(payload), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    bad = 0
    for path in args.paths:
        fmt = args.format
        if fmt == "auto":
            fmt = "csv" if path.suffix.lower() == ".csv" else "mahimahi"
        try:
            if fmt == "csv":
                trace = load_csv(path)
            else:
                trace = load_mahimahi(path, window_s=args.window_s)
        except TraceFormatError as exc:
            bad += 1
            print(f"FAIL {exc}")
            for diag in exc.diagnostics[1:]:
                print(f"     {diag}")
            continue
        except OSError as exc:
            bad += 1
            print(f"FAIL {path}: {exc}")
            continue
        # Loaders validate on the way in; re-check the constructed trace so
        # "ok" means exactly "safe to feed to a corpus run".
        diagnostics = validate_trace(trace)
        if diagnostics:
            bad += 1
            print(f"FAIL {path}: " + "; ".join(str(d) for d in diagnostics))
            continue
        print(
            f"ok   {path}: {len(trace.values)} intervals, "
            f"{trace.duration:.1f}s, mean {trace.mean():.2f} Mbps"
        )
    if bad:
        print(f"{bad} of {len(args.paths)} file(s) failed validation")
    return 1 if bad else 0


def _cmd_counterfactual(args: argparse.Namespace) -> int:
    setting_a = paper_setting_a(seed=7)

    def setting_b_for(query: str):
        if query in ("bba", "bola"):
            return change_abr(setting_a, query)
        if query == "buffer":
            return change_buffer(setting_a, args.buffer_s)
        return change_ladder(setting_a, higher_ladder(), seed=0)

    queries = args.query or ["bba"]
    settings_b = [setting_b_for(q) for q in queries]

    traces = paper_corpus(
        count=args.traces, duration_s=args.duration_s, seed=args.seed
    )
    engine = CounterfactualEngine(
        paper_veritas_config(),
        n_samples=args.samples,
        seed=args.seed,
        n_workers=args.workers,
        kernel=args.kernel,
        abduction_kernel=args.abduction_kernel,
        on_error=args.on_error,
        shard_timeout_s=args.shard_timeout,
        max_retries=args.max_retries,
    )
    # Setting A is deployed and abduction solved exactly once; every query
    # is answered by replays against the shared reconstructions.
    prepared = engine.prepare_corpus(
        traces, setting_a, checkpoint_dir=args.checkpoint_dir
    )
    results = engine.evaluate_many(prepared, settings_b)
    all_faults = FaultLog()
    all_faults.extend(prepared.faults)
    seen: set[int] = set()
    for result in results:
        # evaluate_many shares one FaultLog across its results; dedup by id.
        if id(result.faults) not in seen:
            seen.add(id(result.faults))
            all_faults.extend(result.faults)
    if all_faults:
        print("### faults")
        print(all_faults.summary())
        print()
    for query, result in zip(queries, results):
        if len(results) > 1:
            print(f"\n### query: {query}")
        print(format_counterfactual_report(result))
        errors = result.prediction_errors("mean_ssim")
        better = np.mean(errors["veritas"] <= errors["baseline"] + 1e-12)
        print(f"\nVeritas at least as accurate as Baseline on "
              f"{better:.0%} of traces (SSIM)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Re-assemble the driver's own argv so repro.analysis.driver stays the
    # single source of truth for lint behaviour and exit codes.
    from .analysis.driver import main as lint_main

    argv: list[str] = []
    if args.list_rules:
        argv.append("--list-rules")
    if args.json:
        argv.append("--json")
    if args.rules is not None:
        argv += ["--rules", args.rules]
    argv += [str(p) for p in args.paths]
    return lint_main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "abduct":
        # session_log runs after parsing rather than as the positional's
        # type=, which argparse would call before the flags that follow
        # the log: ``abduct LOG --samples 0`` must still report --samples.
        try:
            args.log = session_log(args.log)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"argument log: {exc}")
    handlers = {
        "simulate": _cmd_simulate,
        "abduct": _cmd_abduct,
        "counterfactual": _cmd_counterfactual,
        "validate": _cmd_validate,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
