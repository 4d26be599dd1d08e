"""Speed gates: each fast path must beat the slower path it replaces.

Every test times a fast path and the path it replaces on the same
bench-scale workload and asserts the ratio of their wall times.  The
parity suites under ``tests/`` pin the answers of every pair (bit-identical,
or within the documented tolerance); these tests gate speed only, and the
end-to-end benchmark in ``benchmarks/e2e/`` measures throughput.

Both sides of a ratio are timed by :func:`best_times`: one untimed
warm-up call per variant, then rounds that run every variant in turn,
keeping each variant's fastest round.  A burst of CPU noise on a shared
machine then slows one round of every variant instead of every round of
one.  A ratio that needs the cc backend is not checked without it.

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/test_speed_gates.py``.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import pytest

from common import (
    CORPUS_SEED,
    ENGINE_SEED,
    N_SAMPLES,
    N_TRACES,
    TRACE_DURATION_S,
    bench_setting_a,
)
from repro import (
    CounterfactualEngine,
    change_abr,
    paper_corpus,
    paper_veritas_config,
    run_setting,
)

# The fig9-style query sweep of the replay gates, over 4 bench traces.
SWEEP_QUERIES = ("bba", "bola", "bba", "bola", "bba")

# The portable tiers, named where a gate times the lockstep batch paths
# against the per-trace path (``use_batch=False``, the reference tiers) on
# every machine, native build or not.
PORTABLE_TIERS = {"kernel": "scratch", "abduction_kernel": "numpy"}


def best_times(
    variants: dict[str, Callable[[], object]], rounds: int
) -> dict[str, float]:
    """Fastest wall time of each variant over ``rounds`` interleaved rounds."""
    for run in variants.values():
        run()  # warm caches and compiled builds
    best = dict.fromkeys(variants, math.inf)
    for _ in range(rounds):
        for name, run in variants.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def make_engine(**kwargs) -> CounterfactualEngine:
    return CounterfactualEngine(
        paper_veritas_config(), n_samples=N_SAMPLES, seed=ENGINE_SEED, **kwargs
    )


def sweep_workload():
    """Setting A, the five Setting-B queries and the sweep corpus."""
    setting_a = bench_setting_a()
    settings_b = [change_abr(setting_a, query) for query in SWEEP_QUERIES]
    corpus = paper_corpus(
        count=min(N_TRACES, 4), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    return setting_a, settings_b, corpus


def test_query_sweep():
    """A prepared 5-query sweep beats 5 single-query pipelines (> 1.0x)."""
    setting_a, settings_b, corpus = sweep_workload()
    engine = make_engine()

    def sweep():
        engine.evaluate_many(engine.prepare_corpus(corpus, setting_a), settings_b)

    best = best_times(
        {
            "sweep": sweep,
            "single": lambda: engine.evaluate_corpus(
                corpus, setting_a, settings_b[0]
            ),
        },
        rounds=1,
    )
    speedup = len(settings_b) * best["single"] / best["sweep"]
    assert speedup > 1.0, f"prepared sweep: {speedup:.2f}x"


def test_batch_replay():
    """Lockstep replay of a query sweep is >= 1.3x ``use_batch=False``.

    The batch engine runs the portable tiers, so on every machine this
    gates the scratch chunk loop, which also serves the compiled tier's
    sessions that have no whole-session kernel plan; ``use_batch=False``
    is the reference tiers, one scalar session per lane.
    """
    setting_a, settings_b, corpus = sweep_workload()
    batch = make_engine(**PORTABLE_TIERS)
    serial = make_engine(use_batch=False)
    prepared = batch.prepare_corpus(corpus, setting_a)

    best = best_times(
        {
            "batch": lambda: batch.evaluate_many(prepared, settings_b),
            "serial": lambda: serial.evaluate_many(prepared, settings_b),
        },
        rounds=3,
    )
    speedup = best["serial"] / best["batch"]
    assert speedup >= 1.3, f"lockstep replay: {speedup:.2f}x"


def test_kernel_tiers():
    """Compiled replay is >= 1.5x scratch on the query sweep."""
    from repro.player import _fused

    if not _fused.available():
        pytest.skip("no compiled replay backend")
    setting_a, settings_b, corpus = sweep_workload()
    engines = {tier: make_engine(kernel=tier) for tier in ("scratch", "compiled")}
    prepared = engines["scratch"].prepare_corpus(corpus, setting_a)
    best = best_times(
        {
            tier: lambda engine=engine: engine.evaluate_many(prepared, settings_b)
            for tier, engine in engines.items()
        },
        rounds=3,
    )
    tier_speedup = best["scratch"] / best["compiled"]
    assert tier_speedup >= 1.5, f"compiled over scratch: {tier_speedup:.2f}x"


def test_prepare_corpus():
    """Batch preparation and the abduction tiers.

    Corpus-lockstep ``prepare_corpus`` on the portable tiers is >= 1.3x
    the per-trace ``use_batch=False`` pipeline (the reference tiers).  On
    pre-deployed logs, the abduction stage (``solve_batch`` +
    ``sample_traces_batch``) is >= 2.0x numpy on the compiled tier, and
    >= 1.0x the scalar reference on numpy.
    """
    from repro.core import VeritasAbduction, _kernels
    from repro.core.abduction import ABDUCTION_TIERS, sample_traces_batch
    from repro.util.rng import spawn_seeds

    setting_a = bench_setting_a()
    corpus = paper_corpus(
        count=max(20, 2 * N_TRACES), duration_s=TRACE_DURATION_S, seed=CORPUS_SEED
    )
    batch = make_engine(**PORTABLE_TIERS)
    serial = make_engine(use_batch=False)
    prepare_s = best_times(
        {
            "batch": lambda: batch.prepare_corpus(corpus, setting_a),
            "serial": lambda: serial.prepare_corpus(corpus, setting_a),
        },
        rounds=3,
    )

    kernel_live = _kernels.backend() != "python"
    logs = [run_setting(setting_a, trace) for trace in corpus]
    seeds = list(spawn_seeds(ENGINE_SEED, len(logs)))

    def abduct(tier: str):
        solver = VeritasAbduction(paper_veritas_config())

        def run():
            posteriors = solver.solve_batch(logs, kernel=tier)
            sample_traces_batch(posteriors, N_SAMPLES, seeds, kernel=tier)

        return run

    abduct_s = best_times(
        {
            tier: abduct(tier)
            for tier in ABDUCTION_TIERS
            if kernel_live or tier != "compiled"
        },
        rounds=3,
    )

    prepare_speedup = prepare_s["serial"] / prepare_s["batch"]
    assert prepare_speedup >= 1.3, f"batch prepare: {prepare_speedup:.2f}x"
    if kernel_live:
        compiled_speedup = abduct_s["numpy"] / abduct_s["compiled"]
        assert compiled_speedup >= 2.0, f"compiled abduction: {compiled_speedup:.2f}x"
    numpy_speedup = abduct_s["reference"] / abduct_s["numpy"]
    assert numpy_speedup >= 1.0, f"numpy abduction: {numpy_speedup:.2f}x"
