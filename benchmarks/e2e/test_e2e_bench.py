"""Self-test of the end-to-end benchmark on tiny inputs.

Drives every workload's code in both modes and checks the contract the
benchmark promises: ``BENCHMARK.json`` is well formed and matches the
metrics the runner emits, every metric carries its unit, traced self
times account for each rep's wall time, and the host clock leaves its own
sampling out of the times it reports.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import re
import time
from pathlib import Path

import pytest

from e2e_clock import HostClock
from e2e_runner import E2E_METRICS, run_workload
from e2e_tracing import LAYER_METRICS, ROOT_SPAN, chrome_trace, self_times
from e2e_workloads import (
    WORKLOADS,
    FreshCorpus,
    Interventional,
    QuerySweep,
    ResumeCorpus,
)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _tiny_workloads():
    corpus = dict(n_traces=3, trace_s=200.0, video_s=40.0)
    return [
        FreshCorpus(**corpus),
        ResumeCorpus(**corpus),
        QuerySweep(**corpus),
        Interventional(trace_s=200.0, video_s=40.0, n_probe=4),
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{(workload, trace): (record, spans)}`` for every tiny workload.

    The collector is off while they run: a full collection of a large test
    process, landing between the runner's clock and a span's, would break
    the 1% wall-time accounting of these millisecond reps.
    """
    out = {}
    gc.disable()
    try:
        for workload in _tiny_workloads():
            for trace in (False, True):
                workdir = tmp_path_factory.mktemp(f"{workload.name}-{int(trace)}")
                clock = None if trace else HostClock()
                started = time.perf_counter()
                try:
                    if clock is not None:
                        clock.start()
                    out[workload.name, trace] = run_workload(
                        workload, 3, 0.01, clock, workdir, started
                    )
                finally:
                    if clock is not None:
                        clock.stop()
    finally:
        gc.enable()
        gc.collect()
    return out


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    cli = importlib.util.spec_from_file_location("e2e_run_cli", HERE / "run.py")
    module = importlib.util.module_from_spec(cli)
    cli.loader.exec_module(module)
    assert list(module.WORKLOAD_NAMES) == list(WORKLOADS)


def test_every_metric_emitted_with_its_unit(runs):
    for (name, trace), (record, _) in runs.items():
        assert record["correct"], (name, trace, record["detail"])
        assert record["attempted"] >= 1 and record["failed"] == 0
        expected = LAYER_METRICS if trace else E2E_METRICS
        emitted = {k: v["unit"] for k, v in record["metrics"].items()}
        assert emitted == dict(expected), (name, trace)
        assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in record["metrics"].values()), name


def test_self_times_account_for_each_rep(runs):
    for (name, trace), (record, spans) in runs.items():
        if not trace:
            continue
        own = self_times(spans)
        assert all(t >= 0 for t in own.values()), name
        reps = sorted({s.rep for s in spans if s.rep >= 0})
        assert len(reps) == len(record["detail"]["traced_rep_s"]) >= 1
        for rep, wall_s in zip(reps, record["detail"]["traced_rep_s"]):
            in_rep = [s for s in spans if s.rep == rep]
            assert [s.name for s in in_rep].count(ROOT_SPAN) == 1
            total_s = sum(own[s.id] for s in in_rep) / 1e9
            assert total_s == pytest.approx(wall_s, rel=0.01, abs=1e-3), (name, rep)
        events = chrome_trace(spans)["traceEvents"]
        assert len(events) == len(spans) and json.dumps(events)


def test_host_clock_leaves_out_its_own_sampling():
    clock = HostClock()
    clock.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
    finally:
        clock.stop()
    assert clock.samples >= 5
    speed = clock.speed(t0, t1)
    work_s = clock.ref_seconds(t0, t1) / speed
    assert 0.5 * (t1 - t0) < work_s < t1 - t0
    # An interval with no sample inside borrows the nearest ones.
    assert clock.speed(t1 + 1.0, t1 + 2.0) > 0


def test_untraced_runs_report_reference_and_wall_times(runs):
    for (name, trace), (record, _) in runs.items():
        if trace:
            continue
        detail = record["detail"]
        assert len(detail["rep_ref_s"]) == len(detail["rep_s"]) == detail["reps"] >= 1
        assert detail["host_speed"] > 0 and detail["clock_samples"] >= 1, name


def test_layers_move_where_expected(runs):
    def layers(name):
        return {k: v["value"] for k, v in runs[name, True][0]["metrics"].items()}

    assert layers("resume-corpus")["runtime.ckpt_hits"] == 3
    assert layers("resume-corpus")["core.emission_s"] == 0
    assert layers("query-sweep")["core.emission_s"] == 0
    assert layers("fresh-corpus")["core.stacks"] >= 1
    assert layers("interventional")["core.solve_calls"] == 7
    assert layers("interventional")["abr.decide_calls"] == 0
