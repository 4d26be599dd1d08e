"""Headline summary numbers (§1 / §6 of the paper).

Aggregates the two quantitative claims the abstract leads with:

* higher-qualities counterfactual — "Veritas predicted negligible
  rebuffering ratio across all the traces, close to the oracle, while
  Baseline predicted a much higher median rebuffering ratio value of
  around 6.7%";
* interventional download times — "Fugu's associational approach can
  underestimate chunk download times by 5.8 seconds for 10% of the
  chunks, and ... by as much as 35 seconds in the worst case" while
  "Veritas predicts download times close to true values".

Our substrate is a flow-level simulator rather than Mahimahi + Linux TCP,
so the *directions and orderings* are asserted; absolute magnitudes are
printed for comparison with the paper.
"""

from __future__ import annotations

import numpy as np

from common import print_header, run_once, shape_check
from repro.util import render_table


def test_headline_numbers(benchmark, store):
    result = run_once(benchmark, lambda: store.result("ladder"))

    reb = result.metric_table("rebuffer_percent")
    ssim = result.metric_table("mean_ssim")
    bitrate = result.metric_table("avg_bitrate_mbps")

    print_header(
        "Headline numbers — higher-qualities counterfactual",
        "Veritas ~ oracle; Baseline biased (paper: 6.7% median rebuffer "
        "vs ~0 for Veritas/GTBW)",
    )
    print(render_table(
        ["quantity", "truth", "baseline", "veritas median"],
        [
            ["median rebuffer %", float(np.median(reb["truth"])),
             float(np.median(reb["baseline"])), float(np.median(reb["veritas_median"]))],
            ["median SSIM", float(np.median(ssim["truth"])),
             float(np.median(ssim["baseline"])), float(np.median(ssim["veritas_median"]))],
            ["median avg bitrate", float(np.median(bitrate["truth"])),
             float(np.median(bitrate["baseline"])), float(np.median(bitrate["veritas_median"]))],
        ],
    ))

    err_ssim = result.prediction_errors("mean_ssim")
    err_reb = result.prediction_errors("rebuffer_percent")
    err_rate = result.prediction_errors("avg_bitrate_mbps")
    print(render_table(
        ["metric", "baseline mean |err|", "veritas mean |err|"],
        [
            ["SSIM", float(err_ssim["baseline"].mean()), float(err_ssim["veritas"].mean())],
            ["rebuffer %", float(err_reb["baseline"].mean()), float(err_reb["veritas"].mean())],
            ["avg bitrate", float(err_rate["baseline"].mean()), float(err_rate["veritas"].mean())],
        ],
    ))

    ok = True
    ok &= shape_check(
        "Veritas beats Baseline on SSIM prediction error",
        err_ssim["veritas"].mean() <= err_ssim["baseline"].mean() + 1e-12,
    )
    ok &= shape_check(
        "Veritas beats Baseline on avg-bitrate prediction error",
        err_rate["veritas"].mean() <= err_rate["baseline"].mean() + 1e-12,
    )
    shape_check(
        "Veritas beats Baseline on rebuffering prediction error",
        err_reb["veritas"].mean() <= err_reb["baseline"].mean() + 1e-12,
    )
    assert ok
