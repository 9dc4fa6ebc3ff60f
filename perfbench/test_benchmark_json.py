"""BENCHMARK.json names exactly the metrics the benchmark reports.

Run with ``python3 -m pytest perfbench``.
"""
import json
import os

import run
from tracing import layer_metrics
from workloads import WORKLOADS

SETUP_LAYERS = {"cli.import_s", "protocol.build_plan_ms",
                "protocol.design_cold_ms"}


def _doc():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match():
    names = [w["name"] for w in _doc()["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


def test_end_to_end_metrics_match():
    reported = set(run.end_to_end(
        [{"stages": {"simulate": 1, "reconstruct": 1, "report": 1},
          "wall_s": 1, "peak_rss_mb": 1}], [1.0]))
    assert {m["name"] for m in _doc()["end_to_end"]} == reported


def test_per_layer_metrics_match():
    reported = (set(layer_metrics([])) | SETUP_LAYERS
                | {"recon.bootstrap_thread_speedup", "trace.overhead_s"})
    assert {m["name"] for m in _doc()["per_layer"]} == reported
