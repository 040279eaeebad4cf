"""scripts/bench.py's summary and paired ratios, on canned perfbench results."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_script()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in SPEC["end_to_end"]]
HIGHER = {m["name"]: m["better"] == "higher" for m in SPEC["end_to_end"]}


def canned(values: dict[str, float]) -> dict:
    """One run's final JSON line, as ``perfbench/run.py`` prints it."""
    return {"correct": True, "attempted": 8, "failed": 0,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def test_summary_and_ratios_of_canned_runs():
    base = [canned({"items_per_s": v, "item_p50_ms": 10.0}) for v in (100, 110, 120, 130, 140)]
    head = [canned({"items_per_s": v, "item_p50_ms": 10.0}) for v in (150, 99, 180, 260, 210)]
    names = ["items_per_s", "item_p50_ms"]
    summary = bench.summarize(head, names)
    assert summary["items_per_s"] == {"unit": "u", "median": 180, "q1": 150, "q3": 210,
                                      "values": [150, 99, 180, 260, 210]}
    compared = bench.compare(summary, bench.summarize(base, names),
                             {"items_per_s": True, "item_p50_ms": False})
    assert compared["pairs_won"] == {"items_per_s": 4, "item_p50_ms": 0}
    ratios = compared["ratios"]
    assert ratios["items_per_s"]["values"] == [1.5, 0.9, 1.5, 2.0, 1.5]
    assert (ratios["items_per_s"]["q1"], ratios["items_per_s"]["median"],
            ratios["items_per_s"]["q3"]) == (1.5, 1.5, 1.5)
    assert ratios["item_p50_ms"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "values": [1.0] * 5}


def test_a_zero_baseline_gives_no_ratio():
    head = {"ok_ratio": {"values": [1.0, 1.0, 1.0]}, "setup_s": {"values": [1.0, 2.0, 3.0]}}
    base = {"ok_ratio": {"values": [0.0, 0.0, 1.0]}, "setup_s": {"values": [0.0, 1.0, 1.0]}}
    ratios = bench.compare(head, base, {"ok_ratio": True, "setup_s": False})["ratios"]
    assert ratios["ok_ratio"] is None
    assert ratios["setup_s"]["values"] == [2.0, 3.0]


def test_counter_diffs_name_each_moved_counter_with_both_values():
    base = {"lp.solve_calls": 240, "lp.solve_s": 0.5, "analysis.pairwise_calls": 8,
            "lp.cutting_prune_ratio": 0.25, "verify.pool_busy_ratio": 0.9,
            "verify.pool_child_cpu_s": 1.0, "trace.overhead_s": 0.1}
    head = {**base, "lp.solve_calls": 146, "lp.solve_s": 0.3, "analysis.pairwise_calls": 0,
            "verify.pool_busy_ratio": 0.8, "verify.pool_child_cpu_s": 0.7,
            "trace.overhead_s": 0.2, "slices.samples": 46080}
    assert bench.counter_diffs(head, base) == {
        "analysis.pairwise_calls": {"baseline": 8, "head": 0},
        "lp.solve_calls": {"baseline": 240, "head": 146},
        "slices.samples": {"baseline": None, "head": 46080},
    }
    assert bench.counter_diffs(base, dict(base)) == {}


def test_rows_keep_every_key_of_earlier_files(tmp_path, monkeypatch):
    """``main`` on canned runs writes the keys of ``BENCH_44.json``; the head row
    adds ``ratios``, ``layers`` and ``counter_diffs``."""
    def run_once(root, workload, seed, trace=0):
        scale = 2.0 if root == bench.ROOT else 1.0
        if trace:  # the head solves fewer programs, in less time
            return canned({"lp.solve_calls": 100 / scale, "lp.solve_s": 0.1 / scale})
        return canned({name: scale * (seed - 10) for name in NAMES})

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--baseline", str(tmp_path)]) == 0
    doc = json.loads(out.read_text())
    earlier = json.loads((ROOT / "BENCH_44.json").read_text())
    assert set(doc) == set(earlier)
    assert len(doc["rows"]) == 2 * len(SPEC["workloads"])
    for row, old in zip(doc["rows"], earlier["rows"]):
        added = {"ratios", "layers", "counter_diffs"} if row["role"] == "head" else set()
        assert set(row) == set(old) | added
        assert set(row["metrics"]) == set(NAMES)
        for name, metric in row["metrics"].items():
            assert set(metric) == set(old["metrics"][name]), name
        if row["role"] == "head":
            # The head reads twice the baseline on every seed.
            assert row["pairs_won"] == {n: len(bench.SEEDS) if HIGHER[n] else 0 for n in NAMES}
            assert all(r["median"] == pytest.approx(2.0) for r in row["ratios"].values())
            assert row["layers"] == {
                "baseline": {"correct": True, "metrics": {"lp.solve_calls": 100, "lp.solve_s": 0.1}},
                "head": {"correct": True, "metrics": {"lp.solve_calls": 50, "lp.solve_s": 0.05}},
            }
            assert row["counter_diffs"] == {"lp.solve_calls": {"baseline": 100, "head": 50}}
