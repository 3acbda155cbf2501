"""Tests for the quality-vs-time frontier bench (:mod:`repro.approx.bench`)."""

from __future__ import annotations

import json

import pytest

from repro.approx import run_frontier_bench
from repro.io import write_json_record
from repro.perf import PerfRecorder


@pytest.fixture(scope="module")
def record():
    # One shared smoke-scale run; the assertions below only read it.
    return run_frontier_bench((60, 240), channels=3, seed=99)


class TestFrontierRecord:
    def test_envelope_fields(self, record):
        assert record["suite"] == "approx-frontier"
        assert record["config"]["sizes"] == [60, 240]
        assert record["config"]["channels"] == 3

    def test_every_size_has_the_three_points(self, record):
        assert set(record["result"]) == {"60", "240"}
        for entry in record["result"].values():
            assert set(entry["frontier"]) == {"ptas", "sorting", "meta"}
            for point in entry["frontier"].values():
                assert point["data_wait"] > 0
                assert point["ratio_to_lower"] >= 1.0 - 1e-9
                assert point["ratio_to_best"] >= 1.0 - 1e-9
                assert point["plan_seconds"] >= 0.0

    def test_ptas_point_carries_its_bound(self, record):
        for entry in record["result"].values():
            point = entry["frontier"]["ptas"]
            assert point["data_wait"] <= point["quality_bound"] * (1 + 1e-9)
            assert point["bound_slack"] >= 1.0 - 1e-9

    def test_meta_point_carries_the_decision(self, record):
        for entry in record["result"].values():
            point = entry["frontier"]["meta"]
            assert point["chose"]
            assert isinstance(point["fell_back"], bool)
            assert 0.0 <= point["gini"] <= 1.0

    def test_checks_all_pass(self, record):
        assert all(record["aggregate"]["checks"].values())

    def test_aggregate_flattens_small_and_large(self, record):
        aggregate = record["aggregate"]
        frontier = record["result"]["240"]["frontier"]
        assert aggregate["ptas_ratio_large"] == pytest.approx(
            frontier["ptas"]["ratio_to_lower"]
        )
        assert aggregate["meta_ratio_small"] == pytest.approx(
            record["result"]["60"]["frontier"]["meta"]["ratio_to_lower"]
        )

    def test_quality_metrics_are_seed_deterministic(self, record):
        again = run_frontier_bench((60, 240), channels=3, seed=99)
        assert again["aggregate"]["ptas_ratio_large"] == pytest.approx(
            record["aggregate"]["ptas_ratio_large"], abs=0
        )
        assert again["aggregate"]["sorting_ratio_large"] == pytest.approx(
            record["aggregate"]["sorting_ratio_large"], abs=0
        )

    def test_perf_trail_is_attached(self, record):
        assert record["perf"]["counters"]["planner.ptas.plans"] >= 2

    def test_caller_perf_recorder_is_used(self):
        perf = PerfRecorder()
        run_frontier_bench((60,), channels=2, perf=perf)
        assert perf.snapshot()["counters"]["planner.meta.decisions"] == 1

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_frontier_bench(())
        with pytest.raises(ValueError, match=">= 2"):
            run_frontier_bench((1,))


class TestWriteJson:
    def test_writes_the_record(self, record, tmp_path):
        path = tmp_path / "BENCH_approx.json"
        written = write_json_record(str(path), record)
        on_disk = json.loads(path.read_text())
        assert on_disk == written == record
        assert on_disk["suite"] == "approx-frontier"
