"""The engine bench suite: record shape, gates, and the written record."""

from __future__ import annotations

import json

import pytest

from repro.engine.bench import (
    SPEEDUP_TARGET,
    format_engine_bench,
    run_engine_bench,
    write_engine_bench_json,
)


@pytest.fixture(scope="module")
def record():
    return run_engine_bench(
        items=12, walks=4000, sample=300, repeats=1, seed=7
    )


class TestRecordShape:
    def test_suite_and_config(self, record):
        assert record["suite"] == "engine-batch"
        config = record["config"]
        assert config["walks"] == 4000
        assert config["sample"] == 300
        assert config["seed"] == 7

    def test_sections_present(self, record):
        for section in ("scalar", "batch", "faulty"):
            assert record[section]["walks_per_second"] >= 0
        assert record["batch"]["walks"] == 4000
        assert record["scalar"]["walks"] == 300

    def test_quality_aggregates_are_seed_deterministic(self, record):
        again = run_engine_bench(
            items=12, walks=4000, sample=300, repeats=1, seed=7
        )
        for metric in (
            "mean_access_time",
            "mean_tuning_time",
            "faulty_mean_access_time",
            "faulty_abandoned",
        ):
            assert record["aggregate"][metric] == again["aggregate"][metric]


class TestGates:
    def test_differential_gates_pass(self, record):
        checks = record["aggregate"]["checks"]
        assert checks["differential_exact"] is True
        assert checks["differential_faulty_exact"] is True

    def test_speedup_is_measured_against_the_scalar_walk(self, record):
        aggregate = record["aggregate"]
        assert aggregate["speedup_vs_scalar"] == pytest.approx(
            aggregate["batch_walks_per_second"]
            / aggregate["scalar_walks_per_second"]
        )
        assert aggregate["checks"]["batch_speedup_50x"] == (
            aggregate["speedup_vs_scalar"] >= SPEEDUP_TARGET
        )

    def test_sample_is_clamped_to_walks(self):
        small = run_engine_bench(
            items=12, walks=50, sample=500, repeats=1, seed=7
        )
        assert small["config"]["sample"] == 50

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            run_engine_bench(walks=0)
        with pytest.raises(ValueError):
            run_engine_bench(repeats=0)


class TestOutputs:
    def test_format_mentions_gates_and_throughput(self, record):
        text = format_engine_bench(record)
        assert "walks/s" in text
        assert "differential_exact=True" in text

    def test_writes_the_record(self, record, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        written = write_engine_bench_json(str(path), record)
        on_disk = json.loads(path.read_text())
        assert on_disk == written == record
        assert on_disk["suite"] == "engine-batch"
