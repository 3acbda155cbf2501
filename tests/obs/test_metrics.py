"""Unit tests for the metrics registry and Prometheus exposition."""

from __future__ import annotations

import re

import pytest

from repro.obs.metrics import (
    DEFAULT_PERF_BASELINE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
    declare_perf_baseline,
    perf_counter_metric_name,
    perf_timer_metric_name,
    slot_buckets,
)
from repro.perf import PerfRecorder

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{(le|quantile)=\"[^\"]+\"\})? \S+$"
)


class TestCounter:
    def test_monotonic(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_set_total_never_moves_backwards(self):
        counter = Counter("c_total")
        counter.set_total(10)
        counter.set_total(4)  # stale snapshot: ignored
        assert counter.value == 10
        counter.set_total(12)
        assert counter.value == 12


class TestGauge:
    def test_goes_anywhere(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 3.0


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = Histogram("h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            hist.observe(value)
        samples = dict(hist.samples())
        assert samples['h_bucket{le="0.1"}'] == 1
        assert samples['h_bucket{le="1"}'] == 3
        assert samples['h_bucket{le="+Inf"}'] == 4
        assert samples["h_count"] == 4
        assert samples["h_sum"] == pytest.approx(3.05)

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_requests_total")
        second = registry.counter("repro_requests_total")
        assert first is second
        assert len(registry) == 1

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_requests_total")

    def test_invalid_name_raises(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("has spaces")

    def test_render_is_valid_sorted_exposition(self):
        registry = MetricsRegistry()
        registry.gauge("zz_last", "the last family").set(1)
        registry.counter("aa_first_total", "the first family").inc(2)
        registry.histogram("mm_mid", buckets=(0.5,)).observe(0.1)
        text = registry.render()
        assert text.endswith("\n")
        names = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert names == ["aa_first_total", "mm_mid", "zz_last"]
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _SAMPLE_LINE.match(line), line
        assert "# TYPE aa_first_total counter" in text
        assert "# TYPE mm_mid histogram" in text
        assert "# HELP zz_last the last family" in text
        assert "aa_first_total 2" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestSummary:
    def test_renders_quantile_rows_plus_sum_and_count(self):
        summary = Summary("s_slots", quantiles=(0.5, 0.99))
        for value in (10, 20, 30, 40):
            summary.observe(value)
        samples = dict(summary.samples())
        assert samples['s_slots{quantile="0.5"}'] == 20
        assert samples['s_slots{quantile="0.99"}'] == 40
        assert samples["s_slots_sum"] == 100
        assert samples["s_slots_count"] == 4

    def test_rejects_bad_quantile_points(self):
        with pytest.raises(ValueError, match="at least one"):
            Summary("s", quantiles=())
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Summary("s", quantiles=(0.5, 1.5))
        with pytest.raises(ValueError, match="ascending"):
            Summary("s", quantiles=(0.9, 0.5))

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        first = registry.summary("repro_walk_access_time_slots")
        assert registry.summary("repro_walk_access_time_slots") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_walk_access_time_slots")

    def test_merge_digest_folds_a_fleet_shard(self):
        summary = Summary("s")
        summary.observe(10)
        shard = Summary("s").digest
        shard.observe_many([20, 30])
        summary.merge_digest(shard)
        assert dict(summary.samples())["s_count"] == 3


class TestSlotBuckets:
    def test_bounds_cover_cycle_fractions_and_multiples(self):
        bounds = slot_buckets(20, max_cycles=8)
        assert bounds == (
            3.0, 5.0, 10.0, 15.0, 20.0, 40.0, 60.0, 80.0, 120.0, 160.0
        )
        # Strictly ascending — a valid Histogram construction.
        MetricsRegistry().histogram("h_slots", buckets=bounds)

    def test_deadline_bound_follows_max_cycles(self):
        bounds = slot_buckets(10, max_cycles=3)
        assert bounds[-1] == 30.0
        assert 40.0 not in bounds  # multiples past the deadline dropped

    def test_tiny_cycles_deduplicate_to_a_valid_histogram(self):
        bounds = slot_buckets(1)
        assert bounds == (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
        MetricsRegistry().histogram("h_slots", buckets=bounds)

    def test_validation(self):
        with pytest.raises(ValueError, match="cycle_length"):
            slot_buckets(0)
        with pytest.raises(ValueError, match="max_cycles"):
            slot_buckets(10, max_cycles=1)


class TestGoldenExposition:
    def test_walk_metrics_render_byte_exactly(self):
        """Golden 0.0.4 render: stable order, stable formatting.

        This is the exposition scrape parsers rely on — any drift in
        sorting, type lines, or value formatting must be a conscious
        change to this test.
        """
        registry = MetricsRegistry()
        summary = registry.summary(
            "repro_walk_access_time_slots",
            "access time per completed walk (slots)",
        )
        for value in (12, 14, 14, 25):
            summary.observe(value)
        registry.counter(
            "repro_walk_completed_total", "walks that reached their data"
        ).inc(4)
        hist = registry.histogram(
            "repro_loadtest_access_time_slots",
            "fleet access times",
            buckets=slot_buckets(4, max_cycles=2),
        )
        hist.observe(3)
        expected = "\n".join(
            [
                "# HELP repro_loadtest_access_time_slots fleet access times",
                "# TYPE repro_loadtest_access_time_slots histogram",
                'repro_loadtest_access_time_slots_bucket{le="1"} 0',
                'repro_loadtest_access_time_slots_bucket{le="2"} 0',
                'repro_loadtest_access_time_slots_bucket{le="3"} 1',
                'repro_loadtest_access_time_slots_bucket{le="4"} 1',
                'repro_loadtest_access_time_slots_bucket{le="8"} 1',
                'repro_loadtest_access_time_slots_bucket{le="+Inf"} 1',
                "repro_loadtest_access_time_slots_sum 3",
                "repro_loadtest_access_time_slots_count 1",
                "# HELP repro_walk_access_time_slots access time per "
                "completed walk (slots)",
                "# TYPE repro_walk_access_time_slots summary",
                'repro_walk_access_time_slots{quantile="0.5"} 14',
                'repro_walk_access_time_slots{quantile="0.95"} 25',
                'repro_walk_access_time_slots{quantile="0.99"} 25',
                "repro_walk_access_time_slots_sum 65",
                "repro_walk_access_time_slots_count 4",
                "# HELP repro_walk_completed_total walks that reached "
                "their data",
                "# TYPE repro_walk_completed_total counter",
                "repro_walk_completed_total 4",
                "",
            ]
        )
        assert registry.render() == expected
        for line in registry.render().splitlines():
            if not line.startswith("#"):
                assert _SAMPLE_LINE.match(line), line


class TestPerfBridge:
    def test_name_mapping(self):
        assert (
            perf_counter_metric_name("net.station.frames_sent")
            == "repro_net_station_frames_sent_total"
        )
        assert (
            perf_counter_metric_name("retry-parent.walks", prefix="x")
            == "x_retry_parent_walks_total"
        )
        assert (
            perf_timer_metric_name("replan.seconds")
            == "repro_replan_seconds_total"
        )
        assert (
            perf_timer_metric_name("serve", prefix="")
            == "serve_seconds_total"
        )

    def test_absorb_perf_adopts_running_totals(self):
        perf = PerfRecorder()
        perf.count("net.station.frames_sent", 7)
        perf.add_seconds("replan.seconds", 0.5)
        registry = MetricsRegistry()
        registry.absorb_perf(perf)
        text = registry.render()
        assert "repro_net_station_frames_sent_total 7" in text
        assert "repro_replan_seconds_total 0.5" in text

    def test_absorb_is_scrape_safe(self):
        """Re-absorbing the same recorder never double-counts."""
        perf = PerfRecorder()
        perf.count("requests", 3)
        registry = MetricsRegistry()
        registry.absorb_perf(perf)
        registry.absorb_perf(perf)  # second scrape, no new work
        assert "repro_requests_total 3" in registry.render()
        perf.count("requests", 2)
        registry.absorb_perf(perf.snapshot())  # snapshots work too
        assert "repro_requests_total 5" in registry.render()

    def test_declared_baseline_exposes_idle_series_at_zero(self):
        registry = MetricsRegistry()
        declare_perf_baseline(registry)
        text = registry.render()
        for name in DEFAULT_PERF_BASELINE:
            assert f"{perf_counter_metric_name(name)} 0" in text
        # A later scrape of real totals lands on the declared families.
        perf = PerfRecorder()
        perf.count("net.station.frames_sent", 9)
        registry.absorb_perf(perf)
        assert len(registry) == len(DEFAULT_PERF_BASELINE)
        assert "repro_net_station_frames_sent_total 9" in registry.render()

    def test_baseline_covers_the_server_fault_family(self):
        """An idle scrape already exposes every server.faults.* series."""
        registry = MetricsRegistry()
        declare_perf_baseline(registry)
        text = registry.render()
        for tail in ("lost", "corrupt", "retries", "abandoned",
                     "wasted_probes"):
            assert f"repro_server_faults_{tail}_total 0" in text

    def test_faulty_server_run_populates_the_fault_series(self):
        """Satellite check: a degraded server's scrape shows its faults."""
        import numpy as np

        from repro.faults import FaultConfig
        from repro.server.loop import BroadcastServer

        items = [f"K{i:02d}" for i in range(8)]
        server = BroadcastServer(
            items, channels=2, faults=FaultConfig(loss=0.3, seed=3)
        )
        server.run(
            np.random.default_rng(7), cycles=8, mean_requests_per_cycle=15.0
        )
        registry = MetricsRegistry()
        declare_perf_baseline(registry)
        registry.absorb_perf(server.perf)
        text = registry.render()
        match = re.search(r"repro_server_faults_lost_total (\d+)", text)
        assert match and int(match.group(1)) > 0
        match = re.search(r"repro_server_faults_retries_total (\d+)", text)
        assert match and int(match.group(1)) > 0


class TestLabels:
    """Labelled children: one family, distinct series per label set."""

    def test_labelled_children_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x", labels={"shard": "0"}).inc(3)
        registry.counter("repro_x_total", "x", labels={"shard": "1"}).inc(5)
        text = registry.render()
        assert 'repro_x_total{shard="0"} 3' in text
        assert 'repro_x_total{shard="1"} 5' in text
        # One HELP/TYPE header for the whole family.
        assert text.count("# HELP repro_x_total") == 1
        assert text.count("# TYPE repro_x_total") == 1

    def test_get_or_create_is_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro_g", labels={"shard": "0"})
        b = registry.gauge("repro_g", labels={"shard": "0"})
        c = registry.gauge("repro_g", labels={"shard": "1"})
        assert a is b
        assert a is not c
        assert "repro_g" in registry

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_c", labels={"a": "1", "b": "2"})
        b = registry.counter("repro_c", labels={"b": "2", "a": "1"})
        assert a is b

    def test_family_type_conflict_raises_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("repro_mixed", labels={"shard": "0"})
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_mixed", labels={"shard": "1"})

    def test_summary_and_histogram_merge_reserved_labels(self):
        registry = MetricsRegistry()
        registry.summary(
            "repro_s", quantiles=(0.5,), labels={"shard": "2"}
        ).observe(7)
        registry.histogram(
            "repro_h", buckets=(1.0,), labels={"shard": "2"}
        ).observe(0.5)
        text = registry.render()
        assert 'repro_s{shard="2",quantile="0.5"} 7' in text
        assert 'repro_s_sum{shard="2"} 7' in text
        assert 'repro_h_bucket{shard="2",le="1"} 1' in text
        assert 'repro_h_count{shard="2"} 1' in text

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError, match="invalid label"):
            Counter("repro_c", labels={"bad-name": "1"})

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("repro_g", labels={"path": 'a"b\\c'}).set(1)
        assert 'path="a\\"b\\\\c"' in registry.render()

    def test_hostile_label_values_render_byte_exactly(self):
        """Golden escaping regression: ``\\``, ``"`` and newline.

        The exposition format requires, in label values, ``\\\\`` for a
        backslash, ``\\"`` for a quote and ``\\n`` for a newline — and
        the backslash pass MUST run first or it would double-escape
        the other two. Any reordering of the replacements in
        ``_escape_label_value`` breaks these exact bytes.
        """
        registry = MetricsRegistry()
        registry.gauge(
            "repro_g",
            "watch the\nhelp \\ text too",
            labels={"path": 'a\\b"c\nd'},
        ).set(1)
        assert registry.render() == (
            "# HELP repro_g watch the\\nhelp \\\\ text too\n"
            "# TYPE repro_g gauge\n"
            'repro_g{path="a\\\\b\\"c\\nd"} 1\n'
        )
        # Exactly one physical line per sample: the newline really was
        # escaped, not emitted.
        assert len(registry.render().splitlines()) == 3

    def test_each_escape_alone_is_exact(self):
        cases = [
            ("\\", '"\\\\"'),
            ('"', '"\\""'),
            ("\n", '"\\n"'),
            ("\\n", '"\\\\n"'),  # literal backslash-n is NOT a newline
        ]
        for raw, quoted in cases:
            registry = MetricsRegistry()
            registry.counter("repro_c", labels={"v": raw}).inc()
            assert f"repro_c{{v={quoted}}} 1" in registry.render()

    def test_families_group_despite_prefix_collisions(self):
        # Naive sorted-by-key rendering would interleave foo, foo{...}
        # and foobar; grouping must be by family name.
        registry = MetricsRegistry()
        registry.counter("repro_foo", labels={"shard": "1"}).inc()
        registry.counter("repro_foobar").inc()
        registry.counter("repro_foo", labels={"shard": "0"}).inc()
        text = registry.render()
        foo_help = text.index("# HELP repro_foo ")
        shard0 = text.index('repro_foo{shard="0"}')
        shard1 = text.index('repro_foo{shard="1"}')
        foobar_help = text.index("# HELP repro_foobar ")
        assert foo_help < shard0 < shard1 < foobar_help

    def test_absorb_perf_with_labels(self):
        registry = MetricsRegistry()
        perf = PerfRecorder()
        perf.count("net.station.frames_sent", 4)
        registry.absorb_perf(perf, labels={"shard": "3"})
        registry.absorb_perf(perf, labels={"shard": "3"})  # idempotent
        text = registry.render()
        assert 'repro_net_station_frames_sent_total{shard="3"} 4' in text
