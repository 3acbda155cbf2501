"""Tests for the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats
from perfbench.hostspeed import NOMINAL_S, HostSpeed, Window
from perfbench.openloop import CpuTimeline, Deadlines, drive, poisson_schedule
from perfbench.tracing import Recorder

ROOT = Path(__file__).resolve().parents[2]


# -- nearest-rank percentiles ------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert stats.percentile(values, 5) == 15
    assert stats.percentile(values, 30) == 20
    assert stats.percentile(values, 40) == 20
    assert stats.percentile(values, 50) == 35
    assert stats.percentile(values, 100) == 50


def test_percentile_never_interpolates():
    values = list(np.random.default_rng(3).normal(size=101))
    for p in (1, 50, 90, 99, 100):
        assert stats.percentile(values, p) in values


def test_weighted_percentile_equals_expanded_sample():
    values, weights = [3.0, 1.0, 2.0], [2, 5, 3]
    expanded = [v for v, w in zip(values, weights) for _ in range(w)]
    for p in (1, 10, 50, 51, 70, 71, 99, 100):
        assert stats.percentile(values, p, weights) == \
            stats.percentile(expanded, p)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    for count in (20, 100, 999, 1000, 5000, 10_000, 123_456):
        p = stats.tail_percentile(count)
        assert stats.beyond(count, p) >= stats.TAIL_MIN_BEYOND
        higher = [q for q in stats.TAIL_LADDER if q > p]
        if higher:
            assert stats.beyond(count, higher[0]) < stats.TAIL_MIN_BEYOND


def test_windowed_percentile_is_the_median_over_windows():
    fast = [[1.0] * 100 for _ in range(3)]
    slow = [[9.0] * 100 for _ in range(4)]
    assert stats.windowed_percentile(slow + fast, 50) == 9.0
    assert stats.windowed_percentile(fast + [[]] + slow[:3], 99) == 5.0


def test_windows_keep_order_and_fold_a_short_rest():
    assert stats.windows([1, 2, 3, 4, 5, 6, 7], 3) == [[1, 2, 3], [4, 5, 6, 7]]
    assert stats.windows([1, 2], 3) == [[1, 2]]


def test_merge_windows_reaches_the_minimum_and_keeps_order():
    groups = [[1, 2], [3], [4, 5, 6], [7]]
    assert stats.merge_windows(groups, 3) == [[1, 2, 3], [4, 5, 6, 7]]
    assert stats.merge_windows([[1], [2]], 5) == [[1, 2]]


# -- open-loop timing --------------------------------------------------------

def _fifo_completions(due, service, servers):
    """Reference model: walks served first-come by ``servers`` slots."""
    free = [0.0] * servers
    done = []
    for start, cost in zip(due, service):
        slot = min(range(servers), key=free.__getitem__)
        free[slot] = max(start, free[slot]) + cost
        done.append(free[slot])
    return done


def test_open_loop_charges_a_stall_to_later_arrivals():
    due = [0.0, 1.0, 2.0, 3.0]
    service = [5.0, 1.0, 1.0, 1.0]
    done = _fifo_completions(due, service, servers=1)
    assert done == [5.0, 6.0, 7.0, 8.0]
    assert stats.open_loop_latencies(due, done) == [5.0, 5.0, 5.0, 5.0]
    # Timed from the moment each walk got the server instead, the stall
    # would vanish from every walk but the first.
    started = [d - s for d, s in zip(done, service)]
    assert [d - s for d, s in zip(done, started)] == service


def test_interpolate_is_piecewise_linear_and_clamped():
    xs, ys = [0.0, 1.0, 1.0, 3.0], [10.0, 20.0, 25.0, 25.0]
    assert stats.interpolate(xs, ys, 0.5) == 15.0
    assert stats.interpolate(xs, ys, 2.0) == 25.0
    assert stats.interpolate(xs, ys, -1.0) == 10.0
    assert stats.interpolate(xs, ys, 9.0) == 25.0
    with pytest.raises(ValueError):
        stats.interpolate([], [], 0.0)


def test_cpu_timeline_leaves_out_time_the_process_did_not_run():
    wall = iter([0.0, 1.0, 3.0, 4.0])
    cpu = iter([0.0, 1.0, 1.0, 2.0])  # preempted from 1.0 to 3.0 wall
    timeline = CpuTimeline(wall=lambda: next(wall), cpu=lambda: next(cpu))
    stamps = [timeline.stamp() for _ in range(4)]
    assert stamps == [0.0, 1.0, 3.0, 4.0]
    assert timeline.cpu_at(0.5) == 0.5
    assert timeline.cpu_at(4.0) - timeline.cpu_at(0.0) == 2.0
    assert timeline.cpu_at(2.0) == 1.0


def test_host_speed_window_scales_by_the_reference_around_it():
    # Each probe reads the median of three reference runs on the CPU
    # clock: 4 ms before the block, 8 ms after it, then 5 ms alone.
    cpu = iter([0.0, 0.004, 0.0, 0.005, 0.0, 0.003,
                0.0, 0.008, 0.0, 0.009, 0.0, 0.001,
                0.0, 0.005, 0.0, 0.005, 0.0, 0.005])
    speed = HostSpeed(task=lambda: None, cpu=lambda: next(cpu))
    with speed.window() as window:
        assert speed.probes == pytest.approx([0.004])
    assert window.slowness == pytest.approx(0.006 / NOMINAL_S)
    assert window.scale(3.0) == pytest.approx(1.0)  # three times nominal
    assert Window(slowness=4.0, sensitivity=0.5).scale(3.0) == 1.5
    speed.probe()
    assert speed.probes == pytest.approx([0.004, 0.008, 0.005])
    assert speed.slowness() == pytest.approx(0.005 / NOMINAL_S)


def test_serial_latencies_carry_a_stall_after_a_chunk_to_the_next():
    # Chunk 1: walks return at 1 and 2, then a 5 s replan ends it at 7.
    # The benchmark's own 100 s between chunks is not charged; chunk 2's
    # first walk waits for the replan (5 s) plus its own 1 s.
    groups = stats.serial_latencies([
        (0.0, [1.0, 2.0], 7.0),
        (107.0, [108.0, 108.5], 109.0),
    ])
    assert groups == [[1.0, 1.0], [6.0, 0.5]]


def test_serial_latencies_charge_an_empty_chunk_to_the_next_walk():
    groups = stats.serial_latencies([
        (0.0, [1.0], 1.0), (2.0, [], 3.0), (5.0, [6.0], 6.0),
    ])
    assert groups == [[1.0], [], [2.0]]


def test_poisson_schedule_is_seeded_and_fixed_in_count():
    first = poisson_schedule(np.random.default_rng(7), 200.0, 3.0)
    again = poisson_schedule(np.random.default_rng(7), 200.0, 3.0)
    other = poisson_schedule(np.random.default_rng(8), 200.0, 3.0)
    assert first == again and first != other
    assert len(first) == len(other) == 600
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 3.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=30))


def test_drive_times_walks_from_due_time_through_a_stall():
    stall, quick = 0.2, 0.005

    async def walk_fn(walk):
        walk.enter("fetch", 0.0)
        await asyncio.sleep(stall if walk.index == 0 else quick)
        return walk.index

    run = _run(drive([0.0, 0.01, 0.02], walk_fn, max_open=1))
    assert [w.result for w in run.completed] == [0, 1, 2]
    first, second, third = run.walks
    # Walks 1 and 2 were due long before walk 0 released the connection:
    # their latency includes the wait, not only their own 5 ms.
    assert second.acquired >= first.done
    assert second.done - second.due >= stall - 0.01
    assert third.done - third.due >= stall + quick - 0.02


def test_drive_fails_a_walk_that_misses_its_frame_deadline():
    async def walk_fn(walk):
        walk.enter("fetch", time.perf_counter())
        walk.progress = lambda: 0
        if walk.index == 1:
            await asyncio.sleep(10)
        return "ok"

    deadlines = Deadlines(frame=0.1, walk=5.0, drain=5.0)
    run = _run(drive([0.0, 0.0, 0.0], walk_fn, max_open=2,
                     deadlines=deadlines, tick=0.01))
    assert [w.index for w in run.completed] == [0, 2]
    assert [w.index for w in run.failed] == [1]
    assert "frame read deadline" in run.failed[0].failure


def test_drive_ends_a_stuck_run_and_names_what_was_in_flight(capsys):
    async def walk_fn(walk):
        walk.enter("connect", float("inf"))  # never trips its own deadline
        await asyncio.sleep(10)

    deadlines = Deadlines(walk=60.0, drain=0.2)
    run = _run(drive([0.0], walk_fn, max_open=1, deadlines=deadlines))
    assert run.failed[0].failure == "run deadline"
    assert "walk 0: phase connect" in capsys.readouterr().err


def test_drive_counts_a_raising_walk_as_failed():
    async def walk_fn(walk):
        raise ConnectionResetError("peer went away")

    run = _run(drive([0.0], walk_fn, max_open=1))
    assert run.failed[0].failure == "ConnectionResetError: peer went away"


# -- reconciliation ------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_reconcile_arithmetic():
    total, error = stats.reconcile(10.0, {"net": 6.0, "io": 3.0}, 1.0)
    assert (total, error) == (10.0, 0.0)
    _, error = stats.reconcile(10.0, {"net": 6.0}, 1.0)
    assert error == pytest.approx(0.3)


def test_covered_is_the_union_of_intervals():
    assert stats.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.covered([(0, 10), (2, 3)]) == 10
    assert stats.covered([]) == 0


def test_self_times_and_idle_add_up_to_wall_time():
    clock = _Clock()
    recorder = Recorder(clock)
    root = recorder.begin("bench.walk", 0.0, parent=None)
    with recorder.within(root):
        clock.now = 1.0
        with recorder.span("net.fetch"):
            clock.now = 2.0

            def step():
                clock.now += 1.5

            recorder.wrap(step, "client.step", leaf=True)()
            clock.now = 5.0
        clock.now = 6.0
    recorder.end(root, 8.0)
    own, problems = recorder.self_times()
    assert not problems
    assert own["net.fetch"] == pytest.approx(4.0 - 1.5)
    assert own["client.step"] == pytest.approx(1.5)
    assert own["bench.walk"] == pytest.approx(8.0 - 4.0)
    rows = recorder.reconciliation()
    assert rows["ok"] and rows["wall_s"] == 8.0
    assert rows["idle_s"] == pytest.approx(4.0)
    assert rows["layers_s"] == pytest.approx({"net": 2.5, "client": 1.5})


def test_reconciliation_flags_overlapping_children():
    recorder = Recorder(_Clock())
    root = recorder.begin("bench.round", 0.0, parent=None)
    recorder.record("cluster.refit", 1.0, 4.0, parent=root)
    recorder.record("engine.run_batch", 3.0, 5.0, parent=root)
    recorder.end(root, 10.0)
    rows = recorder.reconciliation()
    assert not rows["ok"]
    assert any("overlap" in problem for problem in rows["problems"])


def test_patch_restores_modules_classes_and_instances():
    import contextlib
    import types

    module = types.SimpleNamespace(func=lambda: "module")

    class Thing:
        def method(self):
            return "class"

    thing = Thing()
    recorder = Recorder()
    with contextlib.ExitStack() as stack:
        recorder.patch(stack, module, "func", "x.func", leaf=True)
        recorder.patch(stack, thing, "method", "x.method", leaf=True)
        assert module.func() == "module" and thing.method() == "class"
    assert recorder.leaf_total("x.func")[1] == 1
    assert recorder.leaf_total("x.method")[1] == 1
    assert "method" not in vars(thing)
    assert module.func.__name__ == "<lambda>"


# -- the result line ---------------------------------------------------------------

def test_a_metric_left_unmeasured_reads_zero_only_after_a_failed_gate():
    from perfbench.report import Measurement
    from perfbench.run import _value

    failed = Measurement()
    failed.gate("every scheduled walk completed", False, "0/5 completed")
    assert _value(failed, "walk_ms_p50") == 0.0
    passed = Measurement()
    passed.gate("store verifies", True)
    with pytest.raises(KeyError):
        _value(passed, "walk_ms_p50")
    passed.add("walk_ms_p50", 2.5, "ms", 10)
    assert _value(passed, "walk_ms_p50") == 2.5


# -- the record ------------------------------------------------------------------

def test_record_maps_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((ROOT / "perfbench" / "record.json").read_text())
    names = {item["name"] for item in spec["workloads"]}
    assert set(record["workloads"]) == names
    mapped = set()
    for workload in record["workloads"].values():
        for layer_metric, end_to_end in workload["layer_metrics"].items():
            mapped.add(layer_metric)
            assert end_to_end in {m["name"] for m in spec["end_to_end"]}
    declared = {item["name"] for item in spec["per_layer"]}
    derived = {m for m in declared if m.startswith(("trace.", "bench.re",
                                                     "bench.idle"))}
    assert declared - derived == mapped
