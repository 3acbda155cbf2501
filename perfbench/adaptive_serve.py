"""adaptive-serve: the in-process serving loop under drifting popularity.

A :class:`~repro.server.BroadcastServer` over :data:`ITEMS` keys,
:data:`CHANNELS` channels and fanout :data:`FANOUT` runs the
``budgeted`` planner and publishes every replan to a
:class:`~repro.sched.ScheduleStore`. The benchmark feeds it chunks of
:data:`REPLAN_EVERY` cycles at about :data:`REQUESTS_PER_CYCLE`
Poisson requests per cycle; between chunks the true popularity drifts
(a seeded few ranks swap places), so every chunk ends in a replan
against new estimates. Replans run beside the scalar walks, on one
thread, with no sockets.

The size is set by replan cost, and capped by a defect: the server's
tree build always runs the cubic exact alphabetic construction, which
raises ``RecursionError`` somewhere above 210 keys (see
``perfbench/record.json``).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

from repro.online import adaptive as online_adaptive
from repro.online.adaptive import AdaptiveBroadcaster
from repro.sched import ScheduleStore
from repro.server import BroadcastServer
from repro.server import loop as server_loop

from .hostspeed import HostSpeed
from .report import Measurement
from .stats import percentile, serial_latencies, windows
from .tracing import Recorder, patch, root_span

ITEMS = 128
CHANNELS = 4
FANOUT = 3
REPLAN_EVERY = 8
REQUESTS_PER_CYCLE = 400.0
THETA = 0.95
#: Rank pairs that swap between chunks: the popularity drift.
DRIFT_SWAPS = 8
#: Set-ups happen before the timed phase and again each time another
#: eighth of it has run, so set-up time is sampled across the run.
SETUP_POINTS = 8
#: Chunks always run, even past ``--seconds``; the slot means cover
#: exactly these, so they repeat for a given seed.
MIN_CHUNKS = 16
#: Replans are grouped this many to a window for ``replan_s_p50``.
REPLAN_WINDOW = 4


def _server(workdir: Path) -> tuple[BroadcastServer, ScheduleStore]:
    store = ScheduleStore(tempfile.mkdtemp(prefix="store-", dir=workdir))
    server = BroadcastServer(
        [f"K{index:03d}" for index in range(ITEMS)],
        channels=CHANNELS,
        fanout=FANOUT,
        replan_every=REPLAN_EVERY,
        planner="budgeted",
        store=store,
    )
    return server, store


def measure(seed: int, seconds: float, recorder: Recorder | None = None,
            *, workdir: Path) -> Measurement:
    clock = time.perf_counter
    workdir = Path(tempfile.mkdtemp(prefix="adaptive-", dir=workdir))
    try:
        with contextlib.ExitStack() as stack:
            return _measure(seed, seconds, recorder, workdir, stack, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(seed, seconds, recorder, workdir, stack, clock) -> Measurement:
    if recorder is not None:
        recorder.patch(stack, AdaptiveBroadcaster, "replan", "server.replan")
        recorder.patch(stack, online_adaptive, "optimal_alphabetic_tree",
                       "tree.build")
        recorder.patch(stack, online_adaptive, "plan", "planners.plan")
        recorder.patch(stack, ScheduleStore, "publish", "sched.publish")
        recorder.patch(stack, ScheduleStore, "save_state", "sched.save_state")
        recorder.patch(stack, server_loop, "compile_program",
                       "broadcast.compile")
        recorder.patch(stack, server_loop, "object_walk", "client.walk",
                       leaf=True, samples=True)
        recorder.patch(stack, AdaptiveBroadcaster, "observe",
                       "online.observe", leaf=True)

    # Always-on stamps for the end-to-end metrics; installed outside
    # the tracing wrappers so traced spans do not include them.
    done = array("d")
    totals = [0, 0, 0]  # access slots, tuning slots, walks
    replans: list[float] = []
    publishes: list[float] = []
    walk = server_loop.object_walk

    def stamped_walk(*args, **kwargs):
        record = walk(*args, **kwargs)
        done.append(clock())
        totals[0] += record.access_time
        totals[1] += record.tuning_time
        totals[2] += 1
        return record

    def timed(func, sink):
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                sink.append(clock() - started)
        return wrapper

    patch(stack, server_loop, "object_walk", stamped_walk)
    patch(stack, AdaptiveBroadcaster, "replan",
          timed(AdaptiveBroadcaster.replan, replans))
    patch(stack, ScheduleStore, "publish",
          timed(ScheduleStore.publish, publishes))

    speed = HostSpeed()
    setups = []

    def set_up():
        with speed.window() as window:
            started = clock()
            with root_span(recorder, "bench.setup", started):
                built = _server(workdir)
            took = clock() - started
        setups.append(window.scale(took))
        return built

    server, store = set_up()

    rng = np.random.default_rng([seed, 0xAD])
    items = list(server.planner.items)
    ranks = 1.0 / np.power(np.arange(1, ITEMS + 1), THETA)
    order = rng.permutation(ITEMS)
    chunk_totals = []
    chunk_begins, chunk_ends, chunk_walls = [], [], []
    chunk_walks = []
    chunks = []  # each chunk's host-speed window
    fallbacks = 0
    marks = [seconds * k / SETUP_POINTS for k in range(1, SETUP_POINTS + 1)]
    replan_s: list[float] = []
    while len(chunk_totals) < MIN_CHUNKS or sum(chunk_walls) < seconds:
        for _ in range(DRIFT_SWAPS):
            a, b = rng.integers(0, ITEMS, size=2)
            order[a], order[b] = order[b], order[a]
        weights = {item: float(ranks[order[i]]) for i, item in
                   enumerate(items)}
        with speed.window() as window:
            began = clock()
            with root_span(recorder, "bench.chunk", began):
                server.run(
                    rng, cycles=REPLAN_EVERY,
                    mean_requests_per_cycle=REQUESTS_PER_CYCLE,
                    true_weights=weights,
                )
                finished = clock()
        chunks.append(window)
        chunk_begins.append(began)
        chunk_ends.append(finished)
        chunk_walls.append(finished - began)
        chunk_walks.append(len(done))
        chunk_totals.append(tuple(totals))
        fallbacks += bool(server.planner.last_result.stats.get("fell_back"))
        replan_s.append(window.scale(replans[-1] + publishes[-1]))
        while marks and sum(chunk_walls) >= marks[0]:
            marks.pop(0)
            set_up()

    walks = totals[2]
    m = Measurement(attempted=walks, failed=0)
    m.add_median("setup_s", setups, "s")
    firsts = [0] + chunk_walks[:-1]
    m.add_rate("walks_per_s", [
        (last - first) / window.scale(wall)
        for first, last, wall, window in zip(firsts, chunk_walks,
                                             chunk_walls, chunks)
    ], "1/s")
    # No wall-clock arrivals here: the server issues each walk itself,
    # so a walk is due when the previous one returned, and a cycle's
    # compile or a replan is charged to the walk that waited for it. A
    # chunk's replan, publish and crash snapshot run after its last
    # walk, so they land on the first walk of the next chunk; the
    # benchmark's own work between chunks (drift, set-ups) does not.
    # Each chunk is one window.
    groups = serial_latencies([
        (began, done[first:last], finished)
        for first, last, began, finished in zip(firsts, chunk_walks,
                                                chunk_begins, chunk_ends)
    ])
    m.add_latency("walk_ms", [
        [window.scale(latency) for latency in group]
        for group, window in zip(groups, chunks)
    ], "ms", 1e3)
    m.add_windowed("replan_s_p50", windows(replan_s, REPLAN_WINDOW), "s", 50)
    m.extra["slowness"] = speed.slowness()
    access, tuning, counted = chunk_totals[MIN_CHUNKS - 1]
    m.add("access_slots_mean", access / counted, "slots", counted)
    m.add("tuning_slots_mean", tuning / counted, "slots", counted)

    checked = store.verify()
    versions = len(store.versions())
    m.gate("store verifies", checked == versions,
           f"{checked} of {versions} versions")
    head_cost = store.load().cost
    want = server.planner.last_result.cost
    m.gate("head version holds the last plan's cost", head_cost == want,
           f"{head_cost!r} vs {want!r}")
    m.extra.update(
        fallbacks=fallbacks,
        bytes_per_version=store.size_bytes() / versions,
    )
    return m


def layers(recorder: Recorder, m: Measurement) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced adaptive-serve run."""

    def p50_ms(name):
        spans = recorder.named(name, root="bench.chunk")
        return percentile([s.seconds for s in spans], 50) * 1e3

    observe_s, observes = recorder.leaf_total("online.observe")
    save = [s.seconds for s in recorder.named("sched.save_state",
                                              root="bench.chunk")]
    return {
        "server.replan_ms_p50": (p50_ms("server.replan"), "ms"),
        "tree.build_ms_p50": (p50_ms("tree.build"), "ms"),
        "planners.plan_ms_p50": (p50_ms("planners.plan"), "ms"),
        "sched.publish_ms_p50": (p50_ms("sched.publish"), "ms"),
        "planners.fallbacks": (m.extra["fallbacks"], "count"),
        "sched.bytes_per_version": (m.extra["bytes_per_version"], "bytes"),
        "broadcast.compile_ms_p50": (p50_ms("broadcast.compile"), "ms"),
        "client.walk_us_p50": (
            percentile(recorder.samples["client.walk"], 50) * 1e6, "us"
        ),
        "online.observe_us": (observe_s / observes * 1e6, "us"),
        "sched.save_state_ms": (percentile(save, 50) * 1e3, "ms"),
    }
