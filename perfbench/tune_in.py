"""tune-in: independent tuners against one live loopback station.

One :class:`~repro.net.station.BroadcastStation` airs the 24-key
Zipf(0.95) demo program (3 channels, fanout 3) losslessly in logical
time. Tuners arrive open loop on a seeded Poisson schedule at
:data:`RATE` walks/s; each one connects, runs one ``fetch`` and closes.
Station and tuners share one process and one event loop, with at most
:data:`MAX_OPEN` connections open.

Only ``net``, ``io`` and ``client`` work in the timed phase; planning
happens once, in set-up.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import time

import numpy as np

from repro.client import PointerWalk, request
from repro.net import BroadcastStation, TunerClient, make_request_trace
from repro.net import tuner as net_tuner
from repro.net.harness import build_demo_plan

from .hostspeed import HostSpeed
from .openloop import CpuTimeline, drive, poisson_schedule
from .report import Measurement
from .stats import covered, open_loop_latencies, percentile, windows
from .tracing import Recorder, maybe_span, root_span

#: Arrivals per second: low enough that a walk rarely queues behind
#: two others, which makes the tail a steep function of the host's
#: speed (see ``perfbench/record.json``).
RATE = 75.0
#: One connection per core: the load comes from one process.
MAX_OPEN = max(1, min(2, os.cpu_count() or 1))
#: The timed phase runs as this many open-loop segments, with a set-up
#: before the first and after each one, while no walk is in flight.
#: Each segment is one window for ``walks_per_s`` and the p50; for the
#: p99, consecutive segments join until 1,000 walks, so 10 lie beyond
#: each window's p99.
SEGMENTS = 30
#: Set-up plans are grouped this many to a window for ``replan_s_p50``.
PLAN_WINDOW = 4


async def _setup(recorder: Recorder | None):
    """Plan the demo catalog, compile it, start a station.

    Returns ``(station, program, seconds to plan ready to air, seconds
    to station listening)``.
    """
    clock = time.perf_counter
    started = clock()
    with root_span(recorder, "bench.setup"):
        with maybe_span(recorder, "planners.plan_catalog"):
            plan = build_demo_plan()
        with maybe_span(recorder, "broadcast.compile"):
            program = plan.compile()
        with maybe_span(recorder, "io.encode_program"):
            station = BroadcastStation(program)
        ready = clock()
        with maybe_span(recorder, "net.start"):
            await station.start()
        finished = clock()
    return station, program, ready - started, finished - started


def _busy(run, cpu_at) -> float:
    """CPU seconds in which at least one walk of ``run`` held a connection."""
    return covered((cpu_at(w.acquired), cpu_at(w.done))
                   for w in run.completed)


async def _measure(seed: int, seconds: float,
                   recorder: Recorder | None) -> Measurement:
    timeline = CpuTimeline()
    clock = timeline.stamp
    speed = HostSpeed()
    setups, plans = [], []

    async def set_up():
        with speed.window() as window:
            station, program, plan_ready, setup = await _setup(recorder)
        plans.append(window.scale(plan_ready))
        setups.append(window.scale(setup))
        return station, program

    station, program = await set_up()
    rng = np.random.default_rng([seed, 0x7E])
    host, port = station.host, station.port
    sent_before = station.perf.counters.get("net.station.frames_sent", 0)

    def walk_fn_for(trace):
        async def walk_fn(walk):
            key, tune_slot = trace[walk.index]
            client = TunerClient(host, port)
            try:
                with root_span(recorder, "bench.walk", walk.due) as root:
                    if root is not None:
                        recorder.record("bench.late", walk.due, walk.started,
                                        parent=root)
                        recorder.record("bench.queue", walk.started,
                                        walk.acquired, parent=root)
                    walk.enter("connect", clock())
                    with maybe_span(recorder, "net.connect"):
                        await client.connect()
                    walk.progress = lambda: client.perf.counters.get(
                        "net.tuner.frames", 0
                    )
                    walk.enter("fetch", clock())
                    with maybe_span(recorder, "net.fetch"):
                        result = await client.fetch(key, tune_slot)
                    walk.enter("close", clock())
                    with maybe_span(recorder, "net.close"):
                        await client.aclose()
                return result
            finally:
                await client.aclose()  # idempotent; frees a cancelled walk

        return walk_fn

    runs, traces, segments = [], [], []
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            recorder.patch(stack, net_tuner, "decode_bucket", "io.decode",
                           leaf=True)
            recorder.patch(stack, PointerWalk, "next_listen", "client.step",
                           leaf=True)
            recorder.patch(stack, PointerWalk, "deliver", "client.step",
                           leaf=True)
            recorder.patch(stack, station, "airing", "io.air", leaf=True,
                           detached=True)
        for _ in range(SEGMENTS):
            schedule = poisson_schedule(rng, RATE, seconds / SEGMENTS)
            trace = make_request_trace(program, len(schedule), rng)
            with speed.window() as window:
                runs.append(await drive(schedule, walk_fn_for(trace),
                                        max_open=MAX_OPEN, clock=clock))
            traces.append(trace)
            segments.append(window)
            # More set-ups between segments, while no walk is in flight,
            # so set-up time is sampled across the whole run.
            spare, _ = await set_up()
            await spare.aclose()
    sent = station.perf.counters.get("net.station.frames_sent", 0)
    await station.aclose()

    done = [
        (walk, trace[walk.index])
        for run, trace in zip(runs, traces) for walk in run.completed
    ]
    failed = [walk for run in runs for walk in run.failed]
    attempted = sum(len(run.walks) for run in runs)
    m = Measurement(attempted=attempted, failed=len(failed))
    for walk in failed[:10]:
        print(f"walk {walk.index} failed: {walk.failure}", file=sys.stderr)
    m.gate("every scheduled walk completed", not failed,
           f"{len(done)}/{attempted} completed"
           + (f"; first failure: {failed[0].failure}" if failed else ""))
    m.add_median("setup_s", setups, "s")
    m.add_windowed("replan_s_p50", windows(plans, PLAN_WINDOW), "s", 50)
    m.extra["slowness"] = speed.slowness()
    if not done:
        return m

    # Both are read on the process's CPU clock: between two instants,
    # the CPU time the process spent (on walks, on the station and in
    # the kernel for their sockets), so the host preempting the process
    # does not count. A wait that costs no CPU would not count either;
    # the traced run's spans are wall-clock and would show it.
    cpu_at = timeline.cpu_at
    # One window per segment: completed walks per second in which a
    # walk held a connection, so the figure follows the program's
    # speed and not the offered rate.
    m.add_rate("walks_per_s", [
        len(run.completed) / window.scale(_busy(run, cpu_at))
        for run, window in zip(runs, segments) if run.completed
    ], "1/s")
    # From a walk's due time to its result: a walk that queued behind
    # others is charged their time.
    m.add_latency("walk_ms", [
        [window.scale(latency) for latency in open_loop_latencies(
            [cpu_at(w.due) for w in run.completed],
            [cpu_at(w.done) for w in run.completed],
        )]
        for run, window in zip(runs, segments)
    ], "ms", 1e3)
    m.add("access_slots_mean",
          np.mean([w.result.access_time for w, _ in done]), "slots",
          len(done))
    m.add("tuning_slots_mean",
          np.mean([w.result.tuning_time for w, _ in done]), "slots",
          len(done))

    mismatched = 0
    for walk, (key, tune_slot) in done:
        replay = request(program, key, tune_slot, engine="object")
        if (replay.access_time, replay.tuning_time) != (
            walk.result.access_time, walk.result.tuning_time
        ):
            mismatched += 1
    m.gate("live walks equal the in-process replay", not mismatched,
           f"{len(done) - mismatched}/{len(done)} equal")
    read = sum(w.result.tuning_time for w, _ in done)
    if failed:
        # A failed walk read frames it never reported.
        m.gate("frames sent equal slots read", False,
               f"cannot check: {len(failed)} walk(s) failed")
    else:
        m.gate("frames sent equal slots read", sent - sent_before == read,
               f"sent {sent - sent_before}, read {read}")
    m.extra.update(walks=[w for w, _ in done], slots_read=read)
    return m


def measure(seed: int, seconds: float, recorder: Recorder | None = None,
            **_) -> Measurement:
    return asyncio.run(_measure(seed, seconds, recorder))


def layers(recorder: Recorder, m: Measurement) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced tune-in run."""
    done = m.extra["walks"]
    frames_of = {
        parent: calls
        for (parent, name), (_, calls) in recorder.leaf.items()
        if name == "io.decode"
    }
    rtt = [
        span.seconds / frames_of[span.id]
        for span in recorder.named("net.fetch") if frames_of.get(span.id)
    ]
    decode_s, decodes = recorder.leaf_total("io.decode")
    air_s, airs = recorder.leaf_total("io.air")
    step_s, steps = recorder.leaf_total("client.step")
    own, _ = recorder.self_times()
    walks = recorder.named("bench.walk")

    def p50_ms(name):
        return percentile([s.seconds for s in recorder.named(name)], 50) * 1e3

    return {
        "net.connect_ms_p50": (p50_ms("net.connect"), "ms"),
        "net.fetch_ms_p50": (p50_ms("net.fetch"), "ms"),
        "net.close_ms_p50": (p50_ms("net.close"), "ms"),
        "net.frame_rtt_us_p50": (percentile(rtt, 50) * 1e6, "us"),
        "io.decode_us": (decode_s / decodes * 1e6, "us"),
        "io.air_us": (air_s / airs * 1e6, "us"),
        "client.step_us": (step_s / steps * 1e6, "us"),
        "net.frames_per_walk": (decodes / len(done), "count"),
        "bench.queue_ms_p99": (
            percentile([w.acquired - w.started for w in done], 99) * 1e3, "ms"
        ),
        "bench.late_ms_p99": (
            percentile([w.started - w.due for w in done], 99) * 1e3, "ms"
        ),
        "net.idle_ms": (own.get("bench.walk", 0.0) / len(walks) * 1e3, "ms"),
    }


def trace_gates(recorder: Recorder, m: Measurement) -> list[tuple]:
    """Checks only a traced run can make."""
    _, decodes = recorder.leaf_total("io.decode")
    read = m.extra["slots_read"]
    return [(
        "frames decoded equal tuning slots read",
        decodes == read,
        f"decoded {decodes}, read {read}",
    )]
