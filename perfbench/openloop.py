"""An open-loop walk generator with bounded waits.

Independent tuners arrive on a seeded Poisson schedule whatever the
system is doing, so the generator never waits for a walk to finish
before starting the next. Each walk is timed from when it was *due*
(:func:`perfbench.stats.open_loop_latencies`): time spent queued for a
connection behind a stalled walk is charged to the walks that queued.

Nothing here waits without bound. One watchdog task checks every walk
in flight against per-phase deadlines (connect and WELCOME, each frame
read, close, and the whole walk) and cancels a walk that misses one,
recording the reason; the walk is then counted as failed. After the
schedule is exhausted the run waits at most ``drain`` seconds, then
lists and cancels whatever is still in flight.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

from .stats import interpolate


def poisson_schedule(
    rng: np.random.Generator, rate: float, seconds: float
) -> list[float]:
    """Arrival offsets of a Poisson process with ``rate * seconds`` arrivals.

    A Poisson process conditioned on its arrival count places the
    arrivals uniformly at random over the window; fixing the count
    keeps the offered load identical from seed to seed.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    count = max(1, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count)).tolist()


class CpuTimeline:
    """Wall-clock readings paired with the process's CPU clock.

    Use :meth:`stamp` as the clock of a run; :meth:`cpu_at` then maps
    any wall-clock instant of the run to the process CPU time spent by
    then, interpolated between the nearest stamps. Time in which the
    host ran another process instead of this one (a preemption of a few
    milliseconds, which a shared host does about once a second) passes
    on the wall clock but not on the CPU clock.
    """

    def __init__(self, wall: Callable[[], float] = time.perf_counter,
                 cpu: Callable[[], float] = time.process_time) -> None:
        self.wall = wall
        self.cpu = cpu
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def stamp(self) -> float:
        """The wall clock, recorded with the CPU clock beside it."""
        now = self.wall()
        self.walls.append(now)
        self.cpus.append(self.cpu())
        return now

    def cpu_at(self, wall: float) -> float:
        return interpolate(self.walls, self.cpus, wall)


@dataclass(frozen=True)
class Deadlines:
    """Seconds each phase of a walk may take before it is cancelled."""

    connect: float = 2.0  # open the socket and read WELCOME
    frame: float = 1.0  # from one frame read to the next
    close: float = 1.0
    walk: float = 5.0  # due time to result
    drain: float = 10.0  # after the last arrival, for the stragglers


@dataclass
class Walk:
    """One scheduled walk and what happened to it."""

    index: int
    due: float
    started: float = 0.0  # the generator got round to it
    acquired: float = 0.0  # it got a connection slot
    done: float = 0.0  # result in hand and connection closed
    phase: str = "due"
    phase_since: float = 0.0
    progress: Callable[[], int] | None = None  # frames read so far
    seen: int = -1
    result: object = None
    failure: str | None = None

    def enter(self, phase: str, now: float) -> None:
        self.phase = phase
        self.phase_since = now


@dataclass
class OpenLoopRun:
    walks: list[Walk] = field(default_factory=list)
    start: float = 0.0

    @property
    def completed(self) -> list[Walk]:
        return [w for w in self.walks if w.failure is None and w.done]

    @property
    def failed(self) -> list[Walk]:
        return [w for w in self.walks if w.failure is not None]


WalkFn = Callable[[Walk], Awaitable[object]]


async def drive(
    schedule: list[float],
    walk_fn: WalkFn,
    *,
    max_open: int,
    deadlines: Deadlines = Deadlines(),
    tick: float = 0.02,
    clock: Callable[[], float] = time.perf_counter,
) -> OpenLoopRun:
    """Run ``walk_fn`` once per scheduled arrival, open loop.

    ``walk_fn`` receives its :class:`Walk` and moves it through phases
    with :meth:`Walk.enter` (``"connect"``, ``"fetch"``, ``"close"``);
    in ``"fetch"`` it may set :attr:`Walk.progress` to a frame counter,
    which arms the per-frame deadline. At most ``max_open`` walks hold
    a connection at once; the rest queue in arrival order.
    """
    run = OpenLoopRun()
    slots = asyncio.Semaphore(max_open)
    inflight: dict[int, tuple[Walk, asyncio.Task]] = {}

    async def one(walk: Walk) -> None:
        try:
            async with slots:
                walk.acquired = clock()
                walk.result = await walk_fn(walk)
                walk.done = clock()
        except asyncio.CancelledError:
            if walk.failure is None:
                raise
        except Exception as error:  # a walk's error is its outcome
            walk.failure = f"{type(error).__name__}: {error}"
        finally:
            inflight.pop(walk.index, None)

    def expired(walk: Walk, now: float) -> str | None:
        if now - walk.due > deadlines.walk:
            return f"walk deadline {deadlines.walk}s in phase {walk.phase}"
        age = now - walk.phase_since
        if walk.phase == "connect" and age > deadlines.connect:
            return f"connect/WELCOME deadline {deadlines.connect}s"
        if walk.phase == "close" and age > deadlines.close:
            return f"close deadline {deadlines.close}s"
        if walk.phase == "fetch" and walk.progress is not None:
            frames = walk.progress()
            if frames != walk.seen:
                walk.seen = frames
                walk.phase_since = now
            elif age > deadlines.frame:
                return f"frame read deadline {deadlines.frame}s"
        return None

    async def watchdog() -> None:
        while True:
            await asyncio.sleep(tick)
            now = clock()
            for walk, task in list(inflight.values()):
                reason = expired(walk, now)
                if reason is not None:
                    walk.failure = reason
                    task.cancel()

    loop = asyncio.get_running_loop()
    guard = loop.create_task(watchdog())
    tasks = []
    try:
        run.start = clock()
        for index, offset in enumerate(schedule):
            due = run.start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            walk = Walk(index, due)
            walk.started = clock()
            walk.enter("queued", walk.started)
            run.walks.append(walk)
            task = loop.create_task(one(walk))
            inflight[index] = (walk, task)
            tasks.append(task)
        if tasks:
            _, stuck = await asyncio.wait(tasks, timeout=deadlines.drain)
            if stuck:
                _report_stuck(inflight, clock())
                for walk, task in list(inflight.values()):
                    walk.failure = walk.failure or "run deadline"
                    task.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
    finally:
        guard.cancel()
        await asyncio.gather(guard, return_exceptions=True)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return run


def _report_stuck(inflight: dict, now: float) -> None:
    print(
        f"run deadline: {len(inflight)} walk(s) still in flight",
        file=sys.stderr,
    )
    for walk, _ in sorted(inflight.values(), key=lambda wt: wt[0].index):
        print(
            f"  walk {walk.index}: phase {walk.phase} for "
            f"{now - walk.phase_since:.3f}s, {now - walk.due:.3f}s since due,"
            f" frames {max(walk.seen, 0)}",
            file=sys.stderr,
        )
