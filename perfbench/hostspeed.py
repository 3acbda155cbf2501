"""Timings scaled to a nominal host speed.

A shared host changes speed by up to 1.7x, for seconds at a time or for
whole runs, and the program's time follows it. So a workload measures
each block (a segment, chunk, round or set-up) in a
:meth:`HostSpeed.window`: a fixed reference task is timed, on the
process's CPU clock, just before and just after the block, and times
measured in the block are divided by the window's *slowness*, the
mean of the two reference times over :data:`NOMINAL_S`, raised to the
workload's *sensitivity*. Rates are multiplied by it. A reported time
is therefore an estimate of what the block would have taken on a host
that runs the reference in :data:`NOMINAL_S`.

The sensitivity is how strongly the workload's times follow the
reference: the slope of log time against log slowness over runs on a
shared host. It was measured near 1 for the socket path and the
serving loop (tune-in, adaptive-serve), and near 0.5 for the sharded
planner and the batch engine (catalog), whose times move about half as
much as the reference does; correcting those in full would add noise
rather than remove it.

The reference is interpreter work (integer arithmetic, calls, a small
dict) that imports nothing from the program under test: a change in
the program moves the scaled figure exactly as it moves the raw one,
while a slower host moves both the program and the reference. Medians
over the run's many windows keep the probes' own noise out.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterator

#: Loop iterations of one reference run: about 2 ms on a shared 2-core
#: x86 host.
REFERENCE_LOOPS = 6000
#: Reference runs per probe; a probe reads their median.
PROBE_RUNS = 3
#: Seconds the reference takes on the nominal host that scaled timings
#: refer to.
NOMINAL_S = 2e-3


def reference() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        key = i & 255
        table[key] = table.get(key, 0) + (i * i) % 7
        total += abs(key - 128)
    return total


@dataclass
class Window:
    """A measured block's slowness: its reference time over nominal."""

    slowness: float = 1.0
    sensitivity: float = 1.0

    def scale(self, seconds: float) -> float:
        """Seconds measured in the block, scaled to the nominal host."""
        return seconds / self.slowness ** self.sensitivity


class HostSpeed:
    """Times the reference task on the CPU clock ``cpu``.

    The CPU clock leaves out time in which the host ran another process
    instead of this one, so a preemption during a probe does not pass
    for a slow host.
    """

    def __init__(self, sensitivity: float = 1.0,
                 task: Callable[[], object] = reference,
                 cpu: Callable[[], float] = time.process_time) -> None:
        self.sensitivity = sensitivity
        self.task = task
        self.cpu = cpu
        self.probes: list[float] = []
        for _ in range(3):  # warm the interpreter's caches
            task()

    def probe(self) -> float:
        """Seconds of a reference run: the median of :data:`PROBE_RUNS`."""
        runs = []
        for _ in range(PROBE_RUNS):
            started = self.cpu()
            self.task()
            runs.append(self.cpu() - started)
        took = statistics.median(runs)
        self.probes.append(took)
        return took

    @contextlib.contextmanager
    def window(self) -> Iterator[Window]:
        """Probe before and after the block; the window's slowness.

        The slowness is set when the block ends.
        """
        before = self.probe()
        window = Window(sensitivity=self.sensitivity)
        try:
            yield window
        finally:
            window.slowness = (before + self.probe()) / (2 * NOMINAL_S)

    def slowness(self) -> float:
        """The median probe over :data:`NOMINAL_S`, for the report."""
        return statistics.median(self.probes) / NOMINAL_S
