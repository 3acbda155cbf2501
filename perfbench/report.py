"""What one workload run measured, and how it is printed."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .stats import (
    TAIL_MIN_BEYOND,
    beyond,
    merge_windows,
    median,
    percentile,
    tail_percentile,
    windowed_percentile,
)


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Measurement:
    """End-to-end metrics, outcome counts and correctness gates."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Whatever the traced run needs beyond the metrics (walk lists…).
    extra: dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def add_median(self, name: str, values, unit: str) -> None:
        values = list(values)
        self.add(name, median(values), unit, len(values))

    def add_rate(self, name: str, rates, unit: str) -> None:
        """A rate measured once per window: the median over windows."""
        rates = list(rates)
        self.add(name, median(rates), unit, len(rates),
                 f"median of {len(rates)} windows")

    def add_windowed(self, name: str, groups, unit: str, p: float) -> None:
        """The ``p``-th percentile per window, median over windows."""
        groups = [list(group) for group in groups]
        self.add(name, windowed_percentile(groups, p), unit,
                 sum(map(len, groups)),
                 f"p{p:g} per window, median of {len(groups)} windows")

    def add_latency(self, stem: str, groups, unit: str, scale: float,
                    weights=None) -> None:
        """``<stem>_p50`` and ``<stem>_p99``, read per window.

        ``groups`` holds one list of latencies per window of the run;
        ``weights`` optionally counts each latency several times. For
        the p99, consecutive unweighted windows are joined until each
        has enough samples for 10 to lie beyond its p99. Each is the
        median over windows.
        The note gives the tail over all samples pooled.
        """
        groups = [list(group) for group in groups]
        if weights is None:
            tail_groups = merge_windows(groups, 100 * TAIL_MIN_BEYOND)
            weights = [[1] * len(group) for group in groups]
            tail_weights = None
        else:
            weights = [list(w) for w in weights]
            tail_groups, tail_weights = groups, weights
        pooled = [value for group in groups for value in group]
        pooled_weights = [w for group in weights for w in group]
        count = sum(pooled_weights)
        tail = tail_percentile(count)
        note = (
            f"median of {len(groups)} windows (p99: {len(tail_groups)}); "
            "pooled " + (
                f"p{tail:g} = "
                f"{percentile(pooled, tail, pooled_weights) * scale:.4f} "
                f"{unit} ({beyond(count, tail)} beyond)"
                if tail is not None
                else "tail: fewer than 20 samples"
            )
        )
        self.add(f"{stem}_p50",
                 windowed_percentile(groups, 50, weights) * scale,
                 unit, count, note)
        self.add(f"{stem}_p99",
                 windowed_percentile(tail_groups, 99, tail_weights) * scale,
                 unit, count, note)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.gates)


def print_table(title: str, measurement: Measurement) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    print(title)
    for name, metric in measurement.metrics.items():
        line = (
            f"  {name:<22} {metric.value:>14.6g} {metric.unit:<6} "
            f"samples={metric.samples}"
        )
        if metric.note:
            line += f"  {metric.note}"
        print(line)
    if "slowness" in measurement.extra:
        print(f"  {'host_slowness':<22} {measurement.extra['slowness']:>14.6g} "
              f"{'ratio':<6} (median reference time over nominal; each "
              "time above is divided by its window's, each rate multiplied)")
    attempted = measurement.attempted
    ratio = measurement.failed / attempted if attempted else 0.0
    print(
        f"  {'fail_ratio':<22} {ratio:>14.6g} {'ratio':<6} "
        f"samples={attempted}"
    )
    for name, ok, detail in measurement.gates:
        print(f"  gate {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    """The last stdout line the benchmark's consumers parse."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
