"""Server-level benchmark: the serving loop under perfect and lossy air.

``python -m repro.cli bench-server --json BENCH_server.json`` (or
``make bench-server``) runs the full stack — estimator, registry
planner, pointer compilation, client walks — through three fixed,
seeded scenarios:

* **lossless** — the plain reliable-channel server, the historical
  baseline;
* **lossless-faultpath** — the *same* run routed through the fault
  injector with ``loss=0``; every per-cycle measurement must be
  bit-identical to the baseline (the robustness layer's differential
  invariant, re-checked here at server granularity);
* **lossy** — Gilbert–Elliott burst losses plus payload corruption,
  exercising retries, wasted probes and abandonment accounting.

The record's ``aggregate.checks`` gate: the differential must hold
exactly, the lossy run must not beat the lossless mean access time
(loss can't help), and the lossy run must actually observe faults.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

from ..client.protocol import RecoveryPolicy
from ..faults import BurstConfig, FaultConfig
from .loop import BroadcastServer, ServerReport

__all__ = ["run_server_bench", "format_server_bench", "write_server_bench_json"]

_ITEMS = [f"K{index:02d}" for index in range(12)]
_CYCLES = 30
_MEAN_REQUESTS = 30.0
_SEED = 2000


def _run(faults: FaultConfig | None, recovery: RecoveryPolicy | None):
    server = BroadcastServer(
        _ITEMS,
        channels=2,
        replan_every=10,
        planner="budgeted",
        faults=faults,
        recovery=recovery,
    )
    start = perf_counter()
    report = server.run(
        np.random.default_rng(_SEED),
        cycles=_CYCLES,
        mean_requests_per_cycle=_MEAN_REQUESTS,
    )
    seconds = perf_counter() - start
    return report, seconds


def _cycle_signature(report: ServerReport) -> list[tuple]:
    """The per-cycle measurements the differential must preserve."""
    return [
        (
            stats.cycle,
            stats.requests,
            stats.mean_access_time,
            stats.mean_tuning_time,
            stats.analytic_access_time,
            stats.replanned,
        )
        for stats in report.cycles
    ]


def _record(name: str, report: ServerReport, seconds: float) -> dict:
    return {
        "scenario": name,
        "cycles": len(report.cycles),
        "requests": report.requests_served,
        "mean_access_time": report.mean_access_time,
        "abandoned": report.abandoned,
        "lost_buckets": report.lost_buckets,
        "corrupt_buckets": report.corrupt_buckets,
        "retries": report.retries,
        "seconds": seconds,
        "requests_per_second": (
            report.requests_served / seconds if seconds > 0 else 0.0
        ),
    }


def run_server_bench() -> dict:
    """Run the three scenarios and assemble the JSON perf record."""
    lossless, lossless_seconds = _run(None, None)
    faultpath, faultpath_seconds = _run(FaultConfig(loss=0.0, seed=7), None)
    lossy, lossy_seconds = _run(
        FaultConfig(
            loss=0.12, corruption=0.02, burst=BurstConfig(), seed=7
        ),
        RecoveryPolicy(mode="retry-parent", max_cycles=6),
    )

    differential_ok = _cycle_signature(lossless) == _cycle_signature(faultpath)
    checks = {
        "p0_differential": differential_ok,
        "loss_does_not_help": (
            lossy.mean_access_time >= lossless.mean_access_time
        ),
        "faults_observed": lossy.lost_buckets > 0 and lossy.retries > 0,
    }
    return {
        "suite": "server-faults",
        "config": {
            "items": len(_ITEMS),
            "channels": 2,
            "cycles": _CYCLES,
            "mean_requests_per_cycle": _MEAN_REQUESTS,
            "seed": _SEED,
            "planner": "budgeted",
        },
        "scenarios": [
            _record("lossless", lossless, lossless_seconds),
            _record("lossless-faultpath", faultpath, faultpath_seconds),
            _record("lossy-burst", lossy, lossy_seconds),
        ],
        "aggregate": {
            "lossless_mean_access": lossless.mean_access_time,
            "lossy_mean_access": lossy.mean_access_time,
            "degradation_slots": (
                lossy.mean_access_time - lossless.mean_access_time
            ),
            "checks": checks,
        },
    }


def format_server_bench(record: dict) -> str:
    lines = [
        "server bench (full stack, seeded):",
        f"{'scenario':<20} {'req':>5} {'access':>8} {'aband':>6} "
        f"{'lost':>6} {'retry':>6} {'req/s':>10}",
    ]
    for scenario in record["scenarios"]:
        lines.append(
            f"{scenario['scenario']:<20} {scenario['requests']:>5} "
            f"{scenario['mean_access_time']:>8.3f} "
            f"{scenario['abandoned']:>6} {scenario['lost_buckets']:>6} "
            f"{scenario['retries']:>6} "
            f"{scenario['requests_per_second']:>10.0f}"
        )
    checks = record["aggregate"]["checks"]
    lines.append(
        "checks: p0_differential="
        f"{checks['p0_differential']} "
        f"loss_does_not_help={checks['loss_does_not_help']} "
        f"faults_observed={checks['faults_observed']}"
    )
    return "\n".join(lines)


def write_server_bench_json(path: str) -> dict:
    """Run the bench and write the record to ``path``; returns the record."""
    record = run_server_bench()
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return record
