"""Engine benchmark: the batch walk engine vs the scalar walks.

``python -m repro.cli engine bench --json BENCH_engine.json`` builds the
standard demo program (the same Zipf catalog ``loadtest`` airs), draws a
seeded request trace, and measures three regimes:

* **scalar** — :func:`~repro.client.protocol.object_walk` over a sample
  of the trace (the per-object baseline the engine replaces);
* **batch** — :func:`repro.engine.run_batch` over the full trace,
  loss-free;
* **faulty** — the batch recovery path under a seeded
  :class:`~repro.faults.FaultConfig`.

Correctness is part of the bench, not a separate step: the record's
``aggregate.checks`` carry the differential gates (batch bit-identical
to the scalar walks on every compared walk, lossless and faulty) next
to the throughput gate — ``batch_walks_per_second`` must beat the
scalar walk measured in the same run by ≥ 50×, a same-layer ratio.
Timing uses best-of-``repeats``; every slot-denominated aggregate is a
pure function of the seeds.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from time import perf_counter

import numpy as np

from ..client.protocol import RecoveryPolicy, object_walk, recovering_walk
from ..faults import FaultConfig
from .dense import compile_dense
from .batch import run_batch

__all__ = [
    "SPEEDUP_TARGET",
    "run_engine_bench",
    "format_engine_bench",
]

#: The loss-free batch path must clear 50× the in-process scalar walk.
SPEEDUP_TARGET = 50.0


def _draw_trace(program, walks: int, seed: int):
    """Seeded (target id, tune slot) draws — the simulator's workload model."""
    rng = np.random.default_rng(seed)
    targets = program.schedule.tree.data_nodes()
    weights = np.array([t.weight for t in targets], dtype=float)
    if weights.sum() == 0:
        probabilities = np.full(len(targets), 1.0 / len(targets))
    else:
        probabilities = weights / weights.sum()
    ids = rng.choice(len(targets), size=walks, p=probabilities)
    slots = rng.integers(1, program.cycle_length + 1, size=walks)
    return targets, ids.astype(np.int64), slots.astype(np.int64)


def _best_of(repeats: int, run) -> tuple[object, float]:
    """Run ``run`` ``repeats`` times; return (last result, best seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = perf_counter()
        result = run()
        best = min(best, perf_counter() - started)
    return result, best


def _records_equal(batch_records, scalar_records) -> bool:
    """Field-for-field equality of materialised vs scalar records."""
    if len(batch_records) != len(scalar_records):
        return False
    for ours, theirs in zip(batch_records, scalar_records):
        if type(ours) is not type(theirs):
            return False
        for spec in dataclass_fields(theirs):
            if getattr(ours, spec.name) != getattr(theirs, spec.name):
                return False
    return True


def run_engine_bench(
    *,
    items: int = 24,
    channels: int = 3,
    fanout: int = 3,
    planner: str = "sorting",
    walks: int = 200_000,
    sample: int = 2_000,
    loss: float = 0.05,
    corruption: float = 0.01,
    seed: int = 2000,
    repeats: int = 3,
) -> dict:
    """Run the engine suite; returns the JSON-ready record.

    ``sample`` bounds the scalar-walk comparisons (timing baseline and
    per-walk differential) — the scalar side is exactly what the engine
    exists to avoid running 10⁵ times. The batch paths always run the
    full ``walks``-long trace.
    """
    if walks < 1 or repeats < 1:
        raise ValueError("walks and repeats must be >= 1")
    sample = min(sample, walks)
    from ..net.harness import build_demo_program

    program = build_demo_program(
        items=items, channels=channels, fanout=fanout, planner=planner,
        seed=seed,
    )
    dense = compile_dense(program)
    targets, ids, slots = _draw_trace(program, walks, seed)
    fault_config = FaultConfig(loss=loss, corruption=corruption, seed=seed)
    policy = RecoveryPolicy()

    # -- throughput --------------------------------------------------------
    batch_result, batch_seconds = _best_of(
        repeats, lambda: run_batch(dense, ids, slots)
    )
    faulty_result, faulty_seconds = _best_of(
        repeats,
        lambda: run_batch(
            dense, ids, slots, faults=fault_config, recovery=policy
        ),
    )
    sample_ids = ids[:sample]
    sample_slots = slots[:sample]
    scalar_records, scalar_seconds = _best_of(
        repeats,
        lambda: [
            object_walk(program, targets[int(d)], int(s))
            for d, s in zip(sample_ids, sample_slots)
        ],
    )

    # -- differential gates (part of the bench, not an afterthought) -------
    batch_sample = run_batch(dense, sample_ids, sample_slots).to_records()
    differential_exact = _records_equal(batch_sample, scalar_records)
    faulty_sample = run_batch(
        dense, sample_ids, sample_slots, faults=fault_config, recovery=policy
    ).to_records()
    scalar_faulty = [
        recovering_walk(
            program, targets[int(d)], int(s),
            faults=fault_config, policy=policy,
        )
        for d, s in zip(sample_ids, sample_slots)
    ]
    differential_faulty_exact = _records_equal(faulty_sample, scalar_faulty)

    # -- aggregates --------------------------------------------------------
    summary = batch_result.summarise()
    faulty_summary = faulty_result.summarise()
    batch_wps = walks / batch_seconds if batch_seconds > 0 else 0.0
    faulty_wps = walks / faulty_seconds if faulty_seconds > 0 else 0.0
    scalar_wps = sample / scalar_seconds if scalar_seconds > 0 else 0.0
    aggregate = {
        "mean_access_time": summary.mean_access_time,
        "mean_tuning_time": summary.mean_tuning_time,
        "faulty_mean_access_time": faulty_summary.mean_access_time,
        "faulty_abandoned": faulty_summary.abandoned,
        "batch_walks_per_second": batch_wps,
        "faulty_walks_per_second": faulty_wps,
        "scalar_walks_per_second": scalar_wps,
        "speedup_vs_scalar": (
            batch_wps / scalar_wps if scalar_wps > 0 else float("inf")
        ),
        "checks": {
            "differential_exact": differential_exact,
            "differential_faulty_exact": differential_faulty_exact,
            "batch_speedup_50x": batch_wps >= SPEEDUP_TARGET * scalar_wps,
        },
    }
    return {
        "suite": "engine-batch",
        "config": {
            "items": items,
            "channels": channels,
            "fanout": fanout,
            "planner": planner,
            "walks": walks,
            "sample": sample,
            "loss": loss,
            "corruption": corruption,
            "seed": seed,
            "repeats": repeats,
        },
        "scalar": {
            "walks": sample,
            "seconds": scalar_seconds,
            "walks_per_second": scalar_wps,
        },
        "batch": {
            "walks": walks,
            "seconds": batch_seconds,
            "walks_per_second": batch_wps,
        },
        "faulty": {
            "walks": walks,
            "seconds": faulty_seconds,
            "walks_per_second": faulty_wps,
            "abandoned": faulty_summary.abandoned,
            "lost_buckets": faulty_summary.lost_buckets,
            "corrupt_buckets": faulty_summary.corrupt_buckets,
            "retries": faulty_summary.retries,
        },
        "aggregate": aggregate,
    }


def format_engine_bench(record: dict) -> str:
    """Human-readable summary of one :func:`run_engine_bench` record."""
    config = record["config"]
    aggregate = record["aggregate"]
    checks = aggregate["checks"]
    lines = [
        f"engine bench: {config['walks']} walks on "
        f"{config['items']} items x {config['channels']} channels "
        f"({config['planner']})",
        f"  scalar   {record['scalar']['walks_per_second']:>12.0f} walks/s "
        f"(sample of {record['scalar']['walks']})",
        f"  batch    {record['batch']['walks_per_second']:>12.0f} walks/s "
        f"({aggregate['speedup_vs_scalar']:.1f}x scalar)",
        f"  faulty   {record['faulty']['walks_per_second']:>12.0f} walks/s "
        f"(loss {config['loss']}, corruption {config['corruption']}, "
        f"{record['faulty']['abandoned']} abandoned)",
        f"  mean access {aggregate['mean_access_time']:.4f} slots, "
        f"mean tuning {aggregate['mean_tuning_time']:.4f} reads "
        f"(faulty access {aggregate['faulty_mean_access_time']:.4f})",
        "  checks: "
        + " ".join(f"{name}={ok}" for name, ok in checks.items()),
    ]
    return "\n".join(lines)
