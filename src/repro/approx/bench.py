"""The scale bench: quality-vs-time frontiers for the approx planners.

``make bench-approx`` runs :func:`run_frontier_bench` over a sweep of
catalog sizes (smoke scale 10³–10⁴ in CI, 10⁵–10⁶ by hand) and writes
``BENCH_approx.json`` (suite ``"approx-frontier"``). Per size, each
planner contributes one **frontier point**:

* ``data_wait`` — the measured formula-(1) cost of its schedule;
* ``ratio_to_lower`` — data wait over the information-theoretic lower
  bound for that catalog (heaviest weights in the earliest of the
  ``k·t`` data cells; no feasible schedule can beat it), the
  size-comparable quality axis;
* ``plan_seconds`` — wall-clock planning time, the time axis;
* for ptas, the **a-priori quality bound** it claimed and the measured
  slack under it.

The aggregate block flattens the smallest ("small") and largest
("large") size's points into fixed-name metrics, plus the differential
checks the CI gate enforces: ptas's measured data wait within its own
claimed bound, and within that bound's ratio of the sorting heuristic
on the 10⁴-item catalog. Quality ratios are deterministic functions of
the seed; plan times are machine clocks and are reported, not gated.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..perf import PerfRecorder
from ..tree.alphabetic import build_index
from ..planners import plan
from ..workloads.weights import zipf_weights
from .meta import meta_catalog_plan
from .ptas import _data_wait_lower_bound, ptas_catalog_plan

__all__ = [
    "DEFAULT_SIZES",
    "run_frontier_bench",
]

DEFAULT_SIZES = (1_000, 10_000)


def _catalog(size: int, theta: float, seed: int) -> tuple[list[str], list[float]]:
    """A sorted synthetic catalog: zero-padded keys, shuffled Zipf weights."""
    rng = np.random.default_rng(seed + size)
    width = max(7, len(str(size)))
    labels = [f"d{position:0{width}d}" for position in range(size)]
    weights = list(zipf_weights(rng, size, theta=theta))
    return labels, weights


def run_frontier_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    channels: int = 4,
    fanout: int = 3,
    theta: float = 0.95,
    seed: int = 404,
    perf: PerfRecorder | None = None,
) -> dict:
    """Sweep catalog sizes, plan each with ptas / sorting / meta.

    Returns the suite record (``config`` + per-size ``result`` +
    ``aggregate`` with its checks); the CLI writes it.
    """
    sizes = sorted(set(int(s) for s in sizes))
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if any(s < 2 for s in sizes):
        raise ValueError("every size must be >= 2")
    perf = perf if perf is not None else PerfRecorder()
    result: dict[str, dict] = {}
    for size in sizes:
        labels, weights = _catalog(size, theta, seed)
        lower = _data_wait_lower_bound(weights, channels)
        points: dict[str, dict] = {}

        started = time.perf_counter()
        ptas = ptas_catalog_plan(
            labels, weights, channels, fanout=fanout, perf=perf
        )
        ptas_seconds = time.perf_counter() - started
        points["ptas"] = {
            "data_wait": ptas.cost,
            "ratio_to_lower": ptas.cost / lower,
            "plan_seconds": ptas_seconds,
            "quality_bound": ptas.stats["quality_bound"],
            "quality_ratio": ptas.stats["quality_ratio"],
            "bound_slack": ptas.stats["quality_bound"] / ptas.cost,
        }

        started = time.perf_counter()
        tree = build_index(labels, weights, fanout=fanout)
        sorting = plan(tree, channels, method="sorting", perf=perf)
        sorting_seconds = time.perf_counter() - started
        points["sorting"] = {
            "data_wait": sorting.cost,
            "ratio_to_lower": sorting.cost / lower,
            "plan_seconds": sorting_seconds,
        }

        started = time.perf_counter()
        meta = meta_catalog_plan(
            labels, weights, channels, fanout=fanout, perf=perf
        )
        meta_seconds = time.perf_counter() - started
        points["meta"] = {
            "data_wait": meta.cost,
            "ratio_to_lower": meta.cost / lower,
            "plan_seconds": meta_seconds,
            "chose": meta.stats["meta"]["method"],
            "fell_back": meta.stats["meta"]["fell_back"],
            "gini": meta.stats["meta"]["features"]["gini"],
            "entropy": meta.stats["meta"]["features"]["entropy"],
        }

        best = min(point["data_wait"] for point in points.values())
        for point in points.values():
            point["ratio_to_best"] = (
                point["data_wait"] / best if best > 0 else 1.0
            )
        result[str(size)] = {
            "items": size,
            "lower_bound": lower,
            "frontier": points,
        }

    small, large = str(sizes[0]), str(sizes[-1])
    frontier_small = result[small]["frontier"]
    frontier_large = result[large]["frontier"]
    checks = {
        # The a-priori bound must hold at every size: the measured wait
        # can never exceed what the class structure promised.
        "ptas_within_bound": all(
            entry["frontier"]["ptas"]["data_wait"]
            <= entry["frontier"]["ptas"]["quality_bound"] * (1 + 1e-9)
            for entry in result.values()
        ),
        # The ISSUE's differential gate: ptas's wait within its claimed
        # bound's ratio of the sorting heuristic, at every size.
        "ptas_within_bound_of_sorting": all(
            entry["frontier"]["ptas"]["data_wait"]
            <= entry["frontier"]["ptas"]["quality_ratio"]
            * entry["frontier"]["sorting"]["data_wait"]
            * (1 + 1e-9)
            for entry in result.values()
        ),
        # The meta decision trail was recorded for every size.
        "meta_decided": all(
            entry["frontier"]["meta"].get("chose")
            for entry in result.values()
        ),
    }
    aggregate = {
        "ptas_ratio_small": frontier_small["ptas"]["ratio_to_lower"],
        "ptas_ratio_large": frontier_large["ptas"]["ratio_to_lower"],
        "ptas_bound_slack_large": frontier_large["ptas"]["bound_slack"],
        "sorting_ratio_large": frontier_large["sorting"]["ratio_to_lower"],
        "meta_ratio_small": frontier_small["meta"]["ratio_to_lower"],
        "meta_ratio_large": frontier_large["meta"]["ratio_to_lower"],
        "ptas_plan_seconds_large": frontier_large["ptas"]["plan_seconds"],
        "sorting_plan_seconds_large": frontier_large["sorting"]["plan_seconds"],
        "meta_plan_seconds_large": frontier_large["meta"]["plan_seconds"],
        "checks": checks,
    }
    return {
        "suite": "approx-frontier",
        "config": {
            "sizes": sizes,
            "channels": channels,
            "fanout": fanout,
            "theta": theta,
            "seed": seed,
        },
        "result": result,
        "aggregate": aggregate,
        "perf": perf.snapshot(),
    }
