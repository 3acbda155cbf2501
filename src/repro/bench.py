"""Search-core benchmark: the overhauled search vs the frozen seed.

``python -m repro.cli bench --json BENCH_search.json`` runs a fixed,
fully seeded suite of allocation instances through three solvers —

* the **seed** best-first search (:mod:`repro.core.reference`, frozen
  bug-for-bug: from-scratch bounds, ``<`` pop-time dominance, no
  children memo),
* the **overhauled** best-first search (incremental bounds, push+pop
  transposition pruning, memoised ``reduced_children``), and
* the **DFS branch-and-bound** mode —

and emits a JSON perf record with nodes expanded/generated, best-of-N
wall seconds and the optimal cost per case, plus suite aggregates. The
acceptance gate lives in ``aggregate.checks``: over the ablation-A2
cases the overhaul must expand strictly fewer nodes and take less wall
time than the seed at equal optimal cost.

The suite deliberately mixes three regimes:

* the **A2 ladder** — the pruning-ablation rule sets (none → +P1 →
  +filter → +subset → paper) on the two A2 experiment trees, so the
  numbers line up with ``benchmarks/test_bench_ablation_pruning.py``;
* the **Fig. 1 paper example**, where equal-cost duplicate states make
  the ``<=`` dedup fix directly visible (30 vs 32 expansions at k=1
  without pruning);
* **tied-weight and larger trees**, where transpositions abound and the
  incremental bound's memoisation pays most.

Timing uses best-of-``repeats`` (min of repeated runs) — the standard
way to strip scheduler noise from sub-millisecond measurements.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

from .core.candidates import PruningConfig
from .core.problem import AllocationProblem
from .core.reference import seed_best_first_search
from .core.search import SearchResult, best_first_search, dfs_branch_and_bound
from .io.json_io import write_json_record
from .tree.builders import balanced_tree, paper_example_tree, random_tree

__all__ = ["build_suite", "run_bench", "format_bench", "write_bench_json"]

_COST_TOLERANCE = 1e-9

# The cumulative §3.2 rule ladder of ablation A2 (analysis/comparisons.py).
_LADDER: tuple[tuple[str, PruningConfig], ...] = (
    ("none", PruningConfig.none()),
    ("p1", PruningConfig.none().without(forced_completion=True)),
    (
        "p1+filter",
        PruningConfig.none().without(
            forced_completion=True, candidate_filter=True
        ),
    ),
    (
        "p1+filter+subset",
        PruningConfig.none().without(
            forced_completion=True, candidate_filter=True, subset_rules=True
        ),
    ),
    ("paper", PruningConfig.paper()),
)


def build_suite() -> list[dict]:
    """The fixed bench instances: name, problem, rule set, A2 membership."""
    cases: list[dict] = []

    def add(name, tree, channels, pruning_name, pruning, ablation_a2):
        cases.append(
            {
                "name": name,
                "problem": AllocationProblem(tree, channels=channels),
                "channels": channels,
                "pruning": pruning_name,
                "config": pruning,
                "ablation_a2": ablation_a2,
            }
        )

    # Ablation-A2 suite: the full rule ladder on the two A2 trees
    # (benchmarks/test_bench_ablation_pruning.py uses seed 8; the
    # regenerated artifact uses seed 2000) plus the paper's Fig. 1
    # example and a tied-weight tree under the ladder endpoints —
    # weight ties are what create the equal-cost duplicate states the
    # dedup fix removes.
    a2_tree_bench = random_tree(np.random.default_rng(8), 8)
    a2_tree_artifact = random_tree(
        np.random.default_rng(2000), 8, max_fanout=3
    )
    for label, config in _LADDER:
        add(f"a2/rng8-n8/k2/{label}", a2_tree_bench, 2, label, config, True)
        add(
            f"a2/rng2000-n8/k2/{label}",
            a2_tree_artifact, 2, label, config, True,
        )
    fig1 = paper_example_tree()
    for channels in (1, 2):
        for label in ("none", "paper"):
            config = dict(_LADDER)[label]
            add(
                f"a2/fig1/k{channels}/{label}",
                fig1, channels, label, config, True,
            )
    tied = balanced_tree(3, depth=3, weights=[10.0] * 9)
    for label in ("none", "paper"):
        add(
            f"a2/tied-3x3/k2/{label}",
            tied, 2, label, dict(_LADDER)[label], True,
        )

    # Larger trees, paper rules only — the production configuration.
    add(
        "large/rng7-n13/k2/paper",
        random_tree(np.random.default_rng(7), 13, max_fanout=3),
        2, "paper", PruningConfig.paper(), False,
    )
    add(
        "large/rng11-n14/k3/paper",
        random_tree(np.random.default_rng(11), 14, max_fanout=4),
        3, "paper", PruningConfig.paper(), False,
    )
    return cases


def _measure(
    search: Callable[..., SearchResult],
    problem: AllocationProblem,
    config: PruningConfig,
    repeats: int,
) -> tuple[SearchResult, float]:
    """Run ``search`` ``repeats`` times; return (result, best wall time)."""
    best = float("inf")
    result: SearchResult | None = None
    for _ in range(repeats):
        started = perf_counter()
        result = search(problem, config)
        best = min(best, perf_counter() - started)
    assert result is not None
    return result, best


def run_bench(repeats: int = 3) -> dict:
    """Run the suite; return the JSON-ready record (see module docstring)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    records: list[dict] = []
    for case in build_suite():
        problem, config = case["problem"], case["config"]
        seed_result, seed_time = _measure(
            seed_best_first_search, problem, config, repeats
        )
        new_result, new_time = _measure(
            best_first_search, problem, config, repeats
        )
        dfs_result, dfs_time = _measure(
            dfs_branch_and_bound, problem, config, repeats
        )
        for other in (new_result, dfs_result):
            if abs(other.cost - seed_result.cost) > _COST_TOLERANCE * max(
                1.0, seed_result.cost
            ):
                raise AssertionError(
                    f"{case['name']}: cost mismatch — seed "
                    f"{seed_result.cost} vs {other.stats.get('mode')} "
                    f"{other.cost}"
                )
        records.append(
            {
                "name": case["name"],
                "channels": case["channels"],
                "pruning": case["pruning"],
                "data_count": len(problem.data_ids),
                "ablation_a2": case["ablation_a2"],
                "cost": seed_result.cost,
                "seed": {
                    "nodes_expanded": seed_result.nodes_expanded,
                    "nodes_generated": seed_result.nodes_generated,
                    "seconds": seed_time,
                },
                "best_first": {
                    "nodes_expanded": new_result.nodes_expanded,
                    "nodes_generated": new_result.nodes_generated,
                    "seconds": new_time,
                    "duplicates_suppressed": new_result.stats[
                        "duplicates_suppressed"
                    ],
                    "children_memo_hits": new_result.stats[
                        "children_memo_hits"
                    ],
                },
                "dfs_bnb": {
                    "nodes_expanded": dfs_result.nodes_expanded,
                    "nodes_generated": dfs_result.nodes_generated,
                    "seconds": dfs_time,
                },
                "speedup": seed_time / new_time if new_time else float("inf"),
                "nodes_saved": (
                    seed_result.nodes_expanded - new_result.nodes_expanded
                ),
            }
        )

    def _sum(rows, solver, key):
        return sum(row[solver][key] for row in rows)

    a2_rows = [row for row in records if row["ablation_a2"]]
    aggregate = {
        "repeats": repeats,
        "cases": len(records),
        "a2_cases": len(a2_rows),
        "seed_nodes_expanded": _sum(records, "seed", "nodes_expanded"),
        "best_first_nodes_expanded": _sum(
            records, "best_first", "nodes_expanded"
        ),
        "seed_seconds": _sum(records, "seed", "seconds"),
        "best_first_seconds": _sum(records, "best_first", "seconds"),
        "dfs_bnb_seconds": _sum(records, "dfs_bnb", "seconds"),
        "a2_seed_nodes_expanded": _sum(a2_rows, "seed", "nodes_expanded"),
        "a2_best_first_nodes_expanded": _sum(
            a2_rows, "best_first", "nodes_expanded"
        ),
        "a2_seed_seconds": _sum(a2_rows, "seed", "seconds"),
        "a2_best_first_seconds": _sum(a2_rows, "best_first", "seconds"),
    }
    aggregate["speedup"] = (
        aggregate["seed_seconds"] / aggregate["best_first_seconds"]
    )
    aggregate["a2_speedup"] = (
        aggregate["a2_seed_seconds"] / aggregate["a2_best_first_seconds"]
    )
    aggregate["checks"] = {
        "equal_cost": True,  # run_bench raised otherwise
        "a2_fewer_nodes": (
            aggregate["a2_best_first_nodes_expanded"]
            < aggregate["a2_seed_nodes_expanded"]
        ),
        "a2_faster": (
            aggregate["a2_best_first_seconds"] < aggregate["a2_seed_seconds"]
        ),
    }
    return {"suite": "search-overhaul", "cases": records, "aggregate": aggregate}


def format_bench(record: dict) -> str:
    """Human-readable table of a :func:`run_bench` record."""
    lines = [
        f"{'case':<28} {'cost':>9} {'seed':>7} {'new':>7} {'dfs':>7} "
        f"{'speedup':>8}",
        "-" * 70,
    ]
    for row in record["cases"]:
        lines.append(
            f"{row['name']:<28} {row['cost']:>9.4f} "
            f"{row['seed']['nodes_expanded']:>7} "
            f"{row['best_first']['nodes_expanded']:>7} "
            f"{row['dfs_bnb']['nodes_expanded']:>7} "
            f"{row['speedup']:>7.2f}x"
        )
    agg = record["aggregate"]
    lines.append("-" * 70)
    lines.append(
        f"total nodes expanded: seed {agg['seed_nodes_expanded']} -> "
        f"new {agg['best_first_nodes_expanded']}; "
        f"wall speedup {agg['speedup']:.2f}x "
        f"(A2 subset: {agg['a2_seed_nodes_expanded']} -> "
        f"{agg['a2_best_first_nodes_expanded']}, "
        f"{agg['a2_speedup']:.2f}x)"
    )
    checks = agg["checks"]
    lines.append(
        "checks: equal_cost="
        f"{checks['equal_cost']} a2_fewer_nodes={checks['a2_fewer_nodes']} "
        f"a2_faster={checks['a2_faster']}"
    )
    return "\n".join(lines)


def write_bench_json(path: str, repeats: int = 3) -> dict:
    """Run the bench and write the record to ``path``; returns the record."""
    return write_json_record(path, run_bench(repeats=repeats))
