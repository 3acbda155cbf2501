"""The ``"meta"`` planner: a cost model that picks the right strategy.

Every planning strategy in the registry has a regime where it wins:
the exact topological-tree search below a dozen leaves, budgeted
branch-and-bound a bit beyond, the §4.2 shrinking heuristic on skewed
mid-size catalogs, the sorting heuristic everywhere else — and the
:mod:`~repro.approx.ptas` class scheduler once catalogs get too large
for even the linear-time heuristics' *tree construction*. Until now the
caller had to know those regimes; ``method="meta"`` encodes them.

The model is deliberately cheap and legible — a handful of features and
an explicit decision table, not a learned black box:

========== =============================================================
feature    meaning
========== =============================================================
items      catalog size (data leaves)
channels   broadcast channels available
fanout     index-node fanout the tree is (or will be) built with
gini       weight skew as the Gini coefficient of the weights, 0 =
           uniform, → 1 = all mass on one item
entropy    normalised Shannon entropy of the weight distribution, 1 =
           uniform, → 0 = all mass on one item (the complementary skew
           view: Gini is mass-concentration, entropy is spread)
========== =============================================================

The same features fall out of a live
:class:`~repro.online.estimator.DecayingFrequencyEstimator` via
:func:`features_from_estimator`, so an adaptive server can re-decide per
epoch from observed traffic rather than configured weights.

Every dispatch is recorded three ways: perf counters
(``planner.meta.choice.<method>``, ``planner.meta.fallbacks``), plan
stats (``stats["meta"]`` carries the features, choice and reason), and a
:class:`~repro.obs.events.PlannerDecision` trace event when a tracer is
listening — the decision trail the frontier bench records per size.

``wire_safe=True`` constrains the table to planners whose trees the
frame-level wire walk can route (ptas interleaves key ranges across
channel groups, which breaks the ``key <= key_hi`` separator invariant);
:class:`repro.cluster.StationCluster` plans with it set.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import SearchBudgetExceeded
from ..obs.events import NULL_TRACER, PlannerDecision, Tracer
from ..perf import PerfRecorder
from ..planners import PlanResult, plan, register
from ..tree.alphabetic import build_index
from ..tree.index_tree import IndexTree
from .ptas import ptas_catalog_plan

__all__ = [
    "CatalogFeatures",
    "DEFAULT_THRESHOLDS",
    "decide",
    "extract_features",
    "features_from_estimator",
    "gini_coefficient",
    "normalized_entropy",
    "plan_meta",
    "meta_catalog_plan",
]


#: The decision table's knobs. Pass ``thresholds={...}`` to the planner
#: to override any subset; unknown keys are rejected.
DEFAULT_THRESHOLDS: dict[str, float] = {
    # Exact search is affordable (milliseconds) up to here…
    "exact_items": 10,
    # …branch-and-bound with a node budget a bit beyond…
    "bnb_items": 16,
    "bnb_budget": 50_000,
    # …and from here up, per-item work must stay near-constant: ptas.
    "ptas_items": 2_000,
    # Mid-size catalogs more concentrated than this Gini favour the
    # shrinking heuristic (it collapses the light tail the skew creates).
    "skew_gini": 0.6,
}


@dataclass(frozen=True)
class CatalogFeatures:
    """What the cost model looks at — cheap, O(n), workload-level."""

    items: int
    channels: int
    fanout: int
    total_weight: float
    gini: float
    entropy: float


def gini_coefficient(weights: Sequence[float]) -> float:
    """Gini coefficient of ``weights``: 0 uniform, → 1 concentrated."""
    values = np.sort(np.asarray(weights, dtype=float))
    total = values.sum()
    count = values.size
    if count == 0:
        raise ValueError("weights must be non-empty")
    if total <= 0 or count == 1:
        return 0.0
    ranks = np.arange(1, count + 1)
    return float((2.0 * (ranks * values).sum()) / (count * total) - (count + 1) / count)


def normalized_entropy(weights: Sequence[float]) -> float:
    """Shannon entropy of the weight distribution over ``log(n)``.

    1.0 for uniform weights, → 0 as mass concentrates; 1.0 by
    convention for a single-item catalog (nothing to be skewed about).
    """
    values = np.asarray(weights, dtype=float)
    count = values.size
    if count == 0:
        raise ValueError("weights must be non-empty")
    total = values.sum()
    if count == 1 or total <= 0:
        return 1.0
    p = values[values > 0] / total
    return float(-(p * np.log(p)).sum() / math.log(count))


def extract_features(
    weights: Sequence[float],
    channels: int,
    *,
    fanout: int = 3,
) -> CatalogFeatures:
    """Measure the cost model's features from a weight vector."""
    values = np.asarray(weights, dtype=float)
    if values.size == 0:
        raise ValueError("weights must be non-empty")
    return CatalogFeatures(
        items=int(values.size),
        channels=int(channels),
        fanout=int(fanout),
        total_weight=float(values.sum()),
        gini=gini_coefficient(values),
        entropy=normalized_entropy(values),
    )


def features_from_estimator(
    estimator,
    channels: int,
    *,
    fanout: int = 3,
    scale: float = 100.0,
) -> CatalogFeatures:
    """Features from live traffic: a ``DecayingFrequencyEstimator``.

    Any object with a ``weights(scale=...) -> Mapping[item, float]``
    method works; the adaptive serving loop hands its estimator here to
    re-decide the planning strategy from what tuners actually asked for.
    """
    observed: Mapping[object, float] = estimator.weights(scale=scale)
    if not observed:
        raise ValueError("estimator has observed no items yet")
    return extract_features(list(observed.values()), channels, fanout=fanout)


def decide(
    features: CatalogFeatures,
    *,
    wire_safe: bool = False,
    thresholds: Mapping[str, float] | None = None,
) -> tuple[str, dict, str]:
    """The decision table: features → (method, options, reason).

    Pure and deterministic — the planner wrappers call it, tests table
    it, and ``repro.cli approx explain`` prints its reasoning verbatim.
    """
    knobs = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        unknown = set(thresholds) - set(knobs)
        if unknown:
            raise TypeError(
                f"unknown meta thresholds: {', '.join(sorted(unknown))}"
            )
        knobs.update(thresholds)
    items = features.items
    if items <= knobs["exact_items"]:
        return "auto", {}, (
            f"{items} items: exact search is affordable at this size"
        )
    if items <= knobs["bnb_items"]:
        return "dfs-bnb", {"budget": int(knobs["bnb_budget"])}, (
            f"{items} items: budgeted branch-and-bound "
            f"({int(knobs['bnb_budget'])} expansions), heuristic beyond"
        )
    if items >= knobs["ptas_items"]:
        if wire_safe:
            return "sorting", {}, (
                f"{items} items but wire_safe: ptas trees are not "
                "wire-routable, sorting heuristic instead"
            )
        return "ptas", {}, (
            f"{items} items: class-scheduling approximation "
            "(near-linear, carries its own quality bound)"
        )
    if features.gini >= knobs["skew_gini"]:
        return "shrink-combine", {}, (
            f"{items} items with skewed weights "
            f"(gini {features.gini:.2f} >= {knobs['skew_gini']:g}): "
            "shrinking collapses the light tail"
        )
    return "sorting", {}, (
        f"{items} items, moderate skew (gini {features.gini:.2f}): "
        "linear-time sorting heuristic"
    )


def _record_decision(
    features: CatalogFeatures,
    method: str,
    reason: str,
    fell_back: bool,
    perf: PerfRecorder | None,
    tracer: Tracer,
) -> None:
    if perf is not None:
        perf.count("planner.meta.decisions")
        perf.count(f"planner.meta.choice.{method}")
        if fell_back:
            perf.count("planner.meta.fallbacks")
    if tracer.enabled:
        tracer.emit(
            PlannerDecision(
                method=method,
                items=features.items,
                channels=features.channels,
                gini=features.gini,
                entropy=features.entropy,
                reason=reason,
                fell_back=fell_back,
            )
        )


def _finish(
    result: PlanResult,
    features: CatalogFeatures,
    method: str,
    reason: str,
    fell_back: bool,
) -> PlanResult:
    result.stats = {
        **result.stats,
        "meta": {
            "method": method,
            "reason": reason,
            "fell_back": fell_back,
            "features": asdict(features),
        },
    }
    result.method = f"meta:{result.method}"
    return result


@register("meta")
def plan_meta(
    tree: IndexTree,
    channels: int,
    *,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    wire_safe: bool = False,
    thresholds: Mapping[str, float] | None = None,
    tracer: Tracer = NULL_TRACER,
) -> PlanResult:
    """Measure the tree's catalog, pick a strategy, dispatch to it.

    If the chosen method exhausts a search budget
    (:class:`~repro.exceptions.SearchBudgetExceeded`), the sorting
    heuristic serves instead and the decision trail says so
    (``stats["meta"]["fell_back"]``, ``planner.meta.fallbacks``).
    """
    leaves = tree.data_nodes()
    timer = (
        perf.timer("planner.meta.seconds")
        if perf is not None
        else contextlib.nullcontext()
    )
    with timer:
        features = extract_features(
            [leaf.weight for leaf in leaves],
            channels,
            fanout=max(2, tree.fanout()),
        )
        method, options, reason = decide(
            features, wire_safe=wire_safe, thresholds=thresholds
        )
    fell_back = False
    try:
        result = plan(tree, channels, method=method, perf=perf, rng=rng, **options)
    except SearchBudgetExceeded:
        fell_back = True
        result = plan(tree, channels, method="sorting", perf=perf, rng=rng)
    _record_decision(features, method, reason, fell_back, perf, tracer)
    return _finish(result, features, method, reason, fell_back)


def meta_catalog_plan(
    labels: Sequence[str],
    weights: Sequence[float],
    channels: int = 1,
    *,
    fanout: int = 3,
    keys: Sequence[object] | None = None,
    perf: PerfRecorder | None = None,
    rng: np.random.Generator | None = None,
    wire_safe: bool = False,
    thresholds: Mapping[str, float] | None = None,
    tracer: Tracer = NULL_TRACER,
) -> PlanResult:
    """The catalog-direct path ``plan_catalog(method="meta")`` takes.

    Decides *before* building anything, so the index construction can
    match the decision: ptas plans straight from the catalog (no global
    tree at all), every other choice gets a size-adaptive
    :func:`~repro.tree.alphabetic.build_index` tree — exact DP small,
    weight-balanced large — instead of ``plan_catalog``'s default cubic
    optimal construction, which is precisely what a million-item shard
    cannot afford.
    """
    if len(labels) != len(weights):
        raise ValueError(
            f"catalog has {len(labels)} labels but {len(weights)} weights"
        )
    if not labels:
        raise ValueError("cannot plan an empty catalog")
    timer = (
        perf.timer("planner.meta.seconds")
        if perf is not None
        else contextlib.nullcontext()
    )
    with timer:
        features = extract_features(weights, channels, fanout=fanout)
        method, options, reason = decide(
            features, wire_safe=wire_safe, thresholds=thresholds
        )
    fell_back = False
    if method == "ptas":
        result = ptas_catalog_plan(
            labels, weights, channels,
            fanout=fanout, keys=keys, perf=perf, rng=rng,
        )
    else:
        tree = build_index(
            list(labels), list(weights), fanout=fanout, keys=keys
        )
        try:
            result = plan(
                tree, channels, method=method, perf=perf, rng=rng, **options
            )
        except SearchBudgetExceeded:
            fell_back = True
            result = plan(tree, channels, method="sorting", perf=perf, rng=rng)
    _record_decision(features, method, reason, fell_back, perf, tracer)
    return _finish(result, features, method, reason, fell_back)


#: The catalog-direct capability :func:`repro.planners.plan_catalog`
#: dispatches on.
plan_meta.from_catalog = meta_catalog_plan
