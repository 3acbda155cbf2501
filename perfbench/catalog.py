"""catalog: large-catalog planning on a sharded cluster, scored in batch.

Each round takes a seeded, drifting Zipf(0.95) catalog of
:data:`KEYS` keys, plans it on a :class:`~repro.cluster.StationCluster`
of :data:`SHARDS` hash-partitioned shards (about 2,000 keys each, the
size at which the ``meta`` planner's ptas threshold and its
``wire_safe`` swap apply) and runs ``refit``. It then scores the
result: a seeded trace of :data:`WALKS` requests, an equal share per
shard, goes through the cluster's router into ``compile_dense`` and
``run_batch``, in
batches of :data:`BATCH_WALKS` walks, each on its own seeded air
with 5% loss and 1% corruption under :class:`RecoveryPolicy`
(retry-parent, give up after :data:`MAX_CYCLES` cycles).

No sockets; this is the only workload that runs the batch engine.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.approx import meta as approx_meta
from repro.broadcast import pointers as broadcast_pointers
from repro.client import RecoveryPolicy, request
from repro.cluster import StationCluster
from repro.cluster import core as cluster_core
from repro.engine import compile_dense, run_batch
from repro.faults import FaultConfig
from repro.workloads.weights import zipf_weights

from .hostspeed import HostSpeed
from .report import Measurement
from .stats import median
from .tracing import Recorder, maybe_span, root_span

KEYS = 8000
SHARDS = 4
THETA = 0.95
#: Fraction of rank positions that swap between rounds.
DRIFT = 0.05
#: Requests per round, an equal share per shard (see :func:`_trace`).
WALKS = 300_000
#: Each shard's walks run as batches of this many, each on its own
#: seeded stretch of lossy air. Every walk of a batch shares one loss
#: pattern (a lost root airing hits them all), so one pattern's mean
#: access time swings by about a quarter; 24 per round keep the mean
#: steady.
BATCH_WALKS = 12_500
LOSS = 0.05
CORRUPTION = 0.01
#: The recovery give-up bound. The default of 8 cycles abandons about
#: 1 walk in 70,000 at this loss rate; 16 lets every walk finish, so
#: the workload's operations all succeed and an abandoned walk fails a
#: gate.
MAX_CYCLES = 16
#: Walks per batch replayed through the scalar engine.
GATE_SAMPLE = 2
#: Set-ups happen before the timed phase and again each time another
#: half of it has run, so set-up time is sampled across the run.
SETUP_POINTS = 2
#: Rounds always run, even past ``--seconds``; the slot means cover
#: exactly these (about 70 loss patterns), so they repeat for a given
#: seed.
MIN_ROUNDS = 3
#: How strongly this workload's times follow the host-speed reference
#: (see perfbench/hostspeed.py).
SENSITIVITY = 0.5
#: Methods a shard plan can end with. ``meta`` never ends with ptas
#: here: StationCluster plans wire-safe, and wire-safe swaps ptas for
#: sorting.
METHODS = ("auto", "dfs-bnb", "shrink-combine", "sorting")

_FIELDS = (
    "access_time", "probe_wait", "data_wait", "tuning_time",
    "channel_switches", "lost_buckets", "corrupt_buckets", "retries",
    "wasted_probes", "cycles_spent", "abandoned",
)


class _Catalogs:
    """The seeded catalog sequence: round ``r`` drifts from round r-1."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 0xCA])
        self.labels = [f"C{index:05d}" for index in range(KEYS)]
        self.weights = np.asarray(
            zipf_weights(self.rng, KEYS, theta=THETA), dtype=float
        )

    def next(self) -> list[tuple[str, float]]:
        catalog = list(zip(self.labels, self.weights.tolist()))
        swaps = int(KEYS * DRIFT) // 2
        picks = self.rng.choice(KEYS, size=2 * swaps, replace=False)
        a, b = picks[:swaps], picks[swaps:]
        self.weights[a], self.weights[b] = self.weights[b], self.weights[a]
        return catalog


def _cluster(catalog) -> StationCluster:
    return StationCluster(catalog, SHARDS, partitioner="hash")


def measure(seed: int, seconds: float, recorder: Recorder | None = None,
            **_) -> Measurement:
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            recorder.patch(stack, cluster_core, "partition_catalog",
                           "cluster.partition")
            recorder.patch(stack, cluster_core, "plan_catalog",
                           "planners.shard_plan")
            recorder.patch(stack, approx_meta, "build_index",
                           "tree.build_index")
            recorder.patch(stack, broadcast_pointers, "compile_program",
                           "broadcast.compile")
            recorder.patch(stack, cluster_core, "encode_program",
                           "io.encode")
            recorder.patch(stack, cluster_core, "wire_walk",
                           "client.wire_walk", leaf=True)
        return _measure(seed, seconds, recorder)


def _measure(seed, seconds, recorder) -> Measurement:
    clock = time.perf_counter
    speed = HostSpeed(SENSITIVITY)
    catalogs = _Catalogs(seed)
    first = catalogs.next()
    setups = []

    def set_up():
        with speed.window() as window:
            started = clock()
            with root_span(recorder, "bench.setup", started):
                with maybe_span(recorder, "cluster.build"):
                    _cluster(first)
            took = clock() - started
        setups.append(window.scale(took))

    set_up()
    policy = RecoveryPolicy(max_cycles=MAX_CYCLES)
    rng = np.random.default_rng([seed, 0xB7])
    m = Measurement()
    replan_s, rates, batch_ms, batch_walks = [], [], [], []
    stats = dict(walks=0, completed=0, access=0, tuning=0, counted=0,
                 retries=0, refit_rounds=0, route_s=0.0, routed=0)
    methods = dict.fromkeys(METHODS, 0)
    routing_ok = gate_ok = True
    gate_checked = 0
    marks = [seconds * k / SETUP_POINTS for k in range(1, SETUP_POINTS + 1)]
    timed = 0.0
    catalog = first
    rounds = 0
    while rounds < MIN_ROUNDS or timed < seconds:
        with root_span(recorder, "bench.round"):
            with speed.window() as window:
                began = clock()
                with maybe_span(recorder, "cluster.build"):
                    cluster = _cluster(catalog)
                with maybe_span(recorder, "cluster.refit"):
                    refit = cluster.refit()
                replanned = clock()
            replan_s.append(window.scale(replanned - began))

            # Inputs are drawn outside the timed scoring steps.
            labels, owners = _trace(cluster, catalog, rng)
            with speed.window() as window:
                batches, returned, spent, shards = _score(
                    cluster, labels, rng, policy, recorder, stats,
                    seed=(seed * 1_000 + rounds) * 1_000,
                )
            routing_ok &= bool((shards == owners).all())
        timed += replanned - began + spent
        # One window per round. Every walk of the round is due when the
        # trace is handed to the cluster and done when its batch returns;
        # the batches run one after another, as a batch server would
        # serve requests queued at once. Each return time counts once
        # per walk in its batch.
        completed = sum(int((~records.abandoned).sum())
                        for *_, records in batches)
        rates.append(completed / window.scale(spent))
        batch_ms.append([window.scale(at) * 1e3 for at in returned])
        batch_walks.append([len(records) for *_, records in batches])

        for program, mine, slots, faults, records in batches:
            finished = ~records.abandoned
            stats["walks"] += len(records)
            stats["completed"] += int(finished.sum())
            stats["retries"] += int(records.retries.sum())
            if rounds < MIN_ROUNDS:
                stats["access"] += int(records.access_time[finished].sum())
                stats["tuning"] += int(records.tuning_time[finished].sum())
                stats["counted"] += int(finished.sum())
        stats["refit_rounds"] += len(refit.rounds)
        if rounds < MIN_ROUNDS:
            for plan in cluster.plans.values():
                methods[plan.result.method.split(":", 1)[-1]] += 1

        routing_ok &= _routes_once(cluster, catalog)
        sample = np.random.default_rng([seed, 0x6A, rounds])
        for program, mine, slots, faults, records in batches:
            picks = sample.choice(len(mine), size=GATE_SAMPLE, replace=False)
            for w in picks.tolist():
                ref = request(program, labels[mine[w]], int(slots[w]),
                              engine="object", faults=faults,
                              recovery=policy)
                gate_ok &= all(
                    getattr(ref, name) == getattr(records, name)[w]
                    for name in _FIELDS
                )
                gate_checked += 1
        rounds += 1
        catalog = catalogs.next()
        while marks and timed >= marks[0]:
            marks.pop(0)
            set_up()

    walks = stats["walks"]
    m.attempted = walks
    m.failed = walks - stats["completed"]
    m.add_median("setup_s", setups, "s")
    # Completed walks over the round's scoring time: routing, every
    # shard's compile_dense and every batch.
    m.add_rate("walks_per_s", rates, "1/s")
    m.add_latency("walk_ms", batch_ms, "ms", 1.0, weights=batch_walks)
    # Each round plans once: a window of one.
    m.add_windowed("replan_s_p50", [[s] for s in replan_s], "s", 50)
    m.extra["slowness"] = speed.slowness()
    if stats["counted"]:
        m.add("access_slots_mean", stats["access"] / stats["counted"],
              "slots", stats["counted"])
        m.add("tuning_slots_mean", stats["tuning"] / stats["counted"],
              "slots", stats["counted"])
    m.gate("no walk abandoned", not m.failed,
           f"{m.failed} of {walks} abandoned after {MAX_CYCLES} cycles")
    m.gate("every key and request routes to the shard that holds it",
           routing_ok,
           f"{rounds} round(s)")
    m.gate("sampled batch walks equal the scalar engine", gate_ok,
           f"{gate_checked} walks compared")
    m.extra.update(stats=stats, methods=methods, rounds=rounds)
    return m


def _trace(cluster: StationCluster, catalog, rng):
    """The round's requests and the shard that holds each one's key.

    Each shard gets ``WALKS // SHARDS`` requests, drawn by weight among
    its own keys, then all are shuffled together. A batch's time depends
    on its shard's program, and the hash split of a Zipf catalog gives
    the shards different loads from seed to seed: equal loads keep the
    mixture of shards, and so the timings, the same from seed to seed.
    """
    weight = dict(catalog)
    labels, owners = [], []
    for shard in range(SHARDS):
        keys = list(cluster.router.keys_of(shard))
        weights = np.array([weight[key] for key in keys])
        picks = rng.choice(len(keys), size=WALKS // SHARDS,
                           p=weights / weights.sum())
        labels.extend(keys[i] for i in picks.tolist())
        owners.extend([shard] * (WALKS // SHARDS))
    order = rng.permutation(len(labels))
    return [labels[i] for i in order.tolist()], np.asarray(owners)[order]


def _score(cluster, labels, rng, policy, recorder, stats, *, seed):
    """Route the round's trace and run it through the batch engine.

    Returns the batches as ``(program, trace positions, tune-in slots,
    faults, records)``, the seconds from the start of scoring to each
    batch's return, the seconds of the whole scoring step, and the shard
    each request was routed to.
    """
    clock = time.perf_counter
    began = clock()
    with maybe_span(recorder, "cluster.route"):
        routed = clock()
        shard_of = cluster.router.shard_of
        shards = np.fromiter(
            (shard_of(label) for label in labels), dtype=np.int64,
            count=len(labels),
        )
        stats["route_s"] += clock() - routed
    stats["routed"] += len(labels)
    batches, returned = [], []
    for shard in range(SHARDS):
        program = cluster.plans[shard].program
        with maybe_span(recorder, "engine.compile_dense"):
            dense = compile_dense(program)
            index = dense.data_index
            mine = np.flatnonzero(shards == shard)
            targets = np.fromiter(
                (index(labels[i]) for i in mine.tolist()),
                dtype=np.int64, count=len(mine),
            )
        slots = rng.integers(1, dense.cycle_length + 1, size=len(mine))
        for walks in np.array_split(np.arange(len(mine)),
                                    max(1, round(len(mine) / BATCH_WALKS))):
            faults = FaultConfig(loss=LOSS, corruption=CORRUPTION,
                                 seed=seed + len(batches))
            with maybe_span(recorder, "engine.run_batch"):
                records = run_batch(dense, targets[walks], slots[walks],
                                    faults=faults, recovery=policy)
            returned.append(clock() - began)
            batches.append((program, mine[walks], slots[walks], faults,
                            records))
    return batches, returned, clock() - began, shards


def _routes_once(cluster: StationCluster, catalog) -> bool:
    """Every catalog key is listed by exactly the shard it routes to."""
    seen: dict[str, int] = {}
    for shard in range(SHARDS):
        for key in cluster.router.keys_of(shard):
            if key in seen:
                return False
            seen[key] = shard
    return len(seen) == len(catalog) and all(
        seen.get(key) == cluster.router.shard_of(key) for key, _ in catalog
    )


def layers(recorder: Recorder, m: Measurement) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced catalog run."""
    stats = m.extra["stats"]
    rounds = m.extra["rounds"]

    def total_ms(name):
        return sum(s.seconds for s in recorder.named(name, root="bench.round"))

    def per_round_ms(name):
        return total_ms(name) * 1e3 / rounds

    shard_plans = recorder.named("planners.shard_plan", root="bench.round")
    wire_s, wire_calls = recorder.leaf_total("client.wire_walk")
    out = {
        "cluster.partition_ms": (per_round_ms("cluster.partition"), "ms"),
        "planners.shard_plan_ms_p50": (
            median(s.seconds for s in shard_plans) * 1e3, "ms"
        ),
        "tree.build_index_ms": (per_round_ms("tree.build_index"), "ms"),
        "broadcast.compile_ms": (per_round_ms("broadcast.compile"), "ms"),
        "io.encode_ms": (per_round_ms("io.encode"), "ms"),
        "client.wire_walk_us": (wire_s / wire_calls * 1e6, "us"),
        "cluster.refit_ms": (per_round_ms("cluster.refit"), "ms"),
        "cluster.refit_rounds": (stats["refit_rounds"] / rounds, "count"),
        "cluster.route_us": (stats["route_s"] / stats["routed"] * 1e6, "us"),
        "engine.compile_dense_ms": (
            per_round_ms("engine.compile_dense"), "ms"
        ),
        "engine.run_batch_ms": (per_round_ms("engine.run_batch"), "ms"),
        "engine.retries_per_walk": (stats["retries"] / stats["walks"],
                                    "count"),
        "engine.useful_ratio": (stats["completed"] / stats["walks"], "ratio"),
    }
    for method, count in m.extra["methods"].items():
        out[f"planners.method.{method}"] = (count, "count")
    return out
