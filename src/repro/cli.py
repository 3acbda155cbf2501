"""Command-line interface: ``broadcast-alloc`` / ``python -m repro.cli``.

Subcommands regenerate each experiment on demand:

* ``demo``     — solve the Fig. 1 running example on 1..k channels;
* ``table1``   — the §4.1 pruning-effects table;
* ``fig14``    — the §4.2 Sorting-vs-Optimal sweep;
* ``compare``  — heuristics/baselines vs optimal on random trees;
* ``channels`` — data wait vs channel count (Corollary 1 regime);
* ``ablation`` — pruning-rule search-effort ablation;
* ``bench``    — search-core perf suite (seed vs overhauled vs DFS B&B),
  optionally emitting a JSON perf record via ``--json``;
* ``faults``   — loss-probability sweep over registry planners on
  unreliable channels, including the loss=0 differential gate (the
  command exits non-zero when the gate fails);
* ``bench-server`` — full-stack serving-loop bench under perfect and
  lossy air, writing ``BENCH_server.json`` via ``--json``;
* ``serve``    — put a compiled plan on the air over real sockets
  (:mod:`repro.net`); Ctrl-C shuts down cleanly and flushes stats;
  ``--metrics-port`` additionally mounts the :mod:`repro.obs` HTTP
  endpoint (``/metrics`` Prometheus exposition + ``/healthz``);
  ``--store DIR`` serves from a :mod:`repro.sched` schedule store and
  follows it live — versions published behind the station's back
  (``sched rollback`` from another shell) cut over at the next cycle
  boundary with zero dropped walks, and the crash snapshot is flushed
  before the sockets close;
* ``sched``    — the versioned schedule store (:mod:`repro.sched`):
  ``sched log/show/diff`` inspect history, ``sched rollback`` restores
  an old version byte-exactly as a new head, ``sched gc`` drops
  unreferenced objects, ``sched bench`` times publish/load/rollback
  (``BENCH_sched.json`` via ``--json``) and ``sched loadtest`` gates
  the live replan-and-roll-back cutover under a tuner fleet;
* ``tune``     — one live client walk against a running station;
* ``loadtest`` — the concurrent tuner-fleet harness; with
  ``--check-parity`` it exits non-zero unless the socket fleet's
  access/tuning times match the in-process simulator exactly; with
  ``--trace PREFIX`` it writes the fleet's JSONL event trace
  (``PREFIX.live.jsonl``) alongside a lossless simulator replay of the
  identical request trace (``PREFIX.sim.jsonl``) — the input pair for
  ``obs diff``;
* ``engine``   — the vectorised batch walk engine (:mod:`repro.engine`):
  ``engine bench`` measures batch-vs-scalar throughput with the
  per-walk bit-identity differential gates built into the record's
  checks, writing ``BENCH_engine.json`` via ``--json``; ``loadtest
  --engine batch`` runs the fleet's request trace through the batch
  simulator instead of sockets;
* ``obs``      — trace tooling: ``obs timeline`` reconstructs the
  per-(channel, slot) view of one JSONL trace, ``obs diff`` compares
  two traces and names the first divergent slot.

Installed as the ``repro`` console script (``broadcast-alloc`` remains
as the historical alias).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.comparisons import (
    channel_scaling,
    compare_methods,
    format_channel_scaling,
    format_method_comparison,
    format_pruning_ablation,
    pruning_ablation,
)
from .analysis.fig14 import format_fig14, run_fig14
from .analysis.table1 import format_table1, run_table1
from .core.optimal import solve
from .tree.builders import paper_example_tree

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="broadcast-alloc",
        description=(
            "Optimal index and data allocation in multiple broadcast "
            "channels (Lo & Chen, ICDE 2000) - experiment runner"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2000, help="RNG seed (default 2000)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="solve the Fig. 1 example")
    demo.add_argument(
        "--channels", type=int, default=2, help="max channel count to show"
    )

    table1 = commands.add_parser("table1", help="Table 1 pruning effects")
    table1.add_argument(
        "--max-fanout",
        type=int,
        default=6,
        help="largest m to include (6 matches the paper)",
    )
    table1.add_argument(
        "--max-enum-p12",
        type=int,
        default=6,
        help="largest m to enumerate the P1,2 column for",
    )

    fig14 = commands.add_parser("fig14", help="Fig. 14 Sorting vs Optimal")
    fig14.add_argument("--trials", type=int, default=30)

    compare = commands.add_parser(
        "compare", help="heuristics and baselines vs optimal"
    )
    compare.add_argument("--trials", type=int, default=20)
    compare.add_argument("--data-count", type=int, default=12)

    channels = commands.add_parser(
        "channels", help="data wait vs channel count"
    )
    channels.add_argument("--fanout", type=int, default=3)

    commands.add_parser("ablation", help="pruning-rule ablation")

    bench = commands.add_parser(
        "bench",
        help="search-core perf suite: seed vs overhauled vs DFS B&B",
    )
    bench.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the full JSON perf record to PATH",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per case; wall time is the best-of-N "
        "(default 3)",
    )

    spaces = commands.add_parser(
        "spaces", help="render the reduced search trees (Figs. 9-12)"
    )
    spaces.add_argument(
        "--channels", type=int, default=2, help="k for the topological tree"
    )

    faults = commands.add_parser(
        "faults",
        help="loss sweep over registry planners on unreliable channels",
    )
    faults.add_argument(
        "--planners",
        default="auto,sorting,sv96",
        help="comma-separated repro.planners registry names "
        "(default: auto,sorting,sv96)",
    )
    faults.add_argument(
        "--losses",
        default="0,0.05,0.1,0.2,0.3",
        help="comma-separated per-channel loss probabilities "
        "(0 is always re-added: it carries the differential gate)",
    )
    faults.add_argument("--channels", type=int, default=2)
    faults.add_argument("--requests", type=int, default=500)
    faults.add_argument(
        "--corruption",
        type=float,
        default=0.0,
        help="payload corruption probability at non-zero loss points",
    )
    faults.add_argument(
        "--burst",
        action="store_true",
        help="Gilbert-Elliott burst losses instead of i.i.d.",
    )
    faults.add_argument(
        "--policy",
        choices=("retry-parent", "next-cycle"),
        default="retry-parent",
    )
    faults.add_argument(
        "--max-cycles",
        type=int,
        default=8,
        help="give-up bound, in cycles from tune-in (default 8)",
    )
    faults.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the full sweep record to PATH",
    )

    bench_server = commands.add_parser(
        "bench-server",
        help="full-stack serving-loop bench (lossless vs lossy air)",
    )
    bench_server.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the JSON perf record to PATH",
    )

    def add_program_options(sub: argparse.ArgumentParser) -> None:
        """Knobs shared by every repro.net command that builds a plan."""
        sub.add_argument("--items", type=int, default=24)
        sub.add_argument("--channels", type=int, default=3)
        sub.add_argument("--fanout", type=int, default=3)
        sub.add_argument(
            "--planner",
            default="sorting",
            help="repro.planners registry name (default 'sorting')",
        )

    serve = commands.add_parser(
        "serve", help="air a compiled plan over sockets (repro.net)"
    )
    add_program_options(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument(
        "--transport", choices=("tcp", "udp"), default="tcp"
    )
    serve.add_argument(
        "--slot-duration",
        type=float,
        default=0.0,
        help="seconds per slot; 0 = logical time (TCP only)",
    )
    serve.add_argument(
        "--loss", type=float, default=0.0, help="per-bucket loss probability"
    )
    serve.add_argument(
        "--corruption",
        type=float,
        default=0.0,
        help="per-bucket payload corruption probability",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve /metrics (Prometheus) and /healthz on this "
        "port (0 picks a free one)",
    )
    serve.add_argument(
        "--store",
        dest="store_dir",
        default=None,
        metavar="DIR",
        help="serve from a repro.sched schedule store: an empty store "
        "is seeded with the demo plan as version 1, otherwise the head "
        "version goes on air; the store is then polled and any version "
        "published behind the station's back (a replan or a 'sched "
        "rollback' from another shell) cuts over at the next cycle "
        "boundary with zero dropped walks",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="store poll period in seconds when --store is given "
        "(default 0.5)",
    )

    tune = commands.add_parser(
        "tune", help="one live client walk against a running station"
    )
    tune.add_argument("--host", default="127.0.0.1")
    tune.add_argument("--port", type=int, required=True)
    tune.add_argument("--key", required=True, help="search key to fetch")
    tune.add_argument(
        "--tune-slot",
        type=int,
        default=1,
        help="cycle-relative slot to tune in at (default 1)",
    )
    tune.add_argument(
        "--policy", choices=("retry-parent", "next-cycle"), default=None
    )
    tune.add_argument(
        "--max-cycles",
        type=int,
        default=8,
        help="recovery give-up bound, in cycles (default 8)",
    )

    loadtest = commands.add_parser(
        "loadtest",
        help="concurrent tuner fleet on a loopback station",
    )
    add_program_options(loadtest)
    loadtest.add_argument("--tuners", type=int, default=1000)
    loadtest.add_argument(
        "--arrival-rate",
        type=float,
        default=5000.0,
        help="Poisson arrival intensity, tuners/second (0 = all at once)",
    )
    loadtest.add_argument(
        "--max-open",
        type=int,
        default=256,
        help="simultaneously open connections (fd throttle)",
    )
    loadtest.add_argument(
        "--slot-duration", type=float, default=0.0,
        help="station pacing, seconds per slot (0 = logical time)",
    )
    loadtest.add_argument("--loss", type=float, default=0.0)
    loadtest.add_argument("--corruption", type=float, default=0.0)
    loadtest.add_argument(
        "--policy", choices=("retry-parent", "next-cycle"), default=None
    )
    loadtest.add_argument("--max-cycles", type=int, default=8)
    loadtest.add_argument(
        "--check-parity",
        action="store_true",
        help="replay the trace through the in-process simulator and "
        "require exact access/tuning-time equality (lossless air only)",
    )
    loadtest.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_net.json loadtest record to PATH",
    )
    loadtest.add_argument(
        "--trace",
        dest="trace_prefix",
        default=None,
        metavar="PREFIX",
        help="write the fleet's JSONL event trace to PREFIX.live.jsonl "
        "and a lossless simulator replay of the same requests to "
        "PREFIX.sim.jsonl (diff them with 'obs diff')",
    )
    loadtest.add_argument(
        "--engine",
        choices=("fleet", "batch"),
        default="fleet",
        help="'fleet' runs the socket tuner fleet (default); 'batch' "
        "runs the identical request trace through the in-process "
        "repro.engine batch simulator instead (no sockets; "
        "--check-parity compares it walk-for-walk against the scalar "
        "protocol)",
    )

    cluster = commands.add_parser(
        "cluster",
        help="sharded multi-station cluster: partitioned planning, "
        "routing, refit, fleet loadtest (repro.cluster)",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )

    def add_cluster_options(sub: argparse.ArgumentParser) -> None:
        """Knobs shared by every cluster subcommand."""
        sub.add_argument("--items", type=int, default=32)
        sub.add_argument("--channels", type=int, default=3)
        sub.add_argument("--fanout", type=int, default=3)
        sub.add_argument(
            "--planner",
            default="meta",
            help="repro.planners registry name used per shard "
            "(default 'meta': the repro.approx cost-model dispatcher, "
            "restricted to wire-routable planners)",
        )
        sub.add_argument("--shards", type=int, default=2)
        sub.add_argument(
            "--partitioner",
            default="hash",
            help="repro.cluster.partition registry name "
            "(default 'hash'; also 'weight-balanced')",
        )
        sub.add_argument(
            "--refit-rounds",
            type=int,
            default=0,
            help="run the measuring refit loop for up to N rounds "
            "before serving/loadtesting (default 0 = off)",
        )

    cluster_plan = cluster_commands.add_parser(
        "plan",
        help="partition the catalog, plan every shard, print the table",
    )
    add_cluster_options(cluster_plan)

    cluster_serve = cluster_commands.add_parser(
        "serve", help="air every shard's program on its own station"
    )
    add_cluster_options(cluster_serve)
    cluster_serve.add_argument("--host", default="127.0.0.1")
    cluster_serve.add_argument(
        "--slot-duration",
        type=float,
        default=0.0,
        help="seconds per slot; 0 = logical time",
    )

    cluster_loadtest = cluster_commands.add_parser(
        "loadtest",
        help="routed tuner fleet across every shard, with per-shard "
        "accounting and parity gates",
    )
    add_cluster_options(cluster_loadtest)
    cluster_loadtest.add_argument("--tuners", type=int, default=200)
    cluster_loadtest.add_argument(
        "--sweep",
        default=None,
        metavar="COUNTS",
        help="comma-separated shard counts (e.g. 1,2,4) to loadtest "
        "in sequence; overrides --shards and records speedups",
    )
    cluster_loadtest.add_argument(
        "--arrival-rate",
        type=float,
        default=0.0,
        help="Poisson arrival intensity, tuners/second (0 = all at once)",
    )
    cluster_loadtest.add_argument("--max-open", type=int, default=256)
    cluster_loadtest.add_argument(
        "--slot-duration",
        type=float,
        default=0.0,
        help="station pacing, seconds per slot (0 = logical time)",
    )
    cluster_loadtest.add_argument(
        "--check-parity",
        action="store_true",
        help="per-shard simulator replay with exact-equality gate",
    )
    cluster_loadtest.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_cluster.json sweep record to PATH",
    )

    approx = commands.add_parser(
        "approx",
        help="approximation planners for million-item catalogs: ptas "
        "plan card, quality-vs-time frontier bench, meta-planner "
        "explain (repro.approx)",
    )
    approx_commands = approx.add_subparsers(
        dest="approx_command", required=True
    )

    def add_approx_options(sub: argparse.ArgumentParser) -> None:
        """The synthetic-catalog knobs every approx subcommand shares."""
        sub.add_argument(
            "--items",
            type=int,
            default=10_000,
            help="synthetic catalog size (default 10000)",
        )
        sub.add_argument("--channels", type=int, default=4)
        sub.add_argument("--fanout", type=int, default=3)
        sub.add_argument(
            "--theta",
            type=float,
            default=0.95,
            help="Zipf skew of the synthetic weights (default 0.95)",
        )

    approx_plan = approx_commands.add_parser(
        "plan",
        help="plan a synthetic Zipf catalog with one registry planner, "
        "print the plan card (cost, bound, groups, timing)",
    )
    add_approx_options(approx_plan)
    approx_plan.add_argument(
        "--method",
        default="ptas",
        help="repro.planners registry name (default 'ptas')",
    )

    approx_frontier = approx_commands.add_parser(
        "frontier",
        help="sweep catalog sizes, plan each with ptas/sorting/meta, "
        "record the quality-vs-time frontier (BENCH_approx.json)",
    )
    approx_frontier.add_argument(
        "--sizes",
        default="1000,10000",
        metavar="SIZES",
        help="comma-separated catalog sizes (default '1000,10000'; "
        "the committed baseline scale)",
    )
    approx_frontier.add_argument("--channels", type=int, default=4)
    approx_frontier.add_argument("--fanout", type=int, default=3)
    approx_frontier.add_argument("--theta", type=float, default=0.95)
    approx_frontier.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_approx.json frontier record to PATH",
    )

    approx_explain = approx_commands.add_parser(
        "explain",
        help="print the meta-planner's measured features and its "
        "decision for a catalog, without planning anything",
    )
    add_approx_options(approx_explain)
    approx_explain.add_argument(
        "--wire-safe",
        action="store_true",
        help="restrict the decision to wire-routable planners "
        "(what the cluster's stations require)",
    )

    sched = commands.add_parser(
        "sched",
        help="versioned schedule store: history, diffs, zero-downtime "
        "rollback, gc, bench and cutover loadtest (repro.sched)",
    )
    sched_commands = sched.add_subparsers(
        dest="sched_command", required=True
    )

    def add_store_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            dest="store_dir",
            required=True,
            metavar="DIR",
            help="schedule store directory (repro.sched.ScheduleStore)",
        )

    sched_log = sched_commands.add_parser(
        "log", help="the version log, oldest first"
    )
    add_store_option(sched_log)
    sched_log.add_argument(
        "--limit",
        type=int,
        default=0,
        help="show only the newest N versions (0 = all; default 0)",
    )

    sched_show = sched_commands.add_parser(
        "show", help="print one version's plan, integrity-verified"
    )
    add_store_option(sched_show)
    sched_show.add_argument(
        "--version",
        type=int,
        default=None,
        help="version to show (default: head)",
    )

    sched_diff = sched_commands.add_parser(
        "diff",
        help="structural delta between two versions' plan documents",
    )
    add_store_option(sched_diff)
    sched_diff.add_argument(
        "--from", dest="from_version", type=int, required=True,
        metavar="VERSION",
    )
    sched_diff.add_argument(
        "--to", dest="to_version", type=int, required=True,
        metavar="VERSION",
    )

    sched_rollback = sched_commands.add_parser(
        "rollback",
        help="republish an old version as the new head (append-only; a "
        "station serving with --store cuts over at its next cycle "
        "boundary)",
    )
    add_store_option(sched_rollback)
    sched_rollback.add_argument(
        "--to", dest="to_version", type=int, required=True,
        metavar="VERSION", help="version whose content becomes the head",
    )
    sched_rollback.add_argument(
        "--note", default="", help="free-form note stamped into the log"
    )

    sched_gc = sched_commands.add_parser(
        "gc",
        help="drop objects the version log does not reference "
        "(left-overs of interrupted publishes)",
    )
    add_store_option(sched_gc)

    sched_bench = sched_commands.add_parser(
        "bench",
        help="store micro-bench: publish/load/rollback timings and "
        "bytes-per-version, writing BENCH_sched.json via --json",
    )
    sched_bench.add_argument("--versions", type=int, default=40)
    sched_bench.add_argument("--items", type=int, default=24)
    sched_bench.add_argument("--channels", type=int, default=3)
    sched_bench.add_argument("--fanout", type=int, default=3)
    sched_bench.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        help="full-snapshot period in versions (default 8)",
    )
    sched_bench.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_sched.json record to PATH",
    )

    sched_loadtest = sched_commands.add_parser(
        "loadtest",
        help="live cutover loadtest: a tuner fleet rides through a "
        "mid-walk replan and a rollback; exits non-zero unless frame "
        "accounting, zero-abandonment and byte-exact restore all hold",
    )
    sched_loadtest.add_argument("--tuners", type=int, default=200)
    sched_loadtest.add_argument("--items", type=int, default=24)
    sched_loadtest.add_argument("--channels", type=int, default=3)
    sched_loadtest.add_argument("--fanout", type=int, default=3)
    sched_loadtest.add_argument("--max-open", type=int, default=128)
    sched_loadtest.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_sched.json loadtest record to PATH",
    )
    sched_loadtest.add_argument(
        "--trace",
        dest="trace_path",
        default=None,
        metavar="PATH",
        help="record a span-traced JSONL of the run to PATH: the "
        "replan/publish/cutover spans and every walk's segment spans "
        "share one trace id per replan (view with 'obs spans')",
    )
    sched_loadtest.add_argument(
        "--postmortem-dir",
        default=None,
        metavar="DIR",
        help="attach an always-on flight recorder dumping postmortem "
        "bundles to DIR whenever an acceptance gate fails",
    )

    engine = commands.add_parser(
        "engine",
        help="vectorised batch walk engine: bench and differential gate "
        "(repro.engine)",
    )
    engine_commands = engine.add_subparsers(
        dest="engine_command", required=True
    )
    engine_bench = engine_commands.add_parser(
        "bench",
        help="batch-vs-scalar throughput suite with built-in "
        "bit-identity gates, writing BENCH_engine.json via --json",
    )
    engine_bench.add_argument("--items", type=int, default=24)
    engine_bench.add_argument("--channels", type=int, default=3)
    engine_bench.add_argument("--fanout", type=int, default=3)
    engine_bench.add_argument("--planner", default="sorting")
    engine_bench.add_argument(
        "--walks",
        type=int,
        default=200_000,
        help="trace length for the batch paths (default 200000)",
    )
    engine_bench.add_argument(
        "--sample",
        type=int,
        default=2000,
        help="scalar-walk sample for the timing baseline and the "
        "per-walk differential gate (default 2000)",
    )
    engine_bench.add_argument("--loss", type=float, default=0.05)
    engine_bench.add_argument("--corruption", type=float, default=0.01)
    engine_bench.add_argument("--repeats", type=int, default=3)
    engine_bench.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the BENCH_engine.json record to PATH",
    )

    obs = commands.add_parser(
        "obs",
        help="trace tooling: timelines, diffs, latency attribution, "
        "causal span trees and postmortem bundles",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    timeline = obs_commands.add_parser(
        "timeline",
        help="reconstruct the per-(channel, slot) view of one trace",
    )
    timeline.add_argument("trace", help="JSONL trace file")
    timeline.add_argument(
        "--channel", type=int, default=None, help="show one channel only"
    )
    timeline.add_argument(
        "--limit",
        type=int,
        default=40,
        help="max slot cells to print (0 = all; default 40)",
    )
    diff = obs_commands.add_parser(
        "diff",
        help="compare two traces; exit 1 and name the first divergent "
        "slot when they disagree",
    )
    diff.add_argument("trace_a", help="JSONL trace file (side A)")
    diff.add_argument("trace_b", help="JSONL trace file (side B)")
    diff.add_argument("--label-a", default="A", help="display name of side A")
    diff.add_argument("--label-b", default="B", help="display name of side B")
    diff.add_argument(
        "--limit",
        type=int,
        default=10,
        help="max divergent cells to print (default 10)",
    )
    attrib = obs_commands.add_parser(
        "attrib",
        help="fold a trace into per-walk phase breakdowns "
        "(probe/descent/hop/retry/slack) that sum exactly to each "
        "walk's access time; exit 1 if any walk violates exactness",
    )
    attrib.add_argument("trace", help="JSONL trace file")
    attrib.add_argument(
        "--slowest",
        type=int,
        default=5,
        help="how many of the slowest walks to break down individually "
        "(0 = none; default 5)",
    )
    spans = obs_commands.add_parser(
        "spans",
        help="reconstruct causal span trees from a trace (replan -> "
        "store publish -> station cutover -> walk segments) and "
        "reconcile segment durations against the attribution layer; "
        "exit 1 on a containment or reconciliation violation",
    )
    spans.add_argument("trace", help="JSONL trace file")
    spans.add_argument(
        "--trace-id",
        type=lambda v: int(v, 0),
        default=None,
        help="show one trace only (decimal or 0x-hex id)",
    )
    spans.add_argument(
        "--limit",
        type=int,
        default=20,
        help="max walk reconciliation rows to print (0 = all; "
        "default 20)",
    )
    postmortem = obs_commands.add_parser(
        "postmortem",
        help="print a flight-recorder bundle: the causal span chain "
        "ending at the trigger, plus each component ring's summary",
    )
    postmortem.add_argument("bundle", help="postmortem-*.json bundle file")
    postmortem.add_argument(
        "--tree",
        action="store_true",
        help="also print the bundle's full span trees",
    )
    sensitivity = commands.add_parser(
        "sensitivity", help="fanout and skew sensitivity sweeps"
    )
    sensitivity.add_argument("--catalog", type=int, default=12)
    sensitivity.add_argument("--trials", type=int, default=8)

    solve_cmd = commands.add_parser(
        "solve", help="allocate a user-supplied index tree (JSON)"
    )
    solve_cmd.add_argument(
        "--input",
        required=True,
        help="path to a broadcast-alloc/tree JSON document",
    )
    solve_cmd.add_argument("--channels", type=int, default=1)
    solve_cmd.add_argument(
        "--planner",
        default="budgeted",
        help="repro.planners registry name of the allocation strategy "
        "(default 'budgeted': exact within --budget, sorting beyond)",
    )
    solve_cmd.add_argument(
        "--budget",
        type=int,
        default=500_000,
        help="exact-search state budget before the sorting heuristic "
        "takes over (only meaningful for the 'budgeted' planner)",
    )
    solve_cmd.add_argument(
        "--output",
        default=None,
        help="optional path to write the solved schedule JSON to",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rng = np.random.default_rng(args.seed)

    if args.command == "demo":
        tree = paper_example_tree()
        print("Fig. 1 index tree:")
        print(tree.to_ascii())
        for k in range(1, args.channels + 1):
            result = solve(tree, channels=k)
            print(
                f"\n{k} channel(s): optimal data wait = {result.cost:.4f} "
                f"(method: {result.method})"
            )
            print(result.schedule.to_ascii())
        return 0

    if args.command == "table1":
        fanouts = tuple(range(2, args.max_fanout + 1))
        report = run_table1(
            fanouts=fanouts, seed=args.seed, max_enum_p12=args.max_enum_p12
        )
        print(format_table1(report))
        return 0

    if args.command == "fig14":
        print(format_fig14(run_fig14(trials=args.trials, seed=args.seed)))
        return 0

    if args.command == "compare":
        results = [
            compare_methods(
                rng, workload, data_count=args.data_count, trials=args.trials
            )
            for workload in ("zipf", "normal")
        ]
        print(format_method_comparison(results))
        return 0

    if args.command == "channels":
        print(format_channel_scaling(channel_scaling(rng, fanout=args.fanout)))
        return 0

    if args.command == "ablation":
        print(format_pruning_ablation(pruning_ablation(rng)))
        return 0

    if args.command == "bench":
        from .bench import format_bench, run_bench, write_bench_json

        if args.repeats < 1:
            print("error: --repeats must be >= 1", file=sys.stderr)
            return 2
        if args.json_path:
            record = write_bench_json(args.json_path, repeats=args.repeats)
        else:
            record = run_bench(repeats=args.repeats)
        print(format_bench(record))
        if args.json_path:
            print(f"perf record written to {args.json_path}")
        checks = record["aggregate"]["checks"]
        return 0 if all(checks.values()) else 1

    if args.command == "solve":
        import json

        from .broadcast.metrics import (
            expected_access_time,
            expected_tuning_time,
        )
        from .io.json_io import save_schedule, tree_from_dict
        from .planners import plan

        with open(args.input) as handle:
            tree = tree_from_dict(json.load(handle))
        options = (
            {"budget": args.budget} if args.planner == "budgeted" else {}
        )
        result = plan(
            tree, args.channels, method=args.planner, **options
        )
        schedule = result.schedule
        fell_back = result.stats.get("fell_back")
        note = ""
        if fell_back is True:
            note = f" (exact search exceeded {args.budget} states)"
        elif fell_back is False:
            note = " (exact)"
        print(f"method: {result.method}{note}")
        print(schedule.to_ascii())
        print(f"data wait            = {schedule.data_wait():.4f} slots")
        print(f"expected access time = {expected_access_time(schedule):.4f}")
        print(f"expected tuning time = {expected_tuning_time(schedule):.4f}")
        if args.output:
            save_schedule(schedule, args.output)
            print(f"schedule written to {args.output}")
        return 0

    if args.command == "faults":
        from .analysis.faults_sweep import (
            format_fault_sweep,
            run_fault_sweep,
        )
        from .client.protocol import RecoveryPolicy

        methods = tuple(
            name.strip() for name in args.planners.split(",") if name.strip()
        )
        losses = tuple(
            float(token)
            for token in args.losses.split(",")
            if token.strip()
        )
        if 0.0 not in losses:
            losses = (0.0, *losses)
        report = run_fault_sweep(
            methods=methods,
            losses=losses,
            channels=args.channels,
            requests=args.requests,
            seed=args.seed,
            corruption=args.corruption,
            burst=args.burst,
            policy=RecoveryPolicy(
                mode=args.policy, max_cycles=args.max_cycles
            ),
        )
        print(format_fault_sweep(report))
        if args.json_path:
            from .io.json_io import write_json_record

            write_json_record(args.json_path, report.to_dict())
            print(f"sweep record written to {args.json_path}")
        if not report.differential_ok:
            print(
                "error: loss=0 recovery does not reproduce the lossless "
                "protocol",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.command == "bench-server":
        from .server.bench import (
            format_server_bench,
            run_server_bench,
            write_server_bench_json,
        )

        if args.json_path:
            record = write_server_bench_json(args.json_path)
        else:
            record = run_server_bench()
        print(format_server_bench(record))
        if args.json_path:
            print(f"perf record written to {args.json_path}")
        checks = record["aggregate"]["checks"]
        return 0 if all(checks.values()) else 1

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "tune":
        return _cmd_tune(args)

    if args.command == "loadtest":
        if args.engine == "batch":
            return _cmd_loadtest_batch(args)
        return _cmd_loadtest(args)

    if args.command == "cluster":
        return _cmd_cluster(args)

    if args.command == "approx":
        return _cmd_approx(args)

    if args.command == "sched":
        return _cmd_sched(args)

    if args.command == "engine":
        return _cmd_engine(args)

    if args.command == "obs":
        return _cmd_obs(args)

    if args.command == "sensitivity":
        from .analysis.sensitivity import (
            fanout_sensitivity,
            format_fanout_sensitivity,
            format_skew_sensitivity,
            skew_sensitivity,
        )
        from .workloads.catalogs import stock_catalog

        items = stock_catalog(rng, count=args.catalog)
        print(format_fanout_sensitivity(fanout_sensitivity(items)))
        print()
        print(
            format_skew_sensitivity(
                skew_sensitivity(rng, trials=args.trials)
            )
        )
        return 0

    if args.command == "spaces":
        from .core.problem import AllocationProblem
        from .core.render import render_data_tree, render_topological_tree

        tree = paper_example_tree()
        print(
            f"Reduced {args.channels}-channel topological tree of the "
            "Fig. 1 example:"
        )
        print(
            render_topological_tree(AllocationProblem(tree, args.channels))
        )
        print("\nData tree with Property 4 marks (x = pruned), Fig. 12 style:")
        print(
            render_data_tree(AllocationProblem(tree, 1), annotate=True)
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------
# repro.net commands
# ---------------------------------------------------------------------------

def _net_faults(args):
    """FaultConfig from --loss/--corruption flags, or None for clean air."""
    if args.loss == 0.0 and args.corruption == 0.0:
        return None
    from .faults import FaultConfig

    return FaultConfig(
        loss=args.loss, corruption=args.corruption, seed=args.seed
    )


def _net_policy(mode: str | None, max_cycles: int):
    if mode is None:
        return None
    from .client.protocol import RecoveryPolicy

    return RecoveryPolicy(mode=mode, max_cycles=max_cycles)


def _cmd_serve(args) -> int:
    import asyncio

    from .broadcast.pointers import compile_program
    from .net import BroadcastStation, build_demo_plan
    from .perf import PerfRecorder

    perf = PerfRecorder()
    store = None
    version = 0
    if args.store_dir:
        from .sched import ScheduleStore

        store = ScheduleStore(args.store_dir, perf=perf)
        head = store.head
        if head is None:
            plan = build_demo_plan(
                items=args.items,
                channels=args.channels,
                fanout=args.fanout,
                planner=args.planner,
                seed=args.seed,
            )
            head = store.publish(plan, note="initial plan (serve)")
            print(f"store seeded: version 1 published to {args.store_dir}")
        else:
            plan = store.load(head.version)
            print(
                f"store head: version {head.version} "
                f"({head.note or 'no note'})"
            )
        version = head.version
        program = compile_program(plan.schedule)
    else:
        plan = build_demo_plan(
            items=args.items,
            channels=args.channels,
            fanout=args.fanout,
            planner=args.planner,
            seed=args.seed,
        )
        program = compile_program(plan.schedule)
    station = BroadcastStation(
        program,
        faults=_net_faults(args),
        slot_duration=args.slot_duration,
        host=args.host,
        port=args.port,
        transport=args.transport,
        perf=perf,
        schedule_version=version,
    )

    async def follow_store() -> None:
        # The log is re-read from disk on every head access, so a
        # version published by another process — a replan, or a
        # ``sched rollback`` from another shell — shows up here and is
        # put on air at the station's next cycle boundary. Walks in
        # flight see the version stamp change and restart from the
        # root; none are dropped.
        while True:
            await asyncio.sleep(max(args.poll_interval, 0.05))
            head = store.head
            if head is None or head.version <= station.version:
                continue
            result = store.load(head.version)
            slot = station.publish(
                compile_program(result.schedule), version=head.version
            )
            print(
                f"cutover: version {head.version} "
                f"({head.note or 'no note'}) activates at slot {slot}"
            )

    async def air_forever() -> None:
        async with station:
            print(
                f"airing {args.channels} channel(s), cycle length "
                f"{program.cycle_length}, on {args.transport}://"
                f"{station.host}:{station.port} (Ctrl-C to stop)"
            )
            follower = (
                asyncio.ensure_future(follow_store())
                if store is not None
                else None
            )
            try:
                if args.metrics_port is not None:
                    from .obs import (
                        MetricsRegistry,
                        ObsHttpServer,
                        declare_perf_baseline,
                    )

                    registry = MetricsRegistry()
                    declare_perf_baseline(registry)

                    def health() -> dict:
                        return {
                            "status": "ok",
                            "transport": args.transport,
                            "channels": station.channels,
                            "cycle_length": station.cycle_length,
                            "station_port": station.port,
                            "schedule_version": station.version,
                        }

                    async with ObsHttpServer(
                        registry,
                        collect=lambda reg: reg.absorb_perf(perf),
                        health=health,
                        host=args.host,
                        port=args.metrics_port,
                    ) as metrics:
                        print(
                            "metrics on http://"
                            f"{args.host}:{metrics.port}/metrics"
                        )
                        await asyncio.Event().wait()
                else:
                    await asyncio.Event().wait()
            finally:
                # Teardown order matters: the poller must stop and the
                # store snapshot must be on disk *before* the station's
                # async-with closes the sockets — an operator's Ctrl-C
                # leaves the store restorable, never mid-write.
                if follower is not None:
                    follower.cancel()
                if store is not None:
                    _flush_serve_state(store, station, perf)

    try:
        asyncio.run(air_forever())
    except KeyboardInterrupt:
        # The operator's Ctrl-C: asyncio.run has already cancelled the
        # serving tasks and run the station's async-with teardown (the
        # finally above flushed the store first), so sockets are closed
        # — print the counters and exit cleanly.
        pass
    except OSError as error:
        # Bind failure (port already in use, bad address): a usage
        # error the operator can fix, not a traceback.
        print(f"error: cannot serve: {error}", file=sys.stderr)
        return 1
    counters = perf.snapshot().get("counters", {})
    print("station stopped; stats flushed:")
    for name in sorted(counters):
        if name.startswith(("net.station.", "sched.")):
            print(f"  {name} = {counters[name]}")
    return 0


def _flush_serve_state(store, station, perf) -> None:
    """Persist the serving snapshot (version + counters) to the store."""
    counters = perf.snapshot().get("counters", {})
    store.save_state(
        {
            "serving_version": station.version,
            "frames_sent": counters.get("net.station.frames_sent", 0),
            "cycles_aired": counters.get("net.station.cycles", 0),
            "publishes": counters.get("sched.publishes", 0),
        }
    )


def _cmd_tune(args) -> int:
    import asyncio

    from .exceptions import ReproError
    from .net import TunerClient

    async def one_walk():
        async with TunerClient(
            args.host,
            args.port,
            policy=_net_policy(args.policy, args.max_cycles),
        ) as tuner:
            return await tuner.fetch(args.key, args.tune_slot)

    try:
        result = asyncio.run(one_walk())
    except OSError as error:
        print(
            f"error: cannot reach station at {args.host}:{args.port}: "
            f"{error}",
            file=sys.stderr,
        )
        return 1
    except ReproError as error:
        # Protocol violations and failed lookups: report, don't crash.
        print(f"error: {error}", file=sys.stderr)
        return 1
    if result.abandoned:
        print(
            f"abandoned after {result.cycles_spent} cycle(s): "
            f"{result.lost_buckets} lost, {result.corrupt_buckets} corrupt"
        )
        return 1
    print(f"key              = {result.key}")
    print(f"payload          = {result.payload[:40]!r}")
    print(f"access time      = {result.access_time} slots")
    print(f"tuning time      = {result.tuning_time} buckets")
    print(f"channel switches = {result.channel_switches}")
    if result.retries:
        print(
            f"recovered        = {result.lost_buckets} lost + "
            f"{result.corrupt_buckets} corrupt via {result.retries} retries"
        )
    return 0


def _cmd_engine(args) -> int:
    from .engine import format_engine_bench, run_engine_bench
    from .io.json_io import write_json_record

    if args.engine_command == "bench":
        if args.repeats < 1 or args.walks < 1:
            print(
                "error: --walks and --repeats must be >= 1", file=sys.stderr
            )
            return 2
        record = run_engine_bench(
            items=args.items,
            channels=args.channels,
            fanout=args.fanout,
            planner=args.planner,
            walks=args.walks,
            sample=args.sample,
            loss=args.loss,
            corruption=args.corruption,
            seed=args.seed,
            repeats=args.repeats,
        )
        if args.json_path:
            write_json_record(args.json_path, record)
        print(format_engine_bench(record))
        if args.json_path:
            print(f"perf record written to {args.json_path}")
        checks = record["aggregate"]["checks"]
        if not all(checks.values()):
            failed = [name for name, ok in checks.items() if not ok]
            print(
                f"error: engine bench checks failed: {', '.join(failed)}",
                file=sys.stderr,
            )
            return 1
        return 0
    raise AssertionError(f"unhandled engine command {args.engine_command}")


def _cmd_loadtest_batch(args) -> int:
    """``loadtest --engine batch``: the trace, minus the sockets.

    Runs the *identical* seeded request trace the fleet would run, but
    through :func:`repro.engine.run_batch` in-process. ``--check-parity``
    replays every walk through the scalar protocol (lossless or
    recovering, matching the air) and requires record-for-record
    equality — unlike the fleet, parity here works under faults too,
    because both sides draw from the same seeded outcome streams.
    """
    from time import perf_counter

    from .client.protocol import object_walk, recovering_walk
    from .engine import compile_dense, run_batch
    from .io.json_io import write_json_record
    from .net import build_demo_program, make_request_trace

    program = build_demo_program(
        items=args.items,
        channels=args.channels,
        fanout=args.fanout,
        planner=args.planner,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    trace = make_request_trace(program, args.tuners, rng)
    dense = compile_dense(program)
    ids = np.array([dense.data_index(key) for key, _ in trace])
    slots = np.array([slot for _, slot in trace])
    faults = _net_faults(args)
    policy = _net_policy(args.policy, args.max_cycles)

    started = perf_counter()
    batch = run_batch(
        dense,
        ids,
        slots,
        faults=faults,
        recovery=policy if faults is not None else None,
    )
    seconds = perf_counter() - started
    walks_per_second = len(batch) / seconds if seconds > 0 else 0.0
    summary = batch.summarise()

    parity_exact = None
    if args.check_parity:
        leaves = program.schedule.tree.data_nodes()
        records = batch.to_records()
        if faults is None:
            scalar = [
                object_walk(program, leaves[int(d)], int(s))
                for d, s in zip(ids, slots)
            ]
        else:
            scalar = [
                recovering_walk(
                    program, leaves[int(d)], int(s),
                    faults=faults, policy=policy,
                )
                for d, s in zip(ids, slots)
            ]
        parity_exact = records == scalar

    abandoned = getattr(summary, "abandoned", 0)
    print(
        f"{len(batch)} walks (batch engine): "
        f"{len(batch) - abandoned} completed, {abandoned} abandoned "
        f"in {seconds:.4f}s ({walks_per_second:.0f} walks/s)"
    )
    print(
        f"access time  mean {summary.mean_access_time:.3f}   "
        f"tuning time  mean {summary.mean_tuning_time:.3f}"
    )
    if faults is not None:
        print(
            f"faults: {summary.lost_buckets} lost, "
            f"{summary.corrupt_buckets} corrupt, {summary.retries} retries"
        )
    if parity_exact is not None:
        print(
            "parity vs scalar protocol: "
            + ("EXACT" if parity_exact else "MISMATCH")
        )
    if args.json_path:
        checks = {}
        if parity_exact is not None:
            checks["parity_exact"] = parity_exact
        record = {
            "suite": "engine-loadtest",
            "config": {
                "items": args.items,
                "channels": args.channels,
                "fanout": args.fanout,
                "planner": args.planner,
                "tuners": args.tuners,
                "loss": args.loss,
                "corruption": args.corruption,
                "policy": args.policy,
                "max_cycles": args.max_cycles,
                "check_parity": args.check_parity,
                "seed": args.seed,
            },
            "result": {
                "walks": len(batch),
                "abandoned": abandoned,
                "seconds": seconds,
                "walks_per_second": walks_per_second,
            },
            "aggregate": {
                "mean_access_time": summary.mean_access_time,
                "mean_tuning_time": summary.mean_tuning_time,
                "walks_per_second": walks_per_second,
                "checks": checks,
            },
        }
        write_json_record(args.json_path, record)
        print(f"loadtest record written to {args.json_path}")
    if parity_exact is False:
        print(
            "error: batch engine does not reproduce the scalar protocol",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_loadtest(args) -> int:
    import asyncio

    from .exceptions import ReproError
    from .net import (
        build_demo_program,
        make_request_trace,
        run_loadtest,
        trace_simulator,
        write_loadtest_json,
    )

    faults = _net_faults(args)
    if args.check_parity and faults is not None:
        print(
            "error: --check-parity requires lossless air "
            "(drop --loss/--corruption)",
            file=sys.stderr,
        )
        return 2
    program = build_demo_program(
        items=args.items,
        channels=args.channels,
        fanout=args.fanout,
        planner=args.planner,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    trace = None
    tracer = None
    if args.trace_prefix:
        from .obs.events import JsonlTracer

        # Pre-draw the request trace from the same generator state the
        # harness would have used, so measured numbers are unchanged by
        # tracing; the identical trace then feeds the simulator replay.
        trace = make_request_trace(program, args.tuners, rng)
        tracer = JsonlTracer(f"{args.trace_prefix}.live.jsonl")
    try:
        report = asyncio.run(
            run_loadtest(
                program,
                tuners=args.tuners,
                rng=rng,
                trace=trace,
                faults=faults,
                policy=_net_policy(args.policy, args.max_cycles),
                slot_duration=args.slot_duration,
                arrival_rate=args.arrival_rate,
                max_open=args.max_open,
                check_parity=args.check_parity,
                tracer=tracer,
            )
        )
    except OSError as error:
        # A station that died (or never bound) mid-run is an
        # operational failure, not a stack trace — same contract as
        # `tune` against an unreachable station.
        print(f"error: station unreachable mid-run: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
    if args.trace_prefix:
        from .obs.events import JsonlTracer

        with JsonlTracer(f"{args.trace_prefix}.sim.jsonl") as sim_tracer:
            trace_simulator(program, trace, tracer=sim_tracer)
        print(f"live trace written to {args.trace_prefix}.live.jsonl")
        print(f"simulator trace written to {args.trace_prefix}.sim.jsonl")
    print(
        f"{report.tuners} tuners: {report.completed} completed, "
        f"{report.abandoned} abandoned in {report.wall_seconds:.2f}s "
        f"({report.walks_per_second:.0f} walks/s)"
    )
    print(
        f"access time  mean {report.mean_access_time:.3f}  "
        f"p50 {report.access_percentiles['p50']:.0f}  "
        f"p90 {report.access_percentiles['p90']:.0f}  "
        f"p99 {report.access_percentiles['p99']:.0f}  "
        f"max {report.access_percentiles['max']:.0f}"
    )
    print(
        f"tuning time  mean {report.mean_tuning_time:.3f}  "
        f"p50 {report.tuning_percentiles['p50']:.0f}  "
        f"p90 {report.tuning_percentiles['p90']:.0f}  "
        f"p99 {report.tuning_percentiles['p99']:.0f}  "
        f"max {report.tuning_percentiles['max']:.0f}"
    )
    print(
        f"frames: {report.frames_answered} aired, {report.frames_read} "
        f"read, {report.unaccounted_frames} unaccounted"
    )
    if faults is not None:
        print(
            f"faults: {report.lost_buckets} lost, "
            f"{report.corrupt_buckets} corrupt, {report.retries} retries"
        )
    if report.parity is not None:
        verdict = "EXACT" if report.parity["exact_match"] else "MISMATCH"
        print(
            f"parity vs simulator: {verdict} "
            f"(fleet access {report.parity['fleet_mean_access_time']:.4f} "
            f"vs {report.parity['simulator_mean_access_time']:.4f}, "
            f"tuning {report.parity['fleet_mean_tuning_time']:.4f} "
            f"vs {report.parity['simulator_mean_tuning_time']:.4f})"
        )
    if args.json_path:
        config = {
            "items": args.items,
            "channels": args.channels,
            "fanout": args.fanout,
            "planner": args.planner,
            "tuners": args.tuners,
            "arrival_rate": args.arrival_rate,
            "max_open": args.max_open,
            "slot_duration": args.slot_duration,
            "loss": args.loss,
            "corruption": args.corruption,
            "check_parity": args.check_parity,
            "seed": args.seed,
        }
        write_loadtest_json(args.json_path, report, config)
        print(f"loadtest record written to {args.json_path}")
    ok = report.accounting_ok and report.parity_ok
    if not report.accounting_ok:
        print(
            f"error: {report.unaccounted_frames} unaccounted frames",
            file=sys.stderr,
        )
    if not report.parity_ok:
        print(
            "error: socket fleet does not reproduce the in-process "
            "simulator",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _cluster_catalog(items: int, seed: int) -> list[tuple[str, float]]:
    """The demo catalog every cluster subcommand shares.

    Same shape as :func:`repro.net.harness.build_demo_program`'s input
    (Zipf-weighted ``K%03d`` keys), so a 1-shard cluster airs the same
    catalog the single-station commands do.
    """
    from .workloads.weights import zipf_weights

    rng = np.random.default_rng(seed)
    labels = [f"K{index:03d}" for index in range(items)]
    return list(zip(labels, (float(w) for w in zipf_weights(rng, items))))


def _build_cluster(args, shards: int):
    from .cluster import StationCluster

    return StationCluster(
        _cluster_catalog(args.items, args.seed),
        shards,
        partitioner=args.partitioner,
        planner=args.planner,
        channels=args.channels,
        fanout=args.fanout,
        seed=args.seed,
    )


def _print_cluster_table(cluster) -> None:
    header = (
        f"{'shard':>5} {'keys':>5} {'load':>10} {'cycle':>6} "
        f"{'plan cost':>10} {'measured':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in cluster.shard_rows():
        measured = (
            f"{row['measured_cost']:.3f}"
            if row["measured_cost"] is not None
            else "-"
        )
        print(
            f"{row['shard']:>5} {row['keys']:>5} {row['load']:>10.3f} "
            f"{row['cycle_length']:>6} {row['planner_cost']:>10.4f} "
            f"{measured:>9}"
        )


def _cmd_cluster(args) -> int:
    if args.cluster_command == "plan":
        return _cmd_cluster_plan(args)
    if args.cluster_command == "serve":
        return _cmd_cluster_serve(args)
    if args.cluster_command == "loadtest":
        return _cmd_cluster_loadtest(args)
    raise AssertionError(
        f"unhandled cluster command {args.cluster_command!r}"
    )


def _cmd_cluster_plan(args) -> int:
    from .exceptions import ReproError

    try:
        cluster = _build_cluster(args, args.shards)
        if args.refit_rounds > 0:
            report = cluster.refit(max_rounds=args.refit_rounds)
        else:
            report = None
            cluster.measure()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"{args.shards} shard(s), partitioner {args.partitioner!r}, "
        f"planner {args.planner!r}"
    )
    _print_cluster_table(cluster)
    print(f"aggregate expected access time = {cluster.aggregate_cost():.4f}")
    if report is not None:
        print(
            f"refit: {report.initial:.4f} -> {report.final:.4f} over "
            f"{len(report.rounds)} round(s), {cluster.router.moves} key "
            "move(s)"
        )
        for round_ in report.rounds:
            verdict = "accepted" if round_.accepted else "reverted"
            print(
                f"  moved {len(round_.moved)} key(s) shard "
                f"{round_.from_shard} -> {round_.to_shard}: "
                f"{round_.before:.4f} -> {round_.after:.4f} ({verdict})"
            )
    return 0


def _cmd_cluster_serve(args) -> int:
    import asyncio

    from .cluster import serve_cluster
    from .exceptions import ReproError

    try:
        cluster = _build_cluster(args, args.shards)
        if args.refit_rounds > 0:
            cluster.refit(max_rounds=args.refit_rounds)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    async def air_forever() -> None:
        async with serve_cluster(
            cluster,
            host=args.host,
            slot_duration=args.slot_duration,
        ):
            for shard in range(cluster.shards):
                host, port = cluster.endpoints[shard]
                plan = cluster.plans[shard]
                print(
                    f"shard {shard}: {len(plan.keys)} keys, cycle "
                    f"{plan.cycle_length}, on tcp://{host}:{port}"
                )
            print("cluster up (Ctrl-C to stop)")
            await asyncio.Event().wait()

    try:
        asyncio.run(air_forever())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(f"error: cannot serve cluster: {error}", file=sys.stderr)
        return 1
    print("cluster stopped")
    return 0


def _cmd_cluster_loadtest(args) -> int:
    from .cluster import run_cluster_sweep, write_cluster_bench_json
    from .exceptions import ReproError

    if args.sweep:
        try:
            counts = [
                int(token)
                for token in args.sweep.split(",")
                if token.strip()
            ]
        except ValueError:
            print(
                f"error: --sweep must be comma-separated shard counts, "
                f"got {args.sweep!r}",
                file=sys.stderr,
            )
            return 2
    else:
        counts = [args.shards]
    try:
        results = run_cluster_sweep(
            _cluster_catalog(args.items, args.seed),
            counts,
            tuners=args.tuners,
            partitioner=args.partitioner,
            planner=args.planner,
            channels=args.channels,
            fanout=args.fanout,
            seed=args.seed,
            refit_rounds=args.refit_rounds,
            slot_duration=args.slot_duration,
            arrival_rate=args.arrival_rate,
            max_open=args.max_open,
            check_parity=args.check_parity,
        )
    except OSError as error:
        # One unreachable/dead shard station fails the whole run with
        # a one-line verdict, mirroring `tune`/`loadtest`.
        print(f"error: shard unreachable mid-run: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for count, report in sorted(results.items()):
        unaccounted = sum(
            shard["unaccounted_frames"]
            for shard in report.per_shard.values()
        )
        print(
            f"{count} shard(s): {report.completed} completed, "
            f"{report.abandoned} abandoned in {report.wall_seconds:.2f}s "
            f"({report.aggregate_walks_per_second:.0f} walks/s aggregate, "
            f"mean access {report.mean_access_time:.3f}, "
            f"{unaccounted} unaccounted frames)"
        )
    record = None
    config = {
        "items": args.items,
        "channels": args.channels,
        "fanout": args.fanout,
        "planner": args.planner,
        "partitioner": args.partitioner,
        "shard_counts": counts,
        "tuners": args.tuners,
        "refit_rounds": args.refit_rounds,
        "arrival_rate": args.arrival_rate,
        "max_open": args.max_open,
        "slot_duration": args.slot_duration,
        "check_parity": args.check_parity,
        "seed": args.seed,
    }
    if args.json_path:
        record = write_cluster_bench_json(args.json_path, results, config)
        print(f"cluster record written to {args.json_path}")
    else:
        record = write_cluster_bench_json(
            "/dev/null", results, config
        )
    speedups = record["aggregate"]["speedups"]
    for count, speedup in sorted(speedups.items(), key=lambda kv: int(kv[0])):
        print(f"speedup at {count} shards vs 1: {speedup:.2f}x")
    checks = record["aggregate"]["checks"]
    failed = sorted(name for name, ok in checks.items() if not ok)
    for name in failed:
        print(f"error: cluster check failed: {name}", file=sys.stderr)
    return 0 if not failed else 1


def _approx_catalog(
    items: int, theta: float, seed: int
) -> tuple[list[str], list[float]]:
    """A sorted synthetic catalog with Zipf weights, like the bench uses."""
    import numpy as np

    from .workloads.weights import zipf_weights

    rng = np.random.default_rng(seed + items)
    width = max(7, len(str(items)))
    labels = [f"d{i:0{width}d}" for i in range(items)]
    weights = [float(w) for w in zipf_weights(rng, items, theta=theta)]
    return labels, weights


def _cmd_approx(args) -> int:
    if args.approx_command == "plan":
        return _cmd_approx_plan(args)
    if args.approx_command == "frontier":
        return _cmd_approx_frontier(args)
    if args.approx_command == "explain":
        return _cmd_approx_explain(args)
    raise AssertionError(
        f"unhandled approx command {args.approx_command!r}"
    )


def _cmd_approx_plan(args) -> int:
    import time

    from .exceptions import ReproError
    from .perf import PerfRecorder
    from .planners import plan_catalog

    labels, weights = _approx_catalog(args.items, args.theta, args.seed)
    perf = PerfRecorder()
    started = time.perf_counter()
    try:
        result = plan_catalog(
            labels,
            weights,
            args.channels,
            method=args.method,
            fanout=args.fanout,
            perf=perf,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(
        f"{args.items} item(s), {args.channels} channel(s), "
        f"Zipf theta={args.theta}, planner {result.method!r}"
    )
    print(f"data_wait = {result.cost:.4f} ({elapsed:.2f}s)")
    stats = result.stats or {}
    if "quality_bound" in stats:
        print(
            f"a-priori bound = {stats['quality_bound']:.4f} "
            f"(<= {stats['quality_ratio']:.2f}x the data-wait lower "
            f"bound {stats['lower_bound']:.4f})"
        )
        for group in stats["groups"]:
            print(
                f"  group: {group['items']} item(s) from "
                f"{len(group['classes'])} class(es) on {group['channels']} "
                f"channel(s), depth {group['depth']}, "
                f"{group['slots']} slot(s), weight {group['weight']:.1f}"
            )
    meta = stats.get("meta")
    if meta is not None:
        print(
            f"meta decision: {meta['method']!r} ({meta['reason']})"
            + (" [fallback]" if meta["fell_back"] else "")
        )
    return 0


def _cmd_approx_frontier(args) -> int:
    from .approx import run_frontier_bench
    from .io.json_io import write_json_record

    try:
        sizes = tuple(
            int(piece) for piece in args.sizes.split(",") if piece.strip()
        )
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 1
    if not sizes:
        print("error: --sizes must name at least one size", file=sys.stderr)
        return 1
    record = run_frontier_bench(
        sizes,
        channels=args.channels,
        fanout=args.fanout,
        theta=args.theta,
        seed=args.seed,
    )
    if args.json_path:
        write_json_record(args.json_path, record)
    header = (
        f"{'size':>9} {'planner':>8} {'data_wait':>12} "
        f"{'vs lower':>8} {'vs best':>8} {'plan s':>8}"
    )
    print(header)
    for key in sorted(record["result"], key=int):
        row = record["result"][key]
        for name in ("ptas", "sorting", "meta"):
            point = row["frontier"][name]
            print(
                f"{row['items']:>9} {name:>8} "
                f"{point['data_wait']:>12.2f} "
                f"{point['ratio_to_lower']:>8.2f} "
                f"{point['ratio_to_best']:>8.2f} "
                f"{point['plan_seconds']:>8.3f}"
            )
    if args.json_path:
        print(f"approx record written to {args.json_path}")
    checks = record["aggregate"]["checks"]
    failed = sorted(name for name, ok in checks.items() if not ok)
    for name in failed:
        print(f"error: approx check failed: {name}", file=sys.stderr)
    return 0 if not failed else 1


def _cmd_approx_explain(args) -> int:
    from .approx import decide, extract_features

    _, weights = _approx_catalog(args.items, args.theta, args.seed)
    features = extract_features(
        weights, args.channels, fanout=args.fanout
    )
    method, options, reason = decide(
        features, wire_safe=args.wire_safe
    )
    print(
        f"features: items={features.items} channels={features.channels} "
        f"fanout={features.fanout} gini={features.gini:.3f} "
        f"entropy={features.entropy:.3f}"
    )
    print(f"decision: {method!r}" + (f" {options}" if options else ""))
    print(f"reason: {reason}")
    if args.wire_safe:
        print("(restricted to wire-routable planners)")
    return 0


def _cmd_sched(args) -> int:
    if args.sched_command == "bench":
        return _cmd_sched_bench(args)
    if args.sched_command == "loadtest":
        return _cmd_sched_loadtest(args)

    from .exceptions import ReproError
    from .sched import ScheduleStore

    try:
        store = ScheduleStore(args.store_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        if args.sched_command == "log":
            return _cmd_sched_log(args, store)
        if args.sched_command == "show":
            return _cmd_sched_show(args, store)
        if args.sched_command == "diff":
            return _cmd_sched_diff(args, store)
        if args.sched_command == "rollback":
            return _cmd_sched_rollback(args, store)
        if args.sched_command == "gc":
            return _cmd_sched_gc(args, store)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled sched command {args.sched_command!r}")


def _cmd_sched_log(args, store) -> int:
    records = store.versions()
    if not records:
        print(f"store at {args.store_dir} is empty")
        return 0
    head = records[-1].version
    if args.limit > 0:
        records = records[-args.limit:]
    for record in records:
        marker = "*" if record.version == head else " "
        parent = f"<- v{record.parent}" if record.parent else "  root"
        print(
            f"{marker} v{record.version:<4} {record.kind:<8} "
            f"{record.content_id[:12]} {parent:<8} {record.note}"
        )
    print(f"{head} version(s), {store.size_bytes()} bytes on disk")
    return 0


def _cmd_sched_show(args, store) -> int:
    from .broadcast.metrics import expected_access_time

    head = store.head
    if head is None:
        print(f"error: store at {args.store_dir} is empty", file=sys.stderr)
        return 1
    record = store.record(
        args.version if args.version is not None else head.version
    )
    result = store.load(record.version)
    print(
        f"version {record.version} ({record.kind}, "
        f"content {record.content_id[:12]}): {record.note or 'no note'}"
    )
    print(f"method: {result.method}, planned cost: {result.cost:.4f}")
    print(result.schedule.to_ascii())
    print(f"data wait            = {result.schedule.data_wait():.4f} slots")
    print(
        f"expected access time = "
        f"{expected_access_time(result.schedule):.4f}"
    )
    return 0


def _cmd_sched_diff(args, store) -> int:
    import json

    from .sched import delta

    doc_from = store.doc(args.from_version)
    doc_to = store.doc(args.to_version)
    ops = delta(doc_from, doc_to)
    if not ops:
        print(
            f"versions {args.from_version} and {args.to_version} are "
            "content-identical"
        )
        return 0
    print(
        f"v{args.from_version} -> v{args.to_version}: {len(ops)} op(s)"
    )
    for op in ops:
        path = "/".join(str(part) for part in op["path"]) or "<root>"
        if op["op"] == "set":
            print(f"  set  {path} = {json.dumps(op['value'])}")
        elif op["op"] == "del":
            print(f"  del  {path}")
        elif op["op"] == "push":
            print(f"  push {path} += {json.dumps(op['values'])}")
        else:  # trim
            print(f"  trim {path} -> length {op['length']}")
    return 0


def _cmd_sched_rollback(args, store) -> int:
    record = store.rollback(args.to_version, note=args.note)
    print(
        f"rolled back to version {args.to_version}: published as "
        f"version {record.version} (content {record.content_id[:12]}, "
        "byte-identical by construction)"
    )
    print(
        "a station serving with --store picks this up at its next "
        "cycle boundary"
    )
    return 0


def _cmd_sched_gc(args, store) -> int:
    removed = store.gc()
    if removed:
        for object_id in removed:
            print(f"removed {object_id[:12]}")
    print(
        f"{len(removed)} unreferenced object(s) removed; "
        f"{store.size_bytes()} bytes remain"
    )
    return 0


def _cmd_sched_bench(args) -> int:
    from .io.json_io import write_json_record
    from .sched.harness import run_store_bench

    try:
        record = run_store_bench(
            versions=args.versions,
            items=args.items,
            channels=args.channels,
            fanout=args.fanout,
            seed=args.seed,
            snapshot_every=args.snapshot_every,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = record["result"]
    print(
        f"{result['versions_published']} version(s) "
        f"({result['snapshots']} snapshot(s), {result['deltas']} "
        f"delta(s)): publish {result['publish_ms_mean']:.2f} ms mean, "
        f"load {result['load_ms_mean']:.2f} ms mean, "
        f"rollback {result['rollback_ms']:.2f} ms"
    )
    print(
        f"store size {result['store_bytes_total']} bytes "
        f"({result['store_bytes_per_version']:.0f} bytes/version)"
    )
    if args.json_path:
        write_json_record(args.json_path, record)
        print(f"sched record written to {args.json_path}")
    return _sched_checks_verdict(record)


def _cmd_sched_loadtest(args) -> int:
    import asyncio
    from contextlib import ExitStack

    from .io.json_io import write_json_record
    from .sched.harness import run_cutover_loadtest

    try:
        with ExitStack() as stack:
            tracer = None
            if args.trace_path:
                from .obs.events import JsonlTracer

                tracer = stack.enter_context(JsonlTracer(args.trace_path))
            recorder = None
            if args.postmortem_dir:
                from .obs.recorder import FlightRecorder

                recorder = FlightRecorder(dump_dir=args.postmortem_dir)
            record = asyncio.run(
                run_cutover_loadtest(
                    tuners=args.tuners,
                    items=args.items,
                    channels=args.channels,
                    fanout=args.fanout,
                    seed=args.seed,
                    max_open=args.max_open,
                    tracer=tracer,
                    flight_recorder=recorder,
                )
            )
    except OSError as error:
        print(f"error: station unreachable mid-run: {error}", file=sys.stderr)
        return 1
    if args.trace_path:
        print(f"span trace written to {args.trace_path}")
    if recorder is not None and recorder.triggers:
        for trigger in recorder.triggers:
            print(
                f"postmortem dumped: {trigger.bundle or '(memory only)'} "
                f"({trigger.reason})",
                file=sys.stderr,
            )
    result = record["result"]
    print(
        f"{result['completed']} completed, {result['abandoned']} "
        f"abandoned in {result['wall_seconds']:.2f}s; "
        f"{result['cutovers']} cutover(s) ridden, "
        f"{result['unaccounted_frames']} unaccounted frame(s)"
    )
    print(
        f"store: {len(result['store']['versions'])} version(s), "
        f"{result['store']['verified_versions']} verified, "
        f"{result['store']['size_bytes']} bytes"
    )
    if args.json_path:
        write_json_record(args.json_path, record)
        print(f"sched record written to {args.json_path}")
    return _sched_checks_verdict(record)


def _sched_checks_verdict(record: dict) -> int:
    failed = sorted(
        name for name, ok in record["checks"].items() if not ok
    )
    for name in failed:
        print(f"error: sched check failed: {name}", file=sys.stderr)
    return 0 if not failed else 1


def _cmd_obs(args) -> int:
    from .obs import (
        diff_trace_files,
        format_diff,
        format_timeline,
        load_timeline,
    )

    # Exit codes are uniform across every obs subcommand: 0 clean,
    # 1 divergence/violation, 2 usage or I/O error.
    if args.obs_command == "timeline":
        try:
            timeline = load_timeline(args.trace)
        except OSError as error:
            print(f"error: cannot read trace: {error}", file=sys.stderr)
            return 2
        print(
            format_timeline(
                timeline, limit=args.limit, channel=args.channel
            )
        )
        return 0

    if args.obs_command == "diff":
        try:
            diff = diff_trace_files(args.trace_a, args.trace_b)
        except OSError as error:
            print(f"error: cannot read trace: {error}", file=sys.stderr)
            return 2
        print(
            format_diff(
                diff,
                label_a=args.label_a,
                label_b=args.label_b,
                limit=args.limit,
            )
        )
        return 0 if diff.identical else 1

    if args.obs_command == "attrib":
        return _cmd_obs_attrib(args)

    if args.obs_command == "spans":
        return _cmd_obs_spans(args)

    assert args.obs_command == "postmortem"
    return _cmd_obs_postmortem(args)


def _cmd_obs_spans(args) -> int:
    from .obs import (
        check_span_tree,
        format_span_tree,
        read_events,
        reconcile_with_attrib,
        span_tree,
    )

    try:
        events = list(read_events(args.trace))
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    roots = span_tree(events, trace_id=args.trace_id)
    if not roots:
        print(
            "error: trace holds no finished spans "
            "(was it recorded with 'sched loadtest --trace'?)",
            file=sys.stderr,
        )
        return 2
    per_walk, mismatches = reconcile_with_attrib(events)
    if args.trace_id is not None:
        # The reconciliation table follows the filter: keep only walks
        # whose segments belong to the requested trace.
        walks_in_trace = {
            dict(node.span.attrs).get("walk")
            for root in roots
            for node in root.walk()
            if "walk" in dict(node.span.attrs)
        }
        per_walk = {
            walk: info
            for walk, info in per_walk.items()
            if walk in walks_in_trace
        }
    if args.limit and len(per_walk) > args.limit:
        shown = dict(sorted(per_walk.items())[: args.limit])
        print(
            f"(showing {args.limit} of {len(per_walk)} walks; "
            "--limit 0 for all)"
        )
    else:
        shown = per_walk
    print(format_span_tree(roots, reconciliation=shown))
    violations = check_span_tree(roots)
    for problem in violations:
        print(f"error: {problem}", file=sys.stderr)
    for problem in mismatches:
        print(f"error: {problem}", file=sys.stderr)
    return 0 if not violations and not mismatches else 1


def _cmd_obs_postmortem(args) -> int:
    from .obs import format_postmortem, format_span_tree, load_bundle
    from .obs.recorder import bundle_span_tree

    try:
        bundle = load_bundle(args.bundle)
    except OSError as error:
        print(f"error: cannot read bundle: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_postmortem(bundle))
    if args.tree:
        roots = bundle_span_tree(bundle)
        if roots:
            print()
            print(format_span_tree(roots))
    return 0


def _cmd_obs_attrib(args) -> int:
    from .obs import (
        AttributionError,
        attribute_events,
        format_attribution,
        read_events,
    )

    try:
        attributions = attribute_events(read_events(args.trace))
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    except AttributionError as error:
        # A trace that breaks the additivity invariant is a divergence
        # in the measured data, not a usage problem.
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not attributions:
        print(
            "error: trace holds no finished walks to attribute "
            "(was it recorded with 'loadtest --trace'?)",
            file=sys.stderr,
        )
        return 2
    print(format_attribution(attributions, slowest=args.slowest))
    inexact = [a for a in attributions if not a.exact]
    if inexact:
        worst = inexact[0]
        print(
            f"error: {len(inexact)} walk(s) violate the exactness "
            f"invariant (first: walk {worst.walk} {worst.key!r}, phases "
            f"sum to {worst.total} but measured access time is "
            f"{worst.access_time})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
