"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload tune-in --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn with the same seed. Runs
a workload against the program under ``src/`` through public
calls only, checks that its outputs are correct, prints every metric
by name with unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced and then traced, and
reports the per-layer metrics: the traced run's layer numbers, its
reconciliation against wall time, and the tracing overhead as traced
over untraced for every end-to-end metric. A layer the workload does
not exercise reads 0. Spans are written to
``.perfbench/traces/<workload>-seed<seed>.jsonl``.

Exit status: 0 when every correctness gate passed, 1 when one failed,
2 when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "tune-in": "perfbench.tune_in",
    "adaptive-serve": "perfbench.adaptive_serve",
    "catalog": "perfbench.catalog",
}


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        spec = _load_spec()
    except (OSError, ValueError) as error:
        print(f"cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(_run(name, args, spec, workdir) for name in names)


def _run(name: str, args: argparse.Namespace, spec: dict,
         workdir: Path) -> int:
    """Measure one workload and print its result line; the exit status."""
    from perfbench.report import print_table, result_line
    from perfbench.tracing import Recorder

    workload = importlib.import_module(WORKLOADS[name])
    _freeze_heap()
    untraced = workload.measure(args.seed, args.seconds, workdir=workdir)
    print_table(f"{name} seed={args.seed} untraced", untraced)
    end_to_end = spec["end_to_end"]
    if not args.trace:
        metrics = {
            item["name"]: (_value(untraced, item["name"]), item["unit"])
            for item in end_to_end
        }
        print(result_line(untraced.correct, untraced.attempted,
                          untraced.failed, metrics))
        return 0 if untraced.correct else 1

    recorder = Recorder()
    _freeze_heap()
    traced = workload.measure(args.seed, args.seconds, recorder,
                              workdir=workdir)
    print_table(f"{name} seed={args.seed} traced", traced)
    if not traced.correct:
        print("per-layer metrics not computed: the traced run failed a gate")
        print(result_line(False, untraced.attempted + traced.attempted,
                          untraced.failed + traced.failed,
                          {item["name"]: (0.0, item["unit"])
                           for item in spec["per_layer"]}))
        return 1
    found = workload.layers(recorder, traced)
    rows = recorder.reconciliation()
    found["bench.reconcile_error"] = (rows["relative_error"], "ratio")
    found["bench.idle_share"] = (rows["idle_s"] / rows["wall_s"], "ratio")
    for item in end_to_end:
        name = item["name"]
        base = _value(untraced, name)
        found[f"trace.overhead.{name}"] = (
            _value(traced, name) / base if base else 0.0, "ratio"
        )
    declared = {item["name"]: item["unit"] for item in spec["per_layer"]}
    unknown = sorted(set(found) - set(declared))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    for name, (_, unit) in found.items():
        if declared[name] != unit:
            raise ValueError(f"{name}: unit {unit}, declared {declared[name]}")
    metrics = {
        name: (float(found[name][0]) if name in found else 0.0, unit)
        for name, unit in declared.items()
    }
    gates = getattr(workload, "trace_gates", lambda *_: [])(recorder, traced)
    gates.append((
        "self times plus idle reconcile with wall time",
        rows["ok"],
        f"error {rows['relative_error']:.2e} <= {rows['tolerance']:g}"
        + (f"; {rows['problems'][:3]}" if rows["problems"] else ""),
    ))
    _print_layers(rows, metrics, found, gates)
    recorder.write(
        workdir / "traces" / f"{name}-seed{args.seed}.jsonl",
        {"workload": name, "seed": args.seed, **rows},
    )
    correct = (
        untraced.correct and traced.correct and all(ok for _, ok, _ in gates)
    )
    print(result_line(correct, untraced.attempted + traced.attempted,
                      untraced.failed + traced.failed, metrics))
    return 0 if correct else 1


def _freeze_heap() -> None:
    """Move every object alive now out of the cyclic collector's reach.

    What is alive before a measurement (the interpreter, numpy, the
    program's modules, this harness) is never garbage, yet every full
    collection would scan it: tens of milliseconds that land on
    whichever walk triggers one. Frozen, a full collection scans only
    what the run itself created.
    """
    gc.collect()
    gc.freeze()


def _value(measurement, name: str) -> float:
    """A metric's value; 0 only when a failed gate left it unmeasured."""
    if name in measurement.metrics:
        return measurement.metrics[name].value
    if measurement.correct:
        raise KeyError(f"the workload did not measure {name}")
    return 0.0


def _print_layers(rows: dict, metrics: dict, found: dict, gates) -> None:
    print("per-layer (traced run)")
    for name, (value, unit) in metrics.items():
        mark = "" if name in found else "  (layer bypassed)"
        print(f"  {name:<34} {value:>14.6g} {unit}{mark}")
    print("reconciliation: self time per layer + idle = wall")
    for layer, seconds in rows["layers_s"].items():
        print(f"  {layer:<12} {seconds:>12.6f} s")
    print(f"  {'idle':<12} {rows['idle_s']:>12.6f} s")
    print(f"  {'sum':<12} {rows['sum_s']:>12.6f} s")
    print(f"  {'wall':<12} {rows['wall_s']:>12.6f} s")
    for name, seconds in rows["outside_roots_s"].items():
        print(f"  outside walks: {name} {seconds:.6f} s")
    for name, ok, detail in gates:
        print(f"  gate {name}: {'ok' if ok else 'FAILED'} {detail}")


if __name__ == "__main__":
    sys.exit(main())
