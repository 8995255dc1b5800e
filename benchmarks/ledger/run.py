"""The performance ledger: one benchmark, four workloads, every layer.

Three ways to run it (see README.md for every metric's definition):

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process -- the form the benchmark driver calls
    (``BENCHMARK.json``).  Prints every metric by name and unit, verifies
    the outputs, and ends with one JSON line.  ``--trace 0`` measures the
    end-to-end metrics untraced; ``--trace 1`` adds a ``cProfile`` +
    ``observe="metrics"`` unit and reports the per-layer metrics.

``python3 benchmarks/ledger/run.py [--seed N] [--repeats K] [--out F] [--quick]``
    The full ledger: every workload K times untraced in fresh
    subprocesses (round-robin, so machine drift spreads evenly), each
    once traced, a held-out-seed pass and a second-``PYTHONHASHSEED``
    determinism check; prints medians and quartiles, writes the JSON.

``python3 benchmarks/ledger/run.py --compare A.json B.json``
    Verdict per workload and end-to-end metric between two ledger files.

The benchmark imports only the public ``repro.*`` API and claims no gain:
it is the instrument later changes are judged with.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import compare
import layers
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "repro")

#: A unit whose wall clock exceeds its CPU time by more than this ratio
#: shared the core with something else.
DISTURBED_RATIO = 1.05
#: ``BENCHMARK.json`` run_seconds.
NOMINAL_SECONDS = 20
MIN_UNITS = 3
#: ``--seed`` offset of the held-out pass of the full ledger.
HELD_OUT_OFFSET = 1000
DETAIL_TAG = "LEDGER-DETAIL "
#: ``observe=`` of the traced unit: the metrics registry (for the
#: ``transport.sends_by_cause.*`` counters) without the simulated-time
#: sampler, whose own timer events would change ``net.simulator.events``
#: and with it the fingerprint the traced unit must share with the rest.
TRACED_OBSERVE = {"sampler": False}

OPEN_LOOP_NOTE = (
    "open loop in simulated time: arrivals are simulator events, so "
    "generator lateness is 0 by construction"
)


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` unless a number is already set.

    String hashing decides set iteration order and dict collisions; pinning
    it removes one source of run-to-run host-time noise and makes every run
    of a seed comparable.  The determinism check sets another number on
    purpose, which is why an explicit number is left alone.
    """
    if not os.environ.get("PYTHONHASHSEED", "").isdigit():
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _import_cases():
    """Import the workloads and, through them, every ``repro`` module they
    use; returns ``(module, seconds)`` -- the import share of ``setup_s``.

    Drops ``repro`` from ``sys.modules`` first, so every unit runs the
    module bodies again, the way a fresh process would; the standard
    library stays loaded.
    """
    for name in list(sys.modules):
        if name == "cases" or name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    started = time.perf_counter()
    cases = importlib.import_module("cases")
    return cases, time.perf_counter() - started


def _plan(case_cls, seconds: float, trace: bool, quick: bool):
    """``(units, scale)`` for one run: how many repeats ``--seconds`` buys.

    A deterministic function of the arguments, never of the clock, so a
    seed's simulated numbers repeat exactly on any host.  A traced run is
    one untraced unit (the counts, the baseline time) and one traced.
    """
    if quick:
        return (2 if trace else 1), case_cls.QUICK_SCALE
    units = max(MIN_UNITS, int(round(seconds / case_cls.UNIT_SECONDS)))
    return (2 if trace else units), 1.0


def _slices(started: float, stamps: List[float], ended: float) -> List[float]:
    """Durations between consecutive slice boundaries of one timed call."""
    edges = [started, *stamps, ended]
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


def measure_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, Any]:
    """Run one workload's units and derive every metric.

    A unit is a whole lifecycle -- import, build, timed run, collect -- so
    the set-up samples are spread over the run like the slices are.
    """
    workload_seed = spec.DEFAULT_SEEDS[name] + seed
    # This first import also loads the standard-library modules behind
    # ``repro``, which no unit's import sample should pay for.
    case_cls = _import_cases()[0].CASES[name]
    units, scale = _plan(case_cls, seconds, trace, quick)
    unit_rows: List[Dict[str, Any]] = []
    collected: List[Dict[str, Any]] = []
    profile = cProfile.Profile() if trace else None
    for index in range(units):
        traced = trace and index == units - 1
        gc.collect()
        cases, import_s = _import_cases()
        case = cases.CASES[name](workload_seed, scale)
        built_at = time.perf_counter()
        case.build(observe=TRACED_OBSERVE if traced else None)
        started = time.perf_counter()
        cpu_started = time.process_time()
        if traced:
            profile.enable()
        case.run()
        if traced:
            profile.disable()
        ended = time.perf_counter()
        run_s = ended - started
        cpu_s = time.process_time() - cpu_started
        unit_rows.append(
            {
                "import_s": import_s,
                "build_s": started - built_at,
                "run_s": run_s,
                "cpu_s": cpu_s,
                "traced": traced,
                "disturbed": run_s > DISTURBED_RATIO * cpu_s,
                "slices": _slices(started, case.stamps, ended),
            }
        )
        outcome = case.collect()
        outcome["fingerprint"] = cases.fingerprint(outcome)
        collected.append(outcome)
        del case

    first = collected[0]
    untraced_rows = [row for row in unit_rows if not row["traced"]]
    problems = [problem for outcome in collected for problem in outcome["problems"]]
    fingerprints = sorted({outcome["fingerprint"] for outcome in collected})
    if len(fingerprints) > 1:
        problems.append(
            "fingerprints differ between units of one run (the traced unit "
            f"included): {[value[:12] for value in fingerprints]}"
        )
    slice_counts = sorted({len(row["slices"]) for row in unit_rows})
    if len(slice_counts) > 1:
        problems.append(f"units of one run cut into {slice_counts} slices")
    correct = not problems
    # The run's time is the sum, slice by slice, of the fastest repeat: the
    # work is deterministic, so whatever a repeat adds to a slice is the
    # box's noise, and a slice only has to be quiet in one repeat.
    best_slices = [min(times) for times in zip(*(row["slices"] for row in untraced_rows))]
    run_s = sum(best_slices)
    sim = first["sim"]
    failed_share = first["failed"] / first["attempted"] if correct else 1.0
    metrics: Dict[str, Optional[float]] = {
        "setup_s": min(row["import_s"] for row in unit_rows)
        + min(row["build_s"] for row in unit_rows),
        "ops_per_s": first["ops"] / run_s,
        "msgs_per_delivery": sim["msgs_per_delivery"],
        "latency_p50_sim": sim.get("latency_p50_sim"),
        "latency_p99_sim": sim.get("latency_p99_sim"),
        "latency_samples": sim.get("latency_samples"),
        "view_change_sim": sim.get("view_change_sim"),
        "failover_gap_sim": sim.get("failover_gap_sim"),
        "split_sim": sim.get("split_sim"),
        "failed_ops_share": failed_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record: Dict[str, Any] = {
        "workload": name,
        "op": case_cls.op,
        "seed": seed,
        "workload_seed": workload_seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "run_s": run_s,
        "noise_ratio": statistics.median(row["run_s"] for row in untraced_rows) / run_s,
        "best_slices": best_slices,
        "units": unit_rows,
        "disturbed": sum(row["disturbed"] for row in untraced_rows) * 2 > len(untraced_rows),
        "ops": first["ops"],
        "attempted": first["attempted"],
        "failed": first["failed"] if correct else first["attempted"],
        "correct": correct,
        "problems": problems,
        "fingerprint": first["fingerprint"],
        "end_to_end": metrics,
        "open_loop": OPEN_LOOP_NOTE,
    }
    if trace:
        record["unresolved"] = layers.unresolved_layers(PACKAGE_DIR)
        record["per_layer"] = _per_layer_metrics(
            first["facts"], collected[-1].get("causes", {}), metrics, record, profile
        )
    return record


def _per_layer_metrics(
    facts, causes, end_to_end, record, profile
) -> Dict[str, Optional[float]]:
    """Every per-layer metric: profile shares of the traced unit, exact
    counts of the untraced one, and the end-to-end metrics that ride along."""
    unit_rows, unresolved = record["units"], record["unresolved"]
    untraced, traced = unit_rows[0], unit_rows[-1]
    spec_ms = sorted(1000.0 * seconds for seconds in record["best_slices"])
    if not facts.get("fuzz_specs"):
        spec_ms = [0.0]
    attribution = layers.attribute(profile, PACKAGE_DIR, HERE)
    total_s = attribution["total_s"] or 1.0
    out: Dict[str, Optional[float]] = {}
    for layer in spec.LAYERS:
        gone = layer in unresolved
        self_s = attribution["self_s"].get(layer, 0.0)
        out[f"{layer}.self_share"] = None if gone else self_s / total_s
        out[f"{layer}.self_s"] = None if gone else self_s
        out[f"{layer}.entry_calls"] = None if gone else attribution["entry_calls"].get(layer, 0)

    def fact(key: str) -> float:
        return facts.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    sends = fact("app_sends") + fact("null_sends")
    counts = {
        "net.simulator.events": fact("events"),
        "net.simulator.us_per_event": ratio(1e6 * record["run_s"], fact("events")),
        "net.simulator.peak_pending": fact("peak_pending"),
        "net.simulator.compactions": fact("compactions"),
        "net.network.msgs_sent": fact("msgs_sent"),
        "net.network.msgs_delivered": fact("msgs_delivered"),
        "net.network.msgs_dropped": fact("msgs_dropped"),
        "net.network.delivery_events": fact("delivery_events"),
        "net.network.msgs_per_delivery_event": ratio(
            fact("msgs_delivered"), fact("delivery_events")
        ),
        "net.transport.sends": fact("transport_sends"),
        "net.transport.sends_app": causes.get("sends_app", 0),
        "net.transport.sends_null": causes.get("sends_null", 0),
        "net.transport.sends_membership": causes.get("sends_membership", 0),
        "core.endpoint.app_sends": fact("app_sends"),
        "core.endpoint.null_sends": fact("null_sends"),
        "core.endpoint.receives": fact("receives"),
        "core.endpoint.blocked_sends": fact("blocked_sends"),
        "core.liveness.null_share": ratio(fact("null_sends"), sends),
        "core.liveness.suspicions": fact("suspicions"),
        "core.delivery.deliveries": fact("deliveries"),
        "core.delivery.receives_per_delivery": ratio(fact("receives"), fact("deliveries")),
        "core.membership.view_installs": fact("view_installs"),
        "core.membership.formations": fact("formations"),
        "net.trace.events": fact("trace_events"),
        "net.trace.events_stored": fact("trace_events_stored"),
        "net.trace.events_per_delivery": ratio(fact("trace_events"), fact("deliveries")),
        "analysis.online.violations": fact("violations"),
        "analysis.online.sink_errors": fact("sink_errors"),
        "workloads.offered": fact("offered"),
        "workloads.admitted": fact("admitted"),
        "workloads.blocked": fact("blocked"),
        "apps.kv.reads_done": fact("kv_reads_done"),
        "apps.kv.writes_done": fact("kv_writes_done"),
        "apps.kv.stale_refreshes": fact("kv_stale_refreshes"),
        "apps.kv.behind_retries": fact("kv_behind_retries"),
        "apps.kv.moved_retries": fact("kv_moved_retries"),
        "apps.kv.frozen_rejections": fact("kv_frozen_rejections"),
        "apps.kv.unavailable_rejections": fact("kv_unavailable_rejections"),
        "apps.kv.moved_keys": fact("kv_moved_keys"),
        "scenarios.fuzz.specs": fact("fuzz_specs"),
        "scenarios.fuzz.spec_ms_p50": spec_ms[len(spec_ms) // 2],
        "scenarios.fuzz.spec_ms_p95": spec_ms[(len(spec_ms) * 95) // 100],
        "scenarios.fuzz.stalls": fact("fuzz_stalls"),
        "bench.run_s": record["run_s"],
        "bench.cpu_s": untraced["cpu_s"],
        "bench.units": len(unit_rows),
        "bench.disturbed_units": sum(row["disturbed"] for row in unit_rows),
        "bench.trace_overhead_ratio": ratio(traced["run_s"], untraced["run_s"]),
        "bench.profiled_coverage": 1.0
        - ratio(attribution["self_s"].get("other", 0.0), total_s),
    }
    out.update(counts)
    for metric in spec.E2E_IN_LAYER_OUTPUT:
        out[f"e2e.{metric.name}"] = end_to_end.get(metric.name)
    return out


def _units_of() -> Dict[str, str]:
    units = {metric.name: metric.unit for metric in spec.END_TO_END}
    units.update({entry["name"]: entry["unit"] for entry in spec.per_layer_declarations()})
    return units


def workload_main(args) -> int:
    """``--workload``: measure, print every metric, end with the JSON line."""
    record = measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    units = _units_of()
    # The rest of the end-to-end metrics, shown in brackets: a traced run
    # already carries them in its per-layer output as ``e2e.*``.
    others: Dict[str, float] = {}
    if args.trace:
        reported = record["per_layer"]
    else:
        reported = {name: record["end_to_end"][name] for name in spec.DRIVER_END_TO_END}
        others = {
            name: value
            for name, value in record["end_to_end"].items()
            if name not in reported and value is not None
        }
    print(
        f"ledger workload {record['workload']} seed {record['seed']} "
        f"(generator seed {record['workload_seed']}), op = {record['op']}"
    )
    print(f"  {OPEN_LOOP_NOTE}")
    for row in record["units"]:
        print(
            f"  unit: import {row['import_s']:.4f} s, build {row['build_s']:.4f} s, "
            f"run {row['run_s']:.4f} s, "
            f"cpu {row['cpu_s']:.4f} s"
            + (" [traced]" if row["traced"] else "")
            + (" [disturbed]" if row["disturbed"] else "")
        )
    print(
        f"  timed: {record['run_s']:.4f} s summed over the fastest repeat of each of "
        f"{len(record['best_slices'])} slices; the median unit took "
        f"{record['noise_ratio']:.3f}x that"
    )
    for name, value in reported.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {units.get(name, '')}")
    for name, value in others.items():
        print(f"  ({name:38s} {value:>14.6g} {units.get(name, '')})")
    print(f"  fingerprint {record['fingerprint']}")
    for name in record.get("unresolved", ()):
        print(f"  unresolved layer: {name}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")
    if args.detail:
        print(DETAIL_TAG + json.dumps(record, sort_keys=True))
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            # The driver wants a number for every declared metric: a metric
            # that is undefined on this workload, or whose layer is gone,
            # reads 0 here and null in the ledger JSON.
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in reported.items()
        },
    }
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# The full ledger: subprocess repeats, aggregation, determinism checks
# ----------------------------------------------------------------------
def _child(
    workload: str, seed: int, seconds: float, trace: int, quick: bool, hash_seed: str = "0"
) -> Dict[str, Any]:
    """One fresh-subprocess run; returns its detail record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--detail",
    ]
    if quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=900)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            return json.loads(line[len(DETAIL_TAG):])
    raise RuntimeError(
        f"{workload} run produced no result (exit {done.returncode}):\n"
        f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
    )


def _quartiles(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }


def _print_report(document: Dict[str, Any]) -> None:
    """Every metric of a full ledger, by name and unit."""
    units = _units_of()
    for name, block in document["workloads"].items():
        print(f"\n== {name}: {block['why']}")
        print(
            f"   op = {block['op']}; attempted {block['attempted']}, failed "
            f"{block['failed']}; fingerprint {block['fingerprint'][:16]} "
            f"({'all runs match' if block['fingerprints_match'] else 'MISMATCH'})"
        )
        print(f"   {'end-to-end metric':22s} {'median':>13s} {'q1':>13s} {'q3':>13s} unit")
        for metric_name, row in block["end_to_end"].items():
            if row is None:
                print(f"   {metric_name:22s} {'n/a':>13s}")
                continue
            print(
                f"   {metric_name:22s} {row['median']:13.6g} {row['q1']:13.6g} "
                f"{row['q3']:13.6g} {row['unit']}"
                + (f" (n={block['latency_samples']})" if "latency" in metric_name else "")
            )
        print(f"   {'per-layer metric':40s} {'value':>14s} unit")
        for metric_name, value in block["per_layer"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"   {metric_name:40s} {shown:>14s} {units.get(metric_name, '')}")
        if block["trace"]["unresolved"]:
            print(f"   unresolved layers: {block['trace']['unresolved']}")
    print(f"\nhash-seed check: {'match' if document['hash_seed_check']['match'] else 'MISMATCH'}")
    for failure in document["failures"]:
        print(f"BENCHMARK FAILURE: {failure}")


def ledger_main(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    repeats = 1 if args.quick else max(3, args.repeats)
    seconds = args.seconds
    failures: List[str] = []
    runs: Dict[str, List[Dict[str, Any]]] = {name: [] for name in spec.WORKLOADS}
    disturbed: Dict[str, int] = {name: 0 for name in spec.WORKLOADS}

    print(f"ledger: {repeats} untraced run(s) per workload, round-robin; {OPEN_LOOP_NOTE}")
    for repeat in range(repeats):
        for name in spec.WORKLOADS:
            record = _child(name, args.seed, seconds, 0, args.quick)
            if record["disturbed"]:
                disturbed[name] += 1
                print(f"  {name} run {repeat}: disturbed (wall/cpu > {DISTURBED_RATIO}), repeating once")
                record = _child(name, args.seed, seconds, 0, args.quick)
            runs[name].append(record)
            print(
                f"  {name} run {repeat}: ops/s {record['end_to_end']['ops_per_s']:.5g}, "
                f"setup {record['end_to_end']['setup_s']:.3f} s, "
                f"correct {record['correct']}"
            )

    document: Dict[str, Any] = {
        "schema": 1,
        "benchmark": "ledger",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "default_seeds": dict(spec.DEFAULT_SEEDS),
        "repeats": repeats,
        "seconds": seconds,
        "quick": args.quick,
        "open_loop": OPEN_LOOP_NOTE,
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        traced = _child(name, args.seed, seconds, 1, args.quick)
        records = runs[name]
        prints = sorted({record["fingerprint"] for record in records} | {traced["fingerprint"]})
        if len(prints) > 1:
            failures.append(f"{name}: fingerprints differ across runs: {prints}")
        for record in records + [traced]:
            for problem in record["problems"]:
                failures.append(f"{name}: {problem}")
        end_to_end: Dict[str, Any] = {}
        for metric in spec.END_TO_END:
            values = [record["end_to_end"][metric.name] for record in records]
            if None in values:  # not defined on this workload
                end_to_end[metric.name] = None
                continue
            end_to_end[metric.name] = {"unit": metric.unit, **_quartiles(values)}
        document["workloads"][name] = {
            "why": why.get(name, ""),
            "op": records[0]["op"],
            "workload_seed": records[0]["workload_seed"],
            "correct": all(record["correct"] for record in records + [traced]),
            "attempted": records[0]["attempted"],
            "failed": records[0]["failed"],
            "fingerprint": records[0]["fingerprint"],
            "fingerprints_match": len(prints) == 1,
            "latency_samples": records[0]["end_to_end"]["latency_samples"],
            "disturbed_runs_repeated": disturbed[name],
            "still_disturbed": sum(record["disturbed"] for record in records),
            "end_to_end": end_to_end,
            "per_layer": traced["per_layer"],
            "trace": {"unresolved": traced["unresolved"], "units": traced["units"]},
        }

    if not args.quick:
        held_out = {}
        for name in spec.WORKLOADS:
            record = _child(name, args.seed + HELD_OUT_OFFSET, seconds, 0, False)
            held_out[name] = {
                "workload_seed": record["workload_seed"],
                "correct": record["correct"],
                "failed": record["failed"],
                "fingerprint": record["fingerprint"],
                "ops_per_s": record["end_to_end"]["ops_per_s"],
            }
            if not record["correct"]:
                failures.append(f"{name} at held-out seed: {record['problems']}")
        document["held_out_seed"] = {"seed": args.seed + HELD_OUT_OFFSET, "workloads": held_out}
    # Same reduced-scale churn under two string-hash seeds: identical
    # simulated numbers or the repository's determinism claim is broken.
    hashed = [
        _child("churn_idle", args.seed, seconds, 0, True, hash_seed=value)["fingerprint"]
        for value in ("0", "1")
    ]
    document["hash_seed_check"] = {
        "workload": "churn_idle --quick",
        "PYTHONHASHSEED": ["0", "1"],
        "fingerprints": hashed,
        "match": hashed[0] == hashed[1],
    }
    if hashed[0] != hashed[1]:
        failures.append(f"churn_idle fingerprint depends on PYTHONHASHSEED: {hashed}")
    document["failures"] = failures

    _print_report(document)

    out = args.out or os.path.join(HERE, "out", "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (driver form)")
    parser.add_argument("--seed", type=int, default=0, help="added to every generator's default seed")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="host seconds one run is sized to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per workload (min 3)")
    parser.add_argument("--out", help="where the full ledger writes its JSON")
    parser.add_argument("--quick", action="store_true", help="about 1 s per workload, K=1")
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare.main(*args.compare)
    if not os.path.isdir(PACKAGE_DIR):
        print(f"ledger: no program to measure: {PACKAGE_DIR} is missing", file=sys.stderr)
        return 2
    _pin_hash_seed()
    sys.path.insert(0, SRC)
    if args.workload is None:
        return ledger_main(args)
    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {spec.WORKLOADS}")
    return workload_main(args)


if __name__ == "__main__":
    sys.exit(main())
