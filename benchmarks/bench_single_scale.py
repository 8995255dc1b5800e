"""E23 -- one simulation at 10k-process scale: the hot-path refactor payoff.

E22's 5,000-process result is 20 independent shards; this benchmark is the
other half of the scale story -- **one single, non-sharded simulation**: a
churn + dynamic-formation scenario at **10,000 processes across 500
overlapping groups** (full scale), verified *online* while it runs (zero
stored trace events).  What makes it feasible is the hot-path refactor the
simulation runtime carries:

* **one lean event kernel** -- a single heap of ``(time, sequence, event)``
  tuples compared in C, lazy cancellation with compaction, and protocol
  timers that are only scheduled when they can find something to do (a
  demand-driven time-silence and suspector);
* **slab-backed state** -- receive/stability vectors and suspector tables
  are flat arrays over dense member slots with a cached minimum, not
  per-member dicts rescanned on every receipt;
* **delivery batching** -- all of a process's same-instant arrivals drain
  through one transport batch, paying delivery attempts and deferred-send
  flushes once per instant instead of once per message.

The last two are behaviour-preserving (equivalence tests pin seed-identical
results against the reference dict/per-message paths).  The gated number is
``run_seconds``: the wall clock of the fixed scenario.  ``events_per_second``
is reported but not gated -- a change that *deletes* events (a timer that no
longer polls) makes the run faster and that rate lower at once.  CI runs the
smoke scale (1,000 processes / 50 groups) and fails when the run takes more
than 30% longer than the committed baseline
(``benchmarks/baselines/single_scale.json``), so a hot-path regression is
visible in the PR that introduces it.

Run as a script to record the JSON artifact for CI::

    python benchmarks/bench_single_scale.py --scale smoke \
        --json BENCH_single_scale.json
"""

import json
import os
import time

from common import RESULTS, benchmark_arg_parser, latency_block, write_bench_json

from repro.scenarios import churn_scenario, run_scenario

#: The headline configuration: one simulation, 10,000 processes in 500
#: overlapping groups, under crash/leave churn plus dynamic formations.
FULL_SCALE = dict(
    processes=10_000,
    groups=500,
    group_size=12,
    crashes=8,
    leaves=8,
    formations=4,
    messages_per_sender=1,
    seed=23,
)

#: CI configuration: same shape at 1,000 processes / 50 groups (~tens of
#: seconds), the scale the committed events/sec baseline is pinned at.
SMOKE_SCALE = dict(
    processes=1_000,
    groups=50,
    group_size=12,
    crashes=3,
    leaves=3,
    formations=2,
    messages_per_sender=1,
    seed=23,
)

#: Seconds-sized configuration for the pytest harness.
TINY_SCALE = dict(
    processes=200,
    groups=15,
    group_size=10,
    crashes=2,
    leaves=2,
    formations=1,
    messages_per_sender=1,
    seed=23,
)

SCALES = {"tiny": TINY_SCALE, "smoke": SMOKE_SCALE, "full": FULL_SCALE}

#: Committed wall-seconds baselines per scale; CI fails when a run takes
#: more than ``BASELINE_TOLERANCE`` longer than its scale's entry.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "single_scale.json"
)
BASELINE_TOLERANCE = 0.30


def single_scale_config(scale):
    """The one scenario config: churn + formations at the given scale."""
    return churn_scenario(
        n_processes=scale["processes"],
        n_groups=scale["groups"],
        group_size=scale["group_size"],
        crashes=scale["crashes"],
        leaves=scale["leaves"],
        formations=scale["formations"],
        messages_per_sender=scale["messages_per_sender"],
        seed=scale["seed"],
    )


def run_single_scale(scale=None, observe=None):
    """Run the single simulation online-verified; returns the summary.

    ``observe`` attaches a :mod:`repro.obs` observation ("metrics" or
    "full") and adds its snapshot to the summary as ``"obs"`` -- the run's
    numbers are identical either way (pinned by the equivalence tests).
    """
    scale = SMOKE_SCALE if scale is None else scale
    config = single_scale_config(scale)
    start = time.time()
    result = run_scenario(config, analysis="online", observe=observe)
    wall = time.time() - start
    assert result.passed, (result.name, result.checks.violations[:3])
    assert result.trace_events_stored == 0, "online mode materialized a trace"
    payload = {
        "scenario": result.name,
        "processes": scale["processes"],
        "groups": scale["groups"],
        "groups_formed": scale["formations"],
        "group_size": scale["group_size"],
        "passed": result.passed,
        "run_seconds": round(wall, 3),
        "sim_time": result.sim_time,
        "events_processed": result.events_processed,
        "events_per_second": round(result.events_processed / wall, 1) if wall else None,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "trace_events": result.trace_events,
        "trace_events_stored": result.trace_events_stored,
        "peak_pending_events": result.peak_pending_events,
        "peak_live_pending_events": result.peak_live_pending_events,
        "compactions": result.compactions,
        "delivery_latency": latency_block(result),
    }
    if result.obs is not None:
        payload["obs"] = result.obs
    return payload


def load_baselines(path=BASELINE_PATH):
    """The committed per-scale baselines ({} when none are committed)."""
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_baseline(scale_name, run_seconds, tolerance=BASELINE_TOLERANCE):
    """Assert the fixed scenario ran within ``tolerance`` of the committed
    baseline for ``scale_name``; returns the enforced ceiling in seconds
    (or ``None`` when no baseline is committed for that scale)."""
    baseline = load_baselines().get(scale_name)
    if baseline is None:
        return None
    ceiling = baseline["run_seconds"] * (1.0 + tolerance)
    assert run_seconds <= ceiling, (
        f"single-simulation run regressed: {run_seconds:.2f}s is more than "
        f"{tolerance:.0%} above the committed {scale_name} baseline of "
        f"{baseline['run_seconds']:.2f}s (ceiling {ceiling:.2f}s) -- if the "
        f"slowdown is intended, update {BASELINE_PATH}"
    )
    return round(ceiling, 3)


def test_single_scale(benchmark):
    payload = benchmark.pedantic(
        run_single_scale, kwargs=dict(scale=TINY_SCALE), rounds=1, iterations=1
    )
    latency = payload["delivery_latency"]
    table = [
        f"one simulation: {payload['processes']} processes / "
        f"{payload['groups']} groups (+{payload['groups_formed']} formed), "
        f"verified online ({payload['trace_events']} events streamed, "
        f"{payload['trace_events_stored']} stored)",
        f"throughput: {payload['events_processed']} simulator events in "
        f"{payload['run_seconds']}s -> {payload['events_per_second']} events/sec",
        f"delivery latency: mean {latency['mean']:.2f}, p99 {latency['p99']:.2f} "
        f"over {latency['count']} samples (exact reservoir)",
        "lean kernel + demand-driven timers + slab state + delivery batching",
    ]
    RESULTS.add_table("E23 single-simulation scale (hot-path refactor)", table)
    assert payload["passed"]
    assert payload["trace_events_stored"] == 0


def record_results(scale_name, json_path, parallel=None, observe=None):
    """Run the named scale, enforce the baseline, write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    payload = run_single_scale(scale, observe=observe)
    payload["baseline_ceiling_run_seconds"] = check_baseline(
        scale_name, payload["run_seconds"]
    )
    return write_bench_json(
        json_path,
        "single_scale",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_single_scale.json", SCALES)
    args = parser.parse_args()
    payload = record_results(
        args.scale, args.json, parallel=args.parallel, observe=args.observe
    )
    ceiling = payload["baseline_ceiling_run_seconds"]
    print(
        f"{payload['benchmark']} [{payload['scale']}]: "
        f"{payload['processes']} processes / {payload['groups']} groups in one "
        f"simulation, {payload['run_seconds']}s "
        f"(baseline ceiling {ceiling if ceiling is not None else 'n/a'}s) for "
        f"{payload['events_processed']} events "
        f"({payload['events_per_second']} events/sec, not gated), verified "
        f"online with {payload['trace_events_stored']} stored events -> {args.json}"
    )


if __name__ == "__main__":
    main()
