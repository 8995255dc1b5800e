"""E26 -- sharded KV store: goodput, failover and live-rebalance cost.

The end-to-end application benchmark for :mod:`repro.apps.kv`: a ring of
N shards, each a Newtop group of R replicas running the replicated
state-machine pattern, under open-loop traffic from a large population of
logical clients drawing Zipf-skewed keys through cached (possibly stale)
hash rings.  Mid-window the run injects the two disruptive events the
subsystem exists to absorb:

* **crash failover** (~T/4) -- the *sequencer* of one shard crash-stops;
  the membership service excludes it and, in asymmetric mode, sequencer
  duty migrates to the next-smallest member.  No ring change, no
  operator: the protocol *is* the failover mechanism.
* **live split** (~T/2) -- the shard owning the hottest key is split via
  dynamic group formation + fence + keyed state transfer + ring publish
  (:class:`repro.apps.kv.Rebalancer`), while every other shard keeps
  serving.

Everything is verified online -- the protocol stack's own checks *plus*
the :class:`repro.apps.kv.KVOracle` (per-key linearizability within each
shard, read-your-writes / monotonic reads across the ring, migration
integrity) ride the live trace with **zero stored events**.  The headline
numbers are per-shard goodput, client-observed tail latency, and the
*unavailability windows* -- the shared
:func:`common.unavailability_windows` extractor over per-shard served/
offered time bins -- which must stay empty for untouched shards and
bounded for the split source.

Run as a script to record the JSON artifact for CI::

    python benchmarks/bench_kv_shards.py --scale smoke \
        --json BENCH_kv_shards.json --observe journeys
"""

import time

from common import (
    RESULTS,
    benchmark_arg_parser,
    fmt,
    unavailability_windows,
    write_bench_json,
)

from repro.api import Session
from repro.apps.kv import KVOracle, KVWorkload, Rebalancer, ShardedKV
from repro.core.config import OrderingMode

SMOKE_SCALE = dict(
    shards=3,
    replicas=3,
    spares=2,
    clients=200,
    keys=128,
    rate=40.0,
    duration=60.0,
    drain=40.0,
    read_fraction=0.7,
    zipf_exponent=1.1,
    bin_width=5.0,
    # Outage budget for the *touched* shards (split source waits out the
    # fence-to-publish freeze; the crashed shard waits out suspicion).
    window_bound=30.0,
    seed=11,
)

FULL_SCALE = dict(
    shards=6,
    replicas=3,
    spares=2,
    clients=2000,
    keys=1024,
    rate=150.0,
    duration=120.0,
    drain=60.0,
    read_fraction=0.7,
    zipf_exponent=1.1,
    bin_width=5.0,
    window_bound=30.0,
    seed=11,
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}


def _layout(scale):
    """Shard id -> replica process ids (ids sort so ``r0`` is sequencer)."""
    return {
        f"s{index}": [f"s{index}r{replica}" for replica in range(scale["replicas"])]
        for index in range(scale["shards"])
    }


def run_kv_bench(scale=None, observe=None):
    """One full E26 run; returns the result dict the assertions consume."""
    scale = SMOKE_SCALE if scale is None else scale
    if observe is None:
        # `app_msgs_per_write` reads the transport's per-cause counters,
        # which exist only on an observed run; without the sampler the
        # registry adds no simulator event, so the run is the unobserved one.
        observe = {"sampler": False}
    layout = _layout(scale)
    spares = [f"x{index}" for index in range(scale["spares"])]
    oracle = KVOracle()
    session = Session(
        "newtop",
        seed=scale["seed"],
        analysis="online",
        sinks=[oracle],
        observe=observe,
    )
    session.spawn([pid for members in layout.values() for pid in members])
    session.spawn(spares)
    store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
    store.bootstrap(layout)
    workload = KVWorkload(
        store,
        clients=scale["clients"],
        keys=scale["keys"],
        rate=scale["rate"],
        duration=scale["duration"],
        drain=scale["drain"],
        read_fraction=scale["read_fraction"],
        zipf_exponent=scale["zipf_exponent"],
        bin_width=scale["bin_width"],
        seed=scale["seed"],
    )
    rebalancer = Rebalancer(store)

    # The hottest key is k0 (Zipf rank 0); its owner is the split source.
    hot_shard = store.ring.lookup("k0")
    # Crash the sequencer (smallest member id) of a *different* shard, so
    # the two disruptions land on two shards and the rest stay untouched.
    crash_shard = next(
        shard for shard in sorted(layout) if shard != hot_shard
    )
    victim = min(layout[crash_shard])
    events = {}

    def do_crash():
        events["crash_at"] = session.sim.now
        session.crash(victim)

    def do_split():
        coordinator = store.coordinator(hot_shard)
        events["split"] = rebalancer.split_shard(
            hot_shard, f"s{scale['shards']}", [coordinator, *spares]
        )

    session.run(1.0)
    workload.start()
    started = session.sim.now
    session.sim.schedule(scale["duration"] * 0.25, do_crash, label="e26_crash")
    session.sim.schedule(scale["duration"] * 0.50, do_split, label="e26_split")
    session.run(scale["duration"] + scale["drain"])
    split = events["split"]
    session.run_until(lambda: split.complete or split.failed is not None, timeout=120.0)
    session.run(5.0)  # let the last acknowledged applies settle everywhere
    result = session.result()

    new_shard = split.target
    shard_windows = {
        shard: unavailability_windows(workload.shard_bins(shard))
        for shard in sorted(store.shards)
        if not store.shards[shard].retired
    }
    per_shard_goodput = {
        shard: round(sum(bins.values()) / scale["duration"], 3)
        for shard, bins in sorted(workload.completed_bins.items())
    }
    app_sends = result.obs["metrics"]["counters"]["transport.sends_by_cause.app_multicast"]
    return {
        "scale": dict(scale),
        "layout": {shard: list(members) for shard, members in layout.items()},
        "hot_shard": hot_shard,
        "crash_shard": crash_shard,
        "victim": victim,
        "crash_at": round(events["crash_at"] - started, 3),
        "new_shard": new_shard,
        "split": split.describe(),
        "store": store.describe(),
        "store_counters": dict(store.counters),
        "pending_writes": store.pending_writes(),
        "converged": {
            shard: store.converged(shard) for shard in sorted(store.shards)
            if not store.shards[shard].retired
        },
        "workload": workload.report(),
        # Wire messages caused by application multicasts (client writes plus
        # the split's few control commands) per acknowledged client write:
        # replicas - 1 when every write enters at its shard's sequencer.
        "app_msgs_per_write": round(app_sends / store.counters["writes_acked"], 4),
        "per_shard_goodput": per_shard_goodput,
        "unavailability": shard_windows,
        "oracle": oracle.summary(),
        "session": {
            "passed": result.passed,
            "trace_events": result.trace_events,
            "trace_events_stored": result.trace_events_stored,
            "messages_sent": result.messages_sent,
            "delivery_events": result.delivery_events,
            "sim_time": round(result.sim_time, 3),
        },
        "obs": result.obs,
    }


def _assert_run(run, scale):
    """The E26 acceptance shape, asserted identically by test and CI."""
    # Verified online, twice over: the stack's own checks and the KV
    # oracle both rode the live trace, and nothing was materialized.
    assert run["session"]["passed"], run["session"]
    assert run["oracle"]["passed"], run["oracle"]
    assert run["session"]["trace_events_stored"] == 0
    # The rebalance ran to completion and actually moved data.
    assert run["split"]["complete"], run["split"]
    assert run["split"]["moved_keys"] > 0, run["split"]
    # Alive replicas of every live shard converged to identical state.
    assert all(run["converged"].values()), run["converged"]
    # Every shard served real traffic, including the freshly split one.
    for shard, goodput in run["per_shard_goodput"].items():
        assert goodput > 0, (shard, run["per_shard_goodput"])
    # Availability: shards neither split nor crashed never went dark;
    # the touched shards' outage windows are bounded by the budget.
    touched = {run["hot_shard"], run["crash_shard"], run["new_shard"]}
    for shard, windows in run["unavailability"].items():
        if shard not in touched:
            assert not windows, (shard, windows)
        for window in windows:
            assert window["duration"] <= scale["window_bound"], (shard, window)
    # Client accounting closes: only writes stranded by the crash (their
    # coordinator died holding the acknowledgement) may stay in flight.
    counters = run["workload"]["counters"]
    assert counters["completed_reads"] > 0 and counters["completed_writes"] > 0
    assert run["workload"]["in_flight"] <= run["pending_writes"] + 1
    # Tail latency was actually measured on both paths.
    assert run["workload"]["read_latency"]["count"] > 0
    assert run["workload"]["write_latency"]["count"] > 0
    # Writes enter at the sequencer: n - 1 copies each and no unicast to the
    # sequencer first.  A caller that draws the replica at random again pays
    # (n - 1)(1 + 1/n) = 2.67 at n = 3 and fails here.
    assert run["app_msgs_per_write"] <= scale["replicas"] - 1 + 0.1, run["app_msgs_per_write"]


def test_kv_shards(benchmark):
    run = benchmark.pedantic(
        run_kv_bench, kwargs=dict(scale=SMOKE_SCALE), rounds=1, iterations=1
    )
    _assert_run(run, SMOKE_SCALE)
    split = run["split"]
    windows = run["unavailability"]
    quiet = [shard for shard, found in sorted(windows.items()) if not found]
    table = [
        f"{SMOKE_SCALE['shards']} shards x {SMOKE_SCALE['replicas']} replicas, "
        f"{SMOKE_SCALE['clients']} logical clients, zipf({SMOKE_SCALE['zipf_exponent']}) "
        f"keys, asymmetric ordering",
        f"crash: {run['victim']} (sequencer of {run['crash_shard']}) at "
        f"t+{run['crash_at']:.0f}s -> membership exclusion + sequencer migration",
        f"split: {run['hot_shard']} -> {run['new_shard']} moved "
        f"{split['moved_keys']} keys in {split['duration']:.1f}s "
        f"(form {split['formed_at'] - split['started_at']:.1f}s, ring v2 published)",
        "shard | goodput op/s | outage windows",
    ]
    for shard, goodput in sorted(run["per_shard_goodput"].items()):
        found = windows.get(shard, [])
        text = ", ".join(f"{w['duration']:.0f}s@{w['start']:.0f}" for w in found) or "none"
        table.append(f"{shard:5s} | {goodput:13.2f} | {text}")
    table.append(
        f"latency: reads p50 {fmt(run['workload']['read_latency']['p50'])} / "
        f"p99 {fmt(run['workload']['read_latency']['p99'])}, writes p50 "
        f"{fmt(run['workload']['write_latency']['p50'])} / p99 "
        f"{fmt(run['workload']['write_latency']['p99'])}"
    )
    table.append(
        f"app messages per acknowledged write: {run['app_msgs_per_write']:.3f} "
        f"(floor {SMOKE_SCALE['replicas'] - 1}: every write enters at its sequencer)"
    )
    table.append(
        f"untouched shards with zero outage windows: {quiet}; oracle checked "
        f"{run['oracle']['applies_checked']} applies + "
        f"{run['oracle']['reads_checked']} reads online, 0 stored"
    )
    table.append(
        "paper: group formation + voluntary departure + membership service "
        "compose into shard rebalancing and failover with no control plane "
        "-> reproduced as a live sharded KV under open-loop load"
    )
    RESULTS.add_table("E26 sharded KV: failover + live rebalance under load", table)


def record_results(scale_name, json_path, parallel=None, observe=None):
    """Run the benchmark and write the shared-schema JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    run = run_kv_bench(scale, observe=observe)
    _assert_run(run, scale)
    payload = {key: value for key, value in run.items() if key != "scale"}
    return write_bench_json(
        json_path,
        "kv_shards",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_kv_shards.json", SCALES)
    args = parser.parse_args()
    payload = record_results(
        args.scale, args.json, parallel=args.parallel, observe=args.observe
    )
    split = payload["split"]
    print(
        f"{payload['benchmark']} [{payload['scale']}] "
        f"split {split['moved_keys']} keys in {split['duration']:.1f}s, "
        f"oracle passed={payload['oracle']['passed']} "
        f"wall={payload['wall_seconds']}s -> {args.json}"
    )


if __name__ == "__main__":
    main()
