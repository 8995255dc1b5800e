"""E27 -- the observation path, sink by sink (ROADMAP 1b's first layer
microbenchmark).

What happens to a delivery *after* the protocol has decided to make it:
``TraceRecorder.record`` builds (or only counts) an event, the
:class:`~repro.net.trace.MetricsSink` and the online checkers consume it,
and the workload's delivery router hands it to the client that issued the
message.  On the ledger's ``stream_busy`` workload those layers are 40 % of
host time; this benchmark measures each of them alone.

One seeded session of ``stream_busy``'s shape (48 processes in 8
overlapping groups of 12, every member multicasting open loop) runs once,
verified online, with an all-kinds sink capturing its event stream.  The
captured stream is then replayed

* through ``TraceRecorder.record`` twice -- every kind materialized (an
  all-kinds sink registered) and every kind count-only (no sink) -- and
  once more with the session's own sink set, to count which events a real
  run builds;
* through a ``MetricsSink``, each of the five online checkers constructed
  on its own, and the whole ``OnlineCheckSuite``, each fed exactly the
  kinds it subscribes to.

Timings are the minimum of ``--rounds`` replays, printed as microseconds
per event fed and **reported only** -- they move with the box.  What CI
gates are the counts, which repeat exactly per seed:

* causal-vector entries ``OnlineCausalOrder`` scans per delivery
  (``<= 12``; a full-vector scan is 30 on this shape),
* trace events materialized per delivery (``<= 1.2``; the stream holds
  2.0 per delivery, half of them ``receive`` events nobody reads),
* client ``on_event`` calls per delivery (``== 1``; every client seeing
  every delivery would be 8),
* delivered ids the replayed ``OnlineCausalOrder`` still holds at the end
  (``== 0``; a checker that kept every id would hold one per delivery),
* per-delivery records the streaming session's processes hold (``== 0``;
  their delivery logs keep a count, the trace's ``deliver`` events being
  what carries the facts),
* deliverer maps the replayed ``OnlineTotalOrder`` still holds at the end
  (``== 0``; a map closes once every member of every view it recorded has
  delivered its message, and the stream drains, so a checker that never
  closed one would hold one per message).  The tombstones it keeps instead,
  one per message, are reported.

The session then runs once more, with no capture sink, under
``tracemalloc``: the peak traced bytes and, at the one-simulated-second
sample holding the most, the bytes held per ``src/repro`` file (top ten)
are **reported only** -- object sizes differ between Python versions --
so a memory claim can name the layer it moves.

Run as a script for the CI gate::

    python benchmarks/bench_observation_path.py --scale smoke \
        --json BENCH_observation_path.json
"""

import math
import os
import time
import tracemalloc

from common import RESULTS, benchmark_arg_parser, write_bench_json

import repro
from repro.analysis.online import (
    OnlineCausalOrder,
    OnlineCheckSuite,
    OnlineSenderInView,
    OnlineTotalOrder,
    OnlineViewAgreement,
    OnlineVirtualSynchrony,
)
from repro.api import Session
from repro.core.messages import reset_message_counter
from repro.net.trace import DELIVER, MemorySink, MetricsSink, NullSink, TraceRecorder
from repro.scenarios import ring_overlap_groups
from repro.workloads import OpenLoopClient, get_profile

#: ``stream_busy``'s shape; ``smoke`` shortens the traffic window, and
#: drains a second longer: its last message reaches its last member at
#: 12.1 s.
FULL_SCALE = dict(
    processes=48, groups=8, group_size=12, rate=25.0, duration=14.0, drain=6.0, seed=5
)
SMOKE_SCALE = dict(FULL_SCALE, duration=5.0, drain=7.0)
SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}

DEFAULT_ROUNDS = 5

#: The gates: exact counts per delivery (see the module docstring).
MAX_CAUSAL_ENTRIES_PER_DELIVERY = 12.0
MAX_EVENTS_MATERIALIZED_PER_DELIVERY = 1.2
CLIENT_CALLS_PER_DELIVERY = 1.0
#: Delivery history a streaming run may hold at its end (all three counts).
MAX_HISTORY_HELD = 0

#: Files of the memory run's per-file table.
MEMORY_TOP_FILES = 10


class _CountingClient(OpenLoopClient):
    """An open-loop client that counts how often it is handed an event."""

    on_event_calls = 0

    def on_event(self, event):
        self.on_event_calls += 1
        super().on_event(event)


class _DeliveriesOnly(NullSink):
    """Stands in for the workload's delivery router in the replay."""

    KINDS = frozenset({DELIVER})


def _build_session(scale, sinks=()):
    """The seeded session, its groups and clients attached; not yet run."""
    reset_message_counter()
    session = Session("newtop", seed=scale["seed"], analysis="online", sinks=list(sinks))
    names = [f"P{index:03d}" for index in range(scale["processes"])]
    session.spawn(names)
    clients = []
    for index, group in enumerate(
        ring_overlap_groups(names, scale["groups"], scale["group_size"])
    ):
        session.group(group["id"], group["members"])
        client = session.attach_client(
            _CountingClient(
                get_profile("poisson", rate=scale["rate"]),
                group["members"],
                [group["id"]],
                seed=scale["seed"] * 9973 + index,
                start=1.0,
                duration=scale["duration"],
                name=f"{group['id']}-client",
            )
        )
        client.start()
        clients.append(client)
    return session, clients


def _horizon(scale):
    return 1.0 + scale["duration"] + scale["drain"]


def record_session(scale):
    """Run the seeded session once; returns its facts and event stream."""
    capture = MemorySink()
    session, clients = _build_session(scale, [capture])
    session.run(_horizon(scale))
    result = session.result()
    assert result.passed, result.checks.violations[:3]
    assert result.trace_events == len(capture.events)
    return {
        "events": capture.events,
        "deliveries": result.deliveries,
        "multicasts": sum(client.admitted for client in clients),
        "by_kind": dict(sorted(result.metrics["by_kind"].items())),
        "client_on_event_calls": sum(client.on_event_calls for client in clients),
        "delivery_records_held": sum(
            process.delivered.held for process in session.stack.processes.values()
        ),
        "causal_entries_folded": session.suite.causal_order.delta_entries_folded(),
    }


def memory_profile(scale):
    """Run the session again under ``tracemalloc``, sampling the heap once
    per simulated second; returns the peak traced bytes and the per-file
    bytes of the sample holding the most."""
    package = os.path.dirname(repro.__file__)
    horizon = _horizon(scale)
    tracemalloc.start()
    try:
        session, _ = _build_session(scale)
        held, sampled_at, snapshot = -1, 0.0, None
        for second in range(1, math.ceil(horizon) + 1):
            session.run(min(float(second), horizon) - session.sim.now)
            current = tracemalloc.get_traced_memory()[0]
            if current > held:
                held, sampled_at = current, session.sim.now
                snapshot = tracemalloc.take_snapshot()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    in_package = snapshot.filter_traces(
        [tracemalloc.Filter(True, os.path.join(package, "*"))]
    ).statistics("filename")
    return {
        "peak_traced_bytes": peak,
        "sampled_at_sim_s": sampled_at,
        "sampled_traced_bytes": held,
        "sampled_repro_bytes": sum(stat.size for stat in in_package),
        "top_files": [
            {
                "file": os.path.relpath(stat.traceback[0].filename, package),
                "bytes": stat.size,
            }
            for stat in in_package[:MEMORY_TOP_FILES]
        ],
    }


def _replay_record(events, sinks):
    """Re-record ``events`` on a fresh streaming recorder; returns
    ``(seconds, events materialized)``."""
    recorder = TraceRecorder(sinks=sinks, keep_events=False)
    record = recorder.record
    materialized = 0
    start = time.perf_counter()
    for event in events:
        built = record(
            event.time, event.kind, event.process, event.group,
            event.message_id, event.sender, event.clock, **dict(event.details)
        )
        if built is not None:
            materialized += 1
    seconds = time.perf_counter() - start
    assert recorder.events_recorded == len(events)
    return seconds, materialized


def _replay_sink(events, make_sink):
    """Feed a fresh sink the events of the kinds it subscribes to; returns
    ``(seconds, events fed, sink)``."""
    sink = make_sink()
    fed = [event for event in events if sink.KINDS is None or event.kind in sink.KINDS]
    on_event = sink.on_event
    start = time.perf_counter()
    for event in fed:
        on_event(event)
    return time.perf_counter() - start, len(fed), sink


#: name -> factory of the sink replayed in isolation.
SINKS = {
    "metrics_sink": MetricsSink,
    "total_order": OnlineTotalOrder,
    "sender_in_view": OnlineSenderInView,
    "causal_prefix": OnlineCausalOrder,
    "view_sequences": OnlineViewAgreement,
    "same_view_delivery_sets": OnlineVirtualSynchrony,
    "suite": OnlineCheckSuite,
}


def measure(scale=None, rounds=DEFAULT_ROUNDS):
    """Record once, replay ``rounds`` times per sink, keep the minimum."""
    scale = SMOKE_SCALE if scale is None else scale
    recorded = record_session(scale)
    events = recorded.pop("events")
    deliveries = recorded["deliveries"]

    def row(seconds, fed):
        return {
            "events_fed": fed,
            "seconds": round(seconds, 5),
            "us_per_event": round(1e6 * seconds / fed, 3) if fed else None,
        }

    timings = {}
    best = min(_replay_record(events, [NullSink()]) for _ in range(rounds))
    assert best[1] == len(events)
    timings["record_materialized"] = row(best[0], len(events))
    best = min(_replay_record(events, []) for _ in range(rounds))
    assert best[1] == 0
    timings["record_count_only"] = row(best[0], len(events))
    for name, make_sink in SINKS.items():
        seconds, fed, sink = min(
            (_replay_sink(events, make_sink) for _ in range(rounds)),
            key=lambda outcome: outcome[0],
        )
        if hasattr(sink, "result"):
            assert sink.result().passed, (name, sink.result().violations[:3])
        if name == "causal_prefix":
            # The replayed checker does the live one's work, entry for entry.
            assert sink.delta_entries_folded() == recorded["causal_entries_folded"]
            causal_ids_held = sink.delivered_ids_held()
        if name == "total_order":
            maps_held, closed_held = sink.maps_held(), sink.closed_held()
        timings[name] = row(seconds, fed)
    # The session's own sink set: which events does a real run build?
    _, materialized = _replay_record(
        events, [OnlineCheckSuite(), MetricsSink(), _DeliveriesOnly()]
    )
    counts = {
        # Delta entries folded, plus each delivery's own sender entry.
        "causal_entries_per_delivery": round(
            recorded["causal_entries_folded"] / deliveries + 1.0, 4
        ),
        "events_materialized": materialized,
        "events_materialized_per_delivery": round(materialized / deliveries, 4),
        "client_on_event_calls_per_delivery": round(
            recorded["client_on_event_calls"] / deliveries, 4
        ),
        "causal_delivered_ids_held": causal_ids_held,
        "delivery_records_held": recorded["delivery_records_held"],
        "total_order_maps_held": maps_held,
        "total_order_closed_held": closed_held,
    }
    return {
        "rounds": rounds,
        "trace_events": len(events),
        **recorded,
        "counts": counts,
        "timings": timings,
        "memory": memory_profile(scale),
    }


def check_gates(payload):
    """Assert the exact counts; returns the gates for the JSON."""
    counts = payload["counts"]
    assert counts["causal_entries_per_delivery"] <= MAX_CAUSAL_ENTRIES_PER_DELIVERY, (
        f"OnlineCausalOrder scanned {counts['causal_entries_per_delivery']} vector "
        f"entries per delivery (gate {MAX_CAUSAL_ENTRIES_PER_DELIVERY}): a delivery "
        "is walking more than the entries that moved since the sender's last "
        "message folded at that process"
    )
    assert (
        counts["events_materialized_per_delivery"] <= MAX_EVENTS_MATERIALIZED_PER_DELIVERY
    ), (
        f"{counts['events_materialized_per_delivery']} trace events built per delivery "
        f"(gate {MAX_EVENTS_MATERIALIZED_PER_DELIVERY}): a sink of the online session "
        "subscribes to a kind it only counts (see the count-only rule in net/trace.py)"
    )
    assert counts["client_on_event_calls_per_delivery"] == CLIENT_CALLS_PER_DELIVERY, (
        f"{counts['client_on_event_calls_per_delivery']} client on_event calls per "
        f"delivery (gate {CLIENT_CALLS_PER_DELIVERY}): deliveries are not routed to "
        "their one owner"
    )
    assert counts["causal_delivered_ids_held"] <= MAX_HISTORY_HELD, (
        f"OnlineCausalOrder still holds {counts['causal_delivered_ids_held']} "
        f"delivered ids after the stream (gate {MAX_HISTORY_HELD}): an id is "
        "kept past the one frontier check that looks for it"
    )
    assert counts["delivery_records_held"] <= MAX_HISTORY_HELD, (
        f"the streaming session's processes hold {counts['delivery_records_held']} "
        f"delivery records (gate {MAX_HISTORY_HELD}): a delivery log beside a "
        "streaming recorder keeps records instead of a count"
    )
    assert counts["total_order_maps_held"] <= MAX_HISTORY_HELD, (
        f"OnlineTotalOrder still holds {counts['total_order_maps_held']} deliverer "
        f"maps after the stream (gate {MAX_HISTORY_HELD}): a map is kept past the "
        "point where every member of every view it recorded has delivered its "
        "message"
    )
    return {
        "max_causal_entries_per_delivery": MAX_CAUSAL_ENTRIES_PER_DELIVERY,
        "max_events_materialized_per_delivery": MAX_EVENTS_MATERIALIZED_PER_DELIVERY,
        "client_on_event_calls_per_delivery": CLIENT_CALLS_PER_DELIVERY,
        "max_causal_delivered_ids_held": MAX_HISTORY_HELD,
        "max_delivery_records_held": MAX_HISTORY_HELD,
        "max_total_order_maps_held": MAX_HISTORY_HELD,
    }


def _table(payload):
    counts = payload["counts"]
    rows = [
        f"{payload['trace_events']} events, {payload['deliveries']} deliveries of "
        f"{payload['multicasts']} multicasts; per delivery: "
        f"{counts['causal_entries_per_delivery']} causal entries scanned, "
        f"{counts['events_materialized_per_delivery']} events materialized, "
        f"{counts['client_on_event_calls_per_delivery']} client on_event call(s)",
        f"held after the stream: {counts['causal_delivered_ids_held']} causal "
        f"delivered ids, {counts['delivery_records_held']} process delivery records, "
        f"{counts['total_order_maps_held']} total-order deliverer maps "
        f"({counts['total_order_closed_held']} closed-message tombstones)",
    ]
    for name, timing in payload["timings"].items():
        rows.append(
            f"{name:24s} {timing['us_per_event']:8.3f} us/event over "
            f"{timing['events_fed']} events ({timing['seconds']:.4f} s, "
            f"min of {payload['rounds']})"
        )
    memory = payload["memory"]
    rows.append(
        f"tracemalloc: peak {memory['peak_traced_bytes'] / 1e6:.2f} MB traced; at "
        f"t={memory['sampled_at_sim_s']:g} sim-s {memory['sampled_traced_bytes'] / 1e6:.2f} "
        f"MB held, {memory['sampled_repro_bytes'] / 1e6:.2f} MB of it by src/repro"
    )
    for entry in memory["top_files"]:
        rows.append(f"  {entry['file']:30s} {entry['bytes'] / 1e6:8.3f} MB")
    return rows


def test_observation_path(benchmark):
    payload = benchmark.pedantic(
        measure, kwargs=dict(scale=SMOKE_SCALE, rounds=1), rounds=1, iterations=1
    )
    check_gates(payload)
    RESULTS.add_table("E27 observation path, sink by sink", _table(payload))


def record_results(scale_name, json_path, parallel=None, observe=None,
                   rounds=DEFAULT_ROUNDS):
    """Measure, enforce the count gates, write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    payload = measure(scale, rounds=rounds)
    payload["gates"] = check_gates(payload)
    return write_bench_json(
        json_path,
        "observation_path",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_observation_path.json", SCALES)
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help="replays per sink; the minimum is kept (default: %(default)s)",
    )
    args = parser.parse_args()
    payload = record_results(args.scale, args.json, rounds=args.rounds)
    print(f"{payload['benchmark']} [{payload['scale']}] -> {args.json}")
    for line in _table(payload):
        print("  " + line)


if __name__ == "__main__":
    main()
