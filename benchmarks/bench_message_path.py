"""E28 -- the message path, call by call (ROADMAP 1b's second layer
microbenchmark).

What one protocol message costs between ``GroupEndpoint.broadcast_data``
and the end of ``NewtopProcess._on_transport_batch``: the trip out through
``Endpoint.multicast`` and ``Network.multicast``, the trip in through
``Network._deliver_batch`` and ``Endpoint._on_network_delivery_batch``,
and the ``settle()`` that follows the receipts.  On the ledger's
``churn_idle`` workload -- 99 % time-silence nulls and beacons -- those
layers are more than half of host time; this benchmark counts what they
do and measures each piece alone.

One seeded session of ``churn_idle``'s shape (overlapping groups idling
under crash / leave / formation churn) runs once, verified online, under
counting wrappers the benchmark installs on the classes itself and removes
again -- nothing in ``src/`` counts for it:

* transport batches handed to ``NewtopProcess._on_transport_batch``,
  ``settle()`` passes, passes per batch, and passes that changed nothing:
  every pass is bracketed by a snapshot of what a settle can change
  (deliveries, trace and simulator sequence counters, queue depth, sends,
  and per group the two timers, deferred sends, pending view changes and
  view index -- the probe of ``tests/test_settle_demand.py``'s oracle);
* calls into the transport's and the network's send path (``send`` or
  ``multicast``, a nested call counting once) per message sent.

Then, on small hand-built fixtures, minimum of ``--rounds``:

* microseconds per destination of an 11-way ``Endpoint.multicast``, with
  uniform latency and with ``batch_window=0.25`` (``churn_idle`` runs at
  0.25);
* microseconds from ``Network._deliver_batch`` to the protocol handler's
  return for a batch of one null (an inert one: it ends without a settle);
* microseconds per ``settle()`` that finds nothing.

Timings are **reported only** -- they move with the box.  What CI gates are
the counts, which repeat exactly per seed:

* ``settle()`` passes per transport batch ``<= 0.40`` on the full shape
  and ``<= 0.55`` on the smoke shape (settling after every batch, plus the
  settles outside batches, is 1.10 on the full shape);
* calls into ``Endpoint`` + ``Network`` send per message sent ``<= 0.8``
  (one call into each per destination is 2.0 by construction);
* null multicasts per isolated burst ``== 24``: two multicasts into an
  idle 12-member symmetric group at a constant link delay of 1.2 (no
  latency draw, so the count is exact on any commit that sends the same).
  Each member acknowledges the burst once and the two senders once more;
  it was 34 while a member owed nulls until the burst was stable at it,
  re-announcing an ``ldn`` it had already sent.

Run as a script for the CI gate::

    python benchmarks/bench_message_path.py --scale smoke \
        --json BENCH_message_path.json
"""

import time
from contextlib import contextmanager

from common import RESULTS, benchmark_arg_parser, write_bench_json

from repro.api import Session
from repro.core import NewtopConfig
from repro.core.messages import DataMessage, reset_message_counter
from repro.core.process import NewtopProcess
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.trace import NULL_SEND
from repro.net.transport import Endpoint, Transport
from repro.scenarios import ScenarioEngine, churn_scenario, from_config

#: The ledger's ``churn_idle`` seed-0 unit.
FULL_SCALE = dict(
    n_processes=500, n_groups=25, group_size=12, crashes=6, leaves=6,
    formations=3, messages_per_sender=1, seed=23,
)
SMOKE_SCALE = dict(FULL_SCALE, n_processes=100, n_groups=5)
SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}

DEFAULT_ROUNDS = 5

#: The gates: exact counts (see the module docstring).  The smoke shape
#: has the full shape's churn on a fifth of its processes, so a larger
#: share of its batches carry membership traffic (0.46 against 0.31; at
#: one settle per batch both are above 1).
MAX_SETTLE_PASSES_PER_BATCH = {"smoke": 0.55, "full": 0.40}
MAX_SEND_CALLS_PER_MESSAGE = 0.8
NULL_MULTICASTS_PER_BURST = 24

FANOUT = 11


def _settle_snapshot(process):
    """Everything a ``settle()`` can change."""

    def when(timer):
        return None if timer is None else timer.time

    return (
        len(process.delivered),
        process.recorder.events_recorded,
        process.sim._next_sequence,
        process.delivery_queue.pending_count(),
        process.transport_endpoint.stats.sent,
        tuple(
            (
                endpoint.time_silence.idle_armed,
                when(endpoint.time_silence._timer),
                endpoint.suspector.dozing,
                endpoint.suspector._pulled,
                when(endpoint.suspector._timer),
                len(endpoint.deferred_sends),
                len(endpoint.pending_view_changes),
                endpoint.view.index,
            )
            for endpoint in process._endpoints.values()
        ),
    )


@contextmanager
def counting_wrappers():
    """Count batches, settle passes (and the ones that changed nothing) and
    send-path entries, on the classes, for the duration of the block."""
    counts = dict(
        transport_batches=0, settle_passes=0, settle_passes_changing_nothing=0,
        endpoint_send_calls=0, network_send_calls=0,
    )
    originals = []

    def patch(cls, name, wrapper):
        originals.append((cls, name, getattr(cls, name)))
        setattr(cls, name, wrapper)

    settle = NewtopProcess.settle
    on_batch = NewtopProcess._on_transport_batch

    def counted_settle(self):
        counts["settle_passes"] += 1
        before = _settle_snapshot(self)
        settle(self)
        if _settle_snapshot(self) == before:
            counts["settle_passes_changing_nothing"] += 1

    def counted_batch(self, messages):
        counts["transport_batches"] += 1
        on_batch(self, messages)

    def entry_counter(cls, key):
        """``send`` is ``multicast``'s one-destination case: count a call
        into the layer once, however it nests."""
        depth = [0]
        for name in ("send", "multicast"):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, **kwargs):
                if not depth[0]:
                    counts[key] += 1
                depth[0] += 1
                try:
                    return _original(self, *args, **kwargs)
                finally:
                    depth[0] -= 1

            patch(cls, name, counted)

    patch(NewtopProcess, "settle", counted_settle)
    patch(NewtopProcess, "_on_transport_batch", counted_batch)
    entry_counter(Endpoint, "endpoint_send_calls")
    entry_counter(Network, "network_send_calls")
    try:
        yield counts
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)


def count_session(scale):
    """Run the seeded churn session once under the counting wrappers."""
    reset_message_counter()
    with counting_wrappers() as counts:
        # Processes bind their handlers at construction: build inside.
        engine = ScenarioEngine(from_config(churn_scenario(**scale)), analysis="online")
        result = engine.run()
    assert result.passed, result.checks.violations[:3]
    assert result.trace_events_stored == 0
    messages = engine.session.network.stats.messages_sent
    send_calls = counts["endpoint_send_calls"] + counts["network_send_calls"]
    return {
        "deliveries": result.deliveries,
        "messages_sent": messages,
        "simulator_events": result.events_processed,
        **counts,
        "settle_passes_per_batch": round(
            counts["settle_passes"] / counts["transport_batches"], 4
        ),
        "send_calls_per_message": round(send_calls / messages, 4),
    }


def count_isolated_burst(members=12, delay=1.2):
    """Numbered nulls sent in an idle symmetric group after two
    multicasts into it, until it is quiet again."""
    reset_message_counter()
    session = Session(
        "newtop", seed=1, latency_model=ConstantLatency(delay),
        config=NewtopConfig(omega=2.0, suspicion_timeout=10.0),
    )
    session.spawn([f"P{index:02d}" for index in range(1, members + 1)])
    session.group("g")
    session.run(20.3)
    burst_at = session.sim.now
    session.multicast("P01", "g", "a")
    session.multicast("P02", "g", "b")
    session.run(30.0)
    result = session.result()
    assert result.passed and result.deliveries == 2 * members
    # A heartbeat wake's ``null_send`` names no group.
    return sum(
        1 for event in session.trace()
        if event.kind == NULL_SEND and event.group == "g" and event.time >= burst_at
    )


# ---------------------------------------------------------------------------
# The pieces, alone
# ---------------------------------------------------------------------------
def _time_multicast(batch_window, multicasts=400):
    """Seconds per destination of an 11-way ``Endpoint.multicast``."""
    sim = Simulator(seed=3)
    network = Network(
        sim,
        NetworkConfig(latency_model=UniformLatency(0.5, 1.5), batch_window=batch_window),
    )
    transport = Transport(network)
    names = [f"N{index:02d}" for index in range(FANOUT + 1)]
    endpoints = [transport.endpoint(name) for name in names]
    for endpoint in endpoints:
        endpoint.register_handler("newtop", lambda messages: None)
    elapsed = 0.0
    for index in range(multicasts):
        sender = endpoints[index % len(endpoints)]
        dsts = tuple(name for name in names if name != sender.node_id)
        payload = DataMessage.null(sender.node_id, "g", index + 1, index)
        size = payload.wire_size_bytes()
        start = time.perf_counter()
        accepted = sender.multicast(dsts, payload, "newtop", size, "null_time_silence")
        elapsed += time.perf_counter() - start
        assert accepted == FANOUT
        sim.run(until=sim.now + 0.1)  # untimed: keep the heap at its working size
    sim.run()
    assert network.stats.messages_delivered == multicasts * FANOUT
    return elapsed / (multicasts * FANOUT)


def _idle_trio():
    """Three processes idling in one symmetric group; returns the session
    and P1 with P2's ``RV`` entry the only one at the minimum, so nulls
    from P3 are inert."""
    reset_message_counter()
    session = Session(
        "newtop", seed=1, analysis="online",
        config=NewtopConfig(omega=1.0, suspicion_timeout=6.0),
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    session.run(20.0)
    process = session["P1"]
    vector = process.endpoint("g").engine.receive_vector
    vector.update("P1", 10**6)
    vector.update("P3", 10**6)
    process.settle()
    return session, process


def _time_null_receipt(receipts=2000):
    """Seconds from ``Network._deliver_batch`` to the handler's return for
    a batch of one null."""
    session, process = _idle_trio()
    network = session.network
    sender = session.transport.get("P3")
    settles = [0]
    settle = process.settle
    process.settle = lambda: settles.__setitem__(0, settles[0] + 1) or settle()
    elapsed = 0.0
    for index in range(receipts):
        null = DataMessage.null("P3", "g", 10**6 + 1 + index, 0)
        in_flight = set(network._open_batches)
        assert sender.send("P1", null, "newtop", null.wire_size_bytes())
        (key,) = set(network._open_batches) - in_flight
        start = time.perf_counter()
        network._deliver_batch(key)
        elapsed += time.perf_counter() - start
    del process.settle
    assert process.endpoint("g").engine.receive_vector["P3"] == 10**6 + receipts
    assert settles[0] == 0, "the nulls were meant to be inert"
    return elapsed / receipts


def _time_idle_settle(passes=5000):
    """Seconds per ``settle()`` that finds nothing."""
    _, process = _idle_trio()
    before = _settle_snapshot(process)
    start = time.perf_counter()
    for _ in range(passes):
        process.settle()
    elapsed = time.perf_counter() - start
    assert _settle_snapshot(process) == before
    return elapsed / passes


PIECES = {
    "multicast_per_destination": lambda: _time_multicast(0.0),
    "multicast_per_destination_batch_window": lambda: _time_multicast(0.25),
    "null_receipt_deliver_batch_to_handler_return": _time_null_receipt,
    "settle_finding_nothing": _time_idle_settle,
}


def measure(scale=None, rounds=DEFAULT_ROUNDS):
    """Count once, time each piece ``rounds`` times, keep the minimum."""
    scale = SMOKE_SCALE if scale is None else scale
    counts = count_session(scale)
    counts["null_multicasts_per_isolated_burst"] = count_isolated_burst()
    timings = {
        name + "_us": round(1e6 * min(piece() for _ in range(rounds)), 3)
        for name, piece in PIECES.items()
    }
    return {"rounds": rounds, "counts": counts, "timings": timings}


def check_gates(payload, scale_name="smoke"):
    """Assert the exact counts; returns the gates for the JSON."""
    counts = payload["counts"]
    max_passes = MAX_SETTLE_PASSES_PER_BATCH[scale_name]
    assert counts["settle_passes_per_batch"] <= max_passes, (
        f"{counts['settle_passes_per_batch']} settle() passes per transport batch "
        f"(gate {max_passes}): batches of inert receipts are being settled "
        "(see NewtopProcess.settle for the rule)"
    )
    assert counts["send_calls_per_message"] <= MAX_SEND_CALLS_PER_MESSAGE, (
        f"{counts['send_calls_per_message']} calls into Endpoint + Network send per "
        f"message sent (gate {MAX_SEND_CALLS_PER_MESSAGE}): a fan-out is making one "
        "trip per destination instead of one per multicast"
    )
    burst = counts["null_multicasts_per_isolated_burst"]
    assert burst == NULL_MULTICASTS_PER_BURST, (
        f"{burst} null multicasts per isolated burst (gate {NULL_MULTICASTS_PER_BURST}): "
        "a member owes a null for work a message of its own already did "
        "(see GroupEndpoint.owes_group)"
    )
    return {
        "max_settle_passes_per_batch": max_passes,
        "max_send_calls_per_message": MAX_SEND_CALLS_PER_MESSAGE,
        "null_multicasts_per_isolated_burst": NULL_MULTICASTS_PER_BURST,
    }


def _table(payload):
    counts = payload["counts"]
    rows = [
        f"{counts['messages_sent']} messages, {counts['transport_batches']} transport "
        f"batches, {counts['settle_passes']} settle() passes "
        f"({counts['settle_passes_per_batch']} per batch; "
        f"{counts['settle_passes_changing_nothing']} changed nothing), "
        f"{counts['send_calls_per_message']} send-path calls per message "
        f"({counts['endpoint_send_calls']} transport + {counts['network_send_calls']} network)",
        f"{counts['null_multicasts_per_isolated_burst']} null multicasts per isolated "
        "burst (two multicasts into an idle 12-member group)",
    ]
    for name, value in payload["timings"].items():
        rows.append(f"{name:52s} {value:8.3f} (min of {payload['rounds']})")
    return rows


def test_message_path(benchmark):
    payload = benchmark.pedantic(
        measure, kwargs=dict(scale=SMOKE_SCALE, rounds=1), rounds=1, iterations=1
    )
    check_gates(payload)
    RESULTS.add_table("E28 message path, call by call", _table(payload))


def record_results(scale_name, json_path, parallel=None, observe=None,
                   rounds=DEFAULT_ROUNDS):
    """Measure, enforce the count gates, write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    payload = measure(scale, rounds=rounds)
    payload["gates"] = check_gates(payload, scale_name)
    return write_bench_json(
        json_path,
        "message_path",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_message_path.json", SCALES)
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help="repeats per timed piece; the minimum is kept (default: %(default)s)",
    )
    args = parser.parse_args()
    payload = record_results(args.scale, args.json, rounds=args.rounds)
    print(f"{payload['benchmark']} [{payload['scale']}] -> {args.json}")
    for line in _table(payload):
        print("  " + line)


if __name__ == "__main__":
    main()
