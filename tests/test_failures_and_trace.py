"""Unit tests for session faults, drop windows and event tracing."""

import pytest

from repro.api import Session
from repro.net.latency import ConstantLatency
from repro.net.network import Network, NetworkConfig
from repro.net.partitions import partition_hold_time
from repro.net.simulator import Simulator
from repro.net.trace import (
    BLOCKED_SEND,
    CRASH,
    DELIVER,
    DISCARDED,
    EventTrace,
    HELD,
    JsonlSink,
    MemorySink,
    RECEIVE,
    SEND,
    TraceRecorder,
    TraceSink,
    UNBLOCKED_SEND,
    VIEW_INSTALL,
)


FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


def _network():
    sim = Simulator(seed=0)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    for node in ("a", "b", "c"):
        network.attach(node, lambda batch: None)
    return sim, network


# ----------------------------------------------------------------------
# Faults: Session calls, timed with sim.schedule_at
# ----------------------------------------------------------------------
def test_drop_between_window():
    sim, network = _network()
    received = []
    network.detach("b")
    network.attach("b", lambda batch: received.extend(payload for _, payload, _ in batch))
    sim.schedule_at(2.0, network.drop_between, {"a"}, {"b"}, 5.0)
    sim.schedule_at(3.0, network.send, "a", "b", "dropped")
    sim.schedule_at(10.0, network.send, "a", "b", "kept")
    sim.run()
    assert received == ["kept"]
    assert network.stats.messages_dropped_filter == 1


_FAULTS = {
    "crash": lambda session: session.crash("C"),
    "partition": lambda session: session.partition([["A", "B"], ["C"]]),
    "isolate": lambda session: session.isolate(["C"]),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("stack", ["newtop", "primary_partition"])
def test_session_fault_timed_with_schedule_at(stack, fault):
    """A fault timed with ``sim.schedule_at`` is the same Session call as
    an immediate one: it reaches the stack, not only the network."""
    session = Session(stack, config=FAST, seed=1, view_agreement_sets={"g": ["A", "B"]})
    session.spawn(["A", "B", "C"])
    session.group("g")
    sim, partitions = session.sim, session.network.partitions
    sim.schedule_at(2.0, _FAULTS[fault], session)
    session.run(1.9)
    assert not session.stack.is_crashed("C") and partitions.can_communicate("A", "C")
    session.run(0.2)
    if fault == "crash":
        assert session.stack.is_crashed("C")
        assert [event.process for event in session.trace().events(kind=CRASH)] == ["C"]
        session.run(60.0)
        if stack == "newtop":
            for name in ("A", "B"):
                assert session[name].view("g").sorted_members() == ("A", "B")
        assert session.result().passed
        return
    assert not partitions.can_communicate("A", "C")
    minority_send = session.multicast("C", "g", "minority")
    if stack == "primary_partition":
        assert session.stack.halted_memberships() == [("C", "g")]
        assert minority_send is None
    else:
        # Newtop's partitionable membership keeps the minority operating.
        assert minority_send is not None
    heal_at = 2.0 + partition_hold_time(FAST["suspicion_timeout"])
    sim.schedule_at(heal_at, session.heal)
    session.run(heal_at + 0.1 - sim.now)
    assert partitions.can_communicate("A", "C")
    if stack == "primary_partition":
        assert session.stack.halted_memberships() == []
        assert session.multicast("C", "g", "healed") is not None
    else:
        assert session["A"].view("g").sorted_members() == ("A", "B")
        assert session["C"].view("g").sorted_members() == ("C",)
    session.run(30.0)
    assert session.result().passed


# ----------------------------------------------------------------------
# Trace recorder / event trace
# ----------------------------------------------------------------------
def test_recorder_rejects_unknown_kind():
    recorder = TraceRecorder()
    with pytest.raises(ValueError):
        recorder.record(0.0, "bogus", "p1")


def test_trace_filters_and_sequences():
    recorder = TraceRecorder()
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1", clock=1)
    recorder.record(2.0, RECEIVE, "p2", group="g", message_id="m1", sender="p1", clock=1)
    recorder.record(3.0, DELIVER, "p2", group="g", message_id="m1", sender="p1", clock=1)
    recorder.record(2.5, DELIVER, "p1", group="g", message_id="m1", sender="p1", clock=1)
    trace = recorder.trace()
    assert trace.processes() == ["p1", "p2"]
    assert trace.groups() == ["g"]
    assert trace.delivered_ids("p2", "g") == ["m1"]
    assert len(trace.events(kind=DELIVER)) == 2
    latencies = trace.delivery_latencies("g")
    assert sorted(latencies) == [1.5, 2.0]


def test_trace_view_sequence():
    recorder = TraceRecorder()
    recorder.record(0.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2", "p3"), index=0)
    recorder.record(5.0, VIEW_INSTALL, "p1", group="g", members=("p1", "p2"), index=1)
    trace = recorder.trace()
    assert trace.view_sequence("p1", "g") == [
        frozenset({"p1", "p2", "p3"}),
        frozenset({"p1", "p2"}),
    ]


def test_trace_happened_before_transitive():
    recorder = TraceRecorder()
    # p1 sends m1; p2 delivers m1 then sends m2; p3 delivers m2 then sends m3.
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1")
    recorder.record(2.0, DELIVER, "p2", group="g", message_id="m1", sender="p1")
    recorder.record(3.0, SEND, "p2", group="g", message_id="m2", sender="p2")
    recorder.record(4.0, DELIVER, "p3", group="g", message_id="m2", sender="p2")
    recorder.record(5.0, SEND, "p3", group="g", message_id="m3", sender="p3")
    trace = recorder.trace()
    pairs = set(trace.happened_before_pairs())
    assert ("m1", "m2") in pairs
    assert ("m2", "m3") in pairs
    assert ("m1", "m3") in pairs  # transitivity
    assert ("m2", "m1") not in pairs


def test_trace_event_detail_lookup():
    recorder = TraceRecorder()
    event = recorder.record(0.0, VIEW_INSTALL, "p1", group="g", members=("a",), index=3)
    assert event.detail("index") == 3
    assert event.detail("missing", "fallback") == "fallback"


# ----------------------------------------------------------------------
# Sink fan-out isolation (on_sink_error="detach" / "raise")
# ----------------------------------------------------------------------
class _BoomSink:
    """Raises on its Nth event; counts what it saw before that."""

    def __init__(self, explode_at=0):
        self.explode_at = explode_at
        self.seen = 0

    def on_event(self, event):
        if self.seen == self.explode_at:
            raise RuntimeError("sink exploded")
        self.seen += 1

    def close(self):
        pass


class _CountingSink:
    def __init__(self):
        self.seen = 0

    def on_event(self, event):
        self.seen += 1

    def close(self):
        pass


def test_detach_policy_isolates_raising_sink_and_records_error():
    boom = _BoomSink(explode_at=1)
    after = _CountingSink()
    recorder = TraceRecorder(sinks=[boom, after])
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1")
    recorder.record(2.0, SEND, "p1", group="g", message_id="m2", sender="p1")
    # The sink behind the raising one still saw the event that killed it.
    assert after.seen == 2
    assert recorder.detached_sinks == [boom]
    assert len(recorder.sink_errors) == 1
    error = recorder.sink_errors[0]
    assert error["sink"] == "_BoomSink"
    assert "RuntimeError" in error["error"]
    assert error["at_seq"] == 1
    assert error["at_time"] == 2.0
    # Later events no longer reach the detached sink, but flow on.
    recorder.record(3.0, SEND, "p1", group="g", message_id="m3", sender="p1")
    assert boom.seen == 1
    assert after.seen == 3
    assert len(recorder.sink_errors) == 1


def test_sinks_receive_only_the_kinds_they_declare():
    class _Deliveries(_CountingSink):
        KINDS = frozenset({DELIVER})

    everything, deliveries, late = _CountingSink(), _Deliveries(), _Deliveries()
    recorder = TraceRecorder(sinks=[everything, deliveries])
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1")
    recorder.record(2.0, DELIVER, "p2", group="g", message_id="m1", sender="p1")
    # No declaration (duck-typed sinks included) means every kind.
    assert (everything.seen, deliveries.seen) == (2, 1)
    # The routes follow the sink list: add, remove, detach.
    recorder.add_sink(late)
    recorder.remove_sink(deliveries)
    recorder.record(3.0, DELIVER, "p3", group="g", message_id="m1", sender="p1")
    assert (everything.seen, deliveries.seen, late.seen) == (3, 1, 1)
    boom = _BoomSink(explode_at=0)
    recorder.add_sink(boom)
    recorder.record(4.0, DELIVER, "p1", group="g", message_id="m1", sender="p1")
    recorder.record(5.0, DELIVER, "p1", group="g", message_id="m1", sender="p1")
    assert recorder.detached_sinks == [boom] and len(recorder.sink_errors) == 1
    assert (everything.seen, late.seen) == (5, 3)
    with pytest.raises(ValueError, match="unknown trace event kind"):
        recorder.record(6.0, "no_such_kind", "p1")


def test_raise_policy_propagates_sink_exceptions():
    boom = _BoomSink(explode_at=0)
    recorder = TraceRecorder(sinks=[boom], on_sink_error="raise")
    with pytest.raises(RuntimeError, match="sink exploded"):
        recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1")
    # Strict mode never detaches: the bug should stay loud.
    assert recorder.detached_sinks == []
    assert recorder.sink_errors == []


def test_recorder_rejects_unknown_sink_error_policy():
    with pytest.raises(ValueError):
        TraceRecorder(on_sink_error="ignore")


def test_session_fails_when_a_sink_was_detached():

    session = Session("newtop", seed=1, sinks=[_BoomSink(explode_at=2)])
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    session.multicast("P1", "g", "payload")
    session.run(20)
    result = session.result()
    # The protocol checks hold, but the detached observer fails the run.
    assert result.checks is not None and result.checks.passed
    assert result.sink_errors and result.sink_errors[0]["sink"] == "_BoomSink"
    assert not result.passed


# ----------------------------------------------------------------------
# Count-only kinds (streaming recorders) and the per-kind tally
# ----------------------------------------------------------------------
class _Captured(_CountingSink):
    """Keeps the events of the kinds it declares."""

    KINDS = frozenset({SEND, DELIVER, VIEW_INSTALL})

    def __init__(self):
        super().__init__()
        self.events = []

    def on_event(self, event):
        super().on_event(event)
        self.events.append(event)


def _seeded_session(analysis, sinks):
    from repro.core.messages import reset_message_counter

    reset_message_counter()  # message ids are numbered process-wide
    session = Session("newtop", seed=6, analysis=analysis, sinks=sinks)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g1", ["P1", "P2", "P3"])
    session.group("g2", ["P2", "P3", "P4"])
    for round_ in range(3):
        session.multicast("P1", "g1", f"a{round_}")
        session.multicast("P4", "g2", f"b{round_}")
        session.run(1.0)
    session.crash("P4")
    session.run(40)
    return session


def test_online_and_offline_runs_count_and_number_events_alike():
    """One seed, both analysis modes: equal per-kind tally and total, and
    the events the streaming run does build carry the sequence numbers
    the stored trace gives them -- count-only events still take a seq."""
    captured = _Captured()
    online = _seeded_session("online", [captured])
    offline = _seeded_session("offline", None)
    streamed, stored = online.result(), offline.result()
    assert streamed.passed and stored.passed
    assert streamed.trace_events_stored == 0
    by_kind = streamed.metrics["by_kind"]
    assert by_kind == offline.recorder.kind_counts()
    assert by_kind["receive"] > 0 and by_kind["null_send"] > 0
    assert streamed.metrics["events_total"] == sum(by_kind.values())
    assert streamed.trace_events == stored.trace_events == sum(by_kind.values())
    assert len(captured.events) < streamed.trace_events
    assert captured.events == [
        event for event in offline.trace() if event.kind in _Captured.KINDS
    ]


def test_count_only_kinds_follow_the_sink_list():
    deliveries = _Captured()
    recorder = TraceRecorder(sinks=[deliveries], keep_events=False)
    assert recorder.record(1.0, RECEIVE, "p1", group="g", message_id="m1") is None
    built = recorder.record(2.0, DELIVER, "p1", group="g", message_id="m1")
    assert built is not None and built.seq == 1
    # An all-kinds sink makes every kind materialize from the next event...
    boom = recorder.add_sink(_BoomSink(explode_at=1))
    built = recorder.record(3.0, RECEIVE, "p2", group="g", message_id="m1")
    assert built is not None and (built.kind, built.seq) == (RECEIVE, 2)
    assert boom.seen == 1
    # ...until it is gone: it raises on this one, which it still was sent.
    assert recorder.record(4.0, RECEIVE, "p3", group="g", message_id="m1").seq == 3
    assert recorder.detached_sinks == [boom]
    assert recorder.record(5.0, RECEIVE, "p4", group="g", message_id="m1") is None
    assert recorder.record(6.0, DELIVER, "p2", group="g", message_id="m1").seq == 5
    assert recorder.kind_counts() == {RECEIVE: 4, DELIVER: 2}
    assert recorder.events_recorded == 6 and recorder.stored_events == 0
    assert [event.seq for event in deliveries.events] == [1, 5]
    with pytest.raises(ValueError, match="unknown trace event kind"):
        recorder.record(7.0, "no_such_kind", "p1")
    # The checkers and the metrics sink read five kinds, the span sink adds
    # receive, and blocked_send / unblocked_send have a subscriber only when
    # journeys are followed: null_send, suspect and the rest stay count-only.

    def built_kinds(observe):
        routes = Session("newtop", analysis="online", observe=observe).recorder._routes
        return {kind for kind, sinks in routes.items() if sinks}

    checked = {SEND, DELIVER, VIEW_INSTALL, "crash", "depart"}
    blocking = {BLOCKED_SEND, UNBLOCKED_SEND}
    assert built_kinds(True) == checked
    assert built_kinds({"spans": True}) == checked | {RECEIVE}
    assert built_kinds("journeys") == checked | blocking
    assert built_kinds("full") == checked | blocking | {RECEIVE}


def test_lifecycle_kinds_reach_only_the_sinks_that_name_them():
    class _Follower(TraceSink):
        KINDS = frozenset({DELIVER, HELD})

        def __init__(self):
            self.heard = []

        def on_event(self, event):
            self.heard.append(event.kind)

        def on_lifecycle(self, kind, time, process, subject, detail=None, peer=None):
            if subject == "boom":
                raise RuntimeError("follower bug")
            self.heard.append((kind, time, process, subject, detail, peer))

    everything = MemorySink()  # KINDS = None: every *numbered* kind, no lifecycle
    assert TraceRecorder(sinks=[everything]).lifecycle is None
    follower = _Follower()
    recorder = TraceRecorder(sinks=[everything, follower], keep_events=False)
    lifecycle = recorder.lifecycle
    assert lifecycle is not None
    lifecycle(HELD, 1.0, "p1", "m1", "suspected:p2")
    lifecycle(DISCARDED, 1.5, "p1", "m1", "step_viii")  # nobody names it
    recorder.record(2.0, DELIVER, "p1", message_id="m1")
    assert follower.heard == [(HELD, 1.0, "p1", "m1", "suspected:p2", None), DELIVER]
    # Never numbered, tallied, stored or shown to an all-kinds sink ...
    assert recorder.events_recorded == 1 and recorder.kind_counts() == {DELIVER: 1}
    assert [event.kind for event in everything.events] == [DELIVER]
    # ... and not a kind ``record`` takes.
    with pytest.raises(ValueError, match="unknown trace event kind"):
        recorder.record(3.0, HELD, "p1")
    # A sink that raises from it is detached like any other; the handle
    # the layers hold goes quiet, and the attribute goes back to None.
    lifecycle(HELD, 4.0, "p1", "boom")
    assert recorder.detached_sinks == [follower]
    assert recorder.sink_errors[0]["sink"] == "_Follower"
    assert recorder.sink_errors[0]["at_time"] == 4.0
    lifecycle(HELD, 5.0, "p1", "m2")
    recorder.record(6.0, DELIVER, "p1", message_id="m2")
    assert len(follower.heard) == 2 and recorder.lifecycle is None
    strict = TraceRecorder(sinks=[_Follower()], on_sink_error="raise")
    with pytest.raises(RuntimeError, match="follower bug"):
        strict.lifecycle(HELD, 1.0, "p1", "boom")


def test_storing_recorder_builds_every_event_and_tallies_on_demand():
    recorder = TraceRecorder()
    assert recorder.record(1.0, RECEIVE, "p1", message_id="m1").seq == 0
    assert recorder.kind_counts() == {RECEIVE: 1}
    recorder.record(2.0, RECEIVE, "p2", message_id="m1")
    recorder.record(3.0, DELIVER, "p2", message_id="m1")
    assert recorder.kind_counts() == {RECEIVE: 2, DELIVER: 1}
    assert recorder.kind_counts() == {RECEIVE: 2, DELIVER: 1}
    assert recorder.stored_events == 3


def test_metrics_sink_reports_the_recorders_tally():
    from repro.net.trace import MetricsSink

    sink = MetricsSink()
    # Behind a recorder it is sent only what it reads, and counts no kinds
    # of its own: the totals are the recorder's.
    recorder = TraceRecorder(sinks=[sink], keep_events=False)
    recorder.record(1.0, SEND, "p1", group="g", message_id="m1", sender="p1")
    assert recorder.record(1.5, RECEIVE, "p2", group="g", message_id="m1") is None
    recorder.record(2.0, DELIVER, "p2", group="g", message_id="m1", sender="p1")
    snapshot = sink.snapshot(recorder.kind_counts())
    assert snapshot["by_kind"] == {SEND: 1, RECEIVE: 1, DELIVER: 1}
    assert snapshot["events_total"] == 3 and snapshot["latency"]["count"] == 1
    assert not hasattr(sink, "by_kind") and not hasattr(sink, "events_total")


# ----------------------------------------------------------------------
# JsonlSink round-trips
# ----------------------------------------------------------------------
def test_jsonl_sink_round_trips_rich_details(tmp_path):
    import json

    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path)
    recorder = TraceRecorder(sinks=[sink], on_sink_error="raise")
    recorder.record(
        0.0, VIEW_INSTALL, "p1", group="g",
        members=frozenset({"p2", "p1"}), index=0,
    )
    recorder.record(
        1.5, SEND, "p1", group="g", message_id="m1", sender="p1", clock=4,
        targets={"p3", "p2"}, route=("p1", "p2"),
    )
    recorder.close()
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    assert sink.events_written == 2
    assert [line["seq"] for line in lines] == [0, 1]
    # Sets and frozensets serialize as sorted lists; tuples as lists.
    assert lines[0]["details"]["members"] == ["p1", "p2"]
    assert lines[1]["details"]["targets"] == ["p2", "p3"]
    assert lines[1]["details"]["route"] == ["p1", "p2"]
    assert lines[1]["clock"] == 4


def test_jsonl_sink_leaves_borrowed_files_open():
    import io
    import json

    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    recorder = TraceRecorder(sinks=[sink], on_sink_error="raise")
    recorder.record(0.5, SEND, "p1", group="g", message_id="m1", sender="p1")
    recorder.close()
    # Borrowed handle: flushed, not closed -- the caller still owns it.
    assert not buffer.closed
    payload = json.loads(buffer.getvalue().strip())
    assert payload["kind"] == SEND and payload["message_id"] == "m1"
    buffer.write("still writable\n")


_LOSSY_LINK_RUN = """
import json
from repro.api import Session
from repro.scenarios import SCENARIO_PROTOCOL_DEFAULTS as FAST

names = ["P1", "P2", "P3", "P4", "P5"]
session = Session("newtop", config=FAST, seed=1)
session.spawn(names)
session.group("g", names)
session.run(1.0)
session.network.drop_between({"P1"}, {"P2"}, 2.5)
for index in range(4):
    for sender in names:
        session.multicast(sender, "g", f"m{index}/{sender}")
    session.run(1.0)
session.run(20.0)
print(json.dumps(session.result().checks.violations))
"""


def test_offline_violation_order_does_not_depend_on_the_hash_seed():
    """P2 never gets what P1 sent it for 2.5 time units and delivers what
    the others sent after it: thirteen causal-prefix violations, found by
    walking ``happened_before_pairs`` -- whose order was a set's."""
    import json
    import os
    import subprocess
    import sys

    def violations(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        done = subprocess.run(
            [sys.executable, "-c", _LOSSY_LINK_RUN],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout)

    first, second = violations("1"), violations("2")
    assert len(first) == 13 and all("causally" in line for line in first)
    assert first == second
