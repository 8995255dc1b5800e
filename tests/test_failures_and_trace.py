"""Unit tests for session faults, drop windows and event tracing."""

import hashlib
import json
from collections import Counter

import pytest

from oracle_checkers import happened_before_pairs, trace_groups
from repro.api import Session
from repro.apps.kv import ShardedKV
from repro.core.messages import reset_message_counter
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
    KV_APPLY,
    MemorySink,
    RECEIVE,
    SEND,
    TraceEvent,
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
    assert trace_groups(trace) == ["g"]
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
    pairs = set(happened_before_pairs(trace))
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


class _BoomRunSink:
    """Takes deliveries as runs; raises at its Nth delivery."""

    KINDS = frozenset({DELIVER})

    def __init__(self, explode_at=None):
        self.explode_at = explode_at
        self.seen = []

    def on_event(self, event):
        raise AssertionError("a run sink's deliveries come as runs")

    def on_deliveries(self, time, process, run, first_seq):
        for seq, entry in enumerate(run, first_seq):
            if len(self.seen) == self.explode_at:
                raise RuntimeError("run sink exploded")
            self.seen.append((seq, entry[1]))

    def close(self):
        pass


def _run(*message_ids, view_index=0):
    return [("g", message_id, "p2", 1, view_index) for message_id in message_ids]


def test_detach_policy_isolates_a_sink_raising_mid_run():
    """A sink raising inside ``on_deliveries`` is detached once and named
    in ``sink_errors`` at the run's first ``seq`` (the recorder does not
    see which entry it was on); the sinks after it still see the whole run,
    and later runs no longer reach it.  A sink fed built events is named
    at the event it raised on."""
    boom, after = _BoomRunSink(explode_at=1), _BoomRunSink()
    events_boom, events_after = _BoomSink(explode_at=2), _CountingSink()
    recorder = TraceRecorder(
        sinks=[boom, after, events_boom, events_after], keep_events=False
    )
    recorder.record(1.0, SEND, "p2", group="g", message_id="m1", sender="p2")
    built = recorder.record_deliveries(2.0, "p1", _run("m1", "m2", "m3"))
    assert [event.seq for event in built] == [1, 2, 3]
    assert built[0] == TraceEvent(
        2.0, DELIVER, "p1", "g", "m1", "p2", 1, (("view_index", 0),), 1
    )
    assert after.seen == [(1, "m1"), (2, "m2"), (3, "m3")]
    assert boom.seen == [(1, "m1")]
    assert recorder.detached_sinks == [boom, events_boom]
    assert [(e["sink"], e["at_seq"], e["at_time"]) for e in recorder.sink_errors] == [
        ("_BoomRunSink", 1, 2.0),
        ("_BoomSink", 2, 2.0),
    ]
    assert "run sink exploded" in recorder.sink_errors[0]["error"]
    # The next run reaches neither raising sink; numbering and tally go on.
    recorder.record_deliveries(3.0, "p3", _run("m1", "m2"))
    assert boom.seen == [(1, "m1")] and events_boom.seen == 2
    assert after.seen[-2:] == [(4, "m1"), (5, "m2")]
    assert events_after.seen == 1 + 3 + 2
    assert len(recorder.sink_errors) == 2
    assert recorder.events_recorded == 6
    assert recorder.kind_counts() == {SEND: 1, DELIVER: 5}


def test_a_run_reaching_no_event_sink_builds_no_event():
    run_sink = _BoomRunSink()
    recorder = TraceRecorder(sinks=[run_sink], keep_events=False)
    assert recorder.record_deliveries(1.0, "p1", _run("m1", "m2")) == []
    assert run_sink.seen == [(0, "m1"), (1, "m2")]
    stored = TraceRecorder(sinks=[_BoomRunSink()])
    built = stored.record_deliveries(1.0, "p1", _run("m1", "m2", view_index=3))
    assert list(stored.trace()) == built
    assert [event.detail("view_index") for event in built] == [3, 3]


#: ``(seq, kind, process, message_id)`` rows of the two sessions below,
#: pinned as they were recorded while every delivery was its own record
#: call: cutting a run at each callback keeps every sequence number.
CALLBACK_TRACE_DIGESTS = {"kv": "266d81c3dab3b3a0", "multicast": "312bb37b04433ca0"}


def _trace_digest(events):
    rows = [(event.seq, event.kind, event.process, event.message_id) for event in events]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _most_deliveries_at_one_instant(events):
    instants = Counter((event.time, event.process) for event in events if event.kind == DELIVER)
    return max(instants.values())


def _after_each_delivery(events, process, predicate):
    """The event ``process`` recorded right after each of its deliveries
    that ``predicate`` selects, in order."""
    mine = [event for event in events if event.process == process]
    return [
        mine[index + 1]
        for index, event in enumerate(mine)
        if event.kind == DELIVER and predicate(event)
    ]


def test_a_kv_apply_is_recorded_between_its_deliver_and_the_next():
    """``apps.kv`` records ``kv_apply`` from its delivery callback: a replica
    that delivers three writes at one instant records deliver, kv_apply,
    deliver, kv_apply, ... with consecutive sequence numbers."""
    reset_message_counter()
    members = ["s0r0", "s0r1", "s0r2"]
    session = Session("newtop", seed=3)
    session.spawn(members)
    store = ShardedKV(session)
    store.bootstrap({"s0": members})
    session.run(1.0)
    acks = []
    for index in range(6):
        outcome = store.submit(
            client="c1", client_op=f"op{index}", op="set", key=f"key{index}",
            value=index, via=members[index % 3], ring=store.ring, callback=acks.append,
        )
        assert outcome["status"] == "submitted"
    assert session.run_until(lambda: len(acks) == 6, timeout=60)
    session.run(5.0)
    assert session.result().passed
    events = sorted(session.trace(), key=lambda event: event.seq)
    assert _most_deliveries_at_one_instant(events) == 3
    for member in members:
        delivers = [e for e in events if e.process == member and e.kind == DELIVER]
        applies = _after_each_delivery(events, member, lambda event: True)
        assert len(applies) == len(delivers) > 0
        for deliver, apply in zip(delivers, applies):
            assert (apply.kind, apply.message_id) == (KV_APPLY, deliver.message_id)
            assert apply.seq == deliver.seq + 1
    assert _trace_digest(events) == CALLBACK_TRACE_DIGESTS["kv"]


def test_a_multicast_from_a_delivery_callback_is_recorded_before_the_next_deliver():
    """P2 answers each of P1's messages from its delivery callback; it
    delivers all five at one instant, and each answer's ``send`` sits
    between the ``deliver`` that caused it and the next one."""
    reset_message_counter()
    session = Session("newtop", seed=7)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    replies = []

    def reply(group, sender, payload, msg_id):
        if sender == "P1":
            replies.append(session["P2"].multicast("g", ("re", payload)))

    session["P2"].add_delivery_callback(reply)
    for index in range(5):
        session.multicast("P1", "g", index)
    session.run(20.0)
    assert session.result().passed and len(replies) == 5
    events = sorted(session.trace(), key=lambda event: event.seq)
    assert _most_deliveries_at_one_instant(events) == 5
    sends = _after_each_delivery(events, "P2", lambda event: event.sender == "P1")
    assert [(event.kind, event.message_id) for event in sends] == [
        (SEND, message_id) for message_id in replies
    ]
    assert _trace_digest(events) == CALLBACK_TRACE_DIGESTS["multicast"]


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
    # The checkers and the metrics sink read five kinds, the metrics sink's
    # span stages add receive, and blocked_send / unblocked_send have a subscriber only when
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
import sys
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
if sys.argv[1] == "oracle":
    from oracle_checkers import check_all
    print(json.dumps(check_all(session.trace()).violations))
else:
    print(json.dumps(session.result().checks.violations))
"""


def _lossy_link_violations(hash_seed, checker):
    """The violations ``checker`` ("session" or "oracle") reports on
    :data:`_LOSSY_LINK_RUN`, run under ``PYTHONHASHSEED=hash_seed``."""
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    done = subprocess.run(
        [sys.executable, "-c", _LOSSY_LINK_RUN, checker],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_offline_violation_order_does_not_depend_on_the_hash_seed():
    """P2 never gets what P1 sent it for 2.5 time units and delivers what
    the others sent after it: the session's suite reports three
    causal-prefix violations, one per predecessor P2 missed, in the same
    order under any hash seed."""
    first = _lossy_link_violations("1", "session")
    second = _lossy_link_violations("2", "session")
    assert len(first) == 3 and all("without causally preceding" in line for line in first)
    assert first == second


def test_oracle_violation_order_does_not_depend_on_the_hash_seed():
    """The same run under the tests' post-hoc oracle: thirteen causal-prefix
    violations, one per (missed predecessor, later delivery) pair, found by
    walking ``happened_before_pairs`` -- whose order was a set's."""
    first = _lossy_link_violations("1", "oracle")
    second = _lossy_link_violations("2", "oracle")
    assert len(first) == 13 and all("causally" in line for line in first)
    assert first == second
