"""Tests for :mod:`repro.obs.journey` (PR 9).

Covers the deterministic 1-in-N sampler (same message ids tracked across
runs with the same seed, no simulation RNG drawn), the lifecycle tracker
(transitions, wait-state reservoirs, overflow and truncation bounds), the
cause-counter partition invariant at the E19 smoke scale, the journey
explorer CLI (``python -m repro.obs journey``) with its one-line error
contract, and explain-the-violation (implicated-message extraction plus
the pinned-replay that embeds journeys into fuzz repro artifacts).  The
behaviour-free half of the contract is pinned in
``tests/test_hot_path_equivalence.py``.
"""

import json

import pytest

from repro.api import Session
from repro.core.messages import (
    ConfirmMessage,
    DataMessage,
    SequencerRequest,
    SuspectMessage,
)
from repro.net.latency import ConstantLatency
from repro.net.trace import (
    BLOCKED_SEND,
    DELIVER,
    DISCARDED,
    HELD,
    RELEASED,
    SEND,
    TRANSMITTED,
    UNBLOCKED_SEND,
    WIRE_DROPPED,
    WIRE_RECEIVED,
    TraceEvent,
    TraceRecorder,
)
from repro.net.transport import TransportMessage
from repro.obs import Observation
from repro.obs.journey import (
    MAX_TRANSITIONS,
    WAIT_STATES,
    JourneyTracker,
    payload_msg_id,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    document_has_journeys,
    document_has_renderable_content,
    paste_columns,
    render_document,
    render_journey_document,
)
from repro.scenarios import churn_scenario, run_scenario
from repro.scenarios.fuzz import (
    FuzzFailure,
    explain_journeys,
    implicated_message_ids,
    write_artifact,
)


# ----------------------------------------------------------------------
# Sampling: deterministic, seeded, RNG-free
# ----------------------------------------------------------------------
def test_sampling_decision_is_deterministic_per_seed():
    ids = [f"P{p}#{c}" for p in range(1, 9) for c in range(40)]
    first = JourneyTracker(MetricsRegistry(), sample_rate=8, seed=3)
    second = JourneyTracker(MetricsRegistry(), sample_rate=8, seed=3)
    sampled = {msg_id for msg_id in ids if first.wants(msg_id)}
    assert sampled == {msg_id for msg_id in ids if second.wants(msg_id)}
    assert 0 < len(sampled) < len(ids)
    # A different seed samples a different subset of the same id space.
    other = JourneyTracker(MetricsRegistry(), sample_rate=8, seed=4)
    assert sampled != {msg_id for msg_id in ids if other.wants(msg_id)}


def _multicast(msg_id, sender="P1", clock=1, **fields):
    """An application message as a symmetric group's member multicasts it."""
    return DataMessage(msg_id, sender, "g", clock, 0, payload="x", **fields)


def _transmit(tracker, message, now=0.0, cause="app_multicast", peer=None):
    """What ``broadcast_data`` / ``send_to_member`` report (with ``peer``)."""
    origin = getattr(message, "origin", None) or message.sequenced_by or message.sender
    tracker.on_lifecycle(TRANSMITTED, now, origin, message, cause, peer)


def _envelope(message, src, dst, sent_at):
    return TransportMessage(src, dst, "newtop", message, 1, 0, sent_at)


def test_force_ids_are_tracked_regardless_of_sampling():
    tracker = JourneyTracker(
        MetricsRegistry(), sample_rate=1 << 32, force_ids=["P1#7"]
    )
    assert tracker.wants("P1#7")
    _transmit(tracker, _multicast("P1#7"))
    _transmit(tracker, _multicast("P2#9", sender="P2"))
    assert tracker.journey("P1#7") is not None
    assert tracker.journey("P2#9") is None
    snapshot = tracker.snapshot()
    assert [j["msg_id"] for j in snapshot["forced"]] == ["P1#7"]
    assert snapshot["skipped"] == 1


def test_journey_sampling_deterministic_across_identical_runs():
    from repro.core.messages import reset_message_counter

    def observed_run():
        # Message ids number from a process-global counter; reset it so
        # both runs see identical ids (run_scenario resets it itself).
        reset_message_counter()
        session = Session(
            "newtop", seed=11, analysis="online",
            observe={"journeys": True, "journey_sample_rate": 2},
        )
        session.spawn(["P1", "P2", "P3"])
        session.group("g")
        for index in range(6):
            session.multicast("P1", "g", f"m-{index}")
            session.run(1.0)
        session.run(25.0)
        return session.result().obs["journeys"]

    first, second = observed_run(), observed_run()
    assert first == second
    assert first["tracked"] > 0
    assert {j["msg_id"] for j in first["slowest"]} == {
        j["msg_id"] for j in second["slowest"]
    }


# ----------------------------------------------------------------------
# Lifecycle recording
# ----------------------------------------------------------------------
def test_tracker_records_full_lifecycle_and_wait_states():
    """Fed what the recorder would feed it: the numbered events through
    ``on_event``, the lifecycle steps (with the protocol objects
    themselves) through ``on_lifecycle``.  P1's send waits in the deferred
    queue, goes to the sequencer P0, comes back sequenced, and reaches P2
    while P2 suspects P0."""
    tracker = JourneyTracker(MetricsRegistry(), sample_rate=1)
    recorder = TraceRecorder(sinks=[tracker], keep_events=False)
    lifecycle = recorder.lifecycle
    request = SequencerRequest("P1#0", "P1", "g", 1, payload="x")
    recorder.record(0.0, BLOCKED_SEND, "P1", group="g", reason="flow_control")
    recorder.record(0.25, UNBLOCKED_SEND, "P1", group="g")
    lifecycle(TRANSMITTED, 0.25, "P1", request, "app_multicast", "P0")
    recorder.record(0.25, SEND, "P1", group="g", message_id="P1#0", sender="P1")
    sequenced = _multicast(
        "P1#0", clock=2, sequenced_by="P0", origin_request="P1#0"
    )
    lifecycle(TRANSMITTED, 0.75, "P0", sequenced, "app_multicast")
    envelope = _envelope(sequenced, "P0", "P2", sent_at=0.75)
    lifecycle(WIRE_RECEIVED, 1.25, "P2", envelope)
    lifecycle(WIRE_RECEIVED, 1.3, "P2", envelope)  # a duplicate frame: ignored
    lifecycle(HELD, 1.25, "P2", sequenced, "suspected:P0")
    lifecycle(RELEASED, 1.75, "P2", sequenced)
    lifecycle(RELEASED, 1.8, "P2", sequenced)  # nothing held: ignored
    recorder.record(2.25, DELIVER, "P2", group="g", message_id="P1#0", sender="P1")
    lifecycle(DISCARDED, 2.5, "P3", sequenced, "excluded_sender")
    lifecycle(WIRE_DROPPED, 2.5, None, _envelope(sequenced, "P0", "P4", 0.75), "partition")
    # Other messages' steps, and steps of things without an id, are ignored.
    lifecycle(HELD, 2.5, "P2", _multicast("P9#9"), "suspected:P9")
    lifecycle(WIRE_DROPPED, 2.5, None, "a raw frame", "filter")
    assert not recorder.sink_errors
    journey = tracker.journey("P1#0")
    assert journey["cause"] == "app_multicast" and journey["sender"] == "P1"
    assert journey["deliveries"] == 1
    assert journey["latency"] == pytest.approx(2.0)
    assert [tuple(t) for t in journey["transitions"]] == [
        ("created", 0.25, "P1", "app_multicast"),
        ("sent_to_sequencer", 0.25, "P1", "P0"),
        ("unblocked", 0.25, "P1", 0.25),
        ("sequenced", 0.75, "P0", None),
        ("received", 1.25, "P2", None),
        ("held", 1.25, "P2", "suspected:P0"),
        ("released", 1.75, "P2", None),
        ("delivered", 2.25, "P2", None),
        ("discarded", 2.5, "P3", "excluded_sender"),
        ("wire_dropped", 2.5, "P4", "partition"),
    ]
    stages = tracker.snapshot()["wait_states"]["app_multicast"]
    assert stages["blocked_send"]["max"] == pytest.approx(0.25)
    assert stages["sequencer_queue"]["max"] == pytest.approx(0.5)
    assert stages["transit"]["max"] == pytest.approx(0.5)
    assert stages["suspicion_hold"]["max"] == pytest.approx(0.5)
    assert stages["causal_hold"]["max"] == pytest.approx(1.0)
    assert stages["latency"]["max"] == pytest.approx(2.0)
    assert set(stages) == set(WAIT_STATES)


def test_journey_starts_at_the_first_transmission_of_an_id():
    tracker = JourneyTracker(MetricsRegistry(), sample_rate=1)
    # A sequencer's own send has no unicast leg: created and sequenced at once.
    _transmit(tracker, _multicast("P0#1", sender="P0", sequenced_by="P0"), now=1.0)
    assert [t[0] for t in tracker.journey("P0#1")["transitions"]] == [
        "created", "sequenced",
    ]
    # A failover resend continues a journey, it never starts one: neither
    # the re-unicast request nor the new sequencer's own copy of its request.
    request = SequencerRequest("P1#2", "P1", "g", 1, payload="x")
    _transmit(tracker, request, now=2.0, cause="failover_resend", peer="P2")
    resequenced = _multicast("P1#3", sequenced_by="P1", origin_request="P1#3")
    _transmit(tracker, resequenced, now=2.0, cause="failover_resend")
    assert tracker.journey("P1#2") is None and tracker.journey("P1#3") is None
    assert tracker.snapshot()["skipped"] == 0
    _transmit(tracker, request, now=3.0, peer="P0")
    _transmit(tracker, request, now=9.0, cause="failover_resend", peer="P2")
    assert [t[:2] + t[3:] for t in tracker.journey("P1#2")["transitions"]] == [
        ["created", 3.0, "app_multicast"],
        ["sent_to_sequencer", 3.0, "P0"],
        ["sent_to_sequencer", 9.0, "P2"],
    ]
    # Blocked time is matched first in, first out, per process and group.
    tracker.on_event(TraceEvent(4.0, BLOCKED_SEND, "P1", "g"))
    tracker.on_event(TraceEvent(5.0, BLOCKED_SEND, "P1", "g"))
    tracker.on_event(TraceEvent(5.5, BLOCKED_SEND, "P1", "h"))
    tracker.on_event(TraceEvent(6.0, UNBLOCKED_SEND, "P1", "g"))
    tracker.on_event(TraceEvent(6.0, SEND, "P1", "g", "P1#2", "P1"))
    tracker.on_event(TraceEvent(7.0, UNBLOCKED_SEND, "P7", "g"))  # never blocked
    tracker.on_event(TraceEvent(7.0, SEND, "P1", "g", "P1#2", "P1"))  # not deferred
    assert [t[3] for t in tracker.journey("P1#2")["transitions"][3:]] == [2.0]


def test_tracker_bounds_memory_via_overflow_and_truncation():
    tracker = JourneyTracker(MetricsRegistry(), sample_rate=1, max_tracked=1)
    first = _multicast("P1#0")
    for message in (first, _multicast("P1#1"), _multicast("P1#2"), first):
        _transmit(tracker, message)
    snapshot = tracker.snapshot()
    assert snapshot["tracked"] == 1
    assert snapshot["overflow"] == 2
    # Per-journey transitions are capped at MAX_TRANSITIONS.
    for index in range(MAX_TRANSITIONS + 10):
        tracker.on_lifecycle(HELD, float(index), f"p{index}", first, "suspected:P1")
    journey = tracker.journey("P1#0")
    assert len(journey["transitions"]) == MAX_TRANSITIONS
    assert journey["truncated_transitions"] == 11


def test_payload_msg_id_prefers_msg_id_then_request_id():
    class _Data:
        msg_id = "P1#3"

    class _Request:
        request_id = "P2#5"

    assert payload_msg_id(_Data()) == "P1#3"
    assert payload_msg_id(_Request()) == "P2#5"
    assert payload_msg_id(object()) is None


def test_a_null_riding_a_suspicion_or_confirmation_has_a_journey_of_its_own():
    """In a symmetric group the suspect and confirm messages carry their
    sender's null, and the frame is that null's envelope: its journey is
    created under the frame's cause, received by each survivor and dropped
    on the way to the crashed member."""
    session = Session(
        "newtop", seed=1, latency_model=ConstantLatency(0.7),
        config={"omega": 2.0, "suspicion_timeout": 10.0},
        observe={"journeys": True, "journey_sample_rate": 1},
    )
    names = ["P1", "P2", "P3", "P4"]
    session.spawn(names)
    session.group("g")
    session.run(20.3)
    riders = {}

    def note_riders(src, dst, message):
        payload = message.payload
        if isinstance(payload, (SuspectMessage, ConfirmMessage)):
            riders[payload.null.msg_id] = (src, type(payload))
        return True

    session.network.add_filter(note_riders)
    session.crash("P2")
    session.run(30.0)
    assert session.result().passed
    assert sorted(kind.__name__ for _, kind in riders.values()) == (
        ["ConfirmMessage"] * 3 + ["SuspectMessage"] * 3
    )
    tracker = session.observation.journeys
    for msg_id, (sender, kind) in riders.items():
        journey = tracker.journey(msg_id)
        assert journey["cause"] == (
            "suspicion_gossip" if kind is SuspectMessage else "confirm_refute"
        )
        steps = [(state, process) for state, _, process, _ in journey["transitions"]]
        survivors = {name for name in names if name not in (sender, "P2")}
        assert steps[0] == ("created", sender)
        assert {process for state, process in steps if state == "received"} == survivors
        assert ("wire_dropped", "P2") in steps


# ----------------------------------------------------------------------
# Zero overhead when off; partition invariant at E19 smoke scale
# ----------------------------------------------------------------------
def test_unobserved_run_has_no_journey_tracker_anywhere():
    session = Session("newtop", seed=5)
    session.spawn(["P1", "P2"])
    session.group("g")
    # Nobody names a lifecycle kind, so the recorder hands out no dispatch
    # and every layer that read it at construction holds None.
    assert session.recorder.lifecycle is None
    assert session.network._lifecycle is None
    for process in session.stack.processes.values():
        assert process._lifecycle is None
        assert process.endpoint("g")._lifecycle is None
    session.run(5.0)
    assert session.result().obs is None
    # The metrics-only tier pays the same is-None branch for journeys...
    assert Observation.coerce(True).journeys is None
    assert Session("newtop", observe=True).recorder.lifecycle is None
    # ...and a run that follows journeys has every layer on the one seam.
    followed = Session("newtop", seed=5, observe="journeys")
    followed.spawn(["P1", "P2"])
    followed.group("g")
    assert followed.observation.journeys in followed.recorder._sinks
    handles = [followed.network._lifecycle] + [
        handle
        for process in followed.stack.processes.values()
        for handle in (process._lifecycle, process.endpoint("g")._lifecycle)
    ]
    assert all(handle == followed.recorder.lifecycle for handle in handles)


def test_frame_for_a_detached_node_is_reported_like_every_other_drop():
    """The eighth drop path: the destination left the network
    (``Network.detach``) while the frame was in flight.  Counted like the
    other seven, and a ``wire_dropped`` with a reason of its own."""
    session = Session(
        "newtop", seed=5, observe={"journeys": True, "journey_sample_rate": 1}
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    session.run(1.0)
    msg_id = session.multicast("P1", "g", "x")
    dropped_before = session.network.stats.messages_dropped_crash
    session.network.detach("P3")
    session.run(5.0)
    assert session.network.stats.messages_dropped_crash > dropped_before
    transitions = session.observation.journeys.journey(msg_id)["transitions"]
    at_p3 = [t for t in transitions if t[2] == "P3"]
    assert [(t[0], t[3]) for t in at_p3] == [("wire_dropped", "receiver_detached")]
    assert [t[0] for t in transitions if t[2] == "P2"] == ["received", "delivered"]


def test_cause_counters_partition_transport_sends_at_smoke_scale():
    from bench_scenario_churn import SMOKE_SCALE, run_churn

    result = run_churn(SMOKE_SCALE, analysis="online", observe="journeys")
    counters = result.obs["metrics"]["counters"]
    by_cause = result.obs["journeys"]["sends_by_cause"]
    assert sum(by_cause.values()) == counters["transport.sends"] > 0
    # The churn shape exercises app traffic, nulls and membership causes.
    assert by_cause["app_multicast"] > 0
    assert by_cause["null_time_silence"] > 0
    assert by_cause["suspicion_gossip"] > 0
    assert by_cause["confirm_refute"] > 0
    assert set(by_cause) <= {
        "app_multicast", "null_time_silence", "suspicion_gossip",
        "confirm_refute", "formation", "failover_resend", "view_cut",
        "other",
    }


# ----------------------------------------------------------------------
# Journey explorer CLI
# ----------------------------------------------------------------------
def _journeys_document(tmp_path, name="BENCH_j.json", benchmark="unit"):
    session = Session(
        "newtop", seed=11, analysis="online",
        observe={"journeys": True, "journey_sample_rate": 1},
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    for index in range(4):
        session.multicast("P1", "g", f"m-{index}")
        session.run(1.0)
    session.run(25.0)
    path = tmp_path / name
    path.write_text(
        json.dumps({"benchmark": benchmark, "obs": session.result().obs})
    )
    return path


def test_journey_cli_renders_span_trees_and_breakdowns(tmp_path, capsys):
    from repro.obs.__main__ import main

    path = _journeys_document(tmp_path)
    assert main(["journey", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== unit: journeys ==" in out
    assert "sends by cause (partition of transport.sends" in out
    assert "wait states by cause" in out
    assert "slowest sampled journeys" in out
    assert "P1#" in out and "delivered" in out


def test_journey_cli_side_by_side(tmp_path, capsys):
    from repro.obs.__main__ import main

    first = _journeys_document(tmp_path, "a.json", benchmark="left")
    second = _journeys_document(tmp_path, "b.json", benchmark="right")
    assert main(["journey", str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert "== left: journeys ==" in out
    assert "== right: journeys ==" in out
    assert "│" in out


def test_cli_one_line_errors(tmp_path, capsys):
    from repro.obs.__main__ import main

    missing = tmp_path / "absent.json"
    assert main(["report", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "\n" == err[-1]
    assert "Traceback" not in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err

    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["journey", str(array)]) == 2
    assert "expected a JSON object" in capsys.readouterr().err

    no_obs = tmp_path / "no_obs.json"
    no_obs.write_text(json.dumps({"benchmark": "bare", "scale": "smoke"}))
    assert main(["report", str(no_obs)]) == 1
    assert "no obs blocks" in capsys.readouterr().err
    assert main(["journey", str(no_obs)]) == 1
    assert "rerun the benchmark with --observe journeys" in capsys.readouterr().err


def test_report_cli_accepts_multiple_files(tmp_path, capsys):
    from repro.obs.__main__ import main

    first = _journeys_document(tmp_path, "a.json", benchmark="left")
    second = _journeys_document(tmp_path, "b.json", benchmark="right")
    assert main(["report", str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert "== left ==" in out and "== right ==" in out


def test_paste_columns_pads_ragged_blocks():
    pasted = paste_columns(["aa\nb", "xxx\nyy\nz"], gap=" | ")
    assert pasted.split("\n") == ["aa | xxx", "b  | yy", "   | z"]


# ----------------------------------------------------------------------
# Fuzz campaign tallies and repro artifacts through the same CLI
# ----------------------------------------------------------------------
def _campaign_document():
    return {
        "benchmark": "fuzz_campaign",
        "count": 60,
        "tallies": {"pass": 58, "violation": 1, "stall": 1,
                    "crashed": 0, "timeout": 0},
        "specs_per_minute": 812.5,
        "failures": [{"index": 3, "status": "violation", "shrink_runs": 41}],
        "oracle": {"violations": 1, "violation_kind": "total-order",
                   "budget": 40, "shrunk_events": 2},
    }


def test_report_renders_fuzz_campaign_tallies():
    document = _campaign_document()
    assert document_has_renderable_content(document)
    text = render_document(document)
    assert "fuzz campaign" in text
    assert "specs run" in text and "60" in text
    assert "violation" in text
    assert "specs/min" in text and "812.5" in text
    assert "shrink steps" in text and "41" in text
    assert "oracle arm" in text and "total-order" in text


def test_fuzz_artifact_renders_with_embedded_journeys(tmp_path, capsys):
    from repro.obs.__main__ import main

    journey = {
        "msg_id": "P3#17", "cause": "app_multicast", "sender": "P3",
        "group": "g1", "created_at": 4.0, "deliveries": 2, "latency": 3.25,
        "truncated_transitions": 0,
        "transitions": [["created", 4.0, "P3", "app_multicast"],
                        ["delivered", 7.25, "P1", None]],
    }
    failure = FuzzFailure(
        index=3, status="violation",
        violations=["total order violated between P1 and P2: P3#17 vs P4#2"],
        violation_kind="total-order", config={"processes": ["P1"]},
        minimized={"processes": ["P1"]}, shrink_runs=41, journeys=[journey],
    )
    path = tmp_path / "fuzz-7-00003-violation.json"
    write_artifact(str(path), failure, corpus_seed=7)
    document = json.loads(path.read_text())
    assert document["kind"] == "fuzz-repro"
    assert document["journeys"][0]["msg_id"] == "P3#17"
    assert document_has_journeys(document)
    # Both subcommands render the artifact: report shows the diagnosis,
    # journey shows the implicated message's span tree.
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "fuzz repro artifact" in out and "implicated message journeys" in out
    assert main(["journey", str(path)]) == 0
    out = capsys.readouterr().out
    assert "P3#17" in out and "delivered" in out
    assert render_journey_document(document).count("P3#17") >= 1


# ----------------------------------------------------------------------
# Explain-the-violation
# ----------------------------------------------------------------------
def test_implicated_message_ids_dedupes_in_first_mention_order():
    violations = [
        "total order violated between P1 and P2: P3#17 vs P4#2",
        "causally preceding P3#17 not delivered before P10#0",
    ]
    assert implicated_message_ids(violations) == ["P3#17", "P4#2", "P10#0"]
    assert implicated_message_ids(["view sequences differ"]) == []


def test_explain_journeys_returns_empty_without_ids_or_on_failure():
    assert explain_journeys({}, ["no message named here"]) == []
    # An unrunnable config is swallowed: explanations are best-effort.
    assert explain_journeys({"nonsense": True}, ["P1#0 implicated"]) == []


def test_explain_journeys_replays_and_pins_implicated_messages():
    config = churn_scenario(
        n_processes=6, n_groups=2, group_size=4, crashes=0, leaves=0,
        messages_per_sender=1, seed=3,
    )
    # Learn a real message id from a fully-sampled observed run...
    result = run_scenario(
        config, observe={"journeys": True, "journey_sample_rate": 1}
    )
    slowest = result.obs["journeys"]["slowest"]
    assert slowest, "scenario delivered nothing to trace"
    msg_id = slowest[0]["msg_id"]
    # ...then ask the explainer about a violation naming it.
    journeys = explain_journeys(
        config, [f"total order violated between P1 and P2: {msg_id} vs {msg_id}"]
    )
    assert [j["msg_id"] for j in journeys] == [msg_id]
    states = [t[0] for t in journeys[0]["transitions"]]
    assert states[0] == "created" and "delivered" in states
