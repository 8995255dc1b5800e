"""Integration tests for the symmetric total-order protocol (§4.1)."""

import pytest

from oracle_checkers import check_all, check_total_order
from repro.api import Session
from repro.core import NewtopConfig, OrderingMode
from repro.core.endpoint import PendingViewChange
from repro.core.messages import KIND_VIEW_CUT, DataMessage, Suspicion
from repro.net.latency import ExponentialLatency, UniformLatency
from repro.net.trace import NULL_SEND


def _session(names, seed=1, **config_overrides):
    config = NewtopConfig(omega=2.0, suspicion_timeout=8.0).replace(**config_overrides)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(names)
    return session


def test_single_multicast_reaches_every_member_in_order():
    session = _session(["P1", "P2", "P3"])
    session.group("g1")
    message_id = session["P1"].multicast("g1", "hello")
    assert session.run_until_delivered(message_id, timeout=60)
    for process in session.processes.values():
        assert process.delivered_payloads("g1") == ["hello"]


def test_concurrent_senders_agree_on_total_order():
    session = _session(["P1", "P2", "P3", "P4"], seed=5)
    session.group("g1")
    for i in range(5):
        session["P1"].multicast("g1", f"a{i}")
        session["P2"].multicast("g1", f"b{i}")
        session["P3"].multicast("g1", f"c{i}")
        session.run(0.5)
    session.run(60)
    orders = [tuple(process.delivered_payloads("g1")) for process in session.processes.values()]
    assert len(set(orders)) == 1
    assert len(orders[0]) == 15
    assert check_total_order(session.trace(), "g1").passed


def test_total_order_under_heavy_latency_variance():
    config = NewtopConfig(omega=2.0, suspicion_timeout=30.0)
    session = Session(
        "newtop",
        config=config,
        latency_model=ExponentialLatency(mean=2.0, floor=0.1),
        seed=13,
    )
    session.spawn(["P1", "P2", "P3", "P4", "P5"])
    session.group("g1")
    for i in range(4):
        for name in ("P1", "P3", "P5"):
            session[name].multicast("g1", f"{name}-{i}")
        session.run(1.0)
    session.run(150)
    orders = [tuple(process.delivered_payloads("g1")) for process in session.processes.values()]
    assert len(set(orders)) == 1
    assert len(orders[0]) == 12
    result = check_all(session.trace())
    assert result.passed, result.violations


def test_sender_delivers_its_own_messages_through_the_protocol():
    session = _session(["P1", "P2"])
    session.group("g1")
    session["P1"].multicast("g1", "mine")
    # Not yet deliverable: P1 has not heard anything numbered >= 1 from P2.
    assert session["P1"].delivered_payloads("g1") == []
    session.run(30)
    assert session["P1"].delivered_payloads("g1") == ["mine"]


def test_time_silence_keeps_delivery_live_with_silent_members():
    # P3 never sends anything; its null messages must still let P1's
    # multicast become deliverable.
    session = _session(["P1", "P2", "P3"])
    session.group("g1")
    message_id = session["P1"].multicast("g1", "x")
    delivered = session.run_until_delivered(message_id, timeout=60)
    assert delivered
    nulls = session.trace().events(kind=NULL_SEND)
    assert nulls, "the time-silence mechanism should have produced null messages"


def test_causal_order_across_request_reply():
    session = _session(["P1", "P2", "P3"])
    session.group("g1")
    request_id = session["P1"].multicast("g1", "request")

    replied = []

    def reply_on_delivery(group, sender, payload, msg_id):
        if payload == "request" and not replied:
            replied.append(session["P2"].multicast(group, "reply"))

    session["P2"].add_delivery_callback(reply_on_delivery)
    session.run(80)
    for process in session.processes.values():
        payloads = process.delivered_payloads("g1")
        assert payloads.index("request") < payloads.index("reply")
    assert check_all(session.trace()).passed


def test_larger_group_total_order():
    names = [f"P{i}" for i in range(1, 9)]
    session = _session(names, seed=21)
    session.group("big")
    for i, name in enumerate(names):
        session[name].multicast("big", f"m{i}")
    session.run(80)
    orders = [tuple(process.delivered_payloads("big")) for process in session.processes.values()]
    assert len(set(orders)) == 1
    assert len(orders[0]) == len(names)


def test_delivery_latency_bounded_by_time_silence_period():
    # With quiet co-members, a multicast becomes deliverable roughly one
    # omega plus one network delay after it is sent, not arbitrarily later.
    session = _session(["P1", "P2", "P3"], omega=1.0, suspicion_timeout=5.0)
    session.group("g1")
    session.run(5)
    session["P1"].multicast("g1", "probe")
    session.run(40)
    latencies = session.trace().delivery_latencies("g1")
    assert latencies and max(latencies) < 10.0


def test_delivery_latency_bound_holds_after_long_idleness():
    # The same bound after >= 3 * Omega of idleness, when every member has
    # stretched its null deadline to the Omega/2 heartbeat: the multicast
    # makes its receivers owed, which pulls their next null in to omega.
    session = _session(["P1", "P2", "P3"], omega=1.0, suspicion_timeout=5.0)
    session.group("g1")
    session.run(16)
    idle = [session[name].endpoint("g1") for name in ("P1", "P2", "P3")]
    assert not any(endpoint.owes_group() for endpoint in idle)
    session["P1"].multicast("g1", "probe")
    assert idle[0].owes_group()
    session.run(40)
    latencies = session.trace().delivery_latencies("g1")
    assert len(latencies) == 3 and max(latencies) < 10.0
    # ... and once the probe is stable everywhere the group idles again.
    assert not any(endpoint.owes_group() for endpoint in idle)


def test_idle_group_sends_heartbeats_at_half_the_suspicion_timeout():
    session = _session(["P1", "P2", "P3"], omega=1.0, suspicion_timeout=6.0)
    session.group("g1")
    session.run(31.5)
    nulls = [
        event.time for event in session.trace().events(kind=NULL_SEND, process="P2")
    ]
    # First null at omega, then one per Omega/2 = 3.0: 1, 4, 7, ..., 31.
    assert nulls == pytest.approx([1.0 + 3.0 * beat for beat in range(11)])
    assert not session.trace().events(kind="suspect")


def test_flow_control_window_of_one_drains_after_idleness():
    # A window of 1 admits the next send only when the previous one is
    # stable, and stability rides on the other members' nulls: an unstable
    # message in the retention buffer must keep everybody at the omega
    # cadence, or each send would wait out an idle heartbeat.
    session = _session(["P1", "P2", "P3"], seed=9, flow_control_window=1)
    session.group("g1")
    session.run(25)
    started = session.sim.now
    for index in range(6):
        session["P1"].multicast("g1", f"m{index}")
    assert len(session["P1"].endpoint("g1").deferred_sends) == 5
    assert session.run_until(
        lambda: all(len(p.delivered_payloads("g1")) == 6 for p in session.processes.values()),
        timeout=40.0,
    )
    # The parent commit (fixed-omega timer) took 27.9 here.
    assert session.sim.now - started <= 28.0
    assert not session["P1"].endpoint("g1").deferred_sends
    for process in session.processes.values():
        assert process.delivered_payloads("g1") == [f"m{i}" for i in range(6)]


def _window_of_one_drain_time(seed):
    session = _session(["P1", "P2", "P3"], seed=seed, flow_control_window=1)
    session.group("g1")
    session.run(25)
    started = session.sim.now
    for index in range(6):
        session["P1"].multicast("g1", f"m{index}")
    assert session.run_until(
        lambda: all(len(p.delivered_payloads("g1")) == 6 for p in session.processes.values()),
        timeout=60.0,
    )
    for process in session.processes.values():
        assert process.delivered_payloads("g1") == [f"m{i}" for i in range(6)]
    return session.sim.now - started


def test_flow_control_window_of_one_drain_time_over_twenty_seeds():
    # One seed's drain time is one draw: each of the five stability rounds
    # takes 2 omega when the two receivers' omega timers stand within
    # omega - delay of each other and 3 omega when they do not, and the
    # network delays (up to 1.5 at omega = 2) decide which.  Over seeds
    # 1-300 the drain is 26.5 +- 1.7 on this commit and 26.3 +- 1.7 on
    # all-pairs idle nulls, and about one seed in six is over 28.  Twenty
    # seeds pin the cadence itself: waiting out one idle heartbeat
    # (Omega / 2 = 4) per round would put the mean past 35.
    drain_times = [_window_of_one_drain_time(seed) for seed in range(1, 21)]
    assert sum(drain_times) / len(drain_times) <= 27.5   # measured 26.1
    assert max(drain_times) <= 31.0                      # measured 29.1


def _overlapping_pair(g2_offset=0.0, seed=1, **config_overrides):
    """g1 = {P1, P2, P3} and g2 = {P3, P4, P5}: only P3 is in both.  g2 is
    created ``g2_offset`` after g1, which on fixed-omega timers decides how
    its nulls are phased against g1's."""
    session = _session(
        ["P1", "P2", "P3", "P4", "P5"], seed=seed,
        omega=2.0, suspicion_timeout=10.0, **config_overrides,
    )
    session.group("g1", ["P1", "P2", "P3"])
    session.run(g2_offset)
    session.group("g2", ["P3", "P4", "P5"])
    session.run(30.0 - g2_offset)
    return session


@pytest.mark.parametrize("g2_offset", [0.0, 1.0])
def test_idle_overlapping_group_does_not_slow_a_busy_group(g2_offset):
    """safe1': P3 delivers g1's traffic under min(D_g1, D_g2), so g2 --
    idle as far as P4 and P5 can tell -- does ordering work for g1.  P3's
    nulls in g2 say so (``awaits_reply``) while P3 holds anything
    undelivered, and P4 and P5 answer within omega.

    Pinned against the fixed-omega timers of the parent commit, which over
    these 3 x 120 multicasts delivered with mean 1.51-1.88, p90 2.14-3.16
    and max 3.02-4.33 depending on ``g2_offset`` (0-1.5); demand-driven
    timers phase themselves and land inside that envelope (the bounds
    below are ones the parent meets at both offsets).  Letting g2 stretch
    to Omega/2 regardless of P3 gave mean 3.4, p90 8.1 and max 10.5 --
    past Omega."""
    latencies = []
    for seed in (1, 2, 3):
        session = _overlapping_pair(g2_offset, seed=seed)
        for index in range(120):
            session[("P1", "P2")[index % 2]].multicast("g1", f"m{index}")
            session.run(0.7)
        session.run(40.0)
        run = session.trace().delivery_latencies("g1")
        assert len(run) == 360
        latencies.extend(run)
    latencies.sort()
    assert sum(latencies) / len(latencies) < 1.75
    assert latencies[int(0.9 * len(latencies))] < 2.75
    assert latencies[-1] < 4.5


def test_overlapped_idle_group_answers_at_omega_then_idles_again():
    session = _overlapping_pair()
    p3, p4 = session["P3"], session["P4"]
    assert not p3.endpoint("g2").owes_group()
    assert not p4.endpoint("g2").owes_group()
    session["P1"].multicast("g1", "probe")
    assert session.run_until(lambda: p3.awaits_delivery(), timeout=5.0)
    received = session.sim.now
    # The probe belongs to g1, but it waits on g2's D_x as well.
    assert p3.endpoint("g2").owes_group()
    assert not p4.endpoint("g2").owes_group()
    # P3 has been silent in g2 for longer than omega: its null goes out at
    # once, flagged; P4 owes the answer until it has sent it.
    session.run(1e-6)
    asked = [
        event for event in session.trace().events(kind=NULL_SEND, process="P3")
        if event.group == "g2" and event.time >= received
    ]
    assert [event.time for event in asked] == [received]
    assert session.run_until(lambda: p4.endpoint("g2").owes_group(), timeout=5.0)
    assert session.run_until(
        lambda: not p4.endpoint("g2").owes_group(), timeout=2.0 + 1e-6
    )
    assert session.run_until(lambda: not p3.awaits_delivery(), timeout=10.0)
    assert session.sim.now - received < 2 * 2.0
    # Once g1 is quiet again g2 is back on the heartbeat: in 4 * Omega/2
    # each of its members beacons each of the other two 4 times, naming g2
    # (it would be 10 nulls at omega), and sends no null.
    session.run(20.0)
    start = session.sim.now
    beacons = []
    session.network.add_filter(
        lambda src, dst, message: beacons.append((src, dst, message.payload.groups))
        or True
    )
    session.run(20.0)
    for name in ("P3", "P4", "P5"):
        for peer in {"P3", "P4", "P5"} - {name}:
            assert beacons.count((name, peer, ("g2",))) == 4, (name, peer)
    assert not [
        event for event in session.trace().events(kind=NULL_SEND)
        if event.group is not None and event.time > start
    ]
    assert not session.trace().events(kind="suspect")


_OWED_CONDITIONS = {
    "unstable_traffic_retained": lambda endpoint: endpoint.stability.buffer.retain(
        DataMessage.application("P2", "g1", 10**6, 0, "payload")
    ),
    "reply_awaited": lambda endpoint: setattr(endpoint, "_reply_awaited", True),
    "view_change_pending": lambda endpoint: endpoint.pending_view_changes.append(
        PendingViewChange(removed=frozenset({"P9"}), threshold=10**6)
    ),
    # The sequencer's end-of-view marker for P3, ahead of our detection.
    "cut_marker_held": lambda endpoint: endpoint.engine.on_view_cut(
        DataMessage.sequenced(
            "P1", "g1", 10**6, 0, ("P3",), KIND_VIEW_CUT,
            sequencer="P1", origin_request=None,
        )
    ),
    # Our detection of P3, ahead of the sequencer's marker.
    "detection_awaiting_cut": lambda endpoint: endpoint.engine.view_change_threshold(
        frozenset({Suspicion("P3", 1)}), frozenset({"P3"}), 1
    ),
    "send_deferred": lambda endpoint: endpoint.deferred_sends.append("payload"),
    "unicast_outstanding": lambda endpoint: endpoint.process.note_unicast_outstanding(
        "g1", "request-1"
    ),
    # Numbered past our last send: the view change it can lead to needs a
    # number of ours above it.
    "suspicion_held": lambda endpoint: endpoint.gv.on_suspector_notification(
        Suspicion("P2", 10**6)
    ),
    "message_undelivered": lambda endpoint: endpoint.process.delivery_queue.enqueue(
        DataMessage.application("P2", "g1", 10**6, 0, "payload")
    ),
}


@pytest.mark.parametrize("condition", sorted(_OWED_CONDITIONS))
def test_every_owed_condition_reaches_the_timer_through_settle(condition):
    """``owes_group()`` is the only statement of what is owed and
    ``NewtopProcess.settle()`` -- the follow-up to every receipt, send and
    suspector notification -- the only place the timers are told: however
    an endpoint comes to owe, the next settle pulls its heartbeat in.

    Cut state exists only in a sequencer group, at a member the sequencer
    relays (P2); its heartbeat is a timer of its own, never dormant."""
    relayed = condition in ("cut_marker_held", "detection_awaiting_cut")
    name = "P2" if relayed else "P1"
    session = _session(["P1", "P2", "P3"], omega=1.0, suspicion_timeout=6.0)
    session.group("g1", mode=OrderingMode.ASYMMETRIC if relayed else None)
    session.run(20.0)
    endpoint = session[name].endpoint("g1")
    assert not endpoint.owes_group()
    assert relayed or endpoint.time_silence.idle_armed
    _OWED_CONDITIONS[condition](endpoint)
    assert endpoint.owes_group()
    session[name].settle()
    assert relayed or not endpoint.time_silence.idle_armed
    nulls = session.trace().events(kind=NULL_SEND, process=name)
    session.run(1.0 + 1e-6)
    assert len(session.trace().events(kind=NULL_SEND, process=name)) > len(nulls)


def test_message_history_and_view_index_recorded():
    session = _session(["P1", "P2"])
    session.group("g1")
    session["P1"].multicast("g1", "x")
    session.run(30)
    record = session["P2"].delivered[0]
    assert record.group == "g1"
    assert record.sender == "P1"
    assert record.view_index == 0
    assert record.clock >= 1
