"""Integration tests for the asymmetric (sequencer) protocol (§4.2) and
mixed-mode multi-group operation (§4.3), including the blocking rules."""

import pytest

from oracle_checkers import check_all, check_total_order
from repro.api import Session
from repro.core import NewtopConfig, OrderingMode
from repro.core.messages import KIND_DATA, KIND_VIEW_CUT, DataMessage, Suspicion
from repro.core.vectors import INFINITY
from repro.net.trace import BLOCKED_SEND, UNBLOCKED_SEND


def _session(names, seed=1, **overrides):
    config = NewtopConfig(omega=2.0, suspicion_timeout=8.0).replace(**overrides)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(names)
    return session


# ----------------------------------------------------------------------
# Asymmetric, single group
# ----------------------------------------------------------------------
def test_asymmetric_total_order_single_group():
    session = _session(["A", "B", "C", "D"], seed=3)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    for i in range(4):
        session["B"].multicast("g", f"b{i}")
        session["D"].multicast("g", f"d{i}")
        session.run(0.5)
    session.run(60)
    orders = [tuple(process.delivered_payloads("g")) for process in session.processes.values()]
    assert len(set(orders)) == 1
    assert len(orders[0]) == 8
    assert check_total_order(session.trace(), "g").passed


def test_asymmetric_sequencer_is_lowest_member_id():
    session = _session(["A", "B", "C"])
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    for process in session.processes.values():
        assert process.endpoint("g").engine.sequencer() == "A"
    assert session["A"].endpoint("g").engine.is_sequencer()
    assert not session["B"].endpoint("g").engine.is_sequencer()


def test_asymmetric_sequencer_own_sends_are_ordered_too():
    session = _session(["A", "B", "C"], seed=9)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session["A"].multicast("g", "from-sequencer")
    session["C"].multicast("g", "from-member")
    session.run(60)
    orders = {tuple(process.delivered_payloads("g")) for process in session.processes.values()}
    assert len(orders) == 1
    assert set(orders.pop()) == {"from-sequencer", "from-member"}


def test_asymmetric_messages_are_sequenced_messages():
    session = _session(["A", "B"], seed=2)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session["B"].multicast("g", "x")
    session.run(40)
    record = session["A"].delivered[0]
    assert record.sender == "B"  # logical sender preserved end to end


def test_asymmetric_sequencer_crash_failover():
    session = _session(["A", "B", "C"], seed=4, omega=1.5, suspicion_timeout=6.0)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session["B"].multicast("g", "before")
    session.run(20)
    session.crash("A")  # the sequencer
    session.run(120)
    for name in ("B", "C"):
        assert "A" not in session[name].view("g").members
        assert session[name].endpoint("g").engine.sequencer() == "B"
    session["C"].multicast("g", "after")
    session.run(80)
    for name in ("B", "C"):
        payloads = session[name].delivered_payloads("g")
        assert payloads[0] == "before"
        assert "after" in payloads


# ----------------------------------------------------------------------
# Multi-group and mixed mode
# ----------------------------------------------------------------------
def test_multigroup_process_orders_across_groups():
    session = _session(["P1", "P2", "P3", "P4"], seed=6)
    session.group("g1", ["P1", "P2", "P3"])
    session.group("g2", ["P2", "P3", "P4"])
    session["P1"].multicast("g1", "g1-a")
    session["P4"].multicast("g2", "g2-a")
    session.run(2)
    session["P2"].multicast("g1", "g1-b")
    session["P3"].multicast("g2", "g2-b")
    session.run(80)
    # P2 and P3 are in both groups; their interleaved delivery order of the
    # common messages must agree (MD4').
    shared = [m for m in session["P2"].delivered_payloads() if True]
    order_p2 = [r.msg_id for r in session["P2"].delivered]
    order_p3 = [r.msg_id for r in session["P3"].delivered]
    common = set(order_p2) & set(order_p3)
    assert [m for m in order_p2 if m in common] == [m for m in order_p3 if m in common]
    assert check_all(session.trace()).passed
    assert len(session["P2"].delivered) == 4


def test_mixed_mode_symmetric_and_asymmetric_groups():
    session = _session(["P1", "P2", "P3"], seed=8)
    session.group("sym", ["P1", "P2", "P3"], mode=OrderingMode.SYMMETRIC)
    session.group("asym", ["P1", "P2", "P3"], mode=OrderingMode.ASYMMETRIC)
    for i in range(3):
        session["P2"].multicast("sym", f"s{i}")
        session["P2"].multicast("asym", f"a{i}")
        session.run(1.0)
    session.run(80)
    result = check_all(session.trace())
    assert result.passed, result.violations
    for process in session.processes.values():
        assert len(process.delivered_payloads("sym")) == 3
        assert len(process.delivered_payloads("asym")) == 3
    # Cross-group order of the multi-group members agrees.
    orders = [tuple(r.msg_id for r in session[p].delivered) for p in ("P1", "P2", "P3")]
    assert len(set(orders)) == 1


def test_blocking_rule_defers_sends_while_unicast_unsequenced():
    # P2 sends in the asymmetric group (unicast to sequencer P1) and then
    # immediately in the symmetric group: the second send must be deferred
    # until the first comes back from the sequencer (Mixed-mode Blocking
    # Rule), and must still be delivered afterwards.
    session = _session(["P1", "P2", "P3"], seed=10)
    session.group("asym", mode=OrderingMode.ASYMMETRIC)
    session.group("sym", mode=OrderingMode.SYMMETRIC)
    first = session["P2"].multicast("asym", "needs-sequencing")
    assert first is not None
    assert session["P2"].outstanding_unicasts("asym") == 1
    second = session["P2"].multicast("sym", "must-wait")
    assert second is None  # deferred
    trace_now = session.trace()
    assert trace_now.events(kind=BLOCKED_SEND, process="P2", group="sym")
    session.run(80)
    assert session["P2"].outstanding_unicasts() == 0
    for process in session.processes.values():
        assert "must-wait" in process.delivered_payloads("sym")
        assert "needs-sequencing" in process.delivered_payloads("asym")
    assert session.trace().events(kind=UNBLOCKED_SEND, process="P2", group="sym")
    assert check_all(session.trace()).passed


def test_symmetric_only_sends_never_block():
    session = _session(["P1", "P2", "P3"], seed=11)
    session.group("g1", mode=OrderingMode.SYMMETRIC)
    session.group("g2", mode=OrderingMode.SYMMETRIC)
    for i in range(5):
        assert session["P1"].multicast("g1", f"a{i}") is not None
        assert session["P1"].multicast("g2", f"b{i}") is not None
    assert not session.trace().events(kind=BLOCKED_SEND)
    session.run(60)
    assert check_all(session.trace()).passed


def test_same_group_asymmetric_sends_do_not_block_each_other():
    # The Send Blocking Rule only concerns messages unicast in *other*
    # groups: consecutive sends in the same asymmetric group go out freely.
    session = _session(["P1", "P2"], seed=12)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    first = session["P2"].multicast("g", "one")
    second = session["P2"].multicast("g", "two")
    assert first is not None and second is not None
    session.run(60)
    assert session["P1"].delivered_payloads("g") == ["one", "two"]


def test_blocking_time_is_measurable():
    session = _session(["P1", "P2", "P3"], seed=13)
    session.group("asym", mode=OrderingMode.ASYMMETRIC)
    session.group("sym", mode=OrderingMode.SYMMETRIC)
    session["P2"].multicast("asym", "x")
    session["P2"].multicast("sym", "y")
    session.run(60)
    waits = session.trace().blocking_times(group="sym")
    assert len(waits) == 1
    assert waits[0] > 0.0


# ----------------------------------------------------------------------
# Atomic-only groups
# ----------------------------------------------------------------------
def test_atomic_only_group_delivers_without_ordering_gate():
    session = _session(["P1", "P2", "P3"], seed=14)
    session.group("g", mode=OrderingMode.ATOMIC_ONLY)
    session["P1"].multicast("g", "fast")
    session.run(10)
    # Delivered promptly (no need to wait for a full round of traffic).
    for name in ("P2", "P3"):
        assert session[name].delivered_payloads("g") == ["fast"]


# ----------------------------------------------------------------------
# Regression: deferred-send flush racing the receive path (PR 4)
# ----------------------------------------------------------------------
def test_sequenced_loopback_does_not_invert_cross_group_order():
    """A process that is a member of one asymmetric group and the sequencer
    of another must not flush deferred sends while the sequenced copy of
    its own request is mid-receive (not yet in the delivery queue): the
    flush loops back through local sequencing and delivery under a bound
    that already covers the in-flight message, inverting the global total
    order (safe2 raised DeliveryOrderViolation before the fix).

    The configuration reproduces the original failure: 24 processes, four
    ring-overlapping asymmetric groups, bursty open-loop traffic.
    """
    from repro.workloads import OpenLoopClient, get_profile

    names = [f"P{i:03d}" for i in range(1, 25)]
    groups = [
        (f"g{i:02d}", [names[(i * 6 + j) % 24] for j in range(8)]) for i in range(4)
    ]
    session = Session(
        "newtop-asymmetric",
        config=dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5),
        analysis="online",
        checks=("total_order", "sender_in_view", "causal_prefix"),
        seed=7,
    )
    session.spawn(names)
    for group_id, members in groups:
        session.group(group_id, members)
    for index, (group_id, members) in enumerate(groups):
        client = session.attach_client(
            OpenLoopClient(
                get_profile("bursty", rate=0.5),
                members,
                [group_id],
                seed=7 * 9973 + index,
                duration=30.0,
            )
        )
        client.start()
    session.run(70)  # raised DeliveryOrderViolation at ~t=3.9 before the fix
    assert session.result().passed


# ----------------------------------------------------------------------
# Asymmetric view-cut marker (failure detections in sequencer numbering)
# ----------------------------------------------------------------------
def test_view_cut_marker_cuts_detection_into_sequencer_numbering():
    """A crashed non-sequencer member is excluded via the sequencer's
    sequenced view-cut marker: every survivor installs the same view, no
    message is delivered in different views at different members, and
    traffic sequenced after the cut delivers in the new view."""
    session = _session(["A", "B", "C", "D"], seed=5,
                       suspicion_timeout=6.0, suspector_check_interval=0.5)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session["B"].multicast("g", "before")
    session.run(5)
    session["D"].crash()
    session.run(30)  # suspicion -> detection -> marker -> install
    survivors = [session[name] for name in ("A", "B", "C")]
    for process in survivors:
        assert process.view("g").sorted_members() == ("A", "B", "C")
        endpoint = process.endpoint("g")
        assert endpoint.next_view_change_threshold() == INFINITY
        assert not endpoint.pending_view_changes
    session["C"].multicast("g", "after")
    session.run(30)
    views = {
        record.payload: record.view_index
        for process in survivors
        for record in process.delivered
    }
    assert views == {"before": 0, "after": 1}
    assert check_all(session.trace(),
                     view_agreement_sets={"g": ["A", "B", "C"]}).passed


def test_stale_view_cut_marker_is_ignored():
    """A marker whose targets already left the view (replay after the
    install) must not record a cut -- a stale cut would cap delivery
    forever (the targets can never be detected again)."""
    session = _session(["A", "B", "C", "D"], seed=5,
                       suspicion_timeout=6.0, suspector_check_interval=0.5)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session.run(5)
    session["D"].crash()
    session.run(30)
    endpoint = session["B"].endpoint("g")
    assert endpoint.view.sorted_members() == ("A", "B", "C")
    stale = DataMessage.sequenced(
        origin="A", group="g", clock=10_000, ldn=0, payload=("D",),
        kind=KIND_VIEW_CUT, sequencer="A", origin_request=None,
    )
    endpoint.engine.on_view_cut(stale)
    assert not endpoint.engine.cut_points
    assert endpoint.next_view_change_threshold() == INFINITY


def _relayed_member():
    """B, idle in the asymmetric group ``g``: a member the sequencer A
    relays.  The tests below hand it the sequencer's traffic and its own
    confirmed detections directly, in the order they choose; the
    simulation does not run in between."""
    session = _session(["A", "B", "C", "D"], seed=5,
                       suspicion_timeout=6.0, suspector_check_interval=0.5)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session.run(20)
    endpoint = session["B"].endpoint("g")
    assert not endpoint.pending_view_changes and not endpoint.holds_unsettled_work()
    return session["B"], endpoint


def _from_sequencer(endpoint, kind, payload, clock=None):
    """Hand ``endpoint`` a message the sequencer A numbered ``clock`` (by
    default the next number above everything it holds)."""
    if clock is None:
        clock = endpoint.process.clock.value + 1
    endpoint.on_data_message(DataMessage.sequenced(
        origin="A", group="g", clock=clock, ldn=0, payload=payload,
        kind=kind, sequencer="A", origin_request=None,
    ))
    return clock


def _detect(endpoint, target, last_number):
    endpoint.execute_failure_detection(frozenset({Suspicion(target, last_number)}))


def _views_delivered(process):
    return {record.payload: record.view_index for record in process.delivered}


def test_view_cut_marker_then_confirmation_installs_at_the_marker():
    process, endpoint = _relayed_member()
    cut = _from_sequencer(endpoint, KIND_VIEW_CUT, ("C",))
    assert endpoint.next_view_change_threshold() == cut
    _from_sequencer(endpoint, KIND_DATA, "after")
    assert "after" not in _views_delivered(process)  # numbered past the cut
    _detect(endpoint, "C", 1)
    assert endpoint.view.sorted_members() == ("A", "B", "D")
    assert not endpoint.holds_unsettled_work()
    assert _views_delivered(process)["after"] == 1


def test_confirmation_then_view_cut_marker_installs_at_the_marker():
    process, endpoint = _relayed_member()
    _detect(endpoint, "C", 1)
    assert endpoint.holds_unsettled_work()
    assert endpoint.next_view_change_threshold() == INFINITY
    # Until the marker arrives, everything sequenced is old-view traffic.
    _from_sequencer(endpoint, KIND_DATA, "before")
    assert _views_delivered(process) == {"before": 0}
    assert endpoint.view.sorted_members() == ("A", "B", "C", "D")
    _from_sequencer(endpoint, KIND_VIEW_CUT, ("C",))
    assert endpoint.view.sorted_members() == ("A", "B", "D")
    assert not endpoint.holds_unsettled_work()
    _from_sequencer(endpoint, KIND_DATA, "after")
    assert _views_delivered(process) == {"before": 0, "after": 1}


def test_sequencer_failure_installs_parked_detections_at_the_failover_cut():
    process, endpoint = _relayed_member()
    _detect(endpoint, "C", 1)
    _detect(endpoint, "D", 1)
    assert endpoint.holds_unsettled_work() and not endpoint.pending_view_changes
    # The dead sequencer's agreed last number, above what B has received:
    # every view change waits there, the parked ones included.
    cut = endpoint.process.clock.value + 2
    _detect(endpoint, "A", cut)
    assert [
        (tuple(sorted(change.removed)), change.threshold)
        for change in endpoint.pending_view_changes
    ] == [(("C",), cut), (("D",), cut), (("A",), cut)]
    assert not endpoint.engine.parked
    assert endpoint.view.sorted_members() == ("A", "B", "C", "D")
    # Its last message arrives (a refutation's recovery, say): all three
    # views install behind it.
    _from_sequencer(endpoint, KIND_DATA, "last", clock=cut)
    assert endpoint.view.sorted_members() == ("B",)
    assert _views_delivered(process) == {"last": 0}
    assert not endpoint.pending_view_changes and not endpoint.holds_unsettled_work()
