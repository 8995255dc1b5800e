"""Integration tests for the fault-tolerant, dynamic side of Newtop (§5):
failure suspicion, refutation, membership agreement, view installation,
partitions, departures, and the paper's Examples 1-3."""

import pytest

from oracle_checkers import (
    check_all,
    check_same_view_delivery_sets,
    check_total_order,
    check_view_sequences,
)
from repro.api import Session
from types import SimpleNamespace

from repro.core import NewtopConfig, OrderingMode
from repro.core.membership import GroupViewProcess
from repro.core.messages import RefuteMessage, Suspicion
from repro.core.views import MembershipView
from repro.net.trace import CONFIRM, REFUTE, SUSPECT, VIEW_INSTALL

FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


def _session(names, seed=1, **overrides):
    config = NewtopConfig(**FAST).replace(**overrides)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(names)
    return session


# ----------------------------------------------------------------------
# GV bookkeeping (no network: a stub endpoint records what is multicast)
# ----------------------------------------------------------------------
class _StubEndpoint:
    def __init__(self, members):
        self.view = MembershipView.initial("g", members)
        self.process = SimpleNamespace(sim=SimpleNamespace(now=0.0))
        self.suspector = SimpleNamespace(clear_suspicion=lambda member: None)
        self.sent = []

    def mcast_membership(self, message, cause=None):
        self.sent.append(message)

    def record_membership_event(self, kind, **details):
        pass


def test_suspected_targets_track_the_suspicion_set():
    endpoint = _StubEndpoint(["P1", "P2", "P3", "P4", "P5"])
    gv = GroupViewProcess(endpoint, "P1", "g")
    assert not gv.busy()
    for target in ("P4", "P2", "P3"):
        gv.on_suspector_notification(Suspicion(target, 0))
    gv.on_suspector_notification(Suspicion("P2", 7))  # one suspicion per target
    assert gv.suspected_processes() == {"P2", "P3", "P4"}
    assert gv.busy() and gv.is_suspected("P3") and not gv.is_suspected("P5")
    # Rule (iv): a refutation drops the suspicion and its target.
    gv.on_membership_message(
        "P5", RefuteMessage(origin="P5", group="g", suspicion=Suspicion("P3", 0))
    )
    assert gv.suspected_processes() == {"P2", "P4"}
    # A refutation of a record we do not hold (other ln) drops nothing.
    gv.on_membership_message(
        "P5", RefuteMessage(origin="P5", group="g", suspicion=Suspicion("P2", 3))
    )
    assert gv.is_suspected("P2")
    # A view that no longer contains a target drops its suspicion.
    endpoint.view = endpoint.view.exclude({"P4"})
    gv.on_view_installed()
    assert gv.suspected_processes() == {"P2"} and not gv.is_suspected("P4")


def test_regossip_announces_in_a_hash_seed_independent_order():
    endpoint = _StubEndpoint(["P1", "P2", "P3", "P4", "P5"])
    gv = GroupViewProcess(endpoint, "P1", "g")
    for target in ("P4", "P2", "P3"):
        gv.on_suspector_notification(Suspicion(target, 0))
    del endpoint.sent[:]
    endpoint.process.sim.now = 10.0
    gv.regossip_unresolved(6.0)
    # Every announcement draws latency samples from the shared RNG, so the
    # order must not be the suspicion set's (string-hash) iteration order.
    assert [message.suspicion.target for message in endpoint.sent] == ["P2", "P3", "P4"]


# ----------------------------------------------------------------------
# Crash detection and agreement
# ----------------------------------------------------------------------
def test_crashed_member_is_agreed_out_of_the_view():
    session = _session(["P1", "P2", "P3", "P4"], seed=2)
    session.group("g")
    session.run(5)
    session.crash("P4")
    session.run(120)
    survivors = ["P1", "P2", "P3"]
    for name in survivors:
        view = session[name].view("g")
        assert view.sorted_members() == ("P1", "P2", "P3")
        assert view.index == 1
    trace = session.trace()
    assert trace.events(kind=SUSPECT)
    assert trace.events(kind=CONFIRM)
    assert check_view_sequences(trace, "g", survivors).passed


def test_idle_group_excludes_a_crashed_member_no_later_than_fixed_omega():
    """Stretching an idle member's null deadline to Omega/2 must not delay
    crash detection: the suspector times out Omega after the *last* null,
    and a heartbeat cadence only makes that last null older.  Crash phases
    cover one whole heartbeat period; the bounds are the parent commit's
    (fixed-omega timer) numbers for this exact scenario."""
    survivors = ("P1", "P2", "P3")
    delays = []
    for crash_at in (20.0, 20.5, 21.0, 21.5, 22.0, 22.5, 23.0):
        session = _session(["P1", "P2", "P3", "P4"], seed=1)
        session.group("g")
        session.run(crash_at)
        assert not session["P1"].endpoint("g").owes_group()
        session.crash("P4")
        assert session.run_until(
            lambda: all(
                "P4" not in session[name].view("g").members for name in survivors
            ),
            timeout=30.0,
        )
        delays.append(session.sim.now - crash_at)
    assert max(delays) <= 8.9
    assert sum(delays) / len(delays) <= 8.3


def test_delivery_continues_after_member_crash():
    session = _session(["P1", "P2", "P3"], seed=3)
    session.group("g")
    session["P1"].multicast("g", "before")
    session.run(20)
    session.crash("P3")
    session.run(100)
    after_id = session["P1"].multicast("g", "after")
    assert session.run_until_delivered(after_id, processes=["P1", "P2"], timeout=120)
    for name in ("P1", "P2"):
        assert session[name].delivered_payloads("g") == ["before", "after"]
    result = check_all(session.trace(), view_agreement_sets={"g": ["P1", "P2"]})
    assert result.passed, result.violations


def test_md1_no_delivery_from_excluded_sender():
    session = _session(["P1", "P2", "P3"], seed=4)
    session.group("g")
    session.run(5)
    session.crash("P3")
    session.run(100)
    # Anything P3 managed to send was delivered while it was in the view;
    # nothing is delivered from it afterwards (MD1, checked over the trace).
    result = check_all(session.trace(), view_agreement_sets={"g": ["P1", "P2"]})
    assert result.passed, result.violations


def test_wrong_suspicion_is_refuted_and_member_kept():
    # A transient one-directional outage makes P1 suspect P3; P2 still hears
    # P3 and must refute, after which P3 stays in everybody's view.
    session = _session(["P1", "P2", "P3"], seed=5, suspicion_timeout=5.0)
    session.group("g")
    session.run(3)
    session.sim.schedule_at(3.0, session.network.drop_between, {"P3"}, {"P1"}, 8.0)
    session.run(60)
    trace = session.trace()
    assert trace.events(kind=REFUTE), "expected the false suspicion to be refuted"
    for name in ("P1", "P2", "P3"):
        assert session[name].view("g").sorted_members() == ("P1", "P2", "P3")
    # Traffic still flows afterwards.
    message_id = session["P3"].multicast("g", "still-here")
    assert session.run_until_delivered(message_id, timeout=80)
    assert check_all(session.trace()).passed


def test_voluntary_departure_is_handled_like_silence():
    session = _session(["P1", "P2", "P3"], seed=6)
    session.group("g")
    session["P3"].multicast("g", "leaving-soon")
    session.run(20)
    session["P3"].leave_group("g")
    session.run(100)
    for name in ("P1", "P2"):
        assert session[name].view("g").sorted_members() == ("P1", "P2")
    assert not session["P3"].is_member("g")
    # The departed process keeps no view of the group and cannot multicast.
    from repro.core.errors import DepartedGroupError

    with pytest.raises(DepartedGroupError):
        session["P3"].multicast("g", "zombie")


# ----------------------------------------------------------------------
# Example 1: crash during multicast + dependent crash
# ----------------------------------------------------------------------
def test_example1_orphan_message_is_not_delivered_without_its_cause():
    # Pr crashes while multicasting m so that only Ps receives it; Ps
    # delivers m, multicasts m' (causally after m) and crashes before it can
    # refute the suspicion of Pr.  The survivors must either deliver both or
    # neither -- they must never deliver the orphan m' alone (MD5).
    session = _session(["Pi", "Pj", "Pr", "Ps"], seed=7)
    session.group("g")
    session.run(3)

    # Pr multicasts m such that only Ps receives it.
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pr" and dst in ("Pi", "Pj"))
    )
    session["Pr"].multicast("g", "m")
    session.run(0.1)
    session.crash("Pr")

    # Ps reacts to m by multicasting m' and then crashes shortly after.
    def react(group, sender, payload, msg_id):
        if payload == "m":
            session["Ps"].multicast("g", "m-prime")

    session["Ps"].add_delivery_callback(react)
    session.sim.schedule(12.0, session.crash, "Ps")
    session.run(200)

    for name in ("Pi", "Pj"):
        payloads = session[name].delivered_payloads("g")
        assert "m-prime" not in payloads or "m" in payloads
        view = session[name].view("g")
        assert view.sorted_members() == ("Pi", "Pj")
    result = check_all(session.trace(), view_agreement_sets={"g": ["Pi", "Pj"]})
    assert result.passed, result.violations


# ----------------------------------------------------------------------
# Example 3 / partitions: concurrent subgroups stabilise
# ----------------------------------------------------------------------
def test_partition_produces_disjoint_stable_subgroup_views():
    session = _session(["P1", "P2", "P3", "P4", "P5"], seed=8)
    session.group("g")
    session.run(5)
    session.partition([["P1", "P2"], ["P3", "P4", "P5"]])
    session.run(150)
    minority_view = session["P1"].view("g").members
    majority_view = session["P3"].view("g").members
    assert minority_view == frozenset({"P1", "P2"})
    assert majority_view == frozenset({"P3", "P4", "P5"})
    assert not (minority_view & majority_view)
    # Views agree within each side (VC1 restricted to the connected side).
    trace = session.trace()
    assert check_view_sequences(trace, "g", ["P1", "P2"]).passed
    assert check_view_sequences(trace, "g", ["P3", "P4", "P5"]).passed


def test_both_partition_sides_keep_operating():
    # Unlike primary-partition protocols, the minority side keeps delivering.
    session = _session(["P1", "P2", "P3", "P4", "P5"], seed=9)
    session.group("g")
    session.run(5)
    session.partition([["P1", "P2"], ["P3", "P4", "P5"]])
    session.run(150)
    minority_id = session["P1"].multicast("g", "minority-side")
    majority_id = session["P4"].multicast("g", "majority-side")
    assert session.run_until_delivered(minority_id, processes=["P1", "P2"], timeout=100)
    assert session.run_until_delivered(
        majority_id, processes=["P3", "P4", "P5"], timeout=100
    )
    assert "minority-side" in session["P2"].delivered_payloads("g")
    assert "majority-side" in session["P5"].delivered_payloads("g")


def test_signature_views_disjoint_after_partition():
    session = _session(["P1", "P2", "P3", "P4"], seed=10, use_signature_views=True)
    session.group("g")
    session.run(5)
    session.partition([["P1", "P2"], ["P3", "P4"]])
    session.run(150)
    side_one = session["P1"].endpoint("g").signature_view
    side_two = session["P3"].endpoint("g").signature_view
    assert side_one is not None and side_two is not None
    assert not side_one.intersects(side_two)


def test_example2_causal_chain_across_partition_md5_prime():
    # Fig. 2 / Example 2 shape: m1 (from Pk in g1) is lost to a partition;
    # a causally dependent m4 reaches Pi via other groups.  Pi must exclude
    # Pk from its g1 view before (or without ever) delivering anything that
    # causally depends on the lost m1.
    config = NewtopConfig(**FAST)
    session = Session("newtop", config=config, seed=11)
    session.spawn(["Pi", "Pj", "Pk", "Pq"])
    session.group("g1", ["Pi", "Pj", "Pk"])
    session.group("g2", ["Pk", "Pq"])
    session.group("g3", ["Pq", "Pi", "Pj"])
    session.run(5)

    # The partition separates Pk from Pi and Pj exactly while m1 is being
    # multicast, so Pi and Pj never receive m1 but Pq (in g2) hears from Pk.
    session.network.add_filter(
        lambda src, dst, payload: not (src == "Pk" and dst in ("Pi", "Pj"))
    )
    session["Pk"].multicast("g1", "m1")

    chain_state = {"m2_sent": False, "m4_sent": False}

    def relay(group, sender, payload, msg_id):
        if payload == "m1" and not chain_state["m2_sent"]:
            chain_state["m2_sent"] = True
            session["Pk"].multicast("g2", "m2")

    def relay_q(group, sender, payload, msg_id):
        if payload == "m2" and not chain_state["m4_sent"]:
            chain_state["m4_sent"] = True
            session["Pq"].multicast("g3", "m4")

    session["Pk"].add_delivery_callback(relay)
    session["Pq"].add_delivery_callback(relay_q)
    session.run(250)

    # m4 must eventually be delivered to Pi (it is in g3 with Pq)...
    assert "m4" in session["Pi"].delivered_payloads("g3")
    # ...and by then Pk must have been excluded from Pi's view of g1,
    # because m1 could never be retrieved (MD5' option (b)).
    trace = session.trace()
    m4_delivery = [
        event
        for event in trace.events(kind="deliver", process="Pi", group="g3")
        if event.detail("view_index") is not None and event.message_id
    ]
    assert "m1" not in session["Pi"].delivered_payloads("g1")
    assert "Pk" not in session["Pi"].view("g1").members
    views = trace.events(kind=VIEW_INSTALL, process="Pi", group="g1")
    exclusion_time = None
    for event in views:
        if "Pk" not in event.detail("members", ()):
            exclusion_time = event.time
            break
    m4_time = next(
        event.time
        for event in trace.events(kind="deliver", process="Pi", group="g3")
    )
    assert exclusion_time is not None and exclusion_time <= m4_time
    result = check_all(
        session.trace(),
        view_agreement_sets={"g1": ["Pi", "Pj"], "g2": ["Pq"], "g3": ["Pi", "Pj", "Pq"]},
    )
    assert result.passed, result.violations


# ----------------------------------------------------------------------
# Virtual synchrony (MD3) around view changes
# ----------------------------------------------------------------------
def test_virtual_synchrony_same_messages_in_same_view():
    session = _session(["P1", "P2", "P3", "P4"], seed=12)
    session.group("g")
    for i in range(3):
        session["P1"].multicast("g", f"pre{i}")
    session.run(20)
    session.crash("P4")
    for i in range(3):
        session["P2"].multicast("g", f"mid{i}")
    session.run(120)
    for i in range(3):
        session["P3"].multicast("g", f"post{i}")
    session.run(80)
    trace = session.trace()
    survivors = ["P1", "P2", "P3"]
    assert check_same_view_delivery_sets(trace, "g", survivors).passed
    assert check_view_sequences(trace, "g", survivors).passed
    assert check_total_order(trace, "g").passed


def test_block_sends_during_view_change_option():
    # With the ISIS-style closure enabled, sends issued while a view change
    # is pending are deferred rather than transmitted.
    session = _session(["P1", "P2", "P3"], seed=13, block_sends_during_view_change=True)
    session.group("g")
    session.run(5)
    session.crash("P3")
    session.run(120)
    message_id = session["P1"].multicast("g", "after-change")
    assert session.run_until_delivered(message_id, processes=["P1", "P2"], timeout=100)
    assert "after-change" in session["P2"].delivered_payloads("g")


def test_two_member_group_partition_each_continues_alone():
    session = _session(["P1", "P2"], seed=14)
    session.group("g")
    session.run(5)
    session.partition([["P1"], ["P2"]])
    session.run(120)
    assert session["P1"].view("g").members == frozenset({"P1"})
    assert session["P2"].view("g").members == frozenset({"P2"})
