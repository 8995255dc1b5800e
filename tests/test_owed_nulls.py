"""A null is owed only for work no message already on the wire does.

``GroupEndpoint.owes_group()`` narrows three of its conditions to what a
multicast of ours has not yet covered (the channels are FIFO, so a
multicast already sent is on its way to every peer):

* (a) a member's null flagged ``awaits_reply`` is answered only if nothing
  we multicast in the group is numbered past it;
* (b) unstable traffic is owed an ``ldn`` at ω only until we have
  multicast one covering it; after that a still-unstable group re-sends one
  flagged null per heartbeat period, which draws the acknowledgment a lost
  message did not deliver;
* (c) a busy agreement is owed nulls only until our last numbered send
  passes the largest ``ln`` it holds (``tests/test_ring_watch.py``) -- and
  in a symmetric group the suspicion itself is that send: suspect and
  confirm messages carry their sender's null.

Every run here uses ``ConstantLatency``, so each time and count below is
the same on any commit; each test says what the commit before sent.
"""

from repro.analysis import check_all
from repro.api import Session
from repro.core import NewtopConfig
from repro.core.config import OrderingMode
from repro.core.messages import ConfirmMessage, DataMessage, SuspectMessage
from repro.net.latency import ConstantLatency
from repro.net.trace import DELIVER, NULL_SEND, SEND, SUSPECT, VIEW_INSTALL

OMEGA, BIG_OMEGA = 2.0, 10.0
TWELVE = [f"P{index:02d}" for index in range(1, 13)]


def _idle(names, delay, idle_for=20.3, **overrides):
    config = NewtopConfig(
        omega=OMEGA, suspicion_timeout=BIG_OMEGA, suspector_check_interval=1.0,
        **overrides,
    )
    session = Session("newtop", config=config, latency_model=ConstantLatency(delay), seed=1)
    session.spawn(names)
    session.group("g")
    session.run(idle_for)
    return session


def _group_nulls(session, since):
    """(time, process) of every numbered null sent in ``g`` since ``since``
    (a heartbeat wake's ``null_send`` has no group)."""
    return [
        (round(event.time - since, 6), event.process)
        for event in session.trace().events(kind=NULL_SEND)
        if event.group == "g" and event.time >= since
    ]


def _all_stable(session):
    return all(
        process.endpoint("g").stability.buffer.non_null_count() == 0
        for process in session.processes.values()
    )


# ----------------------------------------------------------------------
# (a) A flagged null is answered unless a send of ours is numbered past it
# ----------------------------------------------------------------------
def _flagged_null_draws(offset):
    """P2 hears a null flagged ``awaits_reply`` from P1, numbered
    ``offset`` past P2's own last multicast in the group; how many nulls
    does P2 send in the next ω?"""
    session = _idle(["P1", "P2", "P3"], 0.7)
    session["P2"].multicast("g", "x")
    session.run(BIG_OMEGA)
    assert _all_stable(session) and not session["P2"].endpoint("g").owes_group()
    last_sent = max(
        event.clock for event in session.trace().events(process="P2")
        if event.kind in (SEND, NULL_SEND) and event.group == "g"
    )
    asked_at = session.sim.now
    flagged = DataMessage.null("P1", "g", last_sent + offset, 0, awaits_reply=True)
    session["P2"].endpoint("g").on_data_message(flagged)
    session.run(OMEGA + 1e-6)
    return _group_nulls(session, asked_at)


def test_a_flag_numbered_below_our_last_multicast_draws_no_null():
    # That multicast is already on its way to P1 (the commit before: one).
    assert _flagged_null_draws(-1) == []


def test_a_flag_numbered_past_our_last_multicast_draws_one_null_within_omega():
    # P2 has been silent for longer than ω: it answers at once (the
    # commit before: the same).
    assert _flagged_null_draws(+1) == [(0.0, "P2")]


# ----------------------------------------------------------------------
# (b) Unstable traffic is owed an ldn once; a lost one is asked for again
# ----------------------------------------------------------------------
def _isolated_burst(delay, drop=None):
    """Two multicasts into an idle 12-member group; returns the session,
    the burst's instant and the ``(src, dst)`` null dropped, if any: with
    ``drop``, the first null on that link whose ``ldn`` covers the burst."""
    session = _idle(TWELVE, delay)
    burst_at = session.sim.now
    dropped = []
    if drop is not None:
        def lose_covering_null(src, dst, message):
            payload = message.payload
            covering = (
                isinstance(payload, DataMessage) and payload.kind == "null"
                and payload.ldn >= covered
            )
            if (src, dst) == drop and covering and not dropped:
                dropped.append(round(session.sim.now - burst_at, 6))
                return False
            return True

        session.network.add_filter(lose_covering_null)
    session["P01"].multicast("g", "a")
    session["P02"].multicast("g", "b")
    covered = max(
        event.clock for event in session.trace().events(kind=SEND)
        if event.time >= burst_at
    )
    return session, burst_at, dropped


def _stable_after(session, since, horizon, step=0.05):
    while session.sim.now < since + horizon:
        session.run(step)
        if _all_stable(session):
            return round(session.sim.now - since, 6)
    return None


def test_an_isolated_burst_costs_24_null_multicasts():
    """Every member acknowledges the burst once and the two senders each
    once more -- 24 null multicasts, all numbered; the commit before sent
    34, ten of them at 5.2 repeating an ``ldn`` the 3.2 round had carried.
    Deliveries and the instant the group turns stable are unchanged."""
    session, burst_at, _ = _isolated_burst(1.2)
    assert _stable_after(session, burst_at, 30.0) == 5.2
    session.run(30.0)
    nulls = _group_nulls(session, burst_at)
    assert len(nulls) == 24
    assert sorted({time for time, _ in nulls}) == [1.2, 2.0, 3.2, 4.0]
    deliveries = [
        round(event.time - burst_at, 6)
        for event in session.trace().events(kind=DELIVER)
    ]
    assert len(deliveries) == 24 and max(deliveries) == 2.4
    assert not session.trace().events(kind="suspect")


def test_a_lost_covering_null_is_asked_for_again_within_a_heartbeat_period():
    """P05's null that acknowledged the burst never reaches P01, which
    stays unstable although its own ``ldn`` covers the burst.  P01 re-sends
    one flagged null a heartbeat period after its last numbered send
    (2.0 + Ω/2), every member answers at once, and the group is stable two
    hops later.  The commit before left P01 unstable for good, sending a
    null at ω that nobody had to answer."""
    session, burst_at, dropped = _isolated_burst(0.7, drop=("P05", "P01"))
    assert _stable_after(session, burst_at, 30.0) == 8.4  # 7.0 + 2 hops
    session.run(10.0)
    assert dropped == [2.7]
    nulls = _group_nulls(session, burst_at)
    assert len(nulls) == 22 + 1 + 11
    assert [entry for entry in nulls if entry[0] >= 7.0] == [(7.0, "P01")] + [
        (7.7, name) for name in TWELVE if name != "P01"
    ]
    assert check_all(session.trace()).passed


def test_a_window_of_one_sender_still_drains():
    """``flow_control_window=1``: each send waits until the one before is
    stable, so every acknowledgment is on the sender's critical path.  Five
    sends drain by 20.0 in 120 null multicasts; the commit before drained
    by 19.2 in as many -- its receivers' trailing nulls, owed while the
    message was still unstable at them, happened to carry their number to
    the sender before the next message reached them."""
    session = _idle(TWELVE, 1.2, flow_control_window=1)
    start = session.sim.now
    for index in range(5):
        session["P01"].multicast("g", f"m{index}")
    session.run(60.0)
    assert all(len(process.delivered) == 5 for process in session.processes.values())
    drained = max(
        record.time for process in session.processes.values() for record in process.delivered
    )
    assert round(drained - start, 6) == 20.0
    assert len(_group_nulls(session, start)) == 120


# ----------------------------------------------------------------------
# (c) The agreement's number rides the suspicion itself
# ----------------------------------------------------------------------
def _crash_agreement(mode=None):
    """P3 crashes in an idle five-member group; the session, the crash
    instant and every suspect / confirm message put on the wire."""
    names = ["P1", "P2", "P3", "P4", "P5"]
    config = NewtopConfig(
        omega=OMEGA, suspicion_timeout=BIG_OMEGA, suspector_check_interval=1.0
    )
    session = Session("newtop", config=config, latency_model=ConstantLatency(0.7), seed=1)
    session.spawn(names)
    session.group("g", mode=mode)
    session.run(20.3)
    agreement = []
    session.network.add_filter(
        lambda src, dst, message: isinstance(
            message.payload, (SuspectMessage, ConfirmMessage)
        ) and agreement.append((src, message.payload)) or True
    )
    crashed_at = session.sim.now
    session.crash("P3")
    session.run(30.0)
    return session, crashed_at, agreement


def test_a_crash_agreement_sends_no_null_of_its_own():
    """Each survivor's suspect message carries its null, numbered 2, past
    ``ln`` 1, and its confirmation the next one, 3; every survivor's ``RV``
    ends at 3 for each of the others, so each took its peers' nulls through
    the ordinary null path.  P3's ring successors suspect 7.7 after the
    crash, P2 concurs a hop later and the last view installs at 9.1, as on
    the commit before, which sent three nulls of their own at 7.7 (P1, P4,
    P5) to pass ``ln`` and left P2's entry at 1."""
    session, crashed_at, agreement = _crash_agreement()
    survivors = ["P1", "P2", "P4", "P5"]
    suspicions = session.trace().events(kind=SUSPECT)
    assert {event.detail("last_number") for event in suspicions} == {1}
    assert {round(event.time - crashed_at, 6) for event in suspicions} == {7.7, 8.4}
    installs = [
        event.time for event in session.trace().events(kind=VIEW_INSTALL)
        if event.time > crashed_at
    ]
    assert round(max(installs) - crashed_at, 6) == 9.1
    carried = {
        (type(payload).__name__, src, payload.null.clock)
        for src, payload in agreement
    }
    assert carried == {("SuspectMessage", name, 2) for name in survivors} | {
        ("ConfirmMessage", name, 3) for name in survivors
    }
    assert _group_nulls(session, crashed_at) == []
    for name in survivors:
        receive_vector = session[name].endpoint("g").engine.receive_vector
        assert {member: receive_vector[member] for member in survivors} == dict.fromkeys(
            survivors, 3
        )
    assert check_all(session.trace()).passed


def test_an_asymmetric_agreement_carries_no_null():
    """A member's null in an asymmetric group travels through the
    sequencer, not over the FIFO channel to each peer: its suspicions and
    confirmations go out unnumbered, as before."""
    session, _, agreement = _crash_agreement(OrderingMode.ASYMMETRIC)
    assert agreement
    assert all(payload.null is None for _, payload in agreement)
    survivors = ("P1", "P2", "P4", "P5")
    for name in survivors:
        assert session[name].view("g").sorted_members() == survivors
    assert check_all(session.trace()).passed
