"""An asymmetric group reaches stability (§5.1 over §4.2).

The sequencer stamps every sequenced message with ``ldn``: the minimum
deliverable bound over the members it has heard from (the ``origin_ldn``
of their requests) and its own.  Its own bound is read directly, so it is
no entry of that minimum; the commit before seeded one for it that nothing
ever raised, and every sequenced message carried ``ldn`` 0.  Then nothing
in an asymmetric group was ever stable: retention grew by every message,
members owed a null every ω for traffic that never settled, and the §7
window never reopened.

Every run here uses ``ConstantLatency``, so each time and count below is
the same on any commit; each test says what the commit before did.
"""

from repro.api import Session
from repro.core.config import OrderingMode
from repro.core.messages import DataMessage
from repro.net.latency import ConstantLatency
from repro.net.trace import DELIVER, NULL_SEND, VIEW_INSTALL

OMEGA, BIG_OMEGA = 2.0, 10.0


def _idle(names, observe=None, **overrides):
    """An asymmetric group over ``names`` (the smallest is the sequencer),
    idle long past its formation."""
    session = Session(
        "newtop", seed=1, observe=observe, latency_model=ConstantLatency(0.7),
        config=dict(omega=OMEGA, suspicion_timeout=BIG_OMEGA, **overrides),
    )
    session.spawn(names)
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session.run(20.3)
    return session


def _endpoints(session, names):
    return [session[name].endpoint("g") for name in names]


# ----------------------------------------------------------------------
# (a) §7: the window reopens
# ----------------------------------------------------------------------
def test_a_window_of_two_reopens_in_an_asymmetric_group():
    """A member sends six with ``flow_control_window=2``: four wait behind
    the window, and each reopens as stability passes what went before.
    All 18 deliveries are made, the last 11.0 after the sends; the commit
    before made 6 and left four sends deferred for good."""
    names = ["P1", "P2", "P3"]
    session = _idle(names, flow_control_window=2)
    start = session.sim.now
    for index in range(6):
        session.multicast("P2", "g", f"m{index}")
    session.run(60.0)
    deliveries = [event for event in session.trace() if event.kind == DELIVER]
    assert len(deliveries) == 18
    assert round(max(event.time for event in deliveries) - start, 6) == 11.0
    assert not session["P2"].endpoint("g").deferred_sends
    assert session.result().passed


# ----------------------------------------------------------------------
# (b) An idle group after a burst: stable, drained, owing nothing
# ----------------------------------------------------------------------
def test_an_idle_group_turns_stable_drains_and_stops_owing():
    """Two multicasts into an idle four-member group.  Within 2Ω every
    member's stability bound passes both, nothing but nulls is retained,
    and no member other than the sequencer owes the group anything: from
    then on every owed firing is the sequencer's (it owes by decision, its
    nulls being the group's ``D_x``), the members send only idle nulls, and
    every buffer holds at most four messages -- the last idle null of each
    member, not yet known stable.  The commit before kept the bound at 0,
    every buffer grew by about one message a second (104 at +70), and all
    four members owed a null every ω."""
    names = ["P1", "P2", "P3", "P4"]
    session = _idle(names, observe=True)
    burst_at = session.sim.now
    sent = [session.multicast("P2", "g", "a"), session.multicast("P3", "g", "b")]
    session.run(2 * BIG_OMEGA)
    burst = [
        event.clock for event in session.trace()
        if event.kind == DELIVER and event.message_id in sent
    ]
    assert len(burst) == 8
    endpoints = _endpoints(session, names)
    assert all(e.stability.stability_bound() >= max(burst) for e in endpoints)
    assert all(e.stability.buffer.non_null_count() == 0 for e in endpoints)
    assert [e.owes_group() for e in endpoints] == [True, False, False, False]

    counters = session.sim.metrics.read_counters
    before = counters()
    since = session.sim.now
    sizes = []
    for _ in range(10):
        session.run(BIG_OMEGA / 2)
        sizes.append([e.stability.buffer.size() for e in endpoints])
        assert [e.owes_group() for e in endpoints] == [True, False, False, False]
    nulls = [
        event.process for event in session.trace()
        if event.kind == NULL_SEND and event.time > since
    ]
    after = counters()
    owed, idle = (
        after[f"time_silence.nulls_{kind}"] - before[f"time_silence.nulls_{kind}"]
        for kind in ("owed", "idle")
    )
    assert owed == nulls.count("P1") == 10
    assert idle == len(nulls) - nulls.count("P1") == 30
    assert max(max(row) for row in sizes) == 4
    assert round(session.sim.now - burst_at, 6) == 70.0
    assert session.result().passed


# ----------------------------------------------------------------------
# (c) Failover: the successor's stamp is not pinned
# ----------------------------------------------------------------------
def test_the_successor_sequencer_stamps_an_ldn_past_the_pre_crash_traffic():
    """The sequencer crashes after each member's multicast was delivered.
    The successor's aggregate has an entry for each surviving member and
    none for itself or the removed sequencer, so the first sequenced
    message after the members' next requests reached it carries an ``ldn``
    past the pre-crash traffic: 4.7 after the view installs (within Ω/2),
    16.1 after the crash.  The commit before stamped ``ldn`` 0 on every
    message the successor sequenced, its own entry pinned at 0."""
    names = ["P1", "P2", "P3", "P4"]
    session = _idle(names)
    stamped = []

    def watch(src, _dst, message):
        payload = message.payload
        if isinstance(payload, DataMessage) and payload.sequenced_by == src == "P2":
            stamped.append((session.sim.now, payload.ldn))
        return True

    session.network.add_filter(watch)
    for name in names[1:]:
        session.multicast(name, "g", f"pre-{name}")
    session.run(3.0)
    pre_crash = max(event.clock for event in session.trace() if event.kind == DELIVER)
    crashed_at = session.sim.now
    session.crash("P1")
    session.run(6 * BIG_OMEGA)

    installed_at = max(
        event.time for event in session.trace()
        if event.kind == VIEW_INSTALL and dict(event.details)["index"] > 0
    )
    covering = [time for time, ldn in stamped if ldn >= pre_crash]
    assert covering, "the successor never stamped past the pre-crash traffic"
    assert round(installed_at - crashed_at, 6) == 11.4
    assert round(covering[0] - installed_at, 6) == 4.7
    successor = session["P2"].endpoint("g")
    assert successor.engine.is_sequencer()
    assert sorted(successor.engine._member_ldn) == ["P3", "P4"]
    survivors = _endpoints(session, names[1:])
    assert all(e.stability.buffer.non_null_count() == 0 for e in survivors)
    assert max(e.stability.buffer.size() for e in survivors) <= 4
    assert session.result().passed
