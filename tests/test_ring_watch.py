"""Ring-watched idle groups: the idle heartbeat of a symmetric group is a
numberless beacon to K ring successors -- one per process pair, naming the
groups it vouches for (``repro.core.time_silence``) -- and the suspector
times out only the members it watches (``repro.core.suspector``).

Every scenario runs a 12-member group at the default tuning (omega 2,
Omega 10, check interval 1) unless it says otherwise; link delays are
uniform in [0.5, 1.5], so one gossip hop is at most 1.5.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import check_all
from repro.api import Session
from repro.core import NewtopConfig
from repro.core.messages import (
    Beacon,
    ConfirmMessage,
    RefuteMessage,
    SCALAR_BYTES,
    SuspectMessage,
)
from repro.core.suspector import RING_FANOUT, FailureSuspector, ring_successors
from repro.core.time_silence import Heartbeat, TimeSilence
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.trace import CONFIRM, NULL_SEND, REFUTE, SUSPECT, VIEW_INSTALL

OMEGA, BIG_OMEGA, CHECK, HOP = 2.0, 10.0, 1.0, 1.5
NAMES = [f"P{index:02d}" for index in range(1, 13)]


def _idle_group(names=NAMES, seed=1, idle_for=40.3):
    config = NewtopConfig(
        omega=OMEGA, suspicion_timeout=BIG_OMEGA, suspector_check_interval=CHECK
    )
    session = Session("newtop", config=config, seed=seed)
    session.spawn(list(names))
    session.group("g")
    session.run(idle_for)
    return session


def _cut_link(session, a, b):
    session.network.add_filter(lambda src, dst, payload: {src, dst} != {a, b})


def _events_since(session, kind, start):
    return [event for event in session.trace().events(kind=kind) if event.time >= start]


def _exclusion_times(session, dead, crashed_at):
    """(survivor, dead member) -> how long after the crash the survivor
    installed a view without it."""
    times = {}
    for event in session.trace().events(kind=VIEW_INSTALL):
        if event.time > crashed_at and event.process not in dead:
            for member in dead:
                if member not in event.detail("members"):
                    times.setdefault((event.process, member), event.time - crashed_at)
    return times


# ----------------------------------------------------------------------
# The ring, the two clocks, the watched set (no network)
# ----------------------------------------------------------------------
def test_ring_successors_wrap_and_shrink_with_the_group():
    assert RING_FANOUT == 3
    assert ring_successors(NAMES, "P01") == ("P02", "P03", "P04")
    assert ring_successors(NAMES, "P11") == ("P12", "P01", "P02")
    # Predecessors are the successors on the reversed ring.
    assert ring_successors(NAMES[::-1], "P02") == ("P01", "P12", "P11")
    # K = min(3, n - 1): small groups are all-pairs.
    assert ring_successors(["A", "B", "C", "D"], "C") == ("D", "A", "B")
    assert ring_successors(["A", "B", "C"], "C") == ("A", "B")
    assert ring_successors(["A", "B"], "A") == ("B",)
    assert ring_successors(["A"], "A") == ()


def _beaconing_timer(sim, owed, unstable=(False,)):
    """One symmetric group's timer wired to a process heartbeat, as an
    endpoint wires them: un-owed, the timer goes dormant and the heartbeat
    beacons the group's one ring successor -- unless the group is still
    unstable, when it re-sends a null asking for answers instead."""
    sent = []

    def send_null(ask=False):
        sent.append(("resend" if ask else "null", sim.now))
        silence.notify_sent()

    silence = TimeSilence(
        sim, 2.0, send_null, owed=lambda: owed[0], idle_period=5.0,
        cover=lambda: heartbeat.cover(group), unstable=lambda: unstable[0],
    )
    group = SimpleNamespace(
        group_id="g", time_silence=silence, ring_successors=("P2",),
        view=SimpleNamespace(members={"P1", "P2"}),
        suspector=SimpleNamespace(review=lambda: None),
    )
    heartbeat = Heartbeat(
        sim, 5.0, lambda: [group],
        send=lambda neighbours, groups: sent.append(("beacon", sim.now)),
        record=lambda: None,
    )
    silence.start()
    return silence, sent


def test_unowed_firings_beacon_and_the_first_null_stays_numbered():
    sim = Simulator()
    silence, sent = _beaconing_timer(sim, owed=[False])
    sim.run(until=18.0)
    assert sent == [("null", 2.0), ("beacon", 7.0), ("beacon", 12.0), ("beacon", 17.0)]
    assert silence.nulls_sent == 1


def test_a_beacon_restarts_the_idle_period_but_not_the_omega_clock():
    sim = Simulator()
    owed = [False]
    silence, sent = _beaconing_timer(sim, owed)

    def become_owed():
        owed[0] = True
        silence.demand()

    # Beacon at 7.0; owed at 7.5.  The last *numbered* send was at 2.0, more
    # than omega ago, so the null is due now -- not at 7.0 + omega.
    sim.schedule_at(7.5, become_owed)
    sim.run(until=8.0)
    assert sent == [("null", 2.0), ("beacon", 7.0), ("null", 7.5)]
    # That null is the number the 7.0 heartbeat did not carry: it continues
    # the heartbeat's period rather than starting its own, so the member's
    # omega grid (9, 11, ...) and its next heartbeat stand where they would
    # have with a numbered heartbeat.
    sim.schedule_at(11.5, lambda: owed.__setitem__(0, False))
    sim.run(until=17.0)
    assert sent[3:] == [("null", 9.0), ("null", 11.0), ("beacon", 16.0)]


def test_covered_but_unstable_resends_at_the_idle_period_instead_of_going_dormant():
    """The third deadline: owed nothing, but still holding unstable
    traffic, the timer is not dormant -- it re-sends one numbered null per
    idle period, and goes dormant at the first firing that finds the group
    stable."""
    sim = Simulator()
    unstable = [True]
    silence, sent = _beaconing_timer(sim, owed=[False], unstable=unstable)
    sim.run(until=13.0)
    assert sent == [("null", 2.0), ("resend", 7.0), ("resend", 12.0)]
    assert silence.idle_armed and not silence.dormant
    unstable[0] = False
    sim.run(until=23.0)
    assert sent[3:] == [("beacon", 17.0), ("beacon", 22.0)]
    assert silence.dormant


def test_a_null_more_than_omega_after_the_beacon_starts_its_own_period():
    sim = Simulator()
    owed = [False]
    silence, sent = _beaconing_timer(sim, owed)

    def become_owed():
        owed[0] = True
        silence.demand()

    sim.schedule_at(9.5, become_owed)
    sim.schedule_at(10.0, lambda: owed.__setitem__(0, False))
    sim.run(until=15.0)
    assert sent[1:] == [("beacon", 7.0), ("null", 9.5), ("beacon", 14.5)]


def _ring_suspector(sim, needs_everybody, notifications, own="P05"):
    suspector = FailureSuspector(
        sim, own, NAMES, suspicion_timeout=BIG_OMEGA, check_interval=CHECK,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: needs_everybody[0], grace=2 * OMEGA + CHECK,
    )
    suspector.start()
    return suspector


def test_idle_suspector_times_out_only_its_ring_predecessors():
    sim = Simulator()
    notifications = []
    _ring_suspector(sim, [False], notifications)
    sim.run(until=30.0)
    # Nobody is heard from at all, yet only P02-P04 (whose beacons are
    # addressed to P05) are timed out, at the first check past Omega.
    assert [s.target for s in notifications] == ["P02", "P03", "P04"]


def test_watching_everybody_starts_with_a_grace_not_a_verdict():
    sim = Simulator()
    notifications = []
    needs_everybody = [False]
    suspector = _ring_suspector(sim, needs_everybody, notifications)
    for beat in range(1, 40):
        for member in ("P02", "P03", "P04"):
            sim.schedule_at(float(beat), suspector.heard_from, member, 0)
    sim.run(until=30.0)
    assert notifications == []
    # The other eight have been silent for 3 * Omega.  Needing everybody
    # from 30.5 on (the owner pokes: the next tick was dated 40), the check
    # at 31 starts watching them and gives them
    # min(Omega, 2 * omega + check) = 5: P12 answers in time, the rest are
    # suspected at 36, not at 31.
    sim.schedule_at(30.5, needs_everybody.__setitem__, 0, True)
    sim.schedule_at(30.5, suspector.poke)
    sim.schedule_at(34.0, suspector.heard_from, "P12", 9)
    sim.run(until=35.5)
    assert notifications == []
    sim.run(until=36.5)
    assert sorted(s.target for s in notifications) == [
        "P01", "P06", "P07", "P08", "P09", "P10", "P11",
    ]


def test_concur_judges_true_silence_and_only_when_asked():
    sim = Simulator()
    notifications = []
    suspector = _ring_suspector(sim, [False], notifications)
    sim.schedule_at(15.0, suspector.heard_from, "P09", 4)
    sim.run(until=20.5)
    notifications.clear()
    # P08 and P09 are not on P05's ring: nothing times them out.  Asked
    # about them, P05 concurs on P08 (silent since 0) with the ln it holds,
    # and not on P09 (heard 5.5 ago).
    suspector.concur("P08")
    suspector.concur("P09")
    assert [(s.target, s.last_number) for s in notifications] == [("P08", 0)]
    # A refuted suspicion refreshes ``heard``, not ``activity``: asked again
    # the silence is still true, so the answer is still yes.
    suspector.clear_suspicion("P08")
    suspector.concur("P08")
    assert [s.target for s in notifications] == ["P08", "P08"]


def test_losing_a_predecessor_moves_the_ring_on():
    sim = Simulator()
    notifications = []
    suspector = _ring_suspector(sim, [False], notifications)
    suspector.remove_member("P03")
    sim.run(until=30.0)
    assert sorted(s.target for s in notifications) == ["P01", "P02", "P04"]


# ----------------------------------------------------------------------
# (a) What an idle group puts on the wire
# ----------------------------------------------------------------------
def test_idle_heartbeat_reaches_three_ring_successors_and_carries_no_clock():
    session = _idle_group(idle_for=10.5)
    wire = []
    session.network.add_filter(
        lambda src, dst, payload: wire.append((src, dst, payload.payload)) or True
    )
    clocks = {name: session[name].clock.value for name in NAMES}
    vectors = {
        name: session[name].endpoint("g").engine.receive_vector.as_dict()
        for name in NAMES
    }
    start = session.sim.now
    session.run(3 * BIG_OMEGA)
    # Nothing but beacons, each to exactly the sender's three successors.
    assert wire and all(isinstance(payload, Beacon) for _, _, payload in wire)
    beats = len(_events_since(session, NULL_SEND, start))
    assert beats == 12 * 6 and len(wire) == RING_FANOUT * beats
    for name in NAMES:
        assert {dst for src, dst, _ in wire if src == name} == set(
            ring_successors(NAMES, name)
        )
    # No number: no Lamport clock ticked, no receive vector moved.
    for name in NAMES:
        assert session[name].clock.value == clocks[name]
        engine = session[name].endpoint("g").engine
        assert engine.receive_vector.as_dict() == vectors[name]
    # First null at omega (numbered, all-pairs), then one beat per Omega/2.
    times = [e.time for e in session.trace().events(kind=NULL_SEND, process="P07")]
    assert times == pytest.approx([OMEGA + BIG_OMEGA / 2 * beat for beat in range(8)])
    assert not session.trace().events(kind=SUSPECT)


# ----------------------------------------------------------------------
# (b) K = n - 1: small groups detect exactly as before
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "size, first_suspicion, all_excluded", [(2, 8.70, 8.70), (3, 8.70, 10.08)]
)
def test_small_groups_keep_their_detection_times(size, first_suspicion, all_excluded):
    # Pinned on the parent commit (all-pairs numbered heartbeats), seed 1.
    names = NAMES[:size]
    session = _idle_group(names)
    crashed_at = session.sim.now
    session.crash(names[size // 2])
    session.run(3 * BIG_OMEGA)
    suspicions = _events_since(session, SUSPECT, crashed_at)
    assert len(suspicions) == size - 1
    assert min(e.time for e in suspicions) - crashed_at == pytest.approx(
        first_suspicion, abs=0.01
    )
    excluded = _exclusion_times(session, [names[size // 2]], crashed_at)
    assert len(excluded) == size - 1
    assert max(excluded.values()) == pytest.approx(all_excluded, abs=0.01)


# ----------------------------------------------------------------------
# (c) One crash in an idle group
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_idle_crash_costs_one_gossip_hop_and_everybody_agrees_on_ln(seed):
    session = _idle_group(seed=seed)
    crashed_at = session.sim.now
    session.crash("P07")
    session.run(3 * BIG_OMEGA)
    excluded = _exclusion_times(session, ["P07"], crashed_at)
    assert len(excluded) == 11
    # The parent (every member times P07 out by itself) had all eleven
    # views installed 10.19-10.20 after the crash on these seeds.
    assert max(excluded.values()) <= 10.20 + HOP + CHECK
    suspicions = _events_since(session, SUSPECT, crashed_at)
    assert len(suspicions) == 11
    # Three monitors found out by timeout; the other eight concurred, all
    # on the monitors' {P07, ln}: beacons carry no number to disagree on.
    assert {e.detail("last_number") for e in suspicions} == {1}
    assert not _events_since(session, REFUTE, crashed_at)
    watchers = {"P08", "P09", "P10"}
    first_by_timeout = min(e.time for e in suspicions if e.process in watchers)
    assert all(
        e.time > first_by_timeout for e in suspicions if e.process not in watchers
    )
    assert check_all(session.trace()).passed


# ----------------------------------------------------------------------
# (d) One monitor's link fails: a false suspicion dies, nobody is excluded
# ----------------------------------------------------------------------
def _membership_send_times(session, periods):
    """Run ``periods`` x Omega; when each suspect/refute/confirm transport
    send went out."""
    sent_at = []
    session.network.add_filter(
        lambda src, dst, message: isinstance(
            message.payload, (SuspectMessage, RefuteMessage, ConfirmMessage)
        ) and sent_at.append(session.sim.now) or True
    )
    session.run(periods * BIG_OMEGA)
    return sent_at


def _membership_sends_per_timeout(session, periods):
    """Run ``periods`` x Omega and count the suspect/refute/confirm
    transport sends of each Omega-long window."""
    start = session.sim.now
    windows = [0] * periods
    for time in _membership_send_times(session, periods):
        windows[min(int((time - start) / BIG_OMEGA), periods - 1)] += 1
    return windows


def _bursts(times):
    """Send counts of the bursts in ``times``, split at every silence
    longer than Omega / 2."""
    bursts = []
    for index, time in enumerate(times):
        if index == 0 or time - times[index - 1] > BIG_OMEGA / 2:
            bursts.append(0)
        bursts[-1] += 1
    return bursts


def test_false_suspicion_by_one_monitor_is_refuted_and_nobody_is_excluded():
    session = _idle_group()
    start = session.sim.now
    _cut_link(session, "P05", "P06")  # P06 is one of P05's three monitors
    sent_at = _membership_send_times(session, 2)
    suspicions = _events_since(session, SUSPECT, start)
    assert suspicions[0].process == "P06"
    assert {e.detail("target") for e in suspicions} == {"P05"}
    # The two monitors that still hear P05's beacons never agree, so the
    # suspicion cannot confirm; P05 learns of it from the concurrences and
    # refutes it, and every suspecter accepts.
    assert not {"P07", "P08"} & {e.process for e in suspicions}
    refutes = _events_since(session, REFUTE, start)
    assert "P05" in {e.process for e in refutes}
    accepted = {e.process for e in refutes if e.detail("accepted")}
    assert accepted == {e.process for e in suspicions}
    assert not _events_since(session, CONFIRM, start)
    for name in NAMES:
        assert session[name].view("g").sorted_members() == tuple(NAMES)
        assert not session[name].endpoint("g").gv.busy()
    # The link stays cut, so the cycle repeats, Omega after the last one
    # was refuted: P06 suspects, the eight non-neighbours concur (one
    # multicast each), P05 refutes, the suspecters accept -- 25 multicasts,
    # 276 sends.  An echo (a suspecter concurring once more with a late
    # peer, refuted at once) adds a few: cycles cost 276-368 sends over
    # seeds 1-8, and 276-400 when every suspicion still came with a null of
    # its own.  It must not grow: at most 36 multicasts a cycle.  (Per
    # Omega window this run reads [76, 200, 276, 276, 0, 368]: windows cut
    # through cycles, and the last cycle falls in one window with its
    # echoes.)  The mean stays below the 264 sends per Omega that the
    # all-pairs heartbeat's cycle (P06 suspects, ten members refute) cost.
    session.run(4 * BIG_OMEGA)  # the filter keeps recording into sent_at
    cycles = _bursts(sent_at)
    assert len(cycles) == 4
    assert max(cycles) <= 36 * (len(NAMES) - 1)
    assert len(sent_at) / 6 <= 264
    assert not _events_since(session, CONFIRM, start)
    for name in NAMES:
        assert session[name].view("g").sorted_members() == tuple(NAMES)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_member_cut_from_all_its_monitors_and_nobody_else_is_excluded(seed):
    """The price of K monitors, pinned: liveness evidence about a member is
    its K successors wide.  P05 loses its links to P06-P08 and to nobody
    else; all three monitors time it out, the eight non-neighbours -- who
    hear nothing from an idle P05 either way -- concur before P05's own
    refutation arrives, and the group excludes it.  With all-pairs
    heartbeats everybody else kept refuting instead: nobody was excluded
    and the group spent 660-690 membership sends per Omega on it for as
    long as the links stayed cut.  Not reachable by a crash or a clean
    partition."""
    session = _idle_group(seed=seed)
    cut_at = session.sim.now
    for monitor in ("P06", "P07", "P08"):
        _cut_link(session, "P05", monitor)
    windows = _membership_sends_per_timeout(session, 4)
    rest = [name for name in NAMES if name != "P05"]
    excluded = _exclusion_times(session, ["P05"], cut_at)
    assert set(excluded) == {(name, "P05") for name in rest}
    assert max(excluded.values()) <= BIG_OMEGA + CHECK + HOP
    for name in rest:
        assert session[name].view("g").sorted_members() == tuple(rest)
        assert not session[name].endpoint("g").owes_group()
    # P05 reciprocates (step vii) and ends up alone; then it is over.
    assert session["P05"].view("g").sorted_members() == ("P05",)
    assert windows[2:] == [0, 0]


# ----------------------------------------------------------------------
# (e) Waking up: flipping to watch-all suspects nobody
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_waking_from_long_idleness_raises_no_suspicion(seed):
    session = _idle_group(seed=seed, idle_for=3 * BIG_OMEGA + 7.3)
    sent_at = session.sim.now
    message_id = session["P03"].multicast("g", "wake")
    assert session.run_until_delivered(message_id, timeout=10.0)
    # Every receiver answers at once: the parent took 3.2 here.
    assert session.sim.now - sent_at < 3.2
    session.run(4 * BIG_OMEGA)
    assert not session.trace().events(kind=SUSPECT)
    assert not any(session[name].endpoint("g").owes_group() for name in NAMES)


# ----------------------------------------------------------------------
# (f) A dead link nobody's ring runs over: found when traffic needs it
# ----------------------------------------------------------------------
def test_link_cut_between_non_neighbours_does_not_wedge_the_group():
    session = _idle_group()
    _cut_link(session, "P02", "P08")
    cut_at = session.sim.now
    session.run(3 * BIG_OMEGA)
    # Idle, neither sends the other anything: there is nothing to miss.
    assert not _events_since(session, SUSPECT, cut_at)
    sent_at = session.sim.now
    message_id = session["P05"].multicast("g", "resume")
    # P02 and P08 now wait on each other's nulls, so each watches everybody
    # and times the other out after the grace; the members that hear both
    # refute with the missing messages piggybacked (rule iii), exactly as
    # they did on the parent.
    assert session.run_until_delivered(message_id, timeout=2 * BIG_OMEGA)
    assert session.sim.now - sent_at < BIG_OMEGA
    suspicions = _events_since(session, SUSPECT, sent_at)
    assert {(e.process, e.detail("target")) for e in suspicions} == {
        ("P02", "P08"), ("P08", "P02"),
    }
    session.run(3 * BIG_OMEGA)
    assert not _events_since(session, CONFIRM, cut_at)
    for name in NAMES:
        assert session[name].delivered_payloads("g") == ["resume"]
        assert session[name].view("g").sorted_members() == tuple(NAMES)
    assert check_all(session.trace()).passed


# ----------------------------------------------------------------------
# The wedge: a member and all K of its successors crash together
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_member_and_all_its_ring_successors_crashing_together(seed):
    """Nobody's ring covers P05 once P06-P08 are gone, but the suspicions
    of P06-P08 cannot confirm without P05's support.  A suspector that
    watched everybody only while its process awaited a delivery left the
    group at omega all-pairs for good; it must also watch everybody while
    the agreement is busy."""
    session = _idle_group(seed=seed)
    dead = ["P05", "P06", "P07", "P08"]
    crashed_at = session.sim.now
    for name in dead:
        session.crash(name)
    session.run(3 * BIG_OMEGA)
    survivors = [name for name in NAMES if name not in dead]
    excluded = _exclusion_times(session, dead, crashed_at)
    assert set(excluded) == {(s, d) for s in survivors for d in dead}
    assert max(excluded.values()) <= 3 * BIG_OMEGA
    for name in survivors:
        assert session[name].view("g").sorted_members() == tuple(survivors)
        assert not session[name].endpoint("g").owes_group()
    message_id = session["P01"].multicast("g", "after")
    assert session.run_until_delivered(message_id, processes=survivors, timeout=10.0)
    assert check_all(session.trace()).passed


# ----------------------------------------------------------------------
# A beacon vouches for a neighbour, not for a group: overlapping groups
# ----------------------------------------------------------------------
# Five processes in fully overlapping groups, constant link delay 0.7 (no
# latency draw, so every time below is the same on any commit); pinned on
# the commit before the heartbeat moved to the process.
FIVE = [f"P{index}" for index in range(1, 6)]


def _overlapping(groups, idle_for):
    config = NewtopConfig(
        omega=OMEGA, suspicion_timeout=BIG_OMEGA, suspector_check_interval=CHECK
    )
    session = Session("newtop", config=config, latency_model=ConstantLatency(0.7), seed=1)
    session.spawn(FIVE)
    for group in groups:
        session.group(group)
    session.run(idle_for)
    wire = []
    session.network.add_filter(
        lambda src, dst, message: wire.append((src, dst, message.payload)) or True
    )
    return session, wire


@pytest.mark.parametrize("overlap", [1, 2, 4])
def test_beacons_to_a_shared_neighbour_do_not_grow_with_the_overlap(overlap):
    groups = tuple(f"g{index}" for index in range(overlap))
    session, wire = _overlapping(groups, idle_for=20.3)
    session.run(4 * BIG_OMEGA)
    assert wire and all(isinstance(payload, Beacon) for _, _, payload in wire)
    # One beacon per ring neighbour per Omega / 2, naming every shared
    # group: 8 from P1 to P2 and 5 x 3 x 8 in all, in 1, 2 or 4 groups
    # (one per group before: 8, 16, 32 and 120, 240, 480).
    assert sum(1 for src, dst, _ in wire if (src, dst) == ("P1", "P2")) == 8
    assert len(wire) == len(FIVE) * RING_FANOUT * 8
    assert {payload.groups for _, _, payload in wire} == {groups}
    assert {payload.wire_size_bytes() for _, _, payload in wire} == {
        Beacon("P1", ("g",)).wire_size_bytes() + SCALAR_BYTES * (overlap - 1)
    }
    assert not session.trace().events(kind=SUSPECT)


@pytest.mark.parametrize("overlap", [1, 2, 4])
def test_a_neighbours_crash_is_suspected_in_every_shared_group_on_the_same_grid_point(
    overlap,
):
    groups = [f"g{index}" for index in range(overlap)]
    session, _ = _overlapping(groups, idle_for=60.3)
    session.crash("P2")
    session.run(3 * BIG_OMEGA)
    for group in groups:
        suspicions = {
            event.process: event.time
            for event in session.trace().events(kind=SUSPECT, group=group)
        }
        # P2's three monitors time it out at the grid point 68, P1 concurs
        # one hop later: in every group, as with one heartbeat per group.
        assert suspicions == pytest.approx(
            {"P3": 68.0, "P4": 68.0, "P5": 68.0, "P1": 68.7}, abs=1e-6
        )
        installs = {
            event.process: event.time
            for event in session.trace().events(kind=VIEW_INSTALL, group=group)
            if event.time > 60.3
        }
        assert installs == pytest.approx(
            {"P1": 68.7, "P3": 69.4, "P4": 69.4, "P5": 69.4}, abs=1e-6
        )


def test_no_survivor_sends_a_busy_null_after_passing_the_suspicions_ln():
    """While the agreement on P2 runs, a survivor owes the group nulls only
    until one of its numbered sends passes the suspicion's ``ln``: then
    every view-change threshold the agreement can reach is below what its
    peers hold of it.  The suspicion itself is that send: each survivor's
    suspect message carries its null, numbered 2, past ``ln`` 1, and its
    confirmation the next one, so no survivor sends a null of its own
    again -- only beacons (``group=None``).  Two commits back P3-P5 sent
    three separate nulls at 68.0 and three more at 69.0, the commit before
    this the three at 68.0 (the times above are the same on all three)."""
    session, wire = _overlapping(["g0"], idle_for=60.3)
    session.crash("P2")
    session.run(3 * BIG_OMEGA)
    (ln,) = {event.detail("last_number") for event in session.trace().events(kind=SUSPECT)}
    assert ln == 1
    carried = {
        (type(payload).__name__, src, payload.null.clock)
        for src, _, payload in wire
        if isinstance(payload, (SuspectMessage, ConfirmMessage))
    }
    survivors = ("P1", "P3", "P4", "P5")
    assert carried == {("SuspectMessage", name, 2) for name in survivors} | {
        ("ConfirmMessage", name, 3) for name in survivors
    }
    assert not [
        event for event in session.trace().events(kind=NULL_SEND)
        if event.group is not None and event.time > 60.3
    ]


def test_leaving_one_of_two_overlapping_groups_is_silence_in_that_group():
    """A departure *is* silence in one group: P3 leaves g and stays in the
    idle h, which has the same members and so the same ring neighbours.
    Its beacons must stop vouching for g (a prototype that credited every
    receipt to every shared group kept P3 alive in g through h, see
    ``tests/test_fuzz_regressions.py``), and g excludes it when it always
    did: its monitors at the grid point 48, P2 one hop later."""
    session, wire = _overlapping(["g", "h"], idle_for=40.3)
    session["P3"].leave_group("g")
    session.run(3 * BIG_OMEGA)
    from_p3 = [payload for src, _, payload in wire if src == "P3"]
    assert from_p3 and all(payload.groups == ("h",) for payload in from_p3)
    suspicions = session.trace().events(kind=SUSPECT)
    assert {(e.group, e.detail("target")) for e in suspicions} == {("g", "P3")}
    assert {e.process: e.time for e in suspicions} == pytest.approx(
        {"P1": 48.0, "P4": 48.0, "P5": 48.0, "P2": 48.7}, abs=1e-6
    )
    installs = {
        event.process: event.time
        for event in session.trace().events(kind=VIEW_INSTALL, group="g")
        if event.time > 40.3
    }
    assert installs == pytest.approx(
        {"P2": 48.7, "P1": 49.4, "P4": 49.4, "P5": 49.4}, abs=1e-6
    )
    for name in FIVE:
        assert session[name].view("h").sorted_members() == tuple(FIVE)
