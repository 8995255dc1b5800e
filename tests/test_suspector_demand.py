"""The demand-driven suspector: a tick that can find nothing is not
scheduled (``repro.core.suspector``).

Ticks stay on one grid -- ``start + k * check_interval`` -- but only the
grid points at which a tick could do something are scheduled: every one
while the owner is restless, otherwise the first at or after the earliest
deadline among the watched.  The owner pokes when it may have turned
restless.  Default tuning throughout: omega 2, Omega 10, check interval 1.
"""

import collections
import math

import pytest

from repro.api import Session
from repro.core import NewtopConfig
from repro.core.config import OrderingMode
from repro.core.messages import ConfirmMessage, RefuteMessage, SuspectMessage
from repro.core.suspector import FailureSuspector
from repro.net.simulator import Simulator
from repro.net.trace import SUSPECT

OMEGA, BIG_OMEGA, CHECK = 2.0, 10.0, 1.0
GRACE = min(BIG_OMEGA, 2 * OMEGA + CHECK)
NAMES = [f"P{index:02d}" for index in range(1, 13)]
CONFIG = NewtopConfig(
    omega=OMEGA, suspicion_timeout=BIG_OMEGA, suspector_check_interval=CHECK
)


# ----------------------------------------------------------------------
# (a) An idle group pays for its deadlines, not for the grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC])
def test_idle_group_wakes_at_most_three_times_per_timeout(mode):
    session = Session(
        "newtop", CONFIG, seed=3, analysis="online", observe={"sampler": False}
    )
    session.spawn(NAMES)
    session.group("g", NAMES, mode=mode)
    session.run(3 * BIG_OMEGA)
    counters = session.observation.registry.read_counters

    def deadline_tests():
        # A ring-watched suspector's deadline test rides the process
        # heartbeat's wake; an asymmetric group's runs on its own tick.
        return counters()["suspector.probes"] + counters()["heartbeat.wakes"]

    wakes_before = deadline_tests()
    session.run(10 * BIG_OMEGA)
    wakes = deadline_tests() - wakes_before
    # Polling cost Omega / check = 10 wakes per endpoint per Omega.
    assert 0 < wakes <= 3 * len(NAMES) * 10
    assert counters().get("trace.suspect", 0) == 0
    assert session.result().passed


class _FiredLabels:
    """Stands in for the simulator's profiler: counts fired events by the
    first word of their scheduling label."""

    def __init__(self):
        self.fired = collections.Counter()

    def record_event(self, label, elapsed):
        self.fired[label.split(" ")[0]] += 1


def _five_idle_for_four_timeouts(symmetric, asymmetric=()):
    """P1-P5, every one in every group, constant link delay (no latency
    draw: the counts are the same on any commit).  Returns the timers
    fired by label and the payloads sent during 4 Omega of idleness."""
    from repro.net.latency import ConstantLatency

    session = Session("newtop", config=CONFIG, latency_model=ConstantLatency(0.7), seed=1)
    session.spawn(NAMES[:5])
    for group in symmetric:
        session.group(group)
    for group in asymmetric:
        session.group(group, mode=OrderingMode.ASYMMETRIC)
    session.run(20.3)
    session.sim.profiler = labels = _FiredLabels()
    sent = []
    session.network.add_filter(
        lambda src, dst, message: sent.append(message.payload) or True
    )
    session.run(4 * BIG_OMEGA)
    assert not session.trace().events(kind=SUSPECT)
    return labels.fired, sent


@pytest.mark.parametrize("overlap", [1, 2, 4])
def test_liveness_timers_per_process_do_not_grow_with_the_overlap(overlap):
    fired, _ = _five_idle_for_four_timeouts([f"g{i}" for i in range(overlap)])
    # One heartbeat wake per process per Omega / 2 -- 5 x 2 x 4 -- and no
    # timer per group at all: the wake beacons for every dormant group
    # and runs every suspector's deadline test.  (Per group before: 2
    # time-silence firings and a suspector tick per Omega, 60 / 120 / 240.)
    assert fired["heartbeat"] == 40
    assert fired["time-silence"] == fired["suspector"] == 0


def test_an_overlapping_asymmetric_group_sends_and_wakes_what_it_did_alone():
    # Pinned on the commit before the heartbeat moved to the process:
    # numbered idle nulls through the sequencer, a tick per deadline.
    for symmetric in ([], ["g0", "g1"]):
        fired, sent = _five_idle_for_four_timeouts(symmetric, asymmetric=["a"])
        assert sum(1 for payload in sent if getattr(payload, "group", "") == "a") == 224
        assert (fired["time-silence"], fired["suspector"]) == (56, 20)
        assert fired["heartbeat"] == (40 if symmetric else 0)


# ----------------------------------------------------------------------
# (b) A peer's suspicion wakes a sleeping member on the grid
# ----------------------------------------------------------------------
def test_suspect_message_pulls_the_tick_in_and_the_grace_is_unchanged():
    session = Session("newtop", config=CONFIG, seed=1)
    session.spawn(NAMES)
    session.group("g")
    session.run(40.3)
    endpoint = session["P01"].endpoint("g")
    suspector = endpoint.suspector
    # P01 watches P10-P12 and sleeps until one of their deadlines; P05 is
    # not on its ring and was last heard during start-up.
    assert suspector.dozing and not endpoint.gv.busy()
    assert suspector.last_heard("P05") < BIG_OMEGA
    session.crash("P07")
    assert session.sim.run_until(endpoint.gv.busy, timeout=3 * BIG_OMEGA)
    # A monitor's SuspectMessage just arrived (P01 concurred on the spot).
    # The watch-all entry is the business of the next grid point -- the
    # group started at 0, so the next whole number -- and not of this event.
    arrived = session.sim.now
    entry = math.floor(arrived / CHECK) * CHECK + CHECK
    assert suspector.dozing
    session.sim.run(until=entry - 1e-6)
    assert suspector.last_heard("P05") < BIG_OMEGA
    session.sim.run(until=entry)
    # Watching everybody from `entry` on: P05's silence counts from
    # entry - Omega + min(Omega, 2 * omega + check), as it always did.
    assert suspector.last_heard("P05") == pytest.approx(entry - BIG_OMEGA + GRACE)
    assert not suspector.dozing
    session.run(3 * BIG_OMEGA)
    assert {
        event.detail("target") for event in session.trace().events(kind=SUSPECT)
    } == {"P07"}


# ----------------------------------------------------------------------
# (c) Flapping inside one interval
# ----------------------------------------------------------------------
def _ring_suspector(sim, restless, ticks, notifications):
    suspector = FailureSuspector(
        sim, "P05", NAMES, suspicion_timeout=BIG_OMEGA, check_interval=CHECK,
        notify=notifications.append, on_tick=lambda: ticks.append(sim.now),
        needs_everybody=lambda: restless[0], grace=GRACE,
    )
    suspector.start()
    # The ring predecessors beacon twice per Omega (5.5, 10.5, ...); nobody
    # else says a word.
    for beat in range(1, 12):
        for member in ("P02", "P03", "P04"):
            sim.schedule_at(5.0 * beat + 0.5, suspector.heard_from, member, 0)
    return suspector


def _flap(sim, suspector, restless, states, start=22.2, step=0.2):
    def turn(state):
        restless[0] = state
        suspector.poke()

    for index, state in enumerate(states):
        sim.schedule_at(start + index * step, turn, state)


QUIET_TICKS = [10.0, 16.0, 26.0, 36.0, 46.0]


def test_quiet_suspector_ticks_only_at_its_deadlines():
    sim, ticks, notifications = Simulator(), [], []
    _ring_suspector(sim, [False], ticks, notifications)
    sim.run(until=50.0)
    # Deadline 10 at the start, when the ring was last heard at 5.5: the
    # next deadline is 15.5, rounded up to the grid.  That tick finds them
    # heard half a unit ago, and so on: one wake per Omega, not ten.
    assert ticks == QUIET_TICKS
    assert notifications == []


def test_flapping_that_ends_quiet_costs_no_tick_at_all():
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    _flap(sim, suspector, restless, [True, False, True, False])
    sim.run(until=50.0)
    assert ticks == QUIET_TICKS
    assert notifications == []


def test_flapping_that_ends_restless_costs_one_pulled_in_tick():
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    _flap(sim, suspector, restless, [True, False, True])
    # Quiet again at 23.5: the tick at 24 sees it and goes back to sleep.
    _flap(sim, suspector, restless, [False], start=23.5)
    sim.run(until=50.0)
    assert ticks == [10.0, 16.0, 23.0, 24.0, 31.0, 41.0]
    # The tick at 23 started watching everybody, with the grace: nobody's
    # 23 time units of silence were held against them.
    assert notifications == []


def test_poke_takes_the_owners_word_for_the_predicate():
    # settle() evaluates the predicate once for all of a process's groups
    # and passes the answer down; the tick itself asks again.
    sim, ticks, notifications = Simulator(), [], []
    suspector = _ring_suspector(sim, [False], ticks, notifications)
    sim.schedule_at(22.2, suspector.poke, True)
    sim.run(until=50.0)
    assert ticks == [10.0, 16.0, 23.0, 31.0, 41.0]
    assert notifications == []


def test_restless_suspector_ticks_at_every_grid_point():
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    _flap(sim, suspector, restless, [True])
    sim.run(until=26.5)
    assert ticks == [10.0, 16.0, 23.0, 24.0, 25.0, 26.0]
    assert notifications == []
    # Watched since 23 with a grace of 5: the silent eight are due at 28.
    sim.run(until=28.0)
    assert sorted(s.target for s in notifications) == [
        "P01", "P06", "P07", "P08", "P09", "P10", "P11", "P12",
    ]


def test_a_poke_at_the_deadline_instant_does_not_skip_the_due_tick():
    """Found by a fuzz campaign (corpus seed 4, spec 70): the owner turns
    restless in an event of the very instant the deadline tick is due,
    ahead of it.  Pulling in must not push that tick a grid point later --
    and the later "quiet again" must not send it back into the past."""
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    # The tick at 26 was dated at 16; these two are scheduled ahead of it.
    sim.schedule_at(1.0, lambda: _flap(sim, suspector, restless, [True], start=26.0))
    _flap(sim, suspector, restless, [False], start=26.27)
    sim.run(until=50.0)
    assert ticks == [10.0, 16.0, 26.0, 27.0, 36.0, 46.0]
    assert notifications == []


@pytest.mark.parametrize("short", [5e-14, 1e-10, 1e-6])
def test_a_poke_just_short_of_the_deadline_does_not_skip_the_due_tick(short):
    """Found in review: receipts at times accumulated as ``t += 0.1`` land a
    few ulps short of a grid point.  The tick due there is the next grid
    point -- a tolerance that called it passed dated the tick a full
    interval late, and "quiet again" then sent it back into the past."""
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    _flap(sim, suspector, restless, [True], start=26.0 - short)
    _flap(sim, suspector, restless, [False], start=26.27)
    sim.run(until=50.0)
    assert ticks == [10.0, 16.0, 26.0, 27.0, 36.0, 46.0]
    assert notifications == []


def test_a_pulled_in_tick_goes_back_to_a_deadline_that_is_still_ahead():
    # Restless at 22.2, so the tick of 26 is pulled in to 23; quiet again
    # a few ulps short of 23: back to 26, not into the past and not to 27.
    sim, ticks, notifications = Simulator(), [], []
    restless = [False]
    suspector = _ring_suspector(sim, restless, ticks, notifications)
    _flap(sim, suspector, restless, [True])
    _flap(sim, suspector, restless, [False], start=23.0 - 5e-14)
    sim.run(until=30.0)
    assert ticks == [10.0, 16.0, 26.0]


def test_grid_points_off_a_fractional_origin_are_never_skipped_or_doubled():
    # 0.7 + k * 0.1 is rarely the float nearest to the decimal: a restless
    # owner must still tick once at every one of them.
    sim, ticks = Simulator(), []
    sim.run(until=0.7)
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2"], suspicion_timeout=1000.0, check_interval=0.1,
        notify=lambda suspicion: None, on_tick=lambda: ticks.append(sim.now),
        needs_everybody=lambda: True,
    )
    suspector.start()
    sim.run(until=100.05)
    assert ticks == [0.7 + k * 0.1 for k in range(1, len(ticks) + 1)]
    assert len(ticks) == 993 and ticks[-1] == pytest.approx(100.0)


@pytest.mark.parametrize("members", [5, 8])
@pytest.mark.parametrize("delay", [0.3, 0.5])
def test_receipts_just_short_of_grid_points_end_to_end(members, delay):
    """The review's reproduction: constant latency and send times
    accumulated in floating point put receipts a few ulps under whole
    numbers, where deadline ticks are pending."""
    from repro.net.latency import ConstantLatency

    names = NAMES[:members]
    session = Session("newtop", config=CONFIG, latency_model=ConstantLatency(delay), seed=1)
    session.spawn(names)
    session.group("g")
    time, count = 0.0, 0
    while time < 300.0:
        time += 0.1
        count += 1
        if count % 37 < 3:
            session.sim.schedule_at(
                time, session[names[count % 3]].multicast, "g", f"m{count}"
            )
    session.run(320.0)
    assert session.trace().events(kind=SUSPECT) == []
    delivered = {len(process.delivered) for process in session.processes.values()}
    assert len(delivered) == 1 and delivered.pop() > 200


def test_clearing_a_suspicion_gives_a_sleeping_suspector_a_deadline():
    sim, notifications = Simulator(), []
    suspector = FailureSuspector(
        sim, "P1", ["P1", "P2"], suspicion_timeout=BIG_OMEGA, check_interval=CHECK,
        notify=notifications.append, on_tick=lambda: None,
        needs_everybody=lambda: False,
    )
    suspector.start()
    sim.run(until=12.5)
    # Its only member suspected, a quiet suspector has nothing to wait for.
    assert len(notifications) == 1 and sim.live_pending_events == 0
    suspector.clear_suspicion("P2")
    sim.run(until=40.0)
    assert len(notifications) == 2 and sim.now == 40.0


# ----------------------------------------------------------------------
# (d) Unresolved suspicions are still re-gossiped once per Omega
# ----------------------------------------------------------------------
def test_unresolved_suspicion_is_regossiped_once_per_timeout():
    names = NAMES[:4]
    session = Session("newtop", config=CONFIG, seed=2)
    session.spawn(names)
    session.group("g")
    session.run(20.3)
    # The membership plane is cut, as by a partition that lets nulls
    # through: every survivor suspects P04 and none hears of another's
    # support, so each holds its suspicion unresolved.
    announced = []

    def membership_cut(src, dst, message):
        payload = message.payload
        if isinstance(payload, SuspectMessage) and src == "P01" and dst == "P02":
            announced.append(session.sim.now)
        return not isinstance(payload, (SuspectMessage, RefuteMessage, ConfirmMessage))

    session.network.add_filter(membership_cut)
    session.crash("P04")
    session.run(4.5 * BIG_OMEGA)
    assert len(announced) == 4
    first = announced[0]
    # Announced by the tick that timed P04 out, re-announced by the ticks
    # exactly one, two and three Omega later: the restless grid is intact.
    assert first == math.floor(first)
    assert announced == [first + BIG_OMEGA * round_ for round_ in range(4)]
    assert session["P01"].view("g").sorted_members() == tuple(names)
