"""The failure suspector ``S`` (§5.2).

Each group-view process ``GV_x,i`` has a failure suspector module ``S_i``
that monitors the liveliness of every other member of the current view:

    "If S_i observes that no multicast message has been received from Pj
    for a period Omega > omega (omega = the time-silence timeout duration)
    then it suspects the crash of Pj and notifies GV_i of its suspicion."

A notification has the form ``{Pk, ln}`` where ``ln`` is the number of the
last message received from ``Pk``.  Suspicions can be wrong -- the
refutation half of the membership algorithm is for that -- so the suspector
is simple: a timeout per member, judged on a grid of check points, plus a
*forced* suspicion for membership step (vii).

Ring-watched idle groups
------------------------
"Observes that no message has been received" presumes every member sends
to every member, which an idle symmetric group no longer does: a process
that owes a group nothing sends a numberless
:class:`~repro.core.messages.Beacon` naming the group to its
``K = min(RING_FANOUT, n - 1)`` successors in the sorted view and nothing
to anybody else (:mod:`repro.core.time_silence`).  The rule that keeps the
timeout honest: *a member may time out only members its own traffic has
obliged to answer, and must watch everybody whenever it needs everybody.*
The suspector records ``heard`` and ``activity`` for every member but
*initiates* a timeout only for the members it **watches**:

* its K ring predecessors, always -- their beacons are addressed to it;
* everybody, while the owner needs everybody: the endpoint passes
  ``gv.busy() or process.awaits_delivery()``, the two states in which its
  own traffic (membership gossip, nulls flagged ``awaits_reply``) obliges
  every hearer to answer.  A member that only just became watched may not
  have been sending to us at all, so it gets a grace of
  ``min(Ω, 2ω + check_interval)`` -- our flagged null within ω, and its
  answer within ω of that or already in flight (a hearer that has
  multicast something numbered past the flag owes nothing more: that
  multicast reaches us first), found at the next check -- before its
  silence counts;
* the target of a peer's suspicion (:meth:`concur`, on receipt of a
  ``SuspectMessage``), judged on *true* silence: a member that has heard
  nothing at all from ``Pk`` for Ω concurs at once.  Beacons carry no
  number, so a non-neighbour concurs with the ``ln`` the monitors hold and
  rule (iii) does not start refuting concurrences.

Watching everybody while the agreement is busy makes the ring safe against
adjacent failures: if ``Pk`` and all K of its successors crash together
nobody's ring covers ``Pk``, but the survivors are busy with the
successors' suspicions, so they watch ``Pk`` too.  The cost is detection
latency, not traffic: only K members notice a crash by themselves, the rest
concur one gossip hop later.  Liveness evidence is K members wide, too: one
bad link cannot confirm a suspicion, a member cut off from all K successors
and nobody else is excluded.  ``ring_watched=False`` (asymmetric groups:
heard through the sequencer's relay, idle nulls numbered) watches everybody.

A tick that can find nothing is not scheduled
---------------------------------------------
Ticks fall on one grid, ``start + k * check_interval``.  A tick times out a
watched member whose ``heard`` is Ω old, notices the owner starting to need
everybody (watch-all entry and its grace) and gives the owner its
``on_tick`` (re-gossip of unresolved suspicions); the last two can only
happen while the owner is *restless* (``needs_everybody()``).  So while
restless the suspector ticks at every grid point, and otherwise it *dozes*:
its only business is the first grid point at or after ``min(heard) + Ω``
over the watched, unsuspected members.  The owner calls :meth:`poke` after
every event that may have made it restless (one place:
:meth:`repro.core.process.NewtopProcess.settle`), which pulls the tick in
to the next grid point; a pulled-in tick that lost its reason goes back to
the deadline.  ``check_interval`` is the *detection grid* -- how finely a
deadline is rounded up -- not a polling cost.

A dozing suspector whose process runs a heartbeat (``next_wake``) does not
even keep the deadline tick: a healthy predecessor's beacons move the
deadline on by Ω/2 twice per Ω, so it would come for nothing twice per Ω
per group.  The heartbeat's wake calls :meth:`review` instead, which redoes
the deadline and arms a tick only for a watched member that reaches Ω
*before the next wake*, at the grid point it always fell on
(``churn_idle``: 4,965 -> 1,779 ticks, suspicions 132 -> 132).

Grid points are the floats ``origin + k * check_interval``, compared as
such and never through a tolerance: "the next grid point" is the first of
them after ``now`` -- or the pending tick's own time when that tick is due
this very instant.  A deadline is such a point later than the moment it
was computed at and is redone at every review, so sending a tick back to
it never dates into the past.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import Suspicion
from repro.net.simulator import EventHandle, Simulator

#: K: how many ring successors an idle member's beacon goes to, and so how
#: many ring predecessors each member watches while idle.  Three monitors
#: per member, as in SWIM's indirect-probe fan-out: one false suspicion
#: (a single bad link) still leaves two that hear the member.
RING_FANOUT = 3


def ring_successors(ring: Sequence[str], member: str) -> Tuple[str, ...]:
    """The ``min(RING_FANOUT, n - 1)`` members that follow ``member`` on
    ``ring`` (an ordered membership, wrapping around).  The predecessors
    are the successors on the reversed ring."""
    count = len(ring)
    index = ring.index(member)
    return tuple(
        ring[(index + step) % count]
        for step in range(1, min(RING_FANOUT, count - 1) + 1)
    )


class FailureSuspector:
    """Timeout-based failure suspector for one (process, group) pair.

    Member state lives in parallel slab arrays (last-heard time, last
    clock, suspected flag) indexed by a dense per-member slot, so a check
    walks flat lists.  Departed members leave a tombstoned slot
    (``_monitored[slot] = False``); slots are never reused (crash-stop).

    ``needs_everybody`` says whether the owner is restless -- it decides
    which grid points tick, and the owner must :meth:`poke` when it may
    have turned true -- and, unless ``ring_watched`` is false, whether the
    whole view is watched rather than the ring predecessors; ``grace`` is
    how long a member that just became watched is given before its silence
    counts; ``next_wake()`` is when the owner's process heartbeat will next
    call :meth:`review`.  See the module docstring.
    """

    def __init__(
        self,
        sim: Simulator,
        own_id: str,
        members: Iterable[str],
        suspicion_timeout: float,
        check_interval: float,
        notify: Callable[[Suspicion], None],
        on_tick: Callable[[], None],
        needs_everybody: Callable[[], bool],
        grace: float = 0.0,
        ring_watched: bool = True,
        next_wake: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        if suspicion_timeout <= 0 or check_interval <= 0:
            raise ValueError("suspicion_timeout and check_interval must be positive")
        self.sim = sim
        self.own_id = own_id
        self.suspicion_timeout = suspicion_timeout
        self.check_interval = check_interval
        self._notify = notify
        #: Invoked at the end of every tick (the endpoint re-gossips
        #: long-unresolved suspicions, which exist only while it is restless).
        self._on_tick = on_tick
        # Slab state: pid -> slot, plus parallel arrays indexed by slot.
        self._pids: List[str] = [
            member for member in dict.fromkeys(members) if member != own_id
        ]
        self._slot: Dict[str, int] = {pid: slot for slot, pid in enumerate(self._pids)}
        self._all_slots = range(len(self._pids))
        self._heard: List[float] = [sim.now] * len(self._pids)
        #: Time of the last *actual* message from the member.  Unlike
        #: ``_heard`` it is never refreshed by :meth:`clear_suspicion`, so
        #: it answers "how long has this member truly been silent" across
        #: deferred/refuted suspicions.
        self._activity: List[float] = list(self._heard)
        self._clock: List[int] = [0] * len(self._pids)
        self._suspected: List[bool] = [False] * len(self._pids)
        self._monitored: List[bool] = [True] * len(self._pids)
        self._needs_everybody = needs_everybody
        self._ring_watched = ring_watched
        #: Ring-watched groups: slots of our ring predecessors (ascending:
        #: a tick notifies in member order), whether the last check watched
        #: everybody, and the grace of a member that just became watched.
        self._ring_slots: List[int] = []
        self._watching_all = False
        self._grace = min(suspicion_timeout, grace)
        if self._ring_watched:
            self._rebuild_ring()
        self._active = False
        #: Ticks fall on ``_origin + k * check_interval``.
        self._origin = sim.now
        self._timer: Optional[EventHandle] = None
        #: Whether the next tick was dated without a tick having seen the
        #: owner restless -- by a deadline, or pulled in by a :meth:`poke`
        #: (``_pulled``) -- so that :meth:`poke` has something to do.
        self.dozing = False
        self._pulled = False
        #: Where a dozing suspector's tick belongs while the owner is
        #: quiet: a grid point no earlier than the pending tick.
        self._deadline: Optional[float] = None
        self._next_wake = next_wake
        #: Ticks run, ticks pulled in by a poke, suspicions raised (of
        #: them forced by rule (vii), or concurring with a peer's), and
        #: ticks that began watching everybody.
        self.probes = self.pokes = self.suspicions = 0
        self.forced_suspicions = self.concurrences = self.watch_all_entries = 0
        if sim.metrics is not None:
            sim.metrics.counter_source("suspector.", self._counts)

    def _counts(self) -> Dict[str, int]:
        return {
            "probes": self.probes,
            "pokes": self.pokes,
            "suspicions": self.suspicions,
            "forced_suspicions": self.forced_suspicions,
            "concurrences": self.concurrences,
            "watch_all_entries": self.watch_all_entries,
        }

    def start(self) -> None:
        """Start monitoring; the tick grid starts here."""
        if self._active:
            return
        self._active = True
        self._origin = now = self.sim.now
        for slot, monitored in enumerate(self._monitored):
            if monitored:
                self._heard[slot] = self._activity[slot] = now
        self._arm(seen=True)

    def stop(self) -> None:
        """Stop monitoring (crash, departure, teardown)."""
        self._active = False
        self.dozing = self._pulled = False
        self._date(None)

    def poke(self, restless: Optional[bool] = None) -> None:
        """The owner may have turned restless, or quiet again: pull a
        deadline-dated tick in to the next grid point, or send a pulled-in
        tick that lost its reason back.  ``restless`` is what the predicate
        would say, for an owner that has just evaluated it.  A no-op unless
        :attr:`dozing`."""
        if not self.dozing:
            return
        if restless is None:
            restless = self._needs_everybody()
        if restless and not self._pulled:
            self.pokes += 1
            self._pulled = True
            self._date(self._next_grid_point())
        elif self._pulled and not restless:
            self._pulled = False
            self._rest()

    def review(self) -> None:
        """The owner's process heartbeat woke: run the deadline test a tick
        of our own would have come for, and keep a tick only for a watched
        member that reaches Ω before the heartbeat's next wake."""
        if self.dozing:
            self._deadline = self._deadline_point()
            if not self._pulled:
                self._rest()

    def heard_from(self, member: str, clock: int) -> None:
        """Record activity from ``member`` carrying message number ``clock``;
        any group traffic counts (data, null, membership, a beacon that
        names the group): "no multicast message has been received"."""
        slot = self._slot.get(member)
        if slot is None or not self._monitored[slot]:
            return
        self._heard[slot] = self._activity[slot] = self.sim.now
        if clock > self._clock[slot]:
            self._clock[slot] = clock

    def clear_suspicion(self, member: str) -> None:
        """A suspicion on ``member`` was refuted; allow re-suspecting later."""
        slot = self._slot.get(member)
        if slot is None:
            return
        self._suspected[slot] = False
        if self._monitored[slot]:
            self._heard[slot] = self.sim.now
            if self.dozing:
                # Watched again, with a deadline of its own.
                self._arm(seen=False)

    def remove_member(self, member: str) -> None:
        """Stop monitoring ``member`` (it left the view)."""
        slot = self._slot.get(member)
        if slot is None:
            return
        self._monitored[slot] = False
        self._suspected[slot] = False
        if self._ring_watched:
            self._rebuild_ring()
            if self.dozing:
                # The ring moved on to a member with its own deadline.
                self._arm(seen=False)

    def concur(self, member: str) -> None:
        """A peer announced a suspicion of ``member``: in a ring-watched
        group, suspect it too if we have heard nothing at all from it for
        the full timeout (true silence -- a refuted or deferred suspicion
        refreshes ``heard``, not ``activity``)."""
        slot = self._monitored_slot(member)
        if slot is None or self._suspected[slot]:
            return
        if not self._ring_watched or not self._active:
            return
        if self.sim.now - self._activity[slot] >= self.suspicion_timeout:
            self.concurrences += 1
            self._raise_suspicion(member)

    def force_suspect(self, member: str) -> None:
        """Membership step (vii): unconditionally suspect ``member`` now."""
        slot = self._monitored_slot(member)
        if slot is None:
            return
        if not self._suspected[slot]:
            self.forced_suspicions += 1
        self._raise_suspicion(member)

    def monitored_members(self) -> Set[str]:
        """Members currently being monitored."""
        return {pid for pid, slot in self._slot.items() if self._monitored[slot]}

    def _monitored_slot(self, member: str) -> Optional[int]:
        slot = self._slot.get(member)
        return slot if slot is not None and self._monitored[slot] else None

    def last_clock(self, member: str) -> int:
        """Number of the last message seen from ``member`` (0 if none)."""
        slot = self._monitored_slot(member)
        return 0 if slot is None else self._clock[slot]

    def last_heard(self, member: str) -> Optional[float]:
        """When ``member`` was last heard from (``None``: not monitored)."""
        slot = self._monitored_slot(member)
        return None if slot is None else self._heard[slot]

    def last_activity(self, member: str) -> Optional[float]:
        """Time of the last *actual* message from ``member`` (``None`` when
        not monitored).  Unlike :meth:`last_heard` this is not refreshed by
        :meth:`clear_suspicion`, so it measures true silence across
        deferred or refuted suspicions."""
        slot = self._monitored_slot(member)
        return None if slot is None else self._activity[slot]

    def _next_grid_point(self) -> float:
        """The first grid point a tick can still take: the first after
        now, or this very instant's while its tick is pending (dating a
        tick never skips one that is due).  Grid points are the floats
        ``origin + k * interval`` and are compared as such: the division
        only finds where to look."""
        now = self.sim.now
        if self._timer is not None and self._timer.time <= now:
            return self._timer.time
        origin, interval = self._origin, self.check_interval
        k = math.floor((now - origin) / interval)
        while origin + k * interval > now:
            k -= 1
        while origin + k * interval <= now:
            k += 1
        return origin + k * interval

    def _deadline_point(self) -> Optional[float]:
        """The first grid point a tick can still take at which a watched
        member will have been silent for Ω by the tick's own test
        (``now - heard >= timeout``); ``None`` when nobody is watched."""
        heard = self._heard
        earliest = min(
            (
                heard[slot]
                for slot in (self._ring_slots if self._ring_watched else self._all_slots)
                if self._monitored[slot] and not self._suspected[slot]
            ),
            default=None,
        )
        if earliest is None:
            return None
        origin, interval, timeout = self._origin, self.check_interval, self.suspicion_timeout
        k = math.ceil((earliest + timeout - origin) / interval)
        while origin + (k - 1) * interval - earliest >= timeout:
            k -= 1
        while origin + k * interval - earliest < timeout:
            k += 1
        return max(self._next_grid_point(), origin + k * interval)

    def _date(self, when: Optional[float]) -> None:
        """Have the pending tick at ``when`` (``None``: no tick); one that
        is there already keeps its place among that instant's events."""
        timer = self._timer
        if timer is not None:
            if timer.time == when:
                return
            timer.cancel()
        self._timer = (
            None if when is None
            else self.sim.schedule_at(when, self._on_check, label="suspector")
        )

    def _arm(self, seen: bool) -> None:
        """Date the next tick from scratch: the next grid point while the
        owner is restless, else the deadline point.  ``seen`` says a tick
        is doing the dating, so that a restless owner has been seen
        restless; otherwise the tick is only pulled in, and :meth:`poke`
        may still send it back to the deadline."""
        if not self._active:
            return
        restless = self._needs_everybody()
        self._pulled = restless and not seen
        self.dozing = not restless or not seen
        if self.dozing:
            self._deadline = self._deadline_point()
        if restless:
            self._date(self._next_grid_point())
        else:
            self._rest()

    def _rest(self) -> None:
        """Date a quiet suspector's tick at its deadline -- or nowhere, if
        the process heartbeat wakes first: its wake reviews the deadline."""
        deadline = self._deadline
        if deadline is not None and self._next_wake is not None:
            wake = self._next_wake()
            if wake is not None and wake < deadline:
                deadline = None
        self._date(deadline)

    def _rebuild_ring(self) -> None:
        """Recompute our ring predecessors over the members still
        monitored; one that was not on the ring before starts with the
        grace, like anybody newly watched."""
        ring = sorted(
            [pid for pid, slot in self._slot.items() if self._monitored[slot]]
            + [self.own_id]
        )
        slots = sorted(
            self._slot[pid] for pid in ring_successors(ring[::-1], self.own_id)
        )
        self._grant_grace(slots)
        self._ring_slots = slots

    def _grant_grace(self, slots: Iterable[int]) -> None:
        """Those of ``slots`` that were not on the ring just became
        watched: their silence so far does not count beyond Ω - grace."""
        floor = self.sim.now - self.suspicion_timeout + self._grace
        heard = self._heard
        ring = self._ring_slots
        for slot in slots:
            if slot not in ring and heard[slot] < floor:
                heard[slot] = floor

    def _on_check(self) -> None:
        if not self._active:
            return
        # Nothing is pending while this runs: a poke raised from inside a
        # notification must not re-date a tick that has already fired.
        self._timer = None
        self.dozing = self._pulled = False
        self.probes += 1
        now = self.sim.now
        timeout = self.suspicion_timeout
        slots = self._all_slots
        if self._ring_watched:
            if not self._needs_everybody():
                self._watching_all = False
                slots = self._ring_slots
            elif not self._watching_all:
                self._watching_all = True
                self.watch_all_entries += 1
                self._grant_grace(slots)
        # Slot order is member order: multi-suspicion ticks notify in it.
        for slot in slots:
            if not self._monitored[slot] or self._suspected[slot]:
                continue
            if now - self._heard[slot] >= timeout:
                self._raise_suspicion(self._pids[slot])
        self._on_tick()
        self._arm(seen=True)

    def _raise_suspicion(self, member: str) -> None:
        slot = self._slot[member]
        if self._suspected[slot]:
            return
        self._suspected[slot] = True
        self.suspicions += 1
        self._notify(Suspicion(target=member, last_number=self._clock[slot]))
