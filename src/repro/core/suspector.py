"""The failure suspector ``S`` (§5.2).

Each group-view process ``GV_x,i`` has a failure suspector module ``S_i``
that monitors the liveliness of every other member of the current view:

    "If S_i observes that no multicast message has been received from Pj
    for a period Omega > omega (omega = the time-silence timeout duration)
    then it suspects the crash of Pj and notifies GV_i of its suspicion."

A notification has the form ``{Pk, ln}`` where ``ln`` is the number of the
last message received from ``Pk``.  In an asynchronous system suspicions
can be wrong -- that is the whole point of the refutation half of the
membership algorithm -- so the suspector is deliberately simple: a timeout
per member, judged on a grid of check points, plus a *forced* suspicion
entry point used by membership step (vii) (reciprocating a confirmed
detection that includes us).

Ring-watched idle groups
------------------------
"Observes that no message has been received" presumes every member sends
to every member, which an idle symmetric group no longer does: a member
that owes its group nothing sends a numberless
:class:`~repro.core.messages.Beacon` to its ``K = min(RING_FANOUT, n - 1)``
successors in the sorted view and nothing to anybody else
(:mod:`repro.core.time_silence`).  The rule that keeps the timeout honest:

    *A member may time out only members its own traffic has obliged to
    answer, and must watch everybody whenever it needs everybody.*

Given a ``needs_everybody`` predicate the suspector records ``heard`` and
``activity`` for every member as before but *initiates* a timeout only for
the members it **watches**:

* its K ring predecessors, always -- their beacons are addressed to it;
* everybody, while the owner needs everybody: the endpoint passes
  ``gv.busy() or process.awaits_delivery()``, the two states in which its
  own traffic (membership gossip, nulls flagged ``awaits_reply``) puts every
  hearer at the ω all-pairs cadence.  A member that only just became
  watched may not have been sending to us at all, so it gets a grace of
  ``min(Ω, 2ω + check_interval)`` -- our flagged null within ω, its answer
  within ω of that, found at the next check -- before its silence counts;
* the target of a peer's suspicion (:meth:`concur`, called on receipt of a
  ``SuspectMessage``), judged on *true* silence: a member that has heard
  nothing at all from ``Pk`` for Ω concurs at once.  That is §5.2's literal
  condition, evaluated when asked rather than polled.  Beacons carry no
  number, so the ``ln`` a non-neighbour concurs with is the ``ln`` the
  monitors hold and rule (iii) does not start refuting concurrences.

Watching everybody while the agreement is busy is what makes the ring safe
against adjacent failures: if ``Pk`` and all K of its successors crash
together nobody is left whose ring covers ``Pk``, yet the suspicions of
the successors cannot confirm without ``Pk``'s support; the survivors are
busy, so they watch ``Pk`` too and time it out after the grace.

The cost is detection latency, not traffic: only K members notice a crash
by themselves, everybody else concurs one gossip hop later (ledger
``churn_idle``: ``view_change_sim`` 7.5 -> 8.375, ``latency_p99_sim`` 3.5
-> 3.75).  Groups of up to ``RING_FANOUT + 1`` members have ``K = n - 1``:
everybody is on everybody's ring and detection times are unchanged.
Liveness evidence is K members wide, too: one monitor's false suspicion
(a single bad link) cannot confirm, because the other monitors still hear
the member and the member refutes it; a member cut off from *all* K of its
successors, and from nobody else, is excluded -- with all-pairs heartbeats
everybody else would have kept refuting.
With ``ring_watched=False`` (asymmetric groups, where a member is heard
through the sequencer's relay and idle nulls stay numbered) every member
is watched all the time.

A tick that can find nothing is not scheduled
---------------------------------------------
§5.2 states suspicion as a deadline, and the suspector keeps it as one.
Ticks fall on one grid -- ``start + k * check_interval`` -- and a tick does
three things: time out a watched member whose ``heard`` is Ω old, notice
the owner starting to need everybody (watch-all entry and its grace), and
give the owner its ``on_tick`` (re-gossip of unresolved suspicions).  The
last two can only happen while the owner is *restless* (``needs_everybody()``
is true: the agreement is busy or something is undelivered), so:

* while restless the suspector ticks at every grid point;
* otherwise the next tick is the first grid point at or after
  ``min(heard) + Ω`` over the watched, unsuspected members -- and with
  nobody to watch there is no timer at all.

The owner calls :meth:`FailureSuspector.poke` after every event that may
have made it restless (one place:
:meth:`repro.core.process.NewtopProcess.settle`), which pulls a
deadline-dated tick in to the next grid point; a pulled-in tick that no
longer has a reason (the owner went quiet again before it fired) goes back
to the deadline, so what a tick sees never depends on how many times the
owner was asked.  ``check_interval`` is therefore the *detection grid* --
how finely a deadline is rounded up -- and not a polling cost: an idle
member wakes about twice per Ω (its predecessors' beacons move the
deadline on by Ω/2 each time).  Without a predicate the owner is taken to
be restless always and every grid point ticks.

Grid points are the floats ``origin + k * check_interval`` and are compared
as such, never through a tolerance: "the next grid point" is the first of
them after ``now`` -- or the pending tick's own time when that tick is due
this very instant -- however few ulps ``now`` is short of one.  A deadline
is such a point later than the moment it was computed at, so it is never
earlier than the next grid point while its tick (pulled in or not) is
pending, and sending a tick back to it never dates into the past.
(Re-dating the tick to a fresh deadline at every poke instead would need no
memory, and was measured: the beacons of an idle group then cancel and
re-schedule a timer each, which costs more than the two wakes per Ω it
saves -- ``churn_idle`` -8 %, ``fuzz_serial`` -5 % in ``ops_per_s``.)
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.messages import Suspicion
from repro.net.simulator import EventHandle, Simulator

#: Callback signature: the suspector notifies its GV with a Suspicion.
NotifyCallback = Callable[[Suspicion], None]

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
    clock, suspected flag) keyed by a dense per-member slot index rather
    than one dict entry per field per member, so a check walks flat
    lists.  Departed members leave a tombstoned slot
    (``_monitored[slot] = False``); slots are never reused, matching
    crash-stop semantics.

    ``needs_everybody`` says whether the owner is restless -- it decides
    which grid points tick, and the owner must :meth:`poke` when it may
    have turned true -- and, unless ``ring_watched`` is false, whether the
    whole view is watched rather than the ring predecessors; ``grace`` is
    how long a member that just became watched is given before its silence
    counts.  See the module docstring.  Without the predicate every member
    is watched and every grid point ticks.
    """

    def __init__(
        self,
        sim: Simulator,
        own_id: str,
        members: Iterable[str],
        suspicion_timeout: float,
        check_interval: float,
        notify: NotifyCallback,
        on_tick: Optional[Callable[[], None]] = None,
        needs_everybody: Optional[Callable[[], bool]] = None,
        grace: float = 0.0,
        ring_watched: bool = True,
    ) -> None:
        if suspicion_timeout <= 0 or check_interval <= 0:
            raise ValueError("suspicion_timeout and check_interval must be positive")
        self.sim = sim
        self.own_id = own_id
        self.suspicion_timeout = suspicion_timeout
        self.check_interval = check_interval
        self._notify = notify
        #: Invoked at the end of every tick (the endpoint uses it to
        #: re-gossip long-unresolved suspicions, which exist only while it
        #: is restless -- and then every grid point ticks).
        self._on_tick = on_tick
        # Slab state: pid -> slot, plus parallel arrays indexed by slot.
        self._slot: Dict[str, int] = {}
        self._pids: List[str] = []
        self._heard: List[float] = []
        #: Time of the last *actual* message from the member.  Unlike
        #: ``_heard`` it is never refreshed by :meth:`clear_suspicion`, so
        #: it answers "how long has this member truly been silent" across
        #: deferred/refuted suspicions.
        self._activity: List[float] = []
        self._clock: List[int] = []
        self._suspected: List[bool] = []
        self._monitored: List[bool] = []
        now = sim.now
        for member in members:
            if member == own_id or member in self._slot:
                continue
            self._slot[member] = len(self._pids)
            self._pids.append(member)
            self._heard.append(now)
            self._activity.append(now)
            self._clock.append(0)
            self._suspected.append(False)
            self._monitored.append(True)
        self._all_slots = range(len(self._pids))
        self._needs_everybody = needs_everybody
        self._ring_watched = needs_everybody is not None and ring_watched
        #: Ring-watched groups: slots of our ring predecessors (ascending,
        #: so a tick notifies in member order either way), whether the last
        #: check watched everybody, and how long a member that just became
        #: watched is given before its silence counts.
        self._ring_slots: List[int] = []
        self._watching_all = False
        self._grace = min(suspicion_timeout, grace)
        if self._ring_watched:
            self._rebuild_ring()
        self._active = False
        #: Ticks fall on ``_origin + k * check_interval``.
        self._origin = self._stopped_at = sim.now
        self._timer: Optional[EventHandle] = None
        #: Whether the next tick was dated without a tick having seen the
        #: owner restless -- by a deadline, or pulled in by a :meth:`poke`
        #: (``_pulled``) -- so that the owner's state decides where it
        #: belongs and :meth:`poke` has something to do.
        self.dozing = False
        self._pulled = False
        #: Where a dozing suspector's tick belongs while the owner is
        #: quiet: a grid point no earlier than the pending tick.
        self._deadline: Optional[float] = None
        metrics = sim.metrics
        if metrics is not None:
            self._c_probes = metrics.counter("suspector.probes")
            self._c_pokes = metrics.counter("suspector.pokes")
            self._c_suspicions = metrics.counter("suspector.suspicions")
            self._c_forced = metrics.counter("suspector.forced_suspicions")
            self._c_concurrences = metrics.counter("suspector.concurrences")
            self._c_watch_all = metrics.counter("suspector.watch_all_entries")
            metrics.sum_gauge("suspector.endpoint_omegas").add(self._omegas_run)
        else:
            self._c_probes = None
            self._c_pokes = None
            self._c_suspicions = None
            self._c_forced = None
            self._c_concurrences = None
            self._c_watch_all = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start monitoring; the tick grid starts here."""
        if self._active:
            return
        self._active = True
        self._origin = now = self.sim.now
        for slot, monitored in enumerate(self._monitored):
            if monitored:
                self._heard[slot] = now
                self._activity[slot] = now
        self._arm(seen=True)

    def stop(self) -> None:
        """Stop monitoring (crash, departure, teardown)."""
        if self._active:
            self._stopped_at = self.sim.now
        self._active = False
        self.dozing = self._pulled = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _omegas_run(self) -> float:
        """How many Ω this suspector has run for: summed over endpoints,
        the denominator of the report's "wakes per endpoint per Ω"."""
        until = self.sim.now if self._active else self._stopped_at
        return (until - self._origin) / self.suspicion_timeout

    def poke(self, restless: Optional[bool] = None) -> None:
        """The owner may have turned restless, or quiet again: pull a
        deadline-dated tick in to the next grid point, or send a pulled-in
        tick that lost its reason back to where it was.  ``restless`` is
        what the predicate would say, for an owner that has just
        evaluated it.  Cheap to call while nothing changed; a no-op unless
        :attr:`dozing`."""
        if not self.dozing:
            return
        if restless is None:
            restless = self._needs_everybody()
        if restless and not self._pulled:
            if self._c_pokes is not None:
                self._c_pokes.value += 1
            self._pulled = True
            self._date(self._next_grid_point())
        elif self._pulled and not restless:
            self._pulled = False
            self._date(self._deadline)

    @property
    def active(self) -> bool:
        """Whether the suspector is currently running."""
        return self._active

    # ------------------------------------------------------------------
    # Inputs from the endpoint
    # ------------------------------------------------------------------
    def heard_from(self, member: str, clock: int) -> None:
        """Record activity from ``member`` carrying message number ``clock``.

        Any group traffic counts (data, null, membership), matching the
        paper's "no multicast message has been received from Pj".
        """
        slot = self._slot.get(member)
        if slot is None or member == self.own_id or not self._monitored[slot]:
            return
        self._heard[slot] = self.sim.now
        self._activity[slot] = self.sim.now
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
        if not self._ring_watched or not self._active:
            return
        slot = self._slot.get(member)
        if slot is None or not self._monitored[slot] or self._suspected[slot]:
            return
        if self.sim.now - self._activity[slot] >= self.suspicion_timeout:
            if self._c_concurrences is not None:
                self._c_concurrences.value += 1
            self._raise_suspicion(member)

    def force_suspect(self, member: str) -> None:
        """Membership step (vii): unconditionally suspect ``member`` now."""
        slot = self._slot.get(member)
        if slot is None or member == self.own_id or not self._monitored[slot]:
            return
        if self._c_forced is not None and not self._suspected[slot]:
            self._c_forced.value += 1
        self._raise_suspicion(member)

    def monitored_members(self) -> Set[str]:
        """Members currently being monitored."""
        return {
            pid for pid, slot in self._slot.items() if self._monitored[slot]
        }

    def last_clock(self, member: str) -> int:
        """Number of the last message seen from ``member`` (0 if none)."""
        slot = self._slot.get(member)
        if slot is None or not self._monitored[slot]:
            return 0
        return self._clock[slot]

    def last_heard(self, member: str) -> Optional[float]:
        """Simulated time at which ``member`` was last heard from, or
        ``None`` if the member is not monitored."""
        slot = self._slot.get(member)
        if slot is None or not self._monitored[slot]:
            return None
        return self._heard[slot]

    def last_activity(self, member: str) -> Optional[float]:
        """Time of the last *actual* message from ``member`` (``None`` when
        not monitored).  Unlike :meth:`last_heard` this is not refreshed by
        :meth:`clear_suspicion`, so it measures true silence across
        deferred or refuted suspicions."""
        slot = self._slot.get(member)
        if slot is None or not self._monitored[slot]:
            return None
        return self._activity[slot]

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
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
        restless = self._needs_everybody is None or self._needs_everybody()
        self._pulled = restless and not seen
        self.dozing = not restless or not seen
        if self.dozing:
            self._deadline = self._deadline_point()
        self._date(self._next_grid_point() if restless else self._deadline)

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
        if self._c_probes is not None:
            self._c_probes.value += 1
        now = self.sim.now
        timeout = self.suspicion_timeout
        slots = self._all_slots
        if self._ring_watched:
            if not self._needs_everybody():
                self._watching_all = False
                slots = self._ring_slots
            elif not self._watching_all:
                self._watching_all = True
                if self._c_watch_all is not None:
                    self._c_watch_all.value += 1
                self._grant_grace(slots)
        # Flat scan over the slabs; slot order equals the original member
        # order, so multi-suspicion ticks notify in the same sequence the
        # dict-backed implementation did.
        for slot in slots:
            if not self._monitored[slot] or self._suspected[slot]:
                continue
            if now - self._heard[slot] >= timeout:
                self._raise_suspicion(self._pids[slot])
        if self._on_tick is not None:
            self._on_tick()
        self._arm(seen=True)

    def _raise_suspicion(self, member: str) -> None:
        slot = self._slot[member]
        if self._suspected[slot]:
            return
        self._suspected[slot] = True
        if self._c_suspicions is not None:
            self._c_suspicions.value += 1
        self._notify(Suspicion(target=member, last_number=self._clock[slot]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        monitored = sorted(self.monitored_members())
        suspected = sorted(
            pid for pid, slot in self._slot.items() if self._suspected[slot]
        )
        return (
            f"FailureSuspector(own={self.own_id!r}, monitored={monitored}, "
            f"suspected={suspected})"
        )
