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
per member, checked periodically, plus a *forced* suspicion entry point
used by membership step (vii) (reciprocating a confirmed detection that
includes us).

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
Without the predicate (asymmetric groups, where a member is heard through
the sequencer's relay and idle nulls stay numbered) every member is
watched all the time.
"""

from __future__ import annotations

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
    than one dict entry per field per member: the periodic check -- the
    hottest loop at scale, every member of every group scanned every
    ``check_interval`` -- walks flat lists.  Departed members leave a
    tombstoned slot (``_monitored[slot] = False``); slots are never
    reused, matching crash-stop semantics.

    ``needs_everybody`` makes the group ring-watched and ``grace`` is how
    long a member that just became watched is given before its silence
    counts -- see the module docstring; without the predicate every member
    is watched all the time.
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
    ) -> None:
        if suspicion_timeout <= 0 or check_interval <= 0:
            raise ValueError("suspicion_timeout and check_interval must be positive")
        self.sim = sim
        self.own_id = own_id
        self.suspicion_timeout = suspicion_timeout
        self.check_interval = check_interval
        self._notify = notify
        #: Invoked at the end of every periodic check -- a convenient
        #: group-paced heartbeat for owners (the endpoint uses it to
        #: re-gossip long-unresolved suspicions).
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
        #: Ring-watched groups: slots of our ring predecessors (ascending,
        #: so a tick notifies in member order either way), whether the last
        #: check watched everybody, and how long a member that just became
        #: watched is given before its silence counts.
        self._ring_slots: List[int] = []
        self._watching_all = False
        self._grace = min(suspicion_timeout, grace)
        if needs_everybody is not None:
            self._rebuild_ring()
        self._active = False
        self._timer: Optional[EventHandle] = None
        self.suspicions_raised = 0
        metrics = sim.metrics
        if metrics is not None:
            self._c_probes = metrics.counter("suspector.probes")
            self._c_suspicions = metrics.counter("suspector.suspicions")
            self._c_forced = metrics.counter("suspector.forced_suspicions")
            self._c_concurrences = metrics.counter("suspector.concurrences")
            self._c_watch_all = metrics.counter("suspector.watch_all_entries")
        else:
            self._c_probes = None
            self._c_suspicions = None
            self._c_forced = None
            self._c_concurrences = None
            self._c_watch_all = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start periodic silence checks."""
        if self._active:
            return
        self._active = True
        now = self.sim.now
        for slot, monitored in enumerate(self._monitored):
            if monitored:
                self._heard[slot] = now
                self._activity[slot] = now
        self._schedule_check()

    def stop(self) -> None:
        """Stop monitoring (crash, departure, teardown)."""
        self._active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

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

    def remove_member(self, member: str) -> None:
        """Stop monitoring ``member`` (it left the view)."""
        slot = self._slot.get(member)
        if slot is None:
            return
        self._monitored[slot] = False
        self._suspected[slot] = False
        if self._needs_everybody is not None:
            self._rebuild_ring()

    def concur(self, member: str) -> None:
        """A peer announced a suspicion of ``member``: in a ring-watched
        group, suspect it too if we have heard nothing at all from it for
        the full timeout (true silence -- a refuted or deferred suspicion
        refreshes ``heard``, not ``activity``)."""
        if self._needs_everybody is None or not self._active:
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
    def _schedule_check(self) -> None:
        if not self._active:
            return
        self._timer = self.sim.schedule(
            self.check_interval, self._on_check, label="suspector", wheel=True
        )

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
        if self._c_probes is not None:
            self._c_probes.value += 1
        now = self.sim.now
        timeout = self.suspicion_timeout
        slots = self._all_slots
        if self._needs_everybody is not None:
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
        self._schedule_check()

    def _raise_suspicion(self, member: str) -> None:
        slot = self._slot[member]
        if self._suspected[slot]:
            return
        self._suspected[slot] = True
        self.suspicions_raised += 1
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
