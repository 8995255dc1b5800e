"""The time-silence mechanism (§4.1), and the idle heartbeat that took over
its second job.

Delivery in the symmetric protocol is gated on ``D_x,i`` -- the minimum
message number received from every view member -- so a member that has
nothing to say would stall everybody else's deliveries.  The paper's remedy:

    "Newtop provides each process with a simple mechanism, called the
    time-silence, that enables a process to remain lively by sending null
    messages during those periods it is not generating computational
    messages.  We assume that this mechanism for a given Pi prompts Pi to
    send a null message, if no (null or non-null) message was sent by Pi in
    the past interval of a fixed length, say, omega."

The paper leans on the same nulls for crash detection (§5): two jobs on two
clocks.  Keeping ``D_x`` (and §5.1 stability) moving needs a null within ω,
but only while somebody is waiting on this member: a fact about a *group*,
kept by :class:`TimeSilence`, one per (process, group).  The §5.2 suspector
only needs to hear *something* inside Ω > ω: a fact about a *process pair*,
kept by :class:`Heartbeat`, one per process.

Three deadlines per group: ω, a re-send at Ω/2, dormant
-------------------------------------------------------
What silence a member may keep depends on whether it **owes** the group
anything (the owner's ``owed`` predicate, evaluated when the timer fires).
Owed, the next null is due at ``last numbered send + ω``: the paper's rule,
numbered and all-pairs, so every phase in which a null does ordering,
stability or membership work no message of ours on the wire already does
is the paper's (:meth:`~repro.core.endpoint.GroupEndpoint.owes_group`).
Not owed, all that is left of the null is a heartbeat: an asymmetric
group's (whose nulls travel through the sequencer and are its ``D_x``)
stays a null, due ``idle_period`` after the last send; a symmetric group
passes ``cover`` instead, its timer goes *dormant* and the process
heartbeat vouches for it.

Between the two sits a symmetric group that owes nothing but still retains
unstable traffic (``unstable``): its own ``ldn`` already covers that
traffic -- the owner stops owing once it has multicast one -- so what is
missing is some member's acknowledgment, and in a lossy run it may have
been lost on the way.  Such a group does not go dormant: one ``idle_period``
after its last numbered send it re-sends a null, flagged ``awaits_reply``
(``send_null(True)``), which every member whose last multicast is numbered
below it answers with its current ``ldn``; one re-send per ``idle_period``
while the group stays unstable, and dormant at the first firing that finds
it stable.  Where nothing is lost no re-send is due: an isolated two-message
burst into an idle 12-member group costs 24 null multicasts, where owing
until the burst was stable cost 34 (E28 gates the count).

The owner calls :meth:`TimeSilence.demand` after every event that may have
made it owed (one place: :meth:`repro.core.process.NewtopProcess.settle`),
which dates a dormant or heartbeat-dated timer to ``max(now, last_send +
ω)``: a member idle for longer than ω answers the first message of a burst
at once.  The first null is always due at ω, so group start-up is the
paper's; without a predicate the timer is the fixed-ω mechanism of §4.1.

The idle heartbeat: per process pair, at Ω/2, naming its groups
---------------------------------------------------------------
A heartbeat advances nobody's ``D_x``, so it is a numberless
:class:`~repro.core.messages.Beacon` to the sender's K ring successors, the
members that time it out while the group is idle
(:mod:`repro.core.suspector`) -- one per *neighbour*, not one per neighbour
per group: a beacon to ``q`` that is due for any dormant group names every
symmetric group whose view holds both ends, and ``q`` credits exactly those
groups' suspectors.  It has to name them.  A departure *is* silence in one
group (``NewtopProcess.leave_group``), so "any receipt from ``q`` is
evidence for every group shared with ``q``" keeps a member that left ``g``
alive in ``g`` through ``h``: measured, that stalled fuzz corpus 7 specs 12
and 50 and took ``fuzz_serial`` from 9.169 to 9.838 messages per delivery.
A beacon to ``q`` for ``g`` is due one period after the last beacon to
``q`` that named ``g`` or the last numbered send in ``g``, whichever is
later (``fuzz_serial`` seed 0: 77,637 -> 73,841 messages, 9.169 -> 8.721 per
delivery, every spec's deliveries unchanged).

A numbered send restarts both clocks, a beacon the idle period **only**: a
member that beaconed a moment ago still answers a flagged null at once.  A
null sent less than ω after the last beacon that named its (dormant) group
is the number that beacon did not carry and continues the beacon's period,
which keeps a member's ω grid where a numbered heartbeat would have put it
(``test_flow_control_window_of_one_drains_after_idleness`` is one draw of
that grid; in aggregate the rule is neutral).

The heartbeat is one timer, dated at the earliest due beacon of the dormant
groups and only ever pulled in between firings.  Its wake also runs the
deadline test of the process's ring-watched suspectors
(:meth:`~repro.core.suspector.FailureSuspector.review`), which keep no tick
of their own while every watched deadline lies beyond the next wake: a
healthy idle process wakes once per Ω/2 however many groups it is in (five
processes in four overlapping groups: 240 -> 40 liveness timers per 4 Ω).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.net.simulator import EventHandle, Simulator

#: Tolerance when comparing a silent interval against its period: float
#: rounding must not leave a timer re-arming itself with a vanishing delay.
_EPSILON = 1e-9


class TimeSilence:
    """Per-(process, group) null-message timer.

    ``send_null`` is called when the process has been silent in the group
    for the period in force -- ``omega`` while ``owed()`` (``None``: always,
    the fixed-ω timer), else ``idle_period`` (never below ω) -- and is
    expected to multicast a null, which resets the timer via
    :meth:`notify_sent`.  With ``cover`` the owner's process heartbeat
    vouches for the group while nothing is owed: an un-owed firing arms no
    timer and calls ``cover()`` instead -- unless ``unstable()`` says the
    owner still retains unstable traffic, in which case the timer stays
    dated by the idle period and, when it comes, calls ``send_null(True)``:
    a re-send asking for the acknowledgments still missing.
    """

    def __init__(
        self,
        sim: Simulator,
        omega: float,
        send_null: Callable[..., None],
        owed: Optional[Callable[[], bool]] = None,
        idle_period: Optional[float] = None,
        cover: Optional[Callable[[], None]] = None,
        unstable: Optional[Callable[[], int]] = None,
    ) -> None:
        if omega <= 0:
            raise ValueError(f"omega must be positive (got {omega})")
        self.sim = sim
        self.omega = omega
        self.idle_period = omega if idle_period is None else max(omega, idle_period)
        self._send_null = send_null
        self._cover = cover
        self._owed = owed
        self._unstable = unstable
        #: The ω clock: when the owner last sent anything *numbered* (or
        #: the beacon whose period that send continued).
        self.last_send_time: float = sim.now
        #: When the process heartbeat last named this group while it was
        #: dormant (written by :class:`Heartbeat`).
        self.vouched_at: float = sim.now
        self._active = False
        self._timer: Optional[EventHandle] = None
        #: Whether the timer is dormant or was dated by the idle period,
        #: i.e. whether :meth:`demand` has anything to pull in.
        self.idle_armed = False
        #: Nulls sent, and how many of them were owed or re-sent (the
        #: rest were idle).
        self.nulls_sent = self.nulls_owed = self.nulls_resent = 0
        if sim.metrics is not None:
            sim.metrics.counter_source("time_silence.", self._counts)

    def _counts(self) -> Dict[str, int]:
        owed, resent = self.nulls_owed, self.nulls_resent
        return {
            "nulls_owed": owed,
            "nulls_idle": self.nulls_sent - owed - resent,
            "nulls_resent": resent,
        }

    def start(self) -> None:
        """Begin monitoring; the first null can fire ω from now."""
        if self._active:
            return
        self._active = True
        self.last_send_time = self.vouched_at = self.sim.now
        self._schedule_check(self.omega)

    def stop(self) -> None:
        """Stop monitoring (crash, departure, teardown)."""
        self._active = False
        self.idle_armed = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def active(self) -> bool:
        """Whether the mechanism is currently running."""
        return self._active

    @property
    def dormant(self) -> bool:
        """Whether the process heartbeat is vouching for the group."""
        return self.idle_armed and self._timer is None

    def notify_sent(self) -> None:
        """The process just sent a numbered message (null or not) in the
        group: the next null is due a period from now."""
        self.last_send_time = self.sim.now

    def demand(self) -> None:
        """Something happened that may have made the owner owed: if the
        timer is dormant or heartbeat-dated, date it to the ω deadline."""
        if not self.idle_armed or not self._owed():
            return
        if self._timer is not None:
            self._timer.cancel()
        self._schedule_check(
            max(0.0, self.last_send_time + self.omega - self.sim.now)
        )

    def _schedule_check(self, delay: float, idle: bool = False) -> None:
        if not self._active:
            return
        self.idle_armed = idle
        if idle and self._covered():
            # Dormant: the process heartbeat beacons for this group.
            self._timer = None
            self._cover()
        else:
            self._timer = self.sim.schedule(delay, self._on_timer, label="time-silence")

    def _is_owed(self) -> bool:
        return self.nulls_sent == 0 or self._owed is None or self._owed()

    def _covered(self) -> bool:
        """Whether an un-owed group may leave its liveness to the process
        heartbeat: only once nothing it retains is unstable."""
        return self._cover is not None and not (self._unstable and self._unstable())

    def _on_timer(self) -> None:
        if not self._active:
            return
        # Nothing is pending while this runs: a demand() raised from inside
        # the send path must not re-date a timer that has already fired.
        self.idle_armed = False
        owed = self._is_owed()
        period = self.omega if owed else self.idle_period
        silent_for = self.sim.now - self.last_send_time
        if silent_for + _EPSILON < period or (not owed and self._covered()):
            # Something was sent in the meantime, or the owner stopped being
            # owed: wake when the silence would reach the period (never
            # sooner than the tolerance, so the timer makes real progress).
            self._schedule_check(
                max(period - silent_for, _EPSILON * 10), idle=not owed
            )
            return
        self.nulls_sent += 1
        if owed:
            self.nulls_owed += 1
            self._send_null()
        elif self._cover is not None:
            self.nulls_resent += 1
            self._send_null(True)
        else:
            self._send_null()
        # A multicast null went through the normal send path and has
        # already called notify_sent(); one relayed through a sequencer has
        # not been heard yet, but the deadlines count from its issue.  The
        # send path may also have changed what is owed.
        self.last_send_time = self.sim.now
        if (
            self._cover is not None
            and self.sim.now - self.vouched_at + _EPSILON < self.omega
        ):
            # The number the last beacon did not carry, sent because
            # somebody turned out to need it: it continues the beacon's
            # period, it does not start its own.
            self.last_send_time = self.vouched_at
        owed = self._is_owed()
        # Zero unless the null continued a beacon's period.
        elapsed = self.sim.now - self.last_send_time
        self._schedule_check(
            (self.omega if owed else self.idle_period) - elapsed, idle=not owed
        )


class Heartbeat:
    """One process's idle heartbeat: one timer, one beacon per ring
    neighbour per ``period``, naming the groups it vouches for.

    ``endpoints()`` yields the owner's active symmetric group endpoints (of
    each: ``group_id``, ``view.members``, ``ring_successors``,
    ``time_silence``, ``suspector``); ``send(neighbours, groups)`` puts one
    beacon naming ``groups`` on the wire to each neighbour; ``record()`` is
    told once per wake that sent any (the process-level ``null_send``).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        endpoints: Callable[[], Sequence],
        send: Callable[[Sequence[str], Tuple[str, ...]], None],
        record: Callable[[], None],
    ) -> None:
        self.sim = sim
        self.period = period
        self._endpoints = endpoints
        self._send = send
        self._record = record
        #: (neighbour, group) -> when a beacon to it last named the group.
        self._vouched: Dict[Tuple[str, str], float] = {}
        self._timer: Optional[EventHandle] = None
        self._wake_at: Optional[float] = None
        self._started_at = sim.now
        self._stopped_at: Optional[float] = None
        #: Wakes, and wakes that sent beacons (each one idle null).
        self.wakes = self.beaconing_wakes = 0
        if sim.metrics is not None:
            sim.metrics.counter_source("heartbeat.", lambda: {"wakes": self.wakes})
            sim.metrics.counter_source(
                "time_silence.", lambda: {"nulls_idle": self.beaconing_wakes}
            )
            sim.metrics.sum_gauge("heartbeat.process_periods").add(self._periods_run)

    def _periods_run(self) -> float:
        """Periods run so far: summed over processes, the denominator of
        the report's "liveness wakes per process per heartbeat period"."""
        until = self.sim.now if self._stopped_at is None else self._stopped_at
        return (until - self._started_at) / self.period

    def stop(self) -> None:
        """The owner crashed."""
        self._stopped_at = self.sim.now
        self._date(None)

    def next_wake(self) -> Optional[float]:
        """When the next wake is due (``None``: none is)."""
        return self._wake_at

    def cover(self, endpoint) -> None:
        """``endpoint``'s group went dormant, or its ring moved: wake no
        later than its first due beacon."""
        due = self._first_due((endpoint,))
        if due is not None and (self._wake_at is None or due < self._wake_at):
            self._wake_at = max(due, self.sim.now)
            self._date(self._wake_at)

    def _date(self, when: Optional[float]) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = (
            None if when is None
            else self.sim.schedule_at(when, self._on_wake, label="heartbeat")
        )

    def _first_due(self, endpoints: Iterable) -> Optional[float]:
        vouched = self._vouched.get
        first = None
        for endpoint in endpoints:
            group, sent = endpoint.group_id, endpoint.time_silence.last_send_time
            for neighbour in endpoint.ring_successors:
                stamp = max(sent, vouched((neighbour, group), sent))
                if first is None or stamp < first:
                    first = stamp
        return None if first is None else first + self.period

    def _on_wake(self) -> None:
        self._timer = None
        self.wakes += 1
        now = self.sim.now
        horizon = now + _EPSILON - self.period
        vouched = self._vouched
        endpoints = self._endpoints()
        dormant = [e for e in endpoints if e.time_silence.dormant]
        # One beacon to each neighbour some dormant group owes one, in ring
        # order, naming every group it can vouch for; neighbours that share
        # the same groups share one multicast.
        fanout: Dict[Tuple[str, ...], list] = {}
        for endpoint in dormant:
            group, sent = endpoint.group_id, endpoint.time_silence.last_send_time
            if sent > horizon:
                continue
            for neighbour in endpoint.ring_successors:
                if vouched.get((neighbour, group), sent) > horizon:
                    continue  # not due, or just named on another group's account
                shared = endpoints if len(endpoints) == 1 else [
                    e for e in endpoints if neighbour in e.view.members
                ]
                for other in shared:
                    vouched[(neighbour, other.group_id)] = now
                    if other.time_silence.dormant:
                        other.time_silence.vouched_at = now
                fanout.setdefault(tuple([e.group_id for e in shared]), []).append(neighbour)
        for groups, neighbours in fanout.items():
            self._send(neighbours, groups)
        if fanout:
            self.beaconing_wakes += 1
            self._record()
        # The suspectors first: a tick they keep for the instant of the
        # next wake fires ahead of it, and what it finds decides whether
        # its group is still dormant then.
        self._wake_at = self._first_due(dormant)
        for endpoint in endpoints:
            endpoint.suspector.review()
        self._date(self._wake_at)
