"""The time-silence mechanism (§4.1).

Delivery in the symmetric protocol is gated on ``D_x,i`` -- the minimum
message number received from every view member -- so a member that has
nothing to say would stall everybody else's deliveries.  The paper's
remedy:

    "Newtop provides each process with a simple mechanism, called the
    time-silence, that enables a process to remain lively by sending null
    messages during those periods it is not generating computational
    messages.  We assume that this mechanism for a given Pi prompts Pi to
    send a null message, if no (null or non-null) message was sent by Pi in
    the past interval of a fixed length, say, omega."

The mechanism operates *independently per group* (a process chatty in one
group may still be silent in another), and in the asymmetric protocol only
the sequencer needs to run it (§4.2).  Beyond liveness of delivery, the
paper notes the mechanism is also what makes crash detection possible at
all, so it keeps running even when only atomic delivery is required (§5).

Two deadlines, one timer
------------------------
Those are two jobs on two clocks.  Keeping ``D_x`` (and §5.1 stability)
moving needs a null within ω, but only while somebody is waiting on this
member; the §5.2 suspector only needs to hear *something* inside Ω > ω.
So the silence a member may keep depends on whether it **owes** the group
anything (the owner's ``owed`` predicate):

* owed -- the next null is due at ``last_send + ω``, exactly the paper's
  rule;
* not owed -- the group is idle and all that is left of the null is a
  heartbeat, due ``idle_period`` after the last send or heartbeat (the
  endpoint passes Ω/2, so one lost or late heartbeat still leaves the
  suspector a full half-timeout).

The predicate is evaluated when the timer fires; the owner calls
:meth:`demand` after every event that may have made it owed (one place:
:meth:`repro.core.process.NewtopProcess.settle`), which pulls a
heartbeat-dated timer in to ``max(now, last_send + ω)`` -- a member that
has been idle for longer than ω answers the first message of a burst at
once instead of one ω later.  The first null is always due at ω, so group
start-up is the paper's.  Without a predicate the timer is the fixed-ω
mechanism of §4.1.

The idle heartbeat is not a null
--------------------------------
A heartbeat advances nobody's ``D_x`` -- nobody is waiting -- so in a
symmetric group it need not be a numbered multicast to the whole view.
The owner may pass ``send_beacon``: an un-owed firing then calls it
instead of ``send_null``, and the endpoint sends a numberless
:class:`~repro.core.messages.Beacon` to its K ring successors, the only
members that time it out while the group is idle
(:mod:`repro.core.suspector`).  Owed nulls stay numbered and all-pairs,
so every phase in which a null does ordering, stability or membership
work is the paper's.  Two clocks follow from the two jobs: a numbered send
restarts both, a beacon restarts the idle period **only**.  The owed
deadline stays ``last numbered send + ω``, so a member that beaconed a
moment ago still answers a flagged null at once -- nobody's ``D_x`` moved
on its beacon.  (Measured: letting a beacon restart the ω clock took the
worst delivery latency of a busy group overlapping an idle one from 4.0 to
5.4 at ω = 2.)

One refinement keeps the member's ω grid where a numbered heartbeat would
have put it: a null sent *less than ω after a beacon* is the number that
heartbeat did not carry, handed over because somebody turned out to need
it, and it continues the heartbeat's period instead of starting its own --
the next deadlines are ``beacon + ω`` (owed) and ``beacon + idle_period``
(not owed).  So a beacon changes what a heartbeat carries and never when
the member's later nulls fall: they are never later than with numbered
heartbeats, and in the window after an answer one may come up to ω
earlier.  (Found by measurement: without it a demand arriving 0.38 after a
heartbeat moved that member's grid by 0.38 for the whole of a
flow-controlled burst, see ``test_flow_control_window_of_one_drains_after_idleness``;
in aggregate the rule is neutral -- drain time over 300 seeds 26.4 -> 26.5,
``churn_idle`` sends +0.5 % -- it pins the phase, it does not buy time.)
Without ``send_beacon`` (asymmetric groups, whose nulls travel through the
sequencer and are its ``D_x``) the heartbeat is a null.

Idle is a property of processes, not of a group
-----------------------------------------------
A process delivers under ``D_i = min_x D_x`` over *all* its groups
(safe1'), so a group with no traffic of its own still does ordering work
for a busy group it shares a member with, and only that member can tell.
It does: while its process holds an undelivered message or an uninstalled
view it owes every one of its groups, and the nulls it sends then carry
``awaits_reply``; a member that hears the flag owes the group its next
send (CA2 has already pushed its clock past the flagged null's number).
The overlapped group runs at ω for as long as the shared member is
waiting and falls back to the heartbeat when it is not.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.simulator import EventHandle, Simulator


class TimeSilence:
    """Per-(process, group) null-message timer.

    Parameters
    ----------
    sim:
        The simulation kernel (provides time and timers).
    omega:
        The silence threshold ω while the owner owes the group something.
    send_null:
        Callback invoked when the process has been silent in the group for
        the period in force; expected to multicast a null message (which
        resets the timer via :meth:`notify_sent`).
    owed:
        Predicate: does the owner owe the group a null within ω right now?
        ``None`` means always (the fixed-ω timer).
    idle_period:
        The silence threshold while ``owed()`` is false; never below ω.
    send_beacon:
        Callback for an un-owed firing (the idle heartbeat); a beacon is
        not a numbered send and leaves the ω clock alone.  ``None`` means
        the heartbeat is a null like any other.
    """

    def __init__(
        self,
        sim: Simulator,
        omega: float,
        send_null: Callable[[], None],
        owed: Optional[Callable[[], bool]] = None,
        idle_period: Optional[float] = None,
        send_beacon: Optional[Callable[[], None]] = None,
    ) -> None:
        if omega <= 0:
            raise ValueError(f"omega must be positive (got {omega})")
        self.sim = sim
        self.omega = omega
        self.idle_period = omega if idle_period is None else max(omega, idle_period)
        self._send_null = send_null
        self._send_beacon = send_beacon
        self._owed = owed
        #: The ω clock: when the owner last sent anything *numbered* (or
        #: the beacon whose period that send continued).
        self._last_send_time: float = sim.now
        #: The idle clock also restarts on a beacon.
        self._last_beacon_time: float = sim.now
        self._active = False
        self._timer: Optional[EventHandle] = None
        #: Whether the pending timer was dated by the idle period, i.e.
        #: whether :meth:`demand` has anything to pull in.
        self.idle_armed = False
        self.nulls_sent = 0
        metrics = sim.metrics
        if metrics is not None:
            self._c_owed = metrics.counter("time_silence.nulls_owed")
            self._c_idle = metrics.counter("time_silence.nulls_idle")
        else:
            self._c_owed = None
            self._c_idle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin monitoring; the first null can fire ω from now."""
        if self._active:
            return
        self._active = True
        self._last_send_time = self._last_beacon_time = self.sim.now
        self._schedule_check(self.omega)

    def stop(self) -> None:
        """Stop monitoring (process crashed, departed the group, or the
        group endpoint is being torn down)."""
        self._active = False
        self.idle_armed = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def active(self) -> bool:
        """Whether the mechanism is currently running."""
        return self._active

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def notify_sent(self) -> None:
        """Record that the process just sent a message (null or not) in the
        group; pushes the next null out by the period in force."""
        self._last_send_time = self.sim.now

    def demand(self) -> None:
        """Something happened that may have made the owner owed: if the
        pending timer is a heartbeat, re-date it to the ω deadline."""
        if not self.idle_armed or not self._owed():
            return
        self._timer.cancel()
        self._schedule_check(
            max(0.0, self._last_send_time + self.omega - self.sim.now)
        )

    def _schedule_check(self, delay: float, idle: bool = False) -> None:
        if not self._active:
            return
        self.idle_armed = idle
        self._timer = self.sim.schedule(delay, self._on_timer, label="time-silence")

    #: Tolerance applied when comparing the silent interval against the
    #: period, so floating-point rounding of simulated timestamps cannot
    #: leave the timer re-arming itself with a vanishingly small delay
    #: forever.
    _EPSILON = 1e-9

    def _is_owed(self) -> bool:
        return self.nulls_sent == 0 or self._owed is None or self._owed()

    def _on_timer(self) -> None:
        if not self._active:
            return
        # Nothing is pending while this runs: a demand() raised from inside
        # the send path must not re-date a timer that has already fired.
        self.idle_armed = False
        owed = self._is_owed()
        if owed:
            period = self.omega
            silent_for = self.sim.now - self._last_send_time
        else:
            period = self.idle_period
            silent_for = self.sim.now - max(
                self._last_send_time, self._last_beacon_time
            )
        if silent_for + self._EPSILON >= period:
            self.nulls_sent += 1
            if self._c_owed is not None:
                (self._c_owed if owed else self._c_idle).value += 1
            if owed or self._send_beacon is None:
                self._send_null()
                # A multicast null went through the normal send path and
                # has already called notify_sent(); one relayed through a
                # sequencer has not been heard yet, but the deadlines count
                # from its issue.  The send path may also have changed what
                # is owed.
                self._last_send_time = self.sim.now
                if (
                    self._send_beacon is not None
                    and self.sim.now - self._last_beacon_time + self._EPSILON
                    < self.omega
                ):
                    # The number the last heartbeat did not carry, sent
                    # because somebody turned out to need it: it continues
                    # the heartbeat's period, it does not start its own.
                    self._last_send_time = self._last_beacon_time
                owed = self._is_owed()
            else:
                self._send_beacon()
                self._last_beacon_time = self.sim.now
            # Zero unless the null continued a heartbeat's period.
            elapsed = self.sim.now - max(self._last_send_time, self._last_beacon_time)
            self._schedule_check(
                (self.omega if owed else self.idle_period) - elapsed, idle=not owed
            )
        else:
            # Something was sent in the meantime, or the owner stopped
            # being owed before the idle period ran out; wake up when the
            # current silence would reach the period (never sooner than the
            # tolerance, so the timer always makes real progress).
            self._schedule_check(
                max(period - silent_for, self._EPSILON * 10), idle=not owed
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "stopped"
        return (
            f"TimeSilence(omega={self.omega}, idle_period={self.idle_period}, "
            f"nulls_sent={self.nulls_sent}, {state})"
        )
