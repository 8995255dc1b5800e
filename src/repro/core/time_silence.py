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
* not owed -- the group is idle and the null is a heartbeat, due at
  ``last_send + idle_period`` (the endpoint passes Ω/2, so one lost or
  late heartbeat still leaves the suspector a full half-timeout).

The predicate is evaluated when the timer fires; the owner calls
:meth:`demand` after every event that may have made it owed (one place:
:meth:`repro.core.process.NewtopProcess.settle`), which pulls a
heartbeat-dated timer in to ``max(now, last_send + ω)`` -- a member that
has been idle for longer than ω answers the first message of a burst at
once instead of one ω later.  The first null is always due at ω, so group
start-up is the paper's.  Without a predicate the timer is the fixed-ω
mechanism of §4.1.

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
    """

    def __init__(
        self,
        sim: Simulator,
        omega: float,
        send_null: Callable[[], None],
        owed: Optional[Callable[[], bool]] = None,
        idle_period: Optional[float] = None,
    ) -> None:
        if omega <= 0:
            raise ValueError(f"omega must be positive (got {omega})")
        self.sim = sim
        self.omega = omega
        self.idle_period = omega if idle_period is None else max(omega, idle_period)
        self._send_null = send_null
        self._owed = owed
        self._last_send_time: float = sim.now
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
        self._last_send_time = self.sim.now
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
        self._timer = self.sim.schedule(
            delay, self._on_timer, label="time-silence", wheel=True
        )

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
        period = self.omega if owed else self.idle_period
        silent_for = self.sim.now - self._last_send_time
        if silent_for + self._EPSILON >= period:
            self.nulls_sent += 1
            if self._c_owed is not None:
                (self._c_owed if owed else self._c_idle).value += 1
            self._send_null()
            # A multicast null went through the normal send path and has
            # already called notify_sent(); one relayed through a sequencer
            # has not been heard yet, but the deadlines count from its
            # issue.  The send path may also have changed what is owed.
            self._last_send_time = self.sim.now
            owed = self._is_owed()
            self._schedule_check(
                self.omega if owed else self.idle_period, idle=not owed
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
