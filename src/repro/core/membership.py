"""The group-view process ``GV_x,i`` -- membership agreement (§5.2).

Each process runs one group-view process per group it belongs to.  The GV
process receives suspicion notifications ``{Pk, ln}`` from its failure
suspector and runs the event-driven agreement of §5.2 with the GV processes
of the other members, whose rules (i)-(viii) are implemented here verbatim:

(i)    a local suspicion is recorded and multicast as a *suspect* message;
(ii)   a remote suspicion about somebody else is recorded as *gossip*
       (suspicions about ourselves are discarded -- we wait to be refuted);
(iii)  a gossip suspicion ``{Pk, ln}`` is *refuted* the moment we hold a
       message from ``Pk`` numbered above ``ln``; the refute piggybacks the
       retained messages of ``Pk`` above ``ln`` so the suspecting process
       can recover what it missed;
(iv)   receiving a refute for one of our own suspicions cancels it, feeds
       the recovered messages back into the normal receive path, and
       forwards the refute;
(v)    when *every* current suspicion is supported by a suspect message
       from *every* unsuspected, unfailed view member, the whole suspicion
       set is confirmed as the detection set;
(vi)   a confirmed detection received from a peer is adopted when it is a
       subset of our own suspicions;
(vii)  a confirmed detection that includes *us* makes us reciprocate by
       suspecting its sender (this is what drives concurrent subgroup views
       to stabilise into non-intersecting ones -- Example 3);
(viii) a confirmed detection is executed: messages of the failed processes
       numbered above ``lnmn`` (the minimum ``ln`` in the detection) are
       discarded, the receive/stability vectors stop being constrained by
       the failed processes, and a view excluding them is installed once
       every message numbered ``<= lnmn`` has been delivered.

The refutation-with-recovery rule is what makes concurrently held,
different ``ln`` values converge: whoever holds more messages from ``Pk``
refutes the lower suspicion and supplies the missing messages, so all
connected correct processes end up suspecting ``Pk`` at the same ``ln``,
confirm identical detection sets in the same order (VC1), and discard the
same set of messages (MD3).

Messages from a process we currently suspect (data or membership) are held
*pending*: replayed if the suspicion is refuted, discarded if it is
confirmed.

In a symmetric group the agreement needs one more thing from each member:
a numbered message past the largest ``ln`` held, so that every view-change
threshold it can reach lies below what each peer holds of that member
(:meth:`GroupViewProcess.awaits_number`).  The suspicion itself carries it:
rules (i) and (v) -- and (vi), and the re-gossip -- multicast with the
sender's null (``SuspectMessage.null``, ``ConfirmMessage.null``; see
:meth:`~repro.core.endpoint.GroupEndpoint.mcast_membership`), which each
receiver takes through the ordinary null path right after the membership
message, so no separate null follows.  Refutations deliberately carry
none: a self-refutation numbered past the target's ``ln`` makes every
holder of that gossip refute again by rule (iii).  Measured on a member
whose link to one monitor stays cut, numbered refutations raised the
false-suspicion cycle's peak from 308 to 485 membership sends per Ω.
Asymmetric groups send their nulls through the sequencer and attach none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    ConfirmMessage,
    DataMessage,
    RefuteMessage,
    SequencerRequest,
    SuspectMessage,
    Suspicion,
)
from repro.net import trace as trace_events


@dataclass
class MembershipStats:
    """Counters kept by one GV process (used by benchmarks and tests)."""

    suspect_messages_sent: int = 0
    refute_messages_sent: int = 0
    confirm_messages_sent: int = 0


class GroupViewProcess:
    """Membership agreement and view-update coordination for one group.

    The GV process does not talk to the network directly; it calls back
    into its :class:`~repro.core.endpoint.GroupEndpoint`, which provides:

    * ``mcast_membership(message)`` -- transmit to every view member's GV,
    * ``retained_messages_from(member, above)`` -- unstable messages held
      for ``member`` (refutation piggyback),
    * ``membership_clock_of(member)`` -- number of the latest message held
      from ``member``,
    * ``recover_messages(messages)`` -- feed recovered messages into the
      normal receive path,
    * ``replay_pending(items)`` -- re-inject held messages after a refute,
    * ``execute_failure_detection(detection)`` -- step (viii),
    * ``record_membership_event(kind, **details)`` -- tracing.
    """

    def __init__(self, endpoint, own_id: str, group_id: str) -> None:
        self.endpoint = endpoint
        self.own_id = own_id
        self.group_id = group_id
        self.stats = MembershipStats()
        #: Rule (i): our own active suspicions.
        self._suspicions: Set[Suspicion] = set()
        #: Targets of ``_suspicions`` (rule (i) admits one suspicion per
        #: target), kept in step so :meth:`is_suspected` -- asked twice per
        #: receipt -- is one set probe.
        self._suspected_targets: Set[str] = set()
        #: Rule (ii): supporters per suspicion -- which remote GVs have sent
        #: us a suspect message for exactly this {Pk, ln}.
        self._gossip: Dict[Suspicion, Set[str]] = {}
        #: Processes confirmed failed/disconnected (cumulative); their
        #: messages are discarded from the moment of confirmation even if
        #: the corresponding view has not been installed yet.
        self._excluded: Set[str] = set()
        #: Messages held while their sender is under suspicion:
        #: sender -> list of raw payloads to replay or discard.
        self._pending: Dict[str, List[object]] = {}
        #: Detection sets confirmed so far, in confirmation order.
        self.detection_history: List[frozenset] = []
        #: When each active suspicion was last announced to the group
        #: (simulated time), for the re-gossip keep-alive.
        self._announced: Dict[Suspicion, float] = {}
        #: The largest ``ln`` among the suspicions and gossip held since
        #: the agreement was last idle (a running maximum: never too low).
        self._ln_high = 0

    # ------------------------------------------------------------------
    # Queries used by the endpoint's receive path
    # ------------------------------------------------------------------
    def is_suspected(self, process: str) -> bool:
        """Whether we currently hold an (unconfirmed) suspicion on ``process``."""
        return process in self._suspected_targets

    def busy(self) -> bool:
        """Whether the agreement has anything in flight: a suspicion of our
        own, a peer's gossip, or a message held for a suspected sender."""
        return bool(self._suspicions or self._gossip or self._pending)

    def awaits_number(self, last_sent: int) -> bool:
        """Whether the agreement still needs a numbered message from us,
        our last one being numbered ``last_sent``: while it holds a message
        parked for a suspected sender, or until ``last_sent`` passes every
        ``ln`` it holds -- every view-change threshold (``lnmn``) it can
        produce is then below what each peer holds of us."""
        if not self.busy():
            self._ln_high = 0
            return False
        return bool(self._pending) or last_sent <= self._ln_high

    def _hold_ln(self, suspicion: Suspicion) -> None:
        if suspicion.last_number > self._ln_high:
            self._ln_high = suspicion.last_number

    def is_excluded(self, process: str) -> bool:
        """Whether ``process`` has been confirmed failed/disconnected."""
        return process in self._excluded

    def suspected_processes(self) -> Set[str]:
        """Targets of all current suspicions."""
        return set(self._suspected_targets)

    def _drop_suspicions(self, doomed) -> None:
        """Remove every suspicion of ``doomed`` that we hold."""
        for suspicion in doomed:
            if suspicion in self._suspicions:
                self._suspicions.remove(suspicion)
                self._suspected_targets.discard(suspicion.target)

    def hold_pending(self, sender: str, payload: object) -> None:
        """Park a message from a suspected sender until the suspicion is
        resolved one way or the other."""
        self._pending.setdefault(sender, []).append(payload)

    # ------------------------------------------------------------------
    # Rule (i): local suspicion from the failure suspector
    # ------------------------------------------------------------------
    def on_suspector_notification(self, suspicion: Suspicion) -> None:
        """Record a local suspicion and announce it to the group."""
        target = suspicion.target
        if target == self.own_id:
            return
        if target in self._excluded or target not in self.endpoint.view.members:
            return
        if self.is_suspected(target):
            return
        self._suspicions.add(suspicion)
        self._suspected_targets.add(target)
        self._hold_ln(suspicion)
        self.endpoint.record_membership_event(
            trace_events.SUSPECT, target=target, last_number=suspicion.last_number
        )
        self.stats.suspect_messages_sent += 1
        self._announced[suspicion] = self.endpoint.process.sim.now
        self.endpoint.mcast_membership(
            SuspectMessage(origin=self.own_id, group=self.group_id, suspicion=suspicion),
            cause="suspicion_gossip",
        )
        self._try_confirm()

    def regossip_unresolved(self, interval: float) -> bool:
        """Re-announce suspicions that have sat unresolved for ``interval``;
        returns whether a re-announcement carried our null (the caller then
        settles, see :meth:`GroupEndpoint.mcast_membership`).

        The paper multicasts each suspicion exactly once, which suffices in
        its crash-stop model where membership traffic is never lost.  Under
        transient partitions (a scenario-engine extension) a suspect
        message can vanish with the partition, leaving the group's gossip
        permanently split: each side waits forever for supporters that
        never heard the record, and the agreement -- and with it the
        delivery bound of every overlapping group -- wedges.  Periodic
        re-announcement makes the gossip converge once links heal; it is
        idempotent at receivers that already support the record.
        """
        if not self._suspicions and not self._announced:
            # Every suspector tick of every endpoint lands here, and on all
            # but a few of them there is nothing suspected.
            return False
        now = self.endpoint.process.sim.now
        # Sorted: each announcement draws latency samples, so set order
        # (a function of PYTHONHASHSEED) would leak into the run's timing.
        stale = sorted(
            suspicion
            for suspicion in self._suspicions
            if now - self._announced.get(suspicion, now) >= interval
        )
        # Drop bookkeeping for suspicions resolved in the meantime.
        self._announced = {
            suspicion: when
            for suspicion, when in self._announced.items()
            if suspicion in self._suspicions
        }
        numbered = False
        for suspicion in stale:
            self.stats.suspect_messages_sent += 1
            self._announced[suspicion] = now
            if self.endpoint.mcast_membership(
                SuspectMessage(
                    origin=self.own_id, group=self.group_id, suspicion=suspicion
                ),
                cause="suspicion_gossip",
            ):
                numbered = True
        return numbered

    # ------------------------------------------------------------------
    # Incoming membership traffic
    # ------------------------------------------------------------------
    def on_membership_message(self, sender: str, message: object) -> None:
        """Dispatch a membership message from ``sender``'s GV process."""
        if sender in self._excluded or sender not in self.endpoint.view.members:
            return
        if self.is_suspected(sender):
            if (
                isinstance(message, RefuteMessage)
                and message.suspicion.target == sender
            ):
                # A self-refutation from the suspected process is the very
                # evidence the suspicion is wrong; parking it as pending
                # would deadlock (nothing else could refute a member whose
                # messages nobody holds, e.g. one heard only through a
                # failed asymmetric sequencer relay).
                self._on_refute(sender, message)
                return
            if (
                isinstance(message, SuspectMessage)
                and message.suspicion.target == self.own_id
            ):
                # A suspicion naming *us* must reach us even from a sender
                # we suspect, or two live processes that suspect each other
                # simultaneously (mutual relay silence) would each park the
                # other's suspect message and neither would ever learn it
                # needs to refute -- both sides would vacuously confirm and
                # the group would split.
                self._on_suspect(sender, message)
                return
            # "once suspicion {Pk, ln} has been added to suspicions, GVi
            # will keep the messages received from Pk and GVk as pending"
            self.hold_pending(sender, message)
            return
        if isinstance(message, SuspectMessage):
            self._on_suspect(sender, message)
        elif isinstance(message, RefuteMessage):
            self._on_refute(sender, message)
        elif isinstance(message, ConfirmMessage):
            self._on_confirm(sender, message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected membership message {message!r}")

    def on_data_from(self, sender: str, clock: int) -> None:
        """Hook from the endpoint's data path: a message numbered ``clock``
        from ``sender`` just arrived.  Used for rule (iii): it may refute
        gossip suspicions about ``sender`` with a smaller ``ln``."""
        if self.is_suspected(sender):
            return
        refutable = [
            suspicion
            for suspicion in self._gossip
            if suspicion.target == sender and suspicion.last_number < clock
        ]
        for suspicion in refutable:
            self._send_refute(suspicion)

    # ------------------------------------------------------------------
    # Rule (ii) + (iii): suspect messages from peers
    # ------------------------------------------------------------------
    def _on_suspect(self, sender: str, message: SuspectMessage) -> None:
        suspicion = message.suspicion
        if suspicion.target == self.own_id:
            # The paper lets the target wait "in the hope that some GVj
            # will refute it" -- which presumes somebody holds a message of
            # ours above ln.  When nobody does (an asymmetric member whose
            # every message died with the sequencer relay has ln = 0
            # everywhere), that hope is vain and the suspicion would
            # confirm against a live, connected process.  Refute it
            # ourselves: we are definitionally alive, and the refutation
            # ships our retained messages above ln so the suspecting side
            # also recovers anything it missed.
            self._send_refute(suspicion)
            return
        if suspicion.target in self._excluded:
            return
        supporters = self._gossip.setdefault(suspicion, set())
        supporters.add(message.origin)
        self._hold_ln(suspicion)
        # Rule (iii): refute immediately if we already hold something newer
        # from the target.  This applies even when we suspect the target
        # ourselves (at a higher ln): the refutation does not assert the
        # target is alive, it ships the messages the suspecting process is
        # missing so both sides converge on the same {Pk, ln} record --
        # without it, two processes suspecting the same dead member at
        # different ln values would each wait forever for the other to
        # support its own record, and the detection would never confirm.
        held_clock = self.endpoint.membership_clock_of(suspicion.target)
        if held_clock > suspicion.last_number:
            self._send_refute(suspicion)
        # Ring-watched groups: most members do not time the target out
        # themselves; they concur if they have heard nothing from it for Ω.
        self.endpoint.suspector.concur(suspicion.target)
        self._try_confirm()

    def _send_refute(self, suspicion: Suspicion) -> None:
        recovered = tuple(
            self.endpoint.retained_messages_from(
                suspicion.target, above=suspicion.last_number
            )
        )
        self.stats.refute_messages_sent += 1
        self.endpoint.record_membership_event(
            trace_events.REFUTE,
            target=suspicion.target,
            last_number=suspicion.last_number,
            recovered=len(recovered),
        )
        self._gossip.pop(suspicion, None)
        self.endpoint.mcast_membership(
            RefuteMessage(
                origin=self.own_id,
                group=self.group_id,
                suspicion=suspicion,
                recovered=recovered,
            ),
            cause="confirm_refute",
        )

    # ------------------------------------------------------------------
    # Rule (iv): refutations of our own suspicions
    # ------------------------------------------------------------------
    def _on_refute(self, sender: str, message: RefuteMessage) -> None:
        suspicion = message.suspicion
        # Stale gossip about the same {Pk, ln} is dropped in every case.
        self._gossip.pop(suspicion, None)
        if suspicion not in self._suspicions:
            return
        self._drop_suspicions((suspicion,))
        self.endpoint.record_membership_event(
            trace_events.REFUTE,
            target=suspicion.target,
            last_number=suspicion.last_number,
            accepted=True,
        )
        # Recover the messages we were missing, then let the suspector try
        # again from a clean slate (it will re-suspect at the higher ln if
        # the target really is gone).
        if message.recovered:
            self.endpoint.recover_messages(list(message.recovered))
        self.endpoint.suspector.clear_suspicion(suspicion.target)
        # Forward the refutation so other suspecting processes learn of it.
        self.stats.refute_messages_sent += 1
        self.endpoint.mcast_membership(
            RefuteMessage(
                origin=self.own_id,
                group=self.group_id,
                suspicion=suspicion,
                recovered=(),
            ),
            cause="confirm_refute",
        )
        # Replay messages held while the target was under suspicion.
        held = self._pending.pop(suspicion.target, [])
        if held:
            self.endpoint.replay_pending(suspicion.target, held)
        self._try_confirm()

    # ------------------------------------------------------------------
    # Rules (vi) + (vii): confirmed detections from peers
    # ------------------------------------------------------------------
    def _on_confirm(self, sender: str, message: ConfirmMessage) -> None:
        detection = frozenset(message.detection)
        if any(suspicion.target == self.own_id for suspicion in detection):
            # Rule (vii): the sender has agreed that *we* failed;
            # reciprocate so the two sides' views stabilise into
            # non-intersecting ones (Example 3).
            self.endpoint.suspector.force_suspect(sender)
            return
        # Rule (vi): a peer's confirmed detection is final.  Adopt it even
        # when our matching suspicions were refuted in the meantime -- a
        # refutation that races a confirmation loses, because the
        # confirming side has already cut its delivery stream and
        # declining to follow would leave the group's views split forever.
        remaining = frozenset(
            suspicion
            for suspicion in detection
            if suspicion.target not in self._excluded
        )
        if remaining:
            self._confirm(remaining)

    # ------------------------------------------------------------------
    # Rule (v): local confirmation
    # ------------------------------------------------------------------
    def _required_supporters(self) -> Set[str]:
        """The members whose agreement is needed: everyone in the current
        view except ourselves, the currently suspected and the already
        excluded."""
        suspected = self.suspected_processes()
        return {
            member
            for member in self.endpoint.view.members
            if member != self.own_id
            and member not in suspected
            and member not in self._excluded
        }

    def _try_confirm(self) -> None:
        if not self._suspicions:
            return
        required = self._required_supporters()
        for suspicion in self._suspicions:
            supporters = self._gossip.get(suspicion, set())
            if not required <= supporters:
                return
        self._confirm(frozenset(self._suspicions))

    def _confirm(self, detection: frozenset) -> None:
        """Steps (v)/(vi) tail + step (viii) hand-off."""
        self._drop_suspicions(detection)
        self.detection_history.append(detection)
        self.stats.confirm_messages_sent += 1
        targets = sorted(suspicion.target for suspicion in detection)
        self.endpoint.record_membership_event(
            trace_events.CONFIRM,
            targets=tuple(targets),
            lnmn=min(suspicion.last_number for suspicion in detection),
        )
        self.endpoint.mcast_membership(
            ConfirmMessage(origin=self.own_id, group=self.group_id, detection=detection),
            cause="confirm_refute",
        )
        for suspicion in detection:
            target = suspicion.target
            self._excluded.add(target)
            self.endpoint.suspector.remove_member(target)
            self.endpoint.note_discarded(
                self._pending.pop(target, ()), "confirmed_suspect"
            )
        # Drop gossip that refers to now-excluded processes.
        self._gossip = {
            suspicion: supporters
            for suspicion, supporters in self._gossip.items()
            if suspicion.target not in self._excluded
        }
        self.endpoint.execute_failure_detection(detection)
        # Confirming one detection may have shrunk the required-supporter
        # set enough to unlock the remaining suspicions.
        self._try_confirm()

    # ------------------------------------------------------------------
    # View bookkeeping
    # ------------------------------------------------------------------
    def on_view_installed(self) -> None:
        """Re-evaluate outstanding suspicions against the new view."""
        members = self.endpoint.view.members
        self._drop_suspicions(
            [s for s in self._suspicions if s.target not in members]
        )
        self._gossip = {
            suspicion: {origin for origin in supporters if origin in members}
            for suspicion, supporters in self._gossip.items()
            if suspicion.target in members
        }
        self._try_confirm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupViewProcess(own={self.own_id!r}, group={self.group_id!r}, "
            f"suspicions={sorted(s.target for s in self._suspicions)}, "
            f"excluded={sorted(self._excluded)})"
        )
