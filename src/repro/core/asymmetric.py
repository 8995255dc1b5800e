"""The asymmetric (sequencer-based) total-order engine (§4.2).

One member of the group -- chosen deterministically from the current view,
so every member with the same view picks the same process -- acts as the
*sequencer*.  To multicast, a member unicasts its message to the sequencer;
the sequencer re-numbers it with its own clock (CA1) and multicasts it to
the whole view in the order the unicasts arrived.  Because the sequencer's
numbers increase and its channels are FIFO, a member can deliver a
sequenced message as soon as the cross-group bound (safe1') allows:
``D_x,i`` is simply the number of the last message received from the
sequencer.

Newtop's twist over the classic fixed-sequencer scheme is that overlapping
groups need *no* coordination between their sequencers and no common
sequencer: the shared Lamport clock plus the Send Blocking Rule (enforced
at the process level, see :mod:`repro.core.process`) are enough to keep
cross-group delivery totally ordered (MD4').

Stability (§5.1) works through the sequencer too.  A member's request
carries its ``D_x`` as ``origin_ldn``; the sequencer stamps the minimum of
the last one from each other member and its own ``D_x`` into every
sequenced message as ``ldn``, and each receiver records that as the bound
of the whole view.  So one request from every member after a burst -- an
idle null will do -- makes the burst stable everywhere, retention drains,
and the §7 window reopens.

Fault tolerance for the asymmetric engine (sequencer failover, re-sending
of unsequenced requests) goes beyond what the paper spells out -- §5 covers
only the symmetric version "to save space" -- and is this reproduction's
extension, all of it in this module: :class:`AsymmetricOrdering`'s
docstring and its view-change methods document it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import OrderingMode
from repro.core.messages import (
    CAUSE_BY_KIND,
    DataMessage,
    KIND_NULL,
    KIND_VIEW_CUT,
    SequencerRequest,
    Suspicion,
)
from repro.core.ordering import OrderingEngine
from repro.core.vectors import INFINITY


class AsymmetricOrdering(OrderingEngine):
    """Sequencer-based total order for one group, and where a confirmed
    detection cuts its stream and when a relayed member's silence counts
    (§5.2 for §4.2 groups).

    ``lnmn`` (the failed member's last number) marks no position in the
    sequencer's numbering, so the sequencer places the cut: on executing a
    detection it sequences an end-of-view marker (:meth:`emit_view_cut`),
    below which everything is old-view at every member.  A member meets the
    marker and its own confirmation in either order.  The states:

    * *marker first* (``cut_points``: removed set -> marker number):
      deliveries above the smallest cut wait, so this member's old-view
      delivery set cannot outgrow its peers'; the confirmation installs at
      the cut.
    * *confirmed first* (``parked``: removed sets): deliveries keep
      flowing, and the view change is made when the marker lands.  A
      detection that removes the sequencer cannot wait for a marker: it
      cuts at the dead sequencer's agreed last number, and every parked
      detection with it.
    * *deferred once* (``deferred``: members): a member's suspicion raised
      while the sequencer stood suspected is set aside once; the next
      silent timeout counts.
    """

    mode = OrderingMode.ASYMMETRIC
    relayed = True

    def __init__(self, endpoint) -> None:
        super().__init__(endpoint)
        #: Number of the last sequenced message received (the paper's
        #: ``D_x,i`` for asymmetric groups).
        self.last_sequenced: int = 0
        #: At the sequencer only: last ``origin_ldn`` reported by each
        #: *other* member, aggregated into the ``ldn`` of sequenced messages
        #: so stability works group-wide.  Every member keeps it from the
        #: start, so a successor sequencer has no entry for itself either.
        own_id = endpoint.process.process_id
        self._member_ldn: Dict[str, int] = {
            member: 0 for member in endpoint.view.members if member != own_id
        }
        #: Requests this process unicast that have not yet come back as a
        #: sequenced multicast: request id -> (payload, kind).  Used to
        #: re-send after a sequencer failover.
        self._unsequenced: Dict[str, Tuple[object, str]] = {}
        #: Sequencer of the view as last installed; view installations that
        #: leave the sequencer in place must not trigger re-sends.
        self._current_sequencer: str = endpoint.view.sequencer()
        #: The failover states of the class docstring.
        self.cut_points: Dict[frozenset, int] = {}
        self.parked: List[frozenset] = []
        self.deferred: Set[str] = set()

    # ------------------------------------------------------------------
    # Sequencer identity
    # ------------------------------------------------------------------
    def sequencer(self) -> str:
        """The current sequencer: a deterministic choice from the view."""
        return self.endpoint.view.sequencer()

    def is_sequencer(self) -> bool:
        """Whether the local process is the current sequencer."""
        return self.sequencer() == self.endpoint.process.process_id

    def owes_stability(self, last_sent_ldn: int) -> bool:
        """Owed until stable, as a member's null travels through the
        sequencer, not over the FIFO channel to each peer.  The sequencer
        stamps the group's aggregated ``ldn`` on what it sequences, so that
        is one request from each member after it."""
        return bool(self.endpoint.stability.buffer.non_null_count())

    def owes_agreement(self, last_sent_clock: int) -> bool:
        """Owed until done, for the same reason.  The sequencer always owes:
        its nulls are the group's ``D_x``, and their freshness (under Ω/2)
        is what makes a relayed member's silence mean anything."""
        return self.endpoint.gv.busy() or self.is_sequencer()

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, payload: object, kind: str) -> str:
        """Disseminate a message: sequence it locally or unicast it to the
        sequencer.

        The sequencer "logically follows the same procedure, unicasting to
        itself, and then multicasting" -- implemented as a direct local
        sequencing step, which is behaviourally identical and avoids a
        pointless network round-trip to self.
        """
        process = self.endpoint.process
        cause = CAUSE_BY_KIND[kind]
        if self.is_sequencer():
            message = self._sequence_and_multicast(
                origin=process.process_id,
                payload=payload,
                kind=kind,
                origin_request=None,
                cause=cause,
            )
            return message.msg_id
        origin_clock = process.clock.tick()
        request = SequencerRequest.make(
            origin=process.process_id,
            group=self.endpoint.group_id,
            origin_clock=origin_clock,
            payload=payload,
            kind=kind,
            origin_ldn=self.ldn(),
        )
        if kind != KIND_NULL:
            # Null requests are exempt from the blocking rules (they carry
            # no application causality), so they are not tracked.
            self._unsequenced[request.request_id] = (payload, kind)
            process.note_unicast_outstanding(self.endpoint.group_id, request.request_id)
        self.endpoint.send_to_member(self.sequencer(), request, cause=cause)
        return request.request_id

    def on_sequencer_request(self, request: SequencerRequest) -> None:
        """Sequencer side: CA2 the origin's number, then sequence and
        multicast the message in arrival order."""
        process = self.endpoint.process
        process.clock.observe(request.origin_clock)
        if request.origin in self._member_ldn:
            self._member_ldn[request.origin] = max(
                self._member_ldn[request.origin], request.origin_ldn
            )
        self._sequence_and_multicast(
            origin=request.origin,
            payload=request.payload,
            kind=request.kind,
            origin_request=request.request_id,
            cause=CAUSE_BY_KIND[request.kind],
        )

    def _sequence_and_multicast(
        self,
        origin: str,
        payload: object,
        kind: str,
        origin_request: Optional[str],
        cause: Optional[str] = None,
    ) -> DataMessage:
        process = self.endpoint.process
        clock = process.clock.tick()
        message = DataMessage.sequenced(
            origin=origin,
            group=self.endpoint.group_id,
            clock=clock,
            ldn=self._aggregate_ldn(),
            payload=payload,
            kind=kind,
            sequencer=process.process_id,
            origin_request=origin_request,
        )
        self.endpoint.broadcast_data(message, cause=cause)
        return message

    def emit_view_cut(self, removed: frozenset) -> int:
        """Sequence the end-of-view marker for a confirmed detection and
        return its number: the cut at which every surviving member installs
        the view excluding ``removed`` (:meth:`view_change_threshold`)."""
        return self._sequence_and_multicast(
            origin=self.endpoint.process.process_id,
            payload=tuple(sorted(removed)),
            kind=KIND_VIEW_CUT,
            origin_request=None,
            cause="view_cut",
        ).clock

    def _aggregate_ldn(self) -> int:
        """Group-wide stability bound: the minimum deliverable bound over
        every member the sequencer has heard from, and its own.  A member
        not heard from yet counts as 0; the sequencer's own bound is read
        here, never reported (it sends itself no request), and a removed
        member's entry is gone with it."""
        own = self.ldn()
        if not self._member_ldn:
            return own
        return min(own, min(self._member_ldn.values()))

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_data(self, message: DataMessage) -> bool:
        """Advance ``D_x`` and clear Send-Blocking-Rule bookkeeping.

        Only *sequenced* messages advance ``D_x``: during a sequencer
        failover members may multicast liveness nulls directly
        (:meth:`relay_dead`), and those must not move the
        deliverable bound.  Every
        sequenced receipt raises ``D_x``, so the engine makes no promise
        about the others either: it always answers "may have moved".
        """
        if message.sequenced_by is not None and message.clock > self.last_sequenced:
            self.last_sequenced = message.clock
        if (
            message.origin_request is not None
            and message.sender == self.endpoint.process.process_id
        ):
            # Receipt of the sequenced copy ends the failover-resend
            # obligation, but deliberately NOT the Send-Blocking-Rule
            # bookkeeping: a received-yet-undelivered copy can still be
            # discarded by a failure agreement (its clocks die with the
            # removed sequencer) and re-sequenced later, so receipt is not
            # final.  The blocking rule releases on *delivery* (see
            # ``NewtopProcess._record_deliveries``), the point past which the
            # message can no longer lose its place in the total order.
            self._unsequenced.pop(message.origin_request, None)
        return True

    # ------------------------------------------------------------------
    # Deliverability
    # ------------------------------------------------------------------
    def deliverable_bound(self) -> float:
        """``D_x,i`` = number of the last message received from the sequencer."""
        return max(float(self.last_sequenced), self.d_floor)

    # ------------------------------------------------------------------
    # View changes / failover
    # ------------------------------------------------------------------
    def on_members_removed(self, removed: frozenset, threshold: int) -> None:
        """Forget stability reports from removed members."""
        for member in removed:
            self._member_ldn.pop(member, None)

    def on_own_messages_discarded(self, messages: List[DataMessage]) -> None:
        """Step (viii) discarded our own sequenced messages (they travelled
        through the failed sequencer above ``lnmn``); track them as
        unsequenced again so the failover resend gives them a second life
        under their original identity instead of silently losing them."""
        process = self.endpoint.process
        for message in messages:
            request_id = message.origin_request
            if request_id is None or request_id in self._unsequenced:
                continue
            self._unsequenced[request_id] = (message.payload, message.kind)
            process.note_unicast_outstanding(self.endpoint.group_id, request_id)

    def _unsequenced_in_send_order(self) -> List[Tuple[str, Tuple[object, str]]]:
        """Outstanding requests ordered by original send time.

        Dict insertion order is *not* send order here: step (viii) of the
        failure agreement re-adds own messages whose sequenced copies were
        discarded (:meth:`on_own_messages_discarded`), and those were sent
        *before* any request that never came back.  Re-sequencing in
        insertion order would invert the origin's FIFO.  Request ids carry
        a monotonically increasing counter, so the numeric suffix recovers
        the true send order.
        """
        return sorted(
            self._unsequenced.items(),
            key=lambda item: int(item[0].rsplit("#", 1)[1]),
        )

    def on_view_installed(self) -> None:
        """Sequencer failover: if the sequencer changed, re-send requests
        that were never sequenced (or whose sequenced copies were discarded
        by the failure agreement) to the new sequencer."""
        process = self.endpoint.process
        new_sequencer = self.sequencer()
        if new_sequencer == self._current_sequencer:
            # The view shrank but the sequencer survived: our outstanding
            # requests are still queued at (or in flight to) it, and
            # re-unicasting would make it sequence them twice.
            return
        self._current_sequencer = new_sequencer
        if self.is_sequencer():
            # We just became the sequencer; sequence our unsequenced
            # requests locally, under their original request ids.  The
            # loopback *delivery* clears the Send-Blocking-Rule bookkeeping
            # -- clearing it up front would let deferred sends in *other*
            # groups flush with Lamport clocks below these messages',
            # violating the causal order the blocking rule exists for.
            pending = self._unsequenced_in_send_order()
            self._unsequenced.clear()
            for request_id, (payload, kind) in pending:
                self._sequence_and_multicast(
                    origin=process.process_id,
                    payload=payload,
                    kind=kind,
                    origin_request=request_id,
                    cause="failover_resend",
                )
            return
        if not self._unsequenced:
            return
        # Re-unicast under the *original* request id: the sequencer reuses
        # it as the multicast's message id, so the message keeps one
        # identity from the origin's send to every delivery (receivers that
        # saw a pre-crash copy dedup instead of delivering twice), and the
        # Send-Blocking-Rule bookkeeping simply stays outstanding.
        for request_id, (payload, kind) in self._unsequenced_in_send_order():
            request = SequencerRequest(
                request_id=request_id,
                origin=process.process_id,
                group=self.endpoint.group_id,
                origin_clock=process.clock.tick(),
                payload=payload,
                kind=kind,
                origin_ldn=self.ldn(),
            )
            self.endpoint.send_to_member(
                self.sequencer(), request, cause="failover_resend"
            )

    # ------------------------------------------------------------------
    # §5 questions: the failover states of the class docstring
    # ------------------------------------------------------------------
    def relay_dead(self) -> bool:
        """While the sequencer has been silent past the suspicion window,
        stands suspected or is excluded, a member multicasts its nulls
        directly, unsequenced: they never advance ``D_x`` but keep the
        other members' suspectors fed, so they do not suspect each other
        while agreeing on the sequencer's failure.  Silence, not suspicion:
        a refutation can clear the suspicion without reviving the relay."""
        if self.is_sequencer():
            return False
        endpoint = self.endpoint
        sequencer = self.sequencer()
        heard = endpoint.suspector.last_activity(sequencer)
        silent_for = endpoint.process.sim.now - heard if heard is not None else 0.0
        return (
            endpoint.gv.is_suspected(sequencer)
            or endpoint.gv.is_excluded(sequencer)
            or silent_for >= endpoint.suspector.suspicion_timeout
        )

    def discard_bounds(self, detection: frozenset) -> Dict[str, int]:
        """Each target's messages survive up to *its own* agreed last
        number (clamped at the failover cut): cutting at another, laggard
        target's ``ln`` would take back what members already delivered."""
        last_numbers = _last_numbers(detection)
        cut = last_numbers.get(self.sequencer())
        if cut is None:
            return last_numbers
        return {target: min(number, cut) for target, number in last_numbers.items()}

    def view_change_threshold(self, detection, removed: frozenset, lnmn: int) -> Optional[int]:
        """The sequencer cuts at its marker, a member at one recorded, or it
        parks the detection (``None``).  A sequencer's *agreed* last number
        is the same at every survivor (rule iii), and survivors may have
        delivered well past ``lnmn``, another target's stale number."""
        cut = _last_numbers(detection).get(self.sequencer())
        if cut is not None:
            endpoint = self.endpoint
            for awaiting in self.parked:
                # Their marker will never come; their old-view stream now
                # truncates at the failover cut, so re-discard what the
                # per-target bound kept above it.
                for target in awaiting:
                    endpoint.process.delivery_queue.discard_from_sender(
                        endpoint.group_id, target, above_clock=cut
                    )
                    endpoint.stability.buffer.discard_sender_above(target, cut)
                endpoint.add_view_change(awaiting, cut)
            self.parked.clear()
            return cut
        if self.is_sequencer():
            return self.emit_view_cut(removed)
        cut = self.cut_points.pop(removed, None)
        if cut is None:
            self.parked.append(removed)
        return cut

    def on_view_cut(self, message: DataMessage) -> None:
        endpoint = self.endpoint
        removed = frozenset(message.payload or ())
        # A marker naming us leaves our exclusion to the reciprocal
        # suspicions.  A stale one (replayed, or recovered by a refutation,
        # after its view installed) would cap delivery forever: its targets
        # are never detected again.
        own_id = endpoint.process.process_id
        if not removed or own_id in removed or not removed <= endpoint.view.members:
            return
        if removed in self.parked:
            self.parked.remove(removed)
            endpoint.add_view_change(removed, message.clock)
            return
        self.cut_points[removed] = message.clock

    def cut_bound(self) -> float:
        return float(min(self.cut_points.values())) if self.cut_points else INFINITY

    def holds_unsettled_work(self) -> bool:
        return bool(self.cut_points or self.parked)

    def forget_stale_cuts(self) -> None:
        """Cut state whose targets are not all in the view can never match a
        detection (excluded processes are not re-suspected)."""
        members = self.endpoint.view.members
        self.cut_points = {
            targets: cut for targets, cut in self.cut_points.items() if targets <= members
        }
        self.parked = [targets for targets in self.parked if targets <= members]

    def defers_suspicion(self, suspicion: Suspicion) -> bool:
        """A member heard through the sequencer is evidently silent only
        while the sequencer is evidently alive: while the sequencer is quiet
        (for Ω/2) but unsuspected, the suspicion waits.  Once it is
        suspected, direct membership traffic refreshes the suspector, and a
        member gets one more timeout of it -- not more, or a member crashed
        with the sequencer would deadlock the failover."""
        endpoint = self.endpoint
        sequencer = self.sequencer()
        target = suspicion.target
        if target == sequencer or endpoint.process.process_id == sequencer:
            return False
        suspector = endpoint.suspector
        heard = suspector.last_heard(sequencer)
        silent_for = endpoint.process.sim.now - heard if heard is not None else 0.0
        if not endpoint.gv.is_suspected(sequencer):
            if silent_for < 0.5 * suspector.suspicion_timeout:
                return False
        elif target in self.deferred:
            return False
        else:
            self.deferred.add(target)
        suspector.clear_suspicion(target)
        return True

    def refresh_suspicions(self) -> None:
        """A fresh suspicion window for every member after an install, so a
        sequencer change does not cascade into further suspicions."""
        endpoint = self.endpoint
        self.deferred.clear()
        for member in endpoint.view.members:
            if member != endpoint.process.process_id:
                endpoint.suspector.clear_suspicion(member)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsymmetricOrdering(group={self.endpoint.group_id!r}, "
            f"sequencer={self.sequencer()!r}, D={self.deliverable_bound()})"
        )


def _last_numbers(detection: frozenset) -> Dict[str, int]:
    """Each target's agreed last number: its largest ``ln`` in a detection."""
    return {suspicion.target: suspicion.last_number for suspicion in sorted(detection)}
