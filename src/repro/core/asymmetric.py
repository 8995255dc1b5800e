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
only the symmetric version "to save space" -- and is documented as an
extension in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.messages import (
    CAUSE_BY_KIND,
    DataMessage,
    KIND_NULL,
    KIND_VIEW_CUT,
    SequencerRequest,
)
from repro.core.ordering import OrderingEngine


class AsymmetricOrdering(OrderingEngine):
    """Sequencer-based total order for one group."""

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

    # ------------------------------------------------------------------
    # Sequencer identity
    # ------------------------------------------------------------------
    def sequencer(self) -> str:
        """The current sequencer: a deterministic choice from the view."""
        return self.endpoint.view.sequencer()

    def is_sequencer(self) -> bool:
        """Whether the local process is the current sequencer."""
        return self.sequencer() == self.endpoint.process.process_id

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
        """Sequence the end-of-view marker for a confirmed detection (§5.2
        extension) and return its number -- the cut at which every surviving
        member installs the view excluding ``removed``.

        The asymmetric deliverable bound is the last number received *from
        the sequencer*, so a cut expressed in any other numbering (such as
        the detection's ``lnmn``, which is in the failed member's terms)
        cannot tell receivers where the old view's stream ends: a member
        whose detection lags keeps delivering freshly sequenced messages in
        the old view while faster peers deliver them in the new one.  The
        marker closes that gap by placing the view change *into the
        sequenced stream itself*: everything the sequencer numbered below
        the marker belongs to the old view at every member, everything
        above it waits for the install.
        """
        process = self.endpoint.process
        clock = process.clock.tick()
        message = DataMessage.sequenced(
            origin=process.process_id,
            group=self.endpoint.group_id,
            clock=clock,
            ldn=self._aggregate_ldn(),
            payload=tuple(sorted(removed)),
            kind=KIND_VIEW_CUT,
            sequencer=process.process_id,
            origin_request=None,
        )
        self.endpoint.broadcast_data(message, cause="view_cut")
        return clock

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
        failover members may multicast liveness nulls directly (see the
        endpoint), and those must not move the deliverable bound.  Every
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
            # ``NewtopProcess._handle_delivery``), the point past which the
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsymmetricOrdering(group={self.endpoint.group_id!r}, "
            f"sequencer={self.sequencer()!r}, D={self.deliverable_bound()})"
        )
