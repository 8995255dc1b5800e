"""The per-(process, group) endpoint: everything one membership entails.

A :class:`GroupEndpoint` bundles the state and machinery a Newtop process
keeps for one of its groups (the paper's architecture, Fig. 3):

* the current membership view (and, optionally, its §6 signature form),
* the ordering engine (symmetric §4.1 or asymmetric §4.2, whose sequencer
  failover answers the questions below that depend on the mode),
* the stability tracker and retention buffer (§5.1),
* the time-silence mechanism (§4.1) and the failure suspector (§5.2),
* the group-view (membership agreement) process ``GV_x,i`` (§5.2),
* the flow controller (§7 / [11]),
* the *formation wait* state of a dynamically formed group (§5.3 step 5),
* the queue of application sends deferred by the blocking rules.

The endpoint deliberately contains no delivery logic: received application
messages are pushed into the process-wide delivery queue, and the process
combines the per-group deliverable bounds (safe1') and pops messages in
global order (safe2) -- that is how Newtop gets cross-group total order
(MD4') for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.asymmetric import AsymmetricOrdering
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.flow_control import FlowController
from repro.core.membership import GroupViewProcess
from repro.core.messages import (
    Beacon,
    ConfirmMessage,
    DataMessage,
    KIND_DATA,
    KIND_NULL,
    KIND_START_GROUP,
    KIND_VIEW_CUT,
    RefuteMessage,
    SequencerRequest,
    SuspectMessage,
    Suspicion,
)
from repro.core.stability import StabilityTracker
from repro.core.suspector import FailureSuspector, ring_successors
from repro.core.symmetric import SymmetricOrdering
from repro.core.time_silence import TimeSilence
from repro.core.vectors import INFINITY
from repro.core.views import MembershipView, SignatureView
from repro.net import trace as trace_events


@dataclass
class PendingViewChange:
    """A confirmed detection awaiting installation (step viii tail).

    ``update_view(F, N)``: the view excluding ``removed`` is installed only
    once every message numbered ``<= threshold`` (``lnmn``) has been
    delivered.
    """

    removed: frozenset
    threshold: int


@dataclass
class _FormationWait:
    """Step 5 state of a dynamically formed group.

    While waiting for a ``start-group`` message from every view member, the
    group's deliverable bound is pinned to the largest start-number seen so
    far, and application sends in the group are deferred.
    """

    start_numbers: Dict[str, int] = field(default_factory=dict)

    def bound(self) -> float:
        """The provisional deliverable bound during the wait."""
        return float(max(self.start_numbers.values())) if self.start_numbers else 0.0


class GroupEndpoint:
    """One process's attachment to one group."""

    def __init__(
        self,
        process,
        group_id: str,
        members: Tuple[str, ...],
        mode: OrderingMode,
        formation_wait: bool = False,
    ) -> None:
        self.process = process
        self.group_id = group_id
        self.mode = mode
        config: NewtopConfig = process.config
        self.config = config
        own_id = process.process_id

        self._adopt_view(MembershipView.initial(group_id, members))
        self.signature_view: Optional[SignatureView] = (
            SignatureView.initial(group_id, members) if config.use_signature_views else None
        )
        # ATOMIC_ONLY reuses the symmetric engine's bookkeeping; the
        # process-level delivery path simply does not wait for safe1' in
        # that mode.
        engine = AsymmetricOrdering if mode is AsymmetricOrdering.mode else SymmetricOrdering
        self.engine = engine(self)
        self.stability = StabilityTracker(group_id, members)
        self.flow = FlowController(config.flow_control_window)
        self.suspector = FailureSuspector(
            sim=process.sim,
            own_id=own_id,
            members=members,
            suspicion_timeout=config.suspicion_timeout,
            check_interval=config.suspector_check_interval,
            notify=self._on_suspector_notification,
            on_tick=self._on_suspector_tick,
            needs_everybody=self._needs_everybody,
            ring_watched=not self.engine.relayed,
            next_wake=None if self.engine.relayed else process.heartbeat.next_wake,
            # Our flagged null within ω, the answer within ω of that (or
            # already in flight), found at the next check.
            grace=2 * config.omega + config.suspector_check_interval,
        )
        self.gv = GroupViewProcess(self, own_id, group_id)
        self.time_silence = TimeSilence(
            process.sim,
            config.omega,
            self._send_null,
            owed=self.owes_group,
            idle_period=config.heartbeat_period,
            # A directly heard group's idle heartbeat is the process's
            # business, unless what it retains is still unstable: then its
            # own acknowledgment may have been lost, and it re-sends one.
            cover=None if self.engine.relayed else self._go_dormant,
            unstable=None if self.engine.relayed else self.stability.buffer.non_null_count,
        )

        self.departed = False
        self.pending_view_changes: List[PendingViewChange] = []
        #: Application payloads deferred by the blocking rules / formation
        #: wait / flow control, in submission order.
        self.deferred_sends: List[object] = []
        #: Nulls of ours that rode a suspect or confirm message.
        self.nulls_carried = 0
        metrics = process.sim.metrics
        if metrics is not None:
            metrics.counter_source(
                "time_silence.", lambda: {"nulls_carried": self.nulls_carried}
            )
            # Senders with a send waiting, polled at sampler ticks only.
            metrics.sum_gauge("flow.blocked_senders").add(
                lambda: 1 if self.deferred_sends else 0
            )
            # Messages retained for recovery while not yet stable (§5.1),
            # over the endpoints still in their group; polled the same way.
            retained = self.stability.buffer.size
            metrics.sum_gauge("stability.retained").add(
                lambda: retained() if self.active else 0
            )
        #: The recorder's lifecycle dispatch (``None``: nobody follows
        #: messages; see :mod:`repro.net.trace`).
        self._lifecycle = process.recorder.lifecycle
        self._formation_wait: Optional[_FormationWait] = _FormationWait() if formation_wait else None
        #: A member's null said its process is waiting on ``D_i``
        #: (``awaits_reply``) and nothing we multicast so far is numbered
        #: past it; our next send in the group -- CA2 has already pushed the
        #: clock past that null's number -- is the answer.
        self._reply_awaited = False
        #: Number and ``ldn`` of our last multicast in the group: what every
        #: peer's ``RV`` and ``SV`` entry for us will reach without another
        #: word from us (the channels are FIFO).
        self._last_sent_clock = 0
        self._last_sent_ldn = 0

        self._record_view_installed()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _adopt_view(self, view: MembershipView) -> None:
        """Make ``view`` the current view, with the fan-out lists derived
        from it: every other member in sorted order (a multicast's
        destinations, in the order the latency draws are made) and our ring
        successors (an idle beacon's)."""
        self.view = view
        own_id = self.process.process_id
        ordered = view.sorted_members()
        self._peers: Tuple[str, ...] = tuple(
            member for member in ordered if member != own_id
        )
        self.ring_successors: Tuple[str, ...] = (
            ring_successors(ordered, own_id) if own_id in view.members else ()
        )

    def start(self) -> None:
        """Activate the time-silence mechanism and the failure suspector."""
        self.time_silence.start()
        self.suspector.start()

    def release(self) -> None:
        """The session ended: drop the parts that point back at this
        endpoint.  What the metric registry reads of it stays."""
        self.engine = self.gv = self.time_silence = self.suspector = None

    def shutdown(self) -> None:
        """Stop all timers (departure, crash or teardown)."""
        self.departed = True
        self.time_silence.stop()
        self.suspector.stop()

    @property
    def active(self) -> bool:
        """Whether the endpoint still participates in the group."""
        return not self.departed and not self.process.crashed

    @property
    def in_formation_wait(self) -> bool:
        """Whether the endpoint is still in §5.3's step-5 wait."""
        return self._formation_wait is not None

    def owes_group(self) -> bool:
        """Whether a null from us would do ordering, stability or membership
        work that no message of ours already on the wire does, so the
        time-silence deadline is ω rather than the idle heartbeat period
        (see :mod:`repro.core.time_silence`).

        A view change, cut marker, formation wait, deferred send or
        unsequenced unicast is waiting on peers' ``RV``/``SV`` entries.  A
        member's null flagged ``awaits_reply`` is owed only until something
        we multicast in the group is numbered past it (the channels are
        FIFO, and the flagging process waits on nothing numbered above its
        own clock).  Unstable traffic and an agreement in progress are owed
        as the engine says (``owes_stability``, ``owes_agreement``).

        Idleness is a property of the processes, not of the group: a
        multi-group process delivers under the minimum of all its ``D_x``
        (safe1'), so a group with no traffic of its own still does
        ordering work for a busy group it overlaps.  A process that holds
        anything undelivered (:meth:`NewtopProcess.awaits_delivery`) owes
        every one of its groups, its nulls say so (``awaits_reply``), and
        a member that hears one owes a send numbered past it.
        """
        engine = self.engine
        return bool(
            engine.owes_stability(self._last_sent_ldn)
            or self._reply_awaited
            or self.holds_unsettled_work()
            or self._formation_wait is not None
            or self.process.outstanding_unicasts(self.group_id)
            or engine.owes_agreement(self._last_sent_clock)
            or self.process.awaits_delivery()
        )

    def holds_unsettled_work(self) -> bool:
        """Whether this group holds something only a later
        :meth:`NewtopProcess.settle` can finish: a deferred send, a
        confirmed view change awaiting its threshold, or the engine's cut
        state (a cut point or a parked detection).  While any group of a
        process does, no receipt of that process is taken to be inert."""
        return bool(
            self.deferred_sends
            or self.pending_view_changes
            or self.engine.holds_unsettled_work()
        )

    # ------------------------------------------------------------------
    # Deliverability (consumed by the process-level delivery loop)
    # ------------------------------------------------------------------
    def deliverable_bound(self) -> float:
        """This group's contribution to ``D_i`` (safe1')."""
        if not self.active:
            return INFINITY
        if self.mode == OrderingMode.ATOMIC_ONLY:
            # Atomic delivery bypasses the logical-clock gating (Fig. 3).
            return INFINITY
        if self._formation_wait is not None:
            return self._formation_wait.bound()
        return self.engine.deliverable_bound()

    def next_view_change_threshold(self) -> float:
        """Number above which no message may be delivered before the next
        pending view change is installed (infinity when none is pending).
        A cut the engine holds ahead of its view change caps delivery the
        same way (:meth:`OrderingEngine.cut_bound`)."""
        threshold = self.engine.cut_bound()
        if self.pending_view_changes:
            threshold = min(threshold, float(self.pending_view_changes[0].threshold))
        return threshold

    # ------------------------------------------------------------------
    # Send path (called by the owning process)
    # ------------------------------------------------------------------
    def send_application(self, payload: object) -> str:
        """Disseminate an application message now (blocking rules already
        checked by the process).  Returns the end-to-end message id."""
        message_id = self.engine.send(payload, KIND_DATA)
        self.flow.note_sent(self.process.clock.value)
        return message_id

    def send_start_group(self) -> None:
        """Multicast the special ``start-group`` message (§5.3 step 4).

        Start-group messages are multicast directly in both ordering modes:
        they pre-date the group's application traffic, and their only role
        is to carry each member's proposed start-number.
        """
        process = self.process
        clock = process.clock.tick()
        message = DataMessage.start_group(
            sender=process.process_id,
            group=self.group_id,
            clock=clock,
            ldn=0,
        )
        self.broadcast_data(message, cause="formation")

    def _send_null(self, ask: bool = False) -> None:
        """Time-silence callback: multicast a null message (§4.1).

        ``ask``: the re-send of a symmetric group that still retains
        unstable traffic although its own ``ldn`` already covers it.  What
        is missing is some member's acknowledgment, lost on the way here;
        the null is flagged ``awaits_reply``, so every member whose last
        multicast is numbered below it answers with its current ``ldn``.
        It also goes straight to every member, unnumbered by the engine,
        while the engine's relay looks dead (:meth:`OrderingEngine.relay_dead`).
        """
        if not self.active:
            return
        if ask or self.engine.relay_dead():
            clock = self.process.clock.tick()
            message = DataMessage.null(
                sender=self.process.process_id,
                group=self.group_id,
                clock=clock,
                ldn=self.engine.ldn(),
                awaits_reply=ask,
            )
            self.broadcast_data(message, cause="null_time_silence")
        else:
            self.engine.send(None, KIND_NULL)
        self.process.record_null_send(self.group_id)

    def _go_dormant(self) -> None:
        """Time-silence callback of a symmetric group that owes nothing:
        from here on the process heartbeat tells our ring successors -- the
        members that time us out while the group is idle
        (:mod:`repro.core.suspector`) -- that we are alive."""
        self.process.heartbeat.cover(self)

    def _needs_everybody(self) -> bool:
        """Whether we are restless: while the agreement is busy or our
        process holds anything undelivered, our own traffic keeps every
        hearer at the ω all-pairs cadence, and we cannot finish without
        each of them.  The suspector then ticks at every grid point and,
        in a ring-watched group, watches the whole view rather than our
        ring predecessors."""
        return self.gv.busy() or self.process.awaits_delivery()

    def defer_send(self, payload: object, reason: str) -> None:
        """Queue an application payload blocked by ``reason``."""
        self.deferred_sends.append(payload)
        self.process.recorder.record(
            self.process.sim.now,
            trace_events.BLOCKED_SEND,
            self.process.process_id,
            group=self.group_id,
            reason=reason,
            queue_length=len(self.deferred_sends),
        )

    # ------------------------------------------------------------------
    # Raw transmission helpers
    # ------------------------------------------------------------------
    def broadcast_data(self, message: DataMessage, cause: Optional[str] = None) -> None:
        """Transmit ``message`` to every other view member and loop it back
        to ourselves (a process delivers its own messages by executing the
        protocol)."""
        if self._lifecycle is not None:
            self._report(trace_events.TRANSMITTED, message, cause)
        self.process.transport_endpoint.multicast(
            self._peers, message, "newtop", message.wire_size_bytes(), cause
        )
        self._note_sent(message)
        self.on_data_message(message, local_origin=True)

    def _note_sent(self, message: DataMessage) -> None:
        """A numbered multicast of ours is on the wire: restart the ω clock
        and remember what every peer will hold of us."""
        self.time_silence.notify_sent()
        self._reply_awaited = False
        self._last_sent_clock = message.clock
        self._last_sent_ldn = message.ldn

    def send_to_member(
        self, member: str, payload: object, cause: Optional[str] = None
    ) -> None:
        """Unicast a protocol message (e.g. a sequencer request) to ``member``.

        Deliberately does NOT reset the time-silence timer: a unicast
        request is inaudible to the group until the sequencer multicasts
        it, so counting it as "sending" would let a member whose sequencer
        is unreachable fall silent for everyone else while busily unicasting
        into the void -- peers would (wrongly, but irrefutably) suspect it.
        The timer resets when our request comes back sequenced, the moment
        the group actually heard us (:meth:`on_data_message`).
        """
        if self._lifecycle is not None:
            self._report(trace_events.TRANSMITTED, payload, cause, member)
        size = payload.wire_size_bytes() if hasattr(payload, "wire_size_bytes") else 0
        self.process.transport_endpoint.send(
            member, payload, channel="newtop", size_bytes=size, cause=cause
        )

    def _report(self, kind: str, subject: object, detail=None, peer=None) -> None:
        """Tell the recorder's lifecycle subscribers what just happened to
        ``subject`` here (callers check ``_lifecycle`` first)."""
        process = self.process
        self._lifecycle(kind, process.sim.now, process.process_id, subject, detail, peer)

    def _filtered(self, sender: str, item: object) -> bool:
        """§5.2's filter on what ``sender`` (for a sequenced message, its
        sequencer) sent us: an excluded process's traffic is discarded,
        a suspected one's is held until the suspicion resolves (rule ii).
        True when ``item`` goes no further now."""
        if self.gv.is_excluded(sender) or sender not in self.view.members:
            self.note_discarded((item,), "excluded_sender")
            return True
        if self.gv.is_suspected(sender):
            self.gv.hold_pending(sender, item)
            if self._lifecycle is not None:
                self._report(trace_events.HELD, item, "suspected:" + sender)
            return True
        return False

    def note_discarded(self, items: Iterable[object], reason: str) -> None:
        """Messages of an excluded (or about to be excluded) sender were
        dropped unprocessed: the receive filter, step (viii), and the GV's
        hold queue at confirmation."""
        if self._lifecycle is not None:
            for item in items:
                self._report(trace_events.DISCARDED, item, reason)

    def mcast_membership(self, message: object, cause: Optional[str] = None) -> bool:
        """The GV process's ``mcast`` primitive: transmit to every view
        member's GV process (delivered in sent order by the transport).

        Outside a relayed group and a formation wait, a suspect or
        confirm message carries our null (``message.null``): numbered like
        the null time-silence would send (CA1, current ``ldn``,
        ``awaits_reply``), and looped back like any send of ours.  It is
        the number the agreement needs from us (:meth:`owes_group`), which
        would otherwise follow in a frame of its own.  Refutations stay
        unnumbered (:mod:`repro.core.membership` says why).

        The loop-back does not settle: the GV process is mid-rule (a
        confirmation goes out before step (viii) runs), and its caller
        settles once the rule is done.  Returns whether a null rode along.
        """
        process = self.process
        null = None
        if (
            not self.engine.relayed
            and self._formation_wait is None
            and isinstance(message, (SuspectMessage, ConfirmMessage))
        ):
            null = DataMessage.null(
                sender=process.process_id,
                group=self.group_id,
                clock=process.clock.tick(),
                ldn=self.engine.ldn(),
                awaits_reply=process.awaits_delivery(),
            )
            message = replace(message, null=null)
            if self._lifecycle is not None:
                self._report(trace_events.TRANSMITTED, null, cause)
        size = message.wire_size_bytes() if hasattr(message, "wire_size_bytes") else 0
        process.transport_endpoint.multicast(self._peers, message, "newtop", size, cause)
        if null is None:
            return False
        self.nulls_carried += 1
        self._note_sent(null)
        self.stability.on_message(null)
        self._after_stability_advance()
        self.engine.on_data(null)
        return True

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_data_message(self, message: DataMessage, local_origin: bool = False) -> bool:
        """Handle a group (data/null/start-group) message.

        ``local_origin`` marks the loop-back of our own multicast; it skips
        the membership filtering and the CA2 clock update (CA1 already ran).

        Returns whether the receipt may have moved something
        :meth:`NewtopProcess.settle` reads.  False -- the receipt was
        *inert* -- is a promise, made only for a null, or an application
        message joining a non-empty delivery queue above the bound the last
        delivery pass ran under, that left ``D_x`` where it was; see
        ``settle`` for the whole rule and why it is enough.  The transport
        batch that carried only such receipts ends without a settle;
        outside a batch the return value is not used and the receipt
        settles as it always did.
        """
        process = self.process
        if self.departed or process.crashed:
            return True
        kind = message.kind
        # Decided before the early exits, so that each of them settles.
        inert = (
            not local_origin
            and self.mode is OrderingMode.SYMMETRIC
            and message.sequenced_by is None
            and not message.awaits_reply
            and self._formation_wait is None
            and not self.gv.busy()
            and (
                kind == KIND_NULL
                or (
                    kind == KIND_DATA
                    and process.delivery_queue.pending_count() > 0
                    and message.clock > process.last_pass_bound
                )
            )
        )
        filter_key = message.sequenced_by or message.sender
        if not local_origin:
            if self._filtered(filter_key, message):
                return True
            process.clock.observe(message.clock)
            if message.awaits_reply and message.clock > self._last_sent_clock:
                # A send of ours numbered past the flag is already on its
                # way to the flagging member: that is the answer.
                self._reply_awaited = True
        if (
            not local_origin
            and message.sender == process.process_id
            and (kind != KIND_NULL or self.owes_group())
        ):
            # Our unicast request came back as a sequenced multicast: the
            # group just heard from us, so push the next liveness null out
            # by omega (see :meth:`send_to_member` for why the unicast
            # itself does not count).  An idle heartbeat's round trip does
            # not count: the heartbeat period is measured from issue to
            # issue, or the relay delay would eat into the suspectors'
            # margin on every beat.
            self.time_silence.notify_sent()
        # Liveness evidence for the suspector: both the logical sender and,
        # in asymmetric groups, the sequencer that relayed the message.
        self.suspector.heard_from(message.sender, message.clock)
        if message.sequenced_by is not None:
            self.suspector.heard_from(message.sequenced_by, message.clock)
        # Stability (§5.1): retain the message and fold in its ldn.
        self.stability.on_message(message, key=filter_key)
        if message.sequenced_by is not None:
            self.stability.record_global_ldn(message.ldn)
        self._after_stability_advance()
        # Ordering state (RV / last-sequenced number).  A receipt that may
        # have moved ``D_x`` is never inert.
        if self.engine.on_data(message):
            inert = False
        # Rule (iii) hook: a fresh message may refute gossip suspicions.
        if not local_origin:
            self.gv.on_data_from(filter_key, message.clock)
            if message.sender != filter_key:
                self.gv.on_data_from(message.sender, message.clock)
        # Formation wait (§5.3 step 5).
        if kind == KIND_START_GROUP and message.start_number is not None:
            self._on_start_group(message.sender, message.start_number)
        # End-of-view marker: the view change's place in the stream.
        elif kind == KIND_VIEW_CUT:
            self.engine.on_view_cut(message)
        # Only application messages enter the delivery queue; null and
        # start-group messages have done their job already.
        elif kind == KIND_DATA:
            if not local_origin:
                process.recorder.record(
                    process.sim.now,
                    trace_events.RECEIVE,
                    process.process_id,
                    group=self.group_id,
                    message_id=message.msg_id,
                    sender=message.sender,
                    clock=message.clock,
                )
            if self.mode == OrderingMode.ATOMIC_ONLY:
                # Atomic-only groups bypass the logical-clock gating
                # entirely (Fig. 3): deliver as soon as the message arrives.
                process.deliver_immediately(self, message)
            else:
                process.delivery_queue.enqueue(message)
        # Per-receipt follow-up; during a transport batch it is deferred to
        # the end of the batch (one pass per simulator event, and none if
        # every receipt of the batch was inert).
        if not process.in_receipt_batch:
            process.settle()
        return not inert

    def on_sequencer_request(self, request: SequencerRequest) -> None:
        """Handle a unicast addressed to us as the group's sequencer."""
        if not self.active:
            return
        if self._filtered(request.origin, request):
            return
        self.suspector.heard_from(request.origin, request.origin_clock)
        self.engine.on_sequencer_request(request)

    def on_beacon(self, beacon: Beacon) -> None:
        """A ring predecessor's idle heartbeat that names this group:
        liveness evidence for the suspector and nothing else (no number, so
        no clock, vector or retention work, and nothing that could have
        become deliverable)."""
        if self.active:
            self.suspector.heard_from(beacon.origin, 0)

    def on_membership_message(self, src: str, message: object) -> None:
        """Handle a suspect/refute/confirm message from ``src``'s GV, then
        the null it carries, if any, as the receipt that came right after
        it on the FIFO channel: the ordinary null path (§5.2 filter, CA2,
        ``RV``, ``SV``, rule iii)."""
        if not self.active:
            return
        self.suspector.heard_from(src, 0)
        self.gv.on_membership_message(src, message)
        null = getattr(message, "null", None)
        if null is not None:
            self.on_data_message(null)
        if not self.process.in_receipt_batch:
            self.process.settle()

    def replay_pending(self, sender: str, items: List[object]) -> None:
        """Re-inject messages held while ``sender`` was under suspicion."""
        for item in items:
            if self._lifecycle is not None:
                self._report(trace_events.RELEASED, item)
            if isinstance(item, DataMessage):
                self.on_data_message(item)
            elif isinstance(item, SequencerRequest):
                self.on_sequencer_request(item)
            elif isinstance(item, (SuspectMessage, RefuteMessage, ConfirmMessage)):
                self.gv.on_membership_message(sender, item)

    def recover_messages(self, messages: List[DataMessage]) -> None:
        """Feed messages recovered via a refutation back into the receive
        path (duplicates are absorbed by the delivery queue and the
        monotone vectors)."""
        for message in messages:
            self.on_data_message(message)

    # ------------------------------------------------------------------
    # Queries used by the GV process
    # ------------------------------------------------------------------
    def membership_clock_of(self, member: str) -> int:
        """Number of the latest message we hold from ``member``."""
        return self.suspector.last_clock(member)

    def retained_messages_from(self, member: str, above: int) -> List[DataMessage]:
        """Unstable retained messages of ``member`` numbered above ``above``."""
        return self.stability.buffer.messages_from(member, above=above)

    def record_membership_event(self, kind: str, **details) -> None:
        """Trace hook for the GV process."""
        self.process.recorder.record(
            self.process.sim.now,
            kind,
            self.process.process_id,
            group=self.group_id,
            **details,
        )

    # ------------------------------------------------------------------
    # Failure detection execution (step viii) and view installation
    # ------------------------------------------------------------------
    def execute_failure_detection(self, detection: frozenset) -> None:
        """Step (viii): discard the failed processes' messages past the cut
        the engine places (``lnmn`` in §5), unblock ``D``, and schedule the
        view installation at that cut (:class:`OrderingEngine`)."""
        removed = frozenset(suspicion.target for suspicion in detection)
        lnmn = min(suspicion.last_number for suspicion in detection)
        own_id = self.process.process_id
        bounds = self.engine.discard_bounds(detection)
        for target in removed:
            above = bounds.get(target, lnmn)
            discarded = self.process.delivery_queue.discard_from_sender(
                self.group_id, target, above_clock=above
            )
            self.note_discarded(discarded, "step_viii")
            own_discards = [m for m in discarded if m.sender == own_id]
            if own_discards:
                self.engine.on_own_messages_discarded(own_discards)
            self.stability.handle_member_removed(target, discard_above=above)
        self.engine.on_members_removed(removed, lnmn)
        threshold = self.engine.view_change_threshold(detection, removed, lnmn)
        if threshold is not None:
            self.add_view_change(removed, threshold)
        self.process.settle()

    def add_view_change(self, removed: frozenset, threshold: int) -> None:
        """Install the view excluding ``removed`` once ``threshold`` is reached."""
        self.pending_view_changes.append(
            PendingViewChange(removed=removed, threshold=threshold)
        )
        self.pending_view_changes.sort(key=lambda change: change.threshold)

    def maybe_install_views(self) -> bool:
        """Install pending view changes whose precondition is met.

        ``update_view(F, N)`` installs once (a) no message numbered
        ``<= N`` can still arrive -- i.e. the process-wide deliverable
        bound has reached ``N`` -- and (b) every received message numbered
        ``<= N`` has been delivered.  Returns True if at least one view was
        installed (the caller's delivery loop then re-evaluates bounds).
        """
        installed_any = False
        while self.pending_view_changes:
            change = self.pending_view_changes[0]
            bound = self.process.global_deliverable_bound()
            if bound < change.threshold:
                break
            if self.process.delivery_queue.has_pending_at_or_below(change.threshold):
                break
            self.pending_view_changes.pop(0)
            self._install_view(change)
            installed_any = True
        return installed_any

    def _install_view(self, change: PendingViewChange) -> None:
        actually_removed = change.removed & self.view.members
        if not actually_removed:
            return
        self._adopt_view(self.view.exclude(actually_removed))
        if self.time_silence.dormant:
            # The ring moved on to successors nobody has vouched to yet.
            self.process.heartbeat.cover(self)
        if self.signature_view is not None:
            self.signature_view = self.signature_view.exclude(actually_removed)
        for member in actually_removed:
            self.suspector.remove_member(member)
        self.engine.on_members_removed(actually_removed, change.threshold)
        self.engine.on_view_installed()
        # The GV process can confirm here, and so read the engine's cuts.
        self.gv.on_view_installed()
        self.engine.forget_stale_cuts()
        self._record_view_installed()
        self.engine.refresh_suspicions()
        if self._formation_wait is not None:
            self._check_formation_complete()

    def _record_view_installed(self) -> None:
        details = {
            "members": self.view.sorted_members(),
            "index": self.view.index,
        }
        if self.signature_view is not None:
            details["signatures"] = tuple(
                (signature.process, signature.exclusions)
                for signature in sorted(
                    self.signature_view.signatures(), key=lambda s: s.process
                )
            )
        self.process.recorder.record(
            self.process.sim.now,
            trace_events.VIEW_INSTALL,
            self.process.process_id,
            group=self.group_id,
            **details,
        )

    # ------------------------------------------------------------------
    # Formation wait (§5.3 step 5)
    # ------------------------------------------------------------------
    def _on_start_group(self, sender: str, start_number: int) -> None:
        if self._formation_wait is None:
            return
        wait = self._formation_wait
        wait.start_numbers[sender] = max(
            wait.start_numbers.get(sender, 0), start_number
        )
        self._check_formation_complete()

    def _check_formation_complete(self) -> None:
        wait = self._formation_wait
        if wait is None:
            return
        if not set(self.view.members) <= set(wait.start_numbers):
            return
        start_number_max = max(
            wait.start_numbers[member] for member in self.view.members
        )
        self._formation_wait = None
        self.engine.raise_floor(float(start_number_max))
        self.process.clock.advance_to(start_number_max)
        self.process.recorder.record(
            self.process.sim.now,
            trace_events.GROUP_FORMED,
            self.process.process_id,
            group=self.group_id,
            start_number=start_number_max,
            members=self.view.sorted_members(),
        )
        self.process.settle()

    # ------------------------------------------------------------------
    # Suspector wiring
    # ------------------------------------------------------------------
    def _on_suspector_notification(self, suspicion: Suspicion) -> None:
        if not self.active or self.engine.defers_suspicion(suspicion):
            return
        self.gv.on_suspector_notification(suspicion)
        self.process.settle()

    def _on_suspector_tick(self) -> None:
        """End of a suspector tick: re-announce suspicions that have sat
        unresolved for a full timeout, so gossip lost to a transient
        partition converges after the heal.  (A suspicion makes the
        agreement busy, so every grid point ticks while one is held.)  A
        re-announcement that carried our null moved our own ``RV`` and
        ``SV`` entries, so the tick settles."""
        if not self.active:
            return
        if self.gv.regossip_unresolved(self.suspector.suspicion_timeout):
            self.process.settle()

    # ------------------------------------------------------------------
    # Stability / flow-control follow-ups
    # ------------------------------------------------------------------
    def _after_stability_advance(self) -> None:
        flow = self.flow
        if flow.window is not None:
            flow.note_stability(self.stability.stability_bound())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GroupEndpoint(process={self.process.process_id!r}, group={self.group_id!r}, "
            f"view={self.view.describe()}, mode={self.mode.value})"
        )
