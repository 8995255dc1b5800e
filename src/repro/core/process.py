"""The Newtop process: the library's primary public API.

A :class:`NewtopProcess` represents one application process participating
in any number of groups.  It owns the pieces the paper describes as shared
across a process's memberships:

* the single Lamport clock (CA1/CA2, §4.1) -- one per process, *not* one
  per group;
* the cross-group delivery queue implementing safe1'/safe2, which is what
  extends total order across overlapping groups (MD4');
* the blocking rules of §4.2/§4.3 (a multi-group process must not
  disseminate a new message while a message it unicast to some *other*
  group's sequencer is still awaiting sequencing);
* the group-formation coordinator (§5.3).

Per-group machinery (ordering engine, membership, stability, time-silence,
flow control) lives in :class:`~repro.core.endpoint.GroupEndpoint`.

Typical usage::

    sim = Simulator(seed=1)
    network = Network(sim)
    transport = Transport(network)
    recorder = TraceRecorder()
    config = NewtopConfig()

    processes = {
        name: NewtopProcess(name, sim, transport, recorder, config)
        for name in ("P1", "P2", "P3")
    }
    for process in processes.values():
        process.create_group("g1", ["P1", "P2", "P3"])

    processes["P1"].multicast("g1", {"op": "set", "key": "x", "value": 1})
    sim.run(until=50)

(or use :class:`repro.api.Session`, which wraps exactly this boilerplate
behind one interface for Newtop and every baseline stack.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.clock import LamportClock
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.delivery import DeliveryQueue
from repro.core.endpoint import GroupEndpoint
from repro.core.errors import (
    AlreadyMemberError,
    DepartedGroupError,
    NotAMemberError,
    ProcessCrashedError,
)
from repro.core.group_formation import FormationCoordinator, FormationHandle, VotePolicy
from repro.core.time_silence import Heartbeat
from repro.core.messages import (
    Beacon,
    ConfirmMessage,
    DataMessage,
    FormGroupInvite,
    FormGroupVote,
    RefuteMessage,
    SequencerRequest,
    SuspectMessage,
)
from repro.core.vectors import INFINITY
from repro.core.views import MembershipView
from repro.net import trace as trace_events
from repro.net.simulator import Simulator
from repro.net.trace import DeliveryLog, TraceRecorder
from repro.net.transport import Transport, TransportMessage

#: Application delivery callback: ``callback(group, sender, payload, msg_id)``.
DeliveryCallback = Callable[[str, str, object, str], None]


@dataclass
class DeliveredMessage:
    """A record of one application delivery, kept in arrival order (only
    beside a stored trace, see :class:`~repro.net.trace.DeliveryLog`)."""

    group: str
    sender: str
    payload: object
    msg_id: str
    clock: int
    view_index: int
    time: float


class NewtopProcess:
    """One Newtop protocol participant (public API)."""

    def __init__(
        self,
        process_id: str,
        sim: Simulator,
        transport: Transport,
        recorder: Optional[TraceRecorder] = None,
        config: Optional[NewtopConfig] = None,
        delivery_callback: Optional[DeliveryCallback] = None,
        formation_vote_policy: Optional[VotePolicy] = None,
    ) -> None:
        self.process_id = process_id
        self.sim = sim
        self.config = (config or NewtopConfig()).validate()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.transport_endpoint = transport.endpoint(process_id)
        self.transport_endpoint.register_handler("newtop", self._on_transport_batch)
        self.clock = LamportClock()
        self.delivery_queue = DeliveryQueue()
        metrics = sim.metrics
        if metrics is not None:
            # One aggregate gauge over every process; polled at sampler
            # ticks only, so joining it costs nothing on the hot path.
            metrics.sum_gauge("process.delivery_queue_depth").add(
                self.delivery_queue.pending_count
            )
        #: The recorder's lifecycle dispatch (``None``: nobody follows
        #: messages), read once; a site pays one ``is None`` check.
        self._lifecycle = self.recorder.lifecycle
        self.formation = FormationCoordinator(
            self,
            sim,
            vote_policy=formation_vote_policy,
            formation_timeout=self.config.formation_timeout,
        )
        self._endpoints: Dict[str, GroupEndpoint] = {}
        #: The idle heartbeat of all our symmetric groups: one timer, one
        #: beacon per ring neighbour per Ω/2 (never below ω).
        self.heartbeat = Heartbeat(
            sim,
            self.config.heartbeat_period,
            self._beaconing_endpoints,
            self._send_beacons,
            self.record_null_send,
        )
        self._delivery_callbacks: List[DeliveryCallback] = []
        if delivery_callback is not None:
            self._delivery_callbacks.append(delivery_callback)
        #: Per-group set of request ids unicast to a sequencer and not yet
        #: sequenced (the Send / Mixed-mode Blocking Rule bookkeeping).
        self._outstanding_unicasts: Dict[str, Set[str]] = {}
        #: Group messages that arrived for a group whose formation we are
        #: still voting on (e.g. a faster member's start-group overtaking the
        #: last vote); replayed once the group is activated locally.
        self._pre_activation_buffer: Dict[str, List[DataMessage]] = {}
        #: This process's :class:`DeliveredMessage` records, or their count
        #: only when the recorder streams.
        self.delivered: DeliveryLog = self.recorder.delivery_log()
        self.crashed = False
        self._delivering = False
        self._flushing = False
        #: Whether a transport batch is being drained right now.  While
        #: true, the per-receipt settle in
        #: :meth:`GroupEndpoint.on_data_message` is suppressed; the batch
        #: settles once at its end instead (or not at all, see
        #: :meth:`settle`).
        self.in_receipt_batch = False
        #: The bound the last delivery pass ran under: nothing queued is
        #: numbered at or below it (infinite until a pass has run, so that
        #: no receipt is taken to be above it).
        self.last_pass_bound: float = INFINITY

    # ------------------------------------------------------------------
    # Group membership (public API)
    # ------------------------------------------------------------------
    def create_group(
        self,
        group_id: str,
        members: Sequence[str],
        mode: Optional[OrderingMode] = None,
    ) -> GroupEndpoint:
        """Install the initial view of a statically configured group.

        Every intended member must call this with the same membership; the
        initial view ``V^0`` is the full membership (§3).  For dynamically
        formed groups use :meth:`form_group` instead.
        """
        self._ensure_alive()
        if group_id in self._endpoints:
            raise AlreadyMemberError(self.process_id, group_id)
        if self.process_id not in members:
            raise NotAMemberError(self.process_id, group_id)
        endpoint = GroupEndpoint(
            self,
            group_id,
            tuple(sorted(set(members))),
            mode or OrderingMode.SYMMETRIC,
        )
        self._endpoints[group_id] = endpoint
        endpoint.start()
        return endpoint

    def form_group(
        self,
        group_id: str,
        members: Sequence[str],
        mode: Optional[OrderingMode] = None,
    ) -> FormationHandle:
        """Initiate dynamic formation of a new group (§5.3)."""
        self._ensure_alive()
        if group_id in self._endpoints:
            raise AlreadyMemberError(self.process_id, group_id)
        return self.formation.initiate(
            group_id, tuple(sorted(set(members))), mode or OrderingMode.SYMMETRIC
        )

    def activate_formed_group(
        self, group_id: str, members: Tuple[str, ...], mode: OrderingMode
    ) -> None:
        """Formation step 4: install the initial view of a formed group and
        multicast the ``start-group`` message.  Called by the formation
        coordinator; applications normally never call this directly."""
        if self.crashed or group_id in self._endpoints:
            return
        endpoint = GroupEndpoint(
            self, group_id, tuple(sorted(set(members))), mode, formation_wait=True
        )
        self._endpoints[group_id] = endpoint
        endpoint.start()
        endpoint.send_start_group()
        # Replay group traffic (typically other members' start-group
        # messages) that overtook our last formation vote.
        for message in self._pre_activation_buffer.pop(group_id, []):
            endpoint.on_data_message(message)

    def leave_group(self, group_id: str) -> None:
        """Voluntarily depart from ``group_id``.

        The departing process simply stops participating; the remaining
        members observe its silence, reach agreement and install a view
        without it (the paper folds departures into the same machinery as
        crashes).  Once departed, a process keeps no view for the group.
        """
        endpoint = self._endpoint(group_id)
        self.recorder.record(
            self.sim.now, trace_events.DEPART, self.process_id, group=group_id
        )
        endpoint.shutdown()
        self.settle()

    def crash(self) -> None:
        """Crash-stop this process: all memberships cease immediately."""
        if self.crashed:
            return
        self.crashed = True
        self.recorder.record(self.sim.now, trace_events.CRASH, self.process_id)
        for endpoint in self._endpoints.values():
            endpoint.shutdown()
        self.heartbeat.stop()
        self.transport_endpoint.crash()

    def release(self) -> None:
        """The session ended: drop the parts that call back into this
        process (transport endpoint, heartbeat, formation coordinator,
        group endpoints).  Its delivery counts stay readable."""
        for endpoint in self._endpoints.values():
            endpoint.release()
        self.transport_endpoint = self.heartbeat = self.formation = None
        self._endpoints = {}

    # ------------------------------------------------------------------
    # Introspection (public API)
    # ------------------------------------------------------------------
    @property
    def groups(self) -> List[str]:
        """Groups this process currently participates in."""
        return sorted(
            group_id
            for group_id, endpoint in self._endpoints.items()
            if not endpoint.departed
        )

    def view(self, group_id: str) -> MembershipView:
        """The currently installed view for ``group_id``."""
        return self._endpoint(group_id).view

    def endpoint(self, group_id: str) -> GroupEndpoint:
        """The group endpoint (advanced introspection; prefer :meth:`view`)."""
        return self._endpoint(group_id)

    def is_member(self, group_id: str) -> bool:
        """Whether the process currently participates in ``group_id``."""
        endpoint = self._endpoints.get(group_id)
        return endpoint is not None and not endpoint.departed and not self.crashed

    def add_delivery_callback(self, callback: DeliveryCallback) -> None:
        """Register an additional application delivery callback."""
        self._delivery_callbacks.append(callback)

    def delivered_payloads(self, group_id: Optional[str] = None) -> List[object]:
        """Payloads delivered so far, in delivery order (offline runs only:
        a streaming run keeps no delivery records)."""
        return [
            record.payload
            for record in self.delivered
            if group_id is None or record.group == group_id
        ]

    # ------------------------------------------------------------------
    # Sending (public API)
    # ------------------------------------------------------------------
    def multicast(self, group_id: str, payload: object) -> Optional[str]:
        """Multicast ``payload`` to the members of ``group_id``.

        Returns the end-to-end message id, or ``None`` when the send was
        deferred (blocking rules, formation wait, view-change blocking or
        flow control); deferred sends are transmitted automatically, in
        order, as soon as the obstacle clears.
        """
        self._ensure_alive()
        endpoint = self._endpoint(group_id)
        if endpoint.departed:
            raise DepartedGroupError(self.process_id, group_id)
        reason = self._send_block_reason(endpoint)
        if reason is not None or endpoint.deferred_sends:
            endpoint.defer_send(payload, reason or "queued_behind_deferred")
            message_id = None
        else:
            message_id = self._transmit(endpoint, payload)
        self.settle()
        return message_id

    def _transmit(self, endpoint: GroupEndpoint, payload: object) -> str:
        message_id = endpoint.send_application(payload)
        self.recorder.record(
            self.sim.now,
            trace_events.SEND,
            self.process_id,
            group=endpoint.group_id,
            message_id=message_id,
            sender=self.process_id,
            clock=self.clock.value,
        )
        return message_id

    def _send_block_reason(self, endpoint: GroupEndpoint) -> Optional[str]:
        """Why an application send in this group must wait, if at all.

        Implements the Send Blocking Rule / Mixed-mode Blocking Rule
        (§4.2/§4.3): dissemination waits while a message unicast to the
        sequencer of a *different* group is still unsequenced.  Also folds
        in the optional ISIS-style view-change blocking, the §5.3 step-5
        formation wait, and flow control.
        """
        for group_id, outstanding in self._outstanding_unicasts.items():
            if group_id != endpoint.group_id and outstanding:
                return f"blocking_rule:{group_id}"
        if endpoint.in_formation_wait:
            return "formation_wait"
        if self.config.block_sends_during_view_change and endpoint.pending_view_changes:
            return "view_change"
        if not endpoint.flow.can_send():
            return "flow_control"
        return None

    def flush_deferred_sends(self) -> int:
        """Transmit deferred application sends whose obstacle has cleared.

        Called internally whenever an obstacle may have cleared; returns the
        number of messages transmitted.  The method is not re-entrant:
        transmitting a deferred message loops back through the local receive
        path, which would otherwise re-invoke the flush mid-transmission and
        interleave the recorded send order.
        """
        if self.crashed or self._flushing:
            return 0
        self._flushing = True
        flushed = 0
        try:
            for endpoint in self._endpoints.values():
                while endpoint.deferred_sends and not endpoint.departed:
                    if self._send_block_reason(endpoint) is not None:
                        break
                    payload = endpoint.deferred_sends.pop(0)
                    self.recorder.record(
                        self.sim.now,
                        trace_events.UNBLOCKED_SEND,
                        self.process_id,
                        group=endpoint.group_id,
                    )
                    self._transmit(endpoint, payload)
                    flushed += 1
        finally:
            self._flushing = False
        return flushed

    # ------------------------------------------------------------------
    # Blocking-rule bookkeeping (called by the asymmetric engine)
    # ------------------------------------------------------------------
    def note_unicast_outstanding(self, group_id: str, request_id: str) -> None:
        """A message was unicast to ``group_id``'s sequencer and now awaits
        sequencing."""
        self._outstanding_unicasts.setdefault(group_id, set()).add(request_id)

    def note_unicast_sequenced(self, group_id: str, request_id: str) -> None:
        """A previously unicast message came back sequenced *and was
        delivered* (called from :meth:`_record_deliveries`).

        Deliberately does NOT flush deferred sends: this runs inside the
        delivery loop, and a flush here can re-enter it -- if the flushed
        send makes this process sequence a message in another group, the
        loopback delivery runs under a deliverable bound that already
        covers the not-yet-enqueued message, inverting the total order
        (safe2).  Callers of :meth:`attempt_delivery` flush afterwards.
        """
        outstanding = self._outstanding_unicasts.get(group_id)
        if outstanding is not None:
            outstanding.discard(request_id)

    def outstanding_unicasts(self, group_id: Optional[str] = None) -> int:
        """Number of unsequenced unicasts (introspection for tests)."""
        if group_id is not None:
            return len(self._outstanding_unicasts.get(group_id, ()))
        return sum(len(values) for values in self._outstanding_unicasts.values())

    # ------------------------------------------------------------------
    # Transport ingress
    # ------------------------------------------------------------------
    def _on_transport_batch(self, messages: List[TransportMessage]) -> None:
        """Drain every receipt that arrived at this instant (all of a
        process's traffic shares the ``"newtop"`` channel, so the transport
        hands the instant over as one run), then settle once for the whole
        batch -- unless every receipt in it was *inert*
        (:meth:`settle` states the rule), in which case there is nothing
        for a settle to find and the batch just ends.

        The delivery *sequence* is unchanged: safe2 pops messages from the
        sorted queue under a monotone bound, so delivering after the last
        receipt of an instant yields the same stream as delivering after
        each one, and a pass skipped after an inert batch would have
        delivered nothing (both pinned by the batching equivalence test,
        whose per-message arm registers a handler that passes each message
        of the run to :meth:`_on_transport_message` alone, so each group
        message settles on its own).
        """
        moved = False
        self.in_receipt_batch = True
        try:
            for tmsg in messages:
                if self.crashed:
                    return
                if self._on_transport_message(tmsg):
                    moved = True
        finally:
            self.in_receipt_batch = False
        # Inert receipts change nothing the groups hold, so asking after
        # them is asking before them: with work in hand that only a settle
        # finishes, the batch settles like any other.
        if moved or self._holds_unsettled_work():
            self.settle()

    def _holds_unsettled_work(self) -> bool:
        for endpoint in self._endpoints.values():
            if endpoint.holds_unsettled_work():
                return True
        return False

    def _on_transport_message(self, tmsg: TransportMessage) -> bool:
        """Dispatch one receipt; returns whether it may have moved
        something :meth:`settle` reads (False: it was inert)."""
        if self.crashed:
            return True
        if self._lifecycle is not None:
            # The envelope itself: it carries its send instant.
            self._lifecycle(
                trace_events.WIRE_RECEIVED, self.sim.now, self.process_id, tmsg
            )
        payload = tmsg.payload
        if isinstance(payload, DataMessage):
            endpoint = self._endpoints.get(payload.group)
            if endpoint is not None:
                return endpoint.on_data_message(payload)
            if self.formation.attempt(payload.group) is not None:
                self._pre_activation_buffer.setdefault(payload.group, []).append(payload)
                if payload.is_start_group:
                    # Proof the vote was unanimous even if some yes votes
                    # never reached us; activation replays the buffer.
                    self.formation.on_activation_evidence(payload.group)
        elif isinstance(payload, Beacon):
            for group_id in payload.groups:
                endpoint = self._endpoints.get(group_id)
                if endpoint is not None:
                    endpoint.on_beacon(payload)
            # Liveness evidence and nothing else: a suspector's deadline
            # only moves out, and nothing else was touched.
            return False
        elif isinstance(payload, SequencerRequest):
            endpoint = self._endpoints.get(payload.group)
            if endpoint is not None:
                endpoint.on_sequencer_request(payload)
        elif isinstance(payload, (SuspectMessage, RefuteMessage, ConfirmMessage)):
            endpoint = self._endpoints.get(payload.group)
            if endpoint is not None:
                endpoint.on_membership_message(tmsg.src, payload)
        elif isinstance(payload, FormGroupInvite):
            self.formation.on_invite(payload)
        elif isinstance(payload, FormGroupVote):
            self.formation.on_vote(payload)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected protocol payload: {payload!r}")
        return True

    # ------------------------------------------------------------------
    # The idle heartbeat (callbacks of :class:`Heartbeat`)
    # ------------------------------------------------------------------
    def _beaconing_endpoints(self) -> List[GroupEndpoint]:
        """The groups a beacon of ours can vouch for: the ones we are
        active in (a departure is silence in that group) whose members hear
        each other directly (``OrderingEngine.relayed``)."""
        return [
            endpoint
            for endpoint in self._endpoints.values()
            if not endpoint.departed and not endpoint.engine.relayed
        ]

    def _send_beacons(self, neighbours: Sequence[str], groups: Tuple[str, ...]) -> None:
        """Tell ``neighbours`` we are alive in ``groups``.  No number: the
        clock does not tick and nothing loops back, because nobody's
        ``D_x`` is waiting on us."""
        beacon = Beacon(origin=self.process_id, groups=groups)
        self.transport_endpoint.multicast(
            neighbours, beacon, "newtop", beacon.wire_size_bytes(),
            "null_time_silence",
        )

    def record_null_send(self, group_id: Optional[str] = None) -> None:
        """Every time-silence firing is one trace event: a group's null, or
        (``group=None``) a heartbeat wake that sent beacons -- a fact about
        the process, whatever number of groups the beacons named."""
        self.recorder.record(
            self.sim.now,
            trace_events.NULL_SEND,
            self.process_id,
            group=group_id,
            clock=self.clock.value,
        )

    def send_control(
        self, member: str, payload: object, cause: str = "formation"
    ) -> None:
        """Transmit a formation (control) message to ``member``."""
        size = payload.wire_size_bytes() if hasattr(payload, "wire_size_bytes") else 0
        self.transport_endpoint.send(
            member, payload, channel="newtop", size_bytes=size, cause=cause
        )

    # ------------------------------------------------------------------
    # Delivery machinery
    # ------------------------------------------------------------------
    def global_deliverable_bound(self) -> float:
        """``D_i``: the minimum of the per-group deliverable bounds (safe1')."""
        bound = INFINITY
        for endpoint in self._endpoints.values():
            group_bound = endpoint.deliverable_bound()
            if group_bound < bound:
                bound = group_bound
        return bound

    def awaits_delivery(self) -> bool:
        """Whether a received message or a confirmed view change is still
        waiting for ``D_i`` to reach it."""
        if self.delivery_queue.pending_count():
            return True
        for endpoint in self._endpoints.values():
            if endpoint.pending_view_changes:
                return True
        return False

    def settle(self) -> None:
        """The follow-up to every event that touched this process (a
        receipt or batch of receipts, an application send, a suspector
        notification, a departure): deliver what became deliverable, send
        what became unblocked, and let every group's timers see what the
        event left behind: the time-silence timer whether it now owes a
        null within ω, the suspector whether it now has something to poll
        for.  This is the one place the timers are told; what *counts* as
        owed is :meth:`GroupEndpoint.owes_group` alone.

        **What a settle reads.**  Five things, and nothing else: (1) each
        group's ``D_x`` and view-change thresholds; (2) the delivery queue;
        (3) the deferred sends and what blocks them (blocking rules,
        formation wait, view-change blocking, the flow-control window);
        (4) ``owes_group()`` of every dormant or heartbeat-dated
        time-silence timer; (5) the restless predicate --
        ``awaits_delivery() or gv.busy()`` -- of every dozing suspector
        (whose tick may be the process heartbeat's next wake rather than a
        timer of its own).  A settle that follows an event which
        moved none of them finds nothing: it delivers nothing, records
        nothing and re-dates no timer.

        **Which receipts are inert.**  §4.1's safe1 is the whole reason a
        receipt matters to delivery: ``D_x,i = min(RV_x,i)`` and a newly
        received message is numbered above it, so nothing becomes
        deliverable unless the receipt raised the last entry standing at
        the minimum.  A transport batch (:meth:`_on_transport_batch`) is
        therefore followed by a settle unless every message in it provably
        moved none of the five in the direction a settle acts on:

        * a :class:`~repro.core.messages.Beacon` -- no number, so no clock,
          vector, retention or queue work; the deadlines of the suspectors
          it names only move out; or
        * a group message in a *symmetric* group that is not sequenced, not
          flagged ``awaits_reply`` (the flag makes the receiver owe), not a
          start-group or view-cut message, received outside a formation
          wait while the endpoint's GV process is not ``busy()`` (so it
          refutes no gossip and is held for no suspicion), and that is

          - a null, or
          - an application message joining a **non-empty** delivery queue
            (the process already ``awaits_delivery()``, so every group
            already owes and every suspector is already restless: the new
            unstable message raises neither) numbered above the bound the
            last delivery pass ran under (so it is not deliverable itself),

          and did not raise ``min(RV)`` (the vector knows: that is
          exactly when it flags a rescan, ``minimum_in_doubt()``);

        and only while no group of the process holds a deferred send, a
        pending view change, a cut point or a parked detection
        (:meth:`GroupEndpoint.holds_unsettled_work`) -- the work only a
        later settle finishes.  Membership, formation and sequencer-request
        messages, every early exit of the receive path (excluded or
        suspected sender, pre-activation buffer), asymmetric and
        atomic-only groups, and every settle outside a batch (sends,
        suspector notifications, step viii, departures) settle as they
        always did.  This is a little stricter than it has to be -- a null
        that raises ``D_x`` over an empty queue releases nothing either --
        and buys a plain invariant: every change of any ``D_x`` is followed
        by a settle, so ``last_pass_bound`` is never stale while anything is
        queued.

        **Why falling edges need no settle.**  An inert receipt can still
        *lower* what (4) and (5) read -- its ``ldn`` makes retained traffic
        stable, so ``owes_group()`` may turn false.  Nothing has to be told:
        ``TimeSilence.demand()`` only ever pulls a timer *in*, and a timer
        that fires re-evaluates its predicate itself; a poke can also send
        a pulled-in tick back to its deadline, but restlessness falls only
        through a delivery, a view installation or a membership message,
        all of which settle.

        The ungated reference is a test fixture: it registers, in place of
        :meth:`_on_transport_batch`, a handler that passes each message of
        the run to :meth:`_on_transport_message` alone, so each group or
        membership message settles on its own, inert or not
        (``on_data_message`` and ``on_membership_message`` settle outside a
        batch), and ``tests/test_hot_path_equivalence.py`` compares whole
        runs against it; ``tests/test_settle_demand.py`` runs a settle
        after every batch the rule let go and asserts that it found
        nothing.
        """
        self.attempt_delivery()
        self.flush_deferred_sends()
        awaiting: Optional[bool] = None
        for endpoint in self._endpoints.values():
            if endpoint.time_silence.idle_armed:
                endpoint.time_silence.demand()
            if endpoint.suspector.dozing:
                # The restless predicate (GroupEndpoint._needs_everybody),
                # with its process-wide half asked once for all groups.
                if awaiting is None:
                    awaiting = self.awaits_delivery()
                endpoint.suspector.poke(awaiting or endpoint.gv.busy())

    def attempt_delivery(self) -> int:
        """Deliver everything that is deliverable, interleaving pending view
        installations at their thresholds.  Returns deliveries made."""
        if self.crashed or self._delivering:
            return 0
        self._delivering = True
        delivered = 0
        try:
            progress = True
            while progress:
                progress = False
                effective = self.global_deliverable_bound()
                for endpoint in self._endpoints.values():
                    threshold = endpoint.next_view_change_threshold()
                    if threshold < effective:
                        effective = threshold
                self.last_pass_bound = effective
                if effective > 0:
                    run = self.delivery_queue.pop_deliverable(effective)
                    if run:
                        self._handle_deliveries(run)
                        delivered += len(run)
                        progress = True
                for endpoint in self._endpoints.values():
                    if endpoint.maybe_install_views():
                        progress = True
        finally:
            self._delivering = False
        return delivered

    def deliver_immediately(self, endpoint: GroupEndpoint, message: DataMessage) -> None:
        """Atomic-only groups: hand the message to the application without
        total-order gating (Fig. 3's atomic-delivery path)."""
        self._handle_deliveries((message,))

    def _handle_deliveries(self, messages: Sequence[DataMessage]) -> None:
        """Deliver a run of messages at this instant.  A process with
        delivery callbacks cuts the run at each delivery: each callback runs
        after its own ``deliver`` is recorded, before the next one is."""
        if not self._delivery_callbacks:
            self._record_deliveries(messages)
            return
        for message in messages:
            self._record_deliveries((message,))
            for callback in self._delivery_callbacks:
                callback(message.group, message.sender, message.payload, message.msg_id)

    def _record_deliveries(self, messages: Sequence[DataMessage]) -> None:
        """Log a run of deliveries and record it as one
        :meth:`~repro.net.trace.TraceRecorder.record_deliveries` call.  The
        view indexes cannot change inside a run: a pass delivers nothing
        past a group's next view-change threshold."""
        now, process_id, endpoints = self.sim.now, self.process_id, self._endpoints
        run = []
        for message in messages:
            if message.origin_request is not None and message.sender == process_id:
                # Our unicast came back sequenced and is now *delivered*:
                # only here may the Send Blocking Rule release.  Releasing
                # on mere receipt is unsound -- a received-but-undelivered
                # sequenced copy can still be discarded by a failure
                # agreement and re-sequenced with a later clock, after
                # causally-later sends in other groups already went out and
                # delivered.
                self.note_unicast_sequenced(message.group, message.origin_request)
            endpoint = endpoints.get(message.group)
            view_index = endpoint.view.index if endpoint is not None else -1
            run.append((message.group, message.msg_id, message.sender, message.clock, view_index))
        self.delivered.add(len(run), lambda: [
            DeliveredMessage(m.group, m.sender, m.payload, m.msg_id, m.clock, entry[4], now)
            for m, entry in zip(messages, run)
        ])
        self.recorder.record_deliveries(now, process_id, run)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _endpoint(self, group_id: str) -> GroupEndpoint:
        endpoint = self._endpoints.get(group_id)
        if endpoint is None:
            raise NotAMemberError(self.process_id, group_id)
        return endpoint

    def _ensure_alive(self) -> None:
        if self.crashed:
            raise ProcessCrashedError(self.process_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"NewtopProcess({self.process_id!r}, groups={self.groups}, {state})"
