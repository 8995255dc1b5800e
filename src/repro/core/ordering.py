"""Common interface of the per-group ordering engines.

Newtop runs one ordering engine per (process, group) pair.  Both engines --
:class:`~repro.core.symmetric.SymmetricOrdering` (§4.1) and
:class:`~repro.core.asymmetric.AsymmetricOrdering` (§4.2) -- share the same
message-numbering scheme (the process-wide Lamport clock), which is exactly
what lets a process mix modes across its groups (§4.3).  The engine's job
is narrow:

* turn an application payload (or a null / start-group message) into the
  protocol messages that must be transmitted,
* maintain the per-group deliverable bound ``D_x,i`` that the process-level
  delivery queue combines across groups (safe1'), and
* answer the endpoint's §5 questions that depend on how members hear each
  other (what a member owes, where a detection cuts the stream, whether a
  suspicion counts yet): the defaults are §5's symmetric answers.

Delivery ordering, stability, membership agreement and the blocking rules
live outside the engines, so the mixed-mode guarantees follow from
construction rather than case analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.messages import DataMessage, SequencerRequest, Suspicion
from repro.core.vectors import INFINITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.endpoint import GroupEndpoint


class OrderingEngine(ABC):
    """Mode-specific send/receive handling for one group."""

    #: Whether a member is heard only through another's relay.  One heard
    #: directly is ring-watched while idle, goes dormant under the process
    #: heartbeat, is named by its beacons, and rides its null on its
    #: suspect and confirm messages.
    relayed = False

    def __init__(self, endpoint: "GroupEndpoint") -> None:
        self.endpoint = endpoint
        #: Floor applied to the deliverable bound; raised by group formation
        #: (§5.3 step 5: D is set to start-number-max) and never lowered.
        self.d_floor: float = 0.0

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    @abstractmethod
    def send(self, payload: object, kind: str) -> str:
        """Disseminate a message with the given payload and kind.

        Returns the identifier under which the message will eventually be
        delivered: the multicast's message id when the engine multicasts
        directly (symmetric engine, or asymmetric engine at the sequencer),
        or the unicast request id when the message is handed to a sequencer
        (the sequencer reuses the request id as the multicast's message id,
        so the identifier is stable end to end).
        """

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    @abstractmethod
    def on_data(self, message: DataMessage) -> bool:
        """Fold a received (or self-delivered) group message into the
        engine's deliverability state.  Returns whether ``D_x,i`` may have
        moved; False is a promise that it did not (see
        :meth:`repro.core.process.NewtopProcess.settle`)."""

    def on_sequencer_request(self, request: SequencerRequest) -> None:
        """Handle a unicast addressed to this process as sequencer.

        Only meaningful for the asymmetric engine; the symmetric engine
        never receives such messages.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not sequence messages"
        )

    # ------------------------------------------------------------------
    # Deliverability
    # ------------------------------------------------------------------
    @abstractmethod
    def deliverable_bound(self) -> float:
        """The group's ``D_x,i``: largest number safe to deliver (safe1)."""

    def ldn(self) -> int:
        """The integer ``m.ldn`` value to piggyback on outgoing messages.

        Stability only ever needs a lower bound, so an infinite bound (all
        remaining members excluded from the vector) is clamped to the
        process clock.
        """
        bound = self.deliverable_bound()
        if bound == float("inf"):
            return self.endpoint.process.clock.value
        return int(bound)

    def raise_floor(self, floor: float) -> None:
        """Raise the deliverable-bound floor (group formation, §5.3)."""
        if floor > self.d_floor:
            self.d_floor = floor

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    @abstractmethod
    def on_members_removed(self, removed: frozenset, threshold: int) -> None:
        """Membership step (viii): stop letting ``removed`` constrain ``D``."""

    def on_view_installed(self) -> None:
        """Hook called after a new view has been installed (default: no-op)."""

    def on_own_messages_discarded(self, messages) -> None:
        """Hook: step (viii) discarded pending messages this process
        originated.  Engines that route messages through another process
        (the asymmetric sequencer) can arrange recovery; the symmetric
        engine's own multicasts reach members directly, so the default is
        a no-op."""

    # ------------------------------------------------------------------
    # §5 questions: the defaults are the symmetric answers
    # ------------------------------------------------------------------
    def owes_stability(self, last_sent_ldn: int) -> bool:
        """Terms of :meth:`GroupEndpoint.owes_group`.  Unstable non-null
        traffic retained (§5.1) is owed until we have multicast an ``ldn``
        at least its number: the channels are FIFO, so that multicast is on
        its way to every peer.  After that the group re-sends one numbered
        null per heartbeat period while it stays unstable, in case that
        acknowledgment was lost."""
        buffer = self.endpoint.stability.buffer
        return bool(buffer.non_null_count() and buffer.max_non_null_clock > last_sent_ldn)

    def owes_agreement(self, last_sent_clock: int) -> bool:
        """An agreement in progress (§5.2) is owed until our last numbered
        send passes the largest ``ln`` the GV process holds -- every
        threshold it can produce is then below what peers hold of us -- or
        while it holds a message parked for a suspected sender.  Our suspect
        message normally meets it: it carries our null, numbered past every
        message we hold (:meth:`GroupEndpoint.mcast_membership`)."""
        return self.endpoint.gv.awaits_number(last_sent_clock)

    def relay_dead(self) -> bool:
        """Whether our nulls must bypass a relay that looks dead."""
        return False

    def discard_bounds(self, detection: frozenset) -> Dict[str, int]:
        """Per removed member, a step (viii) discard bound other than ``lnmn``."""
        return {}

    def view_change_threshold(self, detection, removed: frozenset, lnmn: int) -> Optional[int]:
        """Where the view excluding ``removed`` cuts the stream (``None``:
        not known yet).  ``D`` stalls at the failed members' last numbers,
        so ``lnmn`` is a cut every member reaches identically."""
        return lnmn

    def on_view_cut(self, message: DataMessage) -> None:
        """An end-of-view marker arrived."""

    def cut_bound(self) -> float:
        """Cap on delivery from a cut held ahead of its view change."""
        return INFINITY

    def holds_unsettled_work(self) -> bool:
        """Whether cut state waits on a later settle."""
        return False

    def forget_stale_cuts(self) -> None:
        """After an install: drop cut state the new view made stale."""

    def defers_suspicion(self, suspicion: Suspicion) -> bool:
        """Whether ``suspicion`` waits instead of reaching the GV process."""
        return False

    def refresh_suspicions(self) -> None:
        """After an install has been recorded: reset suspicion state."""
