"""Common interface of the per-group ordering engines.

Newtop runs one ordering engine per (process, group) pair.  Both engines --
:class:`~repro.core.symmetric.SymmetricOrdering` (§4.1) and
:class:`~repro.core.asymmetric.AsymmetricOrdering` (§4.2) -- share the same
message-numbering scheme (the process-wide Lamport clock), which is exactly
what lets a process mix modes across its groups (§4.3).  The engine's job
is narrow:

* turn an application payload (or a null / start-group message) into the
  protocol messages that must be transmitted, and
* maintain the per-group deliverable bound ``D_x,i`` that the process-level
  delivery queue combines across groups (safe1').

Everything else -- delivery ordering, stability, membership, blocking rules
-- lives outside the engines, so the two engines stay small and the
mixed-mode guarantees follow from construction rather than case analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

from repro.core.messages import DataMessage, SequencerRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.endpoint import GroupEndpoint


class OrderingEngine(ABC):
    """Mode-specific send/receive handling for one group."""

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
