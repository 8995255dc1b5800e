"""Protocol message types and wire-size accounting.

One of Newtop's headline claims (§2, §6) is *low and bounded message space
overhead*: the protocol-related information carried by a multicast is a
handful of scalar fields -- sender, group, message number ``m.c`` and the
stability hint ``m.ldn`` -- independent of group size and of how many
groups overlap.  This module defines every message exchanged by the
implementation and, for each, an explicit estimate of its wire size so the
benchmark harness can compare Newtop's overhead against the ISIS
vector-clock and Psync context-graph baselines byte-for-byte.

Message families
----------------
* :class:`DataMessage` -- application multicasts, null (time-silence)
  messages and the special ``start-group`` message of §5.3.
* :class:`Beacon` -- the numberless idle heartbeat of a process pair, sent
  to the sender's ring successors only and naming the symmetric groups it
  vouches for.
* :class:`SequencerRequest` -- the unicast a non-sequencer member sends to
  the group's sequencer in the asymmetric protocol (§4.2).
* :class:`SuspectMessage`, :class:`RefuteMessage`, :class:`ConfirmMessage`
  -- the membership-agreement traffic of §5.2 (steps (i)-(vii)).
* :class:`FormGroupInvite`, :class:`FormGroupVote` -- the two-phase group
  formation protocol of §5.3 (steps 1-3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

# --------------------------------------------------------------------------
# Wire-size model
# --------------------------------------------------------------------------
#: Bytes assumed per scalar field (identifiers, counters) on the wire.
SCALAR_BYTES = 8
#: Bytes assumed for a globally unique message identifier.
MESSAGE_ID_BYTES = 16
#: Bytes assumed for a one-byte tag (message kind, boolean flags).
TAG_BYTES = 1


def estimate_payload_bytes(payload: object) -> int:
    """Rough, deterministic estimate of an application payload's size.

    The simulation never serialises payloads; this estimate exists purely
    so overhead ratios (protocol bytes / total bytes) are meaningful.
    """
    if payload is None:
        return 0
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float)):
        return SCALAR_BYTES
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_payload_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            estimate_payload_bytes(key) + estimate_payload_bytes(value)
            for key, value in payload.items()
        )
    return len(repr(payload).encode("utf-8"))


# --------------------------------------------------------------------------
# Data-plane messages
# --------------------------------------------------------------------------
#: Message kinds carried by :class:`DataMessage`.
KIND_DATA = "data"
KIND_NULL = "null"
KIND_START_GROUP = "start_group"
#: Sequenced end-of-view marker emitted by an asymmetric group's sequencer
#: when it executes a failure detection: the marker's ``m.c`` is the exact
#: stream position at which the surviving members cut over to the new view.
KIND_VIEW_CUT = "view_cut"
#: The root cause a send of each kind is counted under
#: (``transport.sends_by_cause.*`` and the journeys' ``cause``).
CAUSE_BY_KIND = {
    KIND_DATA: "app_multicast",
    KIND_NULL: "null_time_silence",
    KIND_START_GROUP: "formation",
    KIND_VIEW_CUT: "view_cut",
}

_message_counter = itertools.count(1)


def _next_message_id(sender: str) -> str:
    """Globally unique message identifier (unique within one interpreter)."""
    return f"{sender}#{next(_message_counter)}"


def next_message_number() -> int:
    """The next number of the one process-wide message-id counter (the
    baseline stacks number their ids ``sender~n`` from it)."""
    return next(_message_counter)


def reset_message_counter() -> None:
    """Restart message-id numbering from 1.

    Message ids participate in the fixed safe2 tie-break, so two runs of
    the same experiment are byte-identical only if they start from the
    same counter state.  The experiment layers (one session per sweep
    cell / scenario) call this at cell start so a cell's results do not
    depend on how many cells ran before it in the same interpreter --
    which is exactly what makes serial and multi-process sweep execution
    produce identical reports.  Never call it while a session is live:
    a session's ids must stay unique within its own simulation.
    """
    global _message_counter
    _message_counter = itertools.count(1)


@dataclass(frozen=True)
class DataMessage:
    """A message multicast within one group.

    Field names follow the paper: ``clock`` is ``m.c`` (the Lamport number
    assigned under CA1), ``ldn`` is ``m.ldn`` (the sender's largest
    deliverable number, i.e. its current ``D_x`` for the message's group,
    piggybacked for stability tracking, §5.1).
    """

    msg_id: str
    sender: str
    group: str
    clock: int
    ldn: int
    payload: object = None
    kind: str = KIND_DATA
    #: For ``start-group`` messages only: the proposed start-number (§5.3).
    start_number: Optional[int] = None
    #: For asymmetric groups: the sequencer that assigned ``clock`` and
    #: multicast the message (§4.2).  ``None`` in symmetric groups.
    sequenced_by: Optional[str] = None
    #: For asymmetric groups: the request id of the origin's unicast, echoed
    #: back so the origin can clear its Send-Blocking-Rule bookkeeping.
    origin_request: Optional[str] = None
    #: For null messages only: the sender's process holds a message (or a
    #: view installation) that ``D_i`` -- the minimum over all its groups,
    #: this one included -- has not reached, so it needs every member to
    #: send something numbered past this null: an idle member answers
    #: within ω instead of at its next heartbeat
    #: (:mod:`repro.core.time_silence`).  One bit of the kind tag.
    awaits_reply: bool = False

    @property
    def is_null(self) -> bool:
        """True for time-silence null messages (never delivered to the app)."""
        return self.kind == KIND_NULL

    @property
    def is_start_group(self) -> bool:
        """True for the special first message of a newly formed group."""
        return self.kind == KIND_START_GROUP

    @property
    def is_application(self) -> bool:
        """True for messages that carry application payloads."""
        return self.kind == KIND_DATA

    def protocol_overhead_bytes(self) -> int:
        """Bytes of protocol-related information in this message.

        sender + group + clock + ldn identifiers/counters, the message id,
        a kind tag, and (for start-group messages) the start-number.
        """
        overhead = 4 * SCALAR_BYTES + MESSAGE_ID_BYTES + TAG_BYTES
        if self.start_number is not None:
            overhead += SCALAR_BYTES
        if self.sequenced_by is not None:
            overhead += SCALAR_BYTES
        if self.origin_request is not None:
            overhead += MESSAGE_ID_BYTES
        return overhead

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire (overhead + payload)."""
        return self.protocol_overhead_bytes() + estimate_payload_bytes(self.payload)

    @staticmethod
    def application(sender: str, group: str, clock: int, ldn: int, payload: object) -> "DataMessage":
        """Build an application multicast."""
        return DataMessage(
            msg_id=_next_message_id(sender),
            sender=sender,
            group=group,
            clock=clock,
            ldn=ldn,
            payload=payload,
            kind=KIND_DATA,
        )

    @staticmethod
    def null(
        sender: str, group: str, clock: int, ldn: int, awaits_reply: bool = False
    ) -> "DataMessage":
        """Build a time-silence null message (§4.1)."""
        return DataMessage(
            msg_id=_next_message_id(sender),
            sender=sender,
            group=group,
            clock=clock,
            ldn=ldn,
            payload=None,
            kind=KIND_NULL,
            awaits_reply=awaits_reply,
        )

    @staticmethod
    def sequenced(
        origin: str,
        group: str,
        clock: int,
        ldn: int,
        payload: object,
        kind: str,
        sequencer: str,
        origin_request: Optional[str],
    ) -> "DataMessage":
        """Build the multicast a sequencer emits for a member's unicast (§4.2).

        When the message originates from a member's unicast, the request id
        is reused as the message id so that the identifier is stable from
        the origin's send to every member's delivery (traces and blocking
        bookkeeping rely on this).
        """
        return DataMessage(
            msg_id=origin_request if origin_request is not None else _next_message_id(sequencer),
            sender=origin,
            group=group,
            clock=clock,
            ldn=ldn,
            payload=payload,
            kind=kind,
            sequenced_by=sequencer,
            origin_request=origin_request,
        )

    @staticmethod
    def start_group(sender: str, group: str, clock: int, ldn: int) -> "DataMessage":
        """Build the special ``start-group`` message (§5.3 step 4).

        Its start-number is, per the paper, the ``m.c`` of the message
        itself.
        """
        return DataMessage(
            msg_id=_next_message_id(sender),
            sender=sender,
            group=group,
            clock=clock,
            ldn=ldn,
            payload=None,
            kind=KIND_START_GROUP,
            start_number=clock,
        )


@dataclass(frozen=True)
class Beacon:
    """The idle heartbeat of a process pair: "I am alive in these groups",
    nothing more.

    A null message does two jobs (§4.1 advances ``D_x``, §5.2 feeds the
    suspector); a member that owes its group nothing only has the second
    left, and the suspector needs no number for it.  So a beacon carries
    no ``m.c`` and no ``m.ldn``: sending one does not tick the Lamport
    clock, receiving one touches no vector, and every member's record of
    the sender's last *numbered* message -- the ``ln`` of a suspicion
    ``{Pk, ln}`` -- stays the same whether or not it is on the sender's
    ring (:mod:`repro.core.suspector`).

    ``groups`` names what the beacon vouches for: every symmetric group in
    which the origin is active and whose view holds both ends.  The
    receiver credits exactly those groups' suspectors -- a departure is
    silence in one group, so liveness evidence has to say which groups it
    is evidence for (:mod:`repro.core.time_silence`).
    """

    origin: str
    groups: Tuple[str, ...]

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire: the origin, the tag and one
        identifier per group named."""
        return (1 + len(self.groups)) * SCALAR_BYTES + TAG_BYTES


@dataclass(frozen=True)
class SequencerRequest:
    """Unicast from a member to the group's sequencer (asymmetric, §4.2).

    ``origin_clock`` is the number the origin assigned under CA1 when it
    handed the message to the transport; the sequencer will assign a fresh
    (larger) number when it multicasts the message to the group.
    """

    request_id: str
    origin: str
    group: str
    origin_clock: int
    payload: object = None
    kind: str = KIND_DATA
    #: The origin's current deliverable bound for the group, aggregated by
    #: the sequencer into the ``ldn`` of sequenced multicasts so stability
    #: (§5.1) also works in asymmetric groups.
    origin_ldn: int = 0

    @property
    def is_null(self) -> bool:
        """Whether this request carries a null (time-silence) message."""
        return self.kind == KIND_NULL

    def protocol_overhead_bytes(self) -> int:
        """Bytes of protocol-related information in the unicast."""
        return 4 * SCALAR_BYTES + MESSAGE_ID_BYTES + TAG_BYTES

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire."""
        return self.protocol_overhead_bytes() + estimate_payload_bytes(self.payload)

    @staticmethod
    def make(
        origin: str,
        group: str,
        origin_clock: int,
        payload: object,
        kind: str = KIND_DATA,
        origin_ldn: int = 0,
    ) -> "SequencerRequest":
        """Build a sequencer request with a fresh request id."""
        return SequencerRequest(
            request_id=_next_message_id(origin),
            origin=origin,
            group=group,
            origin_clock=origin_clock,
            payload=payload,
            kind=kind,
            origin_ldn=origin_ldn,
        )


# --------------------------------------------------------------------------
# Membership (GV) messages, §5.2
# --------------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Suspicion:
    """A suspicion ``{Pk, ln}``: ``target`` is suspected to have crashed and
    ``last_number`` is the number of the last message the suspecting process
    received from it."""

    target: str
    last_number: int

    def wire_size_bytes(self) -> int:
        """Bytes needed to encode the suspicion."""
        return 2 * SCALAR_BYTES


def _null_bytes(null: Optional[DataMessage]) -> int:
    return 0 if null is None else null.wire_size_bytes()


@dataclass(frozen=True)
class SuspectMessage:
    """``(i, suspect, {Pk, ln})`` -- step (i) of the membership algorithm.

    ``null``: in a symmetric group, the sender's own null (§4.1), numbered
    as it multicast this message and sharing its frame: it is the number
    the agreement needs from the sender, which would otherwise follow as a
    multicast of its own.  Receivers take it through the ordinary null path
    right after the membership message (:mod:`repro.core.membership`).
    """

    origin: str
    group: str
    suspicion: Suspicion
    null: Optional[DataMessage] = None

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire, including a carried null."""
        size = 2 * SCALAR_BYTES + TAG_BYTES + self.suspicion.wire_size_bytes()
        return size + _null_bytes(self.null)


@dataclass(frozen=True)
class RefuteMessage:
    """``(i, refute, {Pk, ln})`` -- steps (iii)/(iv).

    ``recovered`` piggybacks the suspected process's messages numbered above
    ``ln`` so the suspecting processes can retrieve what they missed ("all
    received m of Pk, m.c > ln, can be piggybacked on the refute message").
    """

    origin: str
    group: str
    suspicion: Suspicion
    recovered: Tuple[DataMessage, ...] = ()

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire, including piggybacked messages."""
        size = 2 * SCALAR_BYTES + TAG_BYTES + self.suspicion.wire_size_bytes()
        return size + sum(message.wire_size_bytes() for message in self.recovered)


@dataclass(frozen=True)
class ConfirmMessage:
    """``(i, confirmed, detection)`` -- steps (v)/(vi).  ``null`` as for
    :class:`SuspectMessage`."""

    origin: str
    group: str
    detection: frozenset  # frozenset[Suspicion]
    null: Optional[DataMessage] = None

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire, including a carried null."""
        return (
            2 * SCALAR_BYTES
            + TAG_BYTES
            + sum(suspicion.wire_size_bytes() for suspicion in self.detection)
            + _null_bytes(self.null)
        )


# --------------------------------------------------------------------------
# Group-formation messages, §5.3
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class FormGroupInvite:
    """Step 1: the initiator's ``form group gn`` invitation.

    Carries the identities of all intended members so that every invitee can
    diffuse its vote to the full intended membership (step 2).
    """

    initiator: str
    group: str
    members: Tuple[str, ...]
    mode: str = "symmetric"

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire."""
        return (2 + len(self.members)) * SCALAR_BYTES + TAG_BYTES


@dataclass(frozen=True)
class FormGroupVote:
    """Steps 2-3: a member's diffused yes/no decision on the new group."""

    voter: str
    group: str
    accept: bool
    members: Tuple[str, ...]

    def wire_size_bytes(self) -> int:
        """Total estimated bytes on the wire."""
        return (2 + len(self.members)) * SCALAR_BYTES + 2 * TAG_BYTES
