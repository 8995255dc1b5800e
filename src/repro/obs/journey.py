"""Sampled per-message journey tracing (the ``repro.obs.journey`` tentpole).

A *journey* is one message's lifecycle, recorded as timestamped state
transitions::

    created -> [sent_to_sequencer -> sequenced] -> [unblocked]
            -> received (per destination) -> [held[reason] -> released]
            -> delivered | discarded[reason] | wire_dropped[reason]

The tracker is a :class:`~repro.net.trace.TraceSink` and nothing else:
the protocol and the substrate report to the trace recorder, and what a
journey is made of is derived here from the ``send``, ``deliver``,
``blocked_send`` and ``unblocked_send`` events and the six lifecycle
kinds (:data:`repro.net.trace.LIFECYCLE_KINDS`), which arrive with the
message, request or transport envelope itself.

Sampling is deterministic and seeded: a message is tracked iff
``(crc32(msg_id) ^ mix(seed)) % sample_rate == 0``, so the *same* message
ids are sampled across runs with the same seed and no simulation RNG is
ever drawn -- tracing stays behaviour-free (the trace stream is pinned
byte-identical in ``tests/test_hot_path_equivalence.py``, every journey of
eight seeded runs in ``tests/golden/journey_digests.json``).  ``force_ids``
pins specific messages regardless of sampling; the fuzz shrinker uses it
to embed the journeys of messages implicated in a violation into its
repro artifacts.

Every tracked transition also feeds an exact
:class:`~repro.stats.LatencyReservoir` keyed by ``(cause, wait_state)``,
so delivery latency decomposes into blocked-send / sequencer-queue /
transit / suspicion-hold / causal-hold components per root cause.  The
cause vocabulary itself (``app_multicast``, ``null_time_silence``,
``suspicion_gossip``, ``confirm_refute``, ``formation``,
``failover_resend``, ``view_cut``, ``other``) is assigned at the send
sites and counted by the transport into ``transport.sends_by_cause.*``
counters that exactly partition ``transport.sends``.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.net.trace import (
    BLOCKED_SEND, DELIVER, DISCARDED, HELD, LIFECYCLE_KINDS, RELEASED, SEND,
    TRANSMITTED, UNBLOCKED_SEND, WIRE_DROPPED, WIRE_RECEIVED, TraceEvent, TraceSink,
)
from repro.stats import LatencyReservoir

__all__ = ["JourneyTracker", "WAIT_STATES", "payload_msg_id"]

#: Wait-state reservoir keys, in rendering order.
WAIT_STATES = (
    "blocked_send",     # deferred behind the send-blocking rule / formation
    "sequencer_queue",  # request sent -> sequenced copy multicast
    "transit",          # network transit, one sample per wire receipt
    "suspicion_hold",   # parked pending suspicion resolution (rule (ii))
    "causal_hold",      # receipt -> delivery (causal/total-order wait)
    "latency",          # end to end: created -> delivered
)

#: Transitions kept per journey before truncation (bounds memory at scale).
MAX_TRANSITIONS = 64


def payload_msg_id(payload: object) -> Optional[str]:
    """The stable journey identity of a protocol payload, if it has one.

    ``DataMessage`` carries ``msg_id``; ``SequencerRequest`` carries
    ``request_id`` (reused as the sequenced message's ``msg_id``, so one
    journey spans request and sequenced copy).  A suspect or confirm message
    that carries its sender's null is that null's envelope on the wire.
    Anything else -- membership and formation control traffic -- has no
    stable identity and is covered by cause attribution only.
    """
    msg_id = getattr(payload, "msg_id", None)
    if msg_id is not None:
        return msg_id
    null = getattr(payload, "null", None)
    if null is not None:
        return null.msg_id
    return getattr(payload, "request_id", None)


class _Journey:
    """One tracked message's recorded lifecycle."""

    __slots__ = (
        "msg_id", "cause", "sender", "group", "created_at", "transitions",
        "truncated", "receive_at", "hold_since", "sequencer_wait_from",
        "deliveries", "max_latency", "forced",
    )

    def __init__(self, msg_id, cause, sender, group, created_at, forced):
        self.msg_id = msg_id
        self.cause = cause
        self.sender = sender
        self.group = group
        self.created_at = created_at
        self.transitions: List[Tuple[str, float, Optional[str], Optional[str]]] = []
        self.truncated = 0
        self.receive_at: Dict[str, float] = {}
        self.hold_since: Dict[str, float] = {}
        self.sequencer_wait_from: Optional[float] = None
        self.deliveries = 0
        self.max_latency: Optional[float] = None
        self.forced = forced

    def record(self, state, time, process, detail=None):
        if len(self.transitions) >= MAX_TRANSITIONS:
            self.truncated += 1
            return
        self.transitions.append((state, time, process, detail))

    def as_dict(self) -> Dict[str, object]:
        return {
            "msg_id": self.msg_id,
            "cause": self.cause,
            "sender": self.sender,
            "group": self.group,
            "created_at": self.created_at,
            "deliveries": self.deliveries,
            "latency": self.max_latency,
            "truncated_transitions": self.truncated,
            "transitions": [list(transition) for transition in self.transitions],
        }


class JourneyTracker(TraceSink):
    """Deterministically-sampled per-message lifecycle tracker: a sink of
    the run's :class:`~repro.net.trace.TraceRecorder`.  An untracked
    message costs one dict lookup per step; no simulation RNG is touched.
    """

    KINDS = frozenset({SEND, DELIVER, BLOCKED_SEND, UNBLOCKED_SEND}) | LIFECYCLE_KINDS

    def __init__(
        self,
        registry,
        sample_rate: int = 64,
        seed: int = 0,
        max_tracked: int = 512,
        force_ids: Optional[Iterable[str]] = None,
    ) -> None:
        self.registry = registry
        self.sample_rate = max(1, int(sample_rate))
        self.seed = seed
        self.max_tracked = max_tracked
        self.force_ids = frozenset(force_ids or ())
        self._seed_mix = zlib.crc32(repr(seed).encode("utf-8"))
        self._journeys: Dict[str, _Journey] = {}
        self._reservoirs: Dict[Tuple[str, str], LatencyReservoir] = {}
        #: (process, group) -> when each still-deferred send was blocked,
        #: oldest first; and how long the one just unblocked had waited.
        self._blocked_at: Dict[Tuple[str, str], Deque[float]] = {}
        self._blocked_for: Dict[Tuple[str, str], float] = {}
        #: Messages the sampling passed over, and sampled ones turned
        #: away because ``max_tracked`` were followed already.
        self.skipped = self.overflow = 0
        registry.counter_source("journeys.", self._counts)

    def _counts(self) -> Dict[str, int]:
        return {
            "tracked": len(self._journeys),
            "skipped": self.skipped,
            "overflow": self.overflow,
        }

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def wants(self, msg_id: str) -> bool:
        """Deterministic sampling decision (no RNG, stable across runs)."""
        if msg_id in self.force_ids:
            return True
        digest = zlib.crc32(msg_id.encode("utf-8")) ^ self._seed_mix
        return digest % self.sample_rate == 0

    def _sample(self, journey: _Journey, stage: str, value: float) -> None:
        key = (journey.cause, stage)
        reservoir = self._reservoirs.get(key)
        if reservoir is None:
            seed = zlib.crc32(("%s/%s" % key).encode("utf-8")) ^ self._seed_mix
            reservoir = self._reservoirs[key] = LatencyReservoir(seed=seed)
        reservoir.add(value)

    def _start(self, msg_id, cause, sender, group, now) -> None:
        """A message with a stable id was transmitted for the first time."""
        if msg_id in self._journeys:
            return
        if not self.wants(msg_id):
            self.skipped += 1
            return
        forced = msg_id in self.force_ids
        if len(self._journeys) >= self.max_tracked and not forced:
            self.overflow += 1
            return
        journey = _Journey(msg_id, cause, sender, group, now, forced)
        journey.record("created", now, sender, cause)
        self._journeys[msg_id] = journey

    # ------------------------------------------------------------------
    # The two inputs: numbered events and lifecycle steps
    # ------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == DELIVER:
            journey = self._journeys.get(event.message_id)
            if journey is not None:
                self._delivered(journey, event.time, event.process)
            return
        # Blocked time: deferred sends leave a group's queue in the order
        # they joined it, and the ``send`` after an ``unblocked_send``
        # names the message that left.
        key = (event.process, event.group)
        if kind == BLOCKED_SEND:
            self._blocked_at.setdefault(key, deque()).append(event.time)
        elif kind == UNBLOCKED_SEND:
            blocked_at = self._blocked_at.get(key)
            if blocked_at:
                self._blocked_for[key] = event.time - blocked_at.popleft()
        else:
            blocked_for = self._blocked_for.pop(key, None)
            journey = self._journeys.get(event.message_id)
            if blocked_for is not None and journey is not None:
                self._sample(journey, "blocked_send", blocked_for)
                journey.record("unblocked", event.time, event.process, blocked_for)

    def _delivered(self, journey: _Journey, now: float, process: str) -> None:
        base = journey.receive_at.get(process, journey.created_at)
        self._sample(journey, "causal_hold", now - base)
        latency = now - journey.created_at
        self._sample(journey, "latency", latency)
        journey.deliveries += 1
        if journey.max_latency is None or latency > journey.max_latency:
            journey.max_latency = latency
        journey.record("delivered", now, process)

    def on_lifecycle(self, kind, time, process, subject, detail=None, peer=None) -> None:
        if kind == TRANSMITTED:
            self._transmitted(subject, time, detail, peer)
            return
        # From the wire it is the transport envelope, above it the message.
        on_wire = kind == WIRE_RECEIVED or kind == WIRE_DROPPED
        message = getattr(subject, "payload", None) if on_wire else subject
        journey = self._journeys.get(payload_msg_id(message))
        if journey is None:
            return
        if kind == WIRE_RECEIVED:
            if process not in journey.receive_at:  # the first receipt counts
                journey.receive_at[process] = time
                self._sample(journey, "transit", time - subject.sent_at)
                journey.record("received", time, process)
        elif kind == HELD:
            journey.hold_since[process] = time
            journey.record("held", time, process, detail)
        elif kind == RELEASED:
            since = journey.hold_since.pop(process, None)
            if since is not None:
                self._sample(journey, "suspicion_hold", time - since)
                journey.record("released", time, process)
        elif kind == DISCARDED:
            journey.record("discarded", time, process, detail)
        else:  # WIRE_DROPPED: the envelope knows where it was going
            journey.record("wire_dropped", time, getattr(subject, "dst", None), detail)

    def _transmitted(self, message, now, cause, sequencer) -> None:
        """A journey starts at the first transmission of its id: a request
        unicast to a sequencer, an unsequenced multicast, or a sequenced
        multicast that had no unicast leg (its sequencer is its origin).
        The sequenced copy of a member's request and a ``failover_resend``
        continue the journey the request started."""
        msg_id = payload_msg_id(message)
        if msg_id is None:
            return
        if sequencer is not None:  # a request on its way to the sequencer
            if cause != "failover_resend":
                self._start(msg_id, cause, message.origin, message.group, now)
            journey = self._journeys.get(msg_id)
            if journey is not None:
                journey.sequencer_wait_from = now
                journey.record("sent_to_sequencer", now, journey.sender, sequencer)
            return
        sequenced_by = message.sequenced_by
        if sequenced_by is None or message.origin_request is None:
            self._start(msg_id, cause, message.sender, message.group, now)
        journey = self._journeys.get(msg_id)
        if journey is not None and sequenced_by is not None:
            if journey.sequencer_wait_from is not None:
                self._sample(journey, "sequencer_queue", now - journey.sequencer_wait_from)
                journey.sequencer_wait_from = None
            journey.record("sequenced", now, sequenced_by)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def journey(self, msg_id: str) -> Optional[Dict[str, object]]:
        journey = self._journeys.get(msg_id)
        return journey.as_dict() if journey is not None else None

    def snapshot(self, top_n: int = 10) -> Dict[str, object]:
        """The JSON-able ``journeys`` block embedded in ``obs`` snapshots."""
        wait_states: Dict[str, Dict[str, object]] = {}
        for (cause, stage), reservoir in sorted(self._reservoirs.items()):
            wait_states.setdefault(cause, {})[stage] = reservoir.summary()
        by_cause: Dict[str, int] = {}
        for journey in self._journeys.values():
            by_cause[journey.cause] = by_cause.get(journey.cause, 0) + 1
        completed = [j for j in self._journeys.values() if j.max_latency is not None]
        completed.sort(key=lambda j: (-j.max_latency, j.msg_id))
        forced = sorted(
            (j for j in self._journeys.values() if j.forced),
            key=lambda j: j.msg_id,
        )
        return {
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            **self._counts(),
            "sends_by_cause": self.registry.family("transport.sends_by_cause."),
            "by_cause": dict(sorted(by_cause.items())),
            "wait_states": wait_states,
            "slowest": [j.as_dict() for j in completed[:top_n]],
            "forced": [j.as_dict() for j in forced],
        }
