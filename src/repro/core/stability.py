"""Message stability tracking and the retention buffer (§5.1).

To make message recovery possible (a process must always be able to
retrieve a missing message from another functioning member), every process
retains the messages it has sent and received in a group until they become
*stable*:

    "A message m becomes stable in Pi if Pi knows that all processes in the
    current view of m.g have received m."

Stability information travels piggybacked on normal traffic: every message
carries ``m.ldn``, the sender's current ``D_x`` for the group; the receiver
records it in its stability vector ``SV_x,i``.  Every message numbered at
most ``min(SV_x,i)`` has, transitively, been received by every member and
can be discarded.

The :class:`RetentionBuffer` below is the store backing that rule.  It also
answers the query the membership protocol needs for refutations (step iii):
"all received m of Pk, m.c > ln" -- by definition such messages are
unstable, so they are guaranteed to still be in the buffer.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.messages import KIND_NULL, DataMessage
from repro.core.vectors import StabilityVector


class RetentionBuffer:
    """Per-group store of not-yet-stable messages, keyed by sender.

    Only messages actually *received* (or sent, which includes loopback
    receipt) are retained; the buffer is not a log of everything ever sent
    in the group.
    """

    def __init__(self, group: str) -> None:
        self.group = group
        # sender -> {clock -> message}
        self._by_sender: Dict[str, Dict[int, DataMessage]] = {}
        self._discarded_stable = 0
        self._size = 0
        #: How many retained messages are not nulls.  Unstable application,
        #: start-group and view-cut traffic is what peers' ``RV``/``SV``
        #: entries are waiting on, so "any left?" is the O(1) question the
        #: demand-driven time-silence timer asks on every firing.
        self._non_null = 0
        #: The largest number of any non-null message ever retained: a
        #: running maximum, so "is everything unstable numbered at most
        #: ``n``?" is one comparison (never too low; stale-high only after
        #: step viii dropped a failed sender's newest messages).
        self.max_non_null_clock = 0
        self._peak_size = 0
        #: ``(clock, sender)`` of every message retained, as a min-heap: the
        #: stability garbage collector runs per received message, so it
        #: pops exactly what the bound passed and otherwise costs one
        #: comparison with the smallest entry.  Removals other than the
        #: collector's leave their entries behind; each costs one pop once
        #: the bound passes it.
        self._order: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # Insertion and garbage collection
    # ------------------------------------------------------------------
    def retain(self, message: DataMessage, key: Optional[str] = None) -> None:
        """Keep ``message`` until it is known to be stable.

        ``key`` overrides the sender the message is filed under; asymmetric
        groups file sequenced messages under the sequencer, because that is
        the process whose silence/failure governs their recovery (§4.2).
        """
        sender = key or message.sender
        clock = message.clock
        per_sender = self._by_sender.setdefault(sender, {})
        replaced = per_sender.get(clock)
        if replaced is None:
            self._size += 1
            if self._size > self._peak_size:
                self._peak_size = self._size
            heappush(self._order, (clock, sender))
        elif replaced.kind != KIND_NULL:
            self._non_null -= 1
        if message.kind != KIND_NULL:
            self._non_null += 1
            if clock > self.max_non_null_clock:
                self.max_non_null_clock = clock
        per_sender[clock] = message

    def discard_stable(self, stability_bound: float) -> int:
        """Discard every retained message numbered ``<= stability_bound``.

        Returns the number of messages discarded.  Called on every receipt;
        the cost is one heap pop per message freed.
        """
        order = self._order
        if not order or order[0][0] > stability_bound:
            return 0
        by_sender = self._by_sender
        discarded = 0
        while order and order[0][0] <= stability_bound:
            clock, sender = heappop(order)
            per_sender = by_sender.get(sender)
            message = per_sender.pop(clock, None) if per_sender else None
            if message is None:
                continue  # already dropped by a removal
            if message.kind != KIND_NULL:
                self._non_null -= 1
            discarded += 1
            if not per_sender:
                del by_sender[sender]
        self._size -= discarded
        self._discarded_stable += discarded
        return discarded

    def discard_sender(self, sender: str) -> int:
        """Drop everything retained for ``sender`` (used when a failed
        process is removed from the view and its pending messages must be
        discarded, §5.2 step viii)."""
        dropped = self._by_sender.pop(sender, {})
        self._size -= len(dropped)
        self._non_null -= sum(
            1 for message in dropped.values() if message.kind != KIND_NULL
        )
        return len(dropped)

    def discard_sender_above(self, sender: str, threshold: int) -> int:
        """Drop ``sender``'s retained messages numbered above ``threshold``.

        Step (viii): messages of a failed process numbered above ``lnmn``
        are discarded even if they were received, as a safety measure that
        preserves MD5.
        """
        per_sender = self._by_sender.get(sender)
        if not per_sender:
            return 0
        doomed = [clock for clock in per_sender if clock > threshold]
        for clock in doomed:
            if per_sender.pop(clock).kind != KIND_NULL:
                self._non_null -= 1
        if not per_sender:
            del self._by_sender[sender]
        self._size -= len(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has(self, sender: str, clock: int) -> bool:
        """Whether a message from ``sender`` numbered ``clock`` is retained."""
        return clock in self._by_sender.get(sender, {})

    def messages_from(self, sender: str, above: int = -1) -> List[DataMessage]:
        """Retained messages from ``sender`` numbered strictly above ``above``,
        in increasing number order.  This is exactly the refutation payload
        of membership step (iii)."""
        per_sender = self._by_sender.get(sender, {})
        return [per_sender[clock] for clock in sorted(per_sender) if clock > above]

    def latest_clock_from(self, sender: str) -> Optional[int]:
        """Largest retained message number from ``sender`` (None if nothing)."""
        per_sender = self._by_sender.get(sender)
        return max(per_sender) if per_sender else None

    def size(self) -> int:
        """Number of messages currently retained."""
        return self._size

    def non_null_count(self) -> int:
        """Number of retained messages that are not nulls."""
        return self._non_null

    @property
    def peak_size(self) -> int:
        """Largest size the buffer ever reached (buffer-occupancy benchmarks)."""
        return self._peak_size

    @property
    def discarded_stable_count(self) -> int:
        """How many messages have been garbage-collected as stable."""
        return self._discarded_stable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RetentionBuffer(group={self.group!r}, size={self.size()})"


class StabilityTracker:
    """Combines the stability vector and the retention buffer for one group.

    The group endpoint funnels every send and receive through this tracker:

    * :meth:`on_message` records the piggybacked ``ldn`` and retains the
      message; if the stability bound advanced, stable messages are
      discarded immediately.
    * :meth:`stability_bound` exposes ``min(SV)`` for flow control and
      benchmarks.
    """

    def __init__(self, group: str, members: Iterable[str]) -> None:
        self.group = group
        self.vector = StabilityVector(members)
        self.buffer = RetentionBuffer(group)
        #: The largest sequencer-aggregated bound recorded so far.
        self._global_ldn = 0

    def on_message(self, message: DataMessage, key: Optional[str] = None) -> int:
        """Process a sent-or-received message; returns messages discarded.

        ``key`` optionally overrides the member the message (and its ``ldn``)
        is attributed to -- asymmetric groups attribute sequenced messages to
        the sequencer.
        """
        self.buffer.retain(message, key=key)
        attributed_to = key or message.sender
        if attributed_to in self.vector:
            self.vector.record_ldn(attributed_to, message.ldn)
        return self.buffer.discard_stable(self.vector.stability_bound)

    def record_global_ldn(self, ldn: int) -> int:
        """Record a sequencer-aggregated stability bound (asymmetric groups).

        The sequencer computes the minimum deliverable bound over every
        member (from the ``origin_ldn`` of their unicasts) before stamping
        it into sequenced messages, so the bound applies to all members at
        once.  Returns the number of retained messages discarded.  A bound
        no higher than the last one recorded changes no entry (entries only
        grow), so it costs one comparison.
        """
        if ldn <= self._global_ldn:
            return 0
        self._global_ldn = ldn
        for member in list(self.vector):
            self.vector.record_ldn(member, ldn)
        return self.buffer.discard_stable(self.vector.stability_bound)

    def stability_bound(self) -> float:
        """``min(SV_x)``: every message numbered at or below this is stable.

        Always finite: when every vector entry has been marked infinite
        (all other members failed at once), the bound clamps to the last
        finite value instead of ``inf`` -- an infinite bound must never
        leak into piggybacked ``m.ldn`` fields or integer comparisons.
        """
        return self.vector.stability_bound

    def is_stable(self, clock: int) -> bool:
        """Whether messages numbered ``clock`` are known stable."""
        return clock <= self.vector.stability_bound

    def handle_member_removed(self, member: str, discard_above: int) -> None:
        """View installation (step viii) bookkeeping for a removed member."""
        self.buffer.discard_sender_above(member, discard_above)
        self.vector.mark_infinite(member)
        self.buffer.discard_stable(self.vector.stability_bound)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StabilityTracker(group={self.group!r}, bound={self.stability_bound()}, "
            f"retained={self.buffer.size()})"
        )
