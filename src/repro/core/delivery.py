"""The delivery queue: conditions *safe1'* and *safe2* (§4.1).

Received messages are parked here until they become deliverable.  For a
process ``Pi`` belonging to groups ``G_i``:

* **safe1'** -- a received message ``m`` is deliverable once
  ``m.c <= D_i`` where ``D_i = min{ D_x,i | g_x in G_i }``.  The per-group
  ``D_x,i`` values are computed by the ordering engines (receive-vector
  minimum for symmetric groups, last-sequenced number for asymmetric
  groups); the queue only sees their combined minimum.
* **safe2** -- deliverable messages are delivered in non-decreasing order
  of their numbers, with a fixed pre-determined tie-break among equal
  numbers.  The tie-break used here is ``(m.c, sender id, group id,
  message id)``, which every process evaluates identically.

The queue serves *all* of the process's groups at once -- that is exactly
how Newtop extends total order across group boundaries (MD4') with no
extra machinery.

Null and start-group messages take part in ordering (their numbers advance
``D``) but are not handed to the application; the queue reports them as
internal deliveries so traces can account for them.

Indexing
--------
The queue is on the per-receipt hot path: every received message triggers a
delivery attempt, so a full rescan of the pending pool per receipt would be
O(n) per message and O(n^2) per run.  Instead the pool is indexed once, by a
**min-heap of safe2 sort keys** (the key's last field is the message id), so
:meth:`pop_deliverable` releases the ``k`` deliverable messages in
O(k log n) and :meth:`has_pending_at_or_below` peeks in O(1) amortised.
Removals outside the heap are lazy in it: a key whose message is no longer
pending under that key is skipped (and dropped) when it reaches the top.

Step (viii)'s :meth:`discard_from_sender` scans the pending pool instead,
O(pending) once per removed member and group.  It runs only at a view
change, whereas an index by origin that made it cheaper would cost an
entry per pending message on every receipt.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DeliveryOrderViolation
from repro.core.messages import DataMessage


def delivery_sort_key(message: DataMessage) -> Tuple[int, str, str, str]:
    """The fixed pre-determined order imposed on equal-numbered messages."""
    return (message.clock, message.sender, message.group, message.msg_id)


class DeliveryQueue:
    """Cross-group pending-message pool with total-order pop."""

    def __init__(self) -> None:
        self._pending: Dict[str, DataMessage] = {}
        #: Safe2 sort keys of the pending messages; lazily pruned.
        self._heap: List[Tuple[int, str, str, str]] = []
        self._delivered_ids: set = set()
        self._last_delivered_key: Optional[Tuple[int, str, str, str]] = None
        self.delivered_count = 0
        self.duplicate_count = 0

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(self, message: DataMessage) -> bool:
        """Add a received message to the pool.

        Duplicates (same message id already pending or already delivered,
        e.g. a message recovered via a refute that we had in fact received)
        are ignored.  Returns True if the message was actually added.
        """
        if message.msg_id in self._delivered_ids or message.msg_id in self._pending:
            self.duplicate_count += 1
            return False
        self._pending[message.msg_id] = message
        heapq.heappush(self._heap, delivery_sort_key(message))
        return True

    def discard_from_sender(self, group: str, sender: str, above_clock: int) -> List[DataMessage]:
        """Remove pending messages of ``sender`` in ``group`` numbered above
        ``above_clock`` (step (viii): rejected messages of failed processes).

        ``sender`` matches both the logical sender and the sequencer a
        message travelled through.  Returns the messages removed, in arrival
        order, so callers can trace the discards.  Their heap keys are
        pruned lazily.
        """
        doomed = [
            message
            for message in self._pending.values()
            if message.group == group
            and message.clock > above_clock
            and (message.sender == sender or message.sequenced_by == sender)
        ]
        for message in doomed:
            del self._pending[message.msg_id]
        return doomed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of messages waiting to become deliverable."""
        return len(self._pending)

    def has_pending_at_or_below(self, bound: float, group: Optional[str] = None) -> bool:
        """Whether any pending message is numbered ``<= bound``.

        Used by view installation to decide whether every message that must
        precede the new view has been delivered.  The group-agnostic form
        (the hot one) is an O(1) amortised heap peek.
        """
        if group is None:
            return self._peek(bound) is not None
        return any(
            message.clock <= bound
            for message in self._pending.values()
            if message.group == group
        )

    def _peek(self, bound: float) -> Optional[Tuple[int, str, str, str]]:
        """Smallest live heap key numbered ``<= bound``, pruning the stale
        ones met on the way.  A head beyond the bound ends the search
        unexamined: live or stale, nothing smaller is left."""
        heap = self._heap
        while heap:
            key = heap[0]
            if key[0] > bound:
                return None
            message = self._pending.get(key[3])
            if message is None or delivery_sort_key(message) != key:
                heapq.heappop(heap)  # stale: delivered, discarded, or re-enqueued
                continue
            return key
        return None

    def was_delivered(self, msg_id: str) -> bool:
        """Whether a message with this id has already been delivered."""
        return msg_id in self._delivered_ids

    # ------------------------------------------------------------------
    # Pop deliverable messages
    # ------------------------------------------------------------------
    def pop_deliverable(self, bound: float) -> List[DataMessage]:
        """Remove and return every pending message numbered ``<= bound``,
        in delivery order (safe2), in O(k log n) for k deliveries.

        Raises :class:`DeliveryOrderViolation` if honouring the request
        would deliver a message that sorts *before* something already
        delivered -- that would mean ``D`` was allowed to advance past a
        message that had not yet arrived, i.e. a protocol bug; the check
        costs one comparison per delivery and turns silent misordering into
        an immediate failure.
        """
        messages: List[DataMessage] = []
        while True:
            key = self._peek(bound)
            if key is None:
                break
            msg_id = key[3]
            # Check the safe2 invariant *before* popping, so a violation
            # leaves the offending message in the queue as evidence.
            if self._last_delivered_key is not None and key < self._last_delivered_key:
                raise DeliveryOrderViolation(
                    f"delivery of {msg_id} (key {key}) would precede the "
                    f"previously delivered key {self._last_delivered_key}"
                )
            heapq.heappop(self._heap)
            message = self._pending.pop(msg_id)
            self._last_delivered_key = key
            self._delivered_ids.add(msg_id)
            self.delivered_count += 1
            messages.append(message)
        return messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeliveryQueue(pending={len(self._pending)}, "
            f"delivered={self.delivered_count})"
        )
