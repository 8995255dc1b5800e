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
O(n) per message and O(n^2) per run.  Instead the pool is indexed twice:

* a **min-heap** of ``(sort key, msg id)`` pairs ordered by the safe2 key,
  so :meth:`pop_deliverable` releases the ``k`` deliverable messages in
  O(k log n) and :meth:`has_pending_at_or_below` peeks in O(1) amortised;
* **per-origin FIFO deques** keyed ``(group, member)`` (a message is filed
  under both its sender and, in asymmetric groups, its sequencer), so the
  membership protocol's :meth:`discard_from_sender` touches only that
  member's messages instead of the whole pool.

Removals initiated through one index are lazy in the other: an entry whose
message id is no longer pending is skipped (and dropped) when encountered.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.errors import DeliveryOrderViolation
from repro.core.messages import DataMessage


def delivery_sort_key(message: DataMessage) -> Tuple[int, str, str, str]:
    """The fixed pre-determined order imposed on equal-numbered messages."""
    return (message.clock, message.sender, message.group, message.msg_id)


class DeliveryQueue:
    """Cross-group pending-message pool with total-order pop."""

    def __init__(self) -> None:
        self._pending: Dict[str, DataMessage] = {}
        #: Safe2-ordered heap of (sort key, msg id); lazily pruned.
        self._heap: List[Tuple[Tuple[int, str, str, str], str]] = []
        #: (group, origin member) -> msg ids in arrival order; lazily pruned.
        self._by_origin: Dict[Tuple[str, str], Deque[str]] = {}
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
        heapq.heappush(self._heap, (delivery_sort_key(message), message.msg_id))
        self._origin_deque(message.group, message.sender).append(message.msg_id)
        if message.sequenced_by is not None and message.sequenced_by != message.sender:
            self._origin_deque(message.group, message.sequenced_by).append(message.msg_id)
        return True

    def _origin_deque(self, group: str, member: str) -> Deque[str]:
        key = (group, member)
        queue = self._by_origin.get(key)
        if queue is None:
            self._by_origin[key] = queue = deque()
        return queue

    def discard_from_sender(self, group: str, sender: str, above_clock: int) -> List[DataMessage]:
        """Remove pending messages of ``sender`` in ``group`` numbered above
        ``above_clock`` (step (viii): rejected messages of failed processes).

        ``sender`` matches both the logical sender and the sequencer a
        message travelled through.  Returns the messages removed, so callers
        can trace the discards.  Only this origin's index is walked; the
        heap entries of removed messages are pruned lazily.
        """
        queue = self._by_origin.get((group, sender))
        if not queue:
            return []
        doomed: List[DataMessage] = []
        kept: Deque[str] = deque()
        for msg_id in queue:
            message = self._pending.get(msg_id)
            if message is None:
                continue  # already delivered or discarded via the other index
            if message.clock > above_clock:
                doomed.append(message)
                del self._pending[msg_id]
            else:
                kept.append(msg_id)
        if kept:
            self._by_origin[(group, sender)] = kept
        else:
            del self._by_origin[(group, sender)]
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

    def _peek(self, bound: float) -> Optional[Tuple[Tuple[int, str, str, str], str]]:
        """Smallest live heap entry numbered ``<= bound``, pruning the stale
        ones met on the way.  A head beyond the bound ends the search
        unexamined: live or stale, nothing smaller is left."""
        heap = self._heap
        while heap:
            head = heap[0]
            key, msg_id = head
            if key[0] > bound:
                return None
            message = self._pending.get(msg_id)
            if message is None or delivery_sort_key(message) != key:
                heapq.heappop(heap)  # stale: delivered, discarded, or re-enqueued
                continue
            return head
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
            head = self._peek(bound)
            if head is None:
                break
            key, msg_id = head
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
            self._prune_origin(message.group, message.sender)
            if message.sequenced_by is not None and message.sequenced_by != message.sender:
                self._prune_origin(message.group, message.sequenced_by)
            messages.append(message)
        return messages

    def _prune_origin(self, group: str, member: str) -> None:
        """Drop no-longer-pending ids from the head of one origin deque.

        Messages deliver in roughly arrival order per origin, so popping
        stale heads after each delivery keeps the deques bounded by the
        live pending count (amortised O(1) per delivery).
        """
        key = (group, member)
        queue = self._by_origin.get(key)
        if queue is None:
            return
        pending = self._pending
        while queue and queue[0] not in pending:
            queue.popleft()
        if not queue:
            del self._by_origin[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeliveryQueue(pending={len(self._pending)}, "
            f"delivered={self.delivered_count})"
        )
