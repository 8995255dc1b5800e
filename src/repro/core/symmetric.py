"""The symmetric total-order engine (§4.1).

Every member multicasts its messages directly to the whole view.  The only
per-group state is the receive vector ``RV_x,i`` (latest number received
from each member); its minimum is the deliverable bound ``D_x,i``:

* a member's own sends count as receipts from itself (the paper: "Pi
  delivers its own messages also by executing the protocol"), so ``RV``
  always has an entry for the local process;
* because numbers increase per sender (CA1) and channels are FIFO, no
  message numbered ``<= D_x,i`` can arrive any more, hence *safe1*;
* the time-silence mechanism keeps ``D_x,i`` advancing when members have
  nothing to say.

The engine is completely symmetric: there is no coordinator, no extra
round, and a send is never blocked (the paper's §7: "If only symmetric
version is used, Newtop is totally non-blocking on send operations").
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import CAUSE_BY_KIND, DataMessage, KIND_NULL, KIND_START_GROUP
from repro.core.ordering import OrderingEngine
from repro.core.vectors import ReceiveVector


class SymmetricOrdering(OrderingEngine):
    """Receive-vector-based total order for one group."""

    def __init__(self, endpoint) -> None:
        super().__init__(endpoint)
        self.receive_vector = ReceiveVector(endpoint.view.members)

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, payload: object, kind: str) -> str:
        """CA1-number the message and multicast it to the whole view."""
        process = self.endpoint.process
        clock = process.clock.tick()
        ldn = self.ldn()
        if kind == KIND_START_GROUP:
            message = DataMessage.start_group(
                sender=process.process_id,
                group=self.endpoint.group_id,
                clock=clock,
                ldn=ldn,
            )
        elif kind == KIND_NULL:
            message = DataMessage.null(
                sender=process.process_id,
                group=self.endpoint.group_id,
                clock=clock,
                ldn=ldn,
                awaits_reply=process.awaits_delivery(),
            )
        else:
            message = DataMessage.application(
                sender=process.process_id,
                group=self.endpoint.group_id,
                clock=clock,
                ldn=ldn,
                payload=payload,
            )
        cause = CAUSE_BY_KIND[kind]
        self.endpoint.broadcast_data(message, cause=cause)
        return message.msg_id

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_data(self, message: DataMessage) -> bool:
        """Record the receipt in ``RV`` (monotone per sender).  ``D_x,i``
        can only have moved if the receipt raised the last entry standing
        at the minimum (safe1), and the vector knows when that is."""
        vector = self.receive_vector
        try:
            vector.record_receipt(message.sender, message.clock)
        except KeyError:
            pass  # no longer in the view: nothing of its constrains ``D``
        return vector.minimum_in_doubt()

    # ------------------------------------------------------------------
    # Deliverability
    # ------------------------------------------------------------------
    def deliverable_bound(self) -> float:
        """``D_x,i = min(RV_x,i)``, never below the formation floor."""
        return max(self.receive_vector.deliverable_bound, self.d_floor)

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def on_members_removed(self, removed: frozenset, threshold: int) -> None:
        """Step (viii): ``RV[k] := infinity`` so ``D`` can pass ``lnmn``."""
        for member in removed:
            self.receive_vector.mark_infinite(member)

    def on_view_installed(self) -> None:
        """Drop vector entries of members no longer in the view."""
        current = self.endpoint.view.members
        for member in list(self.receive_vector.members()):
            if member not in current:
                self.receive_vector.remove(member)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SymmetricOrdering(group={self.endpoint.group_id!r}, "
            f"D={self.deliverable_bound()})"
        )
