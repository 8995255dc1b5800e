"""Common scaffolding for the baseline protocols.

Every baseline is a single-group total-order multicast protocol exposing
the same minimal surface:

* ``multicast(payload) -> message id``
* ``delivered`` -- payload/message records in local delivery order (a
  :class:`~repro.net.trace.DeliveryLog`: a count only when the recorder
  streams)
* ``protocol_bytes_sent`` -- protocol-overhead bytes this process has put
  on the wire (the quantity compared in experiment E7)

so the benchmark harness can treat Newtop and every baseline uniformly.
A set of identical baseline processes is wired onto one simulated network
by :class:`repro.api.Session` with the matching baseline stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.messages import next_message_number
from repro.net.simulator import Simulator
from repro.net.trace import SEND, DeliveryLog, TraceRecorder
from repro.net.transport import Endpoint, Transport, TransportMessage


def next_baseline_message_id(sender: str) -> str:
    """Globally unique message id for baseline protocols, numbered from
    the one message-id counter, so ``reset_message_counter()`` restarts
    baseline runs too."""
    return f"{sender}~{next_message_number()}"


@dataclass
class BaselineDelivery:
    """One delivery made by a baseline process."""

    msg_id: str
    sender: str
    payload: object
    time: float


class BaselineProcess:
    """Base class for single-group baseline protocol processes."""

    #: Name used in benchmark tables; subclasses override.
    protocol_name = "baseline"

    def __init__(
        self,
        process_id: str,
        sim: Simulator,
        transport: Transport,
        members: Sequence[str],
        *,
        group_id: str = "g",
        channel: str = "baseline",
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.process_id = process_id
        self.sim = sim
        self.members = tuple(sorted(members))
        #: Logical group this instance orders messages for.  One transport
        #: endpoint can host several instances (one per group) as long as
        #: each uses a distinct ``channel`` -- how :class:`repro.api`'s
        #: baseline stacks lift these single-group protocols to the
        #: multi-group scenarios they are compared under.
        self.group_id = group_id
        self.channel = channel
        self.recorder = recorder
        self.crashed = False
        self.endpoint: Endpoint = transport.endpoint(process_id)
        self.endpoint.register_handler(channel, self._on_transport_run)
        self.delivered: DeliveryLog = (
            recorder.delivery_log() if recorder is not None else DeliveryLog()
        )
        self.sent_count = 0
        self.protocol_bytes_sent = 0
        self.payload_bytes_sent = 0

    # ------------------------------------------------------------------
    # Interface used by benchmarks
    # ------------------------------------------------------------------
    def multicast(self, payload: object) -> str:
        """Disseminate ``payload`` to the group; returns the message id."""
        raise NotImplementedError

    def delivered_payloads(self) -> List[object]:
        """Payloads delivered so far, in local delivery order."""
        return [delivery.payload for delivery in self.delivered]

    def delivered_ids(self) -> List[str]:
        """Message ids delivered so far, in local delivery order."""
        return [delivery.msg_id for delivery in self.delivered]

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _other_members(self) -> List[str]:
        return [member for member in self.members if member != self.process_id]

    def _send(self, dst: str, payload: object, overhead_bytes: int, payload_bytes: int = 0) -> None:
        self.protocol_bytes_sent += overhead_bytes
        self.payload_bytes_sent += payload_bytes
        self.endpoint.send(
            dst, payload, channel=self.channel, size_bytes=overhead_bytes + payload_bytes
        )

    def _broadcast(self, payload: object, overhead_bytes: int, payload_bytes: int = 0) -> None:
        others = self._other_members()
        self.protocol_bytes_sent += overhead_bytes * len(others)
        self.payload_bytes_sent += payload_bytes * len(others)
        self.endpoint.multicast(
            others, payload, channel=self.channel, size_bytes=overhead_bytes + payload_bytes
        )

    def _record_send(self, msg_id: str) -> None:
        """Record the application-level send.

        Subclasses call this as soon as the message id exists, *before*
        disseminating or self-delivering, so the trace stream stays
        causally coherent (a protocol that synchronously delivers its own
        multicast must not record that delivery ahead of the send).
        """
        if self.recorder is not None:
            self.recorder.record(
                self.sim.now,
                SEND,
                self.process_id,
                group=self.group_id,
                message_id=msg_id,
                sender=self.process_id,
            )

    def _deliver(self, msg_id: str, sender: str, payload: object) -> None:
        self.delivered.add(1, lambda: (BaselineDelivery(msg_id, sender, payload, self.sim.now),))
        if self.recorder is not None:
            self.recorder.record_deliveries(
                self.sim.now, self.process_id, ((self.group_id, msg_id, sender, None, None),)
            )

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this instance (and the whole node's endpoint)."""
        self.crashed = True
        self.endpoint.crash()

    # ------------------------------------------------------------------
    # Transport ingress
    # ------------------------------------------------------------------
    def _on_transport_run(self, messages: List[TransportMessage]) -> None:
        for tmsg in messages:
            if self.crashed:
                return
            self.on_message(tmsg.src, tmsg.payload)

    def on_message(self, src: str, payload: object) -> None:
        """Handle one protocol message from ``src`` (subclass hook)."""
        raise NotImplementedError

