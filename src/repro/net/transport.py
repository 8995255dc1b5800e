"""Reliable FIFO transport endpoints.

The transport layer is the interface protocol processes actually use.  It
wraps the raw :class:`~repro.net.network.Network` with:

* per-destination FIFO sequence numbers (and an assertion that the network
  really did preserve FIFO order -- a cheap, always-on sanity check of the
  substrate the protocol's correctness argument rests on),
* typed envelopes (:class:`TransportMessage`) carrying the sender, a
  payload, a wire-size estimate and timing information used by the
  benchmark harness,
* one handler per ``channel`` string.  All Newtop traffic -- data, nulls,
  beacons, membership and formation messages -- travels on the one
  ``"newtop"`` channel, as in the paper's Fig. 3, where the membership
  service's ``mcast`` primitive and the data multicasts sit on the same
  transport; channels separate the per-group instances of the §6
  baseline stacks.

Every endpoint counts its sends (``stats.sent``), and the transport tallies
them by payload kind and by root cause, and every delivery batch by its
size, whether or not the run is observed: an observed run's metrics
registry reads those counts (``transport.*`` counters, the
``transport.delivery_batch_size`` histogram) when it is read, and nothing
here holds an observer.

One call per fan-out
--------------------
:meth:`Endpoint.multicast` is the one send implementation and
:meth:`Endpoint.send` its one-destination case.  A fan-out to n
destinations makes one trip through the endpoint and one through
:meth:`repro.net.network.Network.multicast`: the crash flag, the clock,
the stats and the kind and cause counters are done once, by count, and a
destination costs its sequence number and its envelope.  Destinations are
contacted **in the caller's order** -- the network draws one latency
sample per destination as it goes, so the order is part of what a seed
means (a sorted fan-out permutes the draws of, say, a beacon to its ring
successors, and with them every trace that follows).

One call per run
----------------
Inward, the network hands over its own batch of same-instant arrivals and
the endpoint FIFO-checks each frame.  A handler receives *runs*: each
stretch of consecutive same-channel arrivals, in send order, as one list.
A run is handed over before the next channel's first frame is checked,
and a crashed endpoint hands over nothing more.  A node whose traffic
shares one channel (every Newtop process) gets a whole instant in one
call; frames of several channels (a process hosting several baseline
groups) reach their handlers in exactly the order they arrived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.network import Network

#: Handler signature: ``handler(messages)`` -- one run of consecutive
#: same-channel arrivals at one simulated instant, in send order.
Handler = Callable[[List["TransportMessage"]], None]

#: Root-cause fallback by payload ``kind`` (Newtop data-channel traffic).
_KIND_CAUSES = {
    "data": "app_multicast",
    "null": "null_time_silence",
    "start_group": "formation",
    "view_cut": "view_cut",
}

#: Root-cause fallback by payload type (membership/formation control).
_TYPE_CAUSES = {
    "SuspectMessage": "suspicion_gossip",
    "RefuteMessage": "confirm_refute",
    "ConfirmMessage": "confirm_refute",
}


def _derive_cause(kind: str, payload: object) -> str:
    """Best-effort root cause for sends whose call site threads none.

    Newtop call sites all pass an explicit ``cause=``; this fallback keeps
    the partition invariant (every send lands in *some* cause counter) for
    the baseline stacks, whose payloads map to ``"other"``.
    """
    cause = _KIND_CAUSES.get(kind)
    if cause is not None:
        return cause
    return _TYPE_CAUSES.get(type(payload).__name__, "other")


@dataclass
class TransportMessage:
    """Envelope delivered to endpoint handlers.

    Attributes
    ----------
    src, dst:
        Node identifiers.
    channel:
        Logical stream name: ``"newtop"``, or a baseline group's
        ``"baseline:<group>"``.
    payload:
        The protocol-level message object.
    seqno:
        Per ``(src, dst, channel)`` FIFO sequence number, starting at 1.
    size_bytes:
        Estimated wire size of the payload (protocol overhead accounting).
    sent_at:
        Simulated time at which the message was handed to the network.
    """

    # One envelope per destination of every multicast: no instance dict.
    __slots__ = ("src", "dst", "channel", "payload", "seqno", "size_bytes", "sent_at")

    src: str
    dst: str
    channel: str
    payload: object
    seqno: int
    size_bytes: int
    sent_at: float


@dataclass
class TransportStats:
    """Per-endpoint counters."""

    #: Frames handed to the network (one per destination of a fan-out).
    sent: int = 0


class FifoViolationError(RuntimeError):
    """Raised when the network delivers a channel's messages out of order."""


class Endpoint:
    """A node's attachment point to the transport.

    Create endpoints through :meth:`Transport.endpoint`, not directly.
    """

    def __init__(self, transport: "Transport", node_id: str) -> None:
        self.transport = transport
        self.node_id = node_id
        self.stats = TransportStats()
        self._handlers: Dict[str, Handler] = {}
        # FIFO bookkeeping: next expected seqno per (src, channel).
        self._next_expected: Dict[tuple, int] = {}
        # Outgoing seqnos: channel -> dst -> last number used.
        self._next_outgoing: Dict[str, Dict[str, int]] = {}
        self._crashed = False

    # ------------------------------------------------------------------
    # Handler registration
    # ------------------------------------------------------------------
    def register_handler(self, channel: str, handler: Handler) -> None:
        """Register the handler for ``channel``: it is called with each run
        of consecutive same-channel arrivals at one instant, in send order,
        after their FIFO check.  Frames on a channel without a handler are
        checked and dropped."""
        self._handlers[channel] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        payload: object,
        channel: str = "data",
        size_bytes: int = 0,
        cause: Optional[str] = None,
    ) -> bool:
        """Unicast ``payload`` to ``dst`` on ``channel``: the
        one-destination :meth:`multicast`."""
        return self.multicast((dst,), payload, channel, size_bytes, cause) == 1

    def multicast(
        self,
        dsts: Sequence[str],
        payload: object,
        channel: str = "data",
        size_bytes: int = 0,
        cause: Optional[str] = None,
    ) -> int:
        """Send ``payload`` on ``channel`` to every destination (possibly
        including self), in the caller's order; returns the number of sends
        the network accepted.

        One call per fan-out: the crash flag, the clock, the stats and the
        kind and cause counters are done once, by count; a destination costs
        its sequence number and its envelope, and the envelopes go to the
        network in one :meth:`~repro.net.network.Network.multicast`.

        ``cause`` names the root cause that made this send happen
        (``app_multicast``, ``null_time_silence``, ``suspicion_gossip``,
        ``confirm_refute``, ``formation``, ``failover_resend``,
        ``view_cut``, ...); every send is counted under its cause (read as
        ``transport.sends_by_cause.<cause>``), and the counts exactly
        partition the ``transport.sends`` total.  Call sites that thread
        no cause fall back to a derivation from the payload itself.
        """
        if self._crashed:
            return 0
        transport = self.transport
        network = transport.network
        node_id = self.node_id
        now = network.sim.now
        outgoing = self._next_outgoing.setdefault(channel, {})
        frames = []
        for dst in dsts:
            outgoing[dst] = seqno = outgoing.get(dst, 0) + 1
            frames.append(
                TransportMessage(node_id, dst, channel, payload, seqno, size_bytes, now)
            )
        count = len(frames)
        if not count:
            return 0
        self.stats.sent += count
        sent_by_kind = transport._sent_by_kind
        kind = getattr(payload, "kind", None) or type(payload).__name__
        sent_by_kind[kind] = sent_by_kind.get(kind, 0) + count
        # Cause attribution: counted beside ``stats.sent``, the total, so
        # sum(transport.sends_by_cause.*) == transport.sends holds by
        # construction.
        if cause is None:
            cause = _derive_cause(kind, payload)
        sends_by_cause = transport._sends_by_cause
        sends_by_cause[cause] = sends_by_cause.get(cause, 0) + count
        return network.multicast(node_id, dsts, payload, size_bytes, frames=frames)

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop this endpoint: it stops sending and receiving."""
        self._crashed = True
        self.transport.network.crash(self.node_id)

    @property
    def crashed(self) -> bool:
        """Whether :meth:`crash` has been called."""
        return self._crashed

    # ------------------------------------------------------------------
    # Delivery (called by Transport)
    # ------------------------------------------------------------------
    def _on_network_delivery_batch(self, items: List[tuple]) -> None:
        """Process every message that arrived at one simulated instant:
        the network's own batch of ``(src, envelope, size)`` triples.

        The FIFO check and the duplicate suppression are per frame; the
        checked frames go to their channel's handler run by run (see the
        module notes), and the crash flag is read before each hand-over.
        """
        batch_sizes = self.transport.batch_sizes
        size = len(items)
        batch_sizes[size] = batch_sizes.get(size, 0) + 1
        next_expected = self._next_expected
        run: List[TransportMessage] = []
        run_channel = None
        for src, message, _ in items:
            if not isinstance(message, TransportMessage):  # pragma: no cover - substrate misuse
                raise TypeError(f"unexpected payload on the wire: {message!r}")
            channel = message.channel
            if channel != run_channel:
                if run:
                    if not self._hand_over(run_channel, run):
                        return
                    run = []
                run_channel = channel
            key = (src, channel)
            seqno = message.seqno
            expected = next_expected.get(key, 1)
            if seqno < expected:
                if self.transport.network.link_fault_model is not None:
                    # A duplicated frame: the fault model re-delivers copies
                    # of frames the channel has already moved past.  A
                    # sequenced transport absorbs those silently.
                    continue
                raise FifoViolationError(
                    f"{self.node_id}: duplicate/out-of-order message from {src} "
                    f"on {channel}: seqno {seqno} < expected {expected}"
                )
            # Gaps are legal: they correspond to messages lost to crashes or
            # partitions (the network never re-orders within a channel, so a
            # larger-than-expected seqno means the intermediate ones are
            # gone for good, which is exactly the paper's loss model).
            next_expected[key] = seqno + 1
            run.append(message)
        if run:
            self._hand_over(run_channel, run)

    def _hand_over(self, channel: str, run: List[TransportMessage]) -> bool:
        """Give ``run`` to ``channel``'s handler unless this endpoint has
        crashed; returns whether it is still up."""
        if self._crashed:
            return False
        handler = self._handlers.get(channel)
        if handler is not None:
            handler(run)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        return f"Endpoint({self.node_id!r}, {state})"


class Transport:
    """Factory and registry for :class:`Endpoint` objects on one network."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._endpoints: Dict[str, Endpoint] = {}
        # Sends by payload kind and by root cause, and delivery batches by
        # size: kept always, read by an observed run's registry.
        self._sent_by_kind: Dict[str, int] = {}
        self._sends_by_cause: Dict[str, int] = {}
        self.batch_sizes: Dict[int, int] = {}
        metrics = network.sim.metrics
        if metrics is not None:
            metrics.counter_source("transport.", self._counts)
            metrics.histogram_source(
                "transport.delivery_batch_size", lambda: self.batch_sizes
            )

    def _counts(self) -> Dict[str, int]:
        counts = {"sends": sum(e.stats.sent for e in self._endpoints.values())}
        for kind, sent in self._sent_by_kind.items():
            counts["sent." + kind] = sent
        for cause, sent in self._sends_by_cause.items():
            counts["sends_by_cause." + cause] = sent
        return counts

    def release(self) -> None:
        """End the run: each endpoint lets go of the transport; the
        endpoints and their stats stay readable."""
        for endpoint in self._endpoints.values():
            endpoint.transport = None

    def endpoint(self, node_id: str) -> Endpoint:
        """Create (or return the existing) endpoint for ``node_id``."""
        if node_id in self._endpoints:
            return self._endpoints[node_id]
        endpoint = Endpoint(self, node_id)
        self.network.attach(node_id, endpoint._on_network_delivery_batch)
        self._endpoints[node_id] = endpoint
        return endpoint

    def endpoints(self) -> List[Endpoint]:
        """All endpoints created so far, sorted by node id."""
        return [self._endpoints[node_id] for node_id in sorted(self._endpoints)]

    def get(self, node_id: str) -> Optional[Endpoint]:
        """Return the endpoint for ``node_id`` if it exists."""
        return self._endpoints.get(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transport(endpoints={sorted(self._endpoints)})"
