"""Simulated network fabric.

The :class:`Network` connects named nodes through point-to-point channels
with these properties, matching the paper's transport assumptions:

* **Reliable and sequenced (FIFO)** between connected, functioning nodes:
  each directed channel delivers messages in the order they were sent, and
  never corrupts or duplicates them.
* **Asynchronous**: per-message delays are sampled from a pluggable
  :class:`~repro.net.latency.LatencyModel` and are unbounded in general.
* **Crash-stop failures**: a crashed node never sends again and messages
  addressed to it are discarded.
* **Partitions**: while two nodes are in different partition components
  messages between them are silently dropped (checked both when the message
  is sent and when it would be delivered, so messages in flight across a
  partition event are lost -- exactly the scenario of the paper's Fig. 2 /
  Example 2).

In addition the network supports *message filters*: predicates that may
drop individual messages.  A filter models a sender crashing part-way
through a multicast (Example 1) and :meth:`Network.drop_between` opens a
directed loss window with one, without the protocol code needing any
special hooks.

One call per fan-out
--------------------
:meth:`Network.multicast` is the one send implementation and
:meth:`Network.send` its one-destination case.  Everything that does not
depend on the destination -- the sender's crash flag, the clock, the sent
counters, whether a partition, a filter or a fault model is in force at
all -- is settled once per call; a destination pays for its own crash
flag, one latency sample, the FIFO clamp and the batch insert, plus the
partition lookup, the filters and the fault draws only while there is a
partition, a filter or a model.  Destinations are taken **in the caller's
order**, never sorted: the latency (and fault) draws are made in that
order, so n sends and one multicast over the same destinations are the
same run -- same RNG state, same event times and sequence numbers, same
stats (``tests/test_network_and_transport.py`` compares them).  On the way
in, one simulator event drains one ``(destination, instant)`` batch and
hands the list on as it stands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.faults import LinkFaultModel
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.partitions import PartitionManager
from repro.net.simulator import Simulator
from repro.net.trace import WIRE_DROPPED

#: A filter receives ``(src, dst, payload)`` and returns ``True`` to let the
#: message through, ``False`` to drop it.
MessageFilter = Callable[[str, str, object], bool]

#: Delivery callback registered per node, invoked once per delivery
#: instant with the network's own batch: ``callback([(src, payload,
#: size_bytes), ...])`` in send order.  The list is the callee's to read,
#: not to keep or change.
DeliverBatchCallback = Callable[[List[Tuple[str, object, int]]], None]

#: Minimal spacing enforced between consecutive deliveries on one channel,
#: used to preserve FIFO order under random latencies.
FIFO_EPSILON = 1e-9


@dataclass
class NetworkConfig:
    """Tunable parameters of the simulated network."""

    #: Model used to sample the one-way delay of every message.
    latency_model: LatencyModel = field(default_factory=UniformLatency)
    #: When positive, delivery times are quantised *up* to the next multiple
    #: of this window so deliveries coalesce into per-destination batch
    #: events.  Zero (the default) batches only deliveries that already
    #: share an exact instant (e.g. deterministic latency models), leaving
    #: timing untouched.  Per-channel FIFO order is preserved either way:
    #: quantisation is monotone and same-instant messages are handed over
    #: in send order.
    batch_window: float = 0.0
    #: Optional :class:`~repro.net.faults.LinkFaultModel`: seeded
    #: probabilistic drop / reorder / duplicate faults, global or per
    #: directed link.  Decisions draw from the model's own RNG, so a model
    #: with all-zero rates leaves the run byte-identical to no model.
    link_faults: Optional[LinkFaultModel] = None


@dataclass
class NetworkStats:
    """Counters maintained by the network, used by benchmarks."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped_partition: int = 0
    messages_dropped_crash: int = 0
    messages_dropped_filter: int = 0
    #: Messages lost to a probabilistic link-fault drop.
    messages_dropped_fault: int = 0
    #: Messages held back by a link-fault reorder delay.
    messages_reordered: int = 0
    #: Extra copies injected by link-fault duplication.
    messages_duplicated: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    #: Scheduled delivery events; with batching this is at most one per
    #: (destination, instant) rather than one per message.
    delivery_events: int = 0

    @property
    def messages_dropped(self) -> int:
        """Total messages lost for any reason."""
        return (
            self.messages_dropped_partition
            + self.messages_dropped_crash
            + self.messages_dropped_filter
            + self.messages_dropped_fault
        )

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, convenient for benchmark result tables."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped_partition": self.messages_dropped_partition,
            "messages_dropped_crash": self.messages_dropped_crash,
            "messages_dropped_filter": self.messages_dropped_filter,
            "messages_dropped_fault": self.messages_dropped_fault,
            "messages_reordered": self.messages_reordered,
            "messages_duplicated": self.messages_duplicated,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "delivery_events": self.delivery_events,
        }


class Network:
    """Point-to-point message fabric between named nodes."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        lifecycle: Optional[Callable[..., None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.partitions = PartitionManager()
        self.stats = NetworkStats()
        self._batch_callbacks: Dict[str, DeliverBatchCallback] = {}
        self._crashed: set[str] = set()
        self._filters: List[MessageFilter] = []
        # Link-fault decisions draw from the model's own stream so the
        # simulator's RNG (latency samples, protocol timers) is untouched:
        # a zero-rate model triggers nothing and changes nothing.
        faults = self.config.link_faults
        self._fault_model = faults
        self._fault_rng = faults.make_rng() if faults is not None else None
        # Per directed channel: the simulated time of the latest scheduled
        # delivery, used to preserve FIFO order.
        self._last_delivery_time: Dict[Tuple[str, str], float] = {}
        # Open delivery batches: (dst, instant, is_duplicate) -> accepted
        # messages, each a (src, payload, size_bytes) triple in send order.
        # One simulator event is scheduled per key; it drains the whole
        # list at once.
        self._open_batches: Dict[
            Tuple[str, float, bool], List[Tuple[str, object, int]]
        ] = {}
        # Event label per destination (formatted once, not per event).
        self._deliver_labels: Dict[str, str] = {}
        metrics = sim.metrics
        if metrics is not None:
            # Polled only at sampler ticks / snapshots -- never on the send
            # or delivery path.
            metrics.gauge("net.in_flight_batches", lambda: len(self._open_batches))
            metrics.gauge(
                "net.in_flight_messages",
                lambda: sum(len(batch) for batch in self._open_batches.values()),
            )
        # The run's :attr:`TraceRecorder.lifecycle` (``None``: nobody asked).
        self._lifecycle = lifecycle

    def _drop(self, counter: str, frames: Sequence[object], reason: str) -> None:
        """Every way a message is lost: count it under ``counter`` and say
        why to whoever follows messages."""
        stats = self.stats
        setattr(stats, counter, getattr(stats, counter) + len(frames))
        lifecycle = self._lifecycle
        if lifecycle is not None:
            now = self.sim.now
            for frame in frames:
                lifecycle(WIRE_DROPPED, now, None, frame, reason)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def attach(self, node_id: str, deliver_batch: DeliverBatchCallback) -> None:
        """Register ``node_id`` with its delivery callback, which receives
        every message arriving at one simulated instant in one call."""
        if node_id in self._batch_callbacks:
            raise ValueError(f"node {node_id!r} already attached")
        self._batch_callbacks[node_id] = deliver_batch
        self.partitions.register(node_id)

    def detach(self, node_id: str) -> None:
        """Remove a node; pending messages to it will be dropped."""
        self._batch_callbacks.pop(node_id, None)

    @property
    def nodes(self) -> List[str]:
        """Identifiers of all attached nodes."""
        return sorted(self._batch_callbacks)

    @property
    def link_fault_model(self) -> Optional[LinkFaultModel]:
        """The attached link-fault model, if any.  Transport endpoints use
        its presence to tolerate (count and suppress) duplicate frames
        instead of treating a stale sequence number as a substrate bug."""
        return self._fault_model

    def crash(self, node_id: str) -> None:
        """Mark ``node_id`` as crashed (crash-stop: it never recovers)."""
        self._crashed.add(node_id)

    def is_crashed(self, node_id: str) -> bool:
        """Whether ``node_id`` has crashed."""
        return node_id in self._crashed

    # ------------------------------------------------------------------
    # Filters and drop windows
    # ------------------------------------------------------------------
    def add_filter(self, message_filter: MessageFilter) -> None:
        """Install a drop filter; it applies to messages sent afterwards."""
        self._filters.append(message_filter)

    def remove_filter(self, message_filter: MessageFilter) -> None:
        """Remove a previously installed filter (no-op if absent)."""
        if message_filter in self._filters:
            self._filters.remove(message_filter)

    def drop_between(
        self, src_nodes: Set[str], dst_nodes: Set[str], duration: float,
        label: str = "fault:drop-window-end",
    ) -> None:
        """Drop everything from ``src_nodes`` to ``dst_nodes`` for
        ``duration`` from now (a directed, unannounced outage)."""

        def drop_filter(src: str, dst: str, payload: object) -> bool:
            return not (src in src_nodes and dst in dst_nodes)

        self.add_filter(drop_filter)
        self.sim.schedule(duration, self.remove_filter, drop_filter, label=label)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: object, size_bytes: int = 0) -> bool:
        """Send ``payload`` from ``src`` to ``dst``: the one-destination
        :meth:`multicast`.

        Returns ``True`` if the message was accepted for (eventual)
        delivery, ``False`` if it was dropped immediately (crashed sender or
        receiver, partition, filter or link fault).  Note that acceptance
        does not guarantee delivery: an in-flight message can still be lost
        to a partition installed before its delivery time.
        """
        return self.multicast(src, (dst,), payload, size_bytes) == 1

    def multicast(
        self,
        src: str,
        dsts: Sequence[str],
        payload: object,
        size_bytes: int = 0,
        frames: Optional[Sequence[object]] = None,
    ) -> int:
        """Send from ``src`` to every destination in ``dsts``, in the
        caller's order, and return the number of sends accepted.

        This is the one send implementation.  What does not depend on the
        destination -- the sender's crash flag, the clock, the sent
        counters, which of the optional checks are in force -- is done once
        per call; each destination pays only for its own crash flag, the
        partition lookup while a partition is installed, the filters if
        any, the fault draws if a model is attached, one latency sample,
        the FIFO clamp and the batch insert.  Destinations are *not*
        sorted: the latency samples are drawn in destination order, so the
        order is part of what a seed means.

        ``frames`` is what travels to each destination when that is not
        ``payload`` itself (the transport's per-destination envelopes),
        parallel to ``dsts``.
        """
        count = len(dsts)
        stats = self.stats
        stats.messages_sent += count
        stats.bytes_sent += size_bytes * count
        if frames is None:
            frames = (payload,) * count
        crashed = self._crashed
        if src in crashed:
            self._drop("messages_dropped_crash", frames, "sender_crashed")
            return 0
        partitions = self.partitions if self.partitions.partitioned else None
        filters = self._filters
        model = self._fault_model
        sample = self.config.latency_model.sample
        rng = self.sim.rng
        now = self.sim.now
        schedule = self._schedule_delivery
        drop = self._drop
        accepted = 0
        for dst, frame in zip(dsts, frames):
            if dst in crashed:
                drop("messages_dropped_crash", (frame,), "receiver_crashed")
                continue
            if partitions is not None and not partitions.can_communicate(src, dst):
                drop("messages_dropped_partition", (frame,), "partition")
                continue
            if filters and not all(
                message_filter(src, dst, frame) for message_filter in filters
            ):
                drop("messages_dropped_filter", (frame,), "filter")
                continue
            # Link faults.  Decision order (drop, reorder, duplicate) is
            # fixed so runs are deterministic from the fault seed; each draw
            # happens only when its rate is non-zero, keeping zero-rate
            # models free.
            fault_hold = 0.0
            duplicate_delay: Optional[float] = None
            if model is not None:
                rates = model.rates_for(src, dst)
                fault_rng = self._fault_rng
                if rates.drop > 0.0 and fault_rng.random() < rates.drop:
                    drop("messages_dropped_fault", (frame,), "link_fault")
                    continue
                if rates.reorder > 0.0 and fault_rng.random() < rates.reorder:
                    fault_hold = fault_rng.uniform(*model.reorder_delay)
                    stats.messages_reordered += 1
                if rates.duplicate > 0.0 and fault_rng.random() < rates.duplicate:
                    duplicate_delay = fault_rng.uniform(*model.duplicate_delay)
                    stats.messages_duplicated += 1
            delivered_at = schedule(
                src, dst, frame, size_bytes, now + sample(rng, src, dst) + fault_hold
            )
            if duplicate_delay is not None:
                # The copy travels after the original and never advances the
                # channel's FIFO clamp: genuine traffic is not displaced, and
                # the transport endpoint recognises the stale sequence number.
                schedule(
                    src,
                    dst,
                    frame,
                    size_bytes,
                    delivered_at + duplicate_delay,
                    advance_fifo=False,
                )
            accepted += 1
        return accepted

    def _schedule_delivery(
        self,
        src: str,
        dst: str,
        payload: object,
        size_bytes: int,
        raw_time: float,
        advance_fifo: bool = True,
    ) -> float:
        """Place one message on the wire at ``raw_time``, clamped into the
        per-channel FIFO order, and return the delivery instant.

        ``advance_fifo=False`` (duplicate copies) clamps against the
        channel's last genuine delivery without moving it, so later real
        messages may land at or before the copy -- harmless, the copy is
        suppressed by its stale sequence number at the endpoint.  Copies
        are batched apart from genuine frames: a copy that opened a genuine
        ``(dst, instant)`` batch would create that batch's simulator event
        early and so reorder a genuine delivery against a same-instant
        timer, and a fault that the endpoint suppresses must not be able to
        change what the protocol sees.
        """
        channel = (src, dst)
        last_delivery_time = self._last_delivery_time
        delivery_time = last_delivery_time.get(channel, -1.0)
        config = self.config
        window = config.batch_window
        if window > 0.0:
            # Equal delivery times on one channel are fine under batching
            # (the batch preserves send order), so no epsilon spacing --
            # otherwise every message in a burst would slip a full window.
            if raw_time > delivery_time:
                delivery_time = raw_time
            # Quantise *up* so the message is never early; monotone in the
            # raw delivery time, so per-channel FIFO order is preserved.
            delivery_time = math.ceil(delivery_time / window) * window
        else:
            if advance_fifo:
                delivery_time += FIFO_EPSILON
            if raw_time > delivery_time:
                delivery_time = raw_time
        if advance_fifo:
            last_delivery_time[channel] = delivery_time
        key = (dst, delivery_time, not advance_fifo)
        batch = self._open_batches.get(key)
        if batch is None:
            self._open_batches[key] = batch = []
            self.stats.delivery_events += 1
            label = self._deliver_labels.get(dst)
            if label is None:
                label = self._deliver_labels[dst] = f"deliver ->{dst}"
            self.sim.schedule_at(delivery_time, self._deliver_batch, key, label=label)
        batch.append((src, payload, size_bytes))
        return delivery_time

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_batch(self, key: Tuple[str, float, bool]) -> None:
        """Drain one (destination, instant) batch.

        The batch is handed on as it stands -- ``(src, payload, size)``
        triples in send order -- and a filtered copy is made only while a
        partition is installed: a partition installed mid-flight must lose
        exactly the messages that crossed it, so that check stays per
        message, but the scheduling overhead is paid once per batch.
        """
        dst = key[0]
        messages = self._open_batches.pop(key, None)
        if not messages:
            return
        stats = self.stats
        if dst in self._crashed:
            frames = [message[1] for message in messages]
            self._drop("messages_dropped_crash", frames, "receiver_crashed")
            return
        partitions = self.partitions
        if partitions.partitioned:
            # A message in flight when a partition separates its ends is
            # lost (a partition "while m1 is being multicast" is the paper's).
            surviving: List[Tuple[str, object, int]] = []
            for message in messages:
                if partitions.can_communicate(message[0], dst):
                    surviving.append(message)
                    continue
                self._drop(
                    "messages_dropped_partition", (message[1],), "partition_in_flight"
                )
            if not surviving:
                return
            messages = surviving
        callback = self._batch_callbacks.get(dst)
        if callback is None:
            frames = [message[1] for message in messages]
            self._drop("messages_dropped_crash", frames, "receiver_detached")
            return
        stats.messages_delivered += len(messages)
        delivered_bytes = 0
        for message in messages:
            delivered_bytes += message[2]
        stats.bytes_delivered += delivered_bytes
        callback(messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(nodes={len(self._batch_callbacks)}, crashed={len(self._crashed)}, "
            f"partition={self.partitions.describe()!r})"
        )
