"""Propagation-graph multicast for overlapping groups (Garcia-Molina &
Spauster style) baseline.

§4.2 of the Newtop paper contrasts its asymmetric protocol with the ordered
multicast of Garcia-Molina & Spauster [9], which handles overlapping groups
by routing every multicast through a *propagation graph* (a forest): each
group is assigned a starting node (a common ancestor of all its members),
messages are sent to that node, and they propagate down the tree so that
messages destined for the same process arrive along a single ordered path.
The cost Newtop avoids is structural: overlapping groups must share parts
of the tree, every message travels extra hops through intermediate nodes,
and the tree must be rebuilt when membership changes.

The implementation here builds the standard construction: groups are sorted
by size, each group's starting node is the root of the subtree containing
all its members (creating a fresh chain node when none exists), and
messages traverse the tree edges in FIFO order.  It supports multiple
overlapping groups -- that is the whole point -- and reports per-message
hop counts and overhead so experiment E13 can compare it with Newtop's
coordination-free sequencers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import BaselineDelivery, next_baseline_message_id
from repro.core.messages import MESSAGE_ID_BYTES, SCALAR_BYTES, TAG_BYTES, estimate_payload_bytes
from repro.net.latency import LatencyModel
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.transport import Transport, TransportMessage


@dataclass(frozen=True)
class _PropagatedMessage:
    """A multicast travelling down the propagation graph."""

    msg_id: str
    origin: str
    group: str
    members: Tuple[str, ...]
    payload: object
    hops: int = 0

    def overhead_bytes(self) -> int:
        return (
            MESSAGE_ID_BYTES
            + 2 * SCALAR_BYTES
            + TAG_BYTES
            + len(self.members) * SCALAR_BYTES
        )


class _GraphNode:
    """One process in the propagation graph."""

    def __init__(self, network: "PropagationGraphNetwork", process_id: str) -> None:
        self.network = network
        self.process_id = process_id
        self.children: List[str] = []
        self.delivered: List[BaselineDelivery] = []
        self.endpoint = network.transport.endpoint(process_id)
        self.endpoint.register_handler("propagation", self._on_transport_run)
        self.protocol_bytes_sent = 0

    def _on_transport_run(self, messages: List[TransportMessage]) -> None:
        for tmsg in messages:
            message = tmsg.payload
            if not isinstance(message, _PropagatedMessage):  # pragma: no cover - defensive
                raise TypeError(f"unexpected propagation payload {message!r}")
            self.handle(message)

    def handle(self, message: _PropagatedMessage) -> None:
        """Deliver locally if we are a destination, then forward downwards."""
        if self.process_id in message.members:
            self.delivered.append(
                BaselineDelivery(
                    msg_id=message.msg_id,
                    sender=message.origin,
                    payload=message.payload,
                    time=self.network.sim.now,
                )
            )
        forwarded = _PropagatedMessage(
            msg_id=message.msg_id,
            origin=message.origin,
            group=message.group,
            members=message.members,
            payload=message.payload,
            hops=message.hops + 1,
        )
        for child in self.children:
            if self.network.subtree_intersects(child, set(message.members)):
                size = forwarded.overhead_bytes() + estimate_payload_bytes(message.payload)
                self.protocol_bytes_sent += forwarded.overhead_bytes()
                self.endpoint.send(child, forwarded, channel="propagation", size_bytes=size)
                self.network.total_hops += 1


class PropagationGraphNetwork:
    """A propagation forest over a set of processes and overlapping groups."""

    def __init__(
        self,
        groups: Dict[str, Sequence[str]],
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> None:
        self.sim = Simulator(seed=seed)
        network_config = NetworkConfig()
        if latency_model is not None:
            network_config.latency_model = latency_model
        self.network = Network(self.sim, network_config)
        self.transport = Transport(self.network)
        self.groups: Dict[str, Tuple[str, ...]] = {
            group: tuple(sorted(members)) for group, members in groups.items()
        }
        self.nodes: Dict[str, _GraphNode] = {}
        #: Root (starting node) per group.
        self.start_node: Dict[str, str] = {}
        #: Parent pointers of the forest.
        self.parent: Dict[str, Optional[str]] = {}
        self.total_hops = 0
        self._build_graph()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _node(self, process_id: str) -> _GraphNode:
        if process_id not in self.nodes:
            self.nodes[process_id] = _GraphNode(self, process_id)
            self.parent.setdefault(process_id, None)
        return self.nodes[process_id]

    def _root_of(self, process_id: str) -> str:
        current = process_id
        while self.parent.get(current) is not None:
            current = self.parent[current]
        return current

    def _build_graph(self) -> None:
        """Groups are processed largest-first; each group's members are
        hung under a single starting node, merging trees where groups
        overlap (the classic Garcia-Molina & Spauster construction)."""
        ordered_groups = sorted(
            self.groups.items(), key=lambda item: (-len(item[1]), item[0])
        )
        for group, members in ordered_groups:
            for member in members:
                self._node(member)
            roots = []
            for member in members:
                root = self._root_of(member)
                if root not in roots:
                    roots.append(root)
            start = roots[0]
            for other_root in roots[1:]:
                self.parent[other_root] = start
                self._node(start).children.append(other_root)
            self.start_node[group] = self._root_of(start)

    def subtree_intersects(self, node_id: str, members: Set[str]) -> bool:
        """Whether the subtree rooted at ``node_id`` contains any member."""
        if node_id in members:
            return True
        return any(
            self.subtree_intersects(child, members)
            for child in self._node(node_id).children
        )

    # ------------------------------------------------------------------
    # Multicasting
    # ------------------------------------------------------------------
    def multicast(self, origin: str, group: str, payload: object) -> str:
        """Send a multicast in ``group``: route it to the group's starting
        node, from which it propagates down the forest."""
        members = self.groups[group]
        message = _PropagatedMessage(
            msg_id=next_baseline_message_id(origin),
            origin=origin,
            group=group,
            members=members,
            payload=payload,
        )
        start = self.start_node[group]
        origin_node = self._node(origin)
        if origin == start:
            origin_node.handle(message)
        else:
            size = message.overhead_bytes() + estimate_payload_bytes(payload)
            origin_node.protocol_bytes_sent += message.overhead_bytes()
            origin_node.endpoint.send(start, message, channel="propagation", size_bytes=size)
            self.total_hops += 1
        return message.msg_id

    # ------------------------------------------------------------------
    # Running and inspection
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration``."""
        self.sim.run(until=self.sim.now + duration)

    def delivered_ids(self, process_id: str) -> List[str]:
        """Message ids delivered at ``process_id`` in arrival order."""
        return [delivery.msg_id for delivery in self._node(process_id).delivered]

    def depth_of(self, process_id: str) -> int:
        """Distance from ``process_id`` to the root of its tree."""
        depth = 0
        current = process_id
        while self.parent.get(current) is not None:
            current = self.parent[current]
            depth += 1
        return depth
