"""The sharded replicated KV store: one Newtop group per shard.

This is the production-shaped application the paper's §2 motivates total
order for: a key-space-sharded store in which **every shard is a group**
running the replicated-state-machine pattern, so

* writes to one shard are totally ordered by the protocol (no external
  consensus, no primary election -- the order *is* the delivery order),
* replica failure is the protocol's own membership problem (the suspector
  excludes the dead replica, asymmetric shards migrate their sequencer),
* rebalancing is group formation: a shard split or replica move is an
  overlapping-group dance (:mod:`repro.apps.kv.rebalance`), not an
  external control plane.

Layering::

    KVWorkload / clients        (repro.apps.kv.workload)
        |  route via HashRing   (repro.apps.kv.ring)
        v
    ShardedKV  -- shard table, submit/read, acknowledgements
        |  one group per shard generation
        v
    KVReplica  -- applies commands in delivery order  (this module)
        |
    Session / ProtocolStack / Newtop

Writes enter a shard at its **coordinator** (:meth:`ShardedKV.coordinator`):
in an asymmetric shard that is the sequencer, which orders a write and
hands its n-1 copies to the reliable channel in one step, where any other
member first pays a unicast *to* the sequencer (§4.2).  The coordinator's
own apply is the acknowledgement, so an ack means *ordered at the
coordinator and handed to the reliable channel* -- no other replica has
received the write yet (the membership protocol, not the ack, is what
carries it past the coordinator's crash).  Write latency therefore counts
replica-to-replica hops only: the simulator models no client-to-replica
hop, so a write whose client sits at the sequencer is acknowledged in the
instant it is submitted.  A symmetric shard has no coordinator; every
member multicasts directly.

Reads are served from *any* replica's locally applied prefix; clients get
read-your-writes and monotonic reads by passing ``min_position`` (their
session watermark for the shard's current generation).  A replica that has
not caught up answers ``"behind"`` and names the coordinator -- which has
applied everything it acknowledged -- for the client to retry at.  Each
shard also carries a ``read_floor`` -- the apply
position its state transfer finished at -- so immediately after a
rebalance no replica can serve a read from a prefix that misses migrated
keys.  Every apply and every served read is recorded as a
:data:`~repro.net.trace.KV_APPLY` / :data:`~repro.net.trace.KV_READ`
trace event, which is what lets the online consistency oracle
(:class:`repro.apps.kv.oracle.KVOracle`) verify per-key ordering,
read-your-writes and state-transfer integrity with zero stored events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.kv.commands import (
    META_KEY,
    MUTATING_OPS,
    apply_kv_command,
    command_info,
    fence_rejects,
    moved_keys,
    value_digest,
)
from repro.apps.kv.ring import HashRing
from repro.core.config import OrderingMode
from repro.net.trace import KV_APPLY, KV_READ

#: ``origin["client"]`` used by the rebalancer's own fence/migrate traffic;
#: control commands never touch the client-facing counters.
REBALANCE_CLIENT = "__rebalance__"


def group_name(shard_id: str, generation: int) -> str:
    """The protocol group of one shard generation."""
    return f"{shard_id}@g{generation}"


class KVReplica:
    """One process's replica of one shard group.

    Registers a delivery callback on the hosting protocol process and
    applies every command of its group in delivery order.  Tracks the
    applied ``position`` (1-based index into the shard's total order) and
    each key's last writer, which is everything a local read needs.
    """

    def __init__(
        self,
        process,
        group_id: str,
        *,
        shard_id: Optional[str] = None,
        generation: int = 1,
        store: Optional["ShardedKV"] = None,
    ) -> None:
        self.process = process
        self.group_id = group_id
        self.shard_id = shard_id or group_id
        self.generation = generation
        self.store = store
        self.state: Dict[str, Any] = {}
        #: Commands applied so far (positions are 1-based).
        self.position = 0
        #: key -> (writer message id, position of that write).
        self.last_writer: Dict[str, Tuple[str, int]] = {}
        process.add_delivery_callback(self._on_delivery)

    # ------------------------------------------------------------------
    # The replicated state machine
    # ------------------------------------------------------------------
    def _on_delivery(self, group: str, sender: str, payload: object, msg_id: str) -> None:
        if group != self.group_id:
            return
        op, key, origin = command_info(payload)
        pre_state = self.state
        rejected = op in MUTATING_OPS and fence_rejects(pre_state, key)
        self.state = apply_kv_command(pre_state, payload)
        self.position += 1
        outcome = "rejected_moved" if rejected else "applied"
        if not rejected:
            if key is not None and op in MUTATING_OPS:
                self.last_writer[key] = (msg_id, self.position)
            elif op == "migrate_in" and key is not None and key not in pre_state:
                self.last_writer[key] = (msg_id, self.position)
            elif op == "drop_moved":
                for dropped in moved_keys(pre_state):
                    self.last_writer.pop(dropped, None)
        details: Dict[str, Any] = {
            "shard": self.shard_id,
            "generation": self.generation,
            "op": op or "unknown",
            "outcome": outcome,
            "position": self.position,
        }
        if key is not None:
            details["key"] = key
            details["digest"] = (
                value_digest(self.state[key]) if key in self.state else None
            )
        if origin is not None:
            details["client"] = origin.get("client")
            details["client_op"] = origin.get("op")
            details["via"] = origin.get("via")
        if op == "migrate_in":
            meta = payload[3]
            if isinstance(meta, dict):
                details["from_shard"] = meta.get("from_shard")
                details["from_digest"] = meta.get("digest")
        self.process.recorder.record(
            self.process.sim.now,
            KV_APPLY,
            self.process.process_id,
            group=self.group_id,
            message_id=msg_id,
            sender=sender,
            **details,
        )
        if self.store is not None:
            self.store._on_apply(self, payload, msg_id, outcome, origin)

    # ------------------------------------------------------------------
    # Local reads
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Raw local read of the applied prefix (no trace event)."""
        return self.state.get(key, default)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the applied user-visible state (fence meta excluded)."""
        return {k: v for k, v in self.state.items() if k != META_KEY}

    def read(
        self,
        key: str,
        *,
        client: Optional[str] = None,
        required: int = 0,
        ring_version: Optional[int] = None,
    ) -> Tuple[Any, int, Optional[str]]:
        """Serve ``key`` from the local prefix and record the KV_READ event.

        Returns ``(value, position, writer_msg_id)``; the caller has
        already checked ``self.position >= required``.
        """
        value = self.state.get(key)
        writer = self.last_writer.get(key)
        self.process.recorder.record(
            self.process.sim.now,
            KV_READ,
            self.process.process_id,
            group=self.group_id,
            message_id=writer[0] if writer else None,
            shard=self.shard_id,
            generation=self.generation,
            key=key,
            position=self.position,
            required=required,
            client=client,
            digest=value_digest(value) if key in self.state else None,
            ring_version=ring_version,
        )
        return value, self.position, writer[0] if writer else None

    @property
    def alive(self) -> bool:
        """Whether this replica can still serve (not crashed, not departed)."""
        return not self.process.crashed and self.process.is_member(self.group_id)


@dataclass
class Shard:
    """One logical shard: a generation-versioned chain of groups."""

    shard_id: str
    generation: int
    group_id: str
    members: Tuple[str, ...]
    mode: Optional[object] = None
    replicas: Dict[str, KVReplica] = field(default_factory=dict)
    #: Minimum apply position a replica must reach before serving *any*
    #: read: set to the position state transfer finished at, so a freshly
    #: rebalanced shard cannot serve a prefix missing migrated keys.
    read_floor: int = 0
    #: Set when a replica move superseded this generation.
    retired: bool = False

    def alive_members(self) -> List[str]:
        return [pid for pid, replica in self.replicas.items() if replica.alive]

    def describe(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "generation": self.generation,
            "group": self.group_id,
            "members": list(self.members),
            "read_floor": self.read_floor,
            "retired": self.retired,
        }


@dataclass
class PendingWrite:
    """One in-flight write awaiting its coordinator apply."""

    client: str
    client_op: Any
    key: Optional[str]
    shard_id: str
    via: str
    submitted_at: float
    callback: Optional[Callable[[Dict[str, object]], None]] = None


class ShardedKV:
    """The server side of the sharded store, bound to one Session.

    The store owns the *authoritative* ring (clients cache copies) and the
    shard table mapping shard ids to their current group generation.  All
    client traffic flows through :meth:`submit` (writes; they enter at the
    shard's :meth:`coordinator` unless the caller names a replica, and are
    acknowledged at that replica's apply: ordered there and handed to the
    reliable channel, not yet received anywhere else) and :meth:`read`
    (any-replica reads with a session watermark).  Both validate the
    client's ring version and answer ``"stale_ring"`` with the current ring
    instead of silently serving a moved key -- the retry loop that makes
    rebalancing safe for stale clients.
    """

    def __init__(
        self,
        session,
        *,
        mode: Optional[object] = None,
        vnodes: int = 64,
    ) -> None:
        self.session = session
        self.mode = mode
        self.vnodes = vnodes
        self.shards: Dict[str, Shard] = {}
        self._ring: Optional[HashRing] = None
        #: (client, client_op) -> in-flight write.
        self._pending: Dict[Tuple[str, Any], PendingWrite] = {}
        self._control_seq = 0
        # Monotone server-side counters (benchmark reporting).
        self.counters: Dict[str, int] = {
            "writes_submitted": 0,
            "writes_acked": 0,
            "writes_rejected_moved": 0,
            "reads_served": 0,
            "stale_ring_rejections": 0,
            "unavailable_rejections": 0,
            "frozen_rejections": 0,
            "late_applies": 0,
        }

    # ------------------------------------------------------------------
    # Bootstrap and topology
    # ------------------------------------------------------------------
    def bootstrap(self, layout: Dict[str, Sequence[str]]) -> HashRing:
        """Create the initial shards as *static* groups (generation 1) and
        ring version 1.  ``layout`` maps shard id -> replica processes."""
        if self._ring is not None:
            raise RuntimeError("store is already bootstrapped")
        for shard_id, members in sorted(layout.items()):
            self.shards[shard_id] = self._build_shard(
                shard_id, 1, tuple(members), form=True
            )
        self._ring = HashRing(1, tuple(sorted(layout)), self.vnodes)
        return self._ring

    def _build_shard(
        self,
        shard_id: str,
        generation: int,
        members: Tuple[str, ...],
        *,
        form: bool,
    ) -> Shard:
        """Wire a shard generation: create its group statically when
        ``form`` is set (bootstrap), otherwise assume the group was just
        formed dynamically; either way register one replica per member.
        The caller decides when the shard enters :attr:`shards`."""
        gid = group_name(shard_id, generation)
        if form:
            self.session.group(gid, list(members), mode=self.mode)
        shard = Shard(shard_id, generation, gid, tuple(sorted(members)), self.mode)
        for member in shard.members:
            shard.replicas[member] = KVReplica(
                self.session[member],
                gid,
                shard_id=shard_id,
                generation=generation,
                store=self,
            )
        return shard

    @property
    def ring(self) -> HashRing:
        """The authoritative (current) ring."""
        if self._ring is None:
            raise RuntimeError("store is not bootstrapped")
        return self._ring

    def publish_ring(self, ring: HashRing) -> HashRing:
        """Install a new authoritative ring (the rebalancer's final step)."""
        if ring.version <= self.ring.version:
            raise ValueError(
                f"new ring version {ring.version} must exceed {self.ring.version}"
            )
        self._ring = ring
        return ring

    def alive_members(self, shard_id: str) -> List[str]:
        return self.shards[shard_id].alive_members()

    def coordinator(self, shard_id: str) -> Optional[str]:
        """The replica a write to ``shard_id`` should enter at, or ``None``.

        For an asymmetric shard: the alive replica its group view names
        sequencer (§4.2) -- the one member whose multicast costs n-1
        messages and no unicast first.  While the view still names a
        crashed sequencer, the answer is the alive member the failover will
        hand the duty to (the view with the dead excluded is asked, so the
        rule stays the view's own): a write submitted through it waits out
        the agreement in the engine's failover resend and is sequenced
        locally when the view installs.

        ``None`` for a symmetric shard, where every member multicasts
        directly and funnelling writes through one of them would only make
        the others owe nulls -- and for a shard with no alive replica.
        """
        shard = self.shards[shard_id]
        alive = shard.alive_members()
        if not alive:
            return None
        endpoint = self.session[alive[0]].endpoint(shard.group_id)
        if endpoint.mode != OrderingMode.ASYMMETRIC:
            return None
        view = endpoint.view
        if view.sequencer() not in alive:
            view = view.exclude(view.members.difference(alive))
        return view.sequencer()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        client: str,
        client_op: int,
        op: str,
        key: str,
        value: Any = None,
        via: Optional[str] = None,
        ring: Optional[HashRing] = None,
        callback: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Submit one client write; it enters the shard at ``via``, by
        default the shard's :meth:`coordinator` (a symmetric shard has
        none: its first alive replica, any member being as good).

        Returns ``{"status": "submitted"}`` on success; the write is
        acknowledged later, when the ``via`` replica applies it, by
        invoking ``callback`` with the outcome (``applied`` with the apply
        position, or ``rejected_moved`` with the current ring for the
        client to retry against).  The ack says the write is *ordered at
        that replica and handed to the reliable channel*; no other replica
        has received it yet.  At the sequencer that is the instant of the
        submit -- latency here counts replica-to-replica hops only.
        Staleness and liveness failures reject synchronously
        (``stale_ring`` / ``unavailable``).
        """
        ring = ring or self.ring
        target = ring.lookup(key)
        if target != self.ring.lookup(key) or target not in self.shards:
            self.counters["stale_ring_rejections"] += 1
            return {"status": "stale_ring", "ring": self.ring}
        shard = self.shards[target]
        if via is None:
            via = self.coordinator(target) or next(iter(shard.alive_members()), None)
        replica = shard.replicas.get(via)
        if replica is None or not replica.alive:
            self.counters["unavailable_rejections"] += 1
            return {"status": "unavailable", "members": shard.alive_members()}
        if fence_rejects(replica.state, key):
            # The replica already applied a fence dooming this key: refuse
            # at the front door instead of multicasting a write every
            # replica would reject -- doomed traffic through the protocol
            # would also stall the coordinator's state-transfer sends via
            # the mixed-mode blocking rule.
            self.counters["frozen_rejections"] += 1
            return {"status": "frozen", "ring": self.ring}
        origin = {"client": client, "op": client_op, "via": via}
        if op == "set":
            command: Tuple = ("set", key, value, origin)
        elif op == "delete":
            command = ("delete", key, origin)
        elif op == "increment":
            command = ("increment", key, value, origin)
        else:
            raise ValueError(f"unknown client write op {op!r}")
        self._pending[(client, client_op)] = PendingWrite(
            client, client_op, key, target, via, self.session.sim.now, callback
        )
        self.counters["writes_submitted"] += 1
        # May return None when the protocol defers the send (flow control,
        # blocking rules); the deferred send goes out automatically and the
        # acknowledgement still arrives through the origin token.
        self.session.multicast(via, shard.group_id, command)
        return {"status": "submitted", "shard": target, "group": shard.group_id}

    def _submit_control(
        self,
        via: str,
        group_id: str,
        command: Tuple,
        callback: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> str:
        """Multicast a rebalance control command (fence / migrate_in /
        drop_moved) with provenance, acknowledged like a client write but
        outside the client counters.  Returns the control token."""
        self._control_seq += 1
        token = f"ctl{self._control_seq}"
        origin = {"client": REBALANCE_CLIENT, "op": token, "via": via}
        _op, key, _ = command_info(command + (origin,))
        self._pending[(REBALANCE_CLIENT, token)] = PendingWrite(
            REBALANCE_CLIENT, token, key, group_id, via, self.session.sim.now, callback
        )
        self.session.multicast(via, group_id, command + (origin,))
        return token

    def _on_apply(
        self,
        replica: KVReplica,
        command: Any,
        msg_id: str,
        outcome: str,
        origin: Optional[Dict],
    ) -> None:
        """Replica apply hook: acknowledge the pending write when the
        coordinator (the ``via`` replica the submitter multicast through)
        applies it -- the earliest moment the client may learn its write's
        position in the shard order."""
        if origin is None or origin.get("via") != replica.process.process_id:
            return
        token = (origin.get("client"), origin.get("op"))
        pending = self._pending.pop(token, None)
        if pending is None:
            self.counters["late_applies"] += 1
            return
        if pending.client != REBALANCE_CLIENT:
            if outcome == "applied":
                self.counters["writes_acked"] += 1
            else:
                self.counters["writes_rejected_moved"] += 1
        if pending.callback is not None:
            ack = {
                "status": outcome,
                "key": pending.key,
                "shard": replica.shard_id,
                "generation": replica.generation,
                "position": replica.position,
                "message_id": msg_id,
                "submitted_at": pending.submitted_at,
                "ring": self.ring,
            }
            # Fire the acknowledgement in a fresh simulator event (same
            # instant), never inside the delivery call stack: a callback
            # that multicasts (the rebalancer's fence -> migrate -> drop
            # chain) would otherwise nest its send inside another
            # message's in-flight transmit and invert the recorded send
            # order that the causal checker audits.
            self.session.sim.schedule(0.0, pending.callback, ack, label="kv_ack")

    def pending_writes(self) -> int:
        """Writes submitted but not yet acknowledged (in flight, or lost
        to a crashed coordinator -- the benchmark reports the residue)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self,
        *,
        client: str,
        key: str,
        via: str,
        ring: Optional[HashRing] = None,
        min_position: int = 0,
    ) -> Dict[str, object]:
        """Serve ``key`` from the ``via`` replica's applied prefix.

        ``min_position`` is the client's session watermark for the shard's
        current generation (read-your-writes + monotonic reads); together
        with the shard's ``read_floor`` it sets the position the replica
        must have applied, else the answer is ``"behind"`` and the client
        retries -- at the ``coordinator`` the answer names, which has
        applied every write it acknowledged, or after a back-off where the
        shard has none (symmetric).
        """
        ring = ring or self.ring
        target = ring.lookup(key)
        if target != self.ring.lookup(key) or target not in self.shards:
            self.counters["stale_ring_rejections"] += 1
            return {"status": "stale_ring", "ring": self.ring}
        shard = self.shards[target]
        replica = shard.replicas.get(via)
        if replica is None or not replica.alive:
            self.counters["unavailable_rejections"] += 1
            return {"status": "unavailable", "members": shard.alive_members()}
        required = max(min_position, shard.read_floor)
        if replica.position < required:
            return {
                "status": "behind",
                "position": replica.position,
                "required": required,
                "generation": shard.generation,
                "coordinator": self.coordinator(target),
            }
        value, position, writer = replica.read(
            key, client=client, required=required, ring_version=ring.version
        )
        self.counters["reads_served"] += 1
        return {
            "status": "ok",
            "value": value,
            "shard": target,
            "generation": shard.generation,
            "position": position,
            "writer": writer,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "ring": self.ring.describe(),
            "shards": {sid: shard.describe() for sid, shard in self.shards.items()},
            "counters": dict(self.counters),
            "pending_writes": self.pending_writes(),
        }

    def converged(self, shard_id: str) -> bool:
        """Whether the alive replicas of a shard agree: any two at the
        same apply position hold identical state."""
        shard = self.shards[shard_id]
        by_position: Dict[int, str] = {}
        for replica in shard.replicas.values():
            if not replica.alive:
                continue
            digest = value_digest(tuple(sorted(replica.snapshot().items())))
            seen = by_position.get(replica.position)
            if seen is not None and seen != digest:
                return False
            by_position[replica.position] = digest
        return True
