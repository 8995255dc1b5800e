"""Rebalancing and replica placement as *protocol* events.

The point of this module is that the sharded store needs no external
control plane: splitting a shard and moving a replica set are both the
paper's overlapping-group recipe (§2 / §5.3, the server-migration
scenario) driven entirely through the public protocol API, while client
traffic keeps flowing.

A **shard split** (``split_shard``) moves part of a shard's key space to
a brand-new shard:

1. *form* -- an overlap member of the source shard initiates dynamic
   formation of the new shard's group (the other members vote; the
   start-group messages flush per §5.3);
2. *fence* -- a ``("fence", {"ring": .., "to_shard": ..})`` command is
   multicast in the **source** group.  It occupies one position in the
   shard's total order, so every replica rejects exactly the same suffix
   of mutations on moved keys, and the state at the fence position is a
   deterministic migration snapshot;
3. *migrate* -- the coordinator multicasts one ``migrate_in`` per moved
   key into the new group, each carrying the source digest for the
   oracle's transfer-integrity check;
4. *publish* -- only after every ``migrate_in`` is applied at the
   coordinator does the store publish the new ring (version + 1).  The
   new shard's ``read_floor`` is set to the coordinator's apply position,
   so no replica can serve a read from a prefix missing migrated keys.
   Stale clients now get ``stale_ring`` + the new ring and retry;
5. *drop* -- a ``drop_moved`` command garbage-collects the moved keys
   from the source shard (the fence stays: late stale writes keep being
   rejected deterministically).

A **replica move** (``move_replica``) rehosts a whole shard on a new
member set: same dance with a ``freeze_all`` fence and a full-state
transfer, then the store's shard table swaps to the new generation
(``shard@gN+1``) and the old members *voluntarily depart* their group --
the ring does not change, because the ring maps keys to shard ids, not
to groups.

Everything is event-driven (``sim.schedule`` polls plus apply
acknowledgements), so rebalances overlap live client traffic -- which is
exactly what experiment E26 measures: the availability cost, per shard,
of rebalancing under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps.kv.commands import moved_keys, value_digest
from repro.apps.kv.ring import HashRing
from repro.apps.kv.store import Shard, ShardedKV, group_name


@dataclass
class RebalanceReport:
    """Timeline of one rebalance operation (simulated-time stamps)."""

    kind: str  # "split" | "move"
    shard: str
    target: str  # new shard id (split) or new group id (move)
    started_at: float
    formed_at: Optional[float] = None
    fenced_at: Optional[float] = None
    migrated_at: Optional[float] = None
    published_at: Optional[float] = None
    dropped_at: Optional[float] = None
    moved_keys: int = 0
    failed: Optional[str] = None
    #: Ordered (stamp, step) pairs for human-readable reports.
    timeline: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.published_at is not None and self.failed is None

    @property
    def duration(self) -> Optional[float]:
        if self.published_at is None:
            return None
        return self.published_at - self.started_at

    def _mark(self, now: float, step: str) -> None:
        self.timeline.append((now, step))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "target": self.target,
            "started_at": self.started_at,
            "formed_at": self.formed_at,
            "fenced_at": self.fenced_at,
            "migrated_at": self.migrated_at,
            "published_at": self.published_at,
            "dropped_at": self.dropped_at,
            "moved_keys": self.moved_keys,
            "duration": self.duration,
            "complete": self.complete,
            "failed": self.failed,
        }


class Rebalancer:
    """Drives splits and replica moves against one :class:`ShardedKV`.

    Both operations return a :class:`RebalanceReport` immediately and
    complete asynchronously as the simulation runs; poll
    ``report.complete`` (e.g. with ``session.run_until``) or just keep
    running the workload -- that is the intended usage.
    """

    #: How often (simulated time) formation progress is polled.
    POLL_INTERVAL = 1.0
    #: Give up on a formation that never completes (partition, crashes).
    FORMATION_TIMEOUT = 300.0

    def __init__(self, store: ShardedKV) -> None:
        self.store = store
        self.session = store.session
        self.reports: List[RebalanceReport] = []

    # ------------------------------------------------------------------
    # Shard split
    # ------------------------------------------------------------------
    def split_shard(
        self,
        source_shard: str,
        new_shard: str,
        members: List[str],
    ) -> RebalanceReport:
        """Split ``source_shard``: create ``new_shard`` on ``members`` and
        migrate the keys the grown ring assigns to it.

        ``members`` must overlap the source shard's alive replicas -- the
        overlap member coordinates (initiates formation, multicasts the
        fence into the old group and the state into the new one), exactly
        the paper's Fig.-1 role of ``P1``.
        """
        if new_shard in self.store.shards:
            raise ValueError(f"shard {new_shard!r} already exists")
        source = self.store.shards[source_shard]
        coordinator = self._pick_coordinator(source, members)
        report = RebalanceReport(
            "split", source_shard, new_shard, self.session.sim.now
        )
        report._mark(report.started_at, f"formation initiated by {coordinator}")
        self.reports.append(report)
        # Split form: the new shard subdivides ONLY the source's key
        # space.  A plain with_shard would steal arcs from every shard,
        # but only the source gets fenced and migrated -- keys moving from
        # any other shard would be silently lost.
        new_ring = self.store.ring.with_shard(new_shard, split_from=source_shard)
        gid = group_name(new_shard, 1)
        self.session[coordinator].form_group(gid, members, mode=self.store.mode)

        def on_formed() -> None:
            report.formed_at = self.session.sim.now
            report._mark(report.formed_at, f"group {gid} formed")
            # Wire the new shard's replicas now -- unreachable by clients
            # until the ring is published, but ready to apply migrations.
            shard = self.store._build_shard(
                new_shard, 1, tuple(members), form=False
            )
            self.store.shards[new_shard] = shard
            self._fence_and_migrate(
                report,
                source,
                shard,
                coordinator,
                fence={"ring": new_ring.describe(), "to_shard": new_shard},
                on_migrated=lambda position: self._publish_split(
                    report, source, shard, coordinator, new_ring, position
                ),
            )

        self._await_formation(report, gid, members, on_formed)
        return report

    def _publish_split(
        self,
        report: RebalanceReport,
        source: Shard,
        shard: Shard,
        coordinator: str,
        new_ring: HashRing,
        floor_position: int,
    ) -> None:
        shard.read_floor = floor_position
        self.store.publish_ring(new_ring)
        report.published_at = self.session.sim.now
        report._mark(report.published_at, f"ring v{new_ring.version} published")
        # The moved keys are now served by the new shard; garbage-collect
        # them from the source (the fence stays installed).
        def on_dropped(ack: Dict[str, object]) -> None:
            report.dropped_at = self.session.sim.now
            report._mark(report.dropped_at, "moved keys dropped at source")

        self.store._submit_control(
            coordinator, source.group_id, ("drop_moved",), on_dropped
        )

    # ------------------------------------------------------------------
    # Replica move
    # ------------------------------------------------------------------
    def move_replica(
        self,
        shard_id: str,
        new_members: List[str],
    ) -> RebalanceReport:
        """Rehost ``shard_id`` on ``new_members`` (next group generation).

        The old generation is frozen (``freeze_all`` fence), its state
        transferred into the freshly formed ``shard@gN+1`` group, the
        store's shard table swapped, and the old members depart their
        group voluntarily.  The ring is untouched: ownership of keys did
        not change, only placement."""
        old = self.store.shards[shard_id]
        coordinator = self._pick_coordinator(old, new_members)
        generation = old.generation + 1
        gid = group_name(shard_id, generation)
        report = RebalanceReport("move", shard_id, gid, self.session.sim.now)
        report._mark(report.started_at, f"formation initiated by {coordinator}")
        self.reports.append(report)
        self.session[coordinator].form_group(gid, new_members, mode=self.store.mode)

        def on_formed() -> None:
            report.formed_at = self.session.sim.now
            report._mark(report.formed_at, f"group {gid} formed")
            shard = self.store._build_shard(
                shard_id, generation, tuple(new_members), form=False
            )
            # NOT yet in store.shards: the old generation keeps serving
            # until the transfer completes.
            self._fence_and_migrate(
                report,
                old,
                shard,
                coordinator,
                fence={"freeze_all": True},
                on_migrated=lambda position: self._swap_generation(
                    report, old, shard, position
                ),
            )

        self._await_formation(report, gid, new_members, on_formed)
        return report

    def _swap_generation(
        self,
        report: RebalanceReport,
        old: Shard,
        shard: Shard,
        floor_position: int,
    ) -> None:
        shard.read_floor = floor_position
        self.store.shards[shard.shard_id] = shard
        old.retired = True
        report.published_at = self.session.sim.now
        report._mark(
            report.published_at, f"shard table swapped to generation {shard.generation}"
        )
        # Old members depart voluntarily; remaining ones agree on the
        # shrinking views until the old group winds down (§5.2).
        for member in old.members:
            if old.replicas[member].alive:
                self.session.leave(member, old.group_id)
        report._mark(self.session.sim.now, f"old group {old.group_id} departed")

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def _pick_coordinator(self, source: Shard, members: List[str]) -> str:
        """The overlap member that drives the rebalance: the source
        shard's write coordinator when it is one of them (its fence and
        ``drop_moved`` then cost no hop to the sequencer), else the first."""
        overlap = [m for m in members if m in source.replicas and source.replicas[m].alive]
        if not overlap:
            raise ValueError(
                f"new members {members} must overlap shard {source.shard_id!r}'s "
                f"alive replicas {source.alive_members()}"
            )
        coordinator = self.store.coordinator(source.shard_id)
        return coordinator if coordinator in overlap else overlap[0]

    def _await_formation(self, report, gid, members, on_formed) -> None:
        """Poll until every member activated the group and left the §5.3
        step-5 formation wait, then fire ``on_formed`` exactly once."""
        sim = self.session.sim
        deadline = sim.now + self.FORMATION_TIMEOUT

        def poll() -> None:
            if report.failed is not None:
                return
            ready = all(
                self.session[m].is_member(gid)
                and not self.session[m].endpoint(gid).in_formation_wait
                for m in members
                if not self.session[m].crashed
            ) and any(not self.session[m].crashed for m in members)
            if ready:
                on_formed()
                return
            if sim.now >= deadline:
                report.failed = f"formation of {gid} timed out"
                report._mark(sim.now, report.failed)
                return
            sim.schedule(self.POLL_INTERVAL, poll, label="kv_rebalance_poll")

        sim.schedule(self.POLL_INTERVAL, poll, label="kv_rebalance_poll")

    def _fence_and_migrate(
        self,
        report: RebalanceReport,
        source: Shard,
        target: Shard,
        coordinator: str,
        fence: Dict[str, object],
        on_migrated,
    ) -> None:
        """Fence the source group, snapshot the fenced-out keys at the
        coordinator's apply position, stream them into the target group,
        and call ``on_migrated(coordinator_target_position)`` once every
        transfer is applied at the coordinator."""

        def on_fenced(ack: Dict[str, object]) -> None:
            report.fenced_at = self.session.sim.now
            report._mark(report.fenced_at, f"fence applied at position {ack['position']}")
            state = source.replicas[coordinator].state
            if fence.get("freeze_all"):
                plan = sorted(k for k in source.replicas[coordinator].snapshot())
            else:
                plan = moved_keys(state)
            report.moved_keys = len(plan)
            remaining = {"count": len(plan)}

            def finish() -> None:
                report.migrated_at = self.session.sim.now
                report._mark(
                    report.migrated_at, f"{report.moved_keys} keys migrated"
                )
                on_migrated(target.replicas[coordinator].position)

            if not plan:
                finish()
                return

            def on_one_migrated(ack: Dict[str, object]) -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    finish()

            frozen = source.replicas[coordinator].state
            for key in plan:
                meta = {
                    "from_shard": source.shard_id,
                    "from_position": ack["position"],
                    "digest": value_digest(frozen[key]),
                }
                self.store._submit_control(
                    coordinator,
                    target.group_id,
                    ("migrate_in", key, frozen[key], meta),
                    on_one_migrated,
                )

        self.store._submit_control(
            coordinator, source.group_id, ("fence", dict(fence)), on_fenced
        )
