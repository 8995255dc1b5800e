"""A sharded replicated KV store built from Newtop groups.

Run with::

    python examples/kv_demo.py

Three shards, each a three-replica Newtop group in asymmetric (fixed
sequencer) mode, behind a consistent-hash ring (:mod:`repro.apps.kv`).
Every write is totally ordered within its shard by the protocol itself --
the replicas are deterministic state machines over the delivery order --
and the :class:`~repro.apps.kv.KVOracle` audits per-key linearizability,
read-your-writes and migration integrity online, from the live trace.

The demo then exercises the two operational moves the subsystem turns
into *protocol* events, no control plane required:

* **crash failover** -- the sequencer of shard ``s1`` crash-stops; the
  membership service excludes it, sequencer duty migrates to the next
  member, and the shard keeps accepting writes;
* **live split** -- shard ``s0`` is split onto a new shard via dynamic
  group formation (§5.3), a fence command in the source's total order, a
  keyed state transfer, and a new ring version.  Clients holding the old
  ring get ``stale_ring`` + the new ring and retry.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import Session
from repro.apps.kv import KVOracle, Rebalancer, ShardedKV
from repro.core.config import OrderingMode

LAYOUT = {
    "s0": ["s0r0", "s0r1", "s0r2"],
    "s1": ["s1r0", "s1r1", "s1r2"],
    "s2": ["s2r0", "s2r1", "s2r2"],
}
SPARES = ["x0", "x1"]


def put(session, store, client, op, key, value, ring=None):
    """Submit one write through ``ring`` (default: the current one) and
    wait for the acknowledgement from the coordinator's apply (the store
    picks the coordinator: the shard's sequencer)."""
    ring = ring or store.ring
    acks = []
    outcome = store.submit(
        client=client, client_op=op, op="set", key=key, value=value,
        ring=ring, callback=acks.append,
    )
    if outcome["status"] != "submitted":  # stale ring / frozen / unavailable
        return outcome
    session.run_until(lambda: bool(acks), timeout=60)
    return acks[0]


def get(session, store, client, key):
    shard = store.ring.lookup(key)
    return store.read(
        client=client, key=key, via=store.coordinator(shard),
        ring=store.ring, min_position=0,
    )


def main():
    oracle = KVOracle()
    session = Session("newtop", seed=4, analysis="online", sinks=[oracle])
    session.spawn([pid for members in LAYOUT.values() for pid in members])
    session.spawn(SPARES)
    store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
    store.bootstrap(LAYOUT)
    session.run(1.0)

    print("== bootstrap ==")
    print(f"ring v{store.ring.version}: shards {list(store.ring.shards)}")
    for index in range(12):
        key = f"user:{index}"
        ack = put(session, store, "demo", index, key, f"profile-{index}")
        print(f"  set {key:8s} -> shard {ack['shard']} position {ack['position']}")

    print("== crash failover (sequencer of s1) ==")
    session.crash("s1r0")
    session.run(10.0)  # suspicion -> membership exclusion -> new sequencer
    ack = put(session, store, "demo", 100, "after-crash", "still-writable")
    print(f"  s1 members now {store.alive_members('s1')}")
    print(f"  set after-crash -> shard {ack['shard']} position {ack['position']}")

    print("== live split of s0 onto a new shard s3 ==")
    old_ring = store.ring
    coordinator = store.coordinator("s0")
    report = Rebalancer(store).split_shard("s0", "s3", [coordinator, *SPARES])
    session.run_until(lambda: report.complete or report.failed, timeout=120)
    print(f"  {report.describe()['kind']} moved {report.moved_keys} keys in "
          f"{report.duration:.1f}s; ring now v{store.ring.version}")
    moved = next(
        key for index in range(1000)
        for key in (f"user:{index}",)
        if old_ring.lookup(key) != store.ring.lookup(key)
    )
    stale = put(session, store, "demo", 200, moved, "stale-route", ring=old_ring)
    print(f"  client on ring v{old_ring.version} writing {moved!r} got "
          f"{stale['status']!r}; retrying on v{stale['ring'].version}")
    ack = put(session, store, "demo", 201, moved, "fresh-route")
    print(f"  set {moved!r} -> shard {ack['shard']} (owner under the new ring)")
    read = get(session, store, "demo", moved)
    print(f"  get {moved!r} -> {read['value']!r} from shard {read['shard']}")

    session.run(20.0)
    result = session.result()
    print("== report ==")
    for shard in sorted(store.shards):
        if store.shards[shard].retired:
            continue
        replicas = store.shards[shard]
        print(f"  {shard}: members {replicas.alive_members()} "
              f"converged={store.converged(shard)}")
    print(f"  protocol checks passed: {result.passed}  "
          f"(trace events stored: {result.trace_events_stored})")
    summary = oracle.summary()
    print(f"  KV oracle passed: {summary['passed']}  "
          f"({summary['applies_checked']} applies, "
          f"{summary['reads_checked']} reads checked online)")
    assert result.passed and summary["passed"]


if __name__ == "__main__":
    main()
