"""Tier-1 tests for the sharded KV subsystem (``repro.apps.kv``).

Covers the ring (determinism, minimal movement), the command algebra
(fence / migrate / drop semantics, origin-provenance parsing), the
sharded store (convergence, read-your-writes, crash failover), both
rebalance operations (split with stale-client retry, replica move with
generation bump and voluntary departure), and the online KV oracle --
including mutation tests proving it actually *detects* violations, not
just passes clean runs.
"""

import pytest

from repro.api import Session
from repro.apps.kv import (
    HashRing,
    KVOracle,
    KVWorkload,
    META_KEY,
    Rebalancer,
    ShardedKV,
    apply_kv_command,
    command_info,
    fence_rejects,
    group_name,
    moved_keys,
    stable_hash,
)
from repro.apps.replicated_store import ReplicatedStore
from repro.core.config import OrderingMode
from repro.net.trace import TraceEvent
from repro.workloads.arrivals import DeterministicArrivals

LAYOUT = {
    "s0": ["s0r0", "s0r1", "s0r2"],
    "s1": ["s1r0", "s1r1", "s1r2"],
}


def make_store(mode=OrderingMode.SYMMETRIC, seed=3, layout=LAYOUT, spares=()):
    oracle = KVOracle()
    session = Session("newtop", seed=seed, analysis="online", sinks=[oracle])
    session.spawn([pid for members in layout.values() for pid in members])
    if spares:
        session.spawn(list(spares))
    store = ShardedKV(session, mode=mode)
    store.bootstrap(layout)
    session.run(1.0)
    return session, store, oracle


def put(session, store, client, op, key, value, ring=None):
    acks = []
    outcome = store.submit(
        client=client, client_op=op, op="set", key=key, value=value,
        via=store.alive_members(store.ring.lookup(key))[0],
        ring=ring or store.ring, callback=acks.append,
    )
    if outcome["status"] != "submitted":
        return outcome
    assert session.run_until(lambda: bool(acks), timeout=60)
    return acks[0]


# ----------------------------------------------------------------------
# Ring
# ----------------------------------------------------------------------
def test_ring_lookup_is_deterministic_and_total():
    ring = HashRing(1, ("s0", "s1", "s2"))
    again = HashRing(1, ("s2", "s1", "s0"))  # order-insensitive
    keys = [f"k{i}" for i in range(500)]
    assert [ring.lookup(k) for k in keys] == [again.lookup(k) for k in keys]
    assert {ring.lookup(k) for k in keys} == {"s0", "s1", "s2"}
    assert stable_hash("k1") == stable_hash("k1")
    assert stable_hash("k1") != stable_hash("k2")


def test_ring_add_shard_moves_only_a_fraction():
    ring = HashRing(1, ("s0", "s1", "s2"))
    grown = ring.with_shard("s3")
    keys = [f"k{i}" for i in range(2000)]
    moved = [k for k in keys if ring.lookup(k) != grown.lookup(k)]
    # Consistent hashing: only keys now owned by the new shard move, and
    # they all move *to* it -- roughly 1/4 of the space, never a reshuffle.
    assert all(grown.lookup(k) == "s3" for k in moved)
    assert 0 < len(moved) < len(keys) / 2
    assert grown.version == 2
    shrunk = grown.without_shard("s3")
    assert shrunk.version == 3
    assert [shrunk.lookup(k) for k in keys] == [ring.lookup(k) for k in keys]


def test_ring_split_moves_only_the_sources_keys():
    ring = HashRing(1, ("s0", "s1", "s2"))
    split = ring.with_shard("s3", split_from="s2")
    keys = [f"k{i}" for i in range(2000)]
    for key in keys:
        old, new = ring.lookup(key), split.lookup(key)
        if old != "s2":
            assert new == old  # untouched shards keep every key
        else:
            assert new in ("s2", "s3")
    stolen = sum(ring.lookup(k) == "s2" and split.lookup(k) == "s3" for k in keys)
    owned = sum(ring.lookup(k) == "s2" for k in keys)
    assert 0 < stolen < owned  # a real subdivision, not all or nothing
    # Splits nest: splitting the child touches only the child's keys.
    deeper = split.with_shard("s4", split_from="s3")
    for key in keys:
        if split.lookup(key) != "s3":
            assert deeper.lookup(key) == split.lookup(key)
    # Merging the child back restores the parent's ownership.
    merged = deeper.without_shard("s4")
    assert [merged.lookup(k) for k in keys] == [split.lookup(k) for k in keys]
    with pytest.raises(ValueError):
        split.with_shard("s9", split_from="missing")
    with pytest.raises(ValueError):
        deeper.without_shard("s3")  # still has split children


def test_ring_describe_round_trips_and_validates():
    ring = HashRing(4, ("a", "b"), vnodes=16)
    clone = HashRing.from_description(ring.describe())
    assert clone == ring
    split = ring.with_shard("c", split_from="b")
    assert HashRing.from_description(split.describe()) == split
    with pytest.raises(ValueError):
        HashRing(0, ("a",))
    with pytest.raises(ValueError):
        HashRing(1, ())
    with pytest.raises(ValueError):
        HashRing(1, ("a", "a"))


def test_ring_remembers_routes_and_a_description_names_one_ring(monkeypatch):
    ring = HashRing(2, ("a", "b", "c", "d"), vnodes=16, splits=(("a", "c"), ("c", "d")))
    keys = [f"k{i}" for i in range(300)]
    routed = [ring._route(key) for key in keys]
    assert {"a", "b", "c", "d"} == set(routed)
    assert [ring.lookup(key) for key in keys] == routed  # fills the memo
    assert [ring.lookup(key) for key in keys] == routed  # answers from it
    # Equal rings route alike whatever either has been asked before.
    assert [HashRing.from_description(ring.describe()).lookup(k) for k in keys] == routed
    # The memo is not part of the value ...
    fresh = HashRing(2, ("d", "c", "b", "a"), vnodes=16, splits=(("a", "c"), ("c", "d")))
    assert fresh == ring and hash(fresh) == hash(ring)
    # ... a description names one ring object, however often it is asked ...
    assert HashRing.from_description(ring.describe()) is HashRing.from_description(
        fresh.describe()
    )
    # ... and a memo that reaches its bound starts over without a wrong answer.
    monkeypatch.setattr("repro.apps.kv.ring._LOOKUP_MEMO_LIMIT", 7)
    assert [fresh.lookup(key) for key in keys] == routed
    assert len(fresh._owner_of) <= 7


# ----------------------------------------------------------------------
# Command algebra
# ----------------------------------------------------------------------
def test_commands_apply_set_delete_increment():
    state = apply_kv_command({}, ("set", "k", 1))
    assert state == {"k": 1}
    state = apply_kv_command(state, ("increment", "k", 4))
    assert state["k"] == 5
    state = apply_kv_command(state, ("delete", "k"))
    assert "k" not in state


def test_fence_dooms_moved_keys_deterministically():
    ring = HashRing(2, ("s0", "s1", "sN"), splits=(("s0", "sN"),))
    fence = {"ring": ring.describe(), "to_shard": "sN"}
    state = {f"k{i}": i for i in range(50)}
    state = apply_kv_command(state, ("fence", fence))
    assert META_KEY in state
    doomed = [k for k in sorted(state) if k != META_KEY
              and fence_rejects(state, k)]
    assert doomed == [k for k in sorted(state) if k != META_KEY
                      and ring.lookup(k) == "sN"]
    assert moved_keys(state) == doomed
    # Post-fence mutations of doomed keys reject; others still apply.
    after = apply_kv_command(state, ("set", doomed[0], 99))
    assert after[doomed[0]] == state[doomed[0]]  # rejected, unchanged
    survivor = next(k for k in state if k != META_KEY and k not in doomed)
    after = apply_kv_command(state, ("set", survivor, 99))
    assert after[survivor] == 99
    # drop_moved garbage-collects exactly the doomed keys, keeps the fence.
    state = apply_kv_command(state, ("drop_moved",))
    assert META_KEY in state and not any(k in state for k in doomed)


def test_migrate_in_is_first_writer_wins():
    state = apply_kv_command({}, ("migrate_in", "k", 7, {}))
    assert state["k"] == 7
    state = apply_kv_command(state, ("set", "k", 8))
    state = apply_kv_command(state, ("migrate_in", "k", 7, {}))
    assert state["k"] == 8  # the migrated copy never clobbers a newer write


def test_command_info_parses_origin_strictly_by_arity():
    origin = {"client": "c1", "op": 4, "via": "p"}
    assert command_info(("set", "k", "v", origin)) == ("set", "k", origin)
    assert command_info(("set", "k", "v")) == ("set", "k", None)
    # A dict *value* must not be mistaken for provenance.
    assert command_info(("set", "k", {"client": "x"})) == ("set", "k", None)
    assert command_info(("bogus",)) == (None, None, None)
    assert command_info("not-a-tuple") == (None, None, None)


def test_replicated_store_is_single_shard_special_case():
    # Satellite (a): one KV implementation -- the standalone store's
    # command interpreter *is* the sharded one's.
    session = Session("newtop", seed=1)
    session.spawn(["P1", "P2"])
    session.group("kv")
    store = ReplicatedStore(session["P1"], "kv")
    assert store.rsm.replica.apply_function is apply_kv_command


# ----------------------------------------------------------------------
# Sharded store
# ----------------------------------------------------------------------
def test_single_shard_write_read_and_convergence():
    session, store, oracle = make_store()
    for index in range(8):
        ack = put(session, store, "c1", index, f"key{index}", index)
        assert ack["status"] == "applied"
    session.run(20.0)
    for shard in store.shards:
        assert store.converged(shard)
    read = store.read(
        client="c1", key="key3",
        via=store.alive_members(store.ring.lookup("key3"))[0],
        ring=store.ring, min_position=0,
    )
    assert read["status"] == "ok" and read["value"] == 3
    result = session.result()
    assert result.passed and result.trace_events_stored == 0
    assert oracle.passed, oracle.summary()


def test_read_your_writes_returns_behind_from_lagging_replica():
    # Asymmetric mode: the sequencer (the ack's coordinator) applies
    # first, so right after the ack the other replicas genuinely lag.
    session, store, _ = make_store(mode=OrderingMode.ASYMMETRIC)
    ack = put(session, store, "c1", 1, "kx", "v1")
    shard = store.shards[ack["shard"]]
    laggard = next(m for m in shard.members
                   if shard.replicas[m].position < ack["position"])
    read = store.read(client="c1", key="kx", via=laggard,
                      ring=store.ring, min_position=ack["position"])
    assert read["status"] == "behind"
    session.run(20.0)
    read = store.read(client="c1", key="kx", via=laggard,
                      ring=store.ring, min_position=ack["position"])
    assert read["status"] == "ok" and read["value"] == "v1"


def test_stale_ring_rejected_with_current_ring():
    session, store, _ = make_store()
    old = HashRing(1, ("zombie",))
    outcome = store.submit(
        client="c9", client_op=1, op="set", key="anything", value=1,
        via="s0r0", ring=old, callback=None,
    )
    assert outcome["status"] == "stale_ring"
    assert outcome["ring"].version == store.ring.version


def test_crash_failover_sequencer_migrates_and_shard_keeps_serving():
    session, store, oracle = make_store(mode=OrderingMode.ASYMMETRIC, seed=5)
    key = "failover-key"
    shard_id = store.ring.lookup(key)
    ack = put(session, store, "c1", 1, key, "before")
    assert ack["status"] == "applied"
    victim = min(LAYOUT[shard_id])  # smallest id = the sequencer
    session.crash(victim)
    session.run(15.0)  # suspicion -> exclusion -> sequencer migration
    assert victim not in store.alive_members(shard_id)
    ack = put(session, store, "c1", 2, key, "after")
    assert ack["status"] == "applied"
    session.run(10.0)
    assert store.converged(shard_id)
    assert session.result().passed
    assert oracle.passed, oracle.summary()


# ----------------------------------------------------------------------
# Rebalancing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC])
def test_split_shard_moves_keys_and_bumps_ring_version(mode):
    session, store, oracle = make_store(mode=mode, spares=("x0", "x1"))
    keys = [f"user{i}" for i in range(24)]
    for index, key in enumerate(keys):
        assert put(session, store, "c1", index, key, f"v-{key}")["status"] == "applied"
    old_ring = store.ring
    source = old_ring.lookup(keys[0])
    coordinator = store.alive_members(source)[0]
    report = Rebalancer(store).split_shard(source, "sN", [coordinator, "x0", "x1"])
    assert session.run_until(lambda: report.complete or report.failed, timeout=200)
    assert report.complete, report.describe()
    assert store.ring.version == old_ring.version + 1
    assert "sN" in store.shards
    moved = [k for k in keys if old_ring.lookup(k) != store.ring.lookup(k)]
    assert moved and all(store.ring.lookup(k) == "sN" for k in moved)
    # A split subdivides only the source's key space: every moved key
    # came from the fenced shard, and the migration plan covered exactly
    # the moved keys present in its state.
    assert all(old_ring.lookup(k) == source for k in moved)
    assert report.moved_keys == len(moved)
    # A stale client is redirected, retries, and every value is intact.
    stale = put(session, store, "c1", 100, moved[0], "late", ring=old_ring)
    assert stale["status"] in ("stale_ring", "frozen")
    for key in keys:
        read = store.read(
            client="reader", key=key,
            via=store.alive_members(store.ring.lookup(key))[0],
            ring=store.ring, min_position=0,
        )
        assert read["status"] == "ok" and read["value"] == f"v-{key}", (key, read)
    session.run(20.0)
    for shard in store.shards:
        assert store.converged(shard)
    assert session.result().passed
    assert oracle.passed, oracle.summary()


def test_move_replica_bumps_generation_and_departs_old_group():
    session, store, oracle = make_store(spares=("x0", "x1"))
    keys = [f"m{i}" for i in range(12)]
    shard_id = "s0"
    owned = [k for k in keys if store.ring.lookup(k) == shard_id]
    for index, key in enumerate(owned):
        assert put(session, store, "c1", index, key, key)["status"] == "applied"
    old = store.shards[shard_id]
    survivor = old.members[0]
    report = Rebalancer(store).move_replica(shard_id, [survivor, "x0", "x1"])
    assert session.run_until(lambda: report.complete or report.failed, timeout=200)
    assert report.complete, report.describe()
    fresh = store.shards[shard_id]
    assert fresh.generation == old.generation + 1
    assert fresh.group_id == group_name(shard_id, fresh.generation)
    assert set(fresh.members) == {survivor, "x0", "x1"}
    assert old.retired
    assert store.ring.version == 1  # replica moves never touch the ring
    session.run(30.0)  # old group winds down via voluntary departures
    for key in owned:
        read = store.read(client="r", key=key, via="x0",
                          ring=store.ring, min_position=0)
        assert read["status"] == "ok" and read["value"] == key
    assert store.converged(shard_id)
    assert session.result().passed
    assert oracle.passed, oracle.summary()


# ----------------------------------------------------------------------
# The coordinator and the ack contract every write now leans on
# ----------------------------------------------------------------------
def test_coordinator_is_the_views_sequencer_and_none_when_symmetric():
    session, store, _ = make_store(mode=OrderingMode.ASYMMETRIC)
    for shard_id, shard in store.shards.items():
        view = session[shard.members[0]].endpoint(shard.group_id).view
        assert store.coordinator(shard_id) == view.sequencer()
    # The default `via` is the coordinator: the ack comes from its apply.
    acks = []
    store.submit(client="c1", client_op=1, op="set", key="k", value=1,
                 callback=acks.append)
    assert session.run_until(lambda: bool(acks), timeout=10)
    shard = store.shards[acks[0]["shard"]]
    coordinator = store.coordinator(shard.shard_id)
    assert shard.replicas[coordinator].position == acks[0]["position"] == 1
    _, symmetric, _ = make_store(mode=OrderingMode.SYMMETRIC)
    assert [symmetric.coordinator(s) for s in symmetric.shards] == [None, None]


def test_ack_survives_sequencer_crash_in_the_instant_of_the_ack():
    # An ack says "ordered at the coordinator and handed to the reliable
    # channel": nobody else holds the write yet.  Crash the sequencer in
    # the ack's own instant; the copies already in the channel and the
    # failover agreement must carry the write to the acknowledged position.
    session, store, oracle = make_store(mode=OrderingMode.ASYMMETRIC, seed=5)
    key = "ack-key"
    shard = store.shards[store.ring.lookup(key)]
    sequencer = store.coordinator(shard.shard_id)
    survivors = [m for m in shard.members if m != sequencer]
    acks = []

    def on_ack(ack):
        acks.append(ack)
        session.crash(sequencer)

    submitted_at = session.sim.now
    outcome = store.submit(client="c1", client_op=1, op="set", key=key,
                           value="kept", callback=on_ack)
    assert outcome["status"] == "submitted"
    assert session.run_until(lambda: bool(acks), timeout=10)
    ack = acks[0]
    assert ack["status"] == "applied"
    assert session.sim.now == submitted_at  # acknowledged as it is sequenced
    assert session[sequencer].crashed
    assert all(shard.replicas[m].position < ack["position"] for m in survivors)
    session.run(20.0)
    assert store.alive_members(shard.shard_id) == survivors
    for member in survivors:
        replica = shard.replicas[member]
        assert replica.last_writer[key] == (ack["message_id"], ack["position"])
        assert replica.get(key) == "kept"
    assert store.converged(shard.shard_id)
    assert session.result().passed
    assert oracle.passed, oracle.summary()


def test_coordinator_names_the_successor_before_the_view_installs():
    session, store, oracle = make_store(mode=OrderingMode.ASYMMETRIC, seed=5)
    key = "counter"
    shard = store.shards[store.ring.lookup(key)]
    sequencer = store.coordinator(shard.shard_id)
    successor = sorted(m for m in shard.members if m != sequencer)[0]
    endpoint = session[successor].endpoint(shard.group_id)
    session.crash(sequencer)
    # The view still names the dead sequencer; the store already names the
    # member the failover will hand the duty to.
    assert endpoint.view.sequencer() == sequencer
    assert store.coordinator(shard.shard_id) == successor
    acks, statuses, vias = [], [], set()
    for index in range(20):  # one write per sim-second, across the agreement
        vias.add(store.coordinator(shard.shard_id))
        statuses.append(store.submit(
            client="c1", client_op=index, op="increment", key=key, value=1,
            callback=acks.append,
        )["status"])
        if index == 5:
            # Still before the install: these wait in the failover resend.
            assert endpoint.view.sequencer() == sequencer and not acks
        session.run(1.0)
    assert statuses == ["submitted"] * 20  # never `unavailable`
    assert vias == {successor}
    assert store.counters["unavailable_rejections"] == 0
    session.run(20.0)
    assert endpoint.view.sequencer() == successor
    assert [ack["status"] for ack in acks] == ["applied"] * 20
    assert sorted(ack["position"] for ack in acks) == list(range(1, 21))
    for member in store.alive_members(shard.shard_id):
        assert shard.replicas[member].get(key) == 20  # each applied exactly once
    assert store.converged(shard.shard_id)
    assert store.pending_writes() == 0
    assert session.result().passed
    assert oracle.passed, oracle.summary()


def _hundred_workload_writes(mode):
    """100 `KVWorkload` writes to one R=3 shard; returns the app_multicast
    transport sends they cost and the per-replica `via` tally."""
    session = Session("newtop", seed=7, analysis="online", observe={"sampler": False})
    members = ["r0", "r1", "r2"]
    session.spawn(members)
    store = ShardedKV(session, mode=mode)
    store.bootstrap({"s0": members})
    session.run(1.0)
    vias = {}
    submit = store.submit

    def tallying_submit(**kwargs):
        vias[kwargs["via"]] = vias.get(kwargs["via"], 0) + 1
        return submit(**kwargs)

    store.submit = tallying_submit
    workload = KVWorkload(
        store, clients=200, keys=64, read_fraction=0.0,
        arrivals=DeterministicArrivals(rate=4.0), duration=25.25, seed=7,
    )
    workload.start()
    session.run(60.0)
    assert workload.counters["completed_writes"] == workload.counters["offered"] == 100
    result = session.result()
    assert result.passed
    counters = result.obs["metrics"]["counters"]
    return counters["transport.sends_by_cause.app_multicast"], vias


def test_hundred_workload_writes_cost_exactly_two_hundred_app_sends():
    # Every write enters at the sequencer: n - 1 = 2 copies and no unicast
    # to the sequencer first (a uniformly drawn replica averages 2.67).
    sends, vias = _hundred_workload_writes(OrderingMode.ASYMMETRIC)
    assert sends == 200
    assert vias == {"r0": 100}
    # A symmetric shard has no coordinator: the draw stays uniform (and
    # each member's multicast costs its n - 1 copies wherever it enters).
    sends, vias = _hundred_workload_writes(OrderingMode.SYMMETRIC)
    assert sends == 200
    assert sorted(vias) == ["r0", "r1", "r2"] and min(vias.values()) >= 20


def test_behind_read_retries_at_the_coordinator_in_the_same_instant():
    session, store, _ = make_store(mode=OrderingMode.ASYMMETRIC)
    workload = KVWorkload(store, clients=4, keys=8, duration=0.0, seed=1)
    ack = put(session, store, "c0", 1, "kx", "v1")
    shard = store.shards[ack["shard"]]
    coordinator = store.coordinator(shard.shard_id)
    laggard = next(m for m in shard.members if m != coordinator)
    assert shard.replicas[laggard].position < ack["position"]
    behind = store.read(client="c0", key="kx", via=laggard, ring=store.ring,
                        min_position=ack["position"])
    assert behind["status"] == "behind" and behind["coordinator"] == coordinator
    client = workload.clients[0]
    client.busy = True
    client.advance(shard.shard_id, ack["generation"], ack["position"])
    started = session.sim.now
    workload._read_once(client, "kx", started, 0, laggard)
    # Completed without a simulator event: no back-off, no second `behind`.
    assert not client.busy and session.sim.now == started
    assert workload.counters["behind_retries"] == 1
    assert workload.counters["completed_reads"] == 1
    assert workload.read_latency.summary()["max"] == 0.0


# ----------------------------------------------------------------------
# Oracle mutation tests: violations are detected, not just absent
# ----------------------------------------------------------------------
def apply_event(time, process, group, msg_id, position, outcome="applied",
                op="set", key="k", digest="'v'", **extra):
    details = dict(
        shard="s0", generation=1, op=op, outcome=outcome,
        position=position, key=key, digest=digest,
    )
    details.update(extra)
    return TraceEvent(
        time=time, kind="kv_apply", process=process, group=group,
        message_id=msg_id, sender=process, clock=None,
        details=tuple(sorted(details.items())),
    )


def read_event(time, process, group, msg_id, position, key="k", digest="'v'",
               client="c", required=0):
    details = dict(
        shard="s0", generation=1, key=key, digest=digest,
        position=position, client=client, required=required,
    )
    return TraceEvent(
        time=time, kind="kv_read", process=process, group=group,
        message_id=msg_id, sender=process, clock=None,
        details=tuple(sorted(details.items())),
    )


def test_oracle_detects_order_divergence():
    oracle = KVOracle()
    oracle.on_event(apply_event(1.0, "p1", "g", "m1", 1))
    oracle.on_event(apply_event(2.0, "p2", "g", "m2", 1))  # different msg
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "order_divergence"


def test_oracle_detects_apply_gap():
    oracle = KVOracle()
    oracle.on_event(apply_event(1.0, "p1", "g", "m1", 1))
    oracle.on_event(apply_event(2.0, "p1", "g", "m3", 3))  # skipped 2
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "apply_gap"


def test_oracle_detects_state_divergence():
    oracle = KVOracle()
    oracle.on_event(apply_event(1.0, "p1", "g", "m1", 1, digest="'a'"))
    oracle.on_event(apply_event(2.0, "p2", "g", "m1", 1, digest="'b'"))
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "state_divergence"


def test_oracle_detects_stale_read():
    oracle = KVOracle()
    oracle.on_event(apply_event(1.0, "p1", "g", "m1", 1, digest="'old'"))
    oracle.on_event(apply_event(2.0, "p1", "g", "m2", 2, digest="'new'"))
    # A replica at position >= 2 serving the old write is stale.
    oracle.on_event(read_event(3.0, "p1", "g", "m1", 2, digest="'old'"))
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "stale_or_divergent_read"


def test_oracle_detects_phantom_read():
    oracle = KVOracle()
    oracle.on_event(apply_event(1.0, "p1", "g", "m1", 1, key="other"))
    oracle.on_event(read_event(2.0, "p1", "g", None, 1, key="k", digest="'v'"))
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "phantom_read"


def test_oracle_detects_transfer_integrity_violation():
    oracle = KVOracle()
    oracle.on_event(apply_event(
        1.0, "p1", "g", "m1", 1, op="migrate_in", digest="'tampered'",
        from_shard="s9", from_digest="'original'",
    ))
    assert not oracle.passed
    assert oracle.violations[0]["check"] == "transfer_integrity"


def test_oracle_clean_sequence_passes():
    oracle = KVOracle()
    for process in ("p1", "p2"):
        oracle.on_event(apply_event(1.0, process, "g", "m1", 1))
        oracle.on_event(apply_event(2.0, process, "g", "m2", 2, digest="'w'"))
    oracle.on_event(read_event(3.0, "p2", "g", "m2", 2, digest="'w'"))
    assert oracle.passed, oracle.summary()
    summary = oracle.summary()
    assert summary["applies_checked"] == 4 and summary["reads_checked"] == 1
