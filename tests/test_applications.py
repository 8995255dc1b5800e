"""Tests for the example applications (replicated state machine, replicated
store, online server migration)."""

import pytest

from repro.api import Session
from repro.apps import ReplicatedStateMachine, ReplicatedStore, ServerMigrationScenario

from repro.core import NewtopConfig, OrderingMode

FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


def _session(names, seed=1, **overrides):
    config = NewtopConfig(**FAST).replace(**overrides)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(names)
    return session


# ----------------------------------------------------------------------
# Replicated state machine
# ----------------------------------------------------------------------
def test_rsm_replicas_apply_commands_in_same_order():
    session = _session(["P1", "P2", "P3"], seed=2)
    session.group("counter")
    machines = [
        ReplicatedStateMachine(session[p], "counter", 0, lambda state, delta: state + delta)
        for p in ("P1", "P2", "P3")
    ]
    machines[0].submit(5)
    machines[1].submit(-2)
    machines[2].submit(10)
    session.run(80)
    assert all(machine.state == 13 for machine in machines)
    assert ReplicatedStateMachine.replicas_agree(machines)
    assert machines[0].applied_ids() == machines[1].applied_ids() == machines[2].applied_ids()


def test_rsm_survives_replica_crash():
    session = _session(["P1", "P2", "P3"], seed=3)
    session.group("counter")
    machines = {
        p: ReplicatedStateMachine(session[p], "counter", 0, lambda s, d: s + d)
        for p in ("P1", "P2", "P3")
    }
    machines["P1"].submit(1)
    session.run(30)
    session.crash("P3")
    session.run(100)
    machines["P2"].submit(2)
    session.run(80)
    assert machines["P1"].state == machines["P2"].state == 3
    assert ReplicatedStateMachine.replicas_agree([machines["P1"], machines["P2"]])


def test_rsm_applies_only_its_group():
    session = _session(["P1", "P2"], seed=4)
    session.group("a")
    session.group("b")
    machine = ReplicatedStateMachine(session["P1"], "a", 0, lambda s, d: s + d)
    session["P2"].multicast("b", 100)
    session["P2"].multicast("a", 7)
    session.run(60)
    assert machine.state == 7


# ----------------------------------------------------------------------
# Replicated store
# ----------------------------------------------------------------------
def test_store_replicas_converge():
    session = _session(["P1", "P2", "P3"], seed=5)
    session.group("kv")
    stores = [ReplicatedStore(session[p], "kv") for p in ("P1", "P2", "P3")]
    stores[0].set("x", 1)
    stores[1].set("y", "two")
    stores[2].increment("x", 4)
    stores[0].delete("missing")
    session.run(80)
    assert ReplicatedStore.converged(stores)
    for store in stores:
        assert store.get("x") == 5 or store.get("x") == 1  # depends on order...
    # The point of total order: whatever the order, all replicas agree.
    snapshots = {tuple(sorted(store.snapshot().items())) for store in stores}
    assert len(snapshots) == 1


def test_store_operations_and_reads():
    session = _session(["P1", "P2"], seed=6)
    session.group("kv")
    store_1 = ReplicatedStore(session["P1"], "kv")
    store_2 = ReplicatedStore(session["P2"], "kv")
    store_1.set("a", 1)
    store_1.increment("a", 2)
    store_1.delete("a")
    store_1.set("b", "keep")
    store_1.read_via_multicast("b")
    session.run(80)
    assert store_2.get("a") is None
    assert store_2.get("b") == "keep"
    assert store_2.get("missing", "default") == "default"
    assert store_2.applied_operations() == 5


def test_store_asymmetric_group():
    session = _session(["P1", "P2", "P3"], seed=7)
    session.group("kv", mode=OrderingMode.ASYMMETRIC)
    stores = [ReplicatedStore(session[p], "kv") for p in ("P1", "P2", "P3")]
    for i, store in enumerate(stores):
        store.set(f"k{i}", i)
    session.run(80)
    assert ReplicatedStore.converged(stores)
    assert stores[0].snapshot() == {"k0": 0, "k1": 1, "k2": 2}


# ----------------------------------------------------------------------
# Server migration (Fig. 1)
# ----------------------------------------------------------------------
def test_server_migration_scenario_is_uninterrupted():
    scenario = ServerMigrationScenario(requests_per_phase=4, seed=11)
    report = scenario.run()
    assert report.service_uninterrupted
    assert report.state_transferred_intact
    assert report.old_group_cleaned_up
    assert report.final_group_members == ("P1", "P3")
    assert report.requests_during > 0
    assert report.migration_duration > 0


def test_server_migration_asymmetric_mode():
    scenario = ServerMigrationScenario(
        requests_per_phase=3, seed=13, mode=OrderingMode.ASYMMETRIC
    )
    report = scenario.run()
    assert report.state_transferred_intact
    assert report.final_group_members == ("P1", "P3")
