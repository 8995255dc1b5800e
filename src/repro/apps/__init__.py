"""Example applications built on the Newtop public API.

These are the applications the paper's motivation section appeals to:

* :mod:`repro.apps.replicated_state_machine` -- a generic replicated state
  machine: commands multicast in a group are applied in delivery order, so
  total order keeps replicas identical ("Replica management is a well known
  application of total order protocols", §2).
* :mod:`repro.apps.replicated_store` -- a replicated key-value store built
  on the state machine, used by the quickstart and several benchmarks
  (the single-shard special case of :mod:`repro.apps.kv`).
* :mod:`repro.apps.server_migration` -- the paper's Fig. 1 scenario: moving
  a replica of a live server group to a new machine by forming an
  overlapping group, transferring state, and departing the old group
  without interrupting service.
* :mod:`repro.apps.kv` -- the sharded replicated KV store: a consistent-
  hash ring over shards, one Newtop group per shard, rebalancing and
  failover as protocol events, an online consistency oracle, and a
  ring-routed workload (experiment E26).

Only :mod:`repro.apps.kv` loads with this package; the other three
modules' names resolve here on first access (module ``__getattr__``).
"""

import importlib
from typing import Any

from repro.apps.kv import (
    HashRing,
    KVOracle,
    KVWorkload,
    Rebalancer,
    RebalanceReport,
    ShardedKV,
)

__all__ = [
    "HashRing",
    "KVOracle",
    "KVWorkload",
    "MigrationReport",
    "RebalanceReport",
    "Rebalancer",
    "ReplicatedStateMachine",
    "ReplicatedStore",
    "ServerMigrationScenario",
    "ShardedKV",
    "StateMachineReplica",
]

#: Exported names whose modules load on first access (PEP 562).
_LAZY_EXPORTS = {
    "ReplicatedStateMachine": "repro.apps.replicated_state_machine",
    "StateMachineReplica": "repro.apps.replicated_state_machine",
    "ReplicatedStore": "repro.apps.replicated_store",
    "MigrationReport": "repro.apps.server_migration",
    "ServerMigrationScenario": "repro.apps.server_migration",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
