"""A replicated key-value store built on the replicated state machine.

.. note::
   This store is the **single-shard special case** of the sharded store
   in :mod:`repro.apps.kv`: one group, no ring, no rebalancing.  Both run
   the *same* transition function
   (:func:`repro.apps.kv.commands.apply_kv_command`), so there is exactly
   one KV implementation in this repository.  New code that needs
   sharding, failover, rebalancing or the consistency oracle should use
   :class:`repro.apps.kv.ShardedKV`; this class remains the lightweight
   front-end for single-group scenarios and the quickstart.

The store supports ``set``, ``delete`` and ``increment`` operations; every
operation is a command multicast in the store's replica group and applied
in Newtop's total delivery order, so all replicas converge to the same map
without any further coordination.  Reads are served locally (they reflect
the replica's applied prefix -- the usual RSM read semantics; linearizable
reads would be issued as commands too, which `read_via_multicast` does).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.apps.kv.commands import apply_kv_command
from repro.apps.replicated_state_machine import ReplicatedStateMachine
from repro.core.process import NewtopProcess


class ReplicatedStore:
    """One replica of the key-value store."""

    def __init__(self, process: NewtopProcess, group_id: str) -> None:
        self.process = process
        self.group_id = group_id
        self.rsm = ReplicatedStateMachine(
            process, group_id, initial_state={}, apply_function=apply_kv_command
        )

    # ------------------------------------------------------------------
    # Mutations (multicast as commands)
    # ------------------------------------------------------------------
    def set(self, key: str, value: Any) -> Optional[str]:
        """Replicate ``key = value``."""
        return self.rsm.submit(("set", key, value))

    def delete(self, key: str) -> Optional[str]:
        """Replicate deletion of ``key``."""
        return self.rsm.submit(("delete", key))

    def increment(self, key: str, amount: int = 1) -> Optional[str]:
        """Replicate an increment of the integer at ``key``."""
        return self.rsm.submit(("increment", key, amount))

    def read_via_multicast(self, key: str) -> Optional[str]:
        """Issue a no-op command; once it is applied locally, a local read
        of ``key`` reflects every write ordered before it (a simple way to
        get an ordered read without a separate read protocol)."""
        return self.rsm.submit(("noop",))

    # ------------------------------------------------------------------
    # Local reads
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key`` from the locally applied state."""
        return self.rsm.state.get(key, default)

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the locally applied state."""
        return dict(self.rsm.state)

    def applied_operations(self) -> int:
        """Number of operations applied locally so far."""
        return len(self.rsm.applied_log)

    # ------------------------------------------------------------------
    # Convergence helpers
    # ------------------------------------------------------------------
    @staticmethod
    def converged(stores: List["ReplicatedStore"]) -> bool:
        """Whether every replica that applied the same number of operations
        holds an identical map (and logs are prefix-consistent)."""
        return ReplicatedStateMachine.replicas_agree([store.rsm for store in stores])
