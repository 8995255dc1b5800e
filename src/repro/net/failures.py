"""Declarative fault injection.

Benchmarks and integration tests describe failures as a
:class:`FailureSchedule` -- a list of timed actions -- and hand it to a
:class:`FaultInjector`, which arranges for the actions to happen at the
right simulated times.  Supported actions cover the failure modes the paper
reasons about:

* ``crash(time, node)`` -- crash-stop a process.
* ``crash_during_multicast(time, node, allowed_receivers)`` -- crash a
  process in a way that lets only ``allowed_receivers`` see messages it
  sends from ``time`` onwards, then stops it completely; this is Example 1
  ("Pr crashes during the multicast of m, such that only Ps receives m").
* ``partition(time, components)`` / ``heal(time)`` -- install or remove a
  network partition (Fig. 2, Examples 2 and 3).
* ``drop_between(time, src_nodes, dst_nodes, duration)`` -- drop messages
  between two node sets for a window, modelling transient loss or a
  one-directional outage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.net.network import Network
from repro.net.simulator import Simulator


@dataclass
class _Action:
    """One scheduled fault action."""

    time: float
    kind: str
    node: Optional[str] = None
    components: Optional[List[List[str]]] = None
    allowed_receivers: Optional[Set[str]] = None
    src_nodes: Optional[Set[str]] = None
    dst_nodes: Optional[Set[str]] = None
    duration: Optional[float] = None


@dataclass
class FailureSchedule:
    """A declarative list of fault actions, built with the helper methods."""

    actions: List[_Action] = field(default_factory=list)

    def crash(self, time: float, node: str) -> "FailureSchedule":
        """Crash ``node`` at ``time``."""
        self.actions.append(_Action(time=time, kind="crash", node=node))
        return self

    def crash_during_multicast(
        self, time: float, node: str, allowed_receivers: Iterable[str]
    ) -> "FailureSchedule":
        """Crash ``node`` at ``time`` such that from that instant on, only
        ``allowed_receivers`` receive anything it sends, and shortly after
        it stops entirely.

        The effect is that a multicast issued by ``node`` right at ``time``
        reaches only the allowed subset -- the partial multicast of the
        paper's Example 1.
        """
        self.actions.append(
            _Action(
                time=time,
                kind="crash_during_multicast",
                node=node,
                allowed_receivers=set(allowed_receivers),
            )
        )
        return self

    def partition(self, time: float, components: Sequence[Iterable[str]]) -> "FailureSchedule":
        """Install a partition with the given components at ``time``."""
        self.actions.append(
            _Action(
                time=time,
                kind="partition",
                components=[list(component) for component in components],
            )
        )
        return self

    def isolate(self, time: float, node: str) -> "FailureSchedule":
        """Partition ``node`` away from everyone else at ``time``."""
        self.actions.append(_Action(time=time, kind="isolate", node=node))
        return self

    def heal(self, time: float) -> "FailureSchedule":
        """Heal all partitions at ``time``."""
        self.actions.append(_Action(time=time, kind="heal"))
        return self

    def drop_between(
        self,
        time: float,
        src_nodes: Iterable[str],
        dst_nodes: Iterable[str],
        duration: float,
    ) -> "FailureSchedule":
        """Drop all messages from ``src_nodes`` to ``dst_nodes`` for ``duration``."""
        self.actions.append(
            _Action(
                time=time,
                kind="drop_between",
                src_nodes=set(src_nodes),
                dst_nodes=set(dst_nodes),
                duration=duration,
            )
        )
        return self

    def merge(self, other: "FailureSchedule") -> "FailureSchedule":
        """Return a new schedule combining this one and ``other``."""
        merged = FailureSchedule()
        merged.actions = list(self.actions) + list(other.actions)
        return merged


class FaultInjector:
    """Applies a :class:`FailureSchedule` to a network on a simulator."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network

    def install(self, schedule: FailureSchedule) -> None:
        """Schedule every action in ``schedule`` on the simulator."""
        for action in schedule.actions:
            self.sim.schedule_at(
                action.time, self._apply, action, label=f"fault:{action.kind}"
            )

    # ------------------------------------------------------------------
    # Immediate application helpers (also usable directly from tests)
    # ------------------------------------------------------------------
    def crash_now(self, node: str) -> None:
        """Crash ``node`` immediately."""
        self.network.crash(node)

    def partition_now(self, components: Sequence[Iterable[str]]) -> None:
        """Install a partition immediately."""
        self.network.partitions.partition(components, at_time=self.sim.now)

    def heal_now(self) -> None:
        """Heal all partitions immediately."""
        self.network.partitions.heal(at_time=self.sim.now)

    # ------------------------------------------------------------------
    # Internal dispatch
    # ------------------------------------------------------------------
    def _apply(self, action: _Action) -> None:
        if action.kind == "crash":
            self.crash_now(action.node)
        elif action.kind == "crash_during_multicast":
            self._apply_crash_during_multicast(action)
        elif action.kind == "partition":
            self.partition_now(action.components or [])
        elif action.kind == "isolate":
            self.network.partitions.isolate(action.node, at_time=self.sim.now)
        elif action.kind == "heal":
            self.heal_now()
        elif action.kind == "drop_between":
            self.drop_between_now(
                action.src_nodes or set(), action.dst_nodes or set(), action.duration or 0.0
            )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown fault action {action.kind!r}")

    def _apply_crash_during_multicast(self, action: _Action) -> None:
        node = action.node
        allowed = action.allowed_receivers or set()

        def partial_filter(src: str, dst: str, payload: object) -> bool:
            if src != node:
                return True
            return dst in allowed or dst == node

        self.network.add_filter(partial_filter)
        # Let anything the node sends *right now* (same simulated instant)
        # reach the allowed subset, then crash it for good.
        self.sim.schedule(
            0.0, self.crash_now, node, label=f"fault:finish-crash({node})"
        )

    def drop_between_now(
        self, src_nodes: Set[str], dst_nodes: Set[str], duration: float,
        label: str = "fault:drop-window-end",
    ) -> None:
        """Drop everything from ``src_nodes`` to ``dst_nodes`` for
        ``duration`` from now (a directed, unannounced outage)."""

        def drop_filter(src: str, dst: str, payload: object) -> bool:
            return not (src in src_nodes and dst in dst_nodes)

        self.network.add_filter(drop_filter)
        self.sim.schedule(duration, self.network.remove_filter, drop_filter, label=label)
