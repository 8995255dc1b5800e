"""Network partition model.

A partition splits the set of nodes into *components*: nodes in different
components cannot exchange messages while the partition lasts.  The paper
treats partitions (real, or "virtual" partitions caused by mutual wrong
suspicion) as a first-class failure mode -- Newtop's membership service is
explicitly designed to let every connected subgroup keep operating -- so
the simulation substrate supports:

* installing a partition described as a list of components,
* isolating a single node,
* healing (removing) partitions,
* querying whether two nodes can currently communicate.

Nodes not mentioned in any component form an implicit final component of
their own, so tests only need to enumerate the interesting sides.

Healthy envelope
----------------
The paper's transport is reliable between connected processes and has no
retransmission, so what is sent across a partition is lost for good and
only exclusion (§5.2) squares the loss with the delivery guarantees.  A
partition that heals before the membership agreement has excluded the far
side leaves the views whole with a gap in the stream -- a *model*
violation (the causal-prefix checker reports it), not a protocol bug.
Experiments that heal a partition therefore hold it for at least
:func:`partition_hold_time`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Settling allowance on top of the suspicion windows: suspector check
#: intervals plus the suspect/confirm rounds of the agreement itself.
HEAL_SLACK = 6.0


def partition_hold_time(suspicion_timeout: float) -> float:
    """Shortest time a partition (or a one-way lossy window) must last for
    the membership agreement to have excluded the far side before links
    return: ``2Ω + HEAL_SLACK``.

    One Ω of silence raises the first suspicions; a same-side peer that
    holds one more message of the target refutes the lower ``{Pk, ln}``
    (rule iii) and the refuted suspector starts a fresh window before
    re-suspecting at the agreed ``ln`` -- a second Ω; the slack covers the
    agreement.
    """
    return 2.0 * suspicion_timeout + HEAL_SLACK


class PartitionManager:
    """Tracks which nodes can currently communicate.

    The default state is a fully connected network.  At most one partition
    layout is active at a time; installing a new layout replaces the old
    one (this mirrors how the benchmarks and the paper's examples use
    partitions: one topological change at a time, possibly healed later).
    """

    def __init__(self, nodes: Optional[Iterable[str]] = None) -> None:
        self._nodes: Set[str] = set(nodes or ())
        # node -> component index; None means "no partition installed".
        self._component_of: Optional[Dict[str, int]] = None
        # Component of a node the installed layout does not list (one
        # registered after the install); fixed by :meth:`partition`.
        self._leftover = 0
        self._history: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Node registration
    # ------------------------------------------------------------------
    def register(self, node: str) -> None:
        """Make the partition manager aware of ``node``.

        A node registered after a partition is installed joins the
        layout's last component -- the implicit leftover one when the
        install had unlisted nodes to put there.
        """
        self._nodes.add(node)

    @property
    def nodes(self) -> Set[str]:
        """All nodes known to the partition manager."""
        return set(self._nodes)

    @property
    def partitioned(self) -> bool:
        """Whether a partition is currently installed."""
        return self._component_of is not None

    # ------------------------------------------------------------------
    # Installing / healing partitions
    # ------------------------------------------------------------------
    def partition(self, components: Sequence[Iterable[str]], at_time: float = 0.0) -> None:
        """Install a partition described by ``components``.

        Each element of ``components`` is an iterable of node ids; nodes in
        different components cannot communicate.  Nodes not listed in any
        component are grouped together into one extra implicit component.
        A node may appear in at most one component.
        """
        component_of: Dict[str, int] = {}
        for index, component in enumerate(components):
            for node in component:
                if node in component_of:
                    raise ValueError(f"node {node!r} listed in more than one component")
                self._nodes.add(node)
                component_of[node] = index
        leftover_index = len(components)
        for node in self._nodes:
            component_of.setdefault(node, leftover_index)
        self._component_of = component_of
        self._leftover = max(component_of.values(), default=0)
        self._history.append((at_time, self.describe()))

    def isolate(self, node: str, at_time: float = 0.0) -> None:
        """Partition ``node`` away from every other node."""
        others = [n for n in self._nodes if n != node]
        self.partition([[node], others], at_time=at_time)

    def heal(self, at_time: float = 0.0) -> None:
        """Remove any installed partition; the network becomes fully connected."""
        self._component_of = None
        self._history.append((at_time, "healed"))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def can_communicate(self, a: str, b: str) -> bool:
        """Whether a message from ``a`` can currently reach ``b``."""
        if a == b:
            return True
        component_of = self._component_of
        if component_of is None:
            return True
        leftover = self._leftover
        return component_of.get(a, leftover) == component_of.get(b, leftover)

    def components(self) -> List[Set[str]]:
        """Current components as a list of node-id sets.

        When no partition is installed, returns a single component with all
        known nodes.
        """
        if self._component_of is None:
            return [set(self._nodes)]
        grouped: Dict[int, Set[str]] = {}
        for node, index in self._component_of.items():
            grouped.setdefault(index, set()).add(node)
        return [grouped[index] for index in sorted(grouped)]

    def describe(self) -> str:
        """Compact human-readable description of the current layout."""
        if self._component_of is None:
            return "connected"
        parts = ["{" + ",".join(sorted(component)) + "}" for component in self.components()]
        return " | ".join(parts)

    @property
    def history(self) -> List[Tuple[float, str]]:
        """(time, description) entries for every partition change."""
        return list(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartitionManager({self.describe()})"
