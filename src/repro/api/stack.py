"""The :class:`ProtocolStack` interface: one pluggable contract per protocol.

A protocol stack is everything the session layer needs to run a group
communication protocol on the simulated substrate without knowing which
protocol it is:

* **process lifecycle** -- :meth:`ProtocolStack.spawn` creates one protocol
  participant on the shared transport; :meth:`ProtocolStack.crash`
  crash-stops it.
* **group operations** -- :meth:`ProtocolStack.create_group` installs a
  group over spawned processes; :meth:`ProtocolStack.multicast` sends;
  :meth:`ProtocolStack.leave` / :meth:`ProtocolStack.form_group` cover
  dynamic membership where the protocol supports it.
* **fault hooks** -- :meth:`ProtocolStack.on_partition` /
  :meth:`ProtocolStack.on_heal` let a stack react to network partitions
  (the primary-partition policy stack halts non-primary components here).
* **trace wiring** -- every stack records its observable events to the
  session's :class:`~repro.net.trace.TraceRecorder`, and declares via
  :attr:`ProtocolStack.checks` / :attr:`ProtocolStack.check_scope` which
  streaming checkers its guarantees claim (total order for sequencer-style
  stacks, causal order for Psync, everything for Newtop) and whether they
  hold globally across overlapping groups (Newtop's MD4') or only within
  each group (every single-group baseline).

Capabilities are declared, not discovered: :attr:`ProtocolStack.capabilities`
is a frozenset of :data:`CAP_CRASH` / :data:`CAP_PARTITION` /
:data:`CAP_LEAVE` / :data:`CAP_FORM_GROUP` flags the scenario engine maps
timed events onto, so a scenario asking a baseline for a ``form_group``
raises a clear :class:`UnsupportedScenarioEvent` (or records a skip)
instead of an ``AttributeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.checkers import CheckResult
from repro.analysis.online import (
    ALL_CHECKS,
    GroupScopedCheckSuite,
    OnlineCheckSuite,
    check_events,
)
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.trace import EventTrace, TraceRecorder
from repro.net.transport import Transport

#: Capability flags a stack may declare (what the scenario engine maps
#: event kinds onto).
CAP_CRASH = "crash"
CAP_PARTITION = "partition"
CAP_LEAVE = "leave"
CAP_FORM_GROUP = "form_group"

#: Scenario event kind -> capability required to apply it.  Network-level
#: faults (partitions, isolation, lossy drop windows) only need the
#: substrate, so they share one flag.
EVENT_CAPABILITIES: Mapping[str, str] = {
    "crash": CAP_CRASH,
    "leave": CAP_LEAVE,
    "partition": CAP_PARTITION,
    "heal": CAP_PARTITION,
    "isolate": CAP_PARTITION,
    "drop": CAP_PARTITION,
    "form_group": CAP_FORM_GROUP,
}


class StackError(RuntimeError):
    """Base class for session/stack usage errors."""


class UnsupportedStackOperation(StackError):
    """An operation the stack's protocol does not provide was invoked."""


class UnsupportedScenarioEvent(StackError):
    """A scenario names an event the selected stack has no capability for."""


@dataclass
class StackContext:
    """The shared substrate a session hands to its stack.

    One simulator, network, transport and trace recorder -- exactly the
    boilerplate the old per-protocol cluster classes each rebuilt for
    themselves.
    """

    sim: Simulator
    network: Network
    transport: Transport
    recorder: TraceRecorder


class ProtocolStack:
    """Abstract base class every pluggable protocol implements.

    Subclasses set the class attributes (:attr:`name`,
    :attr:`capabilities`, :attr:`checks`, :attr:`check_scope`) and implement
    the lifecycle methods.  Optional operations (:meth:`leave`,
    :meth:`form_group`) raise :class:`UnsupportedStackOperation` by default;
    callers should consult :meth:`supports` first.
    """

    #: Registry / display name ("newtop-symmetric", "isis", ...).
    name: str = "stack"
    #: Capability flags (see the CAP_* constants).
    capabilities: frozenset = frozenset()
    #: Online-checker names this stack's guarantees claim
    #: (see :data:`repro.analysis.online.CHECKER_FACTORIES`).
    checks: Tuple[str, ...] = ALL_CHECKS
    #: ``"global"`` -- guarantees hold across overlapping groups (Newtop's
    #: MD4'); ``"group"`` -- they hold within each group only (every
    #: single-group baseline lifted to many groups).
    check_scope: str = "global"

    def __init__(self) -> None:
        self.context: Optional[StackContext] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, context: StackContext, protocol: Optional[Mapping] = None) -> None:
        """Bind the stack to a session's substrate.

        ``protocol`` carries protocol-parameter overrides (the scenario
        spec's ``protocol`` dict); stacks without matching knobs ignore it.
        """
        self.context = context

    def spawn(self, process_id: str) -> None:
        """Create one protocol participant."""
        raise NotImplementedError

    def create_group(
        self, group_id: str, members: Sequence[str], mode: Optional[object] = None
    ) -> None:
        """Install a statically configured group over spawned processes."""
        raise NotImplementedError

    def multicast(self, process_id: str, group_id: str, payload: object) -> Optional[str]:
        """Multicast ``payload`` in ``group_id``; returns the message id
        (``None`` when the send was refused, e.g. crashed or blocked)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Faults and membership events
    # ------------------------------------------------------------------
    def crash(self, process_id: str) -> None:
        """Crash-stop one process."""
        raise NotImplementedError

    def leave(self, process_id: str, group_id: str) -> None:
        """Voluntary departure from a group (optional capability)."""
        raise UnsupportedStackOperation(
            f"stack {self.name!r} does not support voluntary departure"
        )

    def form_group(self, group_id: str, members: Sequence[str]) -> None:
        """Dynamic group formation mid-run (optional capability)."""
        raise UnsupportedStackOperation(
            f"stack {self.name!r} does not support dynamic group formation"
        )

    def on_partition(self, components: Sequence[Iterable[str]]) -> None:
        """Hook invoked after the network installed a partition, with every
        component of the installed layout, the leftover one included."""

    def on_heal(self) -> None:
        """Hook invoked after all partitions healed."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def supports(self, capability: str) -> bool:
        """Whether the stack declares ``capability``."""
        return capability in self.capabilities

    def process_ids(self) -> List[str]:
        """Identifiers of every spawned process."""
        raise NotImplementedError

    def is_member(self, process_id: str, group_id: str) -> bool:
        """Whether the process currently considers itself a group member."""
        raise NotImplementedError

    def is_crashed(self, process_id: str) -> bool:
        """Whether the process has crash-stopped."""
        raise NotImplementedError

    def deliveries(self) -> int:
        """Total application deliveries across all processes (a count, kept
        in either analysis mode)."""
        raise NotImplementedError

    def delivered_ids(self, process_id: str, group_id: Optional[str] = None) -> List[str]:
        """Message ids delivered at one process, in local delivery order
        (offline mode only: a streaming run keeps no delivery records)."""
        raise NotImplementedError

    def protocol_bytes(self) -> Optional[int]:
        """Protocol-overhead bytes put on the wire (``None`` if untracked)."""
        return None

    # ------------------------------------------------------------------
    # Verification wiring
    # ------------------------------------------------------------------
    def make_check_suite(
        self,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
        checks: Optional[Iterable[str]] = None,
    ):
        """A streaming check suite scoped the way this stack's guarantees
        are scoped; register it as a trace sink."""
        names = tuple(checks) if checks is not None else self.checks
        if self.check_scope == "group":
            return GroupScopedCheckSuite(view_agreement_sets, checks=names)
        return OnlineCheckSuite(view_agreement_sets, checks=names)

    def offline_checks(
        self,
        trace: EventTrace,
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
        checks: Optional[Iterable[str]] = None,
    ) -> CheckResult:
        """Post-hoc verdict over a materialized trace.

        The default replays the trace through the streaming suite, scoped
        as :meth:`make_check_suite` scopes it; stacks with dedicated
        post-hoc checkers (Newtop) override this.
        """
        names = tuple(checks) if checks is not None else self.checks
        return check_events(trace, view_agreement_sets, names, self.check_scope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
