"""Concrete :class:`~repro.api.stack.ProtocolStack` implementations.

* :class:`NewtopStack` -- the paper's protocol, in spec-declared, forced
  symmetric, or forced asymmetric ordering mode (registry names
  ``"newtop"``, ``"newtop-symmetric"``, ``"newtop-asymmetric"``).
* :class:`BaselineStack` -- lifts any single-group §6 baseline
  (:mod:`repro.baselines`) to the multi-group scenarios Newtop is compared
  under by running one independent protocol instance per (process, group)
  pair on a per-group transport channel.  Its guarantees are therefore
  per-group (``check_scope = "group"``): exactly the limitation §6
  attributes to these protocols.
* :class:`PrimaryPartitionStack` -- fixed-sequencer ordering governed by
  the primary-partition membership policy: after a partition, only the
  component holding a strict majority of each group may keep multicasting
  (the availability contrast of experiment E16).

:func:`get_stack` resolves registry names (or passes instances through);
every stack is freshly constructed per session, so sessions never share
protocol state.

No :mod:`repro.baselines` module is imported here at load time: each
baseline's ``STACK_FACTORIES`` entry imports its protocol module when it
is called, and :class:`PrimaryPartitionStack` imports its own in
``__init__`` and ``on_partition``.  A Newtop run never loads them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Type,
)

from repro.analysis.checkers import CheckResult, check_all
from repro.api.stack import (
    CAP_CRASH,
    CAP_FORM_GROUP,
    CAP_LEAVE,
    CAP_PARTITION,
    ALL_CHECKS,
    ProtocolStack,
    StackContext,
    StackError,
)
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.process import NewtopProcess
from repro.net.trace import CRASH, EventTrace, VIEW_INSTALL

if TYPE_CHECKING:
    from repro.baselines.base import BaselineProcess


class NewtopStack(ProtocolStack):
    """The Newtop protocol behind the uniform stack interface."""

    name = "newtop"
    capabilities = frozenset({CAP_CRASH, CAP_PARTITION, CAP_LEAVE, CAP_FORM_GROUP})
    checks = ALL_CHECKS
    check_scope = "global"

    def __init__(self, mode: Optional[OrderingMode] = None) -> None:
        super().__init__()
        #: When set, every group runs this ordering mode regardless of what
        #: the caller (or scenario spec) asks for -- how the two
        #: "newtop-symmetric"/"newtop-asymmetric" comparison stacks differ.
        self.mode_override = mode
        if mode is not None:
            self.name = f"newtop-{mode.value}"
        self.config = NewtopConfig()
        self.processes: Dict[str, NewtopProcess] = {}

    def attach(self, context: StackContext, protocol: Optional[Mapping] = None) -> None:
        super().attach(context, protocol)
        if isinstance(protocol, NewtopConfig):
            self.config = protocol.validate()
        else:
            self.config = NewtopConfig(**dict(protocol or {})).validate()

    def spawn(self, process_id: str) -> None:
        if process_id in self.processes:
            raise StackError(f"process {process_id!r} already spawned")
        context = self._context()
        self.processes[process_id] = NewtopProcess(
            process_id,
            context.sim,
            context.transport,
            recorder=context.recorder,
            config=self.config,
        )

    def create_group(
        self, group_id: str, members: Sequence[str], mode: Optional[object] = None
    ) -> None:
        effective = self.mode_override if self.mode_override is not None else mode
        for member in members:
            self.processes[member].create_group(group_id, members, mode=effective)

    def multicast(self, process_id: str, group_id: str, payload: object) -> Optional[str]:
        return self.processes[process_id].multicast(group_id, payload)

    def crash(self, process_id: str) -> None:
        self.processes[process_id].crash()

    def leave(self, process_id: str, group_id: str) -> None:
        self.processes[process_id].leave_group(group_id)

    def form_group(self, group_id: str, members: Sequence[str]) -> None:
        self.processes[members[0]].form_group(group_id, members)

    def process_ids(self) -> List[str]:
        return sorted(self.processes)

    def is_member(self, process_id: str, group_id: str) -> bool:
        return self.processes[process_id].is_member(group_id)

    def is_crashed(self, process_id: str) -> bool:
        return self.processes[process_id].crashed

    def deliveries(self) -> int:
        return sum(process.delivered.count for process in self.processes.values())

    def delivered_ids(self, process_id: str, group_id: Optional[str] = None) -> List[str]:
        return [
            record.msg_id
            for record in self.processes[process_id].delivered
            if group_id is None or record.group == group_id
        ]

    def offline_checks(
        self,
        trace: EventTrace,
        view_agreement_sets=None,
        checks: Optional[Iterable[str]] = None,
    ) -> CheckResult:
        # The paper's exact post-hoc checkers, unless a subset was selected.
        if checks is None or tuple(checks) == ALL_CHECKS:
            return check_all(trace, view_agreement_sets=view_agreement_sets)
        return super().offline_checks(trace, view_agreement_sets, checks=checks)

    def _context(self) -> StackContext:
        if self.context is None:
            raise StackError(f"stack {self.name!r} is not attached to a session")
        return self.context


class BaselineStack(ProtocolStack):
    """A single-group §6 baseline lifted to overlapping groups.

    Each group runs an independent instance of the protocol per member on
    its own transport channel (``baseline:<group>``), so several groups --
    and several baselines' worth of state at one process -- coexist on the
    shared network exactly like Newtop's per-group endpoints do.  Nothing
    coordinates *across* groups, which is why the declared checks are
    evaluated per group (``check_scope = "group"``).
    """

    capabilities = frozenset({CAP_CRASH, CAP_PARTITION})
    check_scope = "group"

    def __init__(
        self,
        process_class: Type[BaselineProcess],
        name: Optional[str] = None,
        checks: Tuple[str, ...] = ("total_order", "sender_in_view"),
    ) -> None:
        super().__init__()
        self.process_class = process_class
        self.name = name or process_class.protocol_name
        self.checks = checks
        #: process id -> group id -> protocol instance
        self.processes: Dict[str, Dict[str, BaselineProcess]] = {}
        #: group id -> sorted member tuple
        self.groups: Dict[str, Tuple[str, ...]] = {}
        self._crashed: Set[str] = set()

    def attach(self, context: StackContext, protocol: Optional[Mapping] = None) -> None:
        # Baselines have no protocol knobs; Newtop-specific overrides
        # (suspicion timeouts etc.) are deliberately ignored.
        super().attach(context, protocol)

    def spawn(self, process_id: str) -> None:
        if process_id in self.processes:
            raise StackError(f"process {process_id!r} already spawned")
        self.processes[process_id] = {}
        # Materialize the endpoint now so process-level faults (crash)
        # apply even before the process joins any group.
        self._context().transport.endpoint(process_id)

    def create_group(
        self, group_id: str, members: Sequence[str], mode: Optional[object] = None
    ) -> None:
        if group_id in self.groups:
            raise StackError(f"group {group_id!r} already exists")
        context = self._context()
        members = tuple(sorted(members))
        self.groups[group_id] = members
        for member in members:
            self.processes[member][group_id] = self.process_class(
                member,
                context.sim,
                context.transport,
                members,
                group_id=group_id,
                channel=f"baseline:{group_id}",
                recorder=context.recorder,
            )
            # The static membership is the group's one and only view; the
            # install event scopes the MD1/causal exemptions the streaming
            # checkers apply, just as Newtop's installs do.
            context.recorder.record(
                context.sim.now,
                VIEW_INSTALL,
                member,
                group=group_id,
                members=members,
                view_index=0,
            )

    def multicast(self, process_id: str, group_id: str, payload: object) -> Optional[str]:
        instance = self.processes[process_id].get(group_id)
        if instance is None:
            raise StackError(f"{process_id!r} is not a member of {group_id!r}")
        if instance.crashed or self._send_blocked(process_id, group_id):
            return None
        # The instance records the SEND itself (before any synchronous
        # self-delivery), keeping the trace stream causally coherent.
        return instance.multicast(payload)

    def _send_blocked(self, process_id: str, group_id: str) -> bool:
        """Policy hook (primary-partition halts non-primary members here)."""
        return False

    def crash(self, process_id: str) -> None:
        if process_id in self._crashed:
            return
        self._crashed.add(process_id)
        context = self._context()
        for instance in self.processes[process_id].values():
            instance.crash()
        # Covers processes that joined no group (endpoint.crash is
        # idempotent when instances already crashed it).
        context.transport.endpoint(process_id).crash()
        context.recorder.record(context.sim.now, CRASH, process_id)

    def process_ids(self) -> List[str]:
        return sorted(self.processes)

    def is_member(self, process_id: str, group_id: str) -> bool:
        return group_id in self.processes.get(process_id, {})

    def is_crashed(self, process_id: str) -> bool:
        return process_id in self._crashed

    def deliveries(self) -> int:
        return sum(
            instance.delivered.count
            for groups in self.processes.values()
            for instance in groups.values()
        )

    def delivered_ids(self, process_id: str, group_id: Optional[str] = None) -> List[str]:
        if group_id is not None:
            instance = self.processes.get(process_id, {}).get(group_id)
            return instance.delivered_ids() if instance is not None else []
        # Across groups the trace holds the order deliveries happened in;
        # merging the per-group logs by time cannot order one instant's.
        return self._context().recorder.trace().delivered_ids(process_id)

    def protocol_bytes(self) -> Optional[int]:
        return sum(
            instance.protocol_bytes_sent
            for groups in self.processes.values()
            for instance in groups.values()
        )

    def _context(self) -> StackContext:
        if self.context is None:
            raise StackError(f"stack {self.name!r} is not attached to a session")
        return self.context


class PrimaryPartitionStack(BaselineStack):
    """Fixed-sequencer ordering under the primary-partition policy (§6).

    On every partition the policy is evaluated per group against the
    group's static view: members outside the unique majority component are
    *halted* -- their multicasts are refused until the partition heals --
    which is precisely the availability restriction Newtop's partitionable
    membership avoids (experiment E16).
    """

    def __init__(self) -> None:
        from repro.baselines.fixed_sequencer import FixedSequencerProcess

        super().__init__(
            FixedSequencerProcess,
            name="primary_partition",
            checks=("total_order", "sender_in_view"),
        )
        self._halted: Set[Tuple[str, str]] = set()

    def on_partition(self, components: Sequence[Iterable[str]]) -> None:
        from repro.baselines.primary_partition import PrimaryPartitionMembership

        self._halted.clear()
        for group_id, members in self.groups.items():
            live = [member for member in members if member not in self._crashed]
            if not live:
                continue
            policy = PrimaryPartitionMembership(live)
            available = policy.available_processes(components)
            for member in live:
                if member not in available:
                    self._halted.add((member, group_id))

    def on_heal(self) -> None:
        self._halted.clear()

    def _send_blocked(self, process_id: str, group_id: str) -> bool:
        return (process_id, group_id) in self._halted

    def halted_memberships(self) -> List[Tuple[str, str]]:
        """(process, group) pairs currently blocked by the policy."""
        return sorted(self._halted)


def _fixed_sequencer_stack() -> ProtocolStack:
    from repro.baselines.fixed_sequencer import FixedSequencerProcess

    return BaselineStack(FixedSequencerProcess, checks=("total_order", "sender_in_view"))


def _isis_stack() -> ProtocolStack:
    from repro.baselines.isis import IsisProcess

    return BaselineStack(IsisProcess, checks=("total_order", "causal_prefix", "sender_in_view"))


def _lamport_ack_stack() -> ProtocolStack:
    from repro.baselines.lamport_ack import LamportAckProcess

    return BaselineStack(LamportAckProcess, checks=("total_order", "sender_in_view"))


def _psync_stack() -> ProtocolStack:
    from repro.baselines.psync import PsyncProcess

    return BaselineStack(PsyncProcess, checks=("causal_prefix", "sender_in_view"))


#: Registry of constructable stacks; every entry builds a *fresh* stack.
STACK_FACTORIES: Dict[str, Callable[[], ProtocolStack]] = {
    "newtop": NewtopStack,
    "newtop-symmetric": lambda: NewtopStack(mode=OrderingMode.SYMMETRIC),
    "newtop-asymmetric": lambda: NewtopStack(mode=OrderingMode.ASYMMETRIC),
    "fixed_sequencer": _fixed_sequencer_stack,
    "isis": _isis_stack,
    "lamport_ack": _lamport_ack_stack,
    "psync": _psync_stack,
    "primary_partition": PrimaryPartitionStack,
}

#: The six stacks the paper's comparative claims are benchmarked across.
COMPARISON_STACKS: Tuple[str, ...] = (
    "newtop-symmetric",
    "newtop-asymmetric",
    "fixed_sequencer",
    "isis",
    "lamport_ack",
    "psync",
)


def available_stacks() -> List[str]:
    """Registry names accepted by :func:`get_stack` and the session layer."""
    return sorted(STACK_FACTORIES)


def get_stack(stack) -> ProtocolStack:
    """Resolve a stack argument: an instance passes through, a registry
    name constructs a fresh stack."""
    if isinstance(stack, ProtocolStack):
        return stack
    # Only the lookup is guarded: an error raised while a registered
    # factory builds its stack is that stack's, not an unknown name.
    try:
        factory = STACK_FACTORIES[stack]
    except (KeyError, TypeError):
        raise StackError(
            f"unknown protocol stack {stack!r}; expected a ProtocolStack or "
            f"one of {available_stacks()}"
        ) from None
    return factory()
