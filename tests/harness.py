"""Tests-local cluster harnesses for protocol-level unit tests.

The public entry point for running any protocol is
:class:`repro.api.Session`; the deprecated ``NewtopCluster`` /
``BaselineCluster`` shims were removed from the package.  The protocol
*unit* tests, however, deliberately poke below the session layer -- they
reach into individual processes, hand-build views, inspect retention
buffers -- so they keep a minimal cluster harness here, local to the test
suite, where it cannot leak back into the public API.

Everything here is a thin wire-up of the real substrate objects
(:class:`~repro.net.simulator.Simulator`, :class:`~repro.net.network.Network`,
:class:`~repro.net.transport.Transport`, :class:`~repro.net.trace.TraceRecorder`);
no protocol behaviour lives in this file.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Type

from repro.baselines import BaselineProcess
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.process import NewtopProcess
from repro.net.failures import FailureSchedule, FaultInjector
from repro.net.latency import LatencyModel
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.trace import EventTrace, TraceRecorder
from repro.net.transport import Transport


class NewtopCluster:
    """A set of Newtop processes sharing one simulated network."""

    def __init__(
        self,
        process_ids: Sequence[str],
        config: Optional[NewtopConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        network_config = NetworkConfig()
        if latency_model is not None:
            network_config.latency_model = latency_model
        self.network = Network(self.sim, network_config)
        self.transport = Transport(self.network)
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.config = (config or NewtopConfig()).validate()
        self.injector = FaultInjector(self.sim, self.network)
        self.processes: Dict[str, NewtopProcess] = {}
        for process_id in process_ids:
            self.processes[process_id] = NewtopProcess(
                process_id,
                self.sim,
                self.transport,
                recorder=self.recorder,
                config=self.config,
            )

    # ------------------------------------------------------------------
    # Membership helpers
    # ------------------------------------------------------------------
    def __getitem__(self, process_id: str) -> NewtopProcess:
        return self.processes[process_id]

    def __iter__(self):
        return iter(self.processes.values())

    @property
    def process_ids(self) -> List[str]:
        """Identifiers of all processes in the cluster."""
        return sorted(self.processes)

    def create_group(
        self,
        group_id: str,
        members: Optional[Sequence[str]] = None,
        mode: Optional[OrderingMode] = None,
    ) -> None:
        """Install a statically configured group on all of its members."""
        members = list(members) if members is not None else self.process_ids
        for member in members:
            self.processes[member].create_group(group_id, members, mode=mode)

    def members_of(self, group_id: str) -> List[NewtopProcess]:
        """Processes that currently consider themselves members of the group."""
        return [
            process
            for process in self.processes.values()
            if not process.crashed and process.is_member(group_id)
        ]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_failures(self, schedule: FailureSchedule) -> None:
        """Schedule a declarative set of failures on the cluster."""
        self.injector.install(schedule)

    def crash(self, process_id: str) -> None:
        """Crash one process immediately (crash-stop)."""
        self.processes[process_id].crash()

    def partition(self, components: Sequence[Iterable[str]]) -> None:
        """Install a network partition immediately."""
        self.injector.partition_now(components)

    def heal(self) -> None:
        """Heal all partitions immediately."""
        self.injector.heal_now()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration``."""
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` simulated time passes."""
        return self.sim.run_until(predicate, timeout)

    def run_until_delivered(
        self, message_id: str, processes: Optional[Sequence[str]] = None, timeout: float = 200.0
    ) -> bool:
        """Run until every listed (alive) process has delivered ``message_id``
        (a message of an ordered group: an atomic-only group's deliveries
        bypass the delivery queue polled here)."""
        targets = [
            self.processes[process_id]
            for process_id in (processes or self.process_ids)
        ]

        def all_delivered() -> bool:
            return all(
                process.crashed
                or process.delivery_queue.was_delivered(message_id)
                for process in targets
            )

        return self.run_until(all_delivered, timeout)

    def trace(self) -> EventTrace:
        """The trace of everything recorded so far."""
        return self.recorder.trace()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NewtopCluster(processes={self.process_ids}, now={self.sim.now:.2f})"


class BaselineCluster:
    """A group of identical baseline processes on one simulated network."""

    def __init__(
        self,
        process_class: Type[BaselineProcess],
        process_ids: Sequence[str],
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
        **process_kwargs,
    ) -> None:
        self.sim = Simulator(seed=seed)
        network_config = NetworkConfig()
        if latency_model is not None:
            network_config.latency_model = latency_model
        self.network = Network(self.sim, network_config)
        self.transport = Transport(self.network)
        self.processes: Dict[str, BaselineProcess] = {}
        for process_id in process_ids:
            self.processes[process_id] = process_class(
                process_id, self.sim, self.transport, process_ids, **process_kwargs
            )

    def __getitem__(self, process_id: str) -> BaselineProcess:
        return self.processes[process_id]

    def __iter__(self):
        return iter(self.processes.values())

    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration``."""
        self.sim.run(until=self.sim.now + duration)

    def run_until_all_delivered(self, expected: int, timeout: float = 500.0) -> bool:
        """Run until every process has made at least ``expected`` deliveries."""
        return self.sim.run_until(
            lambda: all(len(process.delivered) >= expected for process in self),
            timeout,
        )

    def total_protocol_bytes(self) -> int:
        """Protocol-overhead bytes transmitted by all processes."""
        return sum(process.protocol_bytes_sent for process in self)

    def total_messages_sent(self) -> int:
        """Network messages transmitted (from the network's counters)."""
        return self.network.stats.messages_sent

    def delivery_orders_agree(self) -> bool:
        """Whether every pair of processes agrees on the relative order of
        the messages they both delivered (the baseline's own sanity check)."""
        orders = [process.delivered_ids() for process in self]
        for i, first in enumerate(orders):
            for second in orders[i + 1 :]:
                common = set(first) & set(second)
                first_common = [msg for msg in first if msg in common]
                second_common = [msg for msg in second if msg in common]
                if first_common != second_common:
                    return False
        return True
