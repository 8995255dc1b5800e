"""The unified session lifecycle: one front door for every protocol stack.

A :class:`Session` owns the simulated substrate (simulator, network,
transport, trace recorder) and drives a pluggable
:class:`~repro.api.stack.ProtocolStack` through one lifecycle::

    from repro.api import Session

    session = Session(stack="newtop", config={"omega": 1.5}, seed=7)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    session.multicast("P1", "g", "hello")
    session.run(30)
    result = session.result()
    assert result.passed

The same five lines run the fixed sequencer, ISIS, Lamport all-ack, Psync
or the primary-partition policy by changing ``stack=``; verification is
routed through the stack's declared checks, so a sequencer run streams the
total-order checker while a Psync run streams the causal one.

Faults are session calls as well -- :meth:`Session.crash`,
:meth:`~Session.leave`, :meth:`~Session.partition`,
:meth:`~Session.isolate`, :meth:`~Session.heal` -- and take effect at once,
at the network and at the stack.  To time one, schedule the call, as the
scenario engine does for a spec's events::

    session.sim.schedule_at(12.0, session.crash, "P3")

Two analysis modes mirror the scenario engine's:

``analysis="offline"`` (default)
    The full trace is materialized; :meth:`Session.result` evaluates the
    stack's post-hoc checkers over it and :meth:`Session.trace` works.
``analysis="online"``
    The recorder streams into the stack's check suite and a rolling
    :class:`~repro.net.trace.MetricsSink` with ``keep_events=False``: no
    trace event is stored, and every process's delivery log keeps a count,
    not a record per delivery (:class:`~repro.net.trace.DeliveryLog`; the
    records are read offline).  What a streaming run still keeps grows
    with its traffic: the checkers' per-message state (arbiter ranks,
    causal send chains, total-order deliverer maps), each process's
    :class:`~repro.core.delivery.DeliveryQueue` set of delivered ids
    (which tells a recovered duplicate apart from a late message that
    safe2 must reject) and the latency reservoirs.

Extra :class:`~repro.net.trace.TraceSink` objects (e.g. a
:class:`~repro.net.trace.JsonlSink`, or a custom observer) attach in either
mode via ``sinks=[...]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Union

from repro.analysis.checkers import CheckResult
from repro.api.stack import ProtocolStack, StackContext, StackError
from repro.api.stacks import get_stack
from repro.net.faults import get_link_faults
from repro.net.latency import LatencyModel
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.trace import EventTrace, MetricsSink, TraceRecorder, TraceSink
from repro.net.transport import Transport
from repro.obs import Observation
from repro.workloads.client import DeliveryRouter


@dataclass
class SessionResult:
    """Everything a session run produced."""

    stack: str
    analysis: str
    checks: Optional[CheckResult]
    deliveries: int
    messages_sent: int
    delivery_events: int
    bytes_sent: int
    sim_time: float
    trace_events: int
    trace_events_stored: int
    protocol_bytes: Optional[int] = None
    metrics: Optional[Dict[str, object]] = None
    #: The observation snapshot (``observe=`` was given), else ``None``.
    obs: Optional[Dict[str, object]] = None
    #: Sinks that raised during fan-out and were detached (see
    #: :class:`~repro.net.trace.TraceRecorder`); each entry names the sink
    #: and the error.  Non-empty errors fail :attr:`passed` -- a detached
    #: verifier must not turn into a silent pass.
    sink_errors: List[Dict[str, object]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every selected check held (vacuously true with none)
        and no trace sink was detached mid-run."""
        if self.sink_errors:
            return False
        return self.checks is None or self.checks.passed


class Session:
    """One protocol run: substrate + stack + verification, one lifecycle."""

    def __init__(
        self,
        stack: Union[str, ProtocolStack] = "newtop",
        config: Optional[Mapping] = None,
        *,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        batch_window: float = 0.0,
        link_faults: object = None,
        sinks: Optional[Sequence[TraceSink]] = None,
        checks: Optional[Iterable[str]] = None,
        analysis: str = "offline",
        view_agreement_sets: Optional[Dict[str, Iterable[str]]] = None,
        observe: object = None,
    ) -> None:
        if analysis not in ("offline", "online"):
            raise ValueError(f"unknown analysis mode {analysis!r}")
        self.stack = get_stack(stack)
        self.analysis = analysis
        self.view_agreement_sets = view_agreement_sets
        self._checks = tuple(checks) if checks is not None else None
        # Observation (repro.obs): ``True`` enables metrics + sampler,
        # "journeys" adds sampled per-message journey tracing, "full" adds
        # the profiler, span breakdowns and journeys, a dict passes keyword
        # arguments through.  Never changes behaviour or seed-determinism
        # (pinned by the hot-path equivalence tests).
        self.observation: Optional[Observation] = Observation.coerce(observe)
        obs = self.observation
        # The recorder comes first: the layers built below read its
        # lifecycle dispatch (``None`` unless a sink subscribes) once.
        self.suite = None
        self.metrics_sink: Optional[MetricsSink] = None
        extra_sinks = list(sinks or ())
        if obs is not None:
            extra_sinks.extend(obs.trace_sinks())
        if analysis == "online":
            # checks=() disables verification; the metrics sink still runs.
            if self._checks is None or self._checks:
                self.suite = self.stack.make_check_suite(
                    view_agreement_sets, checks=self._checks
                )
            self.metrics_sink = MetricsSink()
            check_sinks = [self.suite] if self.suite is not None else []
            self.recorder = TraceRecorder(
                sinks=[*check_sinks, self.metrics_sink, *extra_sinks],
                keep_events=False,
            )
        else:
            self.recorder = TraceRecorder(sinks=extra_sinks)
        self.sim = Simulator(
            seed=seed,
            metrics=obs.registry if obs is not None else None,
            profiler=obs.profiler if obs is not None else None,
        )
        network_config = NetworkConfig()
        if latency_model is not None:
            network_config.latency_model = latency_model
        network_config.batch_window = batch_window
        # ``link_faults`` accepts a LinkFaultModel or its JSON-shaped dict
        # (the form scenario specs carry); ``None`` disables link faults.
        network_config.link_faults = get_link_faults(link_faults)
        self.network = Network(
            self.sim, network_config, lifecycle=self.recorder.lifecycle
        )
        self.transport = Transport(self.network)
        if obs is not None:
            obs.bind(self.sim, self.recorder)
        self.stack.attach(
            StackContext(
                sim=self.sim,
                network=self.network,
                transport=self.transport,
                recorder=self.recorder,
            ),
            protocol=config,
        )
        self._client_router: Optional[DeliveryRouter] = None
        # The network holds one partition layout at a time, but faults
        # compose: an isolation while a partition is up must not heal it.
        self._partition_components: List[Set[str]] = []
        self._isolated: Set[str] = set()
        self._closed = False
        self._result: Optional[SessionResult] = None

    # ------------------------------------------------------------------
    # Process and group lifecycle
    # ------------------------------------------------------------------
    def spawn(self, process_ids: Union[str, Iterable[str]]) -> List[str]:
        """Create one process (a string) or several (an iterable)."""
        names = [process_ids] if isinstance(process_ids, str) else list(process_ids)
        for name in names:
            self.stack.spawn(name)
        return names

    def group(
        self,
        group_id: str,
        members: Optional[Sequence[str]] = None,
        mode: Optional[object] = None,
    ) -> None:
        """Install a group over ``members`` (default: every process)."""
        chosen = list(members) if members is not None else self.stack.process_ids()
        self.stack.create_group(group_id, chosen, mode=mode)

    def multicast(self, sender: str, group_id: str, payload: object) -> Optional[str]:
        """Multicast through the stack; returns the message id (or ``None``
        when the stack refused the send)."""
        return self.stack.multicast(sender, group_id, payload)

    def attach_client(self, client):
        """Attach a reactive traffic client (e.g. an
        :class:`~repro.workloads.client.OpenLoopClient`).

        The client is bound to this session -- giving it the simulator for
        scheduling arrivals and the stack for membership guards -- and to
        the session's delivery router, the one ``DELIVER`` sink all its
        clients share: each delivery goes to the client that issued the
        message id, in either analysis mode.  Returns the client; call its
        ``start()`` to begin offering load.
        """
        if self._client_router is None:
            self._client_router = self.recorder.add_sink(DeliveryRouter(self.recorder))
        client.bind(self, self._client_router)
        return client

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def crash(self, process_id: str) -> None:
        """Crash-stop one process immediately."""
        self.stack.crash(process_id)

    def leave(self, process_id: str, group_id: str) -> None:
        """Voluntary departure (stacks without the capability raise)."""
        self.stack.leave(process_id, group_id)

    def form_group(self, group_id: str, members: Sequence[str]) -> None:
        """Dynamic mid-run formation (stacks without the capability raise)."""
        self.stack.form_group(group_id, members)

    def partition(self, components: Sequence[Iterable[str]]) -> None:
        """Install a network partition immediately.  It replaces the last
        partition; processes isolated since the last heal stay isolated."""
        self._partition_components = [set(side) for side in components]
        self._install_topology()

    def isolate(self, process_ids: Sequence[str]) -> None:
        """Partition each listed process away from everyone else, within
        whatever partition is installed."""
        self._isolated.update(process_ids)
        self._install_topology()

    def heal(self) -> None:
        """Heal all partitions and isolations immediately."""
        self._partition_components = []
        self._isolated = set()
        self.network.partitions.heal(at_time=self.sim.now)
        self.stack.on_heal()

    def _install_topology(self) -> None:
        """Install the composed fault topology: the partition's components
        lose their isolated members, every isolated process is a singleton
        component, and the processes nobody listed form the leftover one.
        The stack hears every component, the leftover included."""
        components = [side - self._isolated for side in self._partition_components]
        components = [side for side in components if side]
        components.extend({name} for name in sorted(self._isolated))
        partitions = self.network.partitions
        partitions.partition([sorted(side) for side in components], at_time=self.sim.now)
        self.stack.on_partition(partitions.components())

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        """Advance simulated time by ``duration``."""
        if self.observation is not None:
            self.observation.ensure_sampling()
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Run until ``predicate()`` holds or ``timeout`` simulated time passes."""
        if self.observation is not None:
            self.observation.ensure_sampling()
        return self.sim.run_until(predicate, timeout)

    def run_until_delivered(
        self,
        message_id: str,
        processes: Optional[Sequence[str]] = None,
        timeout: float = 200.0,
    ) -> bool:
        """Run until every listed (alive) Newtop process has delivered
        ``message_id`` (a message of an ordered group: an atomic-only
        group's deliveries bypass the delivery queue polled here)."""
        targets = [
            self[process_id]
            for process_id in (processes if processes is not None else self.processes)
        ]

        def all_delivered() -> bool:
            return all(
                process.crashed or process.delivery_queue.was_delivered(message_id)
                for process in targets
            )

        return self.run_until(all_delivered, timeout)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def processes(self):
        """The stack's process mapping (protocol-specific value type)."""
        return self.stack.processes

    def __getitem__(self, process_id: str):
        return self.stack.processes[process_id]

    def trace(self) -> EventTrace:
        """The materialized trace (offline mode only)."""
        return self.recorder.trace()

    def deliveries(self) -> int:
        """Total application deliveries so far."""
        return self.stack.deliveries()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close every trace sink (idempotent)."""
        if not self._closed:
            self._closed = True
            self.recorder.close()

    def result(self) -> SessionResult:
        """Close the sinks and evaluate the stack's selected checks.

        Online mode reads the verdict from the streaming suite; offline
        mode runs the stack's post-hoc checkers over the stored trace.
        ``checks=()`` disables verification (``checks`` is then ``None``).
        """
        if self._result is not None:
            return self._result
        self.close()
        checks: Optional[CheckResult]
        if self._checks is not None and not self._checks:
            checks = None
        elif self.suite is not None:
            checks = self.suite.result()
        else:
            checks = self.stack.offline_checks(
                self.trace(), self.view_agreement_sets, checks=self._checks
            )
        stats = self.network.stats
        self._result = SessionResult(
            stack=self.stack.name,
            analysis=self.analysis,
            checks=checks,
            deliveries=self.stack.deliveries(),
            messages_sent=stats.messages_sent,
            delivery_events=stats.delivery_events,
            bytes_sent=stats.bytes_sent,
            sim_time=self.sim.now,
            trace_events=self.recorder.events_recorded,
            trace_events_stored=self.recorder.stored_events,
            protocol_bytes=self.stack.protocol_bytes(),
            metrics=(
                self.metrics_sink.snapshot(self.recorder.kind_counts())
                if self.metrics_sink is not None
                else None
            ),
            obs=(
                self.observation.snapshot() if self.observation is not None else None
            ),
            sink_errors=list(self.recorder.sink_errors),
        )
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(stack={self.stack.name!r}, "
            f"processes={self.stack.process_ids()}, now={self.sim.now:.2f})"
        )
