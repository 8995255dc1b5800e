"""The scenario engine: run a declarative spec on any protocol stack.

The engine turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
running :class:`~repro.api.Session`: it installs the groups, drives the
background workload, applies the timed fault/membership events (including
dynamic ``form_group`` formations), samples the simulator's health (heap
occupancy) while running, and finally evaluates the correctness predicates
the selected stack's guarantees claim.

``stack`` selects the protocol (default ``"newtop"`` -- the paper's
protocol with each group's spec-declared ordering mode); any registry name
or :class:`~repro.api.ProtocolStack` instance from :mod:`repro.api` works,
which is how one churn scenario compares Newtop against the fixed
sequencer, ISIS, Lamport all-ack and Psync under identical conditions
(benchmark E20).  Scenario events are mapped onto the stack's declared
capability flags: an event the stack has no capability for (e.g.
``form_group`` on a single-group baseline) raises a clear
:class:`~repro.api.UnsupportedScenarioEvent` up front, or -- with
``on_unsupported="skip"`` -- is dropped with a recorded warning in
:attr:`ScenarioResult.skipped_events`, never an ``AttributeError``
mid-run.

Two analysis modes select how the predicates are evaluated:

``analysis="offline"`` (default)
    The full trace is materialized and the stack's post-hoc checkers run
    at the end (for Newtop, the exact MD/VC checkers of
    :mod:`repro.analysis.checkers`) -- right for paper-sized runs and
    debugging.
``analysis="online"``
    The recorder streams into the stack's
    :class:`~repro.analysis.online.OnlineCheckSuite` (scoped per group for
    single-group baselines) and a rolling
    :class:`~repro.net.trace.MetricsSink`; **no event is stored**
    (``keep_events=False``) and the processes' delivery logs keep counts
    only, so 1000-process churn runs verify in one pass.  What is kept
    still grows with the traffic: per-message checker state, each
    process's delivered-id set and the latency reservoirs (see
    :mod:`repro.api.session`).  Extra sinks (e.g. a
    :class:`~repro.net.trace.JsonlSink`) can be attached in either mode.

Checking under churn needs care: after partitions (real or induced by drop
windows) only processes that were never separated -- the scenario's *stable
core* -- are required to agree on view sequences (VC1 quantifies over
processes that never suspect each other).  The engine derives the expected
agreement set per group from the event list alone, so scenario authors get
the right checks without hand-writing them; total order (MD4/MD4') is
checked over every process unconditionally, exactly as the paper states it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.analysis.checkers import CheckResult
from repro.api import (
    EVENT_CAPABILITIES,
    ProtocolStack,
    Session,
    UnsupportedScenarioEvent,
)
from repro.core.messages import reset_message_counter
from repro.net.faults import LinkFaultModel
from repro.net.latency import LatencyModel, get_latency_model
from repro.obs import Observation
from repro.net.trace import TraceSink
from repro.scenarios.spec import (
    FORMATION_WORKLOAD_GRACE,
    ScenarioEvent,
    ScenarioSpec,
    WorkloadSpec,
    from_config,
    to_config,
)
from repro.workloads.client import LatencyReservoir, OpenLoopClient, aggregate_counters
from repro.workloads.profiles import get_profile

#: Protocol defaults for scenario runs: fast time-silence and suspicion so
#: membership events settle within short simulated horizons, with enough
#: slack over the default latency model that healthy, connected processes
#: never suspect each other.  (Stacks without these knobs ignore them.)
SCENARIO_PROTOCOL_DEFAULTS: Mapping[str, object] = {
    "omega": 1.5,
    "suspicion_timeout": 6.0,
    "suspector_check_interval": 0.5,
}

#: Simulated-time spacing of runtime health samples.
SAMPLE_INTERVAL = 2.0


@dataclass
class RuntimeSample:
    """One periodic snapshot of simulator health while a scenario runs."""

    time: float
    pending_events: int
    live_pending_events: int


@dataclass
class ScenarioResult:
    """Everything a scenario run produced: verdicts plus runtime metrics."""

    name: str
    checks: CheckResult
    agreement_sets: Dict[str, List[str]]
    sim_time: float
    events_processed: int
    deliveries: int
    messages_sent: int
    delivery_events: int
    compactions: int
    peak_pending_events: int
    peak_live_pending_events: int
    samples: List[RuntimeSample] = field(default_factory=list)
    #: Which verification pipeline produced :attr:`checks`.
    analysis: str = "offline"
    #: Total trace events recorded (streamed or stored).
    trace_events: int = 0
    #: Trace events still held in memory at the end (0 in online mode).
    trace_events_stored: int = 0
    #: Rolling aggregates from the online MetricsSink (online mode only).
    metrics: Optional[Dict[str, object]] = None
    #: Name of the protocol stack the scenario ran on.
    stack: str = "newtop"
    #: Warnings for events dropped under ``on_unsupported="skip"``.
    skipped_events: List[str] = field(default_factory=list)
    #: Open-loop workload accounting (aggregated over the per-group
    #: clients) when the spec selected a profile; ``None`` otherwise.
    workload: Optional[Dict[str, object]] = None
    #: Exact delivery-latency statistics merged over the per-group clients
    #: (profile workloads only).  Carrying the *reservoir* -- not just its
    #: summary -- is what lets a sharded batch merge percentiles exactly:
    #: the object is picklable and rides back from pool workers intact.
    latency_reservoir: Optional[LatencyReservoir] = None
    #: Observation snapshot (``observe=`` was given), else ``None``.
    obs: Optional[Dict[str, object]] = None
    #: Trace sinks detached after raising mid-run (fails :attr:`passed`).
    sink_errors: List[Dict[str, object]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every checked guarantee held and no sink was detached."""
        return self.checks.passed and not self.sink_errors

    def summary(self) -> List[str]:
        """Human-readable result rows (used by the benchmark report)."""
        batching = (
            f"{self.messages_sent / self.delivery_events:.1f} msgs/event"
            if self.delivery_events
            else "n/a"
        )
        rows = [
            f"stack: {self.stack}",
            f"checks: {'PASS' if self.passed else 'FAIL ' + '; '.join(self.checks.violations[:2])}"
            f" ({self.analysis}; {self.trace_events} trace events, "
            f"{self.trace_events_stored} stored)",
            f"simulated time {self.sim_time:.1f}, events processed {self.events_processed}",
            f"messages sent {self.messages_sent}, app deliveries {self.deliveries}, "
            f"delivery batching {batching}",
            f"heap: peak pending {self.peak_pending_events} "
            f"(live {self.peak_live_pending_events}), compactions {self.compactions}",
        ]
        if self.skipped_events:
            rows.append(
                f"skipped {len(self.skipped_events)} event(s) unsupported by the stack"
            )
        return rows


class ScenarioEngine:
    """Runs one scenario spec on a fresh session over the chosen stack."""

    def __init__(
        self,
        spec: ScenarioSpec,
        latency_model: Optional[LatencyModel] = None,
        analysis: str = "offline",
        sinks: Optional[List[TraceSink]] = None,
        stack: Union[str, ProtocolStack] = "newtop",
        on_unsupported: str = "raise",
        observe: object = None,
    ) -> None:
        if analysis not in ("offline", "online"):
            raise ValueError(f"unknown analysis mode {analysis!r}")
        if on_unsupported not in ("raise", "skip"):
            raise ValueError(f"unknown on_unsupported policy {on_unsupported!r}")
        # One engine = one self-contained simulation; restarting message-id
        # numbering here makes a scenario's result independent of whatever
        # ran earlier in this interpreter -- the property that lets
        # :func:`run_scenarios` shard a batch across worker processes and
        # still match a serial run byte-for-byte.
        reset_message_counter()
        self.spec = spec
        self.analysis = analysis
        self._agreement_sets = self.expected_agreement_sets()
        overrides = dict(SCENARIO_PROTOCOL_DEFAULTS)
        overrides.update(spec.protocol)
        # A spec-declared latency model ("latency": {"model": ...}) applies
        # when the caller did not pass one explicitly -- an explicit
        # ``latency_model`` argument wins, so a batch can still sweep a
        # latency axis over latency-declaring specs.
        if latency_model is None and spec.latency is not None:
            options = {
                key: value for key, value in spec.latency.items() if key != "model"
            }
            latency_model = get_latency_model(spec.latency["model"], **options)
        self.session = Session(
            stack,
            config=overrides,
            seed=spec.seed,
            latency_model=latency_model,
            batch_window=spec.batch_window,
            link_faults=spec.link_faults,
            sinks=sinks,
            analysis=analysis,
            view_agreement_sets=self._agreement_sets,
            observe=observe,
        )
        self.stack = self.session.stack
        self.skipped_events: List[str] = []
        self._events = self._supported_events(on_unsupported)
        self.session.spawn(spec.processes)
        self.samples: List[RuntimeSample] = []
        #: Open-loop clients (one per group) when the spec names a profile.
        self.clients: List[OpenLoopClient] = []
        self._installed = False

    # ------------------------------------------------------------------
    # Capability mapping
    # ------------------------------------------------------------------
    def _supported_events(self, on_unsupported: str) -> Tuple[ScenarioEvent, ...]:
        """Events the stack can apply; the rest raise or are recorded."""
        supported: List[ScenarioEvent] = []
        for event in self.spec.events:
            capability = EVENT_CAPABILITIES.get(event.kind)
            if capability is None:
                raise ValueError(f"unknown scenario event kind {event.kind!r}")
            if self.stack.supports(capability):
                supported.append(event)
                continue
            message = (
                f"scenario {self.spec.name!r} event {event.kind!r} at "
                f"t={event.time} needs capability {capability!r} which stack "
                f"{self.stack.name!r} does not declare"
            )
            if on_unsupported == "raise":
                raise UnsupportedScenarioEvent(message)
            self.skipped_events.append(message + " -- skipped")
        return tuple(supported)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _install(self) -> None:
        if self._installed:
            return
        self._installed = True
        for group in self.spec.groups:
            self.session.group(group.group_id, group.members, mode=group.mode)
        self._schedule_workload()
        for event in self._events:
            self.session.sim.schedule_at(
                event.time, self._apply_event, event, label=f"scenario:{event.kind}"
            )
        self._schedule_sample()

    def _schedule_workload(self) -> None:
        # Every phase -- the primary workload plus each entry of
        # ``load_phases`` -- is driven through every group over its own
        # (validated non-overlapping) time window.  Open-loop phases
        # (``profile`` set) attach one reactive client per group per
        # phase, arrivals scheduled inside sim time -- the crash/membership
        # guards live in the client itself.  Closed-loop phases keep the
        # historical fixed rounds.  Dynamically formed groups get the
        # *primary* workload shape, starting a grace period after formation
        # so the §5.3 voting and start-number agreement can complete first
        # (early sends are skipped harmlessly by the membership guards).
        # Formations the stack cannot perform were filtered with their
        # events.
        for phase_index, workload in enumerate(self.spec.phases()):
            if workload.profile is not None:
                for group in self.spec.groups:
                    self._attach_client(
                        group.group_id,
                        group.members,
                        start=workload.start,
                        workload=workload,
                        phase_index=phase_index,
                    )
            else:
                for group in self.spec.groups:
                    self._schedule_group_sends(
                        group.group_id,
                        group.members,
                        start=workload.start,
                        workload=workload,
                        phase_index=phase_index,
                    )
        primary = self.spec.workload
        for event in self._events:
            if event.kind != "form_group":
                continue
            start = event.time + FORMATION_WORKLOAD_GRACE
            if primary.profile is not None:
                self._attach_client(
                    event.group, event.targets, start=start, workload=primary,
                    phase_index=0,
                )
            else:
                self._schedule_group_sends(
                    event.group, event.targets, start=start, workload=primary,
                    phase_index=0,
                )

    def _attach_client(
        self,
        group_id: str,
        members: Sequence[str],
        start: float,
        workload: WorkloadSpec,
        phase_index: int,
    ) -> None:
        senders = (
            list(members[: workload.senders_per_group])
            if workload.senders_per_group > 0
            else list(members)
        )
        profile = get_profile(
            workload.profile,
            rate=workload.rate,
            payload_bytes=workload.payload_bytes,
            **dict(workload.profile_options),
        )
        # Phase 0 keeps the historical "<group>-client" name (and the
        # seed derivation below keeps phase-0-only specs byte-identical to
        # the pre-load_phases engine: seeds follow attachment order).
        name = (
            f"{group_id}-client"
            if phase_index == 0
            else f"{group_id}-client-p{phase_index}"
        )
        client = self.session.attach_client(
            OpenLoopClient(
                profile,
                senders,
                [group_id],
                seed=self.spec.seed * 9973 + len(self.clients),
                start=start,
                duration=workload.duration,
                name=name,
            )
        )
        client.start()
        self.clients.append(client)

    def _schedule_group_sends(
        self,
        group_id: str,
        members: Sequence[str],
        start: float,
        workload: WorkloadSpec,
        phase_index: int,
    ) -> None:
        senders = (
            members[: workload.senders_per_group]
            if workload.senders_per_group > 0
            else members
        )
        # Phase 0 keeps the historical payload tag; later phases are
        # prefixed so payload strings stay unique across phases.
        tag = "" if phase_index == 0 else f"p{phase_index}:"
        for round_index in range(workload.messages_per_sender):
            send_time = start + round_index * workload.gap
            for sender in senders:
                self.session.sim.schedule_at(
                    send_time,
                    self._send,
                    sender,
                    group_id,
                    f"{tag}{group_id}:{sender}:{round_index}",
                    label="scenario:send",
                )

    def _send(self, sender: str, group_id: str, payload: str) -> None:
        # Senders drop out of the workload when the scenario crashed or
        # departed them; that is scenario-intended, not an error.
        if self.stack.is_crashed(sender) or not self.stack.is_member(sender, group_id):
            return
        self.session.multicast(sender, group_id, payload)

    def _apply_event(self, event: ScenarioEvent) -> None:
        session = self.session
        if event.kind == "crash":
            for target in event.targets:
                session.crash(target)
        elif event.kind == "leave":
            for target in event.targets:
                if not self.stack.is_crashed(target) and self.stack.is_member(
                    target, event.group
                ):
                    session.leave(target, event.group)
        elif event.kind == "partition":
            session.partition(event.components)
        elif event.kind == "heal":
            session.heal()
        elif event.kind == "isolate":
            session.isolate(event.targets)
        elif event.kind == "form_group":
            # §5.3: the first listed (live) target initiates formation with
            # every live target as an intended member.  Crashed targets are
            # dropped up front -- inviting one can only veto the formation
            # by timeout, which is scenario noise, not a protocol exercise.
            members = [
                target
                for target in event.targets
                if not self.stack.is_crashed(target)
            ]
            if len(members) >= 2:
                session.form_group(event.group, members)
        elif event.kind == "drop":
            session.network.drop_between(
                set(event.src), set(event.dst), event.duration, label="scenario:drop-end"
            )
        else:  # pragma: no cover - spec parsing rejects unknown kinds
            raise ValueError(f"unknown scenario event kind {event.kind!r}")

    def _schedule_sample(self) -> None:
        sim = self.session.sim
        self.samples.append(
            RuntimeSample(
                time=sim.now,
                pending_events=sim.pending_events,
                live_pending_events=sim.live_pending_events,
            )
        )
        if sim.now < self.spec.horizon():
            sim.schedule(SAMPLE_INTERVAL, self._schedule_sample, label="scenario:sample")

    # ------------------------------------------------------------------
    # Expected agreement sets (the scenario's stable core)
    # ------------------------------------------------------------------
    def expected_agreement_sets(self) -> Dict[str, List[str]]:
        """Per group, the processes required to agree on view sequences.

        The *stable core* starts as every process and shrinks on each event
        that can separate processes' perceptions: crashed/isolated targets
        drop out, a partition keeps only the component that retains the
        most of the current core (ties break deterministically towards the
        lexicographically smallest component), and drop windows remove the
        affected endpoints conservatively.  Group leavers are additionally
        excluded from that group's agreement set.  Dynamically formed
        groups (``form_group`` events) are held to the same agreement as
        static ones, over their intended members.

        Probabilistic link faults shrink the core the same way: processes
        on the endpoints of disruptive (drop/reorder) fault links can
        suffer genuine one-sided suspicion, so they are excluded up front;
        a globally disruptive model conservatively empties the core
        (delivery-level checks still run over every process).  Duplicate
        faults never perturb the protocol (the sequenced transport absorbs
        them) and cost nothing here.
        """
        core: Set[str] = set(self.spec.processes)
        if self.spec.link_faults is not None:
            model = LinkFaultModel.from_config(self.spec.link_faults)
            core -= model.disruptive_processes(self.spec.processes)
        leavers: Dict[str, Set[str]] = {}
        memberships: List[Tuple[str, Tuple[str, ...]]] = [
            (group.group_id, group.members) for group in self.spec.groups
        ]
        for event in self.spec.events:
            if event.kind in ("crash", "isolate"):
                core -= set(event.targets)
            elif event.kind == "form_group":
                memberships.append((event.group, event.targets))
            elif event.kind == "leave":
                leavers.setdefault(event.group, set()).update(event.targets)
            elif event.kind == "partition":
                listed: Set[str] = set()
                components = [set(side) for side in event.components]
                for side in components:
                    listed |= side
                leftover = set(self.spec.processes) - listed
                if leftover:
                    components.append(leftover)
                core &= min(
                    components,
                    key=lambda side: (-len(side & core), tuple(sorted(side))),
                )
            elif event.kind == "drop":
                # A lossy window can trigger genuine (if one-sided) mutual
                # suspicion; be conservative about who must still agree.
                core -= set(event.src) | set(event.dst)
        return {
            group_id: sorted(
                member
                for member in members
                if member in core and member not in leavers.get(group_id, set())
            )
            for group_id, members in memberships
        }

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Install, run to the horizon, and evaluate the checkers.

        In offline mode the stack's post-hoc checkers run over the
        materialized trace; in online mode the verdict is read from the
        streaming suite that consumed every event as it was recorded.
        """
        session = self.session
        try:
            self._install()
            sim = session.sim
            if session.observation is not None:
                session.observation.ensure_sampling()
            sim.run(until=self.spec.horizon())
            session_result = session.result()
        finally:
            # Sinks (e.g. a JsonlSink) must be flushed even when the run or
            # a checker raises -- that is exactly when the dump matters.
            session.close()
        return ScenarioResult(
            name=self.spec.name,
            checks=session_result.checks,
            agreement_sets=self._agreement_sets,
            sim_time=session_result.sim_time,
            events_processed=session.sim.events_processed,
            deliveries=session_result.deliveries,
            messages_sent=session_result.messages_sent,
            delivery_events=session_result.delivery_events,
            compactions=session.sim.compactions,
            peak_pending_events=max(sample.pending_events for sample in self.samples),
            peak_live_pending_events=max(
                sample.live_pending_events for sample in self.samples
            ),
            samples=list(self.samples),
            analysis=self.analysis,
            trace_events=session_result.trace_events,
            trace_events_stored=session_result.trace_events_stored,
            metrics=session_result.metrics,
            stack=self.stack.name,
            skipped_events=list(self.skipped_events),
            workload=self._workload_stats(),
            latency_reservoir=self._latency_reservoir(),
            obs=session_result.obs,
            sink_errors=session_result.sink_errors,
        )

    def _latency_reservoir(self) -> Optional[LatencyReservoir]:
        """The run's exact delivery-latency reservoir.

        Profile workloads merge the per-group clients' reservoirs (each is
        exact over that client's admitted messages).  Closed-loop runs fall
        back to the online MetricsSink's reservoir, which samples every
        delivery; offline closed-loop runs have no streaming aggregate and
        return ``None``.
        """
        if self.clients:
            return LatencyReservoir.merged(client.latency for client in self.clients)
        sink = self.session.metrics_sink
        return sink.latency if sink is not None else None

    def _workload_stats(self) -> Optional[Dict[str, object]]:
        if not self.clients:
            return None
        stats: Dict[str, object] = dict(aggregate_counters(self.clients))
        stats["profile"] = self.spec.workload.profile
        stats["rate_per_group"] = self.spec.workload.rate
        # With extra load phases a group can host several clients; its
        # per_group entry then aggregates them (a single client keeps its
        # exact counters dict, preserving the historical shape).
        by_group: Dict[str, List[OpenLoopClient]] = {}
        for client in self.clients:
            by_group.setdefault(client.groups[0], []).append(client)
        stats["per_group"] = {
            group_id: (
                clients[0].counters()
                if len(clients) == 1
                else dict(aggregate_counters(clients))
            )
            for group_id, clients in by_group.items()
        }
        return stats


def run_scenario(
    config: Mapping,
    latency_model: Optional[LatencyModel] = None,
    analysis: str = "offline",
    sinks: Optional[List[TraceSink]] = None,
    stack: Union[str, ProtocolStack] = "newtop",
    on_unsupported: str = "raise",
    observe: object = None,
) -> ScenarioResult:
    """Parse a scenario config dict, run it on ``stack``, and return the
    result.  See :class:`ScenarioEngine` for the knobs."""
    spec = config if isinstance(config, ScenarioSpec) else from_config(config)
    return ScenarioEngine(
        spec,
        latency_model=latency_model,
        analysis=analysis,
        sinks=sinks,
        stack=stack,
        on_unsupported=on_unsupported,
        observe=observe,
    ).run()


def run_scenarios(
    configs: Sequence[Mapping],
    parallel: Optional[int] = None,
    timeout: Optional[float] = None,
    latency_model: Optional[LatencyModel] = None,
    analysis: str = "offline",
    stack: Union[str, ProtocolStack] = "newtop",
    on_unsupported: str = "raise",
    progress=None,
    observe: object = None,
) -> List[ScenarioResult]:
    """Run a batch of scenarios, optionally sharded across worker processes.

    Results come back in input order, one per config.  The scenarios run
    through :func:`repro.parallel.run_units`: inline by default, or with
    ``parallel=N`` (N > 1) distributed over a pool of N worker processes
    -- each scenario is an independent simulation whose randomness
    derives entirely from its spec's seed, so the batch's results are
    identical to a serial run (``progress``, if given, then observes
    completion order).  In pool mode ``stack`` must be a registry name
    and ``observe`` a coercible value, not an
    :class:`~repro.obs.Observation` instance (worker processes build their
    own instances), and ``timeout`` bounds each scenario's wall clock.

    A scenario that raises, or whose worker crashes or times out, raises
    :class:`ScenarioExecutionError` naming the casualty, in either mode --
    a batch is a unit of verification, and a silently missing shard would
    make "all checks passed" a lie.
    """
    # Imported here, not at the top: a single scenario run never needs the
    # pool executor or the multiprocessing machinery behind it.
    from repro.parallel import WorkUnit, run_units

    configs = list(configs)
    if (parallel or 1) > 1:
        if not isinstance(stack, str):
            raise ValueError(
                "parallel scenario batches need a stack registry name, not an instance"
            )
        if isinstance(observe, Observation):
            # An Observation instance holds simulator-bound callables and
            # would not survive the pickle boundary.
            raise ValueError(
                "parallel scenario batches need a coercible observe= value "
                "(True, a mode name or a dict), not an Observation instance"
            )

    def on_event(kind, unit_id, worker, payload) -> None:
        if kind == "done" and progress is not None and payload.ok:
            progress(payload.value)

    units = [
        WorkUnit(
            unit_id=f"scenario-{index:04d}",
            fn=run_scenario,
            args=(config,),
            kwargs={
                "latency_model": latency_model,
                "analysis": analysis,
                "stack": stack,
                "on_unsupported": on_unsupported,
                "observe": observe,
            },
        )
        for index, config in enumerate(configs)
    ]
    outcomes = run_units(units, parallel=parallel, timeout=timeout, on_event=on_event)
    bad = [
        (index, outcome) for index, outcome in enumerate(outcomes) if not outcome.ok
    ]
    if bad:
        failures = []
        for index, outcome in bad:
            config = configs[index]
            spec = config if isinstance(config, ScenarioSpec) else None
            if spec is None:
                try:
                    spec = from_config(config)
                except Exception:  # replay info is best-effort on bad configs
                    spec = None
            if spec is not None:
                name, seed = spec.name, spec.seed
            elif isinstance(config, Mapping):
                # The config would not even parse; salvage whatever identity
                # it carries so the failure row still names its replay seed.
                raw_name, raw_seed = config.get("name"), config.get("seed")
                name = str(raw_name) if raw_name is not None else None
                seed = raw_seed if isinstance(raw_seed, int) else None
            else:
                name = seed = None
            failures.append(
                ScenarioFailure(
                    unit_id=outcome.unit_id,
                    status=outcome.status,
                    error=str(outcome.error),
                    index=index,
                    name=name,
                    seed=seed,
                    config=to_config(spec) if spec is not None else config,
                )
            )
        worst = failures[0]
        raise ScenarioExecutionError(
            f"{len(failures)} of {len(outcomes)} scenarios did not complete; "
            f"first: {worst.unit_id} {worst.status}: {worst.error} "
            f"[name={worst.name!r} seed={worst.seed!r}; replay standalone with "
            f"repro.scenarios.run_scenario(failure.config)]",
            failures=failures,
        )
    return [outcome.value for outcome in outcomes]


@dataclass(frozen=True)
class ScenarioFailure:
    """One casualty of a scenario batch, with everything needed to
    replay it standalone: ``run_scenario(failure.config)`` reproduces the
    exact simulation (the config carries the seed)."""

    unit_id: str
    status: str
    error: str
    #: Position of the scenario in the submitted batch.
    index: int
    name: Optional[str]
    seed: Optional[int]
    #: The scenario's canonical config dict (or the raw submitted config
    #: when it failed to parse).
    config: Mapping


class ScenarioExecutionError(RuntimeError):
    """A scenario in a batch crashed, timed out or errored.

    :attr:`failures` lists every casualty as a :class:`ScenarioFailure`,
    each carrying the exact ``(seed, config)`` for standalone replay.
    """

    def __init__(self, message: str, failures: Sequence[ScenarioFailure] = ()) -> None:
        super().__init__(message)
        self.failures: List[ScenarioFailure] = list(failures)
