"""Declarative scenario specifications.

A scenario is described by a plain config dict -- JSON-shaped, so specs can
be generated programmatically (see :mod:`repro.scenarios.library` and the
:mod:`fuzzer <repro.scenarios.fuzz>`), stored in files, or written inline
in tests::

    {
        "schema": 1,
        "name": "two-group churn",
        "seed": 7,
        "processes": 8,                     # or an explicit list of names
        "groups": [
            {"id": "g0", "members": ["P001", ..., "P004"]},
            {"id": "g1", "members": ["P003", ..., "P006"], "mode": "asymmetric"},
        ],
        "workload": {"messages_per_sender": 3, "senders_per_group": 2, "gap": 2.0},
        "load_phases": [
            {"profile": "bursty", "rate": 4.0, "start": 20.0, "duration": 6.0},
        ],
        "events": [
            {"time": 8.0, "kind": "crash", "targets": ["P002"]},
            {"time": 10.0, "kind": "partition", "components": [["P001", "P003"]]},
            {"time": 20.0, "kind": "heal"},
        ],
        "drain": 40.0,
        "protocol": {"omega": 1.5, "suspicion_timeout": 6.0},
        "batch_window": 0.25,
        "latency": {"model": "lognormal", "median": 0.8, "sigma": 0.3},
        "link_faults": {"seed": 3, "drop": 0.01, "reorder": 0.05},
    }

:func:`from_config` parses and validates such a dict into a
:class:`ScenarioSpec`; the :mod:`engine <repro.scenarios.engine>` runs it.
:func:`to_config` is the exact inverse -- ``from_config(to_config(spec)) ==
spec`` -- which is what lets the fuzzer write a minimized failing spec to a
JSON artifact and replay it byte-identically later.

Validation is *eager and strict*: unknown keys anywhere, negative times,
events addressing unknown processes or groups, and overlapping load-phase
windows all raise one clear :class:`InvalidScenarioSpec` up front instead
of a deep mid-run failure.  (The fuzzer's shrinker leans on this: every
mutation candidate is re-validated before it is ever run.)

Supported event kinds (each one :class:`~repro.api.Session` call):

``crash``
    Crash-stop every process in ``targets``.
``leave``
    The processes in ``targets`` voluntarily depart ``group``.
``partition``
    Install a partition with the listed ``components`` (unlisted processes
    form one implicit extra component).
``heal``
    Remove all partitions.
``isolate``
    Partition each process in ``targets`` away from everyone else.
``drop``
    Drop messages from ``src`` processes to ``dst`` processes for
    ``duration`` time units (one-directional lossy window).
``form_group``
    Dynamic group formation mid-run (§5.3): the first process in
    ``targets`` initiates formation of the new group ``group`` with the
    listed ``targets`` as its intended members (Newtop has no join -- a
    "join" is the formation of a fresh group).  The engine drives the
    scenario workload through the group once it is formed, and the new
    group participates in every correctness check like a static one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.config import OrderingMode
from repro.net.faults import LinkFaultConfigError, LinkFaultModel


class InvalidScenarioSpec(ValueError):
    """Raised when a scenario config dict is malformed: unknown keys,
    negative times, references to unknown processes or groups, overlapping
    load-phase windows, or an unsupported schema version."""


#: Version stamp of the config-dict schema.  Bump when the shape changes
#: incompatibly; :func:`from_config` rejects versions it does not know so a
#: minimized-repro artifact is never silently misread.
SCENARIO_SCHEMA_VERSION = 1

#: Event kinds accepted by the engine.
EVENT_KINDS = ("crash", "leave", "partition", "heal", "isolate", "drop", "form_group")

#: Delay after a ``form_group`` event before the engine starts driving the
#: scenario workload through the new group (covers the §5.3 voting rounds
#: and the start-number agreement under the default latency model).
FORMATION_WORKLOAD_GRACE = 4.0

#: Keys accepted at each level of the config dict.  Anything else is a
#: typo or a version mismatch; both deserve a loud, early error.
_SPEC_KEYS = frozenset(
    {
        "schema",
        "name",
        "seed",
        "processes",
        "groups",
        "workload",
        "load_phases",
        "events",
        "drain",
        "protocol",
        "batch_window",
        "latency",
        "link_faults",
    }
)
_GROUP_KEYS = frozenset({"id", "members", "mode"})
_WORKLOAD_KEYS = frozenset(
    {
        "messages_per_sender",
        "senders_per_group",
        "gap",
        "start",
        "profile",
        "rate",
        "duration",
        "payload_bytes",
        "profile_options",
    }
)
_EVENT_KEYS = frozenset(
    {"time", "kind", "targets", "group", "components", "src", "dst", "duration"}
)


@dataclass(frozen=True)
class GroupSpec:
    """One group in the scenario: id, members and ordering mode."""

    group_id: str
    members: Tuple[str, ...]
    mode: OrderingMode = OrderingMode.SYMMETRIC


@dataclass(frozen=True)
class WorkloadSpec:
    """The background application traffic driven through every group.

    Two shapes are supported.  The default is the *closed-loop* rounds
    that every scenario has always used: ``messages_per_sender`` rounds of
    sends, ``gap`` apart.  Setting ``profile`` switches the group to
    *open-loop* traffic: the engine attaches one
    :class:`~repro.workloads.client.OpenLoopClient` per group, running the
    named :mod:`repro.workloads` profile (``"poisson"``, ``"bursty"``,
    ``"zipf"``, ...) at ``rate`` multicast attempts per time unit for
    ``duration`` time units -- arrivals are simulator events, nothing is
    pre-materialized, and offered/admitted/delivered accounting lands in
    :attr:`~repro.scenarios.engine.ScenarioResult.workload`.

    A spec may add extra *load phases* (``load_phases``): further
    :class:`WorkloadSpec` entries, each driven through every group over its
    own non-overlapping time window -- how a scenario (or the fuzzer)
    expresses an open-loop burst landing mid-churn.
    """

    #: Application messages each selected sender multicasts per group.
    messages_per_sender: int = 2
    #: How many members of each group act as senders (the first k, in
    #: membership order); 0 means every member sends.
    senders_per_group: int = 2
    #: Simulated-time gap between successive send rounds.
    gap: float = 2.0
    #: Time of the first send round.
    start: float = 1.0
    #: Open-loop mode: a :mod:`repro.workloads` profile name (``None``
    #: keeps the closed-loop rounds above).
    profile: Optional[str] = None
    #: Open-loop offered load per group (multicast attempts / time unit).
    rate: float = 1.0
    #: Open-loop client window (simulated time units).
    duration: float = 20.0
    #: Open-loop payload size in bytes.
    payload_bytes: int = 64
    #: Extra profile options (``burst_size``, ``exponent``, ...).
    profile_options: Mapping[str, object] = field(default_factory=dict)

    def window(self) -> Tuple[float, float]:
        """The ``[start, end]`` span this workload occupies."""
        if self.profile is not None:
            return (self.start, self.start + self.duration)
        return (self.start, self.start + max(0, self.messages_per_sender - 1) * self.gap)


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed fault/membership action."""

    time: float
    kind: str
    targets: Tuple[str, ...] = ()
    group: Optional[str] = None
    components: Tuple[Tuple[str, ...], ...] = ()
    src: Tuple[str, ...] = ()
    dst: Tuple[str, ...] = ()
    duration: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully parsed scenario, ready for the engine."""

    name: str
    processes: Tuple[str, ...]
    groups: Tuple[GroupSpec, ...]
    workload: WorkloadSpec
    events: Tuple[ScenarioEvent, ...]
    seed: int = 0
    #: Extra settling time after the last send/event before checking.
    drain: float = 40.0
    #: Overrides applied to :class:`~repro.core.config.NewtopConfig`.
    protocol: Mapping[str, object] = field(default_factory=dict)
    #: Network delivery batching window (0 batches exact instants only).
    batch_window: float = 0.0
    #: Extra workload phases driven through every group over their own
    #: (validated non-overlapping) time windows.
    load_phases: Tuple[WorkloadSpec, ...] = ()
    #: Latency-model selection, JSON-shaped (``{"model": name, **options}``)
    #: like :attr:`~repro.experiments.SweepSpec.latency_model`; ``None``
    #: keeps the engine's default.
    latency: Optional[Mapping[str, object]] = None
    #: Link-fault model config (see :class:`~repro.net.faults.LinkFaultModel`),
    #: stored in its canonical JSON shape; ``None`` disables link faults.
    link_faults: Optional[Mapping[str, object]] = None

    def phases(self) -> Tuple[WorkloadSpec, ...]:
        """The primary workload plus every extra load phase."""
        return (self.workload,) + self.load_phases

    def horizon(self) -> float:
        """Simulated time at which the scenario is considered settled."""
        last_send = 0.0
        for phase in self.phases():
            last_send = max(last_send, phase.window()[1])
        primary_span = self.workload.window()[1] - self.workload.window()[0]
        last_event = 0.0
        for event in self.events:
            end = event.time + event.duration
            if event.kind == "form_group":
                # The engine drives the primary workload through formed
                # groups starting FORMATION_WORKLOAD_GRACE after the event.
                end = event.time + FORMATION_WORKLOAD_GRACE + primary_span
            last_event = max(last_event, end)
        return max(last_send, last_event) + self.drain


def default_process_names(count: int) -> Tuple[str, ...]:
    """Deterministic process names ``P001..Pnnn`` for generated scenarios."""
    width = max(3, len(str(count)))
    return tuple(f"P{index:0{width}d}" for index in range(1, count + 1))


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------
def _check_keys(raw: Mapping, allowed: frozenset, what: str) -> None:
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise InvalidScenarioSpec(
            f"{what} has unknown keys {unknown}; expected a subset of {sorted(allowed)}"
        )


def _number(raw: object, what: str, minimum: Optional[float] = None) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InvalidScenarioSpec(f"{what} must be a number (got {raw!r})")
    value = float(raw)
    if minimum is not None and value < minimum:
        raise InvalidScenarioSpec(f"{what} must be >= {minimum} (got {value})")
    return value


def _parse_mode(raw: object) -> OrderingMode:
    if isinstance(raw, OrderingMode):
        return raw
    if isinstance(raw, str):
        try:
            return OrderingMode(raw)
        except ValueError:
            raise InvalidScenarioSpec(
                f"unknown ordering mode {raw!r}; expected one of "
                f"{[mode.value for mode in OrderingMode]}"
            ) from None
    raise InvalidScenarioSpec(f"unparseable ordering mode: {raw!r}")


def _parse_workload(raw: Mapping, what: str) -> WorkloadSpec:
    if not isinstance(raw, Mapping):
        raise InvalidScenarioSpec(f"{what} must be a mapping")
    _check_keys(raw, _WORKLOAD_KEYS, what)
    workload = WorkloadSpec(
        **{**raw, "profile_options": dict(raw.get("profile_options", {}))}
    )
    if workload.messages_per_sender < 0:
        raise InvalidScenarioSpec(f"{what} needs messages_per_sender >= 0")
    _number(workload.gap, f"{what}.gap")
    if workload.gap <= 0:
        raise InvalidScenarioSpec(f"{what} needs gap > 0")
    _number(workload.start, f"{what}.start", minimum=0.0)
    if workload.profile is not None:
        from repro.workloads import available_profiles

        if workload.profile not in available_profiles():
            raise InvalidScenarioSpec(
                f"{what} names unknown profile {workload.profile!r}; expected "
                f"one of {available_profiles()}"
            )
        if workload.rate <= 0 or workload.duration <= 0:
            raise InvalidScenarioSpec(f"open-loop {what} needs rate > 0 and duration > 0")
    return workload


def _parse_event(
    raw: Mapping,
    processes: Sequence[str],
    groups: Dict[str, GroupSpec],
    formed: Mapping[str, Tuple[str, ...]],
) -> ScenarioEvent:
    if not isinstance(raw, Mapping):
        raise InvalidScenarioSpec(f"event entry {raw!r} must be a mapping")
    _check_keys(raw, _EVENT_KEYS, f"event {dict(raw)!r}")
    kind = raw.get("kind")
    if kind not in EVENT_KINDS:
        raise InvalidScenarioSpec(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
    if "time" not in raw:
        raise InvalidScenarioSpec(f"event {raw!r} is missing its 'time'")
    time = _number(raw["time"], f"{kind!r} event time", minimum=0.0)
    known = set(processes)

    def checked(names: Sequence[str], what: str) -> Tuple[str, ...]:
        names = tuple(names)
        unknown = [name for name in names if name not in known]
        if unknown:
            raise InvalidScenarioSpec(f"{what} of {kind!r} event names unknown processes {unknown}")
        return names

    targets = checked(raw.get("targets", ()), "targets")
    group = raw.get("group")
    components = tuple(
        checked(component, "components") for component in raw.get("components", ())
    )
    src = checked(raw.get("src", ()), "src")
    dst = checked(raw.get("dst", ()), "dst")
    duration = _number(
        raw.get("duration", 0.0), f"{kind!r} event duration", minimum=0.0
    )

    if kind in ("crash", "isolate") and not targets:
        raise InvalidScenarioSpec(f"{kind!r} event at t={time} needs non-empty 'targets'")
    if kind == "leave":
        if not targets or group is None:
            raise InvalidScenarioSpec(f"'leave' event at t={time} needs 'targets' and 'group'")
        if group in groups:
            membership = groups[group].members
        elif group in formed:
            membership = formed[group]
        else:
            raise InvalidScenarioSpec(f"'leave' event at t={time} names unknown group {group!r}")
        for target in targets:
            if target not in membership:
                raise InvalidScenarioSpec(
                    f"'leave' event at t={time}: {target!r} is not a member of {group!r}"
                )
    if kind == "form_group":
        if group is None or len(targets) < 2:
            raise InvalidScenarioSpec(
                f"'form_group' event at t={time} needs 'group' and at least two 'targets'"
            )
    if kind == "partition" and not components:
        raise InvalidScenarioSpec(f"'partition' event at t={time} needs 'components'")
    if kind == "drop" and (not src or not dst):
        raise InvalidScenarioSpec(f"'drop' event at t={time} needs 'src' and 'dst'")

    return ScenarioEvent(
        time=time,
        kind=kind,
        targets=targets,
        group=group,
        components=components,
        src=src,
        dst=dst,
        duration=duration,
    )


def _parse_latency(raw: object) -> Optional[Dict[str, object]]:
    if raw is None:
        return None
    if not isinstance(raw, Mapping) or "model" not in raw:
        raise InvalidScenarioSpec(
            "latency must be a mapping with a 'model' name, e.g. "
            '{"model": "lognormal", "median": 0.8}'
        )
    from repro.net.latency import get_latency_model

    options = {key: value for key, value in raw.items() if key != "model"}
    try:
        get_latency_model(raw["model"], **options)
    except (ValueError, TypeError) as error:
        raise InvalidScenarioSpec(f"invalid latency config: {error}") from None
    return {"model": raw["model"], **options}


def _parse_link_faults(raw: object) -> Optional[Dict[str, object]]:
    if raw is None:
        return None
    try:
        return LinkFaultModel.from_config(raw).to_config()
    except LinkFaultConfigError as error:
        raise InvalidScenarioSpec(f"invalid link_faults config: {error}") from None


def _validate_phase_windows(phases: Sequence[WorkloadSpec]) -> None:
    """Load-phase windows must not overlap (touching endpoints are fine):
    two open-loop clients driving the same groups at once would double the
    offered load a scenario claims, silently."""
    windows = sorted(
        (phase.window() + (index,) for index, phase in enumerate(phases)),
        key=lambda entry: (entry[0], entry[1]),
    )
    for (start_a, end_a, index_a), (start_b, end_b, index_b) in zip(windows, windows[1:]):
        if start_b < end_a:
            raise InvalidScenarioSpec(
                f"load-phase windows overlap: phase {index_a} spans "
                f"[{start_a}, {end_a}] and phase {index_b} spans "
                f"[{start_b}, {end_b}]"
            )


# ---------------------------------------------------------------------------
# Config dict -> spec
# ---------------------------------------------------------------------------
def from_config(config: Mapping) -> ScenarioSpec:
    """Parse and validate a scenario config dict into a :class:`ScenarioSpec`."""
    if not isinstance(config, Mapping):
        raise InvalidScenarioSpec("scenario config must be a mapping")
    _check_keys(config, _SPEC_KEYS, "scenario config")
    schema = config.get("schema", SCENARIO_SCHEMA_VERSION)
    if schema != SCENARIO_SCHEMA_VERSION:
        raise InvalidScenarioSpec(
            f"unsupported scenario schema {schema!r}; this build reads "
            f"version {SCENARIO_SCHEMA_VERSION}"
        )
    if "groups" not in config:
        raise InvalidScenarioSpec("scenario config needs a 'groups' list")

    raw_processes = config.get("processes")
    if raw_processes is None:
        # Infer the process set from the group memberships.
        inferred: List[str] = []
        for raw_group in config["groups"]:
            for member in raw_group.get("members", ()):
                if member not in inferred:
                    inferred.append(member)
        processes = tuple(sorted(inferred))
    elif isinstance(raw_processes, int):
        processes = default_process_names(raw_processes)
    else:
        processes = tuple(raw_processes)
    if len(processes) < 2:
        raise InvalidScenarioSpec("a scenario needs at least two processes")
    if len(set(processes)) != len(processes):
        raise InvalidScenarioSpec("duplicate process names in 'processes'")

    known = set(processes)
    groups: Dict[str, GroupSpec] = {}
    for raw_group in config["groups"]:
        if not isinstance(raw_group, Mapping):
            raise InvalidScenarioSpec(f"group entry {raw_group!r} must be a mapping")
        _check_keys(raw_group, _GROUP_KEYS, f"group entry {dict(raw_group)!r}")
        group_id = raw_group.get("id")
        if not group_id:
            raise InvalidScenarioSpec(f"group entry {raw_group!r} is missing its 'id'")
        if group_id in groups:
            raise InvalidScenarioSpec(f"duplicate group id {group_id!r}")
        members = tuple(raw_group.get("members", ()))
        if len(members) < 2:
            raise InvalidScenarioSpec(f"group {group_id!r} needs at least two members")
        unknown = [member for member in members if member not in known]
        if unknown:
            raise InvalidScenarioSpec(f"group {group_id!r} names unknown processes {unknown}")
        groups[group_id] = GroupSpec(
            group_id=group_id,
            members=members,
            mode=_parse_mode(raw_group.get("mode", OrderingMode.SYMMETRIC)),
        )

    workload = _parse_workload(config.get("workload", {}), "workload")
    load_phases = tuple(
        _parse_workload(raw_phase, f"load_phases[{index}]")
        for index, raw_phase in enumerate(config.get("load_phases", ()))
    )
    _validate_phase_windows((workload,) + load_phases)

    # Pre-scan dynamically formed groups so later events (e.g. 'leave') can
    # reference them and their ids are checked for clashes up front.
    formed: Dict[str, Tuple[str, ...]] = {}
    for raw_event in config.get("events", ()):
        if not isinstance(raw_event, Mapping):
            raise InvalidScenarioSpec(f"event entry {raw_event!r} must be a mapping")
        if raw_event.get("kind") != "form_group":
            continue
        formed_id = raw_event.get("group")
        if not formed_id:
            raise InvalidScenarioSpec("'form_group' event is missing its 'group'")
        if formed_id in groups or formed_id in formed:
            raise InvalidScenarioSpec(
                f"'form_group' event reuses group id {formed_id!r}"
            )
        formed[formed_id] = tuple(raw_event.get("targets", ()))

    events = tuple(
        sorted(
            (
                _parse_event(raw, processes, groups, formed)
                for raw in config.get("events", ())
            ),
            key=lambda event: event.time,
        )
    )

    return ScenarioSpec(
        name=str(config.get("name", "scenario")),
        processes=processes,
        groups=tuple(groups.values()),
        workload=workload,
        events=events,
        seed=int(config.get("seed", 0)),
        drain=_number(config.get("drain", 40.0), "drain", minimum=0.0),
        protocol=dict(config.get("protocol", {})),
        batch_window=_number(config.get("batch_window", 0.0), "batch_window", minimum=0.0),
        load_phases=load_phases,
        latency=_parse_latency(config.get("latency")),
        link_faults=_parse_link_faults(config.get("link_faults")),
    )


# ---------------------------------------------------------------------------
# Spec -> config dict (the inverse, for artifacts)
# ---------------------------------------------------------------------------
_WORKLOAD_DEFAULTS = WorkloadSpec()


def _workload_to_config(workload: WorkloadSpec) -> Dict[str, object]:
    config: Dict[str, object] = {}
    for key in sorted(_WORKLOAD_KEYS):
        value = getattr(workload, key)
        if key == "profile_options":
            value = dict(value)
        if value != getattr(_WORKLOAD_DEFAULTS, key):
            config[key] = value
    return config


def _event_to_config(event: ScenarioEvent) -> Dict[str, object]:
    config: Dict[str, object] = {"time": event.time, "kind": event.kind}
    if event.targets:
        config["targets"] = list(event.targets)
    if event.group is not None:
        config["group"] = event.group
    if event.components:
        config["components"] = [list(side) for side in event.components]
    if event.src:
        config["src"] = list(event.src)
    if event.dst:
        config["dst"] = list(event.dst)
    if event.duration:
        config["duration"] = event.duration
    return config


def to_config(spec: ScenarioSpec) -> Dict[str, object]:
    """The JSON-shaped config dict of ``spec`` -- the exact inverse of
    :func:`from_config`, carrying the schema version stamp.

    Defaults are elided, so the dict is as small as the spec is simple --
    exactly what a minimized-repro artifact should look like.
    """
    config: Dict[str, object] = {
        "schema": SCENARIO_SCHEMA_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "processes": list(spec.processes),
        "groups": [
            {
                "id": group.group_id,
                "members": list(group.members),
                "mode": group.mode.value,
            }
            for group in spec.groups
        ],
        "workload": _workload_to_config(spec.workload),
        "events": [_event_to_config(event) for event in spec.events],
        "drain": spec.drain,
    }
    if spec.load_phases:
        config["load_phases"] = [
            _workload_to_config(phase) for phase in spec.load_phases
        ]
    if spec.protocol:
        config["protocol"] = dict(spec.protocol)
    if spec.batch_window:
        config["batch_window"] = spec.batch_window
    if spec.latency is not None:
        config["latency"] = dict(spec.latency)
    if spec.link_faults is not None:
        config["link_faults"] = dict(spec.link_faults)
    return config
