"""The sweep runner: grids of (stack x profile x load x fault) scenarios.

One :class:`SweepSpec` describes a family of load/availability experiments:
a shared overlapping-group topology, a set of protocol stacks, a set of
workload profiles, a set of offered-load points, and a set of fault
patterns.  A cell is a :class:`~repro.scenarios.spec.ScenarioSpec`:
:func:`cell_scenario` compiles its topology, one open-loop workload per
group and its fault as timed events, and :func:`run_cell` runs it on the
:class:`~repro.scenarios.engine.ScenarioEngine` with online verification,
marking the counters at the phase boundaries.  :func:`run_sweep` runs
every cell of the grid and aggregates the rows into one JSON-shaped
:class:`SweepReport` -- the offered-load vs goodput/latency curves and
availability-under-partition tables of benchmark E21.

Every cell runs in three equal *phases* of the client window:

``pre``
    Fault-free warm-up third; every stack should keep up here.
``fault``
    The middle third.  Under ``fault="crash"`` one non-leader member of
    the first group crash-stops at the phase boundary (one victim total;
    overlapping groups containing it are affected, the rest act as the
    fault-free control); under ``fault="partition"`` the process set
    splits into a majority and a minority component (healed at the phase
    end).  Under ``fault="none"`` nothing happens.
``recovery``
    The final third, long enough past the fault that a membership-capable
    protocol has excluded the crashed member (the sweep's protocol
    defaults resolve suspicion well within one third).  *Stall detection*
    lives here: a group whose client still offers load but sees zero
    deliveries is stalled -- the all-ack baseline after a crash, never
    Newtop.

One exception to "equal": a partition is held for at least
:func:`~repro.net.partitions.partition_hold_time` (the model's healthy
envelope -- a split that heals mid-agreement loses messages for good
while the views stay whole, which the causal-prefix checker reports).
When a third of ``duration`` is shorter than that, a partition cell's
fault phase, and with it the cell's client window, is stretched; the
row's ``phase_bounds`` state the times that ran and ``goodput`` is per
unit of that window.

The *availability* of a fault cell is the fraction of offered sends that
were admitted during the fault phase -- the E16 contrast: a
primary-partition policy refuses the minority's sends, Newtop admits on
both sides of the split.

Per-cell consistency invariant (asserted by the test suite over every
report): ``offered >= admitted >= delivered_unique``, where
``delivered_unique`` counts distinct admitted messages delivered by at
least one process.
"""

from __future__ import annotations

import time as _time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.api import available_stacks
from repro.net.partitions import partition_hold_time
from repro.parallel import WorkUnit, run_units
from repro.scenarios.engine import SCENARIO_PROTOCOL_DEFAULTS, ScenarioEngine
from repro.scenarios.library import ring_overlap_groups
from repro.scenarios.spec import ScenarioSpec, default_process_names, from_config
from repro.workloads.client import aggregate_counters

#: Fault patterns a sweep cell understands.
FAULT_PATTERNS = ("none", "crash", "partition")


@dataclass(frozen=True)
class SweepSpec:
    """One grid of load/availability experiments."""

    stacks: Tuple[str, ...] = ("newtop",)
    profiles: Tuple[str, ...] = ("poisson",)
    #: Aggregate offered load points (multicast attempts per time unit,
    #: summed over all groups) -- one curve point per entry.
    loads: Tuple[float, ...] = (1.0,)
    faults: Tuple[str, ...] = ("none",)
    processes: int = 8
    groups: int = 2
    group_size: int = 5
    #: Senders per group (first k members); 0 means every member sends.
    senders_per_group: int = 0
    #: Client window; the three phases are equal thirds of it (a partition
    #: cell's fault phase may be stretched, see the module docstring).
    duration: float = 24.0
    start: float = 1.0
    #: Settling time after the client window before checking.
    drain: float = 30.0
    seed: int = 7
    payload_bytes: int = 64
    #: Overrides merged over the scenario engine's
    #: :data:`~repro.scenarios.engine.SCENARIO_PROTOCOL_DEFAULTS` (e.g.
    #: ``{"flow_control_window": 4}`` to exercise backpressure).
    protocol: Mapping[str, object] = field(default_factory=dict)
    #: Extra options forwarded to :func:`repro.workloads.get_profile`.
    profile_options: Mapping[str, object] = field(default_factory=dict)
    #: Network latency model by registry name (see
    #: :data:`repro.net.latency.LATENCY_MODELS`); ``None`` keeps the
    #: network default.  Named, not an object, so specs stay JSON-shaped
    #: and picklable across the worker pool.
    latency_model: Optional[str] = None
    #: Constructor options for :attr:`latency_model` (e.g.
    #: ``{"median": 2.0, "sigma": 0.8}`` for ``"lognormal"``).
    latency_options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Fail at construction, not mid-sweep in a worker: every cell of
        # the grid must compile to a valid scenario on a known stack.
        unknown = [fault for fault in self.faults if fault not in FAULT_PATTERNS]
        if unknown:
            raise ValueError(f"unknown fault patterns {unknown}; expected {FAULT_PATTERNS}")
        unknown = [stack for stack in self.stacks if stack not in available_stacks()]
        if unknown:
            raise ValueError(f"unknown stacks {unknown}; expected one of {available_stacks()}")
        if self.duration <= 0 or self.drain < 0:
            raise ValueError("duration must be > 0 and drain >= 0")
        for _stack, profile_name, load, fault in _grid(self):
            cell_scenario(self, profile_name, load, fault)

    def partition_components(self) -> List[List[str]]:
        """The majority/minority split used by ``fault="partition"``."""
        names = list(default_process_names(self.processes))
        minority = max(1, self.processes // 3)
        return [names[: self.processes - minority], names[self.processes - minority :]]

    def crash_targets(self) -> List[str]:
        """The single crash victim: the last member of the first group that
        leads no group.

        A group's first member is its sequencer in the asymmetric / fixed-
        sequencer stacks, so crashing a non-leader isolates the phenomenon
        the crash cells measure -- membership-capable protocols exclude the
        victim and keep delivering, an all-ack protocol can never complete
        an acknowledgement round again -- from sequencer-failover dynamics
        (covered by its own benchmarks).
        """
        groups = ring_overlap_groups(
            default_process_names(self.processes), self.groups, self.group_size
        )
        leaders = {group["members"][0] for group in groups}
        first_group = groups[0]["members"]
        for member in reversed(first_group):
            if member not in leaders:
                return [member]
        return [first_group[-1]]

    def describe(self) -> Dict[str, object]:
        """JSON-shaped spec summary for the report header."""
        return {
            "stacks": list(self.stacks),
            "profiles": list(self.profiles),
            "loads": list(self.loads),
            "faults": list(self.faults),
            "processes": self.processes,
            "groups": self.groups,
            "group_size": self.group_size,
            "senders_per_group": self.senders_per_group,
            "duration": self.duration,
            "drain": self.drain,
            "seed": self.seed,
            "payload_bytes": self.payload_bytes,
            "protocol": dict(self.protocol),
            "latency_model": self.latency_model,
            "latency_options": dict(self.latency_options),
        }


def _phase_times(spec: SweepSpec, fault: str) -> Tuple[float, float, float]:
    """``(fault_time, fault_end, window_end)`` of a cell: the ends of its
    pre-fault, fault and recovery phases."""
    third = spec.duration / 3.0
    fault_length = third
    if fault == "partition":
        timeout = {**SCENARIO_PROTOCOL_DEFAULTS, **spec.protocol}["suspicion_timeout"]
        fault_length = max(third, partition_hold_time(float(timeout)))
    fault_time = spec.start + third
    fault_end = fault_time + fault_length
    return fault_time, fault_end, fault_end + third


def cell_scenario(
    spec: SweepSpec, profile_name: str, load: float, fault: str = "none"
) -> ScenarioSpec:
    """The scenario one (profile, load, fault) cell of ``spec`` runs.

    Ring-overlapping groups over ``spec.processes``, one open-loop client
    per group at ``load / groups`` over the cell's client window, and the
    cell's fault as timed events: a crash of :meth:`SweepSpec.crash_targets`
    at the fault phase's start, or a partition into
    :meth:`SweepSpec.partition_components` held until the phase's end.
    ``run_scenario(cell_scenario(...), stack=..., analysis="online")``
    replays the cell's simulation; ``to_config`` of it shows the cell.
    """
    names = default_process_names(spec.processes)
    groups = ring_overlap_groups(names, spec.groups, spec.group_size)
    fault_time, fault_end, window_end = _phase_times(spec, fault)
    events: List[Dict[str, object]] = []
    if fault == "crash":
        events.append({"time": fault_time, "kind": "crash", "targets": spec.crash_targets()})
    elif fault == "partition":
        events.append({
            "time": fault_time, "kind": "partition",
            "components": spec.partition_components(),
        })
        events.append({"time": fault_end, "kind": "heal"})
    config: Dict[str, object] = {
        "name": f"sweep cell {profile_name} load={load} fault={fault}",
        "seed": spec.seed,
        "processes": list(names),
        "groups": groups,
        "workload": {
            "profile": profile_name,
            "rate": load / len(groups),
            "start": spec.start,
            "duration": window_end - spec.start,
            "senders_per_group": spec.senders_per_group,
            "payload_bytes": spec.payload_bytes,
            "profile_options": dict(spec.profile_options),
        },
        "events": events,
        "drain": spec.drain,
        "protocol": dict(spec.protocol),
    }
    if spec.latency_model is not None:
        config["latency"] = {"model": spec.latency_model, **spec.latency_options}
    return from_config(config)


def _phase_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def run_cell(
    spec: SweepSpec,
    stack: str,
    profile_name: str,
    load: float,
    fault: str = "none",
    observe: object = None,
) -> Dict[str, object]:
    """Run one (stack, profile, load, fault) cell and return its row.

    The cell is :func:`cell_scenario` run by the
    :class:`~repro.scenarios.engine.ScenarioEngine` with online analysis;
    this function only adds the phase marks and builds the row.  Cells
    are self-contained: every random draw derives from the spec's seeds
    and the engine resets the message-id counter, so a cell's row is
    identical whether it runs first or five-hundredth, in this process or
    on a :mod:`repro.parallel` worker.  ``observe`` attaches a
    :mod:`repro.obs` observation to the cell's session and adds its
    snapshot to the row as ``"obs"`` (observation never changes the
    numbers, only adds to the row).
    """
    wall_start = _time.time()
    engine = ScenarioEngine(
        cell_scenario(spec, profile_name, load, fault),
        analysis="online", stack=stack, observe=observe,
    )
    fault_time, fault_end, window_end = _phase_times(spec, fault)
    # Counter snapshots (aggregate, per client) at each phase boundary --
    # taken ahead of the boundary's fault event -- and after the drain.
    marks: List[Tuple[Dict[str, int], Dict[str, Dict[str, int]]]] = []

    def mark() -> None:
        marks.append((
            aggregate_counters(engine.clients),
            {client.name: client.counters() for client in engine.clients},
        ))

    for boundary in (fault_time, fault_end, window_end):
        engine.session.sim.schedule_at(boundary, mark, label="sweep:phase")
    result = engine.run()
    mark()
    # Everything the row needs is read; the rest of the cell can go.
    engine.session.release()
    (
        (at_fault, fault_marks), (at_recovery, recovery_marks),
        (at_end, end_marks), (totals, final_marks),
    ) = marks

    phases = {
        "pre": at_fault,
        "fault": _phase_delta(at_recovery, at_fault),
        "recovery": _phase_delta(at_end, at_recovery),
        "drain": _phase_delta(totals, at_end),
    }
    # Per-group phase deltas: the aggregate hides a single stalled group
    # behind its healthy siblings, so availability tooling (outage-window
    # extraction in the E21/E26 benchmarks) needs the per-client split.
    group_phases = {
        name: {
            "pre": fault_marks[name],
            "fault": _phase_delta(recovery_marks[name], fault_marks[name]),
            "recovery": _phase_delta(end_marks[name], recovery_marks[name]),
            "drain": _phase_delta(final, end_marks[name]),
        }
        for name, final in final_marks.items()
    }
    phase_bounds = {
        "pre": (spec.start, fault_time),
        "fault": (fault_time, fault_end),
        "recovery": (fault_end, window_end),
        "drain": (window_end, window_end + spec.drain),
    }
    fault_phase = phases["fault"]
    stalled_groups = 0
    if fault != "none":
        for name, final in final_marks.items():
            # Per-group stall: load still offered after the fault settled
            # (recovery phase onwards), but not a single delivery of this
            # group's messages anywhere -- including the final drain, so a
            # slow-but-live protocol is not misread as stalled.
            delta = _phase_delta(final, recovery_marks[name])
            stalled_groups += int(delta["offered"] > 0 and delta["delivered_events"] == 0)
    availability = (
        round(fault_phase["admitted"] / fault_phase["offered"], 4)
        if fault != "none" and fault_phase["offered"]
        else None
    )
    window = window_end - spec.start
    row: Dict[str, object] = {
        "stack": result.stack,
        "profile": profile_name,
        "offered_load": load,
        "fault": fault,
        "passed": result.passed,
        "violations": list(result.checks.violations[:3]),
        **totals,
        "goodput": round(totals["delivered_unique"] / window, 4),
        "delivery_ratio": (
            round(totals["delivered_unique"] / totals["admitted"], 4)
            if totals["admitted"] else None
        ),
        "latency": result.latency_reservoir.summary(),
        "phases": phases,
        "group_phases": group_phases,
        "phase_bounds": phase_bounds,
        "availability": availability,
        "stalled_groups": stalled_groups,
        "messages_sent": result.messages_sent,
        "delivery_events": result.delivery_events,
        "trace_events": result.trace_events,
        "trace_events_stored": result.trace_events_stored,
        "sim_time": round(result.sim_time, 3),
        "wall_seconds": round(_time.time() - wall_start, 3),
    }
    if result.obs is not None:
        row["obs"] = result.obs
    return row


@dataclass
class SweepReport:
    """Everything one sweep produced, JSON-shaped."""

    spec: Dict[str, object]
    cells: List[Dict[str, object]]

    def curves(self) -> Dict[str, Dict[str, List[Dict[str, object]]]]:
        """Per (stack, profile): offered load vs goodput/latency points
        over the fault-free cells, sorted by load."""
        table: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
        for cell in self.cells:
            # Crashed/timed-out cells keep their coordinates but have no
            # metrics; they surface through `passed`, not the curves.
            if cell["fault"] != "none" or "goodput" not in cell:
                continue
            point = {
                "offered_load": cell["offered_load"],
                "goodput": cell["goodput"],
                "admitted": cell["admitted"],
                "offered": cell["offered"],
                "latency_mean": cell["latency"]["mean"],
                "latency_p50": cell["latency"]["p50"],
                "latency_p99": cell["latency"]["p99"],
            }
            table.setdefault(cell["stack"], {}).setdefault(cell["profile"], []).append(point)
        for stack_rows in table.values():
            for points in stack_rows.values():
                points.sort(key=lambda point: point["offered_load"])
        return table

    def cell(self, stack: str, profile: str, load: float, fault: str = "none") -> Dict[str, object]:
        """Look up one cell row (raises ``KeyError`` when absent)."""
        for row in self.cells:
            if (row["stack"], row["profile"], row["offered_load"], row["fault"]) == (
                stack, profile, load, fault,
            ):
                return row
        raise KeyError((stack, profile, load, fault))

    @property
    def passed(self) -> bool:
        """Whether every cell's selected checks held."""
        return all(cell["passed"] for cell in self.cells)

    def as_dict(self) -> Dict[str, object]:
        return {"spec": self.spec, "cells": self.cells, "curves": self.curves()}


def _grid(spec: SweepSpec) -> List[Tuple[str, str, float, str]]:
    """The cell coordinates of the grid, in canonical (report) order."""
    return [
        (stack, profile_name, load, fault)
        for fault in spec.faults
        for profile_name in spec.profiles
        for load in spec.loads
        for stack in spec.stacks
    ]


def _failed_cell_row(
    spec: SweepSpec, stack: str, profile_name: str, load: float, fault: str,
    status: str, error: Optional[str],
) -> Dict[str, object]:
    """Row for a cell that raised, crashed or timed out: the grid position
    survives (so lookups work) with ``passed=False``, the diagnosis, and a
    ``replay`` block carrying the exact seed and constructor kwargs --
    ``run_cell(SweepSpec(**row["replay"]["spec"]), stack, profile, load,
    fault)`` reproduces the casualty standalone, outside the pool, and
    :func:`cell_scenario` with the same coordinates shows its scenario."""
    return {
        "stack": stack,
        "profile": profile_name,
        "offered_load": load,
        "fault": fault,
        "passed": False,
        "violations": [f"cell {status}: {error or 'no diagnostic'}"],
        "execution_status": status,
        "replay": {
            "seed": spec.seed,
            "spec": asdict(spec),
            "cell": {
                "stack": stack,
                "profile": profile_name,
                "offered_load": load,
                "fault": fault,
            },
            "how": (
                "repro.experiments.run_cell(SweepSpec(**replay['spec']), "
                "cell['stack'], cell['profile'], cell['offered_load'], "
                "cell['fault'])"
            ),
        },
    }


def run_sweep(
    spec: SweepSpec,
    progress=None,
    parallel: Optional[int] = None,
    timeout: Optional[float] = None,
) -> SweepReport:
    """Execute every cell of the grid; ``progress`` (if given) is called
    with each row as its cell finishes, a failed cell's too (CLI feedback
    for long sweeps).

    Cells run through :func:`repro.parallel.run_units`: inline by
    default, or with ``parallel=N`` (N > 1) sharded across a pool of N
    worker processes.  Cell seeds derive from the spec -- never from
    shard order -- so the report is identical to the serial one apart
    from ``wall_seconds`` (pinned by ``tests/test_parallel.py``);
    ``progress`` then observes completion order rather than grid order.
    ``timeout`` bounds each cell's wall clock (pool mode only).  A cell
    that raises, crashes or times out yields a ``passed=False`` row with
    its diagnosis instead of killing the sweep, in either mode.
    """
    grid = _grid(spec)
    units = [
        WorkUnit(
            unit_id=f"{stack}|{profile_name}|{load}|{fault}",
            fn=run_cell,
            args=(spec, stack, profile_name, load, fault),
        )
        for stack, profile_name, load, fault in grid
    ]
    coordinates = {unit.unit_id: cell for unit, cell in zip(units, grid)}
    rows: Dict[str, Dict[str, object]] = {}

    def on_event(kind, unit_id, worker, result) -> None:
        # Every cell, failed or not, is reported as it lands, in either mode.
        if kind != "done":
            return
        if result.ok:
            row = result.value
        else:
            row = _failed_cell_row(
                spec, *coordinates[unit_id], result.status, result.error
            )
        rows[unit_id] = row
        if progress is not None:
            progress(row)

    run_units(units, parallel=parallel, timeout=timeout, on_event=on_event)
    cells = [rows[unit.unit_id] for unit in units]
    return SweepReport(spec=spec.describe(), cells=cells)
