"""Scenario generators: churn, partition cascades, merge storms and more.

Each function here builds a plain config dict (the input format of
:func:`repro.scenarios.engine.run_scenario`) from a handful of scale knobs,
deterministically from its ``seed``.  They encode the workload shapes the
ROADMAP asks for beyond the paper's hand-sized examples:

* :func:`churn_scenario` -- many overlapping groups under continuous
  join-era traffic while members crash, voluntarily leave, and (optionally)
  dynamically form fresh groups mid-run (§5.3 ``form_group`` events);
* :func:`cascading_partitions_scenario` -- successive partitions that each
  split another slice off the main component, then heal;
* :func:`merge_storm_scenario` -- rapid partition/heal cycles stressing
  repeated suspicion, refutation and view agreement;
* :func:`migration_under_load_scenario` -- an asymmetric group whose
  sequencer crashes mid-traffic, forcing a live sequencer migration;
* :func:`mixed_modes_scenario` -- symmetric and asymmetric groups sharing
  members, exercising the mixed-mode blocking rules under faults.

The group topology is a ring of overlapping blocks: group ``i`` covers
``group_size`` processes starting at ``i * stride`` (wrapping around), so
adjacent groups share ``group_size - stride`` members and total order must
hold *across* group boundaries (MD4'), not just within each group.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenarios.spec import default_process_names


def ring_overlap_groups(
    processes: Sequence[str],
    n_groups: int,
    group_size: int,
    mode: str = "symmetric",
) -> List[Dict]:
    """Group dicts for a ring of overlapping member blocks."""
    if n_groups < 1:
        raise ValueError("a ring of groups needs n_groups >= 1")
    if group_size > len(processes):
        raise ValueError("group_size cannot exceed the number of processes")
    stride = max(1, len(processes) // n_groups)
    groups = []
    for index in range(n_groups):
        start = index * stride
        members = [
            processes[(start + offset) % len(processes)] for offset in range(group_size)
        ]
        groups.append({"id": f"g{index:02d}", "members": members, "mode": mode})
    return groups


def churn_scenario(
    n_processes: int = 100,
    n_groups: int = 10,
    group_size: int = 12,
    crashes: int = 3,
    leaves: int = 3,
    formations: int = 0,
    messages_per_sender: int = 2,
    seed: int = 7,
    batch_window: float = 0.25,
) -> Dict:
    """Join/leave/crash churn across many overlapping groups.

    Crash and leave targets are picked deterministically from ``seed``,
    spread over distinct groups so several view agreements run
    concurrently; the workload keeps flowing throughout.  With
    ``formations > 0``, that many fresh groups are dynamically formed
    mid-run (§5.3 ``form_group`` events) from processes untouched by the
    churn, so formation voting and start-number agreement run concurrently
    with crash/leave view agreements.
    """
    rng = random.Random(seed)
    processes = list(default_process_names(n_processes))
    groups = ring_overlap_groups(processes, n_groups, group_size)

    events: List[Dict] = []
    # Crash targets: one member out of `crashes` distinct groups, never the
    # first two members (they carry the workload of their group).
    crash_groups = rng.sample(range(len(groups)), min(crashes, len(groups)))
    crashed: List[str] = []
    for offset, group_index in enumerate(crash_groups):
        candidates = [m for m in groups[group_index]["members"][2:] if m not in crashed]
        if not candidates:
            continue
        target = rng.choice(candidates)
        crashed.append(target)
        events.append({"time": 6.0 + 2.0 * offset, "kind": "crash", "targets": [target]})
    # Voluntary departures from further distinct groups.
    leavers: List[str] = []
    leave_groups = [i for i in range(len(groups)) if i not in crash_groups]
    rng.shuffle(leave_groups)
    for offset, group_index in enumerate(leave_groups[:leaves]):
        group = groups[group_index]
        candidates = [m for m in group["members"][2:] if m not in crashed]
        if not candidates:
            continue
        target = rng.choice(candidates)
        leavers.append(target)
        events.append(
            {
                "time": 8.0 + 2.0 * offset,
                "kind": "leave",
                "targets": [target],
                "group": group["id"],
            }
        )

    # Dynamic formations: fresh groups over processes the churn leaves
    # alone, initiated while crash/leave agreements are still in flight.
    touched = set(crashed) | set(leavers)
    quiet = [process for process in processes if process not in touched]
    formation_size = max(2, min(group_size // 2, 5))
    for index in range(formations):
        if len(quiet) < formation_size:
            break
        members = [
            quiet[(index * formation_size + offset) % len(quiet)]
            for offset in range(formation_size)
        ]
        if len(set(members)) < 2:
            break
        events.append(
            {
                "time": 9.0 + 2.0 * index,
                "kind": "form_group",
                "group": f"fg{index:02d}",
                "targets": sorted(set(members)),
            }
        )

    return {
        "name": f"churn {n_processes}p/{n_groups}g",
        "seed": seed,
        "processes": processes,
        "groups": groups,
        "workload": {"messages_per_sender": messages_per_sender, "senders_per_group": 2, "gap": 3.0},
        "events": events,
        "drain": 30.0,
        "batch_window": batch_window,
    }


def cascading_partitions_scenario(
    n_processes: int = 12,
    n_groups: int = 3,
    group_size: int = 6,
    slices: int = 2,
    slice_size: int = 2,
    seed: int = 11,
) -> Dict:
    """Partitions that successively split slices off the main component.

    Slice ``k`` (the last ``slice_size`` processes not yet split off) is
    separated at ``t_k``; everything heals at the end and the run drains,
    so the surviving core must agree on having excluded every slice.
    """
    processes = list(default_process_names(n_processes))
    groups = ring_overlap_groups(processes, n_groups, group_size)
    events: List[Dict] = []
    separated: List[str] = []
    for index in range(slices):
        start = n_processes - (index + 1) * slice_size
        if start <= 2:
            break
        new_slice = processes[start : start + slice_size]
        separated = new_slice + separated
        # Each cascade re-installs the full layout: every slice split so
        # far is its own island (the partition manager holds one layout at
        # a time).
        components = [processes[:start]] + [
            separated[i : i + slice_size] for i in range(0, len(separated), slice_size)
        ]
        events.append(
            {"time": 8.0 + 10.0 * index, "kind": "partition", "components": components}
        )
    events.append({"time": 8.0 + 10.0 * slices + 8.0, "kind": "heal"})
    return {
        "name": f"cascading partitions {n_processes}p/{slices} slices",
        "seed": seed,
        "processes": processes,
        "groups": groups,
        "workload": {"messages_per_sender": 3, "senders_per_group": 2, "gap": 4.0},
        "events": events,
        "drain": 40.0,
    }


def merge_storm_scenario(
    n_processes: int = 8,
    n_groups: int = 2,
    group_size: int = 5,
    cycles: int = 3,
    cycle_gap: float = 9.0,
    seed: int = 13,
) -> Dict:
    """Rapid partition/heal cycles (a merge storm).

    Every cycle splits the same minority off and heals again before the
    next one; each heal floods the majority with the minority's buffered
    suspicions and refutations, stressing repeated view agreement.
    """
    processes = list(default_process_names(n_processes))
    groups = ring_overlap_groups(processes, n_groups, group_size)
    minority = processes[-2:]
    majority = processes[:-2]
    events: List[Dict] = []
    for cycle in range(cycles):
        start = 6.0 + cycle * cycle_gap
        events.append(
            {"time": start, "kind": "partition", "components": [majority, minority]}
        )
        events.append({"time": start + cycle_gap * 0.5, "kind": "heal"})
    return {
        "name": f"merge storm {n_processes}p x{cycles}",
        "seed": seed,
        "processes": processes,
        "groups": groups,
        "workload": {"messages_per_sender": 4, "senders_per_group": 2, "gap": 3.0},
        "events": events,
        "drain": 45.0,
    }


def migration_under_load_scenario(
    n_processes: int = 6,
    messages_per_sender: int = 4,
    seed: int = 17,
) -> Dict:
    """An asymmetric group loses its sequencer mid-traffic.

    The deterministic sequencer-succession rule must migrate sequencing to
    the next member while application traffic keeps flowing -- the moving
    parts behind the paper's Fig. 1 server-migration application.
    """
    processes = list(default_process_names(n_processes))
    return {
        "name": f"sequencer migration {n_processes}p",
        "seed": seed,
        "processes": processes,
        "groups": [
            {"id": "service", "members": processes, "mode": "asymmetric"},
            # An overlapping symmetric control group keeps cross-group
            # ordering (MD4') in play during the failover.
            {"id": "control", "members": processes[: max(3, n_processes // 2)]},
        ],
        "workload": {"messages_per_sender": messages_per_sender, "senders_per_group": 3, "gap": 3.0},
        # The initial sequencer is the smallest member id.
        "events": [{"time": 7.0, "kind": "crash", "targets": [processes[0]]}],
        "drain": 40.0,
    }


def mixed_modes_scenario(
    n_processes: int = 9,
    seed: int = 19,
) -> Dict:
    """Symmetric and asymmetric groups with shared members, plus one crash.

    Shared members exercise the mixed-mode blocking rule (§4.3) while a
    crash in the asymmetric group forces the membership machinery to run
    in both modes at once.
    """
    processes = list(default_process_names(n_processes))
    third = n_processes // 3
    sym_members = processes[: 2 * third]
    asym_members = processes[third:]
    return {
        "name": f"mixed modes {n_processes}p",
        "seed": seed,
        "processes": processes,
        "groups": [
            {"id": "sym", "members": sym_members, "mode": "symmetric"},
            {"id": "asym", "members": asym_members, "mode": "asymmetric"},
        ],
        "workload": {"messages_per_sender": 3, "senders_per_group": 2, "gap": 3.0},
        # Crash a member of both groups (the overlap region), so the
        # exclusion must be agreed in the two modes independently.
        "events": [{"time": 9.0, "kind": "crash", "targets": [processes[2 * third - 1]]}],
        "drain": 35.0,
    }
