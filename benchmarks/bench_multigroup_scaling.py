"""E13 -- §2/§6: multi-group scaling and arbitrary overlap structures.

Paper claim: Newtop handles arbitrarily overlapping groups (including the
cyclic structure of Fig. 2) with nothing beyond per-group receive vectors
and the shared clock -- no common sequencer, no coordination between
sequencers (unlike the propagation-graph approach of [9]).  Measured:
delivery latency as the number of groups per process grows, and the extra
hops a propagation-graph construction pays for the same overlap structure.

Also measured, and gated on exact counts in the E27/E28 style: what an
*idle* process pays for liveness as its groups multiply.  Five processes,
every one in each of 1 / 2 / 4 / 6 symmetric groups, constant link delay
(no latency draw: the counts are the same on any commit): beacons per
process per Ω/2 and liveness timer firings (time-silence, suspector,
heartbeat) per process per Ω must not depend on the number of groups -- one
beacon per ring neighbour and one heartbeat wake per Ω/2, whatever they
vouch for (:mod:`repro.core.time_silence`).

Runs as a ``repro.api`` session with ``analysis="online"``: the MD/VC
checkers stream over the trace and the latency statistics come from the
rolling :class:`~repro.net.trace.MetricsSink` -- no materialized trace.
"""

import collections

from common import RESULTS, assert_session_correct, fmt, run_session

from repro.api import Session
from repro.baselines import PropagationGraphNetwork
from repro.core.messages import Beacon
from repro.core.suspector import RING_FANOUT
from repro.net.latency import ConstantLatency
from repro.scenarios import SCENARIO_PROTOCOL_DEFAULTS

GROUPS_PER_PROCESS = [1, 2, 4, 6]
LIVENESS_TIMERS = ("time-silence", "suspector", "heartbeat")


def run_newtop_overlap(group_count: int, seed: int) -> float:
    """A ring of overlapping two-member groups over four processes."""
    names = ["P1", "P2", "P3", "P4"]
    groups = [
        (f"g{index}", [names[index % 4], names[(index + 1) % 4]])
        for index in range(group_count)
    ]
    session = run_session(names, groups=groups, seed=seed, analysis="online")
    for group_id, members in groups:
        session.multicast(members[0], group_id, f"{group_id}-a")
        session.multicast(members[1], group_id, f"{group_id}-b")
        session.run(1.0)
    session.run(100)
    result = assert_session_correct(session)
    return result.metrics["latency"]["mean"]


class _FiredLabels:
    """Stands in for the simulator's profiler: counts fired events by the
    first word of their scheduling label."""

    def __init__(self):
        self.fired = collections.Counter()

    def record_event(self, label, elapsed):
        self.fired[label.split(" ")[0]] += 1


def run_idle_overlap(group_count: int, timeouts: int = 4):
    """``(beacons per process per Ω/2, liveness wakes per process per Ω)``
    of five processes idling in ``group_count`` fully overlapping groups."""
    names = [f"P{index}" for index in range(1, 6)]
    big_omega = SCENARIO_PROTOCOL_DEFAULTS["suspicion_timeout"]
    session = Session(
        "newtop", config=SCENARIO_PROTOCOL_DEFAULTS, seed=1,
        latency_model=ConstantLatency(0.7), analysis="online",
    )
    session.spawn(names)
    for index in range(group_count):
        session.group(f"g{index}", names)
    session.run(2 * big_omega + 0.3)
    session.sim.profiler = labels = _FiredLabels()
    beacons = []
    session.network.add_filter(
        lambda src, dst, message: isinstance(message.payload, Beacon)
        and beacons.append(message.payload.groups) or True
    )
    session.run(timeouts * big_omega)
    assert_session_correct(session)
    assert all(len(groups) == group_count for groups in beacons)
    wakes = sum(labels.fired[label] for label in LIVENESS_TIMERS)
    return (
        len(beacons) / (len(names) * 2 * timeouts),
        wakes / (len(names) * timeouts),
    )


def run_sweep():
    newtop_rows = [
        (count, run_newtop_overlap(count, seed=50 + count)) for count in GROUPS_PER_PROCESS
    ]
    # The propagation-graph alternative for the same cyclic overlap.
    graph = PropagationGraphNetwork(
        {"g0": ["P1", "P2"], "g1": ["P2", "P3"], "g2": ["P3", "P4"], "g3": ["P4", "P1"]},
        seed=3,
    )
    for group, members in graph.groups.items():
        graph.multicast(members[0], group, f"{group}-x")
    graph.run(100)
    max_depth = max(graph.depth_of(node) for node in ("P1", "P2", "P3", "P4"))
    idle_rows = [(count, *run_idle_overlap(count)) for count in GROUPS_PER_PROCESS]
    return newtop_rows, graph.total_hops, max_depth, idle_rows


def test_multigroup_scaling(benchmark):
    newtop_rows, graph_hops, graph_depth, idle_rows = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    table = ["groups per process (ring overlap) | mean delivery latency"]
    for count, latency in newtop_rows:
        table.append(f"{count:34d} | {fmt(latency):>21}")
    table.append(
        f"propagation-graph alternative (cyclic overlap of 4 groups): "
        f"{graph_hops} forwarding hops, tree depth {graph_depth} -- Newtop sequencers "
        "need no such shared structure"
    )
    table.append(
        "paper: receive vectors + one clock cope with arbitrarily complex group "
        "structures; latency grows gracefully with overlap because D_i is the "
        "minimum over more groups -> reproduced"
    )
    table.append(
        "groups per process (full overlap, idle) | beacons per process per Ω/2 "
        "| liveness wakes per process per Ω"
    )
    for count, beacons, wakes in idle_rows:
        table.append(f"{count:39d} | {fmt(beacons):>27} | {fmt(wakes):>32}")
    table.append(
        "a beacon vouches for a neighbour, not for a group: K beacons and 2 "
        "wakes whatever the overlap (per group before: K x g and 3 x g)"
    )
    RESULTS.add_table("E13 multi-group / overlapping-group scaling", table)

    # Exact, and flat in the number of groups.
    assert [row[1:] for row in idle_rows] == [(float(RING_FANOUT), 2.0)] * len(idle_rows)

    latencies = [latency for _, latency in newtop_rows]
    assert all(latency > 0 for latency in latencies)
    assert graph_hops >= 4
