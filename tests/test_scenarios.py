"""Tests for the declarative scenario engine and the runtime it leans on.

Covers the ISSUE-1 surface: scenario-spec parsing, churn and
partition-merge scenarios verified end to end through the trace checkers,
the simulator's bounded-heap invariant under timer churn, and the
benchmark smoke mode that keeps the scenario path exercised by tier-1.
"""

from collections import deque

import pytest

from repro.net.simulator import Simulator
from repro.net.trace import NULL_SEND, SEND
from repro.scenarios import (
    InvalidScenarioSpec,
    ScenarioEngine,
    cascading_partitions_scenario,
    churn_scenario,
    from_config,
    merge_storm_scenario,
    migration_under_load_scenario,
    mixed_modes_scenario,
    run_scenario,
)

# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def test_from_config_parses_a_minimal_scenario():
    spec = from_config(
        {
            "name": "mini",
            "processes": 4,
            "groups": [{"id": "g0", "members": ["P001", "P002", "P003"]}],
            "workload": {"messages_per_sender": 2, "gap": 2.0, "start": 1.0},
            "events": [
                {"time": 5.0, "kind": "crash", "targets": ["P003"]},
                {"time": 3.0, "kind": "heal"},
            ],
            "drain": 10.0,
        }
    )
    assert spec.processes == ("P001", "P002", "P003", "P004")
    assert spec.groups[0].members == ("P001", "P002", "P003")
    # Events come out sorted by time; the horizon covers the last action
    # plus the drain.
    assert [event.kind for event in spec.events] == ["heal", "crash"]
    assert spec.horizon() == pytest.approx(15.0)


def test_from_config_infers_processes_from_groups():
    spec = from_config(
        {"groups": [{"id": "g0", "members": ["B", "A"]}, {"id": "g1", "members": ["A", "C"]}]}
    )
    assert spec.processes == ("A", "B", "C")


@pytest.mark.parametrize(
    "config",
    [
        {"groups": []},  # no groups
        {"groups": [{"id": "g", "members": ["P001"]}], "processes": 2},  # 1-member group
        {"groups": [{"id": "g", "members": ["P001", "NOPE"]}], "processes": 2},
        {"groups": [{"id": "g", "members": ["P001", "P002"], "mode": "bogus"}], "processes": 2},
        {
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 2,
            "events": [{"time": 1.0, "kind": "teleport"}],
        },
        {
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 3,
            "events": [{"time": 1.0, "kind": "leave", "targets": ["P003"], "group": "g"}],
        },
        {  # form_group reusing a static group id
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 3,
            "events": [
                {"time": 1.0, "kind": "form_group", "group": "g", "targets": ["P001", "P003"]}
            ],
        },
        {  # form_group with fewer than two members
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 3,
            "events": [
                {"time": 1.0, "kind": "form_group", "group": "g2", "targets": ["P003"]}
            ],
        },
        {  # form_group naming an unknown process
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 3,
            "events": [
                {"time": 1.0, "kind": "form_group", "group": "g2", "targets": ["P001", "NOPE"]}
            ],
        },
    ],
)
def test_from_config_rejects_malformed_specs(config):
    with pytest.raises(InvalidScenarioSpec):
        from_config(config)


def test_from_config_accepts_form_group_and_leave_from_formed_group():
    spec = from_config(
        {
            "groups": [{"id": "g", "members": ["P001", "P002"]}],
            "processes": 4,
            "events": [
                {"time": 2.0, "kind": "form_group", "group": "fg", "targets": ["P003", "P004"]},
                {"time": 9.0, "kind": "leave", "targets": ["P004"], "group": "fg"},
            ],
        }
    )
    kinds = [event.kind for event in spec.events]
    assert kinds == ["form_group", "leave"]
    # The horizon covers the workload the engine drives through the formed
    # group after the formation grace period.
    assert spec.horizon() > 2.0 + spec.drain


# ---------------------------------------------------------------------------
# Scenario runs: churn and partition/merge, checked via analysis.checkers
# ---------------------------------------------------------------------------


def test_churn_scenario_passes_checkers_and_installs_views():
    config = churn_scenario(
        n_processes=10, n_groups=3, group_size=5, crashes=1, leaves=1, seed=5
    )
    engine = ScenarioEngine(from_config(config))
    result = engine.run()
    assert result.passed, result.checks.violations[:3]
    assert result.deliveries > 0
    # The crashed process must have been excluded from the views of the
    # survivors that shared a group with it.
    crashed = next(
        event.targets[0] for event in engine.spec.events if event.kind == "crash"
    )
    for group, members in result.agreement_sets.items():
        assert crashed not in members
        for member in members:
            view = engine.session.processes[member].view(group)
            assert crashed not in view.members


def test_dynamic_group_formation_under_churn():
    """`form_group` events create live groups mid-run that pass all checks."""
    config = churn_scenario(
        n_processes=12, n_groups=3, group_size=6, crashes=1, leaves=1,
        formations=2, seed=5,
    )
    formed_ids = [
        event["group"] for event in config["events"] if event["kind"] == "form_group"
    ]
    assert len(formed_ids) == 2
    engine = ScenarioEngine(from_config(config))
    result = engine.run()
    assert result.passed, result.checks.violations[:3]
    for group_id in formed_ids:
        members = result.agreement_sets[group_id]
        assert len(members) >= 2
        for member in members:
            process = engine.session.processes[member]
            assert process.is_member(group_id)
            # The formed group carried application traffic.
            assert any(
                record.group == group_id for record in process.delivered
            ), f"{member} delivered nothing in formed group {group_id}"


def test_partition_merge_scenario_passes_checkers():
    result = run_scenario(merge_storm_scenario(n_processes=6, n_groups=2, group_size=4, cycles=2))
    assert result.passed, result.checks.violations[:3]
    # The storm's minority is excluded from the stable core's agreement sets.
    assert all("P005" not in members for members in result.agreement_sets.values())
    assert result.deliveries > 0


def test_cascading_partitions_and_migration_scenarios():
    for config in (
        cascading_partitions_scenario(n_processes=9, n_groups=2, group_size=5, slices=1),
        migration_under_load_scenario(n_processes=5),
        mixed_modes_scenario(n_processes=6),
    ):
        result = run_scenario(config)
        assert result.passed, (config["name"], result.checks.violations[:3])


def test_scenario_samples_show_bounded_heap():
    """A long null-dominated churn run must not grow the event heap
    monotonically."""
    config = churn_scenario(
        n_processes=12,
        n_groups=3,
        group_size=6,
        crashes=1,
        leaves=1,
        seed=3,
    )
    # Most of the messages here are time-silence nulls: a long run with
    # few application senders keeps every silent endpoint's null timer
    # churning, which is exactly the load that used to grow the event heap
    # without bound.  The test pins that *shape* -- long, null-dominated,
    # thousands of timer firings -- not a null volume, which is what
    # protocol work on the null tax legitimately moves.
    config["workload"] = {"messages_per_sender": 40, "senders_per_group": 2, "gap": 1.0}
    config["drain"] = 180.0
    engine = ScenarioEngine(from_config(config))
    result = engine.run()
    assert result.passed, result.checks.violations[:3]
    trace = engine.session.trace()
    null_sends = len(trace.events(kind=NULL_SEND))
    assert result.sim_time >= 200.0
    assert null_sends >= 1_000
    assert null_sends >= 3 * len(trace.events(kind=SEND))
    # Heap occupancy tracks in-flight traffic and live timers, nowhere
    # near one entry per message ever sent.
    assert result.peak_pending_events < result.messages_sent / 4
    # No monotone growth: the tail of the run is no worse than its middle.
    samples = [sample.pending_events for sample in result.samples]
    middle, tail = samples[len(samples) // 3 : 2 * len(samples) // 3], samples[-3:]
    assert max(tail) <= 2 * max(middle)


# ---------------------------------------------------------------------------
# Simulator invariants the engine depends on
# ---------------------------------------------------------------------------


def test_pending_events_bounded_under_timer_churn():
    """Schedule/cancel churn must trigger compaction, not grow the heap."""
    sim = Simulator(seed=1)
    live: deque = deque()
    peak = 0
    for index in range(10_000):
        handle = sim.schedule(100.0 + index * 0.01, lambda: None, label="churn")
        live.append(handle)
        if len(live) > 16:
            live.popleft().cancel()
        peak = max(peak, sim.pending_events)
    assert peak <= 256, f"heap grew to {peak} entries for 16 live timers"
    assert sim.compactions > 0
    assert sim.live_pending_events == 16


def test_scenario_run_triggers_no_heap_growth_from_cancellations():
    """End-to-end: cancelled timers never dominate a scenario's heap."""
    config = mixed_modes_scenario(n_processes=6)
    engine = ScenarioEngine(from_config(config))
    result = engine.run()
    sim = engine.session.sim
    assert result.passed
    assert sim.pending_events - sim.live_pending_events <= max(64, sim.pending_events)


# ---------------------------------------------------------------------------
# Benchmark smoke mode (CI wiring: tier-1 exercises the bench path)
# ---------------------------------------------------------------------------


def test_benchmark_smoke_mode():
    import bench_scenario_churn

    result = bench_scenario_churn.run_churn(bench_scenario_churn.SMOKE_SCALE)
    assert result.passed
    assert result.deliveries > 0


def test_benchmark_smoke_mode_online_json(tmp_path):
    """The CI hook: smoke-scale E19 online run recorded to JSON."""
    import json

    import bench_scenario_churn

    json_path = str(tmp_path / "BENCH_scenario_churn.json")
    payload = bench_scenario_churn.record_results("smoke", json_path)
    assert payload["passed"]
    assert payload["analysis"] == "online"
    assert payload["trace_events_stored"] == 0
    with open(json_path, encoding="utf-8") as handle:
        assert json.load(handle) == payload
