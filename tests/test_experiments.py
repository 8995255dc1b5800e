"""Tier-1 tests for the sweep runner (``repro.experiments``).

A smoke-scale grid exercises the full cell lifecycle -- topology, phased
faults, availability and stall accounting -- and pins the report-level
consistency property the E21 benchmark relies on:
``offered >= admitted >= delivered_unique`` in every cell.
"""

import json

import pytest

from repro.experiments import SweepSpec, cell_scenario, run_cell, run_sweep, sweep
from repro.net.partitions import partition_hold_time
from repro.scenarios import run_scenario


def tiny_spec(**overrides):
    base = dict(
        stacks=("newtop", "fixed_sequencer"),
        profiles=("poisson",),
        loads=(0.5, 1.0),
        faults=("none",),
        processes=6,
        groups=2,
        group_size=4,
        duration=18.0,
        drain=24.0,
        seed=11,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_spec_validation_and_topology():
    with pytest.raises(ValueError):
        tiny_spec(faults=("meteor",))
    with pytest.raises(ValueError):
        tiny_spec(group_size=99)
    # Every cell must compile to a valid scenario on a known stack, at
    # construction -- not later, in a worker.
    for bad in ({"groups": 0}, {"loads": (-1.0,)}, {"profiles": ("nope",)},
                {"stacks": ("nope",)}, {"senders_per_group": -2}):
        with pytest.raises(ValueError):
            tiny_spec(**bad)
    spec = tiny_spec()
    groups = cell_scenario(spec, "poisson", 0.5, "crash").groups
    assert len(groups) == 2
    members = {m for group in groups for m in group.members}
    assert len(members) <= 6
    # Ring overlap: consecutive groups share members.
    assert set(groups[0].members) & set(groups[1].members)
    # The crash victim leads no group (it must not be a sequencer).
    leaders = {group.members[0] for group in groups}
    assert spec.crash_targets()[0] not in leaders


def test_a_cell_is_its_scenario():
    """run_cell is cell_scenario run by the scenario engine: replaying
    the scenario gives the row's verdict and message counts."""
    spec = tiny_spec()
    row = run_cell(spec, "newtop", "poisson", 1.0, "crash")
    result = run_scenario(
        cell_scenario(spec, "poisson", 1.0, "crash"), stack="newtop", analysis="online"
    )
    assert (result.passed, result.messages_sent, result.delivery_events) == (
        row["passed"], row["messages_sent"], row["delivery_events"],
    )
    assert result.workload["offered"] == row["offered"]


def test_sweep_report_consistency_property():
    """The invariant the ISSUE names: offered >= admitted >= delivered
    counts are consistent in every cell of the sweep report."""
    report = run_sweep(tiny_spec(faults=("none", "crash")))
    assert len(report.cells) == 2 * 2 * 2  # stacks x loads x faults
    assert report.passed
    for cell in report.cells:
        assert cell["offered"] >= cell["admitted"] >= cell["delivered_unique"], cell
        assert cell["offered"] == cell["admitted"] + cell["blocked"]
        assert cell["trace_events_stored"] == 0
        phase_offered = sum(phase["offered"] for phase in cell["phases"].values())
        assert phase_offered == cell["offered"]
    # The report must be JSON-serializable as-is (the CI artifact).
    json.dumps(report.as_dict())


def test_a_sweep_reports_a_failed_cell_as_it_lands(monkeypatch):
    """``progress`` hears of every cell before the next one runs, a cell
    that raised included."""
    order = []

    def fake_cell(spec, stack, profile_name, load, fault):
        order.append(f"run {stack} {load}")
        if stack == "newtop" and load == 0.5:
            raise RuntimeError("cell crash")
        return {"stack": stack, "offered_load": load, "passed": True}

    monkeypatch.setattr(sweep, "run_cell", fake_cell)
    report = run_sweep(
        tiny_spec(),
        progress=lambda row: order.append(f"row {row['stack']} {row['offered_load']}"),
    )
    assert order == [
        f"{step} {stack} {load}"
        for load in (0.5, 1.0)
        for stack in ("newtop", "fixed_sequencer")
        for step in ("run", "row")
    ]
    assert [cell["passed"] for cell in report.cells] == [False, True, True, True]
    assert "cell crash" in report.cells[0]["violations"][0]


def test_curves_cover_every_load_point_in_order():
    report = run_sweep(tiny_spec())
    curves = report.curves()
    for stack in ("newtop", "fixed_sequencer"):
        points = curves[stack]["poisson"]
        assert [point["offered_load"] for point in points] == [0.5, 1.0]
        assert all(point["goodput"] > 0 for point in points)


def test_crash_cell_stalls_all_ack_but_not_newtop():
    # E21-smoke dimensions: the window must be long enough past the crash
    # that the stalled group's client still offers load during recovery.
    spec = tiny_spec(
        stacks=("newtop", "lamport_ack"),
        loads=(2.0,),
        faults=("crash",),
        processes=8,
        group_size=5,
        duration=24.0,
        drain=30.0,
    )
    newtop = run_cell(spec, "newtop", "poisson", 2.0, "crash")
    lamport = run_cell(spec, "lamport_ack", "poisson", 2.0, "crash")
    assert newtop["passed"] and lamport["passed"]
    assert newtop["stalled_groups"] == 0
    assert lamport["stalled_groups"] > 0
    assert newtop["delivered_unique"] > lamport["delivered_unique"]


def test_partition_cell_availability_contrast():
    spec = tiny_spec(
        stacks=("newtop", "primary_partition"), loads=(1.0,), faults=("partition",)
    )
    newtop = run_cell(spec, "newtop", "poisson", 1.0, "partition")
    primary = run_cell(spec, "primary_partition", "poisson", 1.0, "partition")
    assert newtop["passed"] and primary["passed"]
    assert 0.0 <= primary["availability"] <= 1.0
    # The primary-partition policy refuses the minority's sends; Newtop
    # admits on both sides of the split (E16 under open-loop load).
    assert primary["availability"] < 1.0
    assert newtop["availability"] > primary["availability"]


@pytest.mark.parametrize("omega", [1.5, 2.0, 2.4, 2.5, 3.0])
def test_partition_cell_passes_whatever_the_time_silence_period(omega):
    """Regression: the partition cell used to heal exactly Omega after the
    split -- mid-agreement -- so whether the messages lost across it left
    a causal gap in still-whole views depended on where the null timers
    stood (omega 2.0, 2.4 and 2.5 failed causal-prefix, 1.5 and 3.0
    passed by timing luck).  The fault phase of a partition cell now lasts
    at least ``partition_hold_time(Omega)``, the model's healthy envelope,
    and the phases that ran are the phases the row reports."""
    spec = tiny_spec(
        stacks=("newtop",), loads=(1.0,), faults=("partition",),
        protocol={"omega": omega},
    )
    row = run_cell(spec, "newtop", "poisson", 1.0, "partition")
    assert row["passed"], row["violations"]
    assert row["stalled_groups"] == 0
    # duration 18 -> thirds of 6; Omega 6 -> the split is held for 18.
    assert partition_hold_time(6.0) == 18.0
    assert row["phase_bounds"] == {
        "pre": (1.0, 7.0),
        "fault": (7.0, 25.0),
        "recovery": (25.0, 31.0),
        "drain": (31.0, 55.0),
    }
    # The heal is the fault/recovery boundary: load offered after it is
    # admitted and delivered inside the window, not left to the drain.
    assert row["phases"]["recovery"]["delivered_unique"] > 0


def test_partition_cell_keeps_equal_thirds_when_they_are_long_enough():
    spec = tiny_spec(
        stacks=("newtop",), loads=(0.5,), faults=("partition", "crash"),
        duration=60.0,
    )
    partition = run_cell(spec, "newtop", "poisson", 0.5, "partition")
    crash = run_cell(spec, "newtop", "poisson", 0.5, "crash")
    assert partition["passed"] and crash["passed"]
    assert partition["phase_bounds"] == crash["phase_bounds"]
    assert partition["phase_bounds"]["fault"] == (21.0, 41.0)


def test_cell_lookup_raises_on_missing():
    report = run_sweep(tiny_spec(loads=(0.5,)))
    report.cell("newtop", "poisson", 0.5)
    with pytest.raises(KeyError):
        report.cell("newtop", "poisson", 9.9)


def test_asymmetric_crash_cell_holds_virtual_synchrony():
    """Regression for the post-PR-4 known issue: the ISSUE's exact repro.

    Under faults + sustained open-loop load, a member whose detection
    lagged could deliver a freshly sequenced message in the old view.
    The sequenced view-cut marker translates the detection into sequencer
    numbering, so the cell must now pass -- and newtop-asymmetric is back
    in E21's crash/partition cells on the strength of this pin.
    """
    spec = SweepSpec(processes=8, groups=2, group_size=5)
    row = run_cell(spec, "newtop-asymmetric", "poisson", 1.0, "crash")
    assert row["passed"], row["violations"]
    assert row["stalled_groups"] == 0
    partition = run_cell(spec, "newtop-asymmetric", "poisson", 1.0, "partition")
    assert partition["passed"], partition["violations"]


def test_latency_model_knob_routes_into_the_cell():
    """The ROADMAP's "still unexposed" knob: a named repro.net.latency
    model (with options) selected per spec, validated at spec build."""
    with pytest.raises(ValueError):
        tiny_spec(latency_model="wormhole")
    with pytest.raises(ValueError):
        tiny_spec(latency_model="lognormal", latency_options={"median": -1})
    spec = tiny_spec(
        stacks=("newtop",),
        loads=(1.0,),
        latency_model="lognormal",
        latency_options={"median": 0.8, "sigma": 0.3},
        protocol={"suspicion_timeout": 8.0},
    )
    assert spec.describe()["latency_model"] == "lognormal"
    row = run_cell(spec, "newtop", "poisson", 1.0, "none")
    assert row["passed"], row["violations"]
    # The heavier network must actually show up in the measurements:
    # the same cell on the (faster) default uniform model is quicker.
    default_row = run_cell(tiny_spec(stacks=("newtop",), loads=(1.0,)),
                           "newtop", "poisson", 1.0, "none")
    assert row["latency"]["mean"] != default_row["latency"]["mean"]
