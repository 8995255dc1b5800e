"""Tests for the unified ``repro.api`` session layer (ISSUE-3 surface).

Covers: the Session lifecycle on Newtop and every baseline stack,
per-stack check selection, the capability-flag path for unsupported
scenario events, the removal of the old cluster-constructor shims and
fault schedule,
the primary-partition policy stack, and the cross-stack churn smoke run
(the E20 code path at tier-1 scale).
"""

import pytest

from repro.api import (
    COMPARISON_STACKS,
    Session,
    StackContext,
    StackError,
    UnsupportedScenarioEvent,
    UnsupportedStackOperation,
    available_stacks,
    get_stack,
)
from repro.scenarios import churn_scenario, run_scenario

NAMES = ["A", "B", "C", "D"]


def _drive(session, senders=("A", "B"), group="g", count=2, horizon=60):
    for index in range(count):
        for sender in senders:
            session.multicast(sender, group, f"{sender}-{index}")
    session.run(horizon)


# ---------------------------------------------------------------------------
# Session lifecycle across stacks
# ---------------------------------------------------------------------------


def _delivery_logs(session):
    """Every protocol instance's delivery log: one per Newtop process, one
    per (process, group) instance of a baseline."""
    for entry in session.stack.processes.values():
        for instance in entry.values() if isinstance(entry, dict) else (entry,):
            yield instance.delivered


@pytest.mark.parametrize("stack", sorted(COMPARISON_STACKS))
def test_session_lifecycle_on_every_comparison_stack(stack):
    session = Session(stack=stack, seed=3, analysis="online")
    session.spawn(NAMES)
    session.group("g")
    _drive(session)
    result = session.result()
    assert result.passed, result.checks.violations[:3]
    assert result.deliveries == 4 * len(NAMES)
    assert result.trace_events_stored == 0  # online mode: nothing retained
    assert result.metrics["by_kind"]["deliver"] == result.deliveries


@pytest.mark.parametrize("stack", sorted(COMPARISON_STACKS))
def test_online_session_keeps_delivery_counts_not_records(stack):
    """A streaming run holds no per-delivery records, in Newtop processes
    or baseline instances; its counts are the offline run's, whose records
    show everyone delivered the same ids (per the stack's own rules)."""
    counts = {}
    for analysis in ("offline", "online"):
        session = Session(stack=stack, seed=3, analysis=analysis)
        session.spawn(NAMES)
        session.group("g")
        _drive(session)
        logs = list(_delivery_logs(session))
        assert [log.held for log in logs] == (
            [len(log) for log in logs] if analysis == "offline" else [0] * len(logs)
        )
        counts[analysis] = (session.deliveries(), [len(log) for log in logs])
        if analysis == "offline":
            sequences = {tuple(session.stack.delivered_ids(name, "g")) for name in NAMES}
            assert len({frozenset(sequence) for sequence in sequences}) == 1
    assert counts["online"] == counts["offline"]
    assert counts["online"][0] == 4 * len(NAMES)
    # Reading the records of a streaming log names the mode that keeps them.
    with pytest.raises(RuntimeError, match="offline"):
        session.stack.delivered_ids("A", "g")
    with pytest.raises(RuntimeError, match="offline"):
        session.stack.delivered_ids("A")
    with pytest.raises(RuntimeError, match="offline"):
        list(logs[0])


def test_session_offline_mode_materializes_a_trace():
    session = Session(stack="fixed_sequencer", seed=1)
    session.spawn(NAMES)
    session.group("g")
    _drive(session)
    trace = session.trace()
    assert len(trace.events(kind="deliver")) == session.deliveries()
    result = session.result()
    assert result.passed and result.analysis == "offline"


def test_per_stack_check_selection():
    # Psync claims causal order only; the sequencer claims total order.
    assert get_stack("psync").checks == ("causal_prefix", "sender_in_view")
    assert "total_order" in get_stack("fixed_sequencer").checks
    assert get_stack("newtop").check_scope == "global"
    assert get_stack("isis").check_scope == "group"
    # An explicit subset overrides the stack's declaration...
    session = Session(stack="lamport_ack", seed=2, analysis="online",
                      checks=("total_order",))
    session.spawn(NAMES)
    session.group("g")
    _drive(session)
    assert session.result().passed
    # ...and checks=() disables verification entirely.
    session = Session(stack="newtop", seed=2, checks=())
    session.spawn(NAMES)
    session.group("g")
    _drive(session)
    assert session.result().checks is None
    assert session.result().passed


def test_a_registered_factory_error_is_not_an_unknown_stack(monkeypatch):
    from repro.api import stacks

    def broken_factory():
        raise TypeError("broken while building")

    monkeypatch.setitem(stacks.STACK_FACTORIES, "boom", broken_factory)
    with pytest.raises(TypeError, match="broken while building"):
        get_stack("boom")
    # An unhashable name is still an unknown stack.
    with pytest.raises(StackError, match="unknown protocol stack"):
        get_stack(["newtop"])


def test_unknown_stack_and_unsupported_operations():
    with pytest.raises(StackError):
        get_stack("does-not-exist")
    assert set(COMPARISON_STACKS) <= set(available_stacks())
    session = Session(stack="isis", seed=1)
    session.spawn(NAMES)
    session.group("g")
    with pytest.raises(UnsupportedStackOperation):
        session.leave("A", "g")
    with pytest.raises(UnsupportedStackOperation):
        session.form_group("g2", ["A", "B"])


def test_primary_partition_stack_halts_the_minority():
    session = Session(stack="primary_partition", seed=4)
    session.spawn(["A", "B", "C", "D", "E"])
    session.group("g")
    assert session.multicast("E", "g", "before") is not None
    session.run(30)
    session.partition([["A", "B", "C"], ["D", "E"]])
    # The majority side keeps operating; the minority is halted.
    assert session.multicast("A", "g", "majority") is not None
    assert session.multicast("E", "g", "minority") is None
    assert ("E", "g") in session.stack.halted_memberships()
    session.run(30)
    session.heal()
    assert session.stack.halted_memberships() == []
    assert session.multicast("E", "g", "after-heal") is not None
    session.run(30)
    assert session.result().passed


# ---------------------------------------------------------------------------
# Capability flags in the scenario engine
# ---------------------------------------------------------------------------


def _form_group_config():
    return {
        "name": "formation on a baseline",
        "processes": 6,
        "groups": [{"id": "g", "members": ["P001", "P002", "P003", "P004"]}],
        "workload": {"messages_per_sender": 2, "gap": 2.0},
        "events": [
            {"time": 4.0, "kind": "form_group", "group": "fg",
             "targets": ["P005", "P006"]},
        ],
        "drain": 15.0,
    }


def test_form_group_on_a_baseline_raises_a_clear_error():
    with pytest.raises(UnsupportedScenarioEvent, match="form_group.*capability"):
        run_scenario(_form_group_config(), stack="fixed_sequencer")


def test_form_group_on_a_baseline_skips_with_a_recorded_warning():
    result = run_scenario(
        _form_group_config(), stack="fixed_sequencer", on_unsupported="skip"
    )
    assert result.passed
    assert len(result.skipped_events) == 1
    assert "form_group" in result.skipped_events[0]
    assert "skipped" in result.skipped_events[0]
    # The static group still carried its workload.
    assert result.deliveries > 0


def test_crash_events_apply_to_baseline_stacks():
    config = {
        "name": "crash on a baseline",
        "processes": 4,
        "groups": [{"id": "g", "members": ["P001", "P002", "P003", "P004"]}],
        "workload": {"messages_per_sender": 3, "gap": 3.0},
        "events": [{"time": 4.0, "kind": "crash", "targets": ["P004"]}],
        "drain": 20.0,
    }
    result = run_scenario(config, stack="isis", analysis="online")
    assert result.passed, result.checks.violations[:3]
    assert result.stack == "isis"
    assert result.skipped_events == []
    assert result.deliveries > 0


# ---------------------------------------------------------------------------
# Cross-stack churn smoke (the E20 code path at tier-1 scale)
# ---------------------------------------------------------------------------


def test_churn_scenario_runs_on_all_six_stacks():
    config = churn_scenario(
        n_processes=10, n_groups=3, group_size=5, crashes=1, leaves=1, seed=5
    )
    deliveries = {}
    for stack in COMPARISON_STACKS:
        result = run_scenario(
            config, stack=stack, analysis="online", on_unsupported="skip"
        )
        assert result.passed, (stack, result.checks.violations[:3])
        assert result.trace_events_stored == 0
        assert result.deliveries > 0
        # Newtop expresses every event; baselines skip the 'leave'.
        if stack.startswith("newtop"):
            assert result.skipped_events == []
        else:
            assert len(result.skipped_events) == 1
        deliveries[stack] = result.deliveries
    assert len(deliveries) == 6


# ---------------------------------------------------------------------------
# Removed surfaces stay gone: the cluster shims and the fault schedule
# ---------------------------------------------------------------------------


def test_cluster_shims_removed_from_public_api():
    import repro
    import repro.baselines
    import repro.core

    for module in (repro, repro.core):
        assert not hasattr(module, "NewtopCluster")
    assert not hasattr(repro.baselines, "BaselineCluster")
    with pytest.raises(ImportError):
        from repro.core import cluster  # noqa: F401


def test_faults_have_one_front_door():
    """A fault is a Session call; the schedule/injector pair is gone."""
    import repro.net

    for name in ("FailureSchedule", "FaultInjector"):
        assert not hasattr(repro.net, name)
    with pytest.raises(ImportError):
        from repro.net import failures  # noqa: F401
    session = Session("newtop")
    assert not hasattr(session, "install_failures")
    assert not hasattr(session, "injector")
    assert "injector" not in StackContext.__dataclass_fields__
