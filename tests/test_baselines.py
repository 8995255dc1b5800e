"""Tests for the §6 comparison baselines."""

import pytest

from repro.baselines import (
    FixedSequencerProcess,
    IsisProcess,
    LamportAckProcess,
    PrimaryPartitionMembership,
    PropagationGraphNetwork,
    PsyncProcess,
)
from repro.api import BaselineStack, Session
from repro.net.latency import ConstantLatency, UniformLatency


TOTAL_ORDER_BASELINES = [IsisProcess, LamportAckProcess, FixedSequencerProcess]


def _baseline(process_class, names, seed, **options):
    """A session running ``process_class`` in one group ``g`` over
    ``names``; returns it with each process's protocol instance."""
    session = Session(BaselineStack(process_class), seed=seed, **options)
    session.spawn(names)
    session.group("g")
    return session, [session[name]["g"] for name in names]


def _run_until_all_delivered(session, instances, expected, timeout):
    return session.run_until(
        lambda: all(len(instance.delivered) >= expected for instance in instances), timeout
    )


@pytest.mark.parametrize("process_class", TOTAL_ORDER_BASELINES)
def test_baseline_total_order_and_completeness(process_class):
    session, instances = _baseline(process_class, ["A", "B", "C", "D"], seed=7)
    expected = 0
    for i in range(4):
        session.multicast("A", "g", f"a{i}")
        session.multicast("C", "g", f"c{i}")
        expected += 2
        session.run(1.0)
    assert _run_until_all_delivered(session, instances, expected, timeout=300)
    assert session.result().passed  # total order, checked on the trace
    for instance in instances:
        assert len(instance.delivered) == expected


@pytest.mark.parametrize("process_class", TOTAL_ORDER_BASELINES + [PsyncProcess])
def test_baseline_under_random_latency(process_class):
    session, instances = _baseline(
        process_class, ["A", "B", "C"], seed=9, latency_model=UniformLatency(0.2, 3.0)
    )
    for i in range(3):
        session.multicast("B", "g", i)
    assert _run_until_all_delivered(session, instances, 3, timeout=300)
    for instance in instances:
        assert set(instance.delivered_payloads()) == {0, 1, 2}


def test_psync_preserves_causal_order():
    session, instances = _baseline(PsyncProcess, ["A", "B", "C"], seed=3)
    first = session.multicast("A", "g", "cause")
    session.run(30)
    second = session.multicast("B", "g", "effect")  # sent after B delivered "cause"
    session.run(60)
    for instance in instances:
        order = instance.delivered_ids()
        assert order.index(first) < order.index(second)


def test_isis_overhead_grows_with_group_size():
    _, small = _baseline(IsisProcess, ["A", "B", "C"], seed=1)
    _, large = _baseline(IsisProcess, [f"P{i}" for i in range(10)], seed=1)
    assert large[0].per_message_overhead_bytes() > small[0].per_message_overhead_bytes()


def test_lamport_ack_message_complexity():
    session, instances = _baseline(LamportAckProcess, ["A", "B", "C", "D"], seed=2)
    session.multicast("A", "g", "x")
    _run_until_all_delivered(session, instances, 1, timeout=200)
    session.run(50)  # let the remaining acknowledgements drain
    # One multicast costs (n-1) data messages plus every receiver acking to
    # everyone else: (n-1) + (n-1)^2 = n*(n-1) = 12 messages for n = 4,
    # i.e. far more than the n-1 a symmetric Newtop multicast needs.
    size = len(instances)
    assert session.network.stats.messages_sent >= size * (size - 1)
    assert instances[1].ack_messages_sent > 0


def test_fixed_sequencer_non_sequencer_submission_path():
    session, instances = _baseline(FixedSequencerProcess, ["A", "B", "C"], seed=4)
    assert instances[0].is_sequencer
    session.multicast("C", "g", "via-sequencer")
    assert _run_until_all_delivered(session, instances, 1, timeout=200)
    assert instances[1].delivered_payloads() == ["via-sequencer"]


def test_baseline_protocol_bytes_accounted():
    session, _ = _baseline(IsisProcess, ["A", "B", "C"], seed=5)
    session.multicast("A", "g", "x")
    session.run(60)
    assert session.stack.protocol_bytes() > 0


# ----------------------------------------------------------------------
# Propagation graph (Garcia-Molina & Spauster style)
# ----------------------------------------------------------------------
def test_propagation_graph_delivers_to_group_members_only():
    network = PropagationGraphNetwork({"g1": ["A", "B", "C"], "g2": ["C", "D"]}, seed=3)
    message_id = network.multicast("A", "g1", "hello")
    network.run(60)
    assert message_id in network.delivered_ids("B")
    assert message_id in network.delivered_ids("C")
    assert message_id not in network.delivered_ids("D")


def test_propagation_graph_orders_overlapping_groups_through_shared_path():
    network = PropagationGraphNetwork({"g1": ["A", "B", "C"], "g2": ["B", "C", "D"]}, seed=5)
    first = network.multicast("A", "g1", "m1")
    second = network.multicast("D", "g2", "m2")
    network.run(80)
    order_b = [m for m in network.delivered_ids("B") if m in (first, second)]
    order_c = [m for m in network.delivered_ids("C") if m in (first, second)]
    assert order_b == order_c
    assert network.total_hops > 0


def test_propagation_graph_depth_reflects_tree_structure():
    network = PropagationGraphNetwork(
        {"g1": ["A", "B"], "g2": ["B", "C"], "g3": ["C", "D"]}, seed=1
    )
    depths = [network.depth_of(node) for node in ("A", "B", "C", "D")]
    assert max(depths) >= 1


# ----------------------------------------------------------------------
# Primary-partition policy
# ----------------------------------------------------------------------
def test_primary_partition_majority_rules():
    policy = PrimaryPartitionMembership(["P1", "P2", "P3", "P4", "P5"])
    outcomes = policy.evaluate([["P1", "P2"], ["P3", "P4", "P5"]])
    by_members = {outcome.members: outcome.may_continue for outcome in outcomes}
    assert by_members[frozenset({"P3", "P4", "P5"})] is True
    assert by_members[frozenset({"P1", "P2"})] is False
    assert policy.availability_fraction([["P1", "P2"], ["P3", "P4", "P5"]]) == 0.6


def test_primary_partition_no_majority_means_total_outage():
    policy = PrimaryPartitionMembership(["P1", "P2", "P3", "P4"])
    assert policy.availability_fraction([["P1", "P2"], ["P3", "P4"]]) == 0.0
    # Newtop keeps every connected process available in the same scenario.
    assert (
        PrimaryPartitionMembership.newtop_availability_fraction(
            ["P1", "P2", "P3", "P4"], [["P1", "P2"], ["P3", "P4"]]
        )
        == 1.0
    )


def test_primary_partition_weights():
    policy = PrimaryPartitionMembership(["P1", "P2", "P3"], weights={"P1": 3.0})
    assert policy.is_primary(["P1"])
    assert not policy.is_primary(["P2", "P3"])


def test_primary_partition_requires_members():
    with pytest.raises(ValueError):
        PrimaryPartitionMembership([])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stack", ["fixed_sequencer", "isis", "lamport_ack", "psync"])
def test_baseline_stack_merges_groups_in_delivery_order(stack, seed):
    """A process's deliveries across its groups come back in the order they
    happened.  At a constant latency two groups deliver in the same
    instant, which sorting by time put in group-creation order instead."""
    session = Session(stack=stack, seed=seed, latency_model=ConstantLatency(1.0))
    names = ["P0", "P1", "P2", "P3"]
    session.spawn(names)
    groups = {"g1": names[0:3], "g2": names[1:4]}
    for group, members in groups.items():
        session.group(group, members)
    for round_ in range(6):
        for group, members in groups.items():
            for member in members:
                session.multicast(member, group, f"{group}-{member}-{round_}")
        session.run(1.0)
    session.run(30)
    trace = session.trace()
    for name in names:
        assert session.stack.delivered_ids(name) == trace.delivered_ids(name), name
