"""Property-based tests (hypothesis) for the core data structures and for
protocol invariants over randomly generated workloads."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import check_all, check_total_order
from repro.api import Session
from repro.core import NewtopConfig, OrderingMode
from repro.core.clock import LamportClock
from repro.core.delivery import DeliveryQueue
from repro.core.messages import DataMessage
from repro.core.vectors import ReceiveVector, StabilityVector
from repro.core.views import MembershipView, SignatureView


# ----------------------------------------------------------------------
# Lamport clock
# ----------------------------------------------------------------------
@given(st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=1000)), max_size=200))
def test_clock_is_monotone_under_any_interleaving(operations):
    clock = LamportClock()
    previous = clock.value
    for operation in operations:
        if operation is None:
            clock.tick()
        else:
            clock.observe(operation)
        assert clock.value >= previous
        previous = clock.value


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=50))
def test_ticks_always_produce_strictly_increasing_numbers(observations):
    clock = LamportClock()
    numbers = []
    for observation in observations:
        clock.observe(observation)
        numbers.append(clock.tick())
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == len(numbers)


# ----------------------------------------------------------------------
# Receive / stability vectors
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(["P1", "P2", "P3", "P4"]), st.integers(1, 100)),
        max_size=200,
    )
)
def test_receive_vector_minimum_never_exceeds_any_entry_and_never_decreases(updates):
    vector = ReceiveVector(["P1", "P2", "P3", "P4"])
    previous_minimum = vector.deliverable_bound
    for member, value in updates:
        vector.record_receipt(member, value)
        assert vector.deliverable_bound >= previous_minimum
        assert all(vector[m] >= vector.deliverable_bound for m in vector)
        previous_minimum = vector.deliverable_bound


@given(
    st.lists(
        st.tuples(st.sampled_from(["P1", "P2", "P3"]), st.integers(1, 100)), max_size=100
    )
)
def test_stability_bound_is_a_lower_bound_on_entries(updates):
    vector = StabilityVector(["P1", "P2", "P3"])
    for member, value in updates:
        vector.record_ldn(member, value)
    assert all(vector[m] >= vector.stability_bound for m in vector)


# ----------------------------------------------------------------------
# Delivery queue: safe2 holds for arbitrary enqueue orders and bounds
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(1, 30)),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.integers(0, 35), min_size=1, max_size=10),
)
def test_delivery_queue_pops_in_nondecreasing_clock_order(messages, bounds):
    queue = DeliveryQueue()
    for sender, clock in messages:
        queue.enqueue(DataMessage.application(sender, "g", clock, 0, None))
    delivered_clocks = []
    for bound in sorted(bounds):
        for d in queue.pop_deliverable(bound):
            delivered_clocks.append(d.clock)
            assert d.clock <= bound
    assert delivered_clocks == sorted(delivered_clocks)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
@given(
    st.sets(st.sampled_from([f"P{i}" for i in range(8)]), min_size=2, max_size=8).flatmap(
        lambda members: st.tuples(
            st.just(members),
            st.lists(st.sampled_from(sorted(members)), max_size=6, unique=True),
        )
    )
)
def test_views_only_shrink_and_signatures_track_exclusions(data):
    members, removals = data
    view = MembershipView.initial("g", members)
    signature_view = SignatureView.initial("g", members)
    removed_so_far = 0
    for process in removals:
        if process not in view.members or len(view.members) == 1:
            continue
        new_view = view.exclude([process])
        signature_view = signature_view.exclude([process])
        removed_so_far += 1
        assert new_view.members < view.members
        assert new_view.index == view.index + 1
        assert signature_view.exclusions == removed_so_far
        view = new_view


# ----------------------------------------------------------------------
# Whole-protocol property: random workloads keep every guarantee
# ----------------------------------------------------------------------
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    sends=st.lists(
        st.tuples(st.sampled_from(["P1", "P2", "P3"]), st.integers(0, 20)),
        min_size=1,
        max_size=12,
    ),
    mode=st.sampled_from([OrderingMode.SYMMETRIC, OrderingMode.ASYMMETRIC]),
)
def test_random_workloads_preserve_total_and_causal_order(seed, sends, mode):
    config = NewtopConfig(omega=2.0, suspicion_timeout=30.0)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(["P1", "P2", "P3"])
    session.group("g", mode=mode)
    for index, (sender, delay_tenths) in enumerate(sends):
        session.run(delay_tenths / 10.0)
        session[sender].multicast("g", f"{sender}-{index}")
    session.run(120)
    orders = [tuple(process.delivered_payloads("g")) for process in session.processes.values()]
    assert len(set(orders)) == 1
    assert len(orders[0]) == len(sends)
    result = check_all(session.trace())
    assert result.passed, result.violations


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 10_000),
    crash_victim=st.sampled_from(["P3", "P4"]),
    crash_after=st.integers(5, 25),
)
def test_random_crashes_preserve_survivor_agreement(seed, crash_victim, crash_after):
    config = NewtopConfig(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)
    session = Session("newtop", config=config, seed=seed)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g")
    session["P1"].multicast("g", "first")
    session.run(float(crash_after))
    session.crash(crash_victim)
    session.run(100)
    session["P2"].multicast("g", "second")
    session.run(100)
    survivors = [p for p in ("P1", "P2", "P3", "P4") if p != crash_victim]
    orders = {tuple(session[p].delivered_payloads("g")) for p in survivors}
    assert len(orders) == 1
    assert "second" in orders.pop()
    result = check_all(session.trace(), view_agreement_sets={"g": survivors})
    assert result.passed, result.violations
