"""Equivalence pins for the hot path (slab vectors / receipt batching).

``src/`` has one backend for the receive and stability vectors (slab
arrays with a cached minimum) and one way to take receipts (per-instant
transport batches).  The implementations they replaced are kept test-side
as executable references (:mod:`reference_twins`):

* the dict-per-vector model of ``RV``/``SV``, and
* per-message receipt processing, which settles after every message.

Both fast paths must be *behaviour-preserving*, and each arm has to
prove it ran.  The dict vectors are an exact twin: the pinned run is the
same under them down to the simulator event count.  The per-message
receipt path promises what the protocol sees: every process's delivery
log (each delivery's group, sender, id, number, view and time), the
delivery and message counts, the sim time, the verdict and the latency
metrics.  The event count is not part of that promise: where one
transport batch carries several nulls, a settle after each of them may
pull a time-silence timer in that the single batch-end settle leaves at
its idle date, and the beacon and network events after it then shift.
On the pinned seed-11 churn run the two arms still agree on every
number, events included; on the seed-5 run below they differ by one
event (6,063 against 6,064) and agree on the rest.  The model is also
compared operation by operation with the slab vector under hypothesis.
(The event kernel has no twin: its firing order is pinned by the golden
run in ``tests/test_simulator.py``.)
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_twins import (
    DictMemberVector,
    DictReceiveVector,
    DictStabilityVector,
    ReferencePaths,
)
from repro.core.vectors import INFINITY, ReceiveVector, SlabMemberVector, StabilityVector
from repro.scenarios import ScenarioEngine, churn_scenario, from_config, run_scenario

# ---------------------------------------------------------------------------
# Scenario-level equivalence: every reference arm, one seeded churn run
# ---------------------------------------------------------------------------

def _churn_config():
    return churn_scenario(
        n_processes=60,
        n_groups=6,
        group_size=8,
        crashes=2,
        leaves=2,
        formations=1,
        messages_per_sender=2,
        seed=11,
    )


def _fingerprint(result):
    """Everything observable about a run."""
    return {
        "events_processed": result.events_processed,
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "delivery_events": result.delivery_events,
        "sim_time": result.sim_time,
        "trace_events": result.trace_events,
        "agreement_sets": result.agreement_sets,
        "passed": result.passed,
        "violations": list(result.checks.violations),
        "metrics": result.metrics,
        "latency": (
            result.latency_reservoir.summary()
            if result.latency_reservoir is not None
            else None
        ),
    }


@pytest.fixture(scope="module")
def fast_run():
    """The churn run on the fast paths, once per module, with the number
    of settles it took."""
    with pytest.MonkeyPatch.context() as patch:
        paths = ReferencePaths(patch)
        paths.count_settles()
        result = run_scenario(_churn_config(), analysis="online")
    return result, paths.settles


@pytest.mark.parametrize(
    "arms",
    [
        ("dict_vectors",),
        ("per_message_receipts",),
        ("dict_vectors", "per_message_receipts"),
    ],
    ids=["dict-vectors", "per-message-receipts", "all-reference"],
)
def test_churn_run_identical_across_hot_path_toggles(fast_run, reference_paths, arms):
    fast, fast_settles = fast_run
    reference_paths.count_settles()
    for arm in arms:
        getattr(reference_paths, arm)()
    reference = run_scenario(_churn_config(), analysis="online")
    assert fast.passed and reference.passed
    assert _fingerprint(fast) == _fingerprint(reference)
    # Each arm ran: a patch that stopped applying would compare the fast
    # path with itself.  Either twin settles more often than the gate.
    assert reference_paths.settles > fast_settles
    if "dict_vectors" in arms:
        assert reference_paths.built["DictReceiveVector"] > 0
        assert reference_paths.built["DictStabilityVector"] > 0
    else:
        assert not reference_paths.built
    if "per_message_receipts" in arms:
        assert reference_paths.receipts_one_by_one > 0
    else:
        assert reference_paths.receipts_one_by_one == 0


def _delivery_logs(monkeypatch, per_message_receipts):
    """The seed-5 churn run, offline, on the batched or the per-message
    receipt path: its summary and every process's delivery log."""
    paths = ReferencePaths(monkeypatch)
    if per_message_receipts:
        paths.per_message_receipts()
    engine = ScenarioEngine(from_config(churn_scenario(n_processes=60, n_groups=6, seed=5)))
    result = engine.run()
    assert (paths.receipts_one_by_one > 0) == per_message_receipts
    logs = {
        name: [
            (r.group, r.sender, r.msg_id, r.clock, r.view_index, r.time)
            for r in engine.session[name].delivered
        ]
        for name in engine.session.stack.process_ids()
    }
    summary = {
        "deliveries": result.deliveries,
        "messages_sent": result.messages_sent,
        "sim_time": result.sim_time,
        "passed": result.passed,
        "violations": list(result.checks.violations),
        "latency": result.metrics["latency"],
    }
    return summary, logs


def test_per_message_receipts_keep_every_delivery_log_with_the_event_count_free():
    with pytest.MonkeyPatch.context() as patch:
        batched = _delivery_logs(patch, per_message_receipts=False)
    with pytest.MonkeyPatch.context() as patch:
        one_by_one = _delivery_logs(patch, per_message_receipts=True)
    # The simulator event count is left out: the module docstring says why
    # the two arms may differ in it.
    assert batched[0]["passed"] and batched[0]["deliveries"] == 284
    assert batched == one_by_one
    assert sum(map(len, batched[1].values())) == 284


# ---------------------------------------------------------------------------
# Slab vectors vs the dict model, under generated operation sequences
# ---------------------------------------------------------------------------

def _assert_vectors_agree(slab, reference):
    assert slab.as_dict() == reference.as_dict()
    assert slab.members() == reference.members()
    assert slab.minimum() == reference.minimum()
    assert slab.finite_minimum() == reference.finite_minimum()


_PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from(["update", "update", "update", "mark_infinite", "remove"]),
        st.integers(min_value=0, max_value=10**3),  # picks a member
        st.integers(min_value=-1, max_value=40),  # the value
    ),
    max_size=150,
)


@pytest.mark.parametrize("n_members", [1, 7, 23, 99])
@given(program=_PROGRAMS)
def test_slab_member_vector_matches_dict_reference(n_members, program):
    """Random update / mark_infinite / remove sequences leave the slab
    vector and the dict model equal, over views of 1 to 99 members plus two
    ids neither tracks.  ``minimum_in_doubt()`` is held to its promise
    after every operation: when it reads False, the minimum is the one
    read last time."""
    members = [f"P{index}" for index in range(n_members)]
    pool = members + ["N0", "N1"]
    slab = SlabMemberVector(members, initial=-1)
    reference = DictMemberVector(members, initial=-1)
    last_read = slab.minimum()
    for op, pick, value in program:
        member = pool[pick % len(pool)]
        if op == "update":
            if member in reference:
                assert slab.update(member, value) == reference.update(member, value)
            else:
                with pytest.raises(KeyError):
                    slab.update(member, value)
                with pytest.raises(KeyError):
                    reference.update(member, value)
        elif op == "mark_infinite":
            for vector in (slab, reference):
                vector.mark_infinite(member)
        elif len(reference) > 1:  # remove: a view always keeps its own member
            for vector in (slab, reference):
                vector.remove(member)
        if not slab.minimum_in_doubt():
            assert slab.minimum() == last_read
        last_read = slab.minimum()
        _assert_vectors_agree(slab, reference)


def test_all_infinite_minimum_matches_reference():
    slab = SlabMemberVector(["A", "B"])
    reference = DictMemberVector(["A", "B"])
    for vector in (slab, reference):
        vector.update("A", 4)
        vector.mark_infinite("A")
        vector.mark_infinite("B")
    assert slab.minimum() == reference.minimum() == INFINITY
    assert math.isinf(slab.minimum())
    # finite_minimum clamps to the last finite bound on both sides.
    assert slab.finite_minimum() == reference.finite_minimum()


@pytest.mark.parametrize(
    "fast_cls, reference_cls, record, bound",
    [
        (ReceiveVector, DictReceiveVector, "record_receipt", "deliverable_bound"),
        (StabilityVector, DictStabilityVector, "record_ldn", "stability_bound"),
    ],
)
def test_protocol_vectors_match_dict_reference(fast_cls, reference_cls, record, bound):
    rng = random.Random(5)
    members = [f"P{index}" for index in range(6)]
    fast = fast_cls(members)
    reference = reference_cls(members)
    for _ in range(300):
        member = rng.choice(members)
        clock = rng.randrange(0, 30)
        assert getattr(fast, record)(member, clock) == getattr(
            reference, record
        )(member, clock)
        assert getattr(fast, bound) == getattr(reference, bound)
    _assert_vectors_agree(fast, reference)


# ---------------------------------------------------------------------------
# Link-fault models at zero rates must never change a run
# ---------------------------------------------------------------------------

def test_churn_run_identical_with_zero_rate_link_faults_attached(fast_run):
    """A :class:`repro.net.faults.LinkFaultModel` draws every decision from
    its own RNG, so attaching one whose rates are all zero is byte-identical
    to no model at all -- the invariant that keeps fault-free fuzz corpora
    comparable with the rest of the suite."""
    config = _churn_config()
    config["link_faults"] = {"seed": 11}
    plain, _ = fast_run
    attached = run_scenario(config, analysis="online")
    assert plain.passed and attached.passed
    assert _fingerprint(plain) == _fingerprint(attached)


# ---------------------------------------------------------------------------
# Observation (repro.obs) must never change a run
# ---------------------------------------------------------------------------

def _observation_fingerprint(result):
    """The run fingerprint, minus ``events_processed``: the sampler
    schedules its own simulator events, which is exactly the one thing
    observation is *allowed* to add."""
    fingerprint = _fingerprint(result)
    fingerprint.pop("events_processed")
    return fingerprint


@pytest.mark.parametrize(
    "observe", ["metrics", "journeys", "full"], ids=["metrics", "journeys", "full"]
)
def test_churn_run_identical_with_observation_attached(fast_run, observe):
    plain, _ = fast_run
    observed = run_scenario(_churn_config(), analysis="online", observe=observe)
    assert plain.passed and observed.passed
    assert _observation_fingerprint(plain) == _observation_fingerprint(observed)
    assert plain.obs is None and observed.obs is not None
    # The trace counters agree with the totals the run itself reported.
    counters = observed.obs["metrics"]["counters"]
    assert counters["trace.deliver"] == observed.deliveries


def test_observation_leaves_trace_stream_byte_identical():
    """Stronger than the fingerprint: the full offline event stream --
    every (seq, time, kind, process, message, details) tuple -- must be
    identical with metrics + sampler + profiler + spans + journeys
    attached ("full" includes journey tracing, so this also pins the
    journey tracker as behaviour-free)."""
    from repro.api import Session
    from repro.core.messages import reset_message_counter

    def stream(observe):
        reset_message_counter()
        session = Session("newtop", seed=9, observe=observe)
        session.spawn([f"P{index}" for index in range(6)])
        session.group("g")
        for index in range(5):
            session.multicast(f"P{index % 3}", "g", f"m-{index}")
            session.run(0.7)
        session.crash("P5")
        session.run(30.0)
        session.result()
        return [
            (e.seq, e.time, e.kind, e.process, e.group, e.message_id,
             e.sender, e.clock, e.details)
            for e in session.trace().events()
        ]

    assert stream(None) == stream("full")
