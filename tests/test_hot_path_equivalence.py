"""Equivalence pins for the hot-path refactor (slab state / batching).

The 10k-scale hot path replaced two reference implementations that are
still kept behind toggles:

* per-member dict vector-clock state with slab-backed arrays
  (``NewtopConfig.use_slab_state``), and
* per-message receipt processing with per-instant delivery batches
  (``NewtopConfig.batch_receipts``).

Both must be *behaviour-preserving*: for a seeded churn run, every toggle
combination has to produce byte-identical results -- same event count,
same deliveries, same messages, same verdicts, same metrics.  (The event
kernel has no twin: its firing order is pinned by the golden run in
``tests/test_simulator.py``.)
"""

import math
import random

import pytest

from repro.core.vectors import (
    INFINITY,
    DictMemberVector,
    DictReceiveVector,
    DictStabilityVector,
    ReceiveVector,
    SlabMemberVector,
    StabilityVector,
)
from repro.scenarios import churn_scenario, run_scenario

# ---------------------------------------------------------------------------
# Scenario-level equivalence: every toggle combination, one seeded churn run
# ---------------------------------------------------------------------------

def _churn_config(**protocol):
    config = churn_scenario(
        n_processes=60,
        n_groups=6,
        group_size=8,
        crashes=2,
        leaves=2,
        formations=1,
        messages_per_sender=2,
        seed=11,
    )
    config["protocol"] = dict(config.get("protocol") or {}, **protocol)
    return config


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


@pytest.mark.parametrize(
    "protocol",
    [
        dict(use_slab_state=False),
        dict(batch_receipts=False),
        dict(use_slab_state=False, batch_receipts=False),
    ],
    ids=["dict-vectors", "per-message-receipts", "all-reference"],
)
def test_churn_run_identical_across_hot_path_toggles(protocol):
    fast = run_scenario(_churn_config(), analysis="online")
    reference = run_scenario(_churn_config(**protocol), analysis="online")
    assert fast.passed and reference.passed
    assert _fingerprint(fast) == _fingerprint(reference)


# ---------------------------------------------------------------------------
# Slab vectors vs the dict reference, under randomized operation sequences
# ---------------------------------------------------------------------------

def _assert_vectors_agree(slab, reference):
    assert slab.as_dict() == reference.as_dict()
    assert slab.members() == reference.members()
    assert slab.minimum() == reference.minimum()
    assert slab.finite_minimum() == reference.finite_minimum()


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
def test_slab_member_vector_matches_dict_reference(seed):
    rng = random.Random(seed)
    members = [f"P{index}" for index in range(8)]
    slab = SlabMemberVector(members, initial=-1)
    reference = DictMemberVector(members, initial=-1)
    active = set(members)
    removed = set()
    for _ in range(600):
        op = rng.random()
        if op < 0.70 and active:
            member = rng.choice(sorted(active))
            value = rng.randrange(-1, 40)
            assert slab.update(member, value) == reference.update(member, value)
        elif op < 0.80 and active:
            member = rng.choice(sorted(active))
            slab.mark_infinite(member)
            reference.mark_infinite(member)
        elif op < 0.90 and len(active) > 1:
            member = rng.choice(sorted(active))
            slab.remove(member)
            reference.remove(member)
            active.discard(member)
            removed.add(member)
        elif removed:
            member = rng.choice(sorted(removed))
            slab.add_member(member, initial=rng.randrange(0, 5))
            reference.add_member(member, initial=slab[member])
            removed.discard(member)
            active.add(member)
        _assert_vectors_agree(slab, reference)
    # Untracked members raise on both implementations.
    with pytest.raises(KeyError):
        slab.update("stranger", 3)
    with pytest.raises(KeyError):
        reference.update("stranger", 3)


def test_slab_add_member_reactivates_with_dict_semantics():
    members = ["A", "B", "C"]
    slab = SlabMemberVector(members)
    reference = DictMemberVector(members)
    for vector in (slab, reference):
        vector.update("A", 5)
        vector.remove("B")
        vector.add_member("B", initial=2)
        vector.add_member("D", initial=7)
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

def test_churn_run_identical_with_zero_rate_link_faults_attached():
    """A :class:`repro.net.faults.LinkFaultModel` draws every decision from
    its own RNG, so attaching one whose rates are all zero is byte-identical
    to no model at all -- the invariant that keeps fault-free fuzz corpora
    comparable with the rest of the suite."""
    config = _churn_config()
    config["link_faults"] = {"seed": 11}
    plain = run_scenario(_churn_config(), analysis="online")
    attached = run_scenario(config, analysis="online")
    assert plain.passed and attached.passed
    assert _fingerprint(plain) == _fingerprint(attached)


# ---------------------------------------------------------------------------
# Observation (repro.obs) must never change a run
# ---------------------------------------------------------------------------

def _observation_fingerprint(result):
    """The toggle fingerprint, minus ``events_processed``: the sampler
    schedules its own simulator events, which is exactly the one thing
    observation is *allowed* to add."""
    fingerprint = _fingerprint(result)
    fingerprint.pop("events_processed")
    return fingerprint


@pytest.mark.parametrize(
    "observe", ["metrics", "journeys", "full"], ids=["metrics", "journeys", "full"]
)
def test_churn_run_identical_with_observation_attached(observe):
    plain = run_scenario(_churn_config(), analysis="online")
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
