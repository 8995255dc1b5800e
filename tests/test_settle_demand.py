"""The no-op oracle for settle-on-demand, and one hand-built case per clause.

``NewtopProcess._on_transport_batch`` ends with ``settle()`` unless every
receipt in the batch was *inert* (``settle``'s docstring states the rule).
The rule is only sound if the settle it skips would have found nothing, so
the oracle here runs that settle anyway: whenever a batch ends without
one it snapshots everything a settle can change, calls ``settle()`` and
requires the snapshot to be unchanged -- over whole seeded runs that
exercise churn, generated faults, deferred sends, a formation and the KV.

The hand-built cases go the other way: each breaks exactly one clause of
the rule on an otherwise inert receipt and asserts that the batch *does*
settle, so dropping a clause fails a test here even if no corpus happens to
depend on it.
"""

import pytest

from reference_twins import DictReceiveVector
from test_hot_path_equivalence import _churn_config
from test_kv import LAYOUT, make_store, put

from repro.api import Session
from repro.apps.kv import Rebalancer
from repro.core import NewtopConfig, OrderingMode
from repro.core.endpoint import PendingViewChange
from repro.core.messages import KIND_VIEW_CUT, Beacon, DataMessage, Suspicion
from repro.core.process import NewtopProcess
from repro.net.transport import TransportMessage
from repro.scenarios import run_scenario
from repro.scenarios.fuzz import run_fuzz_unit


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------
def _timer_time(timer):
    return None if timer is None else timer.time


def _snapshot(process):
    """Everything a ``settle()`` can change, at the process and around it."""
    endpoints = tuple(
        (
            group,
            endpoint.time_silence.idle_armed,
            _timer_time(endpoint.time_silence._timer),
            endpoint.suspector.dozing,
            endpoint.suspector._pulled,
            _timer_time(endpoint.suspector._timer),
            len(endpoint.deferred_sends),
            len(endpoint.pending_view_changes),
            endpoint.view.index,
        )
        for group, endpoint in process._endpoints.items()
    )
    return (
        len(process.delivered),
        process.recorder.events_recorded,
        process.sim._next_sequence,
        process.delivery_queue.pending_count(),
        process.transport_endpoint.stats.sent,
        endpoints,
    )


class _Oracle:
    def __init__(self):
        self.batches = 0
        #: Batches the rule let go without a settle.
        self.let_go = 0
        #: (process, before, after) of every probe that found something.
        self.differences = []


@pytest.fixture
def oracle(monkeypatch):
    """Probe every batch that ends without a settle.  Installed on the
    class before any process exists: a process binds its batch handler at
    construction."""
    state = _Oracle()
    settle = NewtopProcess.settle
    on_batch = NewtopProcess._on_transport_batch
    settles = [0]

    def counted_settle(self):
        settles[0] += 1
        settle(self)

    def probed_batch(self, messages):
        before_batch = settles[0]
        on_batch(self, messages)
        state.batches += 1
        if settles[0] != before_batch or self.crashed:
            return
        state.let_go += 1
        before = _snapshot(self)
        settle(self)
        after = _snapshot(self)
        if after != before:
            state.differences.append((self.process_id, before, after))

    monkeypatch.setattr(NewtopProcess, "settle", counted_settle)
    monkeypatch.setattr(NewtopProcess, "_on_transport_batch", probed_batch)
    return state


def _assert_nothing_found(oracle, at_least):
    assert not oracle.differences, oracle.differences[:3]
    # The corpus must actually reach the rule, or it proves nothing.
    assert oracle.let_go >= at_least, (oracle.let_go, oracle.batches)


def test_oracle_finds_nothing_over_a_churn_run(oracle):
    result = run_scenario(_churn_config(), analysis="online")
    assert result.passed
    _assert_nothing_found(oracle, at_least=1000)


@pytest.mark.parametrize("corpus_seed", [1, 7])
def test_oracle_finds_nothing_over_generated_fault_specs(oracle, corpus_seed):
    """Default tuning: asymmetric groups, drop windows, partitions,
    open-loop load.  A spec's own verdict is the fuzzer's business."""
    for index in range(60):
        run_fuzz_unit(corpus_seed, index)
    _assert_nothing_found(oracle, at_least=4000)


def test_oracle_finds_nothing_with_deferred_sends_and_a_formation(oracle):
    """Two overlapping busy groups under a flow-control window of one (so
    sends are deferred most of the time) and a §5.3 formation on top."""
    config = NewtopConfig(omega=1.0, suspicion_timeout=6.0, flow_control_window=1)
    names = ["P1", "P2", "P3", "P4", "P5"]
    session = Session("newtop", config=config, seed=4)
    session.spawn(names)
    session.group("g1", ["P1", "P2", "P3"])
    session.group("g2", ["P3", "P4", "P5"])
    session.run(3.0)
    handle = None
    for index in range(90):
        session[("P1", "P2", "P3")[index % 3]].multicast("g1", f"a{index}")
        session[("P3", "P4", "P5")[index % 3]].multicast("g2", f"b{index}")
        if index == 30:
            handle = session["P2"].form_group("g3", ["P2", "P3", "P4"])
        if index > 60:
            session["P2"].multicast("g3", f"c{index}")
        session.run(0.3)
    session.run(150.0)  # a window of one drains at one message per round
    assert handle is not None and handle.formed
    assert session.trace().events(kind="blocked_send")
    for name in ("P2", "P3", "P4"):
        assert len(session[name].delivered_payloads("g3")) == 29
    for name in ("P1", "P2", "P3"):
        assert len(session[name].delivered_payloads("g1")) == 90
    _assert_nothing_found(oracle, at_least=150)


def test_oracle_finds_nothing_over_a_kv_failover_and_split(oracle):
    session, store, kv_oracle = make_store(
        mode=OrderingMode.SYMMETRIC, seed=5, spares=("x0", "x1")
    )
    keys = [f"user{i}" for i in range(16)]
    for index, key in enumerate(keys):
        assert put(session, store, "c1", index, key, f"v-{key}")["status"] == "applied"
    source = store.ring.lookup(keys[0])
    other = next(shard for shard in LAYOUT if shard != source)
    session.crash(min(LAYOUT[other]))
    coordinator = store.alive_members(source)[0]
    report = Rebalancer(store).split_shard(source, "sN", [coordinator, "x0", "x1"])
    assert session.run_until(lambda: report.complete or report.failed, timeout=200)
    assert report.complete, report.describe()
    session.run(20.0)
    for index, key in enumerate(keys):
        assert put(session, store, "c1", 100 + index, key, "later")["status"] == "applied"
    session.run(20.0)
    assert session.result().passed
    assert kv_oracle.passed, kv_oracle.summary()
    _assert_nothing_found(oracle, at_least=100)


# ---------------------------------------------------------------------------
# Hand-built cases: one clause each
# ---------------------------------------------------------------------------
TOP = 10**6


def _idle_trio(mode=None):
    """P1 idle in ``g1`` with a hand-built ``RV``: its own entry and P3's
    far ahead, P2's the one entry standing at the minimum.  In an
    asymmetric group, P2 idle: a member the sequencer (P1) relays."""
    config = NewtopConfig(omega=1.0, suspicion_timeout=6.0)
    session = Session("newtop", config=config, seed=1)
    session.spawn(["P1", "P2", "P3"])
    session.group("g1", mode=mode)
    session.run(20.0)
    process = session["P2" if mode is OrderingMode.ASYMMETRIC else "P1"]
    endpoint = process.endpoint("g1")
    if mode is not OrderingMode.ASYMMETRIC:
        vector = endpoint.engine.receive_vector
        vector.update("P1", TOP)
        vector.update("P3", TOP - 1)
        assert vector["P2"] < TOP - 1
        process.settle()
        # An atomic-only group reads ``min(RV)`` only when it sends (``ldn``).
        assert vector.minimum() == vector["P2"] and not vector.minimum_in_doubt()
        assert not endpoint.owes_group()
    assert not endpoint.gv.busy() and not process.awaits_delivery()
    return session, process, endpoint


def _feed(oracle, process, src, payload):
    """Hand ``payload`` to ``process`` as a transport batch of one; returns
    whether the batch ended with a settle."""
    let_go = oracle.let_go
    envelope = TransportMessage(
        src, process.process_id, "newtop", payload, 1, 0, process.sim.now
    )
    process._on_transport_batch([envelope])
    return oracle.let_go == let_go


def _null(sender, clock, **fields):
    return DataMessage.null(sender, "g1", clock, 0, **fields)


def _app(sender, clock):
    return DataMessage.application(sender, "g1", clock, 0, f"payload-{clock}")


def test_inert_receipts_end_a_batch_without_a_settle(oracle):
    """The controls: each hand-built case below differs from one of these
    in exactly one clause."""
    _, process, _ = _idle_trio()
    assert not _feed(oracle, process, "P2", Beacon(origin="P2", groups=("g1",)))
    assert not _feed(oracle, process, "P3", _null("P3", TOP + 1))
    assert _feed(oracle, process, "P3", _app("P3", TOP + 2))  # first in the queue
    assert process.awaits_delivery()
    assert not _feed(oracle, process, "P3", _app("P3", TOP + 3))
    assert not _feed(oracle, process, "P3", _null("P3", TOP + 4))
    assert process.delivery_queue.pending_count() == 2
    assert not oracle.differences


def test_a_flagged_null_settles(oracle):
    _, process, endpoint = _idle_trio()
    assert endpoint.time_silence.idle_armed
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1, awaits_reply=True))
    # ... and the settle was needed: the heartbeat was pulled in to ω.
    assert endpoint.owes_group() and not endpoint.time_silence.idle_armed


def test_an_application_message_into_an_empty_queue_settles(oracle):
    _, process, endpoint = _idle_trio()
    assert endpoint.suspector.dozing and not endpoint.suspector._pulled
    assert _feed(oracle, process, "P3", _app("P3", TOP + 1))
    assert process.awaits_delivery() and endpoint.suspector._pulled


@pytest.mark.parametrize("queued", [True, False], ids=["queued", "nothing-queued"])
def test_the_receipt_that_raises_the_last_minimal_entry_settles(oracle, queued):
    _, process, endpoint = _idle_trio()
    if queued:
        assert _feed(oracle, process, "P3", _app("P3", TOP - 1))
    before = endpoint.deliverable_bound()
    assert _feed(oracle, process, "P2", _null("P2", TOP + 5))
    assert endpoint.deliverable_bound() == TOP - 1 > before
    if queued:
        # ... and the settle was needed: it delivered what the bound reached.
        assert process.delivered_payloads("g1")[-1] == f"payload-{TOP - 1}"


def test_an_application_message_at_or_below_the_last_bound_settles(oracle):
    _, process, endpoint = _idle_trio()
    assert _feed(oracle, process, "P3", _app("P3", TOP + 1))
    stale = int(process.last_pass_bound)
    assert 0 < stale == endpoint.deliverable_bound()
    assert _feed(oracle, process, "P3", _app("P3", stale))
    # ... and the settle was needed: the message was deliverable on arrival.
    assert process.delivered_payloads("g1") == [f"payload-{stale}"]


def test_a_null_while_a_suspicion_is_held_settles(oracle):
    _, process, endpoint = _idle_trio()
    endpoint.gv.on_suspector_notification(Suspicion("P2", 0))
    process.settle()
    assert endpoint.gv.busy()
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1))


_WORK_IN_HAND = {
    "view_change_pending": lambda endpoint: endpoint.pending_view_changes.append(
        PendingViewChange(removed=frozenset({"P9"}), threshold=10 * TOP)
    ),
    # A sequencer group's cut state: the marker for P3 ahead of our
    # detection, and the other way round.
    "cut_marker_held": lambda endpoint: endpoint.engine.on_view_cut(
        DataMessage.sequenced(
            "P1", "g1", 10 * TOP, 0, ("P3",), KIND_VIEW_CUT,
            sequencer="P1", origin_request=None,
        )
    ),
    "detection_awaiting_cut": lambda endpoint: endpoint.engine.view_change_threshold(
        frozenset({Suspicion("P3", 1)}), frozenset({"P3"}), 1
    ),
    "send_deferred": lambda endpoint: endpoint.deferred_sends.append("payload"),
}


@pytest.mark.parametrize("work", sorted(_WORK_IN_HAND))
def test_a_beacon_or_a_null_while_work_is_in_hand_settles(oracle, work):
    relayed = work in ("cut_marker_held", "detection_awaiting_cut")
    _, process, endpoint = _idle_trio(OrderingMode.ASYMMETRIC if relayed else None)
    peer = "P3" if relayed else "P2"
    _WORK_IN_HAND[work](endpoint)
    assert _feed(oracle, process, peer, Beacon(origin=peer, groups=("g1",)))
    _WORK_IN_HAND[work](endpoint)  # the settle may have finished it
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1))


def test_a_null_during_a_formation_wait_settles(oracle):
    config = NewtopConfig(omega=1.0, suspicion_timeout=6.0)
    session = Session("newtop", config=config, seed=1)
    session.spawn(["P1", "P2", "P3"])
    process = session["P1"]
    process.activate_formed_group("g1", ("P1", "P2", "P3"), OrderingMode.SYMMETRIC)
    assert process.endpoint("g1").in_formation_wait
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1))


@pytest.mark.parametrize("kind", ["start_group", "sequenced", "excluded-sender"])
def test_other_group_messages_settle(oracle, kind):
    _, process, endpoint = _idle_trio()
    if kind == "start_group":
        message = DataMessage.start_group("P3", "g1", TOP + 1, 0)
    elif kind == "sequenced":
        message = DataMessage.sequenced(
            "P3", "g1", TOP + 1, 0, None, "null", sequencer="P3", origin_request=None
        )
    else:
        message = _null("P9", TOP + 1)
    assert _feed(oracle, process, "P3", message)


@pytest.mark.parametrize("mode", [OrderingMode.ASYMMETRIC, OrderingMode.ATOMIC_ONLY])
def test_a_null_in_a_group_that_is_not_symmetric_settles(oracle, mode):
    _, process, _ = _idle_trio(mode=mode)
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1))


def test_the_dict_reference_vector_never_promises(oracle, reference_paths):
    """The dict model (:mod:`reference_twins`) cannot tell whether the
    minimum moved, so no group message is inert (a beacon still is)."""
    reference_paths.dict_vectors()
    config = NewtopConfig(omega=1.0, suspicion_timeout=6.0)
    session = Session("newtop", config=config, seed=1)
    session.spawn(["P1", "P2", "P3"])
    session.group("g1")
    session.run(20.0)
    process = session["P1"]
    assert isinstance(process.endpoint("g1").engine.receive_vector, DictReceiveVector)
    assert _feed(oracle, process, "P3", _null("P3", TOP + 1))
    assert not _feed(oracle, process, "P2", Beacon(origin="P2", groups=("g1",)))
