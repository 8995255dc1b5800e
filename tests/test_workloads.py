"""Tier-1 tests for the open-loop workload subsystem (``repro.workloads``).

Determinism is the load-bearing property: a workload profile must issue
the identical traffic sequence for a given seed regardless of which
protocol stack consumes it, or per-stack comparisons measure the workload
instead of the protocol.  Every arrival process and selection policy is
pinned here, plus the client's offered/admitted/delivered accounting and
the scenario-spec integration.
"""

import itertools
import random

import pytest

from repro.api import COMPARISON_STACKS, Session
from repro.core.messages import reset_message_counter
from repro.net.trace import SEND, MetricsSink, TraceEvent
from repro.scenarios import InvalidScenarioSpec, from_config, run_scenario
from repro.workloads import (
    ARRIVAL_KINDS,
    OpenLoopClient,
    SELECTION_KINDS,
    available_profiles,
    get_profile,
)

FAST = dict(omega=1.5, suspicion_timeout=6.0, suspector_check_interval=0.5)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
def test_arrival_process_deterministic_per_seed(kind):
    process = ARRIVAL_KINDS[kind](rate=2.0)
    first = list(itertools.islice(process.gaps(random.Random(42)), 50))
    second = list(itertools.islice(process.gaps(random.Random(42)), 50))
    assert first == second
    assert all(gap > 0 for gap in first)
    assert process.mean_rate() == 2.0


@pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
def test_arrival_process_rate_roughly_holds(kind):
    process = ARRIVAL_KINDS[kind](rate=2.0)
    gaps = list(itertools.islice(process.gaps(random.Random(7)), 4000))
    observed = len(gaps) / sum(gaps)
    assert 1.5 < observed < 2.7, (kind, observed)


def test_bursty_arrivals_actually_burst():
    process = ARRIVAL_KINDS["bursty"](rate=1.0, burst_size=8, peak_factor=10.0)
    gaps = list(itertools.islice(process.gaps(random.Random(3)), 64))
    # Within a burst the gap is 1/(peak*rate); between bursts much larger.
    assert min(gaps) < 0.2 < max(gaps)


# ----------------------------------------------------------------------
# Selection policies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SELECTION_KINDS))
def test_selection_policy_deterministic_per_seed(kind):
    policy = SELECTION_KINDS[kind]()
    senders = ["S1", "S2", "S3", "S4"]
    groups = ["g1", "g2", "g3", "g4"]
    first = [policy.choose(random.Random(5), senders, groups) for _ in range(1)]
    rng_a, rng_b = random.Random(5), random.Random(5)
    seq_a = [policy.choose(rng_a, senders, groups) for _ in range(100)]
    seq_b = [policy.choose(rng_b, senders, groups) for _ in range(100)]
    assert seq_a == seq_b
    assert all(s in senders and g in groups for s, g in seq_a)


@pytest.mark.parametrize("kind", ["zipf", "hot_group"])
def test_skewed_policies_same_seed_same_draws(kind):
    # The KV workload draws *keys* through these policies; per-seed
    # reproducibility of the exact draw sequence is what makes two runs
    # of the same benchmark byte-identical.
    policy = SELECTION_KINDS[kind]()
    items = [f"k{i}" for i in range(32)]
    draws_a = [policy.choose(random.Random(77), items, ("-",)) for _ in range(1)]
    rng_a, rng_b = random.Random(77), random.Random(77)
    seq_a = [policy.choose(rng_a, items, ("-",))[0] for _ in range(500)]
    seq_b = [policy.choose(rng_b, items, ("-",))[0] for _ in range(500)]
    assert seq_a == seq_b
    assert draws_a[0][0] == seq_a[0]


@pytest.mark.parametrize(
    "bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
)
def test_zipf_exponent_out_of_range_rejected(bad):
    with pytest.raises(ValueError):
        SELECTION_KINDS["zipf"](exponent=bad)


@pytest.mark.parametrize("good", [0.5, 1.0, 1.2, 2.0])
def test_zipf_exponent_useful_range_accepted(good):
    policy = SELECTION_KINDS["zipf"](exponent=good)
    sender, _ = policy.choose(random.Random(1), ["a", "b"], ["g"])
    assert sender in ("a", "b")


def test_zipf_senders_skew_towards_list_head():
    policy = SELECTION_KINDS["zipf"](exponent=1.5)
    rng = random.Random(11)
    senders = [f"S{i}" for i in range(8)]
    counts = {}
    for _ in range(2000):
        sender, _ = policy.choose(rng, senders, ["g"])
        counts[sender] = counts.get(sender, 0) + 1
    assert counts["S0"] > counts.get("S3", 0) > counts.get("S7", 0)


def test_hot_groups_skew_towards_hot_fraction():
    policy = SELECTION_KINDS["hot_group"](hot_fraction=0.25, hot_share=0.8)
    rng = random.Random(13)
    groups = [f"g{i}" for i in range(8)]
    hot = 0
    for _ in range(2000):
        _, group = policy.choose(rng, ["S"], groups)
        hot += group in groups[:2]
    assert hot > 1200  # ~80% of 2000, far above the uniform 500


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def test_profile_registry_resolves_and_rejects():
    assert set(available_profiles()) >= {"uniform", "poisson", "bursty", "ramp",
                                         "zipf", "hot_group"}
    profile = get_profile("bursty", rate=3.0, burst_size=4)
    assert profile.offered_rate() == 3.0
    assert profile.describe()["arrivals"] == "bursty"
    with pytest.raises(ValueError):
        get_profile("nope")
    with pytest.raises(ValueError):
        get_profile("poisson", rate=1.0, burst_size=4)  # option of another kind


# ----------------------------------------------------------------------
# The open-loop client across stacks
# ----------------------------------------------------------------------
class _IssueLog(OpenLoopClient):
    """Logs every arrival's ``(time, sender, group, payload length)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = []

    def _payload(self, sender, group):
        payload = super()._payload(sender, group)
        self.issued.append((self._session.sim.now, sender, group, len(payload)))
        return payload


def _run_client(stack, profile_name, seed=21):
    session = Session(stack, config=FAST, analysis="online", seed=3)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g")
    client = session.attach_client(
        _IssueLog(
            get_profile(profile_name, rate=2.0),
            ["P1", "P2", "P3"],
            ["g"],
            seed=seed,
            duration=15.0,
        )
    )
    client.start()
    session.run(45)
    assert session.result().passed
    return client


@pytest.mark.parametrize("profile_name", ["poisson", "bursty", "zipf"])
def test_client_issues_identical_traffic_on_two_stacks(profile_name):
    """Same seed => identical (time, sender, group, size) sequence, even on
    protocol stacks with completely different delivery dynamics."""
    newtop = _run_client("newtop", profile_name)
    sequencer = _run_client("fixed_sequencer", profile_name)
    assert newtop.issued == sequencer.issued
    assert len(newtop.issued) > 10


def test_client_accounting_offered_admitted_delivered():
    client = _run_client("newtop", "poisson")
    counters = client.counters()
    assert counters["offered"] == counters["admitted"] + counters["blocked"]
    assert counters["offered"] >= counters["admitted"] >= counters["delivered_unique"]
    assert counters["delivered_unique"] > 0
    latency = client.latency_summary()
    assert latency["count"] == counters["delivered_events"]
    assert latency["min"] <= latency["p50"] <= latency["p99"] <= latency["max"]


def test_client_backpressure_records_blocked_sends():
    """A tight flow-control window under high offered load must show up as
    offered > admitted -- the backpressure-aware accounting."""
    session = Session(
        "newtop", config=dict(FAST, flow_control_window=1), analysis="online", seed=5
    )
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    client = session.attach_client(
        OpenLoopClient(get_profile("poisson", rate=20.0), ["P1"], ["g"],
                       seed=8, duration=10.0)
    )
    client.start()
    session.run(40)
    assert client.blocked > 0
    assert client.offered == client.admitted + client.blocked
    assert session.result().passed


def test_client_requires_bind_before_start():
    client = OpenLoopClient(get_profile("poisson"), ["P1"], ["g"])
    with pytest.raises(RuntimeError):
        client.start()


# ----------------------------------------------------------------------
# Delivery routing: one owner per delivery, however many clients
# ----------------------------------------------------------------------
def _two_clients(second_cls=OpenLoopClient, late=False, analysis="online"):
    """Two clients on overlapping groups; ``late`` attaches the second one
    six simulated seconds into the first one's traffic."""
    reset_message_counter()
    session = Session("newtop", config=FAST, analysis=analysis, seed=3)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g1", ["P1", "P2", "P3"])
    session.group("g2", ["P2", "P3", "P4"])
    first = session.attach_client(
        OpenLoopClient(get_profile("poisson", rate=2.0), ["P1", "P2"], ["g1"],
                       seed=21, duration=12.0, name="first")
    )
    first.start()
    if late:
        session.run(6.0)
    second = session.attach_client(
        second_cls(get_profile("poisson", rate=2.0), ["P3", "P4"], ["g2"],
                   seed=22, start=6.0 if late else 1.0, duration=12.0, name="second")
    )
    second.start()
    session.run(54.0 if late else 60.0)
    return session.result(), first, second


@pytest.mark.parametrize("analysis", ["online", "offline"])
def test_each_client_sees_only_its_own_deliveries(analysis):
    """The counts are the ones every client filtering every delivery
    gave (pinned from the parent commit), now with one call each."""
    calls = []

    class Counting(OpenLoopClient):
        def on_delivery(self, message_id, latency):
            calls.append(self.name)
            super().on_delivery(message_id, latency)

    result, first, second = _two_clients(second_cls=Counting, analysis=analysis)
    assert result.passed
    assert (first.delivered_events, first.latency.count) == (84, 84)
    assert (second.delivered_events, second.latency.count) == (63, 63)
    assert first.latency.mean == pytest.approx(1.687887, abs=1e-6)
    assert second.latency.mean == pytest.approx(2.233409, abs=1e-6)
    assert first.delivered_unique == first.admitted == 28
    assert second.delivered_unique == second.admitted == 21
    # Every delivery of the run went to exactly one client, once.
    assert first.delivered_events + second.delivered_events == result.deliveries
    assert calls == ["second"] * 63
    assert result.trace_events_stored == (0 if analysis == "online" else result.trace_events)


def test_client_attached_after_traffic_started():
    result, first, second = _two_clients(late=True)
    assert result.passed
    assert (first.delivered_events, first.latency.count) == (84, 84)
    assert (second.delivered_events, second.latency.count) == (63, 63)
    # 2.065173 and 2.597126 before a null was owed only for work no message
    # on the wire already did: fewer nulls, and every later latency draw
    # re-rolled with them (counts unchanged).
    assert first.latency.mean == pytest.approx(1.852477, abs=1e-6)
    assert second.latency.mean == pytest.approx(2.477064, abs=1e-6)


def test_raising_client_fails_the_run_loudly():
    """A client's delivery accounting runs inside the metrics sink, so an
    exception from it detaches the sink as any raising sink is detached:
    the protocol checks still hold, but the run does not pass."""

    class Exploding(OpenLoopClient):
        def on_delivery(self, message_id, latency):
            if self.delivered_events == 5:
                raise RuntimeError("client exploded")
            super().on_delivery(message_id, latency)

    result, first, second = _two_clients(second_cls=Exploding)
    assert second.delivered_events == 5 and second.admitted == 21
    assert result.checks.passed and not result.passed
    assert [error["sink"] for error in result.sink_errors] == ["MetricsSink"]
    assert result.sink_errors[0]["error"] == "RuntimeError: client exploded"


def test_raising_over_a_held_call_raises_out_of_the_run():
    """The sequencer's own copy is credited when the call returns, outside
    the recorder, so a client raising on it stops the run."""

    class Exploding(OpenLoopClient):
        def on_delivery(self, message_id, latency):
            raise RuntimeError("client exploded")

    with pytest.raises(RuntimeError, match="client exploded"):
        _client_only_run("fixed_sequencer", Exploding, senders=("P1",))


# ----------------------------------------------------------------------
# One pairing of deliveries with sends: the session's metrics sink
# ----------------------------------------------------------------------
def _client_only_run(stack, client_cls=OpenLoopClient, config=FAST, rate=5.0,
                     senders=("P1", "P2", "P3", "P4"), analysis="online"):
    """Four processes in one group, every multicast the client's; returns
    the session, the client and the ids its multicasts returned."""
    reset_message_counter()
    session = Session(stack, config=config, analysis=analysis, seed=3)
    session.spawn(["P1", "P2", "P3", "P4"])
    session.group("g")
    returned = []
    send = session.multicast

    def multicast(sender, group, payload):
        message_id = send(sender, group, payload)
        returned.append(message_id)
        return message_id

    session.multicast = multicast
    client = session.attach_client(
        client_cls(get_profile("poisson", rate=rate), list(senders), ["g"],
                   seed=3, duration=8.0)
    )
    client.start()
    session.run(40)
    return session, client, returned


@pytest.mark.parametrize("stack", COMPARISON_STACKS)
def test_client_counts_every_delivery_the_sink_counts(stack):
    """A delivery recorded inside the multicast call that sent it -- an
    asymmetric sequencer's own copy, a baseline's synchronous
    self-delivery -- is the client's too: the client and the sink pair
    the same deliveries with the same sends."""
    session, client, _ = _client_only_run(stack)
    result = session.result()
    assert result.passed
    sink_count = result.metrics["latency"]["count"]
    assert client.delivered_events == client.latency.count == sink_count
    assert sink_count == client.admitted * 4 > 0
    assert client.latency.mean == pytest.approx(result.metrics["latency"]["mean"], abs=1e-9)
    assert client.delivered_unique == client.admitted


class _Crediting(OpenLoopClient):
    """Keeps the ids of the deliveries it is credited with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.credited = set()

    def on_delivery(self, message_id, latency):
        self.credited.add(message_id)
        super().on_delivery(message_id, latency)


def test_deferred_sends_are_credited_to_no_client():
    """With a window of one, most sends are deferred (the call returns no
    id) and go out later under ids no call returned: the sink times their
    deliveries, no client is credited with them."""
    session, client, returned = _client_only_run(
        "newtop", _Crediting, config=dict(FAST, flow_control_window=1), rate=20.0,
        senders=("P1", "P2"), analysis="offline",
    )
    result = session.result()
    assert result.passed
    assert client.offered == client.admitted + client.blocked
    assert client.blocked > 0
    assert client.delivered_unique <= client.admitted
    admitted = {message_id for message_id in returned if message_id is not None}
    sent = {event.message_id for event in session.trace().events(kind="send")}
    deferred = sent - admitted
    assert deferred and client.credited == admitted
    assert result.metrics["latency"]["count"] > client.delivered_events


def test_a_call_is_credited_only_with_the_id_it_returned():
    """Inside a client's call the sink holds every sample; once the call
    returns, the returned id's go to the caller, an owned id's to its
    owner, in record order, and a deferred send's flushed inside the call
    to nobody."""
    sink = MetricsSink()
    caller = _Crediting(get_profile("poisson"), ["P1"], ["g"], name="caller")
    owner = _Crediting(get_profile("poisson"), ["P2"], ["g"], name="owner")

    def event(time, kind, process, message_id):
        return TraceEvent(time, kind, process, "g", message_id, message_id[:2])

    def deliver(time, process, message_id):
        sink.on_deliveries(time, process, [("g", message_id, message_id[:2], None, None)], 0)

    sink.hold()
    sink.on_event(event(1.0, SEND, "P2", "P2#1"))
    sink.claim("P2#1", owner)
    deliver(2.0, "P3", "P2#1")
    sink.hold()
    deliver(3.0, "P1", "P2#1")  # an owned id, inside the call
    sink.on_event(event(3.0, SEND, "P1", "P1#7"))  # a deferred send flushed here
    deliver(3.0, "P1", "P1#7")
    deliver(3.0, "P1", "P1#8")  # the caller's own copy, before its send
    sink.on_event(event(3.0, SEND, "P1", "P1#8"))
    assert owner.delivered_events == 1 and caller.delivered_events == 0
    sink.claim("P1#8", caller)
    deliver(4.5, "P4", "P1#8")
    assert (owner.credited, owner.delivered_events) == ({"P2#1"}, 2)
    assert owner.latency.samples == [1.0, 2.0]
    assert (caller.credited, caller.delivered_events) == ({"P1#8"}, 2)
    assert caller.latency.samples == [0.0, 1.5]
    assert sink.latency.count == 5
    sink.hold()
    sink.claim(None, caller)  # a refused send is credited with nothing
    assert caller.delivered_events == 2


# ----------------------------------------------------------------------
# Scenario-spec integration
# ----------------------------------------------------------------------
def test_scenario_workload_profile_runs_open_loop():
    config = {
        "name": "open-loop smoke",
        "seed": 4,
        "processes": 6,
        "groups": [{"id": "g0", "members": [f"P{i:03d}" for i in range(1, 7)]}],
        "workload": {"profile": "poisson", "rate": 1.5, "duration": 12.0,
                     "senders_per_group": 3},
        "events": [{"time": 5.0, "kind": "crash", "targets": ["P006"]}],
        "drain": 30.0,
    }
    result = run_scenario(config, analysis="online")
    assert result.passed, result.checks.violations
    assert result.workload is not None
    assert result.workload["profile"] == "poisson"
    assert (
        result.workload["offered"]
        >= result.workload["admitted"]
        >= result.workload["delivered_unique"]
        > 0
    )


def test_scenario_workload_profile_validation():
    base = {
        "groups": [{"id": "g", "members": ["A", "B"]}],
    }
    with pytest.raises(InvalidScenarioSpec):
        from_config({**base, "workload": {"profile": "not-a-profile"}})
    with pytest.raises(InvalidScenarioSpec):
        from_config({**base, "workload": {"profile": "poisson", "rate": 0}})
    # A negative sender count would silently slice members[:-k].
    with pytest.raises(InvalidScenarioSpec, match="senders_per_group"):
        from_config({**base, "workload": {"senders_per_group": -2}})
    with pytest.raises(InvalidScenarioSpec, match="senders_per_group"):
        from_config({**base, "workload": {"profile": "poisson", "senders_per_group": -2}})
    spec = from_config({**base, "workload": {"profile": "poisson", "duration": 25.0}})
    # The horizon must cover the open-loop window, not the closed-loop rounds.
    assert spec.horizon() >= 25.0


def test_scenario_closed_loop_unchanged_without_profile():
    spec = from_config({"groups": [{"id": "g", "members": ["A", "B"]}]})
    assert spec.workload.profile is None
    result = run_scenario(
        {"groups": [{"id": "g", "members": ["A", "B"]}], "drain": 20.0}
    )
    assert result.passed
    assert result.workload is None
