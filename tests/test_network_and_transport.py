"""Unit tests for the network fabric, latency models, partitions and the
reliable FIFO transport."""

import random

import pytest

from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    JitteredLatency,
    LogNormalLatency,
    UniformLatency,
)
from dataclasses import asdict

from repro.net.faults import LinkFaultModel
from repro.net.network import Network, NetworkConfig
from repro.net.partitions import PartitionManager
from repro.net.simulator import Simulator
from repro.net.transport import Transport


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
def test_constant_latency():
    model = ConstantLatency(2.5)
    rng = random.Random(0)
    assert model.sample(rng, "a", "b") == 2.5


@pytest.mark.parametrize(
    "model",
    [
        UniformLatency(0.5, 1.5),
        ExponentialLatency(mean=1.0, floor=0.1),
        LogNormalLatency(median=1.0, sigma=0.4),
        JitteredLatency(base_low=0.5, base_high=2.0, jitter=0.3),
    ],
)
def test_latency_models_non_negative(model):
    rng = random.Random(3)
    samples = [model.sample(rng, "a", "b") for _ in range(200)]
    assert all(sample >= 0 for sample in samples)
    assert model.describe()


def test_uniform_latency_bounds():
    model = UniformLatency(1.0, 2.0)
    rng = random.Random(1)
    samples = [model.sample(rng, "a", "b") for _ in range(100)]
    assert all(1.0 <= sample <= 2.0 for sample in samples)


def test_uniform_latency_invalid_bounds():
    with pytest.raises(ValueError):
        UniformLatency(2.0, 1.0)


def test_jittered_latency_stable_base_per_pair():
    model = JitteredLatency(jitter=0.0)
    rng = random.Random(0)
    first = model.sample(rng, "a", "b")
    second = model.sample(rng, "a", "b")
    assert first == second
    assert model.sample(rng, "b", "a") != first or True  # may coincide, just no error


# ----------------------------------------------------------------------
# Partition manager
# ----------------------------------------------------------------------
def test_partition_manager_default_connected():
    manager = PartitionManager(["a", "b", "c"])
    assert manager.can_communicate("a", "b")
    assert not manager.partitioned


def test_partition_splits_components():
    manager = PartitionManager(["a", "b", "c", "d"])
    manager.partition([["a", "b"], ["c", "d"]])
    assert manager.can_communicate("a", "b")
    assert not manager.can_communicate("a", "c")
    assert manager.partitioned
    assert len(manager.components()) == 2


def test_partition_leftover_nodes_form_component():
    manager = PartitionManager(["a", "b", "c", "d"])
    manager.partition([["a"]])
    assert not manager.can_communicate("a", "b")
    assert manager.can_communicate("b", "c")


def test_partition_heal():
    manager = PartitionManager(["a", "b"])
    manager.partition([["a"], ["b"]])
    manager.heal()
    assert manager.can_communicate("a", "b")
    assert manager.history


def test_isolate_single_node():
    manager = PartitionManager(["a", "b", "c"])
    manager.partition([["b"]])
    assert not manager.can_communicate("a", "b")
    assert manager.can_communicate("a", "c")


def test_partition_rejects_duplicate_membership():
    manager = PartitionManager(["a", "b"])
    with pytest.raises(ValueError):
        manager.partition([["a"], ["a", "b"]])


def test_node_registered_after_the_install_joins_the_leftover_component():
    """The leftover index is fixed when the layout is installed, not looked
    up per query: a node the layout never heard of still lands in the
    layout's last component."""
    manager = PartitionManager(["a", "b", "c"])
    manager.partition([["a"]])  # b and c are the implicit leftover component
    manager.register("late")
    assert manager.can_communicate("late", "b") and manager.can_communicate("c", "late")
    assert not manager.can_communicate("late", "a")
    assert manager.describe() == "{a} | {b,c}"  # unchanged by the late arrival
    # Every known node listed: the last listed component takes late arrivals.
    manager.partition([["a"], ["b", "c", "late"]])
    manager.register("later")
    assert manager.can_communicate("later", "b")
    assert not manager.can_communicate("later", "a")
    manager.partition([["b"], ["a", "c", "late", "later"]])
    manager.register("latest")
    assert manager.can_communicate("latest", "a")
    assert not manager.can_communicate("latest", "b")
    manager.heal()
    assert manager.can_communicate("latest", "b")


def test_self_communication_always_possible():
    manager = PartitionManager(["a", "b"])
    manager.partition([["a"], ["b"]])
    assert manager.can_communicate("a", "a")


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def _make_network(latency=None):
    sim = Simulator(seed=1)
    config = NetworkConfig(latency_model=latency or ConstantLatency(1.0))
    return sim, Network(sim, config)


def test_network_delivers_messages():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: received.extend((src, payload) for src, payload, _ in batch))
    assert network.send("a", "b", "hello", size_bytes=10)
    sim.run()
    assert received == [("a", "hello")]
    assert network.stats.messages_delivered == 1
    assert network.stats.bytes_delivered == 10


def test_network_drops_to_crashed_node():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: received.extend(payload for _, payload, _ in batch))
    network.crash("b")
    assert not network.send("a", "b", "x")
    sim.run()
    assert received == []
    assert network.stats.messages_dropped_crash >= 1


def test_network_drops_from_crashed_sender():
    sim, network = _make_network()
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: None)
    network.crash("a")
    assert not network.send("a", "b", "x")


def test_network_partition_drops_at_send():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: received.extend(payload for _, payload, _ in batch))
    network.partitions.partition([["a"], ["b"]])
    assert not network.send("a", "b", "x")
    sim.run()
    assert received == []


def test_network_partition_drops_in_flight():
    sim, network = _make_network(ConstantLatency(5.0))
    received = []
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: received.extend(payload for _, payload, _ in batch))
    assert network.send("a", "b", "x")
    # Partition before the delivery time of the in-flight message.
    sim.schedule(1.0, network.partitions.partition, [["a"], ["b"]])
    sim.run()
    assert received == []
    assert network.stats.messages_dropped_partition == 1


def test_network_filter_drops_selected_messages():
    sim, network = _make_network()
    received = []
    network.attach("a", lambda batch: None)
    network.attach("b", lambda batch: received.extend(payload for _, payload, _ in batch))
    network.add_filter(lambda src, dst, payload: payload != "drop-me")
    network.send("a", "b", "keep")
    network.send("a", "b", "drop-me")
    sim.run()
    assert received == ["keep"]
    assert network.stats.messages_dropped_filter == 1


def test_network_multicast_counts_accepted():
    sim, network = _make_network()
    for node in ("a", "b", "c", "d"):
        network.attach(node, lambda batch: None)
    network.crash("d")
    accepted = network.multicast("a", ["b", "c", "d"], "x")
    assert accepted == 2


def test_network_duplicate_attach_rejected():
    _, network = _make_network()
    network.attach("a", lambda batch: None)
    with pytest.raises(ValueError):
        network.attach("a", lambda batch: None)


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def test_transport_fifo_on_each_channel_with_random_latency():
    sim = Simulator(seed=9)
    network = Network(sim, NetworkConfig(latency_model=UniformLatency(0.1, 5.0)))
    transport = Transport(network)
    sender = transport.endpoint("s")
    receiver = transport.endpoint("r")
    received = []
    receiver.register_handler("data", lambda run: received.extend(m.payload for m in run))
    for i in range(50):
        sender.send("r", i, channel="data")
    sim.run()
    assert received == list(range(50))


def test_transport_channels_are_independent_streams():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    sender = transport.endpoint("s")
    receiver = transport.endpoint("r")
    seen = {"a": [], "b": []}
    receiver.register_handler("a", lambda run: seen["a"].extend(m.payload for m in run))
    receiver.register_handler("b", lambda run: seen["b"].extend(m.payload for m in run))
    sender.send("r", 1, channel="a")
    sender.send("r", 2, channel="b")
    sim.run()
    assert seen == {"a": [1], "b": [2]}


def test_transport_crashed_endpoint_stops_sending_and_receiving():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    a = transport.endpoint("a")
    b = transport.endpoint("b")
    received = []
    b.register_handler("data", lambda run: received.extend(m.payload for m in run))
    a.send("b", "before")
    sim.run()
    b.crash()
    a.send("b", "after")
    sim.run()
    assert received == ["before"]
    assert not b.send("a", "from-crashed")


def test_transport_stats_track_channels():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig(latency_model=ConstantLatency(1.0)))
    transport = Transport(network)
    a = transport.endpoint("a")
    b = transport.endpoint("b")
    b.register_handler("data", lambda run: None)
    a.send("b", "x", channel="data", size_bytes=5)
    a.send("b", "y", channel="ctl", size_bytes=7)
    a.multicast(["a", "b"], "z", channel="data")
    sim.run()
    assert (a.stats.sent, b.stats.sent) == (4, 0)


def _one_instant(frames, crash_on=None):
    """``s`` sends ``(channel, payload)`` frames to ``r`` at time 0 and they
    land at one instant; returns every handler call as ``(channel,
    payloads)``.  A handler called with ``crash_on`` in its run crashes
    ``r``."""
    sim = Simulator(seed=2)
    network = Network(
        sim, NetworkConfig(latency_model=ConstantLatency(1.0), batch_window=0.25)
    )
    transport = Transport(network)
    sender, receiver = transport.endpoint("s"), transport.endpoint("r")
    calls = []

    def handler(run):
        payloads = [message.payload for message in run]
        calls.append((run[0].channel, payloads))
        if crash_on in payloads:
            receiver.crash()

    for channel in ("a", "b"):
        receiver.register_handler(channel, handler)
    for channel, payload in frames:
        sender.send("r", payload, channel=channel)
    sim.run()
    assert network.stats.delivery_events == 1
    return calls


def test_transport_hands_over_each_channel_run_in_arrival_order():
    frames = [("a", "a1"), ("b", "b1"), ("a", "a2")]
    assert _one_instant(frames) == [("a", ["a1"]), ("b", ["b1"]), ("a", ["a2"])]
    # The crash flag is read between runs.
    assert _one_instant(frames, crash_on="b1") == [("a", ["a1"]), ("b", ["b1"])]


def test_transport_hands_over_a_one_channel_instant_in_one_call():
    frames = [("a", "a1"), ("a", "a2"), ("a", "a3")]
    assert _one_instant(frames) == [("a", ["a1", "a2", "a3"])]


def test_transport_endpoint_reused_for_same_node():
    sim = Simulator(seed=2)
    network = Network(sim, NetworkConfig())
    transport = Transport(network)
    first = transport.endpoint("a")
    second = transport.endpoint("a")
    assert first is second
    assert transport.get("a") is first
    assert transport.get("missing") is None


# ----------------------------------------------------------------------
# One multicast is n sends
# ----------------------------------------------------------------------
NODES = ["n0", "n1", "n2", "n3", "n4", "n5"]
#: Not sorted: destinations are contacted in the caller's order.
FANOUT = ["n3", "n1", "n5", "n2", "n4"]


class _World:
    """A seeded six-node transport that remembers every delivery."""

    def __init__(self, **network_config):
        self.sim = Simulator(seed=17)
        network_config.setdefault("latency_model", UniformLatency(0.2, 3.0))
        self.network = Network(self.sim, NetworkConfig(**network_config))
        self.transport = Transport(self.network)
        self.endpoints = {name: self.transport.endpoint(name) for name in NODES}
        self.received = []
        for name, endpoint in self.endpoints.items():
            endpoint.register_handler(
                "data",
                lambda run, name=name: self.received.extend(
                    (self.sim.now, name, message.src, message.seqno, message.payload)
                    for message in run
                ),
            )
        self.accepted = []

    def fan_out(self, sender, payload, as_multicast):
        endpoint = self.endpoints[sender]
        dsts = [name for name in FANOUT if name != sender]
        if as_multicast:
            self.accepted.append(endpoint.multicast(dsts, payload, "data", 24, "test"))
        else:
            self.accepted.append(
                sum(endpoint.send(dst, payload, "data", 24, "test") for dst in dsts)
            )

    def facts(self):
        return {
            "accepted": self.accepted,
            "network": self.network.stats.snapshot(),
            "transport": {name: asdict(e.stats) for name, e in self.endpoints.items()},
            "rng": self.sim.rng.getstate(),
            "scheduled": sorted((time, sequence) for time, sequence, _ in self.sim._heap),
            "received": self.received,
        }


def _crash_receiver(world):
    world.endpoints["n2"].crash()


def _partition(world):
    world.network.partitions.partition([["n0", "n1", "n2"], ["n3", "n4"]])


def _partition_in_flight(world):
    world.sim.schedule(0.6, world.network.partitions.partition, [["n0", "n3"], ["n1"]])


def _crash_during_multicast(world):
    """n0's burst at 0.5 reaches only n3 and n5, then n0 stops (Example 1)."""
    network = world.network
    world.sim.schedule_at(
        0.5, network.add_filter, lambda src, dst, payload: src != "n0" or dst in ("n3", "n5")
    )
    world.sim.schedule_at(0.75, network.crash, "n0")


def _lost(kind):
    return lambda stats: stats["messages_dropped_" + kind] > 0


def _faulted(stats):
    return (
        stats["messages_dropped_fault"]
        and stats["messages_reordered"]
        and stats["messages_duplicated"]
    )


#: name -> (network config, disturbance, proof on the final network stats
#: that the disturbance bit).
_FAN_OUT_WORLDS = {
    "clean": (
        dict(),
        None,
        lambda stats: stats["messages_delivered"] == stats["messages_sent"],
    ),
    "crashed-receiver": (dict(), _crash_receiver, _lost("crash")),
    "partition": (dict(), _partition, _lost("partition")),
    "partition-in-flight": (dict(), _partition_in_flight, _lost("partition")),
    "crash-during-multicast": (dict(), _crash_during_multicast, _lost("filter")),
    "link-faults": (
        dict(link_faults=LinkFaultModel(drop=0.2, reorder=0.3, duplicate=0.3, seed=5)),
        None,
        _faulted,
    ),
    "batch-window": (
        dict(batch_window=0.25),
        None,
        lambda stats: stats["delivery_events"] < stats["messages_delivered"],
    ),
    "batch-window-link-faults": (
        dict(
            batch_window=0.25,
            link_faults=LinkFaultModel(drop=0.1, reorder=0.3, duplicate=0.3, seed=9),
        ),
        None,
        _faulted,
    ),
}


@pytest.mark.parametrize("name", sorted(_FAN_OUT_WORLDS))
def test_one_multicast_equals_n_sends_in_the_same_order(name):
    """Same accept counts, same stats, same sequence numbers, same RNG
    draws and the same ``(time, sequence)`` for every scheduled delivery:
    a run cannot tell a fan-out from its sends."""
    config, disturb, bit = _FAN_OUT_WORLDS[name]
    worlds = [_World(**config), _World(**config)]
    for world, as_multicast in zip(worlds, (True, False)):
        if disturb is not None:
            disturb(world)
        # Sends are simulator events, so that a fault scheduled for the same
        # instant (installed first) acts between two of them.
        for step, sender in enumerate(["n0", "n1", "n0", "n4", "n0", "n3"]):
            for payload in (f"m{step}", f"m{step}'"):  # a burst: FIFO clamp
                world.sim.schedule_at(
                    0.5 * (step + 1), world.fan_out, sender, payload, as_multicast
                )
        world.sim.run(until=3.0)
    one, many = (world.facts() for world in worlds)
    assert one == many
    assert one["scheduled"] and sum(one["accepted"])
    for world in worlds:
        world.sim.run()
    one, many = (world.facts() for world in worlds)
    assert one == many
    assert one["received"] and bit(one["network"]), one["network"]


def test_a_crashed_sender_accepts_nothing_and_counts_every_destination():
    sim = Simulator(seed=1)
    network = Network(sim, NetworkConfig())
    for node in NODES:
        network.attach(node, lambda batch: None)
    network.crash("n0")
    assert network.multicast("n0", FANOUT, "x", size_bytes=10) == 0
    assert not network.send("n0", "n1", "x", size_bytes=10)
    assert network.stats.messages_sent == len(FANOUT) + 1
    assert network.stats.bytes_sent == 10 * (len(FANOUT) + 1)
    assert network.stats.messages_dropped_crash == len(FANOUT) + 1
    assert sim.pending_events == 0
    # A crashed *endpoint* never reaches the network at all.
    transport = Transport(Network(Simulator(seed=1), NetworkConfig()))
    endpoint = transport.endpoint("n0")
    endpoint.crash()
    assert endpoint.multicast(FANOUT, "x") == 0 and not endpoint.send("n1", "x")
    assert endpoint.stats.sent == 0 and transport.network.stats.messages_sent == 0


def test_multicast_keeps_the_callers_order_and_an_empty_fan_out_costs_nothing():
    sim = Simulator(seed=3)
    network = Network(sim, NetworkConfig(latency_model=UniformLatency(0.1, 0.2)))
    transport = Transport(network)
    sender = transport.endpoint("n0")
    seen = []
    network.add_filter(lambda src, dst, payload: seen.append(dst) or True)
    assert sender.multicast(FANOUT, "x", "data") == len(FANOUT)
    assert seen == FANOUT
    assert sender.multicast((), "x", "data") == 0
    assert sender.stats.sent == len(FANOUT)
