"""Simulated asynchronous network substrate for the Newtop reproduction.

The paper assumes an asynchronous communication environment (no bound on
message transmission times), a message transport layer providing
uncorrupted, sequenced (FIFO) transmission between connected, functioning
processes, crash-stop process failures and (real or virtual) network
partitions.  This package provides exactly that environment as a
deterministic, seedable discrete-event simulation:

* :mod:`repro.net.simulator` -- the discrete-event kernel (clock, event
  queue, timers, seeded randomness).
* :mod:`repro.net.latency` -- latency models used to sample per-message
  transmission delays.
* :mod:`repro.net.partitions` -- the partition model (which pairs of nodes
  can currently communicate).
* :mod:`repro.net.network` -- the network fabric gluing latency, partitions
  and crashed-node tracking together, with message filters and timed
  drop windows (:meth:`~repro.net.network.Network.drop_between`).
* :mod:`repro.net.transport` -- the reliable FIFO transport endpoints used
  by protocol processes.
* :mod:`repro.net.faults` -- probabilistic link-fault models (seeded
  per-message drop / reorder / duplicate, global or per directed link),
  the message-level fault space the scenario fuzzer explores.
* :mod:`repro.net.trace` -- the event trace recorder and its pluggable
  sink architecture (in-memory trace, JSONL file writer, rolling metrics
  aggregator, null sink), consumed by the post-hoc and streaming property
  checkers and the benchmark harness.
"""

from repro.net.faults import (
    LinkFaultConfigError,
    LinkFaultModel,
    LinkFaultRates,
    get_link_faults,
)
from repro.net.latency import (
    LATENCY_MODELS,
    ConstantLatency,
    ExponentialLatency,
    JitteredLatency,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
    get_latency_model,
)
from repro.net.network import Network, NetworkConfig, NetworkStats
from repro.net.partitions import PartitionManager
from repro.net.simulator import EventHandle, Simulator, SimulatorError
from repro.net.trace import (
    EventTrace,
    JsonlSink,
    MemorySink,
    MetricsSink,
    NullSink,
    TraceEvent,
    TraceRecorder,
    TraceSink,
)
from repro.net.transport import Endpoint, Transport, TransportMessage

__all__ = [
    "LATENCY_MODELS",
    "ConstantLatency",
    "Endpoint",
    "EventHandle",
    "EventTrace",
    "ExponentialLatency",
    "JitteredLatency",
    "JsonlSink",
    "LatencyModel",
    "LinkFaultConfigError",
    "LinkFaultModel",
    "LinkFaultRates",
    "LogNormalLatency",
    "MemorySink",
    "MetricsSink",
    "Network",
    "NetworkConfig",
    "NetworkStats",
    "NullSink",
    "PartitionManager",
    "Simulator",
    "SimulatorError",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
    "Transport",
    "TransportMessage",
    "UniformLatency",
    "get_latency_model",
    "get_link_faults",
]
