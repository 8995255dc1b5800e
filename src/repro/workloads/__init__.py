"""repro.workloads: open-loop traffic generation inside simulation time.

The workload layer answers "what does the application offer the protocol?"
independently of any protocol: an :class:`~repro.workloads.arrivals.ArrivalProcess`
decides *when* the next multicast happens (deterministic rate, Poisson,
bursty on/off, diurnal ramp), a
:class:`~repro.workloads.selection.SelectionPolicy` decides *who sends
where* (uniform, Zipf-skewed senders, hot-group skew), and a
:class:`~repro.workloads.profiles.WorkloadProfile` bundles both with a
payload size under a registry name.

The :class:`~repro.workloads.client.OpenLoopClient` runs a profile
reactively on top of any :class:`repro.api.Session`: arrivals are
simulator events, sends go through the stack's public multicast, and the
client doubles as a trace sink that tracks its own deliveries -- so
offered vs admitted vs delivered load is measured per profile with no
materialized schedule and no stored trace, at any scale::

    from repro.api import Session
    from repro.workloads import OpenLoopClient, get_profile

    session = Session(stack="newtop", analysis="online", seed=7)
    session.spawn(["P1", "P2", "P3"])
    session.group("g")
    client = session.attach_client(
        OpenLoopClient(get_profile("poisson", rate=2.0),
                       senders=["P1", "P2"], groups=["g"], duration=30.0)
    )
    client.start()
    session.run(60)
    print(client.stats())       # offered/admitted/blocked + latency percentiles

Scenario specs reference profiles by name (``workload: {"profile":
"bursty", "rate": 2.0, "duration": 30}``) and the sweep runner in
:mod:`repro.experiments` grids them against stacks and offered loads.
"""

from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    RampArrivals,
)
from repro.workloads.client import (
    LATENCY_PERCENTILES,
    LATENCY_RESERVOIR,
    LatencyReservoir,
    OpenLoopClient,
    aggregate_counters,
)
from repro.workloads.profiles import (
    PROFILE_FACTORIES,
    WorkloadProfile,
    available_profiles,
    get_profile,
)
from repro.workloads.selection import (
    SELECTION_KINDS,
    HotGroups,
    SelectionPolicy,
    UniformSelection,
    ZipfSenders,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "BurstyArrivals",
    "DeterministicArrivals",
    "HotGroups",
    "LATENCY_PERCENTILES",
    "LATENCY_RESERVOIR",
    "OpenLoopClient",
    "PROFILE_FACTORIES",
    "PoissonArrivals",
    "RampArrivals",
    "SELECTION_KINDS",
    "SelectionPolicy",
    "UniformSelection",
    "WorkloadProfile",
    "ZipfSenders",
    "LatencyReservoir",
    "aggregate_counters",
    "available_profiles",
    "get_profile",
]
