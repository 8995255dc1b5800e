"""Workload profiles: one named bundle of *when*, *who* and *how big*.

A :class:`WorkloadProfile` combines an arrival process, a selection policy
and a payload size into the unit the rest of the system passes around: the
open-loop client (:mod:`repro.workloads.client`) runs a profile reactively
inside simulation time, the scenario engine accepts a profile name in its
``workload`` spec, and the experiment sweep runner
(:mod:`repro.experiments`) grids profiles against stacks and offered
loads.

Named profiles (see :data:`PROFILE_FACTORIES`):

``uniform``
    Deterministic-rate arrivals, uniform sender/group selection.
``poisson``
    Poisson arrivals, uniform selection -- the default open-loop model.
``bursty``
    On/off bursts at 10x the mean rate, uniform selection.
``ramp``
    Diurnal sinusoidal ramp of a Poisson process, uniform selection.
``zipf``
    Poisson arrivals with Zipf-skewed senders.
``hot_group``
    Poisson arrivals with hot-group skew across the group list.

:func:`get_profile` resolves a name plus overrides (``rate``,
``payload_bytes`` and kind-specific options) into a fresh profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    RampArrivals,
)
from repro.workloads.selection import (
    HotGroups,
    SelectionPolicy,
    UniformSelection,
    ZipfSenders,
)


@dataclass(frozen=True)
class WorkloadProfile:
    """A named open-loop traffic shape."""

    name: str
    arrivals: ArrivalProcess
    selection: SelectionPolicy = field(default_factory=UniformSelection)
    #: Application payload size; the client pads payloads to this length.
    payload_bytes: int = 64

    def offered_rate(self) -> float:
        """Long-run multicast attempts per simulated time unit."""
        return self.arrivals.mean_rate()

    def describe(self) -> Dict[str, object]:
        """JSON-shaped description for benchmark reports."""
        return {
            "name": self.name,
            "arrivals": self.arrivals.kind,
            "selection": self.selection.kind,
            "rate": self.offered_rate(),
            "payload_bytes": self.payload_bytes,
        }


#: name -> factory(rate, payload_bytes, **profile-specific options).
PROFILE_FACTORIES: Dict[str, Callable[..., WorkloadProfile]] = {}


def _register(name: str):
    def wrap(factory: Callable[..., WorkloadProfile]) -> Callable[..., WorkloadProfile]:
        PROFILE_FACTORIES[name] = factory
        return factory

    return wrap


@_register("uniform")
def _uniform(rate: float, payload_bytes: int) -> WorkloadProfile:
    return WorkloadProfile(
        "uniform", DeterministicArrivals(rate), UniformSelection(), payload_bytes
    )


@_register("poisson")
def _poisson(rate: float, payload_bytes: int) -> WorkloadProfile:
    return WorkloadProfile(
        "poisson", PoissonArrivals(rate), UniformSelection(), payload_bytes
    )


@_register("bursty")
def _bursty(
    rate: float, payload_bytes: int, burst_size: int = 8, peak_factor: float = 10.0
) -> WorkloadProfile:
    return WorkloadProfile(
        "bursty", BurstyArrivals(rate, burst_size, peak_factor), UniformSelection(), payload_bytes
    )


@_register("ramp")
def _ramp(
    rate: float, payload_bytes: int, period: float = 40.0, amplitude: float = 0.8
) -> WorkloadProfile:
    return WorkloadProfile(
        "ramp", RampArrivals(rate, period, amplitude), UniformSelection(), payload_bytes
    )


@_register("zipf")
def _zipf(rate: float, payload_bytes: int, exponent: float = 1.2) -> WorkloadProfile:
    return WorkloadProfile(
        "zipf", PoissonArrivals(rate), ZipfSenders(exponent), payload_bytes
    )


@_register("hot_group")
def _hot_group(
    rate: float, payload_bytes: int, hot_fraction: float = 0.25, hot_share: float = 0.8
) -> WorkloadProfile:
    return WorkloadProfile(
        "hot_group", PoissonArrivals(rate), HotGroups(hot_fraction, hot_share), payload_bytes
    )


def available_profiles() -> List[str]:
    """Names accepted by :func:`get_profile` (and scenario workload specs)."""
    return sorted(PROFILE_FACTORIES)


def get_profile(
    name: Union[str, WorkloadProfile],
    rate: float = 1.0,
    payload_bytes: int = 64,
    **options,
) -> WorkloadProfile:
    """Resolve a profile name (or pass a :class:`WorkloadProfile` through).

    ``rate`` is the *aggregate* offered load in multicast attempts per
    simulated time unit; kind-specific knobs (``burst_size``,
    ``exponent``, ``hot_share``, ...) ride in ``options``.  Unknown names
    and unknown options both raise ``ValueError`` so scenario specs fail
    loudly at parse time.
    """
    if isinstance(name, WorkloadProfile):
        return name
    factory = PROFILE_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown workload profile {name!r}; expected one of {available_profiles()}"
        )
    try:
        return factory(rate, payload_bytes, **options)
    except TypeError:
        raise ValueError(
            f"profile {name!r} does not accept options {sorted(options)}"
        ) from None
