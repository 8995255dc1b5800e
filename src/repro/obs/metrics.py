"""Low-overhead metrics registry: counters, gauges and histograms.

The registry is the passive half of :mod:`repro.obs` -- instrumented code
holds direct references to :class:`Counter` / :class:`Histogram` objects
and bumps plain attributes, so a hot path pays
one attribute increment per event when metrics are enabled and a single
``is None`` check when they are not.  Nothing here ever touches the
simulator's RNG or schedules events, so enabling metrics cannot perturb
seed-determinism.

Gauges are polled, never pushed: a :class:`PolledGauge` wraps a
zero-argument callable (``len(heap)``, in-flight batch depth) that is only
evaluated when a snapshot or sampler tick asks for it -- zero hot-path
cost -- and a :class:`GaugeRoster` sums one such callable per entity
(queue depth per process, a waiting send per endpoint) into one gauge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "Counter",
    "PolledGauge",
    "Histogram",
    "GaugeRoster",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count, bumped as ``counter.value += n``."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def snapshot(self) -> int:
        return self.value


class PolledGauge:
    """A gauge evaluated lazily from a callable -- never on the hot path."""

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self._fn = fn

    def read(self) -> float:
        return self._fn()

    def snapshot(self) -> float:
        return self._fn()


class Histogram:
    """A fixed-bucket histogram for small positive integers (batch sizes).

    ``bounds`` are inclusive upper edges; values above the last edge land
    in the overflow bucket.  Recording is one bisect-free loop over a
    handful of edges -- cheap enough for per-batch call sites -- and the
    exact sum/count are kept so the mean never suffers bucket error.
    """

    __slots__ = ("name", "bounds", "buckets", "overflow", "count", "total", "max")

    def __init__(self, name: str, bounds: Optional[List[int]] = None) -> None:
        self.name = name
        self.bounds = list(bounds) if bounds is not None else [1, 2, 4, 8, 16, 32, 64, 128]
        self.buckets = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        for index, edge in enumerate(self.bounds):
            if value <= edge:
                self.buckets[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": round(self.mean, 4),
            "max": self.max,
            "buckets": {
                **{f"le_{edge}": hits for edge, hits in zip(self.bounds, self.buckets)},
                "overflow": self.overflow,
            },
        }


class GaugeRoster:
    """A polled gauge summed over many contributors.

    Per-entity gauges would explode at 10k-process scale (one column per
    process in every sampler tick); a roster keeps one aggregate gauge and
    lets each entity register a cheap callable (e.g. a bound
    ``pending_count`` method) at construction time.  Contributors are never
    removed -- a crashed process's frozen queue keeps contributing its last
    depth, which is the honest reading (those messages are still buffered).
    """

    __slots__ = ("_fns",)

    def __init__(self) -> None:
        self._fns: List[Callable[[], float]] = []

    def add(self, fn: Callable[[], float]) -> None:
        self._fns.append(fn)

    def read(self) -> float:
        return sum(fn() for fn in self._fns)


class MetricsRegistry:
    """The per-run namespace of instruments.

    Instrumented modules call ``registry.counter("sim.events_fired")``
    once at construction time and keep the returned object; repeated
    registrations of the same name return the same instrument so wiring
    order never matters.  ``snapshot()`` evaluates every polled gauge and
    returns a plain JSON-able dict grouped by instrument type.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._polled: Dict[str, PolledGauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._rosters: Dict[str, GaugeRoster] = {}
        self._counter_sources: Dict[str, Callable[[], Mapping[str, int]]] = {}

    # -- registration --------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> PolledGauge:
        instrument = self._polled.get(name)
        if instrument is None:
            instrument = self._polled[name] = PolledGauge(name, fn)
        return instrument

    def histogram(self, name: str, bounds: Optional[List[int]] = None) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def sum_gauge(self, name: str) -> GaugeRoster:
        """A :class:`GaugeRoster` published as the polled gauge ``name``."""
        roster = self._rosters.get(name)
        if roster is None:
            roster = self._rosters[name] = GaugeRoster()
            self.gauge(name, roster.read)
        return roster

    def counter_source(self, prefix: str, fn: Callable[[], Mapping[str, int]]) -> None:
        """Publish counts their owner already keeps as the counters
        ``prefix + key``, read from ``fn()`` whenever the registry is --
        the trace recorder's per-kind tally is ``trace.<kind>`` this way,
        at no cost per event."""
        self._counter_sources[prefix] = fn

    # -- reading -------------------------------------------------------
    def family(self, prefix: str) -> Dict[str, int]:
        """Counters under ``prefix``, keyed by the suffix after it.

        ``family("transport.sends_by_cause.")`` returns the live per-cause
        send counts -- the journey tracker embeds them in its snapshot, and
        tests assert the family sums to the ``transport.sends`` total.
        """
        return {
            name[len(prefix):]: value
            for name, value in sorted(self.read_counters().items())
            if name.startswith(prefix)
        }

    def read_gauges(self) -> Dict[str, float]:
        """Current value of every gauge (polled evaluated now)."""
        return {name: gauge.read() for name, gauge in self._polled.items()}

    def read_counters(self) -> Dict[str, int]:
        values = {name: counter.value for name, counter in self._counters.items()}
        for prefix, fn in self._counter_sources.items():
            for key, value in fn().items():
                values[prefix + key] = value
        return values

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able snapshot of every instrument."""
        return {
            "counters": dict(sorted(self.read_counters().items())),
            "gauges": {name: g.read() for name, g in sorted(self._polled.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
        }
