"""Low-overhead metrics registry: counters, gauges and histograms.

The registry is the passive half of :mod:`repro.obs`, and it is *read*,
never pushed into.  A counter is a count its owner keeps anyway -- a
plain int on the simulator, a suspector, a time-silence timer -- which
the owner publishes once, at construction, as a *counter source*
(:meth:`MetricsRegistry.counter_source`); the registry sums the sources
when a snapshot or sampler tick reads it.  A histogram is read the same
way: its owner keeps a ``{value: occurrences}`` dict (the transport's
delivery batch sizes) and publishes it as a *histogram source*
(:meth:`MetricsRegistry.histogram_source`), bucketed when a snapshot
reads it.  So counting costs a hot path the same whether or not the run
is observed.  Nothing here ever touches the simulator's RNG or schedules
events, so enabling metrics cannot perturb seed-determinism.

Gauges are polled the same way: a :class:`PolledGauge` wraps a
zero-argument callable (``len(heap)``, in-flight batch depth) that is only
evaluated when a snapshot or sampler tick asks for it -- zero hot-path
cost -- and a :class:`GaugeRoster` sums one such callable per entity
(queue depth per process, a waiting send per endpoint) into one gauge.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "PolledGauge",
    "Histogram",
    "GaugeRoster",
    "MetricsRegistry",
]


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
    """A fixed-bucket histogram of small positive integers (batch sizes),
    read from its owner's ``{value: occurrences}`` counts.

    ``bounds`` are inclusive upper edges; values above the last edge land
    in the overflow bucket.  The counts are bucketed only when the
    histogram is read, and the exact sum and count are kept so the mean
    never suffers bucket error.
    """

    __slots__ = ("name", "bounds", "_fn")

    def __init__(
        self,
        name: str,
        fn: Callable[[], Mapping[int, int]],
        bounds: Optional[List[int]] = None,
    ) -> None:
        self.name = name
        self.bounds = list(bounds) if bounds is not None else [1, 2, 4, 8, 16, 32, 64, 128]
        self._fn = fn

    def snapshot(self) -> Dict[str, object]:
        counts = self._fn()
        bounds = self.bounds
        buckets = [0] * len(bounds)
        overflow = count = total = 0
        for value, hits in counts.items():
            count += hits
            total += value * hits
            for index, edge in enumerate(bounds):
                if value <= edge:
                    buckets[index] += hits
                    break
            else:
                overflow += hits
        return {
            "count": count,
            "mean": round(total / count, 4) if count else 0.0,
            "max": max(counts) if counts else 0.0,
            "buckets": {
                **{f"le_{edge}": hits for edge, hits in zip(bounds, buckets)},
                "overflow": overflow,
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

    Instrumented modules register a counter source, a histogram source or
    a gauge once, at construction time; repeated registrations of a
    gauge's name return the same instrument so wiring order never
    matters.  ``snapshot()`` reads every source and polled gauge and
    returns a plain JSON-able dict grouped by instrument type.
    """

    def __init__(self) -> None:
        self._polled: Dict[str, PolledGauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._rosters: Dict[str, GaugeRoster] = {}
        self._counter_sources: Dict[str, List[Callable[[], Mapping[str, int]]]] = {}

    # -- registration --------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float]) -> PolledGauge:
        instrument = self._polled.get(name)
        if instrument is None:
            instrument = self._polled[name] = PolledGauge(name, fn)
        return instrument

    def histogram_source(
        self,
        name: str,
        fn: Callable[[], Mapping[int, int]],
        bounds: Optional[List[int]] = None,
    ) -> None:
        """Publish a ``{value: occurrences}`` dict its owner keeps as the
        histogram ``name``, bucketed from ``fn()`` whenever the registry is
        read."""
        self._histograms[name] = Histogram(name, fn, bounds)

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
        at no cost per event.  Sources under one prefix add up per key:
        every suspector of a run registers its own, and the registry
        reads their sum."""
        self._counter_sources.setdefault(prefix, []).append(fn)

    def release(self) -> None:
        """Drop every source, gauge and histogram (of a run that ended and
        was snapshotted: each reaches back to the simulator holding us)."""
        self._polled = {}
        self._histograms = {}
        self._rosters = {}
        self._counter_sources = {}

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
        values: Dict[str, int] = {}
        for prefix, fns in self._counter_sources.items():
            for fn in fns:
                for key, value in fn().items():
                    name = prefix + key
                    values[name] = values.get(name, 0) + value
        return values

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able snapshot of every instrument."""
        return {
            "counters": dict(sorted(self.read_counters().items())),
            "gauges": {name: g.read() for name, g in sorted(self._polled.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
        }
