"""``repro.obs`` -- observability for every layer of the reproduction.

One :class:`Observation` object bundles the instruments.  Three are
handles the layers are built with:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters / gauges /
  histograms.  It is read, never pushed into: the simulator, transport,
  suspector, time-silence, heartbeat and endpoints keep their counts as
  plain ints (the transport its delivery batch sizes as a ``{size:
  batches}`` dict) and register each as a source when built with it,
  and :meth:`Observation.bind` publishes the kernel's and the trace
  recorder's the same way;
* a :class:`~repro.obs.sampler.SimTimeSampler` snapshotting the registry
  every few simulated time units into a columnar time series
  (null-vs-app traffic per interval, messages-per-delivery curves);
* a :class:`~repro.obs.profiler.HotPathProfiler` attributing wall clock
  to simulator-callback categories (delivery batch, each timer's fire,
  scenario event, sampler, workload), through the kernel's per-callback
  hook alone, at one ``is None`` check per event when off;

and the rest read the run's :class:`~repro.net.trace.TraceRecorder`, the
one seam ``repro.core`` and ``repro.net`` report a message's life to
(neither imports this package):

* ``spans=True`` makes the run's one latency sink, which every session
  attaches, a :class:`~repro.net.trace.SpanMetricsSink`: it also times
  the per-message lifecycle stages (transit / ordering wait / latency /
  spread) as exact reservoirs, from the send-time table it keeps anyway,
  and they come back as the ``spans`` block;
* a :class:`~repro.obs.journey.JourneyTracker` sampling a deterministic
  1-in-N subset of message ids and recording each one's full lifecycle
  (created -> sent -> received -> held -> sequenced -> delivered |
  discarded) with per-(cause, wait-state) latency reservoirs, alongside
  the transport's ``transport.sends_by_cause.*`` root-cause counters; the
  only subscriber of the recorder's lifecycle kinds.

Usage::

    session = Session("newtop", observe=True)       # metrics + sampler
    session = Session("newtop", observe="journeys") # + journey tracing
    session = Session("newtop", observe="full")     # + profiler + spans + journeys
    ...
    result = session.result()
    print(render_obs(result.obs))

The session builds its observation from ``observe=`` and empties its
registry when released; read the instruments mid-run as
``session.observation``.

The contract, pinned by ``tests/test_hot_path_equivalence.py``: observing
a run never changes its behaviour -- no RNG draws, no trace events, no
protocol decisions -- so the trace event stream is byte-identical with
observation on or off.

``python -m repro.obs report BENCH_file.json`` renders any benchmark JSON
(or result dump) containing ``obs`` blocks into a readable report.

Only :mod:`repro.obs.metrics` loads with this package.  Each of the other
three instruments is imported by :meth:`Observation.__init__` when its flag
builds it, and the report renderer when it is first named; every name in
``__all__`` still resolves here, through the module ``__getattr__``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.net.trace import MetricsSink, SpanMetricsSink, TraceSink
from repro.obs.metrics import Histogram, MetricsRegistry, PolledGauge

if TYPE_CHECKING:
    from repro.obs.journey import JourneyTracker
    from repro.obs.profiler import HotPathProfiler
    from repro.obs.sampler import SimTimeSampler

__all__ = [
    "Observation",
    "MetricsRegistry",
    "PolledGauge",
    "Histogram",
    "SimTimeSampler",
    "HotPathProfiler",
    "JourneyTracker",
    "render_obs",
    "render_document",
]

#: Exported names whose modules load on first access (PEP 562).
_LAZY_EXPORTS = {
    "SimTimeSampler": "repro.obs.sampler",
    "HotPathProfiler": "repro.obs.profiler",
    "JourneyTracker": "repro.obs.journey",
    "render_obs": "repro.obs.report",
    "render_document": "repro.obs.report",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


class Observation:
    """One run's observation bundle, built by the session from its
    ``observe=`` argument, and released with it.

    ``observe=True`` enables the cheap instruments (registry + sampler);
    ``observe="full"`` adds the wall-clock profiler, the span stages and
    journeys;
    a mapping passes keyword arguments straight through (e.g.
    ``observe={"profiler": True, "sampler": False}``).  To read
    instruments mid-run, use ``session.observation``.
    """

    def __init__(
        self,
        *,
        sampler: bool = True,
        profiler: bool = False,
        spans: bool = False,
        journeys: bool = False,
        journey_sample_rate: int = 64,
        journey_force_ids=None,
    ) -> None:
        # The registry always exists: the sampler reads it, and
        # instrumented layers only check one attribute.
        self.registry = MetricsRegistry()
        self.sampler: Optional[SimTimeSampler] = None
        self.profiler: Optional[HotPathProfiler] = None
        #: Whether the run's latency sink also times the span stages.
        self.spans = spans
        self.journeys: Optional[JourneyTracker] = None
        if sampler:
            from repro.obs.sampler import SimTimeSampler

            self.sampler = SimTimeSampler(self.registry)
        if profiler:
            from repro.obs.profiler import HotPathProfiler

            self.profiler = HotPathProfiler()
        if journeys:
            from repro.obs.journey import JourneyTracker

            self.journeys = JourneyTracker(
                self.registry,
                sample_rate=journey_sample_rate,
                force_ids=journey_force_ids,
            )
        self._sim = None
        self._latency: Optional[MetricsSink] = None

    # ------------------------------------------------------------------
    # Coercion
    # ------------------------------------------------------------------
    @staticmethod
    def coerce(value: Any) -> Optional["Observation"]:
        """Build the observation an ``observe=`` value names; anything but
        None, a bool, a mode name or a dict (an ``Observation`` instance
        too) raises ``ValueError``."""
        if value is None or value is False:
            return None
        if value is True or value == "metrics":
            return Observation()
        if value == "journeys":
            return Observation(journeys=True)
        if value == "full":
            return Observation(profiler=True, spans=True, journeys=True)
        if isinstance(value, Mapping):
            return Observation(**value)
        raise ValueError(
            f"cannot interpret observe={value!r}: pass None, False, True, "
            "'metrics', 'journeys', 'full' or a dict of Observation keywords"
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def trace_sinks(self) -> List[TraceSink]:
        """The sinks to build the run's :class:`TraceRecorder` with (the
        journey tracker hears lifecycle kinds, which are routed to the
        sinks a recorder has when the layers under it are built)."""
        return [self.journeys] if self.journeys is not None else []

    def bind(self, sim, recorder, latency: MetricsSink) -> None:
        """Attach the sampler to the run's simulator and publish what the
        kernel and the recorder already count: the simulator's events as
        the ``sim.*`` counters, its heap as the ``sim.heap_*`` gauges and
        the recorder's per-kind tally as the ``trace.<kind>`` counters
        (what feeds the sampler's null-vs-app traffic series).  ``latency``
        is the run's latency sink, read for the ``spans`` block."""
        self._sim = sim
        self._latency = latency
        registry = self.registry
        registry.counter_source("sim.", sim.counts)
        registry.gauge("sim.heap_pending", lambda: sim.pending_events)
        registry.gauge("sim.heap_live", lambda: sim.live_pending_events)
        registry.counter_source("trace.", recorder.kind_counts)
        if self.sampler is not None:
            self.sampler.attach(sim)

    def ensure_sampling(self) -> None:
        """Un-park the sampler; call before pushing more simulated time."""
        if self.sampler is not None:
            self.sampler.ensure_running()

    def finalize(self) -> None:
        """Take the closing sample."""
        sampler = self.sampler
        if sampler is not None and self._sim is not None:
            if not sampler.times or sampler.times[-1] < self._sim.now:
                sampler.sample_now()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The JSON-able ``obs`` block embedded in results and BENCH files."""
        self.finalize()
        block: Dict[str, object] = {"metrics": self.registry.snapshot()}
        if self.sampler is not None:
            block["samples"] = self.sampler.snapshot()
        if self.profiler is not None:
            block["profile"] = self.profiler.snapshot()
        if isinstance(self._latency, SpanMetricsSink):
            block["spans"] = self._latency.span_snapshot()
        if self.journeys is not None:
            block["journeys"] = self.journeys.snapshot()
        return block
