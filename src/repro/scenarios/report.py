"""Rolling cross-shard reporting for sharded scenario batches.

A sharded run (:func:`repro.scenarios.run_scenarios` with ``parallel=N``)
streams each :class:`~repro.scenarios.engine.ScenarioResult` back as its
worker finishes.  A :class:`RollingReport` is the consumer for that stream:
pass one as the ``progress`` callback and it maintains the batch-wide
aggregates *while the batch runs* -- shards done, pass/fail tallies,
event/delivery/message totals, and one merged
:class:`~repro.stats.LatencyReservoir` -- instead of recomputing everything
from the full result list afterwards.

The latency merge is the point: every result carries its shard's actual
reservoir (:attr:`ScenarioResult.latency_reservoir`), so the cross-shard
percentiles come from merging real sample pools, not from reconstructing
sketches out of count/mean/min/max moments.  When every shard pool is
exact (under the reservoir capacity), the merged percentiles are exact
too; :attr:`RollingReport.latency` exposes the merged reservoir for
callers that want to keep folding (e.g. across *batches*).

Serial runs use the same hook -- ``run_scenarios`` invokes ``progress``
after each scenario either way -- so one report object covers both
execution modes::

    report = RollingReport(expected=len(configs), printer=print)
    results = run_scenarios(configs, parallel=8, analysis="online",
                            progress=report)
    assert report.all_passed
    print(report.summary()["latency"])     # exact cross-shard percentiles
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.scenarios.engine import ScenarioResult
from repro.stats import LatencyReservoir

#: How many violation strings the report retains across the whole batch.
VIOLATION_LIMIT = 10


class RollingReport:
    """Streaming aggregate over a batch of scenario results.

    Parameters
    ----------
    expected:
        Total number of scenarios in the batch (for ``k/N`` progress
        lines); ``None`` if unknown.
    printer:
        Optional line consumer (e.g. ``print``) called with one progress
        line per completed shard.  Parallel batches complete out of input
        order; the line names the scenario, so the stream stays readable.
    capacity:
        Sample capacity of the merged latency reservoir.
    """

    def __init__(
        self,
        expected: Optional[int] = None,
        printer: Optional[Callable[[str], None]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.expected = expected
        self.printer = printer
        self.completed = 0
        self.passed = 0
        self.failed = 0
        self.violations: List[str] = []
        self.events_processed = 0
        self.deliveries = 0
        self.messages_sent = 0
        self.trace_events = 0
        self.trace_events_stored = 0
        self.latency = (
            LatencyReservoir(capacity=capacity)
            if capacity is not None
            else LatencyReservoir()
        )

    # ------------------------------------------------------------------
    # The progress hook
    # ------------------------------------------------------------------
    def add(self, result: ScenarioResult) -> None:
        """Fold one completed scenario in (the ``progress`` callback)."""
        self.completed += 1
        if result.passed:
            self.passed += 1
        else:
            self.failed += 1
            room = VIOLATION_LIMIT - len(self.violations)
            if room > 0:
                self.violations.extend(
                    f"{result.name}: {violation}"
                    for violation in result.checks.violations[:room]
                )
        self.events_processed += result.events_processed
        self.deliveries += result.deliveries
        self.messages_sent += result.messages_sent
        self.trace_events += result.trace_events
        self.trace_events_stored += result.trace_events_stored
        self.latency.merge(result.latency_reservoir)
        if self.printer is not None:
            self.printer(self.line(result))

    #: ``run_scenarios(progress=report)`` calls the report directly.
    __call__ = add

    def line(self, result: ScenarioResult) -> str:
        """One progress line for a just-completed shard."""
        total = f"/{self.expected}" if self.expected is not None else ""
        verdict = "ok" if result.passed else "FAIL"
        return (
            f"[shard {self.completed:4d}{total}] {result.name}: {verdict} "
            f"events={result.events_processed} deliveries={result.deliveries} "
            f"({result.analysis}, {result.trace_events_stored} stored)"
        )

    # ------------------------------------------------------------------
    # Batch-wide views
    # ------------------------------------------------------------------
    @property
    def all_passed(self) -> bool:
        """Whether every folded-in scenario passed (vacuously true empty)."""
        return self.failed == 0

    def summary(self) -> Dict[str, object]:
        """JSON-shaped batch aggregate (the shape benchmark emitters store)."""
        return {
            "shards": self.completed,
            "passed": self.all_passed,
            "failures": self.failed,
            "violations": list(self.violations),
            "events_processed": self.events_processed,
            "deliveries": self.deliveries,
            "messages_sent": self.messages_sent,
            "trace_events": self.trace_events,
            "trace_events_stored": self.trace_events_stored,
            "latency": self.latency.summary(),
            "latency_exact": self.latency.is_exact,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = f"/{self.expected}" if self.expected is not None else ""
        return (
            f"RollingReport({self.completed}{total} shards, "
            f"failed={self.failed}, latency_count={self.latency.count})"
        )
