"""Analysis tooling: property checkers, metrics and overhead models.

* :mod:`repro.analysis.checkers` -- verify the paper's delivery and view
  guarantees (MD1-MD5', VC1-VC3) over recorded event traces (post-hoc).
* :mod:`repro.analysis.online` -- the same guarantees checked incrementally
  while events stream through the trace recorder's sink API; scales to
  1000-process runs with no materialized trace.
* :mod:`repro.analysis.metrics` -- latency / throughput / message-count
  summaries derived from traces and network statistics.
* :mod:`repro.analysis.overhead` -- per-message protocol overhead models
  for Newtop and the §6 comparison protocols (ISIS vector clocks, Psync
  context graphs, piggybacking).

``metrics`` and ``overhead`` serve the benchmarks and no run: their names
resolve here on first access (module ``__getattr__``).
"""

import importlib
from typing import Any

from repro.analysis.checkers import (
    CheckResult,
    check_all,
    check_causal_prefix,
    check_same_view_delivery_sets,
    check_sender_in_view,
    check_total_order,
    check_view_sequences,
)
from repro.analysis.online import (
    ALL_CHECKS,
    GroupScopedCheckSuite,
    OnlineCausalOrder,
    OnlineCheckSuite,
    OnlineChecker,
    OnlineSenderInView,
    OnlineTotalOrder,
    OnlineViewAgreement,
    OnlineVirtualSynchrony,
    check_events,
)

__all__ = [
    "ALL_CHECKS",
    "CheckResult",
    "GroupScopedCheckSuite",
    "LatencySummary",
    "MetricsReport",
    "OnlineCausalOrder",
    "OnlineCheckSuite",
    "OnlineChecker",
    "OnlineSenderInView",
    "OnlineTotalOrder",
    "OnlineViewAgreement",
    "OnlineVirtualSynchrony",
    "check_all",
    "check_events",
    "check_causal_prefix",
    "check_same_view_delivery_sets",
    "check_sender_in_view",
    "check_total_order",
    "check_view_sequences",
    "isis_overhead_bytes",
    "newtop_overhead_bytes",
    "piggyback_overhead_bytes",
    "psync_overhead_bytes",
    "summarize_latencies",
]

#: Exported names whose modules load on first access (PEP 562).
_LAZY_EXPORTS = {
    "LatencySummary": "repro.analysis.metrics",
    "MetricsReport": "repro.analysis.metrics",
    "summarize_latencies": "repro.analysis.metrics",
    "isis_overhead_bytes": "repro.analysis.overhead",
    "newtop_overhead_bytes": "repro.analysis.overhead",
    "piggyback_overhead_bytes": "repro.analysis.overhead",
    "psync_overhead_bytes": "repro.analysis.overhead",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
