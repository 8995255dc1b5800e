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
"""

from repro.analysis.checkers import (
    CheckResult,
    check_all,
    check_causal_prefix,
    check_same_view_delivery_sets,
    check_sender_in_view,
    check_total_order,
    check_view_sequences,
)
from repro.analysis.metrics import LatencySummary, MetricsReport, summarize_latencies
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
from repro.analysis.overhead import (
    isis_overhead_bytes,
    newtop_overhead_bytes,
    piggyback_overhead_bytes,
    psync_overhead_bytes,
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
