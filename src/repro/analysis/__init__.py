"""Analysis tooling: property checkers and overhead models.

* :mod:`repro.analysis.online` -- the one checker suite for the paper's
  delivery and view guarantees (MD1-MD5', VC1-VC3), evaluated
  incrementally as events stream through the trace recorder's sink API;
  every run's verdict comes from it, and a stored trace is checked by
  replaying it (:func:`check_events`).  It scales to 1000-process runs
  with no materialized trace.
* :mod:`repro.analysis.overhead` -- per-message protocol overhead models
  for Newtop and the §6 comparison protocols (ISIS vector clocks, Psync
  context graphs, piggybacking).

``overhead`` serves the benchmarks and no run: its names resolve here on
first access (module ``__getattr__``).  A run's latency and counts come
from its :class:`~repro.net.trace.MetricsSink` (``result.metrics``); a
stored trace answers the post-hoc questions itself
(:meth:`~repro.net.trace.EventTrace.delivery_latencies`,
:meth:`~repro.net.trace.EventTrace.blocking_times`,
:meth:`~repro.net.trace.EventTrace.view_agreement_latency`).
"""

import importlib
from typing import Any

from repro.analysis.online import (
    ALL_CHECKS,
    CheckResult,
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
    "OnlineCausalOrder",
    "OnlineCheckSuite",
    "OnlineChecker",
    "OnlineSenderInView",
    "OnlineTotalOrder",
    "OnlineViewAgreement",
    "OnlineVirtualSynchrony",
    "check_events",
    "isis_overhead_bytes",
    "newtop_overhead_bytes",
    "piggyback_overhead_bytes",
    "psync_overhead_bytes",
]

#: Exported names whose modules load on first access (PEP 562).
_LAZY_EXPORTS = {
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
