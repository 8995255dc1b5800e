"""Metric declarations of the ledger benchmark.

One place names every metric the benchmark reports, with its unit, the
direction that counts as better and -- for end-to-end metrics -- the bound
``run.py --compare`` judges a regression by.  ``BENCHMARK.json`` at the
repository root declares the same names for the driver; the self-check
(``bench_ledger_selfcheck.py``) asserts the two agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: Default generator seed per workload (``--seed 0``); ``--seed N`` adds N.
DEFAULT_SEEDS = {
    "churn_idle": 23,
    "stream_busy": 5,
    "kv_failover_split": 11,
    "fuzz_serial": 7,
}

WORKLOADS = tuple(DEFAULT_SEEDS)


class EndToEnd(NamedTuple):
    """One end-to-end metric of the ledger's own report."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the baseline median by which the metric may get worse.
    bound: float
    #: Absolute slack that must *also* be exceeded (``setup_s`` only).
    floor: float = 0.0


#: The ten end-to-end metrics of the ledger report (``run.py`` with no
#: ``--workload``), with the regression bounds ``--compare`` applies.  A
#: workload a metric is not defined on reports ``None`` for it: latency on
#: ``fuzz_serial``, ``view_change_sim`` off ``churn_idle``,
#: ``failover_gap_sim`` and ``split_sim`` off ``kv_failover_split``.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, floor=0.05),
    EndToEnd("ops_per_s", "1/s", "higher", 0.10),
    EndToEnd("msgs_per_delivery", "msgs", "lower", 0.02),
    EndToEnd("latency_p50_sim", "sim_s", "lower", 0.02),
    EndToEnd("latency_p99_sim", "sim_s", "lower", 0.02),
    EndToEnd("view_change_sim", "sim_s", "lower", 0.02),
    EndToEnd("failover_gap_sim", "sim_s", "lower", 0.02),
    EndToEnd("split_sim", "sim_s", "lower", 0.02),
    EndToEnd("failed_ops_share", "share", "lower", 0.0),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
]

#: End-to-end metrics the driver contract can carry: defined and non-zero
#: on every workload, and steady across ``--seed`` values.  The remaining
#: six ride in the per-layer list under the ``e2e.`` prefix (see README).
DRIVER_END_TO_END = ("ops_per_s", "msgs_per_delivery", "peak_rss_mb", "setup_s")

#: Layers, in the order the report prints them.  ``analysis.offline`` is
#: the post-hoc checker path the fuzz workload exercises.
LAYERS = (
    "net.simulator",
    "net.network",
    "net.transport",
    "core.process",
    "core.endpoint",
    "core.ordering",
    "core.vectors",
    "core.delivery",
    "core.stability",
    "core.liveness",
    "core.membership",
    "net.trace",
    "analysis.online",
    "analysis.offline",
    "workloads",
    "apps.kv",
    "scenarios",
    "api",
    "obs",
    "other",
)

#: Per-layer metrics read from the cProfile of the traced unit.
PROFILE_METRICS = (("self_share", "share"), ("self_s", "s"), ("entry_calls", "count"))

#: Exact counts read from public stats objects of the untraced unit, and
#: the bench's own bookkeeping: (name, unit, better).
COUNT_METRICS = (
    ("net.simulator.events", "count", "lower"),
    ("net.simulator.us_per_event", "us", "lower"),
    ("net.simulator.peak_pending", "count", "lower"),
    ("net.simulator.compactions", "count", "lower"),
    ("net.network.msgs_sent", "count", "lower"),
    ("net.network.msgs_delivered", "count", "lower"),
    ("net.network.msgs_dropped", "count", "lower"),
    ("net.network.delivery_events", "count", "lower"),
    ("net.network.msgs_per_delivery_event", "msgs", "higher"),
    ("net.transport.sends", "count", "lower"),
    ("net.transport.sends_app", "count", "lower"),
    ("net.transport.sends_null", "count", "lower"),
    ("net.transport.sends_membership", "count", "lower"),
    ("core.endpoint.app_sends", "count", "higher"),
    ("core.endpoint.null_sends", "count", "lower"),
    ("core.endpoint.receives", "count", "lower"),
    ("core.endpoint.blocked_sends", "count", "lower"),
    ("core.liveness.null_share", "share", "lower"),
    ("core.liveness.suspicions", "count", "lower"),
    ("core.delivery.deliveries", "count", "higher"),
    ("core.delivery.receives_per_delivery", "msgs", "lower"),
    ("core.membership.view_installs", "count", "lower"),
    ("core.membership.formations", "count", "higher"),
    ("net.trace.events", "count", "lower"),
    ("net.trace.events_stored", "count", "lower"),
    ("net.trace.events_per_delivery", "events", "lower"),
    ("analysis.online.violations", "count", "lower"),
    ("analysis.online.sink_errors", "count", "lower"),
    ("workloads.offered", "count", "higher"),
    ("workloads.admitted", "count", "higher"),
    ("workloads.blocked", "count", "lower"),
    ("apps.kv.reads_done", "count", "higher"),
    ("apps.kv.writes_done", "count", "higher"),
    ("apps.kv.stale_refreshes", "count", "lower"),
    ("apps.kv.behind_retries", "count", "lower"),
    ("apps.kv.moved_retries", "count", "lower"),
    ("apps.kv.frozen_rejections", "count", "lower"),
    ("apps.kv.unavailable_rejections", "count", "lower"),
    ("apps.kv.moved_keys", "count", "higher"),
    ("scenarios.fuzz.specs", "count", "higher"),
    ("scenarios.fuzz.spec_ms_p50", "ms", "lower"),
    ("scenarios.fuzz.spec_ms_p95", "ms", "lower"),
    ("scenarios.fuzz.stalls", "count", "lower"),
    ("bench.run_s", "s", "lower"),
    ("bench.cpu_s", "s", "lower"),
    ("bench.units", "count", "higher"),
    ("bench.disturbed_units", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.profiled_coverage", "share", "higher"),
)

#: End-to-end metrics that ride with the per-layer output (``e2e.<name>``).
E2E_IN_LAYER_OUTPUT = tuple(
    metric for metric in END_TO_END if metric.name not in DRIVER_END_TO_END
) + (EndToEnd("latency_samples", "count", "higher", 0.0),)


def per_layer_declarations() -> List[Dict[str, str]]:
    """Every per-layer metric as a ``BENCHMARK.json`` entry."""
    entries: List[Dict[str, str]] = []
    for layer in LAYERS:
        for suffix, unit in PROFILE_METRICS:
            entries.append({"name": f"{layer}.{suffix}", "unit": unit, "better": "lower"})
    for name, unit, better in COUNT_METRICS:
        entries.append({"name": name, "unit": unit, "better": better})
    for metric in E2E_IN_LAYER_OUTPUT:
        entries.append(
            {"name": f"e2e.{metric.name}", "unit": metric.unit, "better": metric.better}
        )
    return entries
