"""E18/E19 -- ROADMAP scale-out: large-scale multi-group churn scenarios.

The paper argues (§2, §7) that Newtop's logical-clock deliverability bound
makes total order cheap enough to run at scale -- no agreement round per
message, constant protocol overhead per multicast.  This benchmark pushes
the claim well past the paper's hand-sized examples: a declarative churn
scenario (see :mod:`repro.scenarios`) drives overlapping groups through
crashes, voluntary departures and dynamic group formations while
application traffic keeps flowing, then verifies every guarantee (total
order, view agreement among the stable core, virtual synchrony).

* **E18** (100 processes / 10 groups) stores the full trace beside the
  streaming checkers and measures the throughput levers of the simulation runtime --
  same-instant delivery batching and event-heap health -- so runtime
  regressions show up as shape changes, not just slower wall clock.
* **E19** (1000 processes / 100 groups) is only feasible with the
  streaming verification subsystem: the run uses ``analysis="online"`` --
  the trace recorder streams into the incremental checkers and a rolling
  metrics sink with ``keep_events=False``, so *no* event trace is ever
  materialized, while every guarantee is still checked.

The module doubles as the scenario smoke entry point: the test suite
imports :func:`run_churn` with :data:`SMOKE_SCALE` (tiny N) so the whole
scenario path -- both analysis modes -- is exercised by tier-1 without the
full-scale cost.  Run as a script to record results to JSON for CI::

    python benchmarks/bench_scenario_churn.py --scale smoke \
        --json BENCH_scenario_churn.json
"""

import time

from common import RESULTS, benchmark_arg_parser, fmt, write_bench_json

from repro.scenarios import churn_scenario, run_scenario, run_scenarios

#: The E18 headline configuration: >=100 processes across >=10 groups.
FULL_SCALE = dict(
    n_processes=100,
    n_groups=10,
    group_size=12,
    crashes=3,
    leaves=3,
    messages_per_sender=2,
    seed=7,
)

#: The E19 headline configuration: 1000 processes, 100 overlapping groups,
#: crashes + departures + dynamic formations -- verifiable online only.
THOUSAND_SCALE = dict(
    n_processes=1000,
    n_groups=100,
    group_size=12,
    crashes=5,
    leaves=5,
    formations=3,
    messages_per_sender=1,
    seed=7,
)

#: Tiny configuration for the tier-1 smoke test (same code path, ~1s).
SMOKE_SCALE = dict(
    n_processes=10,
    n_groups=3,
    group_size=5,
    crashes=1,
    leaves=1,
    messages_per_sender=2,
    seed=5,
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE, "thousand": THOUSAND_SCALE}


def run_churn(
    scale=None, batch_window=0.25, analysis="offline", stack="newtop", observe=None
):
    """Run one churn scenario and assert its guarantees held.

    Returns the :class:`~repro.scenarios.engine.ScenarioResult` so callers
    (benchmark tables below, smoke test in tier-1, the CI JSON recorder)
    can inspect the runtime metrics.  ``stack`` selects the protocol; see
    ``bench_protocol_comparison.py`` (E20) for the six-stack comparison.
    ``observe`` ("metrics"/"full") attaches :mod:`repro.obs` and fills
    ``result.obs`` without changing the run's numbers.
    """
    overrides = dict(FULL_SCALE if scale is None else scale)
    config = churn_scenario(batch_window=batch_window, **overrides)
    result = run_scenario(
        config,
        analysis=analysis,
        stack=stack,
        on_unsupported="raise" if stack == "newtop" else "skip",
        observe=observe,
    )
    assert result.passed, f"scenario guarantees violated: {result.checks.violations[:3]}"
    if analysis == "online":
        assert result.trace_events_stored == 0, "online mode materialized a trace"
    return result


def run_comparison():
    """Full-scale churn, batched vs unbatched delivery scheduling."""
    batched = run_churn(batch_window=0.25)
    unbatched = run_churn(batch_window=0.0)
    return batched, unbatched


def test_scenario_churn(benchmark):
    batched, unbatched = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    def ratio(result):
        return result.messages_sent / max(1, result.delivery_events)

    table = [
        f"scenario: {batched.name} (crashes + voluntary leaves under load)",
        "delivery scheduling      | msgs sent | sched events | msgs/event | peak heap",
        f"batched (window=0.25)    | {fmt(batched.messages_sent):>9} | "
        f"{fmt(batched.delivery_events):>12} | {fmt(ratio(batched)):>10} | "
        f"{batched.peak_pending_events:>9}",
        f"per-instant only (w=0)   | {fmt(unbatched.messages_sent):>9} | "
        f"{fmt(unbatched.delivery_events):>12} | {fmt(ratio(unbatched)):>10} | "
        f"{unbatched.peak_pending_events:>9}",
        f"app deliveries {batched.deliveries}, simulated events "
        f"{batched.events_processed}, heap compactions {batched.compactions}",
        "all order/view/virtual-synchrony checkers passed at 100 processes / "
        "10 overlapping groups -> the logical-clock bound scales as claimed",
    ]
    RESULTS.add_table("E18 large-scale multi-group churn (scenario engine)", table)

    # Shape assertions: batching must actually coalesce work, and the event
    # heap must stay far below one-entry-per-message.
    assert batched.deliveries > 0
    assert batched.delivery_events < unbatched.delivery_events
    assert ratio(batched) > 1.5
    assert batched.peak_pending_events < batched.messages_sent


def test_scenario_churn_1000_online(benchmark):
    """E19: 1000-process churn verified entirely by the streaming checkers."""
    result = benchmark.pedantic(
        run_churn, kwargs=dict(scale=THOUSAND_SCALE, analysis="online"),
        rounds=1, iterations=1,
    )
    table = [
        f"scenario: {result.name} (crashes + leaves + dynamic formations)",
        f"verification: online ({result.trace_events} trace events streamed, "
        f"{result.trace_events_stored} stored -- no materialized trace)",
        f"messages sent {fmt(result.messages_sent)}, app deliveries "
        f"{result.deliveries}, simulated events {fmt(result.events_processed)}",
        f"heap: peak pending {result.peak_pending_events} "
        f"(live {result.peak_live_pending_events}), compactions {result.compactions}",
        "all order/view/virtual-synchrony checkers passed ONLINE at 1000 "
        "processes / 100 overlapping groups -> verification no longer the "
        "scaling ceiling",
    ]
    RESULTS.add_table("E19 1000-process churn, streaming verification", table)

    assert result.analysis == "online"
    assert result.trace_events_stored == 0
    assert result.deliveries > 0
    assert result.metrics["by_kind"]["deliver"] == result.deliveries


def record_results(scale_name, json_path, parallel=None, observe=None):
    """Run the named scale online and write a JSON result file (CI hook).

    This benchmark is a *single* scenario (one simulation cannot shard),
    so ``--parallel`` routes it through :func:`repro.scenarios.run_scenarios`
    for the pool's crash isolation but caps at one worker; the sharded
    scale runs live in E22 (``bench_parallel_scale.py``).
    """
    start = time.time()
    if (parallel or 1) > 1:
        config = churn_scenario(batch_window=0.25, **SCALES[scale_name])
        result = run_scenarios(
            [config], parallel=parallel, analysis="online", observe=observe
        )[0]
        assert result.passed, result.checks.violations[:3]
    else:
        result = run_churn(scale=SCALES[scale_name], analysis="online", observe=observe)
    payload = {
        "passed": result.passed,
        "analysis": result.analysis,
        "sim_time": result.sim_time,
        "events_processed": result.events_processed,
        "messages_sent": result.messages_sent,
        "deliveries": result.deliveries,
        "delivery_events": result.delivery_events,
        "trace_events": result.trace_events,
        "trace_events_stored": result.trace_events_stored,
        "peak_pending_events": result.peak_pending_events,
        "compactions": result.compactions,
        "metrics": result.metrics,
    }
    if result.obs is not None:
        payload["obs"] = result.obs
    return write_bench_json(
        json_path,
        "scenario_churn",
        scale_name,
        payload,
        config=SCALES[scale_name],
        seed=SCALES[scale_name]["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_scenario_churn.json", SCALES)
    args = parser.parse_args()
    payload = record_results(
        args.scale, args.json, parallel=args.parallel, observe=args.observe
    )
    print(
        f"{payload['benchmark']} [{payload['scale']}] "
        f"passed={payload['passed']} wall={payload['wall_seconds']}s "
        f"deliveries={payload['deliveries']} "
        f"trace_events={payload['trace_events']} (stored "
        f"{payload['trace_events_stored']}) -> {args.json}"
    )


if __name__ == "__main__":
    main()
