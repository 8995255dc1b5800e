"""E24 -- the observation-overhead gate: metrics must ride for ~free.

The contract of :mod:`repro.obs` is that instrumentation is cheap enough
to leave on: every hot-path touch point is a cached attribute bump (or an
``is None`` check when observation is off), polled gauges are evaluated
only at sampling instants, and the sampler itself schedules ordinary
simulator events.  This benchmark *enforces* that contract in CI: it runs
the same churn scenario with observation off, with the metrics registry +
simulated-time sampler attached, and with 1-in-64 journey sampling on top
(``observe="journeys"``), all interleaved, takes the **minimum of N
rounds** per arm (minimum is the right wall-clock estimator -- noise only
ever adds time), and fails when the metrics arm is more than
``--tolerance`` (default 10%) slower or the journeys arm more than
``--journeys-tolerance`` (default 15%) slower.

The two arms are seed-identical by construction (pinned functionally by
``tests/test_hot_path_equivalence.py``); this gate pins the *cost* side,
so a future change that accidentally turns a counter bump into a dict
lookup per event shows up in the PR that introduces it.

Run as a script for the CI gate::

    python benchmarks/bench_obs_overhead.py --scale smoke \
        --json BENCH_obs_overhead.json
"""

import time

from common import benchmark_arg_parser, write_bench_json

from repro.scenarios import churn_scenario, run_scenario

#: The gate's workload: the E18 churn shape grown to 600 processes across
#: 60 overlapping groups, so that one unobserved round is a little over a
#: second on a two-core box (1.26 s; 70k messages, 18k trace events) --
#: long enough for a 10% ratio to be meaningful.  The shape is re-sized
#: whenever the protocol gets cheaper: at 100 processes a round had shrunk
#: to 0.17 s of 3,258 trace events and the gate measured the box.
SMOKE_SCALE = dict(
    n_processes=600,
    n_groups=60,
    group_size=12,
    crashes=3,
    leaves=3,
    messages_per_sender=2,
    seed=7,
)

#: The E19 thousand-process shape, for local deep measurement.
FULL_SCALE = dict(
    n_processes=1000,
    n_groups=100,
    group_size=12,
    crashes=5,
    leaves=5,
    formations=3,
    messages_per_sender=1,
    seed=7,
)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}

#: The gate: metrics-enabled wall clock within 10% of the unobserved run.
DEFAULT_TOLERANCE = 0.10

#: The journeys arm's gate: metrics + sampler + 1-in-64 journey sampling
#: within 15% of the unobserved run (the per-message hooks cost one dict
#: miss for the 63-in-64 untracked majority).
DEFAULT_JOURNEYS_TOLERANCE = 0.15

#: Rounds per arm; the minimum is kept.  Five rounds rather than three:
#: the true overhead measures ~3-4%, but with few rounds a noisy neighbour
#: can gift the baseline arm one lucky-fast round and push the ratio past
#: the ceiling; more rounds converge both minimums.
DEFAULT_ROUNDS = 5


def _run_once(scale, observe):
    """One online churn run; returns (wall_seconds, behaviour fingerprint).

    The fingerprint is what observation must NOT change: deliveries,
    messages and trace events.  ``events_processed`` is deliberately
    excluded -- the sampler's own ticks are simulator events, the one
    addition observation is allowed.
    """
    config = churn_scenario(batch_window=0.25, **scale)
    start = time.perf_counter()
    result = run_scenario(config, analysis="online", observe=observe)
    wall = time.perf_counter() - start
    assert result.passed, result.checks.violations[:3]
    return wall, (result.deliveries, result.messages_sent, result.trace_events)


def measure(scale=None, rounds=DEFAULT_ROUNDS):
    """Interleaved baseline/metrics/journeys rounds; min-of-N per arm.

    Interleaving (off, metrics, journeys, off, metrics, journeys, ...)
    rather than running each arm in a block keeps slow drift -- thermal
    throttling, a noisy CI neighbour -- from loading one arm more than
    the others.
    """
    scale = SMOKE_SCALE if scale is None else scale
    baseline_walls, observed_walls, journey_walls = [], [], []
    fingerprint = None
    for _ in range(rounds):
        wall, fingerprint = _run_once(scale, observe=None)
        baseline_walls.append(wall)
        wall, observed_fingerprint = _run_once(scale, observe="metrics")
        observed_walls.append(wall)
        assert observed_fingerprint == fingerprint, (
            "observation changed the run: "
            f"{observed_fingerprint} != {fingerprint}"
        )
        wall, journeys_fingerprint = _run_once(scale, observe="journeys")
        journey_walls.append(wall)
        assert journeys_fingerprint == fingerprint, (
            "journey tracing changed the run: "
            f"{journeys_fingerprint} != {fingerprint}"
        )
    baseline = min(baseline_walls)
    observed = min(observed_walls)
    journeys = min(journey_walls)
    deliveries, messages_sent, trace_events = fingerprint
    return {
        "rounds": rounds,
        "deliveries": deliveries,
        "messages_sent": messages_sent,
        "trace_events": trace_events,
        "baseline_seconds": round(baseline, 4),
        "observed_seconds": round(observed, 4),
        "journeys_seconds": round(journeys, 4),
        "baseline_rounds": [round(w, 4) for w in baseline_walls],
        "observed_rounds": [round(w, 4) for w in observed_walls],
        "journeys_rounds": [round(w, 4) for w in journey_walls],
        "overhead_ratio": round(observed / baseline, 4) if baseline else None,
        "overhead_ratio_journeys": (
            round(journeys / baseline, 4) if baseline else None
        ),
    }


def check_gate(payload, tolerance=DEFAULT_TOLERANCE,
               journeys_tolerance=DEFAULT_JOURNEYS_TOLERANCE):
    """Assert both observed arms are within tolerance of the baseline."""
    ratio = payload["overhead_ratio"]
    ceiling = 1.0 + tolerance
    assert ratio is not None and ratio <= ceiling, (
        f"metrics+sampler overhead gate failed: observed run is {ratio:.3f}x "
        f"the unobserved baseline (ceiling {ceiling:.2f}x) -- "
        f"baseline min {payload['baseline_seconds']}s over "
        f"{payload['baseline_rounds']}, observed min "
        f"{payload['observed_seconds']}s over {payload['observed_rounds']}; "
        "an instrument on the hot path got more expensive than a cached "
        "attribute bump"
    )
    journeys_ratio = payload["overhead_ratio_journeys"]
    journeys_ceiling = 1.0 + journeys_tolerance
    assert journeys_ratio is not None and journeys_ratio <= journeys_ceiling, (
        f"journey-sampling overhead gate failed: the journeys arm is "
        f"{journeys_ratio:.3f}x the unobserved baseline "
        f"(ceiling {journeys_ceiling:.2f}x) -- journeys min "
        f"{payload['journeys_seconds']}s over {payload['journeys_rounds']}; "
        "a journey hook got more expensive than one dict miss per "
        "untracked message"
    )
    return ceiling


def record_results(scale_name, json_path, parallel=None, observe=None,
                   tolerance=DEFAULT_TOLERANCE, rounds=DEFAULT_ROUNDS,
                   journeys_tolerance=DEFAULT_JOURNEYS_TOLERANCE):
    """Measure, enforce the gates, write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    start = time.time()
    payload = measure(scale, rounds=rounds)
    payload["tolerance"] = tolerance
    payload["journeys_tolerance"] = journeys_tolerance
    payload["gate_ceiling"] = check_gate(payload, tolerance, journeys_tolerance)
    payload["journeys_gate_ceiling"] = 1.0 + journeys_tolerance
    return write_bench_json(
        json_path,
        "obs_overhead",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_obs_overhead.json", SCALES)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional overhead of the observed arm "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS,
        help="rounds per arm; the minimum wall clock is kept "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--journeys-tolerance", type=float, default=DEFAULT_JOURNEYS_TOLERANCE,
        help="allowed fractional overhead of the journey-sampling arm "
        "(default: %(default)s)",
    )
    args = parser.parse_args()
    payload = record_results(
        args.scale, args.json, tolerance=args.tolerance, rounds=args.rounds,
        journeys_tolerance=args.journeys_tolerance,
    )
    print(
        f"{payload['benchmark']} [{payload['scale']}]: baseline "
        f"{payload['baseline_seconds']}s vs metrics+sampler "
        f"{payload['observed_seconds']}s -> {payload['overhead_ratio']}x "
        f"(gate {payload['gate_ceiling']:.2f}x); journeys arm "
        f"{payload['journeys_seconds']}s -> "
        f"{payload['overhead_ratio_journeys']}x "
        f"(gate {payload['journeys_gate_ceiling']:.2f}x) over "
        f"{payload['messages_sent']} messages -> {args.json}"
    )


if __name__ == "__main__":
    main()
