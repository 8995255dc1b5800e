"""E25 -- the fuzz-campaign smoke gate: the checker oracle finds nothing
on the healthy stack, and provably *would* find a planted bug.

Two arms, both required:

* **Healthy arm** -- a pinned-seed corpus slice of the default-tuning
  generator runs through :func:`repro.scenarios.fuzz.run_campaign`; the
  gate is zero violations and zero execution casualties (stalls are
  tracked, not failed -- the paper's guarantees are safety properties).
  Throughput lands in the JSON as ``specs_per_minute``, the number the
  ROADMAP quotes.
* **Oracle arm** -- the same machinery with a known bug planted (the
  :data:`mutants.naive_view_cut` class patch, reverting a sequencer
  group's step (viii) to the naive lnmn cut with no end-of-view marker)
  must find at least one virtual-synchrony violation within a small
  bounded budget.  A campaign that passes because the
  checkers quietly stopped looking fails here, not in a real regression.

Failures of the healthy arm write replayable artifacts next to the JSON
(``python -m repro.scenarios.fuzz replay <artifact>``).

Run as a script for the CI gate::

    python benchmarks/bench_fuzz_campaign.py --scale smoke \
        --json BENCH_fuzz_campaign.json --parallel 2
"""

import os
import time

from common import benchmark_arg_parser, write_bench_json
from mutants import naive_view_cut

from repro.scenarios.fuzz import GeneratorTuning, run_campaign

#: Pinned corpus: seed 7 is the slice the regression suite also draws
#: from; the smoke count keeps the CI step under a minute.
SMOKE_SCALE = dict(corpus_seed=7, count=60, oracle_budget=8)

#: The local deep-soak shape: the corpus breadth a release check wants.
FULL_SCALE = dict(corpus_seed=7, count=400, oracle_budget=8)

SCALES = {"smoke": SMOKE_SCALE, "full": FULL_SCALE}

#: The oracle arm's tuning: aimed at the view-cut bug's trigger shape
#: (asymmetric groups, open-loop load, crash churn).  It runs under
#: :data:`mutants.naive_view_cut`, serially, so the patch reaches every run.
ORACLE_TUNING = GeneratorTuning(
    min_processes=6,
    max_processes=8,
    max_groups=2,
    min_group_size=4,
    max_group_size=6,
    max_events=4,
    event_weights={"crash": 3.0, "correlated_crash": 2.0, "partition": 1.0},
    asymmetric_probability=1.0,
    open_loop_probability=1.0,
    load_phase_probability=0.0,
    latency_swap_probability=0.0,
    link_fault_probability=0.0,
)


def measure(scale=None, parallel=None, artifact_dir=None):
    """Run both arms; returns the payload (gates not yet enforced)."""
    scale = SMOKE_SCALE if scale is None else scale
    healthy = run_campaign(
        scale["corpus_seed"],
        scale["count"],
        parallel=parallel,
        shrink_failures=True,
        max_shrink=3,
        artifact_dir=artifact_dir,
    )
    with naive_view_cut:
        oracle = run_campaign(
            scale["corpus_seed"],
            scale["oracle_budget"],
            tuning=ORACLE_TUNING,
            shrink_failures=True,
            max_shrink=1,
            shrink_budget=60,
        )
    oracle_shrunk = [f for f in oracle.failures if f.minimized is not None]
    return {
        "corpus_seed": scale["corpus_seed"],
        "count": scale["count"],
        "parallel": parallel or 1,
        "tallies": dict(healthy.tallies),
        "passed": healthy.passed,
        "specs_per_minute": round(healthy.specs_per_minute, 1),
        "campaign_wall_seconds": round(healthy.wall_seconds, 3),
        "failures": [failure.as_dict() for failure in healthy.failures],
        "oracle": {
            "budget": scale["oracle_budget"],
            "violations": oracle.tallies["violation"],
            "violation_kind": (
                oracle.failures[0].violation_kind if oracle.failures else None
            ),
            "shrunk_events": (
                len(oracle_shrunk[0].minimized.get("events", ()))
                if oracle_shrunk
                else None
            ),
            "shrink_runs": (
                oracle_shrunk[0].shrink_runs if oracle_shrunk else None
            ),
        },
    }


def check_gates(payload):
    """Both arms gate the build: clean healthy corpus, sharp oracle."""
    assert payload["passed"], (
        f"fuzz smoke corpus (seed {payload['corpus_seed']}, "
        f"{payload['count']} specs) found failures: {payload['tallies']} -- "
        "replay each artifact with python -m repro.scenarios.fuzz replay"
    )
    oracle = payload["oracle"]
    assert oracle["violations"] >= 1, (
        f"the oracle arm found no violation in {oracle['budget']} specs under "
        f"the {naive_view_cut.name} mutant: the checker oracle has gone blind"
    )
    assert oracle["violation_kind"] == naive_view_cut.caught_by, oracle
    assert oracle["shrunk_events"] is not None and oracle["shrunk_events"] <= 12, (
        f"shrinker left {oracle['shrunk_events']} events in the oracle repro "
        "(expected a minimal repro of at most 12)"
    )


def test_fuzz_campaign(benchmark):
    from common import RESULTS

    payload = benchmark.pedantic(
        measure, kwargs=dict(scale=SMOKE_SCALE, parallel=2),
        rounds=1, iterations=1,
    )
    check_gates(payload)
    oracle = payload["oracle"]
    RESULTS.add_table(
        "E25 checker-oracle fuzz campaign (repro.scenarios.fuzz)",
        [
            f"healthy corpus: seed {payload['corpus_seed']} x "
            f"{payload['count']} specs -> {payload['tallies']} at "
            f"{payload['specs_per_minute']} specs/min (parallel "
            f"{payload['parallel']})",
            f"oracle arm ({naive_view_cut.name} mutant): "
            f"{oracle['violations']} {oracle['violation_kind']} violation(s) "
            f"within {oracle['budget']} specs, shrunk to "
            f"{oracle['shrunk_events']} event(s) in {oracle['shrink_runs']} "
            "runs",
        ],
    )


def record_results(scale_name, json_path, parallel=None, observe=None):
    """Measure, enforce the gates, write the JSON (CI hook)."""
    scale = SCALES[scale_name]
    artifact_dir = os.path.join(
        os.path.dirname(os.path.abspath(json_path)) or ".", "fuzz-artifacts"
    )
    start = time.time()
    payload = measure(scale, parallel=parallel, artifact_dir=artifact_dir)
    check_gates(payload)
    return write_bench_json(
        json_path,
        "fuzz_campaign",
        scale_name,
        payload,
        config=dict(scale),
        seed=scale["corpus_seed"],
        wall_seconds=time.time() - start,
    )


def main():
    parser = benchmark_arg_parser(__doc__, "BENCH_fuzz_campaign.json", SCALES)
    args = parser.parse_args()
    payload = record_results(args.scale, args.json, parallel=args.parallel)
    oracle = payload["oracle"]
    print(
        f"{payload['benchmark']} [{payload['scale']}]: "
        f"{payload['count']} specs {payload['tallies']} at "
        f"{payload['specs_per_minute']} specs/min (parallel "
        f"{payload['parallel']}); oracle arm: {oracle['violations']} "
        f"{oracle['violation_kind']} violation(s) in {oracle['budget']} specs, "
        f"shrunk to {oracle['shrunk_events']} event(s) -> {args.json}"
    )


if __name__ == "__main__":
    main()
