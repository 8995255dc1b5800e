"""CLI for the scenario fuzzer.

Subcommands::

    python -m repro.scenarios.fuzz run --seed 7 --count 50 --parallel 4 \\
        --artifact-dir artifacts --json campaign.json
    python -m repro.scenarios.fuzz gen --seed 7 --index 3
    python -m repro.scenarios.fuzz replay artifacts/fuzz-7-00003-violation.json

``run`` exits non-zero when the campaign found violations or execution
casualties (the CI smoke gate); ``replay`` exits non-zero when a full
artifact's recorded violation kind fails to reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.scenarios.fuzz.campaign import replay_artifact, run_campaign
from repro.scenarios.fuzz.generator import GeneratorTuning, generate_config


def _add_tuning_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-events", type=int, default=None,
                        help="event budget per generated spec")
    parser.add_argument("--max-processes", type=int, default=None,
                        help="process-count ceiling per generated spec")


def _tuning(args: argparse.Namespace) -> GeneratorTuning:
    overrides = {}
    if args.max_events is not None:
        overrides["max_events"] = args.max_events
    if args.max_processes is not None:
        overrides["max_processes"] = args.max_processes
    return GeneratorTuning.from_config({**GeneratorTuning().to_config(), **overrides})


def _cmd_run(args: argparse.Namespace) -> int:
    def progress(row) -> None:
        status = row["status"]
        marker = "." if status == "pass" else status[0].upper()
        sys.stdout.write(marker)
        sys.stdout.flush()

    report = run_campaign(
        corpus_seed=args.seed,
        count=args.count,
        tuning=_tuning(args),
        parallel=args.parallel,
        timeout=args.timeout,
        stack=args.stack,
        shrink_failures=not args.no_shrink,
        max_shrink=args.max_shrink,
        artifact_dir=args.artifact_dir,
        progress=progress,
    )
    print()
    tallies = " ".join(f"{k}={v}" for k, v in report.tallies.items())
    print(
        f"fuzz campaign seed={report.corpus_seed} count={report.count}: {tallies} "
        f"({report.specs_per_minute:.1f} specs/min, {report.wall_seconds:.1f}s)"
    )
    for failure in report.failures:
        head = failure.violations[0] if failure.violations else failure.error
        print(f"  [{failure.status}] index={failure.index} "
              f"kind={failure.violation_kind}: {head}")
        if failure.artifact:
            print(f"    artifact: {failure.artifact}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    config = generate_config(args.seed, args.index, _tuning(args))
    print(json.dumps(config, indent=2, sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    verdict = replay_artifact(args.artifact, stack=args.stack)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    if verdict["reproduced"] is None:
        return 0 if verdict["passed"] else 1
    return 0 if verdict["reproduced"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.fuzz",
        description="Checker-oracle scenario fuzzing with automatic shrinking.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a fuzz campaign")
    run_parser.add_argument("--seed", type=int, default=7, help="corpus seed")
    run_parser.add_argument("--count", type=int, default=50,
                            help="number of corpus entries to run")
    run_parser.add_argument("--parallel", type=int, default=1,
                            help="worker pool size (1 = serial)")
    run_parser.add_argument("--timeout", type=float, default=120.0,
                            help="per-spec wall-clock timeout (seconds)")
    run_parser.add_argument("--stack", default="newtop")
    run_parser.add_argument("--artifact-dir", default=None,
                            help="write replayable artifacts for failures here")
    run_parser.add_argument("--json", default=None,
                            help="write the campaign report JSON here")
    run_parser.add_argument("--no-shrink", action="store_true",
                            help="skip delta-debugging violations")
    run_parser.add_argument("--max-shrink", type=int, default=3,
                            help="violations to shrink at most")
    _add_tuning_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    gen_parser = commands.add_parser(
        "gen", help="print the spec config for one corpus entry")
    gen_parser.add_argument("--seed", type=int, required=True)
    gen_parser.add_argument("--index", type=int, required=True)
    _add_tuning_arguments(gen_parser)
    gen_parser.set_defaults(handler=_cmd_gen)

    replay_parser = commands.add_parser(
        "replay", help="replay an artifact (or bare spec config) JSON")
    replay_parser.add_argument("artifact")
    replay_parser.add_argument("--stack", default="newtop")
    replay_parser.set_defaults(handler=_cmd_replay)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
