"""The checker-oracle fuzzer (``repro.scenarios.fuzz``).

Three layers are pinned here:

* **Generation** -- every corpus entry is byte-reproducible from
  ``(corpus_seed, index)`` alone, always passes the strict spec
  validation, and round-trips through the versioned JSON schema.
* **Campaign + replay** -- reports are JSON-shaped, every failure row
  carries a standalone-replayable config, and artifacts replay
  deterministically through the CLI entry points.
* **The mutation harness** -- the end-to-end proof the fuzzer can find a
  real protocol bug: plant a known one (``mutants.naive_view_cut``, a
  sequencer group cutting at ``lnmn`` with no end-of-view marker) and the
  campaign must find a virtual-synchrony violation within a small bounded
  budget and shrink it to a tiny repro that is clean without the mutant,
  and the healthy stack must stay clean on the exact same corpus.

Old carriers of a planted bug (a spec's ``protocol`` naming a removed
switch, a tuning's ``protocol``, the CLI's ``--protocol``) fail loudly.
"""

import copy
import json

import pytest

from mutants import naive_view_cut
from repro.scenarios import ScenarioExecutionError, churn_scenario, run_scenario, run_scenarios
from repro.scenarios.fuzz import (
    GeneratorTuning,
    generate_config,
    generate_spec,
    replay_artifact,
    run_campaign,
    run_fuzz_unit,
)
from repro.scenarios.fuzz import campaign
from repro.scenarios.fuzz.__main__ import main as fuzz_cli
from repro.scenarios.spec import (
    SCENARIO_SCHEMA_VERSION,
    InvalidScenarioSpec,
    from_config,
    to_config,
)

#: The corpus slice the generation tests sweep; wide enough to cover every
#: optional section (events of each kind, load phases, latency swaps, link
#: faults) across the draws.
CORPUS = [(7, index) for index in range(20)] + [(2026, index) for index in range(10)]


# ---------------------------------------------------------------------------
# Generation: determinism + validity
# ---------------------------------------------------------------------------
def test_generated_configs_are_byte_reproducible():
    for seed, index in CORPUS:
        first = json.dumps(generate_config(seed, index), sort_keys=True)
        again = json.dumps(generate_config(seed, index), sort_keys=True)
        assert first == again, f"corpus entry ({seed}, {index}) not reproducible"


def test_generated_configs_always_validate():
    names = set()
    for seed, index in CORPUS:
        spec = generate_spec(seed, index)  # raises InvalidScenarioSpec on a bad draw
        names.add(spec.name)
        assert len(spec.processes) >= 2
        assert spec.groups
    assert len(names) == len(CORPUS)  # every entry is distinctly named


def test_generated_corpus_covers_the_optional_sections():
    """The default tuning must actually exercise the full vocabulary over a
    modest corpus -- a generator that silently stopped drawing link faults
    or load phases would hollow the campaign out without failing anything."""
    kinds = set()
    sections = set()
    for index in range(60):
        config = generate_config(7, index)
        for event in config.get("events", ()):
            kinds.add(event["kind"])
        for section in ("load_phases", "latency", "link_faults"):
            if section in config:
                sections.add(section)
    assert {"crash", "partition", "form_group", "leave", "isolate"} <= kinds
    assert sections == {"load_phases", "latency", "link_faults"}


def test_tuning_round_trips_and_drives_generation():
    tuning = GeneratorTuning(
        max_events=2,
        max_processes=6,
        asymmetric_probability=1.0,
        drain=25.0,
    )
    rebuilt = GeneratorTuning.from_config(tuning.to_config())
    assert rebuilt == tuning
    config = generate_config(7, 0, rebuilt)
    assert len(config["processes"]) <= 6
    assert len(config["events"]) <= 2
    assert config["drain"] == 25.0
    assert "protocol" not in config
    assert all(group["mode"] == "asymmetric" for group in config["groups"])


def test_a_removed_bug_switch_fails_loudly_wherever_it_is_carried(tmp_path, capsys):
    """A planted bug lives only in ``mutants``: an old artifact or spec
    naming the removed view-cut switch must raise, never silently run the
    healthy protocol, and so must the removed tuning and CLI carriers."""
    config = generate_config(7, 0)
    config["protocol"] = {"use_view_cut_marker": False}
    with pytest.raises(TypeError, match="use_view_cut_marker"):
        run_scenario(copy.deepcopy(config))
    artifact = tmp_path / "old-artifact.json"
    artifact.write_text(json.dumps({"spec": config, "violation_kind": "virtual-synchrony"}))
    with pytest.raises(TypeError, match="use_view_cut_marker"):
        replay_artifact(str(artifact))

    with pytest.raises(TypeError, match="protocol"):
        GeneratorTuning.from_config(
            dict(GeneratorTuning().to_config(), protocol={"use_view_cut_marker": False})
        )

    with pytest.raises(SystemExit) as excinfo:
        fuzz_cli(["run", "--count", "1", "--protocol", '{"use_view_cut_marker": false}'])
    assert excinfo.value.code == 2
    assert "--protocol" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Spec schema: versioned JSON round-trip + eager validation
# ---------------------------------------------------------------------------
def test_spec_round_trips_through_versioned_json():
    for seed, index in CORPUS:
        spec = generate_spec(seed, index)
        config = to_config(spec)
        assert config["schema"] == SCENARIO_SCHEMA_VERSION
        wire = json.loads(json.dumps(config, sort_keys=True))  # the artifact path
        assert from_config(wire) == spec


def test_from_config_rejects_unknown_schema_version():
    config = generate_config(7, 0)
    config["schema"] = SCENARIO_SCHEMA_VERSION + 1
    with pytest.raises(InvalidScenarioSpec, match="unsupported scenario schema"):
        from_config(config)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.__setitem__("link_faults", {"drop": 1.5}),
         "drop rate must be within"),
        (lambda c: c.__setitem__("link_faults", {"bogus": 1}),
         "unknown link_faults keys"),
        (lambda c: c.__setitem__("latency", {"median": 0.5}),
         "latency must be a mapping with a 'model'"),
        (lambda c: c.__setitem__("groups", [{"id": "g", "members": ["nobody", "x"]}]),
         "unknown processes"),
    ],
    ids=["fault-rate", "fault-keys", "latency-shape", "group-members"],
)
def test_from_config_validates_eagerly(mutate, message):
    config = generate_config(7, 0)
    mutate(config)
    with pytest.raises(InvalidScenarioSpec, match=message):
        from_config(config)


# ---------------------------------------------------------------------------
# Campaign: healthy corpus, report shape, standalone replay of failures
# ---------------------------------------------------------------------------
def test_healthy_corpus_campaign_is_clean():
    """The CI smoke gate's contract: the unmutated stack passes its own
    checkers on every generated scenario (stalls tracked, not failures)."""
    report = run_campaign(7, 25, shrink_failures=False)
    assert report.passed, [f.as_dict() for f in report.failures]
    assert report.tallies["violation"] == 0
    assert report.tallies["crashed"] == 0
    assert report.tallies["timeout"] == 0
    assert sum(report.tallies.values()) == 25
    assert len(report.rows) == 25
    assert report.specs_per_minute > 0
    # The streaming counters and the final tallies are the same numbers.
    assert report.metrics["counters"]["fuzz.pass"] == report.tallies["pass"]
    json.dumps(report.as_dict())  # the report is JSON-shaped throughout


def test_a_serial_campaign_reports_each_outcome_as_it_lands(monkeypatch):
    """``progress`` hears of a unit, pass or casualty, before the next one
    runs: a long ``fuzz run`` prints as it goes."""
    order = []

    def fake_unit(corpus_seed, index, tuning=None, stack="newtop"):
        order.append(f"run{index}")
        if index == 1:
            raise RuntimeError("engine crash")
        return {"index": index, "status": "pass", "violations": [], "violation_kind": None}

    monkeypatch.setattr(campaign, "run_fuzz_unit", fake_unit)
    report = run_campaign(
        7, 3, shrink_failures=False,
        progress=lambda row: order.append(f"progress{row['index']}"),
    )
    assert order == ["run0", "progress0", "run1", "progress1", "run2", "progress2"]
    assert (report.tallies["pass"], report.tallies["crashed"]) == (2, 1)
    assert [row["status"] for row in report.rows] == ["pass", "crashed", "pass"]
    assert [(failure.index, failure.status) for failure in report.failures] == [(1, "crashed")]
    assert "engine crash" in report.failures[0].error


def test_run_fuzz_unit_row_is_self_describing():
    row = run_fuzz_unit(7, 3)
    assert row["index"] == 3
    assert row["name"] == "fuzz-7-3"
    assert row["status"] in ("pass", "violation", "stall")
    assert row["deliveries"] >= 0 and row["sim_time"] > 0
    # The row's identity fields match a regeneration of the same entry.
    spec = generate_spec(7, 3)
    assert row["seed"] == spec.seed
    assert row["events"] == len(spec.events)


def test_scenario_batch_failures_carry_replay_info():
    """Satellite of the fuzz loop: any parallel batch casualty -- not just
    campaign ones -- surfaces the exact ``(seed, config)`` to replay."""
    good = churn_scenario(n_processes=8, n_groups=2, group_size=4,
                          crashes=0, leaves=0, messages_per_sender=1, seed=2)
    bad = dict(good)
    bad["groups"] = [{"id": "broken", "members": ["nobody", "nothing"]}]
    with pytest.raises(ScenarioExecutionError) as excinfo:
        run_scenarios([good, bad], parallel=2, analysis="online")
    (failure,) = excinfo.value.failures
    assert failure.index == 1
    assert failure.config == bad
    assert failure.seed == bad["seed"]


# ---------------------------------------------------------------------------
# The mutation harness: the fuzzer must catch a re-introduced protocol bug
# ---------------------------------------------------------------------------
#: Tuning aimed at the view-cut bug's trigger shape: asymmetric groups under
#: open-loop load with crash churn.  The bug itself is planted by running
#: under ``naive_view_cut``.
MUTANT_TUNING = GeneratorTuning(
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

#: Small bounded budget: the mutant trips well inside it (index 3 of seed 7).
MUTANT_BUDGET = 8


def test_fuzzer_finds_and_shrinks_a_reintroduced_protocol_bug(tmp_path):
    with naive_view_cut:
        report = run_campaign(
            7,
            MUTANT_BUDGET,
            tuning=MUTANT_TUNING,
            shrink_failures=True,
            max_shrink=1,
            shrink_budget=60,
            artifact_dir=str(tmp_path),
        )
    assert not report.passed
    assert report.tallies["violation"] >= 1

    shrunk = [f for f in report.failures if f.minimized is not None]
    assert shrunk, "no violation was shrunk"
    failure = shrunk[0]
    assert failure.violation_kind == naive_view_cut.caught_by == "virtual-synchrony"
    assert any("virtual synchrony" in v for v in failure.violations)
    # The report names no message; the explainer replays the minimal
    # config and pins the messages the two processes disagree on.
    assert failure.journeys

    # The minimized repro is tiny and carries no protocol override.
    assert len(failure.minimized.get("events", ())) <= 12
    assert "protocol" not in failure.minimized
    assert failure.shrink_runs <= 60

    # The artifact replays standalone under the mutant, reproduces the same
    # violation kind, and does so deterministically; without the mutant the
    # same artifact is clean, so the mutant is the cause.
    assert failure.artifact is not None
    with naive_view_cut:
        first = replay_artifact(failure.artifact)
        again = replay_artifact(failure.artifact)
        # The full (unshrunk) failure config replays the violation too.
        replay = run_scenario(copy.deepcopy(failure.config))
    assert first["reproduced"] is True
    assert first == again
    assert any("virtual synchrony" in v for v in replay.checks.violations)
    healthy = replay_artifact(failure.artifact)
    assert healthy["passed"] is True and healthy["reproduced"] is False


def test_same_corpus_is_clean_without_the_mutation():
    """The control arm: the exact corpus slice that catches the mutant
    passes on the fixed stack, so the harness measures the bug, not the
    generator."""
    report = run_campaign(7, MUTANT_BUDGET, tuning=MUTANT_TUNING, shrink_failures=False)
    assert report.passed, [f.as_dict() for f in report.failures]


# ---------------------------------------------------------------------------
# CLI: gen emits a valid spec, replay verdicts drive the exit code
# ---------------------------------------------------------------------------
def test_cli_gen_prints_the_canonical_config(capsys):
    assert fuzz_cli(["gen", "--seed", "7", "--index", "3"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == generate_config(7, 3)
    from_config(printed)


def test_cli_replay_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(generate_config(7, 0)))
    assert fuzz_cli(["replay", str(clean)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    assert verdict["reproduced"] is None  # bare config: nothing recorded

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(generate_config(7, 3, MUTANT_TUNING)))
    with naive_view_cut:
        assert fuzz_cli(["replay", str(broken)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["violation_kind"] == "virtual-synchrony"
