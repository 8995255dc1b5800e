"""Declarative large-scale scenario engine.

This package turns config dicts into verified simulation runs: a scenario
names its processes, its (possibly overlapping, possibly mixed-mode)
groups, a background workload, and a timed list of fault and membership
events -- churn, cascading partitions, merge storms, lossy windows,
sequencer migration.  The engine runs the scenario on a fresh
:class:`repro.api.Session` over any protocol stack, samples the runtime's
health while it runs, and evaluates the correctness predicates the stack's
guarantees claim (for Newtop: total order, view agreement, virtual
synchrony), deriving the per-group agreement sets from the event list
automatically.  Events the stack has no capability for raise
:class:`repro.api.UnsupportedScenarioEvent` (or are skipped with a
recorded warning under ``on_unsupported="skip"``).

Quick start::

    from repro.scenarios import churn_scenario, run_scenario

    result = run_scenario(churn_scenario(n_processes=100, n_groups=10))
    assert result.passed, result.checks.violations

    # The same scenario on a §6 baseline, verified per its own guarantees:
    result = run_scenario(
        churn_scenario(n_processes=100, n_groups=10),
        stack="fixed_sequencer", analysis="online", on_unsupported="skip",
    )

See :mod:`repro.scenarios.spec` for the config-dict format and
:mod:`repro.scenarios.library` for the ready-made scenario generators.
:mod:`repro.scenarios.report` (``RollingReport``, a batch's progress
callback) loads on first access through the module ``__getattr__``.
"""

import importlib
from typing import Any

from repro.scenarios.engine import (
    SCENARIO_PROTOCOL_DEFAULTS,
    RuntimeSample,
    ScenarioEngine,
    ScenarioExecutionError,
    ScenarioFailure,
    ScenarioResult,
    run_scenario,
    run_scenarios,
)
from repro.scenarios.library import (
    cascading_partitions_scenario,
    churn_scenario,
    merge_storm_scenario,
    migration_under_load_scenario,
    mixed_modes_scenario,
    ring_overlap_groups,
)
from repro.scenarios.spec import (
    FORMATION_WORKLOAD_GRACE,
    SCENARIO_SCHEMA_VERSION,
    GroupSpec,
    InvalidScenarioSpec,
    ScenarioEvent,
    ScenarioSpec,
    WorkloadSpec,
    from_config,
    to_config,
)

__all__ = [
    "FORMATION_WORKLOAD_GRACE",
    "SCENARIO_PROTOCOL_DEFAULTS",
    "SCENARIO_SCHEMA_VERSION",
    "RuntimeSample",
    "ScenarioEngine",
    "ScenarioExecutionError",
    "ScenarioFailure",
    "ScenarioResult",
    "RollingReport",
    "VIOLATION_LIMIT",
    "run_scenario",
    "run_scenarios",
    "cascading_partitions_scenario",
    "churn_scenario",
    "merge_storm_scenario",
    "migration_under_load_scenario",
    "mixed_modes_scenario",
    "ring_overlap_groups",
    "GroupSpec",
    "InvalidScenarioSpec",
    "ScenarioEvent",
    "ScenarioSpec",
    "WorkloadSpec",
    "from_config",
    "to_config",
]

#: Exported names whose modules load on first access (PEP 562).
_LAZY_EXPORTS = {
    "RollingReport": "repro.scenarios.report",
    "VIOLATION_LIMIT": "repro.scenarios.report",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
