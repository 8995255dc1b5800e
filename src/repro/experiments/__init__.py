"""repro.experiments: declarative load and availability sweeps.

Where :mod:`repro.workloads` generates open-loop traffic and
:mod:`repro.scenarios` runs one declarative scenario, this package runs
*grids* of scenarios: a :class:`~repro.experiments.sweep.SweepSpec`
crosses protocol stacks with workload profiles, offered-load points and
fault patterns.  Each cell is a :class:`~repro.scenarios.ScenarioSpec`
built by :func:`~repro.experiments.sweep.cell_scenario` and run by the
:class:`~repro.scenarios.ScenarioEngine` online (streaming verification,
zero stored trace events); :func:`~repro.experiments.sweep.run_sweep`
runs every cell through :func:`repro.parallel.run_units` and aggregates
one JSON-shaped :class:`~repro.experiments.sweep.SweepReport`::

    from repro.experiments import SweepSpec, run_sweep

    report = run_sweep(SweepSpec(
        stacks=("newtop-symmetric", "lamport_ack"),
        profiles=("poisson", "bursty"),
        loads=(0.5, 1.0, 2.0),
        faults=("none", "crash"),
    ))
    assert report.passed
    print(report.curves()["newtop-symmetric"]["poisson"])   # load vs goodput

The report carries per-cell offered/admitted/delivered counts (the
``offered >= admitted >= delivered_unique`` invariant), goodput, latency
percentiles, per-phase deltas, availability during the fault window, and
per-group stall detection -- the raw material of benchmark E21
(``bench_workload_sweep.py``).  ``to_config(cell_scenario(spec, profile,
load, fault))`` shows one cell as a scenario config dict, and
``run_scenario`` of it replays the cell's simulation.
"""

from repro.experiments.sweep import (
    FAULT_PATTERNS,
    SweepReport,
    SweepSpec,
    cell_scenario,
    run_cell,
    run_sweep,
)

__all__ = [
    "FAULT_PATTERNS",
    "SweepReport",
    "SweepSpec",
    "cell_scenario",
    "run_cell",
    "run_sweep",
]
