"""Seeded scenario generation: the fuzzer's input space.

:func:`generate_spec` composes a random-but-valid
:class:`~repro.scenarios.spec.ScenarioSpec` from the full scenario event
vocabulary -- churn (crashes, correlated crash bursts, voluntary leaves),
partitions with delayed heals, permanent isolations, lossy drop windows,
dynamic §5.3 group formations -- plus workload shape (closed-loop rounds
or open-loop profiles, with optional extra load-phase bursts), latency-
model swaps and probabilistic link-fault models.  All randomness derives
from ``random.Random(f"{corpus_seed}:{index}")``, so a spec is
byte-reproducible from the pair ``(corpus_seed, index)`` alone -- the
campaign runner regenerates specs inside pool workers and the shrinker
regenerates them from a failure report, no pickled spec ever travels.

Every generated config goes through the strict
:func:`~repro.scenarios.spec.from_config` validation; generation bugs
surface as :class:`~repro.scenarios.spec.InvalidScenarioSpec`, never as a
mid-run crash that would be indistinguishable from a protocol bug.

The *healthy envelope*
----------------------
The campaign's oracle is "the protocol's own checkers find no violation",
so the generator must stay inside the envelope where a correct stack is
*expected* to pass.  Two rules keep it there (both established
empirically against the unmutated stack):

* A partition heals only after the suspicion machinery has fully resolved
  it (:func:`repro.net.partitions.partition_hold_time` after the split),
  or never.  Healing mid-agreement loses in-flight cross-partition
  messages while views never change -- a *model* violation, not a
  protocol bug.
* Default latency swaps are bounded-tail (constant / uniform / lognormal
  with small sigma) and scaled so the suspicion timeout keeps healthy
  slack; the unbounded exponential tail would produce false suspicion of
  live processes.

Weights and budgets are tunable via :class:`GeneratorTuning` -- the
mutation-harness tests narrow them to aim the generator at a known bug's
trigger shape.  The bug itself is planted by the test side
(``benchmarks/mutants.py``), never by the spec.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.partitions import partition_hold_time
from repro.scenarios.engine import SCENARIO_PROTOCOL_DEFAULTS
from repro.scenarios.spec import ScenarioSpec, from_config

#: Relative likelihood of each event kind the generator draws.  ``drop``
#: (the one-directional lossy window) defaults to a small weight: it is in
#: the vocabulary, but long one-sided loss is the most model-hostile event
#: and earns proportionally less of the budget.
DEFAULT_EVENT_WEIGHTS: Mapping[str, float] = {
    "crash": 3.0,
    "correlated_crash": 1.0,
    "leave": 1.5,
    "partition": 1.5,
    "isolate": 1.0,
    "form_group": 1.0,
    "drop": 0.5,
}

#: How long a generated partition or drop window lasts at least (the
#: healthy envelope at the scenario engine's suspicion timeout).
_HOLD = partition_hold_time(float(SCENARIO_PROTOCOL_DEFAULTS["suspicion_timeout"]))

#: Bounded-tail latency swap menu: (model, option ranges).  Exponential is
#: deliberately absent (unbounded tail => false suspicion of live
#: processes under the scenario protocol defaults).
_LATENCY_MENU: Tuple[Tuple[str, Mapping[str, Tuple[float, float]]], ...] = (
    ("constant", {"delay": (0.3, 1.2)}),
    ("uniform", {"low": (0.2, 0.6), "high": (1.0, 2.0)}),
    ("lognormal", {"median": (0.5, 1.1), "sigma": (0.15, 0.35)}),
)

_OPEN_LOOP_PROFILES = ("poisson", "bursty", "uniform")


@dataclass(frozen=True)
class GeneratorTuning:
    """Weights and scale budgets for :func:`generate_spec`.

    The defaults describe the *healthy-envelope* smoke corpus (the CI gate
    expects zero violations from it); tests narrow the ranges to target a
    specific bug shape.  The whole object round-trips through
    :meth:`to_config` / :meth:`from_config` so it can ride to pool workers
    as a plain dict.
    """

    #: Process-count budget (inclusive range).
    min_processes: int = 5
    max_processes: int = 10
    #: Static group-count budget (at least 1).
    max_groups: int = 3
    min_group_size: int = 3
    max_group_size: int = 6
    #: Fault/membership event budget per spec (the generator may draw
    #: fewer when the envelope rules run out of eligible targets).
    max_events: int = 6
    #: Relative event-kind likelihoods (missing kinds get weight 0).
    event_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_EVENT_WEIGHTS)
    )
    #: Probability a group is asymmetric (sequencer-based) ordering.
    asymmetric_probability: float = 0.5
    #: Probability the primary workload is an open-loop profile.
    open_loop_probability: float = 0.5
    #: Probability of appending one extra open-loop load-phase burst.
    load_phase_probability: float = 0.3
    #: Probability of swapping the latency model (bounded-tail menu).
    latency_swap_probability: float = 0.25
    #: Probability of attaching a link-fault model.
    link_fault_probability: float = 0.25
    #: Per-message fault-rate ceilings for generated link-fault models.
    #: Drop defaults to 0: message loss outside crash/partition breaks the
    #: paper's reliable-FIFO transport assumption, so the healthy corpus
    #: keeps it off; raise it deliberately to explore out-of-model runs.
    link_fault_drop_max: float = 0.0
    link_fault_reorder_max: float = 0.15
    link_fault_duplicate_max: float = 0.15
    #: Open-loop rate range (multicast attempts / time unit per group).
    rate_range: Tuple[float, float] = (1.0, 4.0)
    #: Open-loop client window range.
    duration_range: Tuple[float, float] = (14.0, 24.0)
    #: Senders per group (inclusive range; closed- and open-loop).
    senders_range: Tuple[int, int] = (2, 3)
    #: Closed-loop rounds per sender (inclusive range).
    rounds_range: Tuple[int, int] = (2, 4)
    #: Time window fault/membership events are drawn from.
    event_window: Tuple[float, float] = (3.0, 10.0)
    #: Settling time after the last send/event before checking.
    drain: float = 40.0

    def to_config(self) -> Dict[str, object]:
        """Plain-dict form (picklable / JSON-shaped)."""
        config = asdict(self)
        config["event_weights"] = dict(self.event_weights)
        return config

    @classmethod
    def from_config(cls, config: Optional[Mapping[str, object]]) -> "GeneratorTuning":
        if config is None:
            return cls()
        if isinstance(config, cls):
            return config
        kwargs = dict(config)
        for key in ("rate_range", "duration_range", "senders_range",
                    "rounds_range", "event_window"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def spec_rng(corpus_seed: int, index: int) -> random.Random:
    """The dedicated RNG for corpus entry ``(corpus_seed, index)``."""
    return random.Random(f"{corpus_seed}:{index}")


def _weighted_kind(rng: random.Random, weights: Mapping[str, float]) -> Optional[str]:
    kinds = [kind for kind, weight in sorted(weights.items()) if weight > 0]
    if not kinds:
        return None
    totals = [weights[kind] for kind in kinds]
    return rng.choices(kinds, weights=totals, k=1)[0]


def _groups(
    rng: random.Random, tuning: GeneratorTuning, processes: Sequence[str]
) -> List[Dict[str, object]]:
    count = rng.randint(1, max(1, tuning.max_groups))
    groups: List[Dict[str, object]] = []
    for index in range(count):
        size = rng.randint(
            min(tuning.min_group_size, len(processes)),
            min(tuning.max_group_size, len(processes)),
        )
        members = rng.sample(list(processes), size)
        mode = (
            "asymmetric"
            if rng.random() < tuning.asymmetric_probability
            else "symmetric"
        )
        groups.append({"id": f"g{index:02d}", "members": members, "mode": mode})
    return groups


def _workload(rng: random.Random, tuning: GeneratorTuning) -> Dict[str, object]:
    senders = rng.randint(*tuning.senders_range)
    if rng.random() < tuning.open_loop_probability:
        return {
            "profile": rng.choice(_OPEN_LOOP_PROFILES),
            "rate": round(rng.uniform(*tuning.rate_range), 2),
            "duration": round(rng.uniform(*tuning.duration_range), 1),
            "senders_per_group": senders,
            "start": 1.0,
        }
    return {
        "messages_per_sender": rng.randint(*tuning.rounds_range),
        "senders_per_group": senders,
        "gap": round(rng.uniform(1.5, 2.5), 2),
        "start": 1.0,
    }


def _load_phase(
    rng: random.Random, tuning: GeneratorTuning, after: float
) -> Dict[str, object]:
    return {
        "profile": rng.choice(_OPEN_LOOP_PROFILES),
        "rate": round(rng.uniform(*tuning.rate_range), 2),
        "duration": round(rng.uniform(5.0, 10.0), 1),
        "senders_per_group": rng.randint(*tuning.senders_range),
        "start": round(after + 1.0, 2),
    }


def _latency(rng: random.Random) -> Dict[str, object]:
    model, option_ranges = rng.choice(_LATENCY_MENU)
    config: Dict[str, object] = {"model": model}
    for option, bounds in sorted(option_ranges.items()):
        config[option] = round(rng.uniform(*bounds), 3)
    if model == "uniform" and config["high"] <= config["low"]:
        config["high"] = config["low"] + 0.5
    return config


def _link_faults(
    rng: random.Random, tuning: GeneratorTuning, processes: Sequence[str]
) -> Optional[Dict[str, object]]:
    faults: Dict[str, object] = {"seed": rng.randrange(2**16)}
    if tuning.link_fault_duplicate_max > 0 and rng.random() < 0.8:
        faults["duplicate"] = round(rng.uniform(0.01, tuning.link_fault_duplicate_max), 3)
    if tuning.link_fault_reorder_max > 0 and rng.random() < 0.6:
        faults["reorder"] = round(rng.uniform(0.01, tuning.link_fault_reorder_max), 3)
    if tuning.link_fault_drop_max > 0 and rng.random() < 0.5:
        faults["drop"] = round(rng.uniform(0.005, tuning.link_fault_drop_max), 3)
    if len(faults) == 1:  # seed only -- no rates drawn
        return None
    if rng.random() < 0.3 and len(processes) >= 2:
        # Confine the faults to one directed link instead of the fabric.
        src, dst = rng.sample(list(processes), 2)
        link = {key: faults.pop(key) for key in ("drop", "reorder", "duplicate")
                if key in faults}
        faults["links"] = [{"src": [src], "dst": [dst], **link}]
    return faults


def _events(
    rng: random.Random,
    tuning: GeneratorTuning,
    processes: Sequence[str],
    groups: Sequence[Mapping[str, object]],
) -> List[Dict[str, object]]:
    events: List[Dict[str, object]] = []
    removed: set = set()  # crashed / isolated / departed processes
    #: Cap on removals: keep a majority of the process set alive so every
    #: scenario retains a meaningful stable core.
    removal_budget = max(1, len(processes) // 2)
    partitioned = False
    formed = 0
    count = rng.randint(1, max(1, tuning.max_events))
    for _ in range(count):
        kind = _weighted_kind(rng, tuning.event_weights)
        if kind is None:
            break
        time = round(rng.uniform(*tuning.event_window), 2)
        alive = [name for name in processes if name not in removed]
        if kind in ("crash", "correlated_crash", "isolate", "leave") and (
            len(removed) >= removal_budget or len(alive) <= 3
        ):
            continue
        if kind == "crash":
            target = rng.choice(alive)
            events.append({"time": time, "kind": "crash", "targets": [target]})
            removed.add(target)
        elif kind == "correlated_crash":
            # A correlated failure: several members of one group crash at
            # the same instant (a rack/site loss, not independent churn).
            group = rng.choice(list(groups))
            live_members = [m for m in group["members"] if m not in removed]
            if len(live_members) < 2:
                continue
            burst = rng.sample(
                live_members,
                min(rng.randint(2, 3), len(live_members),
                    removal_budget - len(removed)),
            )
            if len(burst) < 2:
                continue
            events.append({"time": time, "kind": "crash", "targets": sorted(burst)})
            removed.update(burst)
        elif kind == "leave":
            group = rng.choice(list(groups))
            live_members = [m for m in group["members"] if m not in removed]
            if not live_members:
                continue
            target = rng.choice(live_members)
            events.append(
                {"time": time, "kind": "leave", "targets": [target],
                 "group": group["id"]}
            )
        elif kind == "isolate":
            target = rng.choice(alive)
            events.append({"time": time, "kind": "isolate", "targets": [target]})
            removed.add(target)
        elif kind == "partition":
            if partitioned or len(alive) < 4:
                continue  # at most one partition window per spec
            partitioned = True
            minority = rng.sample(alive, rng.randint(1, len(alive) // 2))
            events.append(
                {"time": time, "kind": "partition", "components": [sorted(minority)]}
            )
            # Healthy envelope: heal only after the suspicion machinery has
            # fully resolved the split (or never).
            if rng.random() < 0.6:
                heal_at = time + _HOLD + rng.uniform(0.0, 4.0)
                events.append({"time": round(heal_at, 2), "kind": "heal"})
        elif kind == "drop":
            if len(alive) < 2:
                continue
            src, dst = rng.sample(alive, 2)
            events.append(
                {"time": time, "kind": "drop", "src": [src], "dst": [dst],
                 "duration": round(_HOLD + rng.uniform(0.0, 4.0), 2)}
            )
        elif kind == "form_group":
            if len(alive) < 2:
                continue
            members = rng.sample(alive, min(rng.randint(2, 4), len(alive)))
            events.append(
                {"time": round(rng.uniform(3.0, 8.0), 2), "kind": "form_group",
                 "group": f"fz{formed}", "targets": sorted(members)}
            )
            formed += 1
    return events


def generate_config(
    corpus_seed: int, index: int, tuning: Optional[GeneratorTuning] = None
) -> Dict[str, object]:
    """Generate corpus entry ``(corpus_seed, index)`` as a config dict."""
    tuning = GeneratorTuning.from_config(tuning)
    rng = spec_rng(corpus_seed, index)
    process_count = rng.randint(tuning.min_processes, tuning.max_processes)
    processes = [f"P{position:03d}" for position in range(1, process_count + 1)]
    groups = _groups(rng, tuning, processes)
    workload = _workload(rng, tuning)
    events = _events(rng, tuning, processes, groups)
    config: Dict[str, object] = {
        "schema": 1,
        "name": f"fuzz-{corpus_seed}-{index}",
        "seed": rng.randrange(2**31),
        "processes": processes,
        "groups": groups,
        "workload": workload,
        "events": events,
        "drain": tuning.drain,
    }
    if rng.random() < tuning.load_phase_probability:
        # The extra burst starts after the primary window; from_config
        # validates non-overlap, so compute the primary end here.
        spec_so_far = from_config(config)
        config["load_phases"] = [
            _load_phase(rng, tuning, after=spec_so_far.workload.window()[1])
        ]
    if rng.random() < tuning.latency_swap_probability:
        config["latency"] = _latency(rng)
    if rng.random() < tuning.link_fault_probability:
        link_faults = _link_faults(rng, tuning, processes)
        if link_faults is not None:
            config["link_faults"] = link_faults
    return config


def generate_spec(
    corpus_seed: int, index: int, tuning: Optional[GeneratorTuning] = None
) -> ScenarioSpec:
    """Generate and validate corpus entry ``(corpus_seed, index)``."""
    return from_config(generate_config(corpus_seed, index, tuning))
