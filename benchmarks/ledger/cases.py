"""The four ledger workloads, built on the public ``repro.*`` API only.

Every workload is one *unit* of deterministic simulated work with three
steps the runner times separately:

``build``   input generation plus session/engine/store construction
            (``setup_s``);
``run``     the timed call: run to quiescence and read the verdict;
``collect`` untimed: read the public stats objects, verify the outputs.

All four are open loop *in simulated time*: arrivals are simulator events
scheduled from the workload seed, so the generator is never late (lateness
is 0 by construction) and a slow host changes host time only, never the
simulated outcome.  That is also what lets a run repeat the same unit
several times and demand an identical fingerprint from each repeat.

Every unit also cuts its timed call into *slices* -- one per tenth of a
simulated second (a benchmark-owned simulator event stamps the host clock),
one per spec for the fuzz corpus.  The runner repeats the identical unit and keeps,
per slice, the fastest repeat: this box's noise comes in bursts of seconds
that slow whole units by half, and a slice only needs to be quiet once.

Unit sizes are this 2-core box's (``UNIT_SECONDS`` host-seconds each), so
a 20 s run holds eight repeats of a simulation or four passes over the
fuzz corpus.  ``scale`` shrinks only counts and durations (``--quick``).
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.api import Session
from repro.apps.kv import KVOracle, KVWorkload, Rebalancer, ShardedKV
from repro.core.config import OrderingMode
from repro.core.messages import reset_message_counter
from repro.net.trace import CRASH, VIEW_INSTALL, TraceEvent, TraceSink
from repro.scenarios import ScenarioEngine, churn_scenario, from_config, ring_overlap_groups
from repro.scenarios.fuzz import DEFAULT_EVENT_WEIGHTS, GeneratorTuning, run_fuzz_unit
from repro.workloads import LatencyReservoir, OpenLoopClient, aggregate_counters, get_profile


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cause_counts(obs: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """``transport.sends_by_cause.*`` from an ``observe="metrics"`` run."""
    if not obs:
        return {}
    prefix = "transport.sends_by_cause."
    counters = obs.get("metrics", {}).get("counters", {})
    causes = {
        name[len(prefix):]: value
        for name, value in counters.items()
        if name.startswith(prefix)
    }
    app = causes.get("app_multicast", 0)
    null = causes.get("null_time_silence", 0)
    return {
        "sends_app": app,
        "sends_null": null,
        "sends_membership": sum(causes.values()) - app - null,
    }


def _session_facts(session: Session, result) -> Dict[str, Any]:
    """Exact counts of one online-analysis session, from public stats."""
    stats = session.network.stats
    by_kind = (result.metrics or {}).get("by_kind", {})
    violations = len(result.checks.violations) if result.checks is not None else 0
    return {
        "events": session.sim.events_processed,
        "compactions": session.sim.compactions,
        "msgs_sent": stats.messages_sent,
        "msgs_delivered": stats.messages_delivered,
        "msgs_dropped": stats.messages_dropped,
        "delivery_events": stats.delivery_events,
        "transport_sends": sum(e.stats.sent for e in session.transport.endpoints()),
        "app_sends": by_kind.get("send", 0),
        "null_sends": by_kind.get("null_send", 0),
        "receives": by_kind.get("receive", 0),
        "blocked_sends": by_kind.get("blocked_send", 0),
        "suspicions": by_kind.get("suspect", 0),
        "view_installs": by_kind.get("view_install", 0),
        "formations": by_kind.get("group_formed", 0),
        "deliveries": result.deliveries,
        "trace_events": result.trace_events,
        "trace_events_stored": result.trace_events_stored,
        "violations": violations,
        "sink_errors": len(result.sink_errors),
    }


class _SliceClock:
    """A benchmark-owned simulator event, every ``STEP`` simulated seconds:
    stamps the host clock (the slice boundaries of the timed call) and
    samples the simulator's queue length, so Session-built workloads report
    ``net.simulator.peak_pending`` the way the scenario engine does."""

    #: 5-12 host-ms per slice at the declared sizes: shorter than most of
    #: this box's noise bursts, far longer than the clock's resolution.
    STEP = 0.1

    def __init__(self, sim, until: float) -> None:
        self.sim = sim
        self.until = until
        self.stamps: List[float] = []
        self.peak = 0
        sim.schedule(0.0, self._tick, label="ledger:slice")

    def _tick(self) -> None:
        self.stamps.append(time.perf_counter())
        self.peak = max(self.peak, self.sim.pending_events)
        if self.sim.now < self.until:
            self.sim.schedule(self.STEP, self._tick, label="ledger:slice")


class Case:
    """One workload unit; subclasses fill in build/run/collect."""

    name = ""
    op = ""
    #: Host seconds one unit takes on the box the sizes were chosen on.
    UNIT_SECONDS = 2.5
    #: ``scale`` of a ``--quick`` unit (about one host second).
    QUICK_SCALE = 0.25

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        #: Host-clock stamps of the slice boundaries inside the timed call.
        self.stamps: List[float] = []

    def build(self, observe: object = None) -> None:
        raise NotImplementedError

    def run(self) -> None:
        """The timed call; leaves the slice boundaries in ``stamps``."""
        raise NotImplementedError

    def collect(self) -> Dict[str, Any]:
        """``{"ops", "attempted", "failed", "problems", "facts", "sim"}`` plus,
        from an observed unit, ``"causes"`` (sends by root cause)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# churn_idle
# ----------------------------------------------------------------------
class ViewChangeProbe(TraceSink):
    """Benchmark-owned sink: crash -> last survivor's excluding view.

    Tracks each ``(process, group)`` view from ``view_install`` events and,
    for every injected crash, the first view each survivor installs that
    drops the victim.  ``view_change_sim`` is the latest of those minus the
    crash time, per victim.
    """

    def __init__(self) -> None:
        self.crashed_at: Dict[str, float] = {}
        self._views: Dict[tuple, tuple] = {}
        self._excluded_at: Dict[str, Dict[tuple, float]] = {}

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == VIEW_INSTALL:
            key = (event.process, event.group)
            members = tuple(event.detail("members", ()))
            previous = self._views.get(key, ())
            self._views[key] = members
            for victim in previous:
                if victim in self.crashed_at and victim not in members:
                    self._excluded_at.setdefault(victim, {}).setdefault(key, event.time)
        elif kind == CRASH:
            self.crashed_at.setdefault(event.process, event.time)

    def view_change_times(self) -> List[float]:
        return [
            max(self._excluded_at[victim].values()) - crashed_at
            for victim, crashed_at in sorted(self.crashed_at.items())
            if victim in self._excluded_at
        ]


class ChurnIdle(Case):
    """Overlapping groups idling under crash/leave/formation churn."""

    name = "churn_idle"
    op = "one application message delivered at one member"
    CRASHES = 6

    def build(self, observe: object = None) -> None:
        processes = max(40, int(round(500 * self.scale / 20.0)) * 20)
        config = churn_scenario(
            n_processes=processes,
            n_groups=processes // 20,
            group_size=12,
            crashes=self.CRASHES,
            leaves=6,
            formations=3,
            messages_per_sender=1,
            seed=self.seed,
        )
        self.probe = ViewChangeProbe()
        spec = from_config(config)
        self.engine = ScenarioEngine(
            spec, analysis="online", sinks=[self.probe], observe=observe
        )
        self.clock = _SliceClock(self.engine.session.sim, spec.horizon())

    def run(self) -> None:
        self.result = self.engine.run()
        self.stamps = self.clock.stamps

    def collect(self) -> Dict[str, Any]:
        result = self.result
        session = self.engine.session
        facts = _session_facts(session, session.result())
        facts["peak_pending"] = result.peak_pending_events
        latency = (result.metrics or {}).get("latency", {})
        view_changes = self.probe.view_change_times()
        problems = []
        if not result.passed:
            problems.append(f"checker verdict failed: {result.checks.violations[:2]}")
        if result.trace_events_stored:
            problems.append(f"{result.trace_events_stored} trace events stored")
        if len(view_changes) != len(self.probe.crashed_at):
            problems.append("a crashed member was never excluded by its survivors")
        return {
            "ops": result.deliveries,
            "attempted": result.deliveries,
            "failed": 0,
            "problems": problems,
            "facts": facts,
            "causes": _cause_counts(result.obs),
            "sim": {
                "msgs_per_delivery": _ratio(result.messages_sent, result.deliveries),
                "latency_p50_sim": latency.get("p50"),
                "latency_p99_sim": latency.get("p99"),
                "latency_samples": latency.get("count", 0),
                "view_change_sim": statistics.median(view_changes) if view_changes else None,
            },
        }


# ----------------------------------------------------------------------
# stream_busy
# ----------------------------------------------------------------------
class StreamBusy(Case):
    """Every member of eight overlapping groups multicasting at rate."""

    name = "stream_busy"
    op = "one delivery"
    PROCESSES = 48
    GROUPS = 8
    GROUP_SIZE = 12
    RATE = 25.0
    DRAIN = 6.0

    def build(self, observe: object = None) -> None:
        reset_message_counter()
        self.duration = 14.0 * self.scale
        session = Session("newtop", seed=self.seed, analysis="online", observe=observe)
        names = [f"P{index:03d}" for index in range(self.PROCESSES)]
        session.spawn(names)
        self.clients = []
        for index, group in enumerate(
            ring_overlap_groups(names, self.GROUPS, self.GROUP_SIZE)
        ):
            session.group(group["id"], group["members"])
            client = session.attach_client(
                OpenLoopClient(
                    get_profile("poisson", rate=self.RATE),
                    group["members"],
                    [group["id"]],
                    seed=self.seed * 9973 + index,
                    start=1.0,
                    duration=self.duration,
                    name=f"{group['id']}-client",
                )
            )
            client.start()
            self.clients.append(client)
        self.horizon = 1.0 + self.duration + self.DRAIN
        self.clock = _SliceClock(session.sim, self.horizon)
        self.session = session

    def run(self) -> None:
        self.session.run(self.horizon)
        self.result = self.session.result()
        self.stamps = self.clock.stamps

    def collect(self) -> Dict[str, Any]:
        result = self.result
        facts = _session_facts(self.session, result)
        facts["peak_pending"] = self.clock.peak
        load = aggregate_counters(self.clients)
        facts.update(
            offered=load["offered"] + load["skipped"],
            admitted=load["admitted"],
            blocked=load["blocked"],
        )
        latency = LatencyReservoir.merged(c.latency for c in self.clients).summary()
        # No member crashes or leaves here, so every offered multicast owes
        # one delivery at each of the group's members.
        attempted = facts["offered"] * self.GROUP_SIZE
        problems = []
        if not result.passed:
            problems.append(f"checker verdict failed: {result.checks.violations[:2]}")
        if result.trace_events_stored:
            problems.append(f"{result.trace_events_stored} trace events stored")
        return {
            "ops": load["delivered_events"],
            "attempted": attempted,
            "failed": attempted - load["delivered_events"],
            "problems": problems,
            "facts": facts,
            "causes": _cause_counts(result.obs),
            "sim": {
                "msgs_per_delivery": _ratio(result.messages_sent, result.deliveries),
                "latency_p50_sim": latency["p50"],
                "latency_p99_sim": latency["p99"],
                "latency_samples": latency["count"],
            },
        }


# ----------------------------------------------------------------------
# kv_failover_split
# ----------------------------------------------------------------------
class KVFailoverSplit(Case):
    """E26's shape on the public KV API: sequencer crash + live split."""

    name = "kv_failover_split"
    op = "one completed client operation"
    SHARDS = 8
    REPLICAS = 3
    SPARES = 2
    CLIENTS = 4000
    KEYS = 4096
    RATE = 400.0
    DRAIN = 25.0
    PROBE_GAP = 0.25

    def build(self, observe: object = None) -> None:
        reset_message_counter()
        self.duration = 24.0 * self.scale
        layout = {
            f"s{shard}": [f"s{shard}r{replica}" for replica in range(self.REPLICAS)]
            for shard in range(self.SHARDS)
        }
        spares = [f"x{index}" for index in range(self.SPARES)]
        self.oracle = KVOracle()
        session = Session(
            "newtop", seed=self.seed, analysis="online", sinks=[self.oracle],
            observe=observe,
        )
        session.spawn([pid for members in layout.values() for pid in members])
        session.spawn(spares)
        store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
        store.bootstrap(layout)
        self.workload = KVWorkload(
            store,
            clients=self.CLIENTS,
            keys=self.KEYS,
            rate=self.RATE,
            duration=self.duration,
            drain=self.DRAIN,
            read_fraction=0.5,
            zipf_exponent=1.1,
            seed=self.seed,
        )
        self.rebalancer = Rebalancer(store)
        # The hottest key is k0 (Zipf rank 0): its shard is split; the
        # sequencer (smallest member) of another shard crashes.
        self.hot_shard = store.ring.lookup("k0")
        self.crash_shard = next(s for s in sorted(layout) if s != self.hot_shard)
        self.victim = min(layout[self.crash_shard])
        self.probe_key = next(
            key for key in self.workload.keys
            if store.ring.lookup(key) == self.crash_shard
        )
        self.spares = spares
        self.session = session
        self.store = store
        self.crash_at: Optional[float] = None
        self.split = None
        self.probes_sent = 0
        self.first_ack_after_crash: Optional[float] = None

    # The benchmark's own probe: one write every PROBE_GAP to the crash
    # shard, through its first alive replica.
    def _probe(self) -> None:
        sim = self.session.sim
        recovered = self.first_ack_after_crash is not None
        if sim.now < self.probe_until and not (recovered and sim.now >= self.traffic_until):
            sim.schedule(self.PROBE_GAP, self._probe, label="ledger:probe")
        alive = self.store.alive_members(self.crash_shard)
        if not alive:
            return
        self.probes_sent += 1
        issued_at = sim.now

        def on_ack(ack: Dict[str, object]) -> None:
            if (
                ack["status"] == "applied"
                and self.crash_at is not None
                and issued_at >= self.crash_at
                and self.first_ack_after_crash is None
            ):
                self.first_ack_after_crash = sim.now

        self.store.submit(
            client="ledger-probe",
            client_op=self.probes_sent,
            op="set",
            key=self.probe_key,
            value=self.probes_sent,
            via=alive[0],
            callback=on_ack,
        )

    def _crash(self) -> None:
        self.crash_at = self.session.sim.now
        self.session.crash(self.victim)

    def _split(self) -> None:
        coordinator = self.store.alive_members(self.hot_shard)[0]
        self.split = self.rebalancer.split_shard(
            self.hot_shard, f"s{self.SHARDS}", [coordinator, *self.spares]
        )

    def run(self) -> None:
        session = self.session
        sim = session.sim
        session.run(1.0)
        self.workload.start()
        self.traffic_until = sim.now + self.duration
        self.probe_until = self.traffic_until + self.DRAIN
        self.clock = _SliceClock(sim, self.probe_until)
        sim.schedule(0.0, self._probe, label="ledger:probe")
        sim.schedule(self.duration * 0.25, self._crash, label="ledger:crash")
        sim.schedule(self.duration * 0.50, self._split, label="ledger:split")
        session.run(self.duration + self.DRAIN)
        split = self.split
        session.run_until(lambda: split.complete or split.failed is not None, timeout=120.0)
        session.run(5.0)  # let the last acknowledged applies settle everywhere
        self.result = session.result()
        self.stamps = self.clock.stamps

    def collect(self) -> Dict[str, Any]:
        result = self.result
        store = self.store
        workload = self.workload
        counters = workload.counters
        facts = _session_facts(self.session, result)
        facts["peak_pending"] = self.clock.peak
        oracle = self.oracle.summary()
        facts["violations"] += oracle["violations"]
        completed = counters["completed_reads"] + counters["completed_writes"]
        attempted = counters["offered"] + counters["blocked_all_busy"]
        facts.update(
            offered=attempted,
            admitted=counters["offered"],
            blocked=counters["blocked_all_busy"],
            kv_reads_done=counters["completed_reads"],
            kv_writes_done=counters["completed_writes"],
            kv_stale_refreshes=counters["stale_refreshes"],
            kv_behind_retries=counters["behind_retries"],
            kv_moved_retries=counters["moved_retries"],
            kv_frozen_rejections=store.counters["frozen_rejections"],
            kv_unavailable_rejections=store.counters["unavailable_rejections"],
            kv_moved_keys=self.split.describe().get("moved_keys", 0),
        )
        converged = all(
            store.converged(shard)
            for shard in sorted(store.shards)
            if not store.shards[shard].retired
        )
        problems = []
        if not result.passed:
            problems.append(f"checker verdict failed: {result.checks.violations[:2]}")
        if not oracle["passed"]:
            problems.append(f"KVOracle failed: {oracle['first_violations'][:2]}")
        if result.trace_events_stored:
            problems.append(f"{result.trace_events_stored} trace events stored")
        if not self.split.complete:
            problems.append(f"split did not complete: {self.split.failed}")
        if not converged:
            problems.append("replicas did not converge")
        if self.first_ack_after_crash is None:
            problems.append("no probe write was acknowledged after the crash")
        write_latency = workload.write_latency.summary()
        gap = None
        if self.first_ack_after_crash is not None:
            gap = self.first_ack_after_crash - self.crash_at
        return {
            "ops": completed,
            "attempted": attempted,
            "failed": attempted - completed,
            "problems": problems,
            "facts": facts,
            "causes": _cause_counts(result.obs),
            "sim": {
                "msgs_per_delivery": _ratio(result.messages_sent, result.deliveries),
                "latency_p50_sim": write_latency["p50"],
                "latency_p99_sim": write_latency["p99"],
                "latency_samples": write_latency["count"],
                "failover_gap_sim": gap,
                "split_sim": self.split.duration,
            },
        }


# ----------------------------------------------------------------------
# fuzz_serial
# ----------------------------------------------------------------------
class FuzzSerial(Case):
    """One serial pass over a seeded fuzz corpus, each spec run and checked.

    A slice is one spec.  Per-spec cost is heterogeneous (coefficient of
    variation 0.6 whatever the tuning), so specs/s moves with the corpus
    seed by about 0.6 / sqrt(specs), which asks for a large corpus, while
    the box's noise asks for many passes over it; 150 specs x 4 passes is
    the balance a 20 s run affords.

    The corpus narrows the generator's defaults, each time because the
    default corpus cannot be a benchmark input:

    * ``drop`` windows off and symmetric ordering only -- at the default
      weights about 1 spec in 100 (any corpus seed but the CI-gated 7)
      ends in a checker violation, every one involving a drop window or an
      asymmetric group under a partition/isolation.  Those are findings
      for the fuzzer; a benchmark needs inputs on which no operation fails.
    * closed-loop workloads only -- open-loop specs cost 2-3x the rest and
      make specs/s swing +-15% between corpus seeds; without them the
      spread is about 3%.
    """

    name = "fuzz_serial"
    op = "one spec run and checked"
    SPECS = 150
    UNIT_SECONDS = 5.0
    QUICK_SCALE = 0.2

    def build(self, observe: object = None) -> None:
        weights = dict(DEFAULT_EVENT_WEIGHTS, drop=0.0)
        self.tuning = GeneratorTuning(
            event_weights=weights,
            asymmetric_probability=0.0,
            open_loop_probability=0.0,
            load_phase_probability=0.0,
        ).to_config()
        self.count = max(10, int(round(self.SPECS * self.scale)))
        self.rows: List[Dict[str, object]] = []

    def run(self) -> None:
        for index in range(self.count):
            self.rows.append(run_fuzz_unit(self.seed, index, tuning=self.tuning))
            self.stamps.append(time.perf_counter())

    def collect(self) -> Dict[str, Any]:
        rows = self.rows
        deliveries = sum(row["deliveries"] for row in rows)
        msgs_sent = sum(row["messages_sent"] for row in rows)
        bad = [row for row in rows if row["status"] != "pass"]
        facts = {
            "msgs_sent": msgs_sent,
            "deliveries": deliveries,
            "violations": sum(1 for row in bad if row["status"] == "violation"),
            "fuzz_specs": len(rows),
            "fuzz_stalls": sum(1 for row in bad if row["status"] == "stall"),
            "fuzz_per_spec": [[row["deliveries"], row["messages_sent"]] for row in rows],
        }
        problems = [
            f"spec {row['index']} {row['status']}: {row['violations'][:1]}"
            for row in bad
            if row["status"] == "violation"
        ][:3]
        return {
            "ops": len(rows),
            "attempted": len(rows),
            "failed": len(bad),
            "problems": problems,
            "facts": facts,
            "sim": {"msgs_per_delivery": _ratio(msgs_sent, deliveries)},
        }


CASES = {
    case.name: case for case in (ChurnIdle, StreamBusy, KVFailoverSplit, FuzzSerial)
}

def fingerprint(collected: Dict[str, Any]) -> str:
    """sha256 over every exact simulated number of one unit."""
    exact = {
        "ops": collected["ops"],
        "attempted": collected["attempted"],
        "failed": collected["failed"],
        "facts": collected["facts"],
        "sim": collected["sim"],
    }
    canonical = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
