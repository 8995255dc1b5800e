"""Every option has two values in use, and one seam carries observation.

Each field of ``NewtopConfig`` and ``NetworkConfig`` and each keyword of
``Observation`` must be read somewhere under ``src/repro`` off the line that
defines it, and be given a value other than its default somewhere under
``src``, ``benchmarks``, ``examples`` or ``tests``.  An option nothing sets
is a constant; one nothing reads is nothing at all.

The transport hands each channel's handler runs of same-instant arrivals
through one registration method, and keeps no per-endpoint tally that
nothing outside it reads.

The protocol and the substrate report to the trace recorder and know nobody
behind it: no module under ``repro.core`` or ``repro.net`` imports
``repro.obs`` or names a ``journeys`` handle, and every lifecycle kind of
:mod:`repro.net.trace` is both reported from somewhere under ``src`` and
named by some sink's ``KINDS``.

§4.2's sequencer failover lives behind the asymmetric engine: no module of
``repro.core`` but ``asymmetric.py`` names the asymmetric mode (``config.py``
defines it), and the
group endpoint names neither the sequencer nor the failover's state.  The
engine answers the endpoint's hooks from its class alone, so a planted bug
patched onto the class (``benchmarks/mutants.py``) reaches every engine.

A finished run is freed by reference counting, not by the cycle
collector: no module under ``src/repro`` imports ``gc``, and only
``Observation.coerce`` builds an ``Observation``, so the session that
coerced it is its one owner.

Every run has one verdict path, the stack's streaming check suite: nothing
under ``src/repro`` names the post-hoc checkers, which live in the tests as
their oracle.  And one latency path, the session's ``MetricsSink``: the
span sink and the post-hoc metrics report are gone from the code, the
tests and the README, and a traffic client takes its deliveries from the
same sink, with no router or send-time table of its own.

A run imports only what it runs: the packages the performance ledger's
workloads import load no pool executor, no §6 baseline, no report renderer
and no demo application, and running one unit of each workload imports
nothing more.  Every exported name still resolves where it always did.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import repro.analysis.online  # noqa: F401  (its sinks join the roll call)
import repro.obs.journey  # noqa: F401  (loads only when a run observes journeys)
import repro.workloads  # noqa: F401
from repro.api import Session
from repro.core.asymmetric import AsymmetricOrdering
from repro.core.config import NewtopConfig, OrderingMode
from repro.core.messages import Beacon
from repro.core.ordering import OrderingEngine
from repro.net import trace as trace_module
from repro.net.network import NetworkConfig
from repro.net.transport import Endpoint, TransportStats
from repro.obs import Histogram, Observation
from repro.workloads import OpenLoopClient

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = {
    path: path.read_text(encoding="utf-8")
    for top in ("src", "benchmarks", "examples", "tests")
    for path in sorted((ROOT / top).rglob("*.py"))
}


def _options():
    for owner in (NewtopConfig, NetworkConfig):
        for field in dataclasses.fields(owner):
            yield owner.__name__, field.name, field.default
    for parameter in list(inspect.signature(Observation.__init__).parameters.values())[1:]:
        yield "Observation", parameter.name, parameter.default


def _is_read(name):
    defining = re.compile(rf"\s*{name}\s*[:=]")
    return any(
        re.search(rf"\b{name}\b", line) and not defining.match(line)
        for path, text in SOURCES.items()
        if path.relative_to(ROOT).parts[0] == "src"
        for line in text.splitlines()
    )


def _values_given(tree, name, observation):
    """The expressions ``name`` is set to: a keyword argument, a dict entry
    or ``mapping[name] = ...``.  ``Observation``'s keywords are common words
    (``metrics``, ``top_n``), so for them only an ``Observation(...)`` call
    and the dict of an ``observe=`` or a ``coerce(...)`` count."""
    for node in ast.walk(tree):
        dicts = [node] if not observation else []
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if callee == "Observation" or not observation:
                yield from (kw.value for kw in node.keywords if kw.arg == name)
            if observation:
                dicts = [kw.value for kw in node.keywords if kw.arg == "observe"]
                dicts += node.args if callee == "coerce" else []
        elif isinstance(node, ast.Assign) and not observation:
            target = node.targets[0]
            if isinstance(target, ast.Subscript) and getattr(target.slice, "value", 0) == name:
                yield node.value
        for candidate in dicts:
            if isinstance(candidate, ast.Dict):
                yield from (
                    value
                    for key, value in zip(candidate.keys, candidate.values)
                    if getattr(key, "value", 0) == name
                )


def _is_set(name, default, observation):
    for text in SOURCES.values():
        if name not in text:
            continue
        for value in _values_given(ast.parse(text), name, observation):
            forwarded = name in re.findall(r"\w+", ast.unparse(value))
            is_default = isinstance(value, ast.Constant) and value.value == default
            if not forwarded and not is_default:
                return True
    return False


def test_every_option_is_read_and_has_two_values_in_use():
    options = list(_options())
    assert [name for _, name, _ in options if not _is_read(name)] == []
    assert [
        f"{owner}.{name}"
        for owner, name, default in options
        if not _is_set(name, default, owner == "Observation")
    ] == []


def test_the_process_heartbeat_added_no_option_and_a_beacon_says_only_what_it_vouches_for():
    # One beacon per process pair is how the protocol works, not a mode of
    # it: no field, no toggle (PR 22).
    assert len(dataclasses.fields(NewtopConfig)) == 7
    assert [field.name for field in dataclasses.fields(Beacon)] == ["origin", "groups"]


def _layer_trees():
    for path, text in SOURCES.items():
        parts = path.relative_to(ROOT).parts
        if parts[:2] == ("src", "repro") and parts[2] in ("core", "net"):
            yield "/".join(parts[2:]), ast.parse(text)


def _transport_tallies(tree):
    """The counts ``Transport.__init__`` keeps as plain dicts, with every
    local name bound to one of them in the module."""
    tallies = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for statement in ast.walk(node):
                if isinstance(statement, (ast.Assign, ast.AnnAssign)) and isinstance(
                    statement.value, ast.Dict
                ):
                    targets = getattr(statement, "targets", None) or [statement.target]
                    tallies.update(
                        target.attr for target in targets if isinstance(target, ast.Attribute)
                    )
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) in tallies:
            tallies.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return tallies


def test_protocol_and_substrate_know_no_observer():
    """No observer import, no journeys, and nothing pushed: a layer keeps
    its counts as plain ints (the transport its batch sizes as a dict) and
    the registry reads them, so no module calls a registry ``counter(`` or
    ``histogram(`` or keeps a ``_c_*`` handle.  The profiler's one handle
    is the kernel's per-callback hook: outside ``net/simulator.py`` no
    name holds a profiler or a ``perf_counter``.  And a count is kept
    whether or not anybody reads it: no transport tally is compared with
    ``None``."""
    offenders = set()
    for module, tree in _layer_trees():
        kernel = module == "net/simulator.py"
        tallies = _transport_tallies(tree) if module == "net/transport.py" else set()
        for node in ast.walk(tree):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            names = (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None), getattr(node, "name", None),
            )
            pushed = (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("counter", "histogram")
            ) or any(name and name.startswith("_c_") for name in names)
            timed = not kernel and any(
                name and ("profiler" in name or "perf_counter" in name) for name in names
            )
            guarded = (
                isinstance(node, ast.Compare)
                and any(
                    isinstance(side, ast.Constant) and side.value is None
                    for side in node.comparators
                )
                and any(
                    getattr(part, "id", getattr(part, "attr", None)) in tallies
                    for part in ast.walk(node.left)
                )
            )
            if (
                any(name.startswith("repro.obs") for name in imported)
                or "journeys" in names
                or pushed
                or timed
                or guarded
            ):
                offenders.add(module)
    assert sorted(offenders) == []
    # The transport's counts are the three dicts the registry reads.
    transport = dict(_layer_trees())["net/transport.py"]
    assert {"_sent_by_kind", "_sends_by_cause", "batch_sizes"} <= _transport_tallies(transport)
    # A histogram is bucketed from its owner's counts when it is read;
    # nothing records into one.
    assert not hasattr(Histogram, "record")


def test_the_transport_keeps_one_handler_kind_and_only_tallies_somebody_reads():
    """A handler takes runs, so an endpoint has one way to register one.
    A count kept per send costs on the hot path whether or not anybody
    reads it: each ``TransportStats`` field is read as ``<...>.stats.<field>``
    somewhere under ``src`` or ``benchmarks`` outside ``net/transport.py``."""
    assert [name for name in dir(Endpoint) if name.startswith("register")] == [
        "register_handler"
    ]
    read = set()
    for path, text in SOURCES.items():
        relative = path.relative_to(ROOT)
        if relative.parts[0] not in ("src", "benchmarks") or relative.name == "transport.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "attr", None) == "stats"
            ):
                read.add(node.attr)
    fields = [field.name for field in dataclasses.fields(TransportStats)]
    assert [name for name in fields if name not in read] == []


def _sink_classes(base=trace_module.TraceSink):
    for cls in base.__subclasses__():
        yield cls
        yield from _sink_classes(cls)


def test_every_lifecycle_kind_is_reported_and_heard():
    constants = {
        name: value
        for name, value in vars(trace_module).items()
        if name.isupper() and value in trace_module.LIFECYCLE_KINDS
    }
    assert set(constants.values()) == trace_module.LIFECYCLE_KINDS
    # Reported: the kind's constant is an argument of a call outside trace.py.
    reported = set()
    for path, text in SOURCES.items():
        parts = path.relative_to(ROOT).parts
        if parts[0] != "src" or parts[-2:] == ("net", "trace.py"):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                for argument in node.args:
                    name = getattr(argument, "attr", getattr(argument, "id", None))
                    reported.add(constants.get(name))
    assert trace_module.LIFECYCLE_KINDS - reported == set()  # no dead kind
    # Heard: a sink names it -- and a sink that names one takes them.
    followers = [
        cls for cls in _sink_classes()
        if cls.__module__.startswith("repro.")
        and not trace_module.LIFECYCLE_KINDS.isdisjoint(cls.KINDS or ())
    ]
    heard = set().union(*(cls.KINDS for cls in followers))
    assert trace_module.LIFECYCLE_KINDS - heard == set()
    assert [
        cls.__name__ for cls in followers
        if cls.on_lifecycle is trace_module.TraceSink.on_lifecycle
    ] == []  # no deaf subscriber


def _identifiers(text):
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_sequencer_failover_has_one_home():
    core = ROOT / "src" / "repro" / "core"
    naming_the_mode = [
        path.name
        for path, text in SOURCES.items()
        if path.parent == core and "ASYMMETRIC" in _identifiers(text)
    ]
    assert naming_the_mode == ["asymmetric.py", "config.py"]  # config defines it
    endpoint = _identifiers(SOURCES[core / "endpoint.py"])
    assert endpoint & {
        "sequencer", "is_sequencer", "emit_view_cut", "_last_heard_sequencer",
        "_failover_deferred", "_pending_cut_points", "_detections_awaiting_cut",
    } == set()


def test_no_asymmetric_engine_shadows_a_hook_of_its_class():
    hooks = {name for name, _ in inspect.getmembers(OrderingEngine, inspect.isfunction)}
    session = Session("newtop", seed=1)
    session.spawn(["A", "B", "C", "D"])
    session.group("g", mode=OrderingMode.ASYMMETRIC)
    session.run(5)
    session["D"].crash()
    session.run(30)
    engines = [session[name].endpoint("g").engine for name in ("A", "B", "C")]
    assert all(isinstance(engine, AsymmetricOrdering) for engine in engines)
    assert [sorted(hooks & set(vars(engine))) for engine in engines] == [[], [], []]


def test_nothing_in_the_library_calls_the_cycle_collector():
    """A finished session releases its own reference cycles
    (:meth:`repro.api.Session.release`); a ``gc.collect()`` per run would
    hide a missing cut and cost a full collection each time."""
    importing_gc = []
    for path, text in SOURCES.items():
        if path.relative_to(ROOT).parts[0] != "src":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module == "gc" or module.startswith("gc.") for module in modules):
                importing_gc.append(str(path.relative_to(ROOT)))
    assert importing_gc == []


def test_only_the_session_builds_an_observation():
    """``Observation.coerce`` is the one door: outside ``repro/obs/__init__.py``
    nothing under ``src/repro`` builds an ``Observation`` or asks whether a
    value is one, so no caller-built observation can outlive its session."""
    building = []
    for path, text in SOURCES.items():
        parts = path.relative_to(ROOT).parts
        if parts[:2] != ("src", "repro") or parts[2:] == ("obs", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            tested = node.args[1:] if callee == "isinstance" else []
            if callee == "Observation" or any(
                getattr(name, "id", getattr(name, "attr", None)) == "Observation"
                for argument in tested
                for name in ast.walk(argument)
            ):
                building.append(f"{'/'.join(parts[2:])}:{node.lineno}")
    assert building == []


def test_every_run_has_one_verdict_path():
    """No second checker under ``src/repro``: no ``check_all``, no stack's
    ``offline_checks``, no happened-before closure and no
    ``repro.analysis.checkers`` module, named in code or in prose.  A
    stored trace is checked by replaying it through the suite
    (``check_events``); the post-hoc checkers are ``tests/oracle_checkers.py``."""
    retired = (
        "check_all", "offline_checks", "happened_before_pairs", "repro.analysis.checkers",
    )
    naming = [
        f"{'/'.join(path.relative_to(ROOT).parts[2:])}: {name}"
        for path, text in SOURCES.items()
        if path.relative_to(ROOT).parts[:2] == ("src", "repro")
        for name in retired
        if name in text
    ]
    assert naming == []
    assert not (ROOT / "src" / "repro" / "analysis" / "checkers.py").exists()


def test_every_run_has_one_latency_path():
    """The span sink and the post-hoc metrics report are gone: none of
    their names appears in the code, the tests or the README, and neither
    module exists.  A run's latency is its ``MetricsSink``'s; a stored
    trace answers the post-hoc questions itself."""
    retired = (
        "SpanBreakdownSink", "build_report", "MetricsReport", "LatencySummary",
        "summarize_latencies", "messages_per_delivered_multicast",
    )
    texts = {
        path.relative_to(ROOT).as_posix(): text
        for path, text in SOURCES.items()
        if path != pathlib.Path(__file__).resolve()
    }
    texts["README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    naming = [
        f"{where}: {name}" for where, text in texts.items() for name in retired if name in text
    ]
    assert naming == []
    assert not (ROOT / "src" / "repro" / "obs" / "spans.py").exists()
    assert not (ROOT / "src" / "repro" / "analysis" / "metrics.py").exists()


def test_a_delivery_meets_its_send_in_one_place():
    """A traffic client's deliveries come from the session's
    ``MetricsSink``: no delivery router, no client send-time table and no
    issue log is named in the code, the tests or the README, the client is
    no trace sink, and a session with a client records into the same
    sinks as one without."""
    retired = ("DeliveryRouter", "_client_router", "_send_times", "record_issues")
    texts = {
        path.relative_to(ROOT).as_posix(): text
        for path, text in SOURCES.items()
        if path != pathlib.Path(__file__).resolve()
    }
    texts["README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    naming = [
        f"{where}: {name}"
        for where, text in texts.items()
        for name in retired
        if re.search(rf"\b{name}\b", text)
    ]
    assert naming == []
    assert not hasattr(OpenLoopClient, "on_event")
    assert list(inspect.signature(OpenLoopClient.bind).parameters) == ["self", "session"]
    sinks = []
    for attach in (False, True):
        session = Session("newtop", analysis="online")
        session.spawn(["P1", "P2"])
        session.group("g")
        if attach:
            session.attach_client(OpenLoopClient("poisson", ["P1"], ["g"]))
        sinks.append([type(sink) for sink in session.recorder._sinks])
    assert sinks[0] == sinks[1]


#: The packages the performance ledger's workloads import.
LEDGER_PACKAGES = (
    "repro.api",
    "repro.scenarios",
    "repro.scenarios.fuzz",
    "repro.apps.kv",
    "repro.workloads",
)

#: Modules that sit beside the protocol stack: no run of those packages
#: executes them, so importing the packages must not load them.
OFF_THE_RUN_PATH = re.compile(
    r"multiprocessing(\.|$)"
    r"|repro\.parallel(\.|$)"
    r"|repro\.baselines(\.|$)"
    r"|repro\.obs\.(report|journey|profiler|sampler)$"
    r"|repro\.apps\.(server_migration|replicated_state_machine|replicated_store)$"
    r"|repro\.analysis\.overhead$"
    r"|repro\.scenarios\.report$"
)


def _in_fresh_interpreter(script):
    """Run ``script`` in a new interpreter with ``src`` on the path and
    return the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_run_imports_only_what_it_runs():
    loaded = _in_fresh_interpreter(
        f"""
        import importlib, json, sys
        for name in {LEDGER_PACKAGES!r}:
            importlib.import_module(name)
        loaded = sorted(sys.modules)
        from repro.api import Session
        Session("isis")
        print(json.dumps({{"loaded": loaded, "after_isis": sorted(sys.modules)}}))
        """
    )
    assert [name for name in loaded["loaded"] if OFF_THE_RUN_PATH.match(name)] == []
    assert len([name for name in loaded["loaded"] if name.split(".")[0] == "repro"]) <= 60
    # A baseline stack still builds: its factory imports its module.
    assert "repro.baselines.isis" in loaded["after_isis"]


def test_no_import_on_the_timed_path():
    """One small unit of each ledger workload shape, built and run after
    the packages are imported, adds no ``repro`` or ``multiprocessing``
    module: an import there would be timed as the run's, not set-up."""
    added = _in_fresh_interpreter(
        f"""
        import importlib, json, sys
        for name in {LEDGER_PACKAGES!r}:
            importlib.import_module(name)
        before = set(sys.modules)

        from repro.api import Session
        from repro.apps.kv import KVOracle, ShardedKV
        from repro.core.config import OrderingMode
        from repro.scenarios import ScenarioEngine, churn_scenario, from_config
        from repro.scenarios.fuzz import run_fuzz_unit
        from repro.workloads import OpenLoopClient, get_profile

        session = Session("newtop", seed=1, analysis="online")
        session.spawn(["A", "B", "C"])
        session.group("g")
        client = session.attach_client(
            OpenLoopClient(get_profile("poisson", rate=2.0), ["A", "B"], ["g"], duration=5.0)
        )
        client.start()
        session.run(15)
        assert session.result().passed

        assert run_fuzz_unit(0, 0)["status"] == "pass"

        session = Session("newtop", seed=1, analysis="online", sinks=[KVOracle()])
        session.spawn(["r0", "r1", "r2"])
        store = ShardedKV(session, mode=OrderingMode.ASYMMETRIC)
        store.bootstrap({{"s0": ["r0", "r1", "r2"]}})
        acks = []
        store.submit(client="c", client_op=1, op="set", key="k", value=1, callback=acks.append)
        session.run(10)
        assert [ack["status"] for ack in acks] == ["applied"]

        spec = from_config(churn_scenario(n_processes=12, n_groups=2, group_size=6, seed=3))
        assert ScenarioEngine(spec, analysis="online").run().passed

        added = sorted(
            name for name in set(sys.modules) - before
            if name.split(".")[0] in ("repro", "multiprocessing")
        )
        print(json.dumps(added))
        """
    )
    assert added == []


def test_every_exported_name_resolves_to_its_defining_object():
    for package_name in (
        "repro",
        "repro.api",
        "repro.analysis",
        "repro.apps",
        "repro.obs",
        "repro.scenarios",
        "repro.scenarios.fuzz",
    ):
        package = importlib.import_module(package_name)
        lazy = getattr(package, "_LAZY_EXPORTS", {})
        for name in package.__all__:
            value = getattr(package, name)
            home = getattr(value, "__module__", None) or lazy.get(name)
            if home is not None and home.startswith("repro"):
                assert getattr(importlib.import_module(home), name) is value, (package_name, name)
        # An unknown name is an AttributeError, so ``hasattr`` still works.
        assert not hasattr(package, "NoSuchExport")
        assert set(lazy) <= set(package.__all__)
