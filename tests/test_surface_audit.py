"""Every option has two values in use, and one seam carries observation.

Each field of ``NewtopConfig`` and ``NetworkConfig`` and each keyword of
``Observation`` must be read somewhere under ``src/repro`` off the line that
defines it, and be given a value other than its default somewhere under
``src``, ``benchmarks``, ``examples`` or ``tests``.  An option nothing sets
is a constant; one nothing reads is nothing at all.

The protocol and the substrate report to the trace recorder and know nobody
behind it: no module under ``repro.core`` or ``repro.net`` imports
``repro.obs`` or names a ``journeys`` handle, and every lifecycle kind of
:mod:`repro.net.trace` is both reported from somewhere under ``src`` and
named by some sink's ``KINDS``.

§4.2's sequencer failover lives behind the asymmetric engine: no module of
``repro.core`` but ``asymmetric.py`` names the asymmetric mode (``config.py``
defines it), and the
group endpoint names neither the sequencer nor the failover's state.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

import repro.analysis.online  # noqa: F401  (its sinks join the roll call)
import repro.workloads  # noqa: F401
from repro.core.config import NewtopConfig
from repro.core.messages import Beacon
from repro.net import trace as trace_module
from repro.net.network import NetworkConfig
from repro.obs import Observation

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
    assert len(dataclasses.fields(NewtopConfig)) == 10
    assert [field.name for field in dataclasses.fields(Beacon)] == ["origin", "groups"]


def _layer_trees():
    for path, text in SOURCES.items():
        parts = path.relative_to(ROOT).parts
        if parts[:2] == ("src", "repro") and parts[2] in ("core", "net"):
            yield "/".join(parts[2:]), ast.parse(text)


def test_protocol_and_substrate_know_no_observer():
    offenders = set()
    for module, tree in _layer_trees():
        for node in ast.walk(tree):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            names = (
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "arg", None),
            )
            if any(name.startswith("repro.obs") for name in imported) or "journeys" in names:
                offenders.add(module)
    assert sorted(offenders) == []


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
