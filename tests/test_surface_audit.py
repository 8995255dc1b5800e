"""Every option has two values in use.

Each field of ``NewtopConfig`` and ``NetworkConfig`` and each keyword of
``Observation`` must be read somewhere under ``src/repro`` off the line that
defines it, and be given a value other than its default somewhere under
``src``, ``benchmarks``, ``examples`` or ``tests``.  An option nothing sets
is a constant; one nothing reads is nothing at all.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

from repro.core.config import NewtopConfig
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
