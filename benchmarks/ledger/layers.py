"""Module -> layer map and cProfile attribution for the traced unit.

The repository is callback driven: layers are entered from simulator
callbacks, often through private bound methods, so span wrappers on public
names would charge network and transport arrival time to the simulator
(and break on the renames the ROADMAP plans).  The ledger instead profiles
the timed call from outside with ``cProfile`` and sums *self* time per
source file:

* a function defined in a ``repro`` module belongs to that module's layer;
* self time of built-ins and of other non-``repro`` code (``heapq``,
  ``random``, ``dataclasses`` ...) is charged to the layers of its callers,
  split by the profiler's per-caller self time, so ``heappush`` lands in
  ``net.simulator``;
* what cannot be traced back to a ``repro`` caller -- the benchmark's own
  probe and sinks included -- is ``other``.

A layer whose module files are all gone resolves to ``None`` and is listed
as unresolved instead of crashing the run.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, List, Optional, Tuple

#: ``repro``-relative path prefixes per layer; the longest prefix wins.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "net.simulator": ("net/simulator.py",),
    "net.network": (
        "net/network.py", "net/latency.py", "net/partitions.py",
        "net/faults.py", "net/failures.py",
    ),
    "net.transport": ("net/transport.py",),
    "core.process": (
        "core/process.py", "core/messages.py", "core/clock.py",
        "core/config.py", "core/flow_control.py",
    ),
    "core.endpoint": ("core/endpoint.py",),
    "core.ordering": ("core/ordering.py", "core/symmetric.py", "core/asymmetric.py"),
    "core.vectors": ("core/vectors.py",),
    "core.delivery": ("core/delivery.py",),
    "core.stability": ("core/stability.py",),
    "core.liveness": ("core/time_silence.py", "core/suspector.py"),
    "core.membership": ("core/membership.py", "core/views.py", "core/group_formation.py"),
    "net.trace": ("net/trace.py", "stats.py"),
    "analysis.online": ("analysis/online.py",),
    "analysis.offline": (
        "analysis/checkers.py", "analysis/metrics.py",
        "analysis/overhead.py", "analysis/workloads.py",
    ),
    "workloads": ("workloads/",),
    "apps.kv": ("apps/kv/",),
    "scenarios": ("scenarios/",),
    "api": ("api/",),
    "obs": ("obs/",),
}

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYER_MODULES.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)


def layer_of_file(filename: str, package_dir: str, bench_dir: str) -> Optional[str]:
    """The layer owning ``filename``; ``None`` for code that is charged to
    its callers.  ``repro`` files no layer lists (baselines, parallel ...)
    and the benchmark's own files are ``other``."""
    if filename.startswith(bench_dir):
        return "other"
    if not filename.startswith(package_dir):
        return None
    relative = filename[len(package_dir):].lstrip(os.sep).replace(os.sep, "/")
    for prefix, layer in _PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


def unresolved_layers(package_dir: str) -> List[str]:
    """Layers none of whose module files exist any more."""
    return [
        layer
        for layer, prefixes in LAYER_MODULES.items()
        if not any(os.path.exists(os.path.join(package_dir, prefix)) for prefix in prefixes)
    ]


def attribute(profile, package_dir: str, bench_dir: str) -> Dict[str, object]:
    """Per-layer self time and cross-layer entry calls of one profile."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    package_dir = os.path.realpath(package_dir) + os.sep
    bench_dir = os.path.realpath(bench_dir) + os.sep
    by_file: Dict[str, Optional[str]] = {}
    for filename in {func[0] for func in stats}:
        if filename in ("~", "") or filename.startswith("<"):
            by_file[filename] = None  # built-ins and exec'd code
        else:
            by_file[filename] = layer_of_file(
                os.path.realpath(filename), package_dir, bench_dir
            )
    direct: Dict[tuple, Optional[str]] = {func: by_file[func[0]] for func in stats}
    shares: Dict[tuple, Dict[str, float]] = {}

    def layer_shares(func: tuple, visiting: frozenset) -> Dict[str, float]:
        """Distribution over layers that ``func``'s self time is charged to."""
        layer = direct.get(func)
        if layer is not None:
            return {layer: 1.0}
        known = shares.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        weights = {
            caller: entry[2] for caller, entry in callers.items() if caller not in visiting
        }
        total = sum(weights.values())
        if total <= 0.0:
            # Called too briefly to carry self time: split evenly.
            weights = {caller: 1.0 for caller in weights}
            total = float(len(weights))
        merged: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in layer_shares(caller, visiting | {func}).items():
                merged[name] = merged.get(name, 0.0) + share * weight / total
        if not merged:
            merged = {"other": 1.0}
        if not visiting:
            shares[func] = merged
        return merged

    self_s: Dict[str, float] = {}
    entry_calls: Dict[str, int] = {}
    total_s = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total_s += tt
        for name, share in layer_shares(func, frozenset()).items():
            self_s[name] = self_s.get(name, 0.0) + tt * share
        layer = direct.get(func)
        if layer is None:
            continue
        for caller, entry in callers.items():
            if direct.get(caller) != layer:
                entry_calls[layer] = entry_calls.get(layer, 0) + entry[0]
    return {"total_s": total_s, "self_s": self_s, "entry_calls": entry_calls}
