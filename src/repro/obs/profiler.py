"""Wall-clock attribution of simulator callbacks by category.

The profiler answers ROADMAP item 2's "profile the FULL-scale E23 run"
without an external tool: the simulator's :meth:`step` hot loop, when a
profiler is installed, times each callback with ``perf_counter`` and files
the elapsed wall time under a *category* derived from the event's label
("deliver ->p17" → ``delivery_batch``, "suspector" → a timer-fire
category, ...).  That per-callback hook is the profiler's one handle: no
layer under the kernel times a section of its own, so the categories
partition the attributed time.  Within a callback, the performance
ledger's cProfile attribution (``benchmarks/ledger/run.py --trace 1``)
splits the time per layer -- protocol receipt under ``core.*``, the trace
fan-out under ``net.trace`` and ``analysis.online``.

The profiler is wall-clock only: it never reads simulated time, never
touches the RNG and never schedules events, so attaching it cannot perturb
determinism -- only wall-clock speed (roughly two ``perf_counter`` calls
per event).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["HotPathProfiler"]


class _Section:
    __slots__ = ("calls", "seconds", "max_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0


class HotPathProfiler:
    """Accumulates per-category call counts and wall seconds."""

    def __init__(self) -> None:
        self._sections: Dict[str, _Section] = {}
        #: Label -> category memo; label strings repeat heavily (every
        #: process reuses its own "deliver ->X" string object), so this is
        #: one dict hit per event after warm-up.
        self._category_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record_event(self, label: str, elapsed: float) -> None:
        """File one simulator-callback execution under its label's category."""
        category = self._category_cache.get(label)
        if category is None:
            category = self._category_cache[label] = self._categorize(label)
        record = self._sections.get(category)
        if record is None:
            record = self._sections[category] = _Section()
        record.calls += 1
        record.seconds += elapsed
        if elapsed > record.max_seconds:
            record.max_seconds = elapsed

    @staticmethod
    def _categorize(label: str) -> str:
        if not label:
            return "uncategorized"
        if label.startswith("deliver"):
            return "delivery_batch"
        if label == "suspector":
            return "timer_fire:suspector"
        if label == "time-silence":
            return "timer_fire:time_silence"
        if label.startswith("scenario"):
            return "scenario_event"
        if label.startswith("obs"):
            return "obs_sampler"
        if label.startswith("workload"):
            return "workload"
        head = label.split(" ", 1)[0].rstrip(":")
        return "timer_fire:" + head

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Attributed wall seconds, summed over every category."""
        return sum(section.seconds for section in self._sections.values())

    def top(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` most expensive categories as ``(name, seconds)``."""
        ranked = sorted(
            self._sections.items(), key=lambda item: item[1].seconds, reverse=True
        )
        return [(name, section.seconds) for name, section in ranked[:n]]

    def snapshot(self, top_n: int = 10) -> Dict[str, object]:
        total = self.total_seconds
        sections = {}
        for name, section in sorted(self._sections.items()):
            sections[name] = {
                "calls": section.calls,
                "seconds": round(section.seconds, 6),
                "mean_us": round(section.seconds / section.calls * 1e6, 3)
                if section.calls
                else 0.0,
                "max_us": round(section.max_seconds * 1e6, 3),
                "share": round(section.seconds / total, 4) if total else None,
            }
        return {
            "total_seconds": round(total, 6),
            "top": [
                {"section": name, "seconds": round(seconds, 6)}
                for name, seconds in self.top(top_n)
            ],
            "sections": sections,
        }
