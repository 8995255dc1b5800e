"""Streaming statistics shared across layers: the mergeable latency reservoir.

This is a *leaf* module -- it imports nothing from :mod:`repro` -- so both
the trace layer (:class:`repro.net.trace.MetricsSink`) and the workload
layer (:class:`repro.workloads.client.OpenLoopClient`) can maintain exact,
mergeable latency statistics without an import cycle.  The historical
import sites (``repro.workloads.client`` / ``repro.workloads``) re-export
everything here.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Sequence

#: Bounded reservoir size for latency percentile estimation.
LATENCY_RESERVOIR = 4096

#: Percentiles reported by :meth:`LatencyReservoir.summary`.
LATENCY_PERCENTILES = (50, 90, 99)


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over an already sorted sample list: the
    smallest sample with at least ``q`` % of the list at or below it,
    ``sorted_samples[ceil(q * n / 100) - 1]``."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = math.ceil(q * len(sorted_samples) / 100.0) - 1
    return sorted_samples[max(0, min(len(sorted_samples) - 1, rank))]


def _systematic_ranks(pool: Sequence[float], target: int) -> List[float]:
    """``target`` values at evenly spaced ranks of ``pool`` (sorted).

    Works in both directions: shrinking keeps quantile-faithful
    representatives, stretching repeats ranks so the values act with
    proportionally more weight in a combined pool.
    """
    if target <= 0 or not pool:
        return []
    ordered = sorted(pool)
    step = len(ordered) / target
    return [
        ordered[min(len(ordered) - 1, int((index + 0.5) * step))]
        for index in range(target)
    ]


class LatencyReservoir:
    """Streaming latency statistics: exact moments + a mergeable reservoir.

    Count, mean, min and max are exact over every sample ever added.
    Percentiles come from a bounded reservoir: classic reservoir sampling
    (uniform over the stream) driven by a private seeded RNG, so the same
    sample stream always produces the same reservoir.

    Reservoirs *merge*: :meth:`merge` folds another reservoir in, keeping
    the exact moments exact and concatenating the sample pools.  A merged
    pool above capacity is compacted by sorting and taking systematically
    spaced ranks -- deterministic, order-preserving, and quantile-faithful
    (each retained sample represents an equal slice of the merged
    distribution).  That is what lets per-client, per-cell and per-shard
    statistics combine into one percentile table without shipping raw
    sample streams between processes -- e.g. across the
    :mod:`repro.parallel` worker pool.
    """

    def __init__(self, capacity: int = LATENCY_RESERVOIR, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be > 0")
        self.capacity = capacity
        self.count = 0
        self.mean = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._rng = random.Random(seed ^ 0x5EED)

    def add(self, sample: float) -> None:
        """Fold one sample into the exact moments and the reservoir."""
        self.count += 1
        self.mean += (sample - self.mean) / self.count
        self.min = min(self.min, sample)
        self.max = max(self.max, sample)
        if len(self._samples) < self.capacity:
            self._samples.append(sample)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._samples[slot] = sample

    def merge(self, other: "LatencyReservoir") -> "LatencyReservoir":
        """Fold ``other`` into this reservoir (returns self for chaining).

        Exact moments combine exactly.  The sample pools combine
        *count-weighted*: when both sides are exact (every observed
        sample still in the pool) the union is kept verbatim, otherwise
        each side contributes systematically spaced ranks in proportion
        to its observation count -- so a three-point moment sketch
        standing for a million samples is not drowned out by (nor drowns
        out) a hundred-sample reservoir next to it.
        """
        if not other.count:
            return self
        if not self.count:
            self.count, self.mean = other.count, other.mean
            self.min, self.max = other.min, other.max
            self._samples = _systematic_ranks(
                other._samples, min(len(other._samples), self.capacity)
            )
            return self
        total = self.count + other.count
        exact = (
            self.count == len(self._samples)
            and other.count == len(other._samples)
            and total <= self.capacity
        )
        if exact:
            self._samples.extend(other._samples)
        else:
            own_share = min(
                self.capacity - 1, max(1, round(self.capacity * self.count / total))
            )
            self._samples = _systematic_ranks(self._samples, own_share) + \
                _systematic_ranks(other._samples, self.capacity - own_share)
        self.mean = (self.mean * self.count + other.mean * other.count) / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def samples(self) -> List[float]:
        """A copy of the current sample pool."""
        return list(self._samples)

    @property
    def is_exact(self) -> bool:
        """Whether every observed sample is still in the pool (percentiles
        from an exact pool are exact, not reservoir estimates)."""
        return self.count == len(self._samples)

    def summary(
        self, percentiles: Sequence[float] = LATENCY_PERCENTILES
    ) -> Dict[str, Optional[float]]:
        """JSON-shaped statistics: exact moments plus reservoir percentiles."""
        if not self.count:
            return {"count": 0, "mean": None, "min": None, "max": None,
                    **{f"p{q}": None for q in percentiles}}
        ordered = sorted(self._samples)
        summary: Dict[str, Optional[float]] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in percentiles:
            summary[f"p{q}"] = percentile(ordered, q)
        return summary

    @staticmethod
    def from_moments(count: int, mean: float, minimum: float,
                     maximum: float) -> "LatencyReservoir":
        """A reservoir reconstructed from exact moments alone.

        For folding in sources that kept no samples (e.g. a rolling
        metrics aggregate): the pool holds a three-point min/mean/max
        sketch at the exact count, so merged percentiles stay bounded by
        the true extremes even though the interior shape is coarse.
        """
        reservoir = LatencyReservoir()
        if count:
            reservoir.count = count
            reservoir.mean = mean
            reservoir.min = minimum
            reservoir.max = maximum
            reservoir._samples = [minimum, mean, maximum]
        return reservoir

    @staticmethod
    def merged(reservoirs: Iterable["LatencyReservoir"],
               capacity: int = LATENCY_RESERVOIR) -> "LatencyReservoir":
        """One reservoir combining ``reservoirs`` (which are not mutated)."""
        combined = LatencyReservoir(capacity=capacity)
        for reservoir in reservoirs:
            combined.merge(reservoir)
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyReservoir(count={self.count}, "
            f"held={len(self._samples)}/{self.capacity})"
        )
