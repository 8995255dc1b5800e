"""Probabilistic link-fault models: message drop, reorder and duplication.

The paper's transport assumes reliable, sequenced (FIFO) channels; crashes
and partitions (:class:`~repro.api.Session` ``crash`` / ``partition``)
break *liveness* of whole nodes or components, but never the per-message
behaviour of a link.
A :class:`LinkFaultModel` fills that gap for the scenario fuzzer: every
message crossing the network may independently be

* **dropped** (lost before the latency sample -- receivers simply see a
  silent sender, exactly like a partitioned link),
* **reordered** (held back by an extra random delay *inside* the per-channel
  FIFO clamp -- the jitter a sequenced transport such as TCP shows when the
  wire reorders segments underneath: later traffic on the channel queues
  behind the held message, so channel order is preserved and the protocol's
  FIFO assumption stays intact), or
* **duplicated** (a second copy of the transport frame is delivered later;
  the transport endpoint recognises the stale sequence number and suppresses
  it, as any sequenced transport must).

Rates are global with optional per-directed-link overrides, and every
decision draws from the model's *own* :class:`random.Random` -- never the
simulator's -- so attaching a model with all-zero rates is byte-identical
to no model at all, and runs with faults stay deterministic from
``(simulation seed, fault seed)``.

The model is JSON-shaped for scenario specs::

    {"seed": 3, "drop": 0.02, "reorder": 0.1, "duplicate": 0.05,
     "reorder_delay": [0.5, 2.5],
     "links": [{"src": ["P00"], "dst": ["P01", "P02"], "drop": 0.5}]}

``links`` entries override the global rates for every ``src x dst`` pair
they name; unspecified rates inherit the global values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple


class LinkFaultConfigError(ValueError):
    """A link-fault config dict is malformed (unknown keys, bad rates)."""


@dataclass(frozen=True)
class LinkFaultRates:
    """Per-message fault probabilities on one directed link."""

    drop: float = 0.0
    reorder: float = 0.0
    duplicate: float = 0.0

    def validate(self, where: str) -> "LinkFaultRates":
        for name in ("drop", "reorder", "duplicate"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise LinkFaultConfigError(f"{where}: {name} rate must be a number")
            if not 0.0 <= float(value) <= 1.0:
                raise LinkFaultConfigError(
                    f"{where}: {name} rate must be within [0, 1] (got {value})"
                )
        return self

    @property
    def active(self) -> bool:
        return self.drop > 0.0 or self.reorder > 0.0 or self.duplicate > 0.0

    @property
    def disruptive(self) -> bool:
        """Whether these rates can change what the protocol observes.

        Drops lose messages and reorder delays can outlast suspicion
        timeouts; both can legitimately shrink the stable core a scenario
        may assert agreement over.  Duplicates are absorbed entirely by the
        transport's sequence numbers and never reach the protocol.
        """
        return self.drop > 0.0 or self.reorder > 0.0


#: Keys accepted in the top-level config dict.
_TOP_KEYS = frozenset(
    {"seed", "drop", "reorder", "duplicate", "reorder_delay", "duplicate_delay", "links"}
)
#: Keys accepted in each ``links`` entry.
_LINK_KEYS = frozenset({"src", "dst", "drop", "reorder", "duplicate"})


def _delay_pair(raw, default: Tuple[float, float], name: str) -> Tuple[float, float]:
    if raw is None:
        return default
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise LinkFaultConfigError(f"{name} must be a [low, high] pair")
    low, high = float(raw[0]), float(raw[1])
    if low < 0.0 or high < low:
        raise LinkFaultConfigError(f"invalid {name} bounds [{low}, {high}]")
    return (low, high)


class LinkFaultModel:
    """Seeded drop/reorder/duplicate faults, global or per directed link."""

    def __init__(
        self,
        drop: float = 0.0,
        reorder: float = 0.0,
        duplicate: float = 0.0,
        reorder_delay: Tuple[float, float] = (0.5, 2.5),
        duplicate_delay: Tuple[float, float] = (0.0, 1.5),
        seed: int = 0,
        links: Optional[Mapping[Tuple[str, str], LinkFaultRates]] = None,
    ) -> None:
        self.global_rates = LinkFaultRates(drop, reorder, duplicate).validate("global")
        self.reorder_delay = _delay_pair(reorder_delay, (0.5, 2.5), "reorder_delay")
        self.duplicate_delay = _delay_pair(duplicate_delay, (0.0, 1.5), "duplicate_delay")
        self.seed = int(seed)
        self.links: Dict[Tuple[str, str], LinkFaultRates] = dict(links or {})
        for (src, dst), rates in self.links.items():
            rates.validate(f"link {src}->{dst}")

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def make_rng(self) -> random.Random:
        """The dedicated decision stream: one per network instance, seeded
        from the model alone so the simulator's randomness is untouched."""
        return random.Random(f"link-faults:{self.seed}")

    def rates_for(self, src: str, dst: str) -> LinkFaultRates:
        return self.links.get((src, dst), self.global_rates)

    @property
    def active(self) -> bool:
        """Whether any rate anywhere is non-zero."""
        return self.global_rates.active or any(
            rates.active for rates in self.links.values()
        )

    def disruptive_processes(self, processes: Iterable[str]) -> Set[str]:
        """Processes whose links can lose or delay messages -- the set a
        scenario must subtract from any stable core it asserts agreement
        over (conservative: one dropped message can stall a whole channel).
        """
        processes = list(processes)
        if self.global_rates.disruptive:
            return set(processes)
        disruptive: Set[str] = set()
        for (src, dst), rates in self.links.items():
            if rates.disruptive:
                disruptive.update((src, dst))
        return disruptive & set(processes)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_config(self) -> Dict[str, object]:
        """The JSON-shaped form, canonical for scenario specs."""
        config: Dict[str, object] = {
            "seed": self.seed,
            "drop": self.global_rates.drop,
            "reorder": self.global_rates.reorder,
            "duplicate": self.global_rates.duplicate,
            "reorder_delay": list(self.reorder_delay),
            "duplicate_delay": list(self.duplicate_delay),
        }
        if self.links:
            config["links"] = [
                {
                    "src": [src],
                    "dst": [dst],
                    "drop": rates.drop,
                    "reorder": rates.reorder,
                    "duplicate": rates.duplicate,
                }
                for (src, dst), rates in sorted(self.links.items())
            ]
        return config

    @classmethod
    def from_config(cls, config: Mapping[str, object]) -> "LinkFaultModel":
        """Build a model from the JSON-shaped dict, validating eagerly."""
        if isinstance(config, LinkFaultModel):
            return config
        if not isinstance(config, Mapping):
            raise LinkFaultConfigError("link_faults must be a mapping")
        unknown = set(config) - _TOP_KEYS
        if unknown:
            raise LinkFaultConfigError(
                f"unknown link_faults keys {sorted(unknown)}; "
                f"expected a subset of {sorted(_TOP_KEYS)}"
            )
        # Validate the raw values -- float() first would silently bless
        # booleans and numeric strings the schema means to reject.
        defaults = LinkFaultRates(
            drop=config.get("drop", 0.0),
            reorder=config.get("reorder", 0.0),
            duplicate=config.get("duplicate", 0.0),
        ).validate("global")
        links: Dict[Tuple[str, str], LinkFaultRates] = {}
        raw_links = config.get("links", ())
        if not isinstance(raw_links, Sequence) or isinstance(raw_links, (str, bytes)):
            raise LinkFaultConfigError("links must be a list of entries")
        for position, entry in enumerate(raw_links):
            where = f"links[{position}]"
            if not isinstance(entry, Mapping):
                raise LinkFaultConfigError(f"{where} must be a mapping")
            unknown = set(entry) - _LINK_KEYS
            if unknown:
                raise LinkFaultConfigError(f"{where}: unknown keys {sorted(unknown)}")
            sources = _name_list(entry.get("src"), f"{where}.src")
            destinations = _name_list(entry.get("dst"), f"{where}.dst")
            rates = LinkFaultRates(
                drop=entry.get("drop", defaults.drop),
                reorder=entry.get("reorder", defaults.reorder),
                duplicate=entry.get("duplicate", defaults.duplicate),
            ).validate(where)
            for src in sources:
                for dst in destinations:
                    if src == dst:
                        continue
                    links[(src, dst)] = rates
        return cls(
            drop=defaults.drop,
            reorder=defaults.reorder,
            duplicate=defaults.duplicate,
            reorder_delay=_delay_pair(
                config.get("reorder_delay"), (0.5, 2.5), "reorder_delay"
            ),
            duplicate_delay=_delay_pair(
                config.get("duplicate_delay"), (0.0, 1.5), "duplicate_delay"
            ),
            seed=int(config.get("seed", 0)),
            links=links,
        )

    def describe(self) -> str:
        rates = self.global_rates
        parts = [
            f"drop={rates.drop}",
            f"reorder={rates.reorder}",
            f"duplicate={rates.duplicate}",
            f"seed={self.seed}",
        ]
        if self.links:
            parts.append(f"links={len(self.links)}")
        return f"link-faults({', '.join(parts)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def get_link_faults(model) -> Optional[LinkFaultModel]:
    """Resolve ``None``, a model instance, or a JSON-shaped dict."""
    if model is None or isinstance(model, LinkFaultModel):
        return model
    return LinkFaultModel.from_config(model)


def _name_list(raw, where: str) -> List[str]:
    if (
        not isinstance(raw, Sequence)
        or isinstance(raw, (str, bytes))
        or not raw
        or not all(isinstance(name, str) for name in raw)
    ):
        raise LinkFaultConfigError(f"{where} must be a non-empty list of process names")
    return list(raw)
