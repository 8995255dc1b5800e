"""The reference twins of the hot path, kept as test oracles.

``src/`` has one receive/stability vector (:class:`SlabMemberVector`, with
its cached minimum) and one way to take receipts (a transport batch per
simulated instant, settled once at its end and not at all when every
receipt was inert).  The implementations they replaced live here, where
the equivalence tests install them with monkeypatches and require whole
seeded runs to come out byte-identical:

* :class:`DictMemberVector` and its ``RV``/``SV`` subclasses -- the
  dict-per-vector model: a plain mapping whose minimum is recomputed on
  every read, so it can never promise that the minimum stayed put
  (``minimum_in_doubt()`` is always True);
* the per-message receipt arm -- a process's transport handler wrapped
  so that each message of a run goes through its per-message receive
  path alone, and each group or membership message settles on its own,
  inert or not.

:class:`ReferencePaths` applies either or both (the ``reference_paths``
fixture in ``conftest.py`` builds one per test) and counts what it
installed, so a test can prove its arm really ran.
"""

from collections import Counter
from typing import Dict, Iterable, Iterator, Optional

from repro.core import stability, symmetric
from repro.core.process import NewtopProcess
from repro.core.vectors import INFINITY
from repro.net.transport import Endpoint


class DictMemberVector:
    """Dict-backed model of :class:`~repro.core.vectors.SlabMemberVector`."""

    def __init__(self, members: Iterable[str], initial: int = 0) -> None:
        self._entries: Dict[str, float] = {member: initial for member in members}
        if not self._entries:
            raise ValueError("a member vector needs at least one member")
        self._last_finite_minimum: float = float(initial)

    def __getitem__(self, member: str) -> float:
        return self._entries[member]

    def __contains__(self, member: str) -> bool:
        return member in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, member: str, default: Optional[float] = None) -> Optional[float]:
        return self._entries.get(member, default)

    def members(self) -> list[str]:
        return sorted(self._entries)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._entries)

    def update(self, member: str, value: float) -> bool:
        if member not in self._entries:
            raise KeyError(f"{member!r} is not tracked by this vector")
        if value > self._entries[member]:
            self._entries[member] = value
            return True
        return False

    def mark_infinite(self, member: str) -> None:
        if member in self._entries:
            self._entries[member] = INFINITY

    def remove(self, member: str) -> None:
        self._entries.pop(member, None)

    def minimum(self) -> float:
        return min(self._entries.values()) if self._entries else INFINITY

    def minimum_in_doubt(self) -> bool:
        """Always: the model keeps no cached minimum, so it cannot tell."""
        return True

    def finite_minimum(self) -> float:
        finite = [value for value in self._entries.values() if value != INFINITY]
        if not finite:
            return self._last_finite_minimum
        value = min(finite)
        if value > self._last_finite_minimum:
            self._last_finite_minimum = value
        return value


class DictReceiveVector(DictMemberVector):
    """Dict-backed ``RV_x,i``."""

    def record_receipt(self, sender: str, clock: int) -> bool:
        return self.update(sender, clock)

    @property
    def deliverable_bound(self) -> float:
        return self.minimum()


class DictStabilityVector(DictMemberVector):
    """Dict-backed ``SV_x,i``."""

    def record_ldn(self, sender: str, ldn: int) -> bool:
        return self.update(sender, ldn)

    @property
    def stability_bound(self) -> float:
        return self.finite_minimum()


class ReferencePaths:
    """Installs the reference twins for every process built afterwards.

    ``built`` counts the dict vectors the protocol constructed (by class
    name), ``receipts_one_by_one`` the receipts taken through the
    per-message arm, and ``settles`` every ``NewtopProcess.settle`` once
    :meth:`count_settles` ran.
    """

    def __init__(self, monkeypatch) -> None:
        self._patch = monkeypatch
        self.built: Counter = Counter()
        self.receipts_one_by_one = 0
        self.settles = 0

    def dict_vectors(self) -> None:
        """Groups build dict-backed ``RV`` (symmetric engine) and ``SV``
        (stability tracker)."""
        for module, name, cls in (
            (symmetric, "ReceiveVector", DictReceiveVector),
            (stability, "StabilityVector", DictStabilityVector),
        ):
            self._patch.setattr(module, name, self._counted(cls))

    def _counted(self, cls):
        def build(members):
            self.built[cls.__name__] += 1
            return cls(members)

        return build

    def per_message_receipts(self) -> None:
        """A :class:`NewtopProcess` registering its transport handler gets
        one that takes the run a message at a time through the per-message
        receive path instead: outside a batch the group's receive path
        settles after every message it takes.  Other handlers register
        unchanged."""
        register = Endpoint.register_handler

        def register_per_message(endpoint, channel, handler):
            process = getattr(handler, "__self__", None)
            if not isinstance(process, NewtopProcess):
                register(endpoint, channel, handler)
                return
            on_message = process._on_transport_message

            def one_by_one(messages):
                for tmsg in messages:
                    if endpoint.crashed:
                        return
                    self.receipts_one_by_one += 1
                    on_message(tmsg)

            register(endpoint, channel, one_by_one)

        self._patch.setattr(Endpoint, "register_handler", register_per_message)

    def count_settles(self) -> None:
        settle = NewtopProcess.settle

        def counted_settle(process):
            self.settles += 1
            settle(process)

        self._patch.setattr(NewtopProcess, "settle", counted_settle)
