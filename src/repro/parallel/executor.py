"""The worker pool: seed-stable multi-core execution of experiment units.

Every experiment in this repository -- a sweep cell, a scenario, a
benchmark repetition -- is an *independent* simulation: it builds its own
:class:`~repro.api.Session`, draws every random number from seeds carried
in its spec, and returns a JSON-shaped summary.  That independence is what
makes the work shardable across OS processes, and what this module
exploits: a :class:`ParallelExecutor` runs a list of :class:`WorkUnit`
objects on a pool of worker processes and returns one :class:`UnitResult`
per unit, in submission order.

Determinism contract
--------------------
Sharding must not change results.  Three properties make parallel and
serial runs byte-identical:

* **Seeds travel in the spec, not in the shard.**  A unit's function
  derives all randomness from its arguments (e.g. ``SweepSpec.seed``);
  nothing is drawn from shard order, worker identity or wall clock.
* **Interpreter state is reset per unit.**  The experiment layers call
  :func:`repro.core.messages.reset_message_counter` at unit start, so a
  unit behaves identically whether it is the first job of a fresh worker
  or the hundredth cell of a serial loop (message ids participate in the
  safe2 tie-break).
* **Workers are forked, not spawned, where the platform allows.**  A
  forked worker inherits the parent's interpreter state -- including the
  per-process string-hash seed, which influences set iteration order -- so
  a unit observes the same Python semantics in a worker as inline.  On
  spawn-only platforms set ``PYTHONHASHSEED`` for cross-process identity.

Failure isolation
-----------------
The pool is parent-driven: each worker has a private task queue and the
parent records which unit a worker holds, so failures are attributed
exactly.  A worker that dies mid-unit (segfault, ``os._exit``, OOM kill)
marks *its* unit ``crashed`` and is replaced; a unit that exceeds its
timeout has its worker terminated and is marked ``timeout``; a unit whose
function raises is marked ``error`` with the traceback.  The run always
completes with one result per unit -- a lost worker never kills the run.

Progress streaming
------------------
Workers forward events over the shared result queue as they happen:
``start`` when a unit begins, ``log`` for :func:`worker_log` lines emitted
inside unit functions, ``done`` when a result is ready.  The executor
relays them to the ``on_event`` callback, so a long sweep can print rows
as cells finish regardless of which process computed them.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Unit states a result can report.
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CRASHED = "crashed"
STATUS_TIMEOUT = "timeout"

#: How long the parent waits on the result queue per poll; bounds the
#: latency of liveness/deadline checks without busy-waiting.
_POLL_INTERVAL = 0.05

#: Grace period for workers to exit after the shutdown sentinel.
_JOIN_TIMEOUT = 2.0


@dataclass(frozen=True)
class WorkUnit:
    """One independent job: a picklable module-level function plus args.

    ``unit_id`` names the unit in results and progress events; it must be
    unique within one :meth:`ParallelExecutor.run` call.  ``timeout``
    overrides the executor-wide per-unit timeout (``None`` inherits it).
    """

    unit_id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None


@dataclass
class UnitResult:
    """The outcome of one work unit."""

    unit_id: str
    status: str
    value: Any = None
    #: Formatted traceback (``error``) or a diagnosis (``crashed`` /
    #: ``timeout``); ``None`` on success.
    error: Optional[str] = None
    wall_seconds: float = 0.0
    #: Index of the pool worker that ran the unit (``None`` inline).
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Whether the unit completed and returned a value."""
        return self.status == STATUS_OK


#: Set by :func:`_worker_main` so :func:`worker_log` can route lines from
#: unit functions back to the parent; stays ``None`` when running inline.
_WORKER_CONTEXT: Optional[Dict[str, Any]] = None


def worker_log(message: str) -> None:
    """Emit one progress line from inside a unit function.

    In a pool worker the line is forwarded to the parent's ``on_event``
    callback as a ``log`` event; when the unit runs inline (serial mode)
    it is delivered to the inline callback directly.  Unit functions can
    therefore narrate long jobs without caring where they execute.
    """
    context = _WORKER_CONTEXT
    if context is None:
        return
    emit = context.get("emit")
    if emit is not None:
        emit(("log", context.get("unit_id"), context.get("worker"), message))


def _worker_main(worker_index: int, task_queue, result_queue) -> None:
    """Worker loop: pull a task, announce it, run it, post the result."""
    global _WORKER_CONTEXT
    while True:
        task = task_queue.get()
        if task is None:
            return
        unit_id, fn, args, kwargs = task
        result_queue.put(("start", unit_id, worker_index, None))
        _WORKER_CONTEXT = {
            "unit_id": unit_id,
            "worker": worker_index,
            "emit": result_queue.put,
        }
        started = time.time()
        try:
            value = fn(*args, **kwargs)
            outcome = ("done", unit_id, worker_index,
                       (STATUS_OK, value, None, time.time() - started))
        except BaseException:  # noqa: BLE001 - the traceback is the payload
            outcome = ("done", unit_id, worker_index,
                       (STATUS_ERROR, None, traceback.format_exc(),
                        time.time() - started))
        finally:
            _WORKER_CONTEXT = None
        result_queue.put(outcome)


def default_pool_size() -> int:
    """A sensible pool size: every core, floor of one."""
    return max(1, os.cpu_count() or 1)


def _make_context():
    """Prefer fork (state-identical workers, instant start); fall back to
    the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class _Worker:
    """Parent-side handle for one pool process."""

    def __init__(self, context, index: int, result_queue) -> None:
        self.index = index
        self.task_queue = context.Queue(1)
        self.process = context.Process(
            target=_worker_main,
            args=(index, self.task_queue, result_queue),
            daemon=True,
        )
        self.process.start()
        #: The (unit, dispatch time, deadline) currently held, if any.
        self.assignment: Optional[Tuple[WorkUnit, float, Optional[float]]] = None
        self.retired = False

    def assign(self, unit: WorkUnit, default_timeout: Optional[float]) -> None:
        timeout = unit.timeout if unit.timeout is not None else default_timeout
        now = time.time()
        self.assignment = (unit, now, now + timeout if timeout else None)
        self.task_queue.put((unit.unit_id, unit.fn, tuple(unit.args), dict(unit.kwargs)))

    @property
    def idle(self) -> bool:
        return self.assignment is None and not self.retired

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        """Ask the worker to exit once its current unit (if any) finishes."""
        if not self.retired:
            self.retired = True
            try:
                self.task_queue.put_nowait(None)
            except queue_module.Full:  # pragma: no cover - capacity-1 race
                pass

    def kill(self) -> None:
        self.retired = True
        if self.process.is_alive():
            self.process.terminate()

    def join(self, timeout: float) -> None:
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(_JOIN_TIMEOUT)


class ParallelExecutor:
    """Runs work units across a pool of OS processes.

    Parameters
    ----------
    pool_size:
        Number of worker processes (default: one per core).  ``run`` with
        ``pool_size <= 1`` still uses one worker process, preserving crash
        isolation and timeouts; use :meth:`run_inline` for a true serial
        baseline inside the calling process.
    timeout:
        Per-unit wall-clock budget in seconds (``None``: unlimited).  A
        unit past its deadline has its worker terminated and reports
        ``status="timeout"``.
    on_event:
        Optional callback ``(kind, unit_id, worker, payload)`` receiving
        ``start`` / ``log`` / ``done`` events as they stream in.
    """

    def __init__(
        self,
        pool_size: Optional[int] = None,
        timeout: Optional[float] = None,
        on_event: Optional[Callable[[str, str, Optional[int], Any], None]] = None,
    ) -> None:
        self.pool_size = pool_size if pool_size else default_pool_size()
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.timeout = timeout
        self.on_event = on_event

    # ------------------------------------------------------------------
    # Serial baseline
    # ------------------------------------------------------------------
    def run_inline(self, units: Sequence[WorkUnit]) -> List[UnitResult]:
        """Run every unit in the calling process, in order.

        The serial twin of :meth:`run`: same result shape, same progress
        events, no processes -- the baseline that parallel runs are
        byte-compared against (timeouts need a worker to interrupt, so
        ``timeout`` is not enforced inline).
        """
        global _WORKER_CONTEXT
        results = []
        for unit in units:
            self._emit("start", unit.unit_id, None, None)
            _WORKER_CONTEXT = {
                "unit_id": unit.unit_id,
                "worker": None,
                "emit": lambda event: self._emit(event[0], event[1], event[2], event[3]),
            }
            started = time.time()
            try:
                value = unit.fn(*unit.args, **dict(unit.kwargs))
                result = UnitResult(unit.unit_id, STATUS_OK, value=value,
                                    wall_seconds=time.time() - started)
            except Exception:  # noqa: BLE001
                result = UnitResult(unit.unit_id, STATUS_ERROR,
                                    error=traceback.format_exc(),
                                    wall_seconds=time.time() - started)
            finally:
                _WORKER_CONTEXT = None
            results.append(result)
            self._emit("done", unit.unit_id, None, result)
        return results

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> List[UnitResult]:
        """Execute every unit on the pool; results come back in unit order.

        The parent dispatches one unit per idle worker, so at any instant
        it knows exactly which unit a worker holds -- the basis for crash
        attribution and per-unit deadlines.  The call returns only when
        every unit has a result; worker deaths and timeouts are absorbed
        by respawning.
        """
        units = list(units)
        seen = set()
        for unit in units:
            if unit.unit_id in seen:
                raise ValueError(f"duplicate unit id {unit.unit_id!r}")
            seen.add(unit.unit_id)
        if not units:
            return []
        context = _make_context()
        result_queue = context.Queue()
        pool_size = min(self.pool_size, len(units))
        workers: List[_Worker] = [
            _Worker(context, index, result_queue) for index in range(pool_size)
        ]
        next_worker_index = pool_size
        pending: List[WorkUnit] = list(units)
        results: Dict[str, UnitResult] = {}
        try:
            while len(results) < len(units):
                # Feed idle workers.
                for worker in workers:
                    if pending and worker.idle and worker.alive():
                        worker.assign(pending.pop(0), self.timeout)
                # Drain whatever arrived.
                drained = self._drain(result_queue, workers, results)
                # Liveness: a worker that died holding a unit crashes it.
                for index, worker in enumerate(workers):
                    if worker.assignment is not None and not worker.alive():
                        unit, started, _deadline = worker.assignment
                        if unit.unit_id not in results:
                            results[unit.unit_id] = UnitResult(
                                unit.unit_id, STATUS_CRASHED,
                                error=(f"worker {worker.index} exited with code "
                                       f"{worker.process.exitcode} while running the unit"),
                                wall_seconds=time.time() - started,
                                worker=worker.index,
                            )
                            self._emit("done", unit.unit_id, worker.index,
                                       results[unit.unit_id])
                        worker.assignment = None
                        worker.retired = True
                        if pending or self._assigned(workers):
                            workers[index] = _Worker(
                                context, next_worker_index, result_queue
                            )
                            next_worker_index += 1
                # Deadlines: a unit past its budget forfeits its worker.
                now = time.time()
                for index, worker in enumerate(workers):
                    if worker.assignment is None:
                        continue
                    unit, started, deadline = worker.assignment
                    if deadline is not None and now > deadline:
                        worker.kill()
                        if unit.unit_id not in results:
                            results[unit.unit_id] = UnitResult(
                                unit.unit_id, STATUS_TIMEOUT,
                                error=f"unit exceeded its {deadline - started:.1f}s budget",
                                wall_seconds=now - started,
                                worker=worker.index,
                            )
                            self._emit("done", unit.unit_id, worker.index,
                                       results[unit.unit_id])
                        worker.assignment = None
                        if pending:
                            workers[index] = _Worker(
                                context, next_worker_index, result_queue
                            )
                            next_worker_index += 1
                if not drained and len(results) < len(units):
                    time.sleep(0.001)
        finally:
            for worker in workers:
                worker.stop()
            for worker in workers:
                worker.join(_JOIN_TIMEOUT)
            result_queue.close()
        return [results[unit.unit_id] for unit in units]

    def _assigned(self, workers: List[_Worker]) -> bool:
        return any(worker.assignment is not None for worker in workers)

    def _drain(self, result_queue, workers: List[_Worker],
               results: Dict[str, UnitResult]) -> bool:
        """Pull every queued event; returns whether anything arrived."""
        drained = False
        while True:
            try:
                event = result_queue.get(timeout=_POLL_INTERVAL if not drained else 0)
            except queue_module.Empty:
                return drained
            drained = True
            kind, unit_id, worker_index, payload = event
            if kind == "start":
                self._emit("start", unit_id, worker_index, None)
            elif kind == "log":
                self._emit("log", unit_id, worker_index, payload)
            elif kind == "done":
                status, value, error, wall = payload
                result = UnitResult(unit_id, status, value=value, error=error,
                                    wall_seconds=wall, worker=worker_index)
                for worker in workers:
                    if (worker.assignment is not None
                            and worker.assignment[0].unit_id == unit_id):
                        worker.assignment = None
                # One ``done`` per unit: a result that lands after its unit
                # was already marked crashed or timed out is dropped.
                if unit_id not in results:
                    results[unit_id] = result
                    self._emit("done", unit_id, worker_index, result)

    def _emit(self, kind: str, unit_id: str, worker: Optional[int], payload) -> None:
        if self.on_event is not None:
            self.on_event(kind, unit_id, worker, payload)


def run_units(
    units: Sequence[WorkUnit],
    parallel: Optional[int] = None,
    timeout: Optional[float] = None,
    on_event: Optional[Callable] = None,
) -> List[UnitResult]:
    """One-call façade: ``parallel`` <= 1 (or ``None``) runs inline,
    anything larger runs on a pool of that size.  This is the entry point
    the experiment layers use, so every caller gets the same convention
    for free."""
    executor = ParallelExecutor(pool_size=parallel or 1, timeout=timeout,
                                on_event=on_event)
    if (parallel or 1) <= 1:
        return executor.run_inline(units)
    return executor.run(units)
