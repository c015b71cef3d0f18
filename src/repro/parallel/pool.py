"""Worker-fleet lifecycle: a store-agnostic process pool that outlives queries.

PR 1's flow was build-use-discard: every ``ParallelGRMiner.mine()``
exported the store, spawned a pool, ran one query and tore everything
down.  This module separates the *expensive* setup (the spawn) from the
*cheap, per-query* work (sharding + task dispatch) so a long-lived
:class:`~repro.engine.MiningEngine` or
:class:`~repro.engine.EngineHub` pays the former once:

* :class:`PersistentWorkerPool` — a ``multiprocessing`` pool whose
  workers hold no store and no query.  Tasks are self-describing
  (:class:`~repro.parallel.worker.ShardTask` carries the query config,
  the store handle and the bus address), so the same fleet serves any
  number of queries over any number of stores, interleaved or
  sequential.  Context-manager semantics:
  graceful ``close()`` + join on clean exit, ``terminate()`` when an
  exception unwinds.
* :class:`BusPool` — a free list of :class:`ThresholdBus` segments,
  ``reset()`` on every checkout so a k-th-best score published during
  query N can never tighten query N+1's dynamic minNhp.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from typing import Callable

from ..obs.metrics import REGISTRY
from ..serve.markers import coordinator_only
from .bus import ThresholdBus
from .worker import ShardTask, initialize_worker, run_shard

__all__ = ["BusPool", "PersistentWorkerPool", "default_start_method"]

_TASKS_DISPATCHED = REGISTRY.counter(
    "repro_pool_tasks_dispatched_total",
    "Shard tasks submitted to the worker fleet.",
)
_TASKS_COMPLETED = REGISTRY.counter(
    "repro_pool_tasks_completed_total",
    "Shard tasks settled, by outcome.",
    labels=("outcome",),
)
_TASKS_OK = _TASKS_COMPLETED.labels(outcome="ok")
_TASKS_ERROR = _TASKS_COMPLETED.labels(outcome="error")
_TASKS_INFLIGHT = REGISTRY.gauge(
    "repro_pool_tasks_inflight",
    "Shard tasks submitted but not yet settled.",
)


def default_start_method() -> str:
    """``fork`` where available (cheapest on Linux), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class PersistentWorkerPool:
    """A store-agnostic process pool serving many queries.

    Every submitted task carries its own ``store_handle``, which workers
    attach (and LRU-cache) on demand; the caller owns each exported
    segment and must keep its lease open while tasks addressing it are
    in flight.  A task without a handle fails with a clear error.

    Parameters
    ----------
    processes:
        Fleet size.  A query may use fewer workers (its planner simply
        emits fewer shards) but never more.
    start_method:
        ``multiprocessing`` start method; defaults to
        :func:`default_start_method`.
    threshold_refresh:
        Bus re-read cadence forwarded to every worker (see
        :class:`~repro.parallel.bus.SharedThresholdCollector`).
    """

    def __init__(
        self,
        processes: int,
        start_method: str | None = None,
        threshold_refresh: int = 64,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be a positive process count")
        self.processes = processes
        self.start_method = start_method or default_start_method()
        self.threshold_refresh = threshold_refresh
        ctx = mp.get_context(self.start_method)
        self._pool = ctx.Pool(
            processes=processes,
            initializer=initialize_worker,
            initargs=(threshold_refresh,),
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Shard tasks submitted but not yet settled.

        Settled means the result (or error) arrived back from the fleet,
        whether or not anyone has ``get()``'d it.  A nonzero count at
        ``close()`` time means someone is still waiting on the pool —
        tearing it down then would leave that waiter blocked forever,
        which is why the engine and hub fail fast instead.
        """
        with self._inflight_lock:
            return self._inflight

    def _settle(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def submit(
        self,
        task: ShardTask,
        callback: Callable | None = None,
        error_callback: Callable | None = None,
    ):
        """Dispatch one shard task; returns its ``AsyncResult``.

        Submission order is execution order — the engine interleaves
        tasks from concurrent queries by submitting them round-robin.
        The optional callbacks fire on the pool's result-handler thread
        the moment the shard settles (before any ``get()``), which is
        the non-blocking completion hook the ``repro.serve`` scheduler
        builds its slot accounting on.  Callbacks must be quick and must
        not raise.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        with self._inflight_lock:
            self._inflight += 1
        _TASKS_DISPATCHED.inc()
        _TASKS_INFLIGHT.inc()

        def _done(result):
            self._settle()
            _TASKS_INFLIGHT.dec()
            _TASKS_OK.inc()
            if callback is not None:
                callback(result)

        def _err(exc):
            self._settle()
            _TASKS_INFLIGHT.dec()
            _TASKS_ERROR.inc()
            if error_callback is not None:
                error_callback(exc)

        return self._pool.apply_async(
            run_shard, (task,), callback=_done, error_callback=_err
        )

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Graceful shutdown: finish outstanding tasks, then join."""
        if not self._closed:
            self._closed = True
            self._pool.close()
            self._pool.join()

    def terminate(self) -> None:
        """Hard shutdown: kill workers without draining the task queue."""
        if not self._closed:
            self._closed = True
            self._pool.terminate()
            self._pool.join()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"PersistentWorkerPool(processes={self.processes}, "
            f"start_method={self.start_method!r}, {state})"
        )


class BusPool:
    """Free list of threshold buses, reset between checkouts.

    One bus per *in-flight* query: sequential queries reuse a single
    segment, a batched sweep checks out as many as it overlaps.  Workers
    cache their attachments by segment name, so reuse also keeps the
    per-worker attachment table bounded.

    Buses are allocated with ``num_slots + 1`` slots: slots
    ``0..num_slots-1`` belong to shards (single writer each), the extra
    last slot is reserved for a *warm-start seed* published by the
    coordinator before any shard is dispatched
    (:meth:`ThresholdBus.seed`), so seeding never races a worker.
    """

    def __init__(self, num_slots: int) -> None:
        self.num_slots = num_slots
        self._free: list[ThresholdBus] = []
        self._all: list[ThresholdBus] = []
        self._closed = False

    @coordinator_only
    def acquire(self, floor: float | None = None) -> ThresholdBus:
        """Check out a clean bus (all slots at −inf), optionally seeded.

        ``floor`` is a warm-start threshold published into the reserved
        seed slot before the bus is handed out; every shard of the query
        then starts pruning from it instead of from −inf.  The caller
        guarantees soundness (see :meth:`ThresholdBus.seed`).
        """
        if self._closed:
            raise RuntimeError("bus pool is closed")
        if self._free:
            bus = self._free.pop()
        else:
            bus = ThresholdBus(num_slots=self.num_slots + 1)
            self._all.append(bus)
        bus.reset()
        if floor is not None and floor == floor:  # NaN-safe
            bus.seed(floor)
        return bus

    @coordinator_only
    def release(self, bus: ThresholdBus) -> None:
        """Return a bus once its query has been fully gathered."""
        if not self._closed:
            self._free.append(bus)

    def close(self) -> None:
        """Unlink every segment ever created (idempotent)."""
        self._closed = True
        for bus in self._all:
            bus.release()
        self._all.clear()
        self._free.clear()

    def __enter__(self) -> "BusPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
