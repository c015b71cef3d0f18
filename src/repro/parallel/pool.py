"""Worker-fleet lifecycle: a store-agnostic process pool that outlives queries.

:class:`PersistentWorkerPool` is a ``multiprocessing`` pool whose
workers hold no store and no query.  Tasks are self-describing
(:class:`~repro.parallel.worker.ShardTask` carries the query config and
the store handle), so the same fleet serves any number of queries over
any number of stores, interleaved or sequential.  Its one owner is
:class:`~repro.engine.EngineHub`, which spawns it once (shared by many
networks, private to a standalone :class:`~repro.engine.MiningEngine`,
or built for one :class:`~repro.parallel.ParallelGRMiner` query) and
terminates it on close.  Workers start with :func:`default_start_method`.

Completion has one contract: :meth:`PersistentWorkerPool.submit` takes
a ``callback`` and an ``error_callback`` and returns nothing, so the
blocking :func:`~repro.parallel.miner.gather` and the :mod:`repro.serve`
scheduler learn of a settled shard the same way.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from multiprocessing import resource_tracker
from typing import Callable

from ..obs.metrics import REGISTRY
from .worker import ShardTask, initialize_worker, run_shard

__all__ = ["PersistentWorkerPool", "default_start_method"]

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
    """

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError("processes must be a positive process count")
        self.processes = processes
        # Forked workers must inherit the coordinator's resource tracker.
        # Without one to inherit, a worker's first shared-memory attach
        # (which registers the segment) starts a tracker of its own, and
        # that tracker unlinks every segment the worker attached when the
        # worker exits: leases their owner still serves.
        resource_tracker.ensure_running()
        self._pool = mp.get_context(default_start_method()).Pool(
            processes=processes, initializer=initialize_worker
        )
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Shard tasks submitted but not yet settled.

        Settled means the result (or error) arrived back from the fleet
        and its callback ran.  A nonzero count when the hub closes means
        someone is still waiting on the pool — tearing it down then
        would leave that waiter blocked forever, which is why the hub
        fails fast instead.
        """
        with self._inflight_lock:
            return self._inflight

    def submit(
        self, task: ShardTask, callback: Callable, error_callback: Callable
    ) -> None:
        """Dispatch one shard task.

        Submission order is execution order — the engine interleaves
        tasks from concurrent queries by submitting them round-robin.
        Exactly one of the callbacks fires, on the pool's result-handler
        thread, the moment the shard settles: ``callback(result)`` or
        ``error_callback(exc)``.  Callbacks must be quick and must not
        raise: a raising callback kills the result-handler thread, and
        no later shard would ever settle.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        with self._inflight_lock:
            self._inflight += 1
        _TASKS_DISPATCHED.inc()
        _TASKS_INFLIGHT.inc()

        def settled(outcome, then: Callable) -> Callable:
            def fire(value) -> None:
                with self._inflight_lock:
                    self._inflight -= 1
                _TASKS_INFLIGHT.dec()
                outcome.inc()
                then(value)

            return fire

        self._pool.apply_async(
            run_shard,
            (task,),
            callback=settled(_TASKS_OK, callback),
            error_callback=settled(_TASKS_ERROR, error_callback),
        )

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def terminate(self) -> None:
        """Hard shutdown: kill workers without draining the task queue."""
        if not self._closed:
            self._closed = True
            self._pool.terminate()
            self._pool.join()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"PersistentWorkerPool(processes={self.processes}, {state})"
