"""Worker-fleet lifecycle: a store-agnostic process pool that outlives queries.

PR 1's flow was build-use-discard: every ``ParallelGRMiner.mine()``
exported the store, spawned a pool, ran one query and tore everything
down.  This module separates the *expensive* setup (the spawn) from the
*cheap, per-query* work (sharding + task dispatch) so a long-lived
:class:`~repro.engine.EngineHub` — the one long-lived owner of the
fleet, whether shared by many networks or private to a standalone
:class:`~repro.engine.MiningEngine` — pays the former once.

:class:`PersistentWorkerPool` is a ``multiprocessing`` pool whose
workers hold no store and no query.  Tasks are self-describing
(:class:`~repro.parallel.worker.ShardTask` carries the query config and
the store handle), so the same fleet serves any number of queries over
any number of stores, interleaved or sequential.  Workers start with
:func:`default_start_method`.  Context-manager semantics: graceful
``close()`` + join on clean exit, ``terminate()`` when an exception
unwinds.
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

        Settled means the result (or error) arrived back from the fleet,
        whether or not anyone has ``get()``'d it.  A nonzero count at
        ``close()`` time means someone is still waiting on the pool —
        tearing it down then would leave that waiter blocked forever,
        which is why the hub fails fast instead.
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
        return f"PersistentWorkerPool(processes={self.processes}, {state})"
