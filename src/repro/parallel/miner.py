"""ParallelGRMiner — sharded top-k GR mining over a process pool.

The SFDF enumeration tree's first-level LEFT branches partition the GR
space (every LHS has a unique latest-in-τ assignment), so Algorithm 1
parallelizes by branch with *no* shared mutable state on the hot path:

1. **Plan** — the coordinator runs :meth:`GRMiner.plan_branches` and
   packs the branches into degree-weight-balanced shards (LPT).
2. **Share** — the compact store and network columns are exported once
   into POSIX shared memory under a guaranteed-unlink
   :class:`~repro.data.store.SharedStoreLease`; workers attach zero-copy
   read-only views.
3. **Mine** — each worker replays the serial recursion over its
   branches.  Candidate validity (thresholds, triviality, Definition
   5(2) generality) is decided per-shard from first principles, and
   each shard's dynamic ``minNhp`` is its own k-th best score (see
   :mod:`repro.parallel.worker`).
4. **Merge** — per-shard top-k lists are folded through
   :meth:`TopKCollector.merge`; the total rank order makes the outcome
   byte-identical for any worker count, including ``workers=1``.

The result carries *exact* Definition 5 semantics: it equals serial
``GRMiner(k)``, serial ``GRMiner(..., push_topk=False)`` truncated to
k, and the brute-force reference miner, GR for GR.

One sharded query is an :class:`Execution`: the plan and its shard
tasks, plus what a driver tracks while they run (undispatched tasks,
in-flight count, settled results, first error).  Every driver moves it
through the same steps — :meth:`Execution.next_task`,
:meth:`Execution.settle`, :attr:`Execution.drained`,
:meth:`Execution.merge` — so its answer never depends on who drove it:
:class:`ParallelGRMiner` runs one execution over a pool of its own
(exported, spawned and torn down per ``mine()``), or in-process through
:func:`~repro.parallel.worker.mine_shard` for one shard or
``workers=1``;
:meth:`repro.engine.MiningEngine.sweep` runs a batch of them
round-robin over its hub's long-lived fleet (:func:`dispatch`, then
:func:`gather`); the :mod:`repro.serve` scheduler feeds their tasks to
the fleet one slot at a time.  A stream of queries over one network
should go through :class:`repro.engine.MiningEngine`, whose hub keeps
the export and the fleet alive across them.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..core.miner import BranchPlan, GRMiner, MinerConfig
from ..core.results import MiningResult, MiningStats
from ..core.topk import TopKCollector
from ..data.network import SocialNetwork
from .planner import plan_shards
from .pool import PersistentWorkerPool, default_start_method
from .worker import ShardResult, ShardTask, mine_shard

__all__ = [
    "Execution",
    "ParallelGRMiner",
    "check_worker_count",
    "dispatch",
    "gather",
    "memo_counts",
    "merge_shard_results",
    "shard_tasks",
    "warn_at_caller",
    "warn_if_overprovisioned",
]


def warn_at_caller(message: str) -> None:
    """Warn from the first caller outside ``repro.engine`` and
    ``repro.parallel``, however deep inside them the warning is raised:
    ``engine.mine(...)`` reaches the clamp warning through ``sweep``,
    ``prepare`` and ``plan_query``, and ``MiningEngine(...)`` reaches
    :func:`check_worker_count` through the ``EngineHub`` it builds."""
    level, frame = 1, sys._getframe()
    while frame.f_globals.get("__name__", "").startswith(
        ("repro.engine.", "repro.parallel.")
    ):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


def check_worker_count(workers: int | None) -> int:
    """Resolve and validate a worker-count request.

    ``None`` means ``os.cpu_count()``.  A request above the machine's
    CPU count is allowed — shards then time-slice — but it is almost
    never what the caller wants, so it warns instead of crashing
    (mirrors the CLI ``--workers`` passthrough contract).
    """
    cpus = os.cpu_count() or 1
    if workers is None:
        return cpus
    if workers < 1:
        raise ValueError("workers must be a positive process count")
    if workers > cpus:
        warn_at_caller(
            f"workers={workers} exceeds os.cpu_count()={cpus}; the extra "
            "processes will time-slice rather than run concurrently"
        )
    return workers


def warn_if_overprovisioned(workers: int, num_branches: int) -> None:
    """Warn when a query cannot occupy the workers it asked for.

    Shard count is capped by the first-level branch count, so surplus
    workers would simply idle; one shared message keeps the one-shot
    miner and the engine diagnostics identical.
    """
    if 0 < num_branches < workers:
        warn_at_caller(
            f"workers={workers} exceeds the {num_branches} first-level "
            f"branches planned for this query; only {num_branches} "
            "shards can run"
        )


def merge_shard_results(
    shard_results: Sequence[ShardResult],
    config: MinerConfig,
    planner_pruned: int,
) -> tuple[list, MiningStats]:
    """Fold per-shard collections into the globally ranked result.

    The deterministic reduce step shared by :class:`ParallelGRMiner` and
    the engine: because the rank key is a total order, the merge is
    independent of shard count and gather order.
    """
    merged = TopKCollector.merge(
        (result.entries for result in shard_results),
        k=config.k,
        min_score=float(config.min_score),
    )
    totals = MiningStats(pruned_by_support=planner_pruned)
    for result in shard_results:
        totals.lw_nodes += result.stats.lw_nodes
        totals.grs_examined += result.stats.grs_examined
        totals.candidates += result.stats.candidates
        totals.pruned_by_support += result.stats.pruned_by_support
        totals.pruned_by_nhp += result.stats.pruned_by_nhp
        totals.pruned_by_generality += result.stats.pruned_by_generality
    return merged.results(), totals


def memo_counts(shard_results: Sequence[ShardResult]) -> dict:
    """The shards' summed lattice-memo lookups, as result params."""
    return {
        "lw_memo_hits": sum(result.memo_hits for result in shard_results),
        "lw_memo_misses": sum(result.memo_misses for result in shard_results),
    }


def shard_tasks(
    shards: Sequence[tuple], config: MinerConfig, store_handle=None
) -> tuple[ShardTask, ...]:
    """One :class:`ShardTask` per planned shard, all on one store."""
    return tuple(
        ShardTask(
            shard_id=j, branches=branches, config=config, store_handle=store_handle
        )
        for j, branches in enumerate(shards)
    )


@dataclass(eq=False)
class Execution:
    """One planned sharded query and everything its driver tracks.

    A driver hands out tasks with :meth:`next_task`, records each one
    that comes back with :meth:`settle` and is done once
    :attr:`drained`; :meth:`merge` is then the deterministic reduce.  A
    query whose first-level partitions all fall below minSupp plans no
    shard at all: it is drained from the start and merges to an empty
    answer.

    An execution that pins its network's lease (``pinned``) keeps the
    pin until it drained: a shard still in flight may yet attach the
    segment the pin keeps from budget eviction.  Several
    :class:`~repro.serve.ServeJob`\\ s may share one execution
    (``jobs``); it runs at the highest priority among them.
    """

    config: MinerConfig
    #: Result-cache identity (engine-planned executions).
    key: tuple = ()
    plan: BranchPlan | None = None
    tasks: tuple[ShardTask, ...] = ()
    #: Named coordinator-side phases as ``{name: (start, end)}``
    #: ``perf_counter`` seconds — the raw material of trace spans.
    timings: dict = field(default_factory=dict)
    #: When the first shard was handed out (0 until then).
    started: float = 0.0
    #: Shards handed out and not yet settled.
    inflight: int = 0
    shards_done: int = 0
    results: list = field(default_factory=list)
    #: The first shard failure; nothing more is handed out after it.
    error: BaseException | None = None
    #: The engine's network name (engine-planned executions), and whether
    #: the execution holds a pin on that network's lease: the engine
    #: pins it in ``plan_query`` and unpins it in ``release``.
    network: str | None = None
    pinned: bool = False
    #: The jobs sharing this execution (``repro.serve``).
    jobs: list = field(default_factory=list)
    #: Tasks not yet handed out.
    queue: deque = field(init=False)

    def __post_init__(self) -> None:
        self.queue = deque(self.tasks)

    @property
    def drained(self) -> bool:
        """Nothing left to hand out and every handed-out shard settled."""
        return not self.queue and self.inflight == 0

    @property
    def priority(self) -> int:
        """The highest priority among the attached jobs (0 with none)."""
        return max((job.priority for job in self.jobs), default=0)

    def next_task(self) -> ShardTask:
        task = self.queue.popleft()
        self.inflight += 1
        if not self.started:
            self.started = time.perf_counter()
        return task

    def settle(
        self, result: ShardResult | None = None, error: BaseException | None = None
    ) -> None:
        """Record one handed-out shard as back, with its result or error."""
        self.inflight -= 1
        self.shards_done += 1
        if error is None:
            self.results.append(result)
            return
        if self.error is None:
            self.error = error
        self.stop()

    def stop(self) -> None:
        """Hand out no further task (cancelled, or a shard failed)."""
        self.queue.clear()

    def merge(self) -> tuple[list, MiningStats]:
        """Rank-merge the settled shards; stats are timed from ``started``
        (zero when no shard was ever handed out).

        Settle order does not matter: the merge is a total-order reduce
        and the stats are sums, and results are taken in shard order.
        """
        results = sorted(self.results, key=lambda r: r.shard_id)
        entries, stats = merge_shard_results(
            results, self.config, self.plan.pruned_by_support
        )
        if self.started:
            stats.runtime_seconds = time.perf_counter() - self.started
        return entries, stats


def dispatch(executions: Sequence[Execution], pool) -> list[tuple]:
    """Submit every execution's tasks to ``pool``, round-robin across
    executions so each query progresses at once.

    Returns ``(execution, AsyncResult)`` pairs for :func:`gather`.
    """
    handles = []
    live = [execution for execution in executions if execution.queue]
    while live:
        for execution in live:
            handles.append((execution, pool.submit(execution.next_task())))
        live = [execution for execution in live if execution.queue]
    return handles


def gather(handles: Sequence[tuple]) -> None:
    """Block until every dispatched shard settled on its execution.

    A failed shard never raises here: it becomes its execution's
    ``error``, so every other shard is still waited for.
    """
    for execution, handle in handles:
        try:
            result = handle.get()
        except Exception as exc:
            execution.settle(error=exc)
        else:
            execution.settle(result)


class ParallelGRMiner:
    """Mine top-k GRs with sharded worker processes.

    Accepts every :class:`~repro.core.miner.GRMiner` keyword argument,
    plus:

    Parameters
    ----------
    workers:
        Process count; ``None`` uses ``os.cpu_count()``.  ``workers=1``
        (or a single planned shard) runs in-process through the same
        shard machinery — handy for debugging and for the determinism
        guarantee that the answer never depends on the worker count.
        Requests above the CPU count or the planned branch count warn
        (and proceed) rather than crash.
    """

    def __init__(
        self,
        network: SocialNetwork,
        workers: int | None = None,
        store=None,
        **miner_kwargs,
    ) -> None:
        self.network = network
        self.workers = check_worker_count(workers)
        self._config = MinerConfig(**miner_kwargs)
        # The coordinator's miner: validates parameters eagerly, owns the
        # compact store that gets exported, and does the branch planning.
        # Also the in-process executor for one shard or workers=1.
        self._serial = GRMiner(network, store=store, config=self._config)

    # ------------------------------------------------------------------
    def mine(self) -> MiningResult:
        """Plan, shard, mine and merge; returns the ranked result."""
        started = time.perf_counter()
        config = self._config
        plan = self._serial.plan_branches()
        warn_if_overprovisioned(self.workers, len(plan.branches))
        shards = plan_shards(plan.branches, self.workers)
        pooled = len(shards) > 1 and self.workers > 1
        # A one-query pool mines over this store's export, and both are
        # torn down with the query.
        lease = self._serial.store.lease_shared() if pooled else None
        try:
            execution = Execution(
                config=config,
                plan=plan,
                tasks=shard_tasks(shards, config, lease.handle if pooled else None),
                started=started,
            )
            if pooled:
                with PersistentWorkerPool(len(shards)) as pool:
                    gather(dispatch([execution], pool))
            else:
                # One shard, or workers=1: no pool, the shards run on the
                # coordinator's own miner.
                execution.results = [
                    mine_shard(self._serial, task) for task in execution.tasks
                ]
        finally:
            if lease is not None:
                lease.close()
        if execution.error is not None:
            raise execution.error
        entries, stats = execution.merge()
        params = self._serial._params()
        params.update(
            workers=self.workers,
            shards=len(shards),
            start_method=default_start_method(),
            **memo_counts(execution.results),
        )
        return MiningResult(grs=entries, stats=stats, params=params)
