"""Sharded execution: one planned query as an :class:`Execution`, and
the blocking driver that runs executions on the worker fleet.

The SFDF enumeration tree's first-level LEFT branches partition the GR
space (every LHS has a unique latest-in-τ assignment), so Algorithm 1
parallelizes by branch with *no* shared mutable state on the hot path:

1. **Plan** — the coordinator runs :meth:`GRMiner.plan_branches` and
   packs the branches into degree-weight-balanced shards (LPT;
   :meth:`repro.engine.MiningEngine.shard_execution`).
2. **Share** — the compact store and network columns are exported once
   into POSIX shared memory under a guaranteed-unlink
   :class:`~repro.data.store.SharedStoreLease` that the
   :class:`~repro.engine.EngineHub` owns; workers attach zero-copy
   read-only views.
3. **Mine** — each worker replays the serial recursion over its
   branches (:func:`~repro.parallel.worker.run_shard`).  Candidate
   validity (thresholds, triviality, Definition 5(2) generality) is
   decided per-shard from first principles, and each shard's dynamic
   ``minNhp`` is its own k-th best score.
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
:meth:`Execution.merge` — so its answer never depends on who drove it,
and each learns of a settled shard through the fleet's ``submit``
callbacks:
:meth:`repro.engine.MiningEngine.sweep` and the delta migrator
(:mod:`repro.engine.delta`) run executions on their hub's fleet
(:func:`dispatch`, then :func:`gather`, which settles them on the
caller's thread); the :mod:`repro.serve` scheduler feeds their tasks to
the fleet one slot at a time.  ``mine_top_k(..., workers=N)`` runs one
query on a cache-less :class:`repro.engine.MiningEngine` of ``N``
workers; a stream of queries over one network should hold an engine,
whose hub keeps the export and the fleet alive across them.
"""

from __future__ import annotations

import os
import queue
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..core.miner import BranchPlan, MinerConfig, mine_top_k
from ..core.results import MiningStats
from ..core.topk import TopKCollector
from .worker import ShardResult, ShardTask

__all__ = [
    "Execution",
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
    """Warn from the first caller outside ``repro.engine``,
    ``repro.parallel`` and :func:`~repro.core.miner.mine_top_k`, however
    deep inside them the warning is raised: ``engine.mine(...)`` reaches
    the clamp warning through ``sweep``, ``prepare`` and ``plan_query``,
    and ``mine_top_k(..., workers=N)`` reaches
    :func:`check_worker_count` through the ``MiningEngine`` and
    ``EngineHub`` it builds."""
    level, frame = 1, sys._getframe()
    while frame.f_code is mine_top_k.__code__ or frame.f_globals.get(
        "__name__", ""
    ).startswith(("repro.engine.", "repro.parallel.")):
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
    workers would simply idle.
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

    The deterministic reduce step of every execution and of a delta
    migration: because the rank key is a total order, the merge is
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
    shards: Sequence[tuple], config: MinerConfig, store_handle
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
    #: pins it in ``shard_execution`` and unpins it in ``release``.
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


def dispatch(executions: Sequence[Execution], pool) -> queue.SimpleQueue:
    """Submit every execution's tasks to ``pool``, round-robin across
    executions so each query progresses at once.

    Returns the queue the fleet's callbacks put each settled shard on,
    as ``(execution, result, error)``, for :func:`gather`.
    """
    settled: queue.SimpleQueue = queue.SimpleQueue()
    live = [execution for execution in executions if execution.queue]
    while live:
        for execution in live:
            pool.submit(
                execution.next_task(),
                callback=lambda result, e=execution: settled.put((e, result, None)),
                error_callback=lambda exc, e=execution: settled.put((e, None, exc)),
            )
        live = [execution for execution in live if execution.queue]
    return settled


def gather(executions: Sequence[Execution], settled: queue.SimpleQueue) -> None:
    """Block until every dispatched shard of ``executions`` settled,
    settling each on the caller's thread.

    A failed shard never raises here: it becomes its execution's
    ``error``, so every other shard is still waited for.
    """
    for _ in range(sum(execution.inflight for execution in executions)):
        execution, result, error = settled.get()
        execution.settle(result, error)
