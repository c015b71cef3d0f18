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
   5(2) generality) is decided per-shard from first principles (see
   :mod:`repro.parallel.worker`), and local k-th best scores are traded
   over a :class:`~repro.parallel.bus.ThresholdBus` so every worker's
   dynamic ``minNhp`` keeps rising as the fleet fills up.
4. **Merge** — per-shard top-k lists are folded through
   :meth:`TopKCollector.merge`; the total rank order makes the outcome
   byte-identical for any worker count, including ``workers=1``.

The result carries *exact* Definition 5 semantics: it equals serial
``GRMiner(..., push_topk=False)`` truncated to k, and the brute-force
reference miner, GR for GR.  (Serial ``GRMiner(k)`` agrees too except in
the rare blocker-in-pruned-subtree case of DESIGN.md §5.5, where the
parallel result is the more faithful one.)

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
round-robin over its long-lived fleet (:func:`dispatch`, then
:func:`gather`); the :mod:`repro.serve` scheduler feeds their tasks to
the fleet one slot at a time.  A stream of queries over one network
should go through :class:`repro.engine.MiningEngine`, which keeps the
export and the fleet alive across them.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from ..core.miner import BranchPlan, GRMiner, MinerConfig
from ..core.results import MiningResult, MiningStats
from ..core.topk import TopKCollector
from ..data.network import SocialNetwork
from .bus import ThresholdBus
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
    "warn_if_overprovisioned",
]


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
        warnings.warn(
            f"workers={workers} exceeds os.cpu_count()={cpus}; the extra "
            "processes will time-slice rather than run concurrently",
            stacklevel=3,
        )
    return workers


def warn_if_overprovisioned(workers: int, num_branches: int) -> None:
    """Warn when a query cannot occupy the workers it asked for.

    Shard count is capped by the first-level branch count, so surplus
    workers would simply idle; one shared message keeps the one-shot
    miner and the engine diagnostics identical.
    """
    if 0 < num_branches < workers:
        warnings.warn(
            f"workers={workers} exceeds the {num_branches} first-level "
            f"branches planned for this query; only {num_branches} "
            "shards can run",
            stacklevel=3,
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
    shards: Sequence[tuple], config: MinerConfig, bus=None, store_handle=None
) -> tuple[ShardTask, ...]:
    """One :class:`ShardTask` per planned shard, all on one bus and store."""
    bus_handle = bus.handle() if bus is not None else None
    return tuple(
        ShardTask(
            shard_id=j,
            branches=branches,
            config=config,
            bus_handle=bus_handle,
            store_handle=store_handle,
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

    An execution holding a ``bus`` owns that checkout until it drained:
    a straggler shard would otherwise publish stale floors into
    whichever query checks the segment out next.  Several
    :class:`~repro.serve.ServeJob`\\ s may share one execution
    (``jobs``); it runs at the highest priority among them.
    """

    config: MinerConfig
    #: Result-cache identity (engine-planned executions).
    key: tuple = ()
    plan: BranchPlan | None = None
    tasks: tuple[ShardTask, ...] = ()
    bus: ThresholdBus | None = None
    #: Warm-start floor the bus was seeded with (``None`` = cold).
    floor: float | None = None
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
    #: Served network whose lease this execution pins (``repro.serve``).
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
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheapest on Linux) and ``spawn`` elsewhere.
    threshold_refresh:
        How many threshold consultations a worker serves from its cached
        bus floor before re-reading the bus (the exchange is best-effort;
        staleness only costs pruning opportunity, never correctness).
    """

    def __init__(
        self,
        network: SocialNetwork,
        workers: int | None = None,
        start_method: str | None = None,
        threshold_refresh: int = 64,
        store=None,
        **miner_kwargs,
    ) -> None:
        self.network = network
        self.workers = check_worker_count(workers)
        self.start_method = start_method or default_start_method()
        self.threshold_refresh = threshold_refresh
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
        bus = None
        try:
            if pooled and config.push_topk and config.k is not None:
                bus = ThresholdBus(num_slots=len(shards))
            execution = Execution(
                config=config,
                plan=plan,
                tasks=shard_tasks(
                    shards, config, bus, lease.handle if pooled else None
                ),
                bus=bus,
                started=started,
            )
            if pooled:
                with PersistentWorkerPool(
                    len(shards),
                    start_method=self.start_method,
                    threshold_refresh=self.threshold_refresh,
                ) as pool:
                    gather(dispatch([execution], pool))
            else:
                # One shard, or workers=1: no pool and no bus, the shards
                # run on the coordinator's own miner.
                execution.results = [
                    mine_shard(self._serial, task, None)
                    for task in execution.tasks
                ]
        finally:
            if bus is not None:
                bus.release()
            if lease is not None:
                lease.close()
        if execution.error is not None:
            raise execution.error
        entries, stats = execution.merge()
        params = self._serial._params()
        params.update(
            workers=self.workers,
            shards=len(shards),
            start_method=self.start_method,
            **memo_counts(execution.results),
        )
        return MiningResult(grs=entries, stats=stats, params=params)
