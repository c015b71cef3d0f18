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

This class is the one-shot face of the machinery: every ``mine()``
builds and tears down its own lease and pool.  A stream of queries over
the same network should go through :class:`repro.engine.MiningEngine`,
which keeps both alive and routes each query through the same
:func:`execute_shards` / :func:`merge_shard_results` path used here —
that shared path is what keeps the two layers answer-identical.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Sequence

from ..core.miner import GRMiner, MinerConfig
from ..core.results import MiningResult, MiningStats
from ..core.topk import TopKCollector
from ..data.network import SocialNetwork
from .bus import ThresholdBus
from .planner import plan_shards
from .pool import PersistentWorkerPool, default_start_method
from .worker import ShardResult, ShardTask, make_worker_state, run_shard

__all__ = [
    "ParallelGRMiner",
    "check_worker_count",
    "execute_shards_inline",
    "memo_counts",
    "merge_shard_results",
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


def execute_shards_inline(
    serial: GRMiner, tasks: Sequence[ShardTask]
) -> list[ShardResult]:
    """Run shard tasks sequentially in this process (no pool, no bus).

    Uses the caller's serial miner as the executor so its store-derived
    caches are reused; exact semantics are identical to the pooled path
    because :func:`run_shard` applies the same per-shard verification.
    """
    state = make_worker_state(serial.network, serial.store)
    state.default.miner = serial
    return [run_shard(task, state=state) for task in tasks]


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
        # The coordinator's serial miner: validates parameters eagerly,
        # owns the compact store that gets exported, and does the branch
        # planning.  Also the in-process executor on the workers=1 path.
        self._serial = GRMiner(network, store=store, config=self._config)

    # ------------------------------------------------------------------
    def mine(self) -> MiningResult:
        """Plan, shard, mine and merge; returns the ranked result."""
        start = time.perf_counter()
        plan = self._serial.plan_branches()
        warn_if_overprovisioned(self.workers, len(plan.branches))
        shards = plan_shards(plan.branches, self.workers)
        if len(shards) <= 1 or self.workers == 1:
            tasks = [
                ShardTask(shard_id=i, branches=branches, config=self._config)
                for i, branches in enumerate(shards)
            ]
            shard_results = execute_shards_inline(self._serial, tasks)
        else:
            shard_results = self._mine_pool(shards)

        entries, stats = merge_shard_results(
            shard_results, self._config, plan.pruned_by_support
        )
        stats.runtime_seconds = time.perf_counter() - start
        params = self._serial._params()
        params.update(
            workers=self.workers,
            shards=len(shards),
            start_method=self.start_method,
            **memo_counts(shard_results),
        )
        return MiningResult(grs=entries, stats=stats, params=params)

    # ------------------------------------------------------------------
    def _mine_pool(self, shards: Sequence[tuple]) -> list[ShardResult]:
        """Fan the shards out over a freshly spawned, one-query pool."""
        bus: ThresholdBus | None = None
        if self._config.push_topk and self._config.k is not None:
            bus = ThresholdBus(num_slots=len(shards))
        try:
            with self._serial.store.lease_shared() as lease:
                tasks = [
                    ShardTask(
                        shard_id=i,
                        branches=branches,
                        config=self._config,
                        bus_handle=bus.handle() if bus is not None else None,
                    )
                    for i, branches in enumerate(shards)
                ]
                with PersistentWorkerPool(
                    lease.handle,
                    processes=len(shards),
                    start_method=self.start_method,
                    threshold_refresh=self.threshold_refresh,
                ) as pool:
                    return pool.run_query(tasks)
        finally:
            if bus is not None:
                bus.release()
