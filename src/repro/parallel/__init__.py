"""Multi-process GR mining: shard the SFDF tree, mine, merge.

The paper's GRMiner walks the enumeration tree serially; this package
exploits the tree's embarrassingly parallel first level.  See
:class:`Execution` for one sharded query and the steps every driver
runs it through, :class:`ParallelGRMiner` for the one-shot driver,
:mod:`repro.parallel.planner` for degree-weighted shard packing,
:mod:`repro.parallel.pool` for the long-lived, store-agnostic worker
fleet used by :class:`repro.engine.MiningEngine` and
:class:`repro.engine.EngineHub`, and
:mod:`repro.parallel.worker` for per-shard execution.  Every shard
checks its would-be top-k candidates' generality on the data, so the
merged result is the exact Definition 5 answer, equal to the serial
miner's for any worker count.
"""

from .miner import (
    Execution,
    ParallelGRMiner,
    check_worker_count,
    merge_shard_results,
)
from .planner import plan_shards
from .pool import PersistentWorkerPool, default_start_method
from .worker import ShardResult, ShardTask, mine_shard

__all__ = [
    "Execution",
    "ParallelGRMiner",
    "PersistentWorkerPool",
    "ShardResult",
    "ShardTask",
    "check_worker_count",
    "default_start_method",
    "merge_shard_results",
    "mine_shard",
    "plan_shards",
]
