"""Multi-process GR mining: shard the SFDF tree, trade thresholds, merge.

The paper's GRMiner walks the enumeration tree serially; this package
exploits the tree's embarrassingly parallel first level.  See
:class:`Execution` for one sharded query and the steps every driver
runs it through, :class:`ParallelGRMiner` for the one-shot driver,
:mod:`repro.parallel.planner` for degree-weighted shard packing,
:mod:`repro.parallel.bus` for the best-effort dynamic-threshold
exchange, :mod:`repro.parallel.pool` for the long-lived, store-agnostic
worker-fleet and bus lifecycle used by :class:`repro.engine.MiningEngine`
and :class:`repro.engine.EngineHub`, and
:mod:`repro.parallel.worker` for per-shard execution and the
cross-shard generality verification that keeps the merged result
exactly equal to the serial miner's Definition 5 semantics.
"""

from .bus import SharedThresholdCollector, ThresholdBus
from .miner import (
    Execution,
    ParallelGRMiner,
    check_worker_count,
    merge_shard_results,
)
from .planner import plan_shards
from .pool import BusPool, PersistentWorkerPool, default_start_method
from .worker import CrossShardGeneralityVerifier, ShardResult, ShardTask, mine_shard

__all__ = [
    "BusPool",
    "CrossShardGeneralityVerifier",
    "Execution",
    "ParallelGRMiner",
    "PersistentWorkerPool",
    "SharedThresholdCollector",
    "ShardResult",
    "ShardTask",
    "ThresholdBus",
    "check_worker_count",
    "default_start_method",
    "merge_shard_results",
    "mine_shard",
    "plan_shards",
]
