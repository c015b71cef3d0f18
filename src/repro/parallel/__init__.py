"""Multi-process GR mining: shard the SFDF tree, mine, merge.

The paper's GRMiner walks the enumeration tree serially; this package
exploits the tree's embarrassingly parallel first level.  See
:class:`Execution` for one sharded query and the steps every driver
runs it through, :mod:`repro.parallel.planner` for degree-weighted
shard packing, :mod:`repro.parallel.pool` for the store-agnostic worker
fleet that :class:`repro.engine.EngineHub` owns, and
:func:`~repro.parallel.worker.run_shard`, the one place a shard is
mined, in a fleet worker.  The engine plans every execution, so a
one-shot sharded query is ``mine_top_k(..., workers=N)`` on a
cache-less engine.  Every shard checks its would-be top-k candidates'
generality on the data, so the merged result is the exact Definition 5
answer, equal to the serial miner's for any worker count.
"""

from .miner import Execution, check_worker_count, merge_shard_results
from .planner import plan_shards
from .pool import PersistentWorkerPool, default_start_method
from .worker import ShardResult, ShardTask

__all__ = [
    "Execution",
    "PersistentWorkerPool",
    "ShardResult",
    "ShardTask",
    "check_worker_count",
    "default_start_method",
    "merge_shard_results",
    "plan_shards",
]
