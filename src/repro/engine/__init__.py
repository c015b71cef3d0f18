"""repro.engine — the long-lived mining session layer.

One :class:`MiningEngine` per network: the compact store is built and
fingerprinted once, the shared-memory export and worker fleet are set up
once (lazily), and an arbitrary stream of :class:`MineRequest` queries —
``engine.mine(request)`` or batched ``engine.sweep([...])`` — is served
over them with an LRU result cache.  The one-shot entry points
(:func:`repro.core.miner.mine_top_k`,
:class:`~repro.parallel.ParallelGRMiner`) remain for single queries;
anything that asks twice should hold an engine.

One :class:`EngineHub` per *process*, and the only owner of the worker
fleet and the store leases: many named (and mutable —
``hub.append_edges``) networks served through one shared fleet,
per-network leases evicted LRU-style under a memory budget, and a
result cache that can persist to disk between processes
(:class:`DiskResultCache` / :class:`TieredResultCache`).  A standalone
``MiningEngine(network)`` is a hub of one: it builds a private hub
(``engine.hub``) and closes it with itself.  So is each pooled
``ParallelGRMiner.mine()``, for one query.
"""

from .cache import DiskResultCache, ResultCache, TieredResultCache
from .delta import MigrationReport, migrate_fingerprint
from .engine import EngineStats, Execution, MiningEngine
from .hub import EngineHub
from .request import MineRequest

__all__ = [
    "DiskResultCache",
    "EngineHub",
    "EngineStats",
    "Execution",
    "MigrationReport",
    "MineRequest",
    "MiningEngine",
    "ResultCache",
    "TieredResultCache",
    "migrate_fingerprint",
]
