"""repro — reproduction of "Mining Social Ties Beyond Homophily" (ICDE 2016).

A library for mining top-k *group relationships* (GRs) from attributed
social networks, ranked by the paper's *non-homophily preference* (nhp)
metric: social ties that are strong **beyond** what the homophily
principle already predicts.

Quickstart
----------
>>> from repro import mine_top_k
>>> from repro.datasets import toy_dating_network
>>> result = mine_top_k(toy_dating_network(), k=5, min_support=2, min_nhp=0.5)
>>> for mined in result:
...     _ = mined.gr, mined.metrics.nhp

Pass ``workers=N`` to shard the enumeration tree over N processes —
the query runs on a cache-less :class:`~repro.engine.MiningEngine`
(which exports the compact store into shared memory and forks a fleet
of N workers for this one query), mines the first-level LEFT branches
concurrently and merges the per-shard top-k lists into the same ranked
answer for any worker count:

>>> result = mine_top_k(toy_dating_network(), k=5, min_support=2,
...                     min_nhp=0.5, workers=2)
>>> len(result) <= 5
True

Many queries against the same network should share a
:class:`~repro.engine.MiningEngine`: it builds and exports the compact
store once, keeps one worker fleet alive, and serves a stream of
:class:`~repro.engine.MineRequest` queries with an LRU result cache:

>>> from repro import MineRequest, MiningEngine
>>> with MiningEngine(toy_dating_network()) as engine:
...     results = engine.sweep([
...         MineRequest(k=5, min_support=2, min_nhp=0.5),
...         MineRequest(k=3, min_support=2, min_nhp=0.6),
...     ])
>>> [len(r) <= 5 for r in results]
[True, True]

Package map
-----------
``repro.core``      GRMiner, metrics, baselines, alternative metrics.
``repro.engine``    The long-lived session layer: MiningEngine serves
                    many MineRequest queries over one shared store,
                    one worker fleet and an LRU result cache; EngineHub
                    serves many named, mutable networks through one
                    fleet with a bounded disk-tier cache.
``repro.serve``     The async serving front: a Scheduler interleaves
                    many concurrent prioritized, cancellable ServeJobs
                    over one hub fleet, with a stdlib HTTP facade
                    (``repro serve``).
``repro.parallel``  Sharded multi-process mining: shard planner, the
                    worker pool, dispatch/gather and the deterministic
                    merge.
``repro.data``      Schemas, networks, the compact LArray/EArray/RArray
                    store (including its shared-memory export) and the
                    single-table model.
``repro.datasets``  The paper's toy network plus synthetic Pokec/DBLP
                    style generators.
``repro.analysis``  Hypothesis-variation workflow, homophily suggestion,
                    report formatting.
``repro.io``        CSV / networkx interop.
``repro.cube``      The BUC iceberg-cube substrate used by baselines.
"""

from .core import (
    GR,
    AlternativeMetricMiner,
    BL1Miner,
    BL2Miner,
    BruteForceMiner,
    ConfidenceMiner,
    Descriptor,
    GRMetrics,
    GRMiner,
    MetricEngine,
    MinedGR,
    MiningResult,
    mine_top_k,
)
from .data import Attribute, CompactStore, EdgeTable, Schema, SocialNetwork
from .engine import EngineHub, MineRequest, MiningEngine

__version__ = "1.3.0"

__all__ = [
    "AlternativeMetricMiner",
    "Attribute",
    "BL1Miner",
    "BL2Miner",
    "BruteForceMiner",
    "CompactStore",
    "ConfidenceMiner",
    "Descriptor",
    "EdgeTable",
    "EngineHub",
    "GR",
    "GRMetrics",
    "GRMiner",
    "MetricEngine",
    "MinedGR",
    "MineRequest",
    "MiningEngine",
    "MiningResult",
    "Schema",
    "SocialNetwork",
    "mine_top_k",
    "__version__",
]
