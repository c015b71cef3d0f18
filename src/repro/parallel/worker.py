"""Per-process execution of enumeration-tree shards.

A worker process is initialized once (:func:`initialize_worker`) and
holds no store of its own.  Each :class:`ShardTask` is *self-describing*
— it carries the query's :class:`~repro.core.miner.MinerConfig`, the
handle of the store export it mines over and (optionally) the address
of the threshold bus to trade k-th-best scores over — so one long-lived
worker serves any stream of queries over any number of stores.  Each
attached store (LRU-bounded) keeps one :class:`~repro.core.miner.GRMiner`
skeleton, re-armed (:meth:`GRMiner.rearm`) whenever a task's config
differs, while its per-edge column gathers and enumeration-lattice memo
persist for the attachment's lifetime.  :func:`mine_shard` replays the
serial miner's recursion over a task's slice of first-level branches
and returns a :class:`ShardResult` of mined entries plus effort
counters; :func:`run_shard` is the pool's entry around it.

Cross-shard generality
----------------------
The serial miner's generality index is a *global* structure: a blocker
(a more general GR passing condition (1)) may be enumerated in a
different first-level branch than the GRs it blocks — e.g. the blocker
``(Region:R) → r`` lives in the Region branch while the blocked
``(Age:a, Region:R) → r`` lives in the Age branch.  A worker-local index
therefore cannot enforce Definition 5(2) alone.  Instead of shipping
index updates between processes (which would serialize the walk), the
worker verifies each would-be top-k candidate against
:class:`CrossShardGeneralityVerifier`: every proper LHS∧edge
sub-selection is evaluated *directly on the data* (memoized), which
decides blocked-ness from first principles, independent of what any
shard happened to enumerate.  This makes each shard's collector hold
exactly the Definition-5-valid candidates of its slice — the property
the deterministic merge relies on — and as a side effect gives the
parallel miner *exact* Definition 5 semantics even where serial
GRMiner(k)'s dynamic threshold can drop below k results (DESIGN.md
§5.5's blocker-in-pruned-subtree case).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.miner import BranchSpec, GRMiner, MinerConfig
from ..core.results import MinedGR, MiningStats
from ..core.enumeration import static_tau
from ..core.topk import GeneralityIndex, TopKCollector
from ..data.store import SharedStoreHandle, attach_shared_store
from .bus import BusHandle, SharedThresholdCollector, ThresholdBus

__all__ = [
    "CrossShardGeneralityVerifier",
    "ShardResult",
    "ShardTask",
    "StoreAttachment",
    "initialize_worker",
    "mine_shard",
    "run_shard",
]


@dataclass(frozen=True)
class ShardTask:
    """One worker assignment: a query config plus a slice of branches.

    ``shard_id`` doubles as the worker's slot on the task's threshold
    bus.  ``bus_handle`` addresses the bus segment for *this query* —
    concurrent queries interleaved over one pool each bring their own
    bus, which is how query N's dynamic thresholds stay out of query
    N+1's pruning.  ``store_handle`` addresses the shared store export
    the task mines over; a pool worker attaches it on demand, which is
    what lets one fleet serve many networks
    (:class:`repro.engine.EngineHub`) and re-exported post-delta stores.
    Every task sent to a pool must carry one; only a task run in-process
    through :func:`mine_shard`, on a miner its caller already holds, may
    leave it ``None``.
    """

    shard_id: int
    branches: tuple[BranchSpec, ...]
    config: MinerConfig
    bus_handle: BusHandle | None = None
    store_handle: SharedStoreHandle | None = None


@dataclass
class ShardResult:
    """What a shard sends back to the coordinator.

    ``memo_hits``/``memo_misses`` count the shard's LW-node lookups the
    executing skeleton's lattice memo served or had to build — what the
    shard reused, kept out of ``stats`` (whose counters never depend on
    a skeleton's history).
    """

    shard_id: int
    entries: list[MinedGR]
    stats: MiningStats
    memo_hits: int = 0
    memo_misses: int = 0


@dataclass
class StoreAttachment:
    """One attached store export plus its armed miner."""

    network: object
    store: object
    shm: object = None  # keeps the attached segment alive
    miner: GRMiner | None = None


@dataclass
class WorkerState:
    """Everything a worker keeps between tasks."""

    refresh_every: int
    #: Per-task store attachments keyed by segment name, LRU-bounded by
    #: ``max_attachments`` (a hub evicts leases under a memory budget
    #: and re-exports post-delta stores, so stale names do turn over).
    attachments: "OrderedDict[str, StoreAttachment]" = field(
        default_factory=OrderedDict
    )
    max_attachments: int = 8
    #: Attached threshold buses keyed by segment name.  An engine reuses
    #: a small free-list of buses across its queries, so this stays
    #: bounded by the engine's concurrent-query high-water mark.
    buses: dict[str, ThresholdBus] = field(default_factory=dict)


#: Process-global state, populated by the pool initializer.
_STATE: list[WorkerState] = []


def initialize_worker(refresh_every: int) -> None:
    """Pool initializer: a fresh, store-agnostic worker state.

    Deliberately query- and store-agnostic — no miner parameters, no
    bus, no store — so the pool outlives any individual query or store
    version (an engine spawns it once and feeds it many); tasks carry
    the store handles the worker attaches.
    """
    _STATE.clear()
    _STATE.append(WorkerState(refresh_every=refresh_every))


class CrossShardGeneralityVerifier:
    """Definition 5(2) decided by direct evaluation (see module docs).

    Called with a candidate's code maps; returns True when some strictly
    more general GR with the same RHS qualifies under condition (1).
    Qualification checks mirror the serial miner's verification pass:
    non-trivial (unless trivial GRs are admitted), non-empty LHS (unless
    admitted), supp ≥ minSupp, score ≥ the user threshold.  Verdicts are
    memoized per (LHS, edge, RHS) selection — generalization sets of
    neighbouring candidates overlap heavily, so the cache hit rate is
    high within a shard.  The memo is valid only for the config the
    verifier was built with; :func:`mine_shard` installs a fresh
    verifier per task.
    """

    def __init__(self, miner: GRMiner) -> None:
        self._miner = miner
        self._memo: dict[tuple, bool] = {}

    def __call__(
        self,
        l_map: dict[str, int],
        w_map: dict[str, int],
        r_map: dict[str, int],
    ) -> bool:
        miner = self._miner
        l_key = tuple(sorted(l_map.items()))
        w_key = tuple(sorted(w_map.items()))
        r_key = tuple(sorted(r_map.items()))
        for l_sel, w_sel in GeneralityIndex._lw_subselections(l_key, w_key):
            if not l_sel and not miner.allow_empty_lhs:
                continue
            if self._qualifies(l_sel, w_sel, r_key):
                return True
        return False

    def _qualifies(self, l_sel: tuple, w_sel: tuple, r_key: tuple) -> bool:
        key = (l_sel, w_sel, r_key)
        cached = self._memo.get(key)
        if cached is None:
            miner = self._miner
            metrics, trivial = miner.evaluate_codes(
                dict(l_sel), dict(w_sel), dict(r_key)
            )
            cached = miner.blocker_qualifies(metrics, trivial)
            self._memo[key] = cached
        return cached


def _task_attachment(
    state: WorkerState, handle: SharedStoreHandle | None
) -> StoreAttachment:
    """Resolve a task's store by attaching its export by name.

    Attachments are cached per segment name and LRU-bounded: one
    long-lived worker serving a hub's rotating population of leases
    (evictions, post-delta re-exports) must not accumulate mappings
    forever.  Eviction drops the armed miner with the views before
    closing the segment, and the miner's lattice memo with it.
    """
    if handle is None:
        raise RuntimeError(
            "shard task carries no store handle: a pool worker holds no "
            "store of its own, so every pooled task must address its "
            "store export"
        )
    attachment = state.attachments.get(handle.shm_name)
    if attachment is None:
        network, store, shm = attach_shared_store(handle)
        attachment = StoreAttachment(network=network, store=store, shm=shm)
        state.attachments[handle.shm_name] = attachment
        while len(state.attachments) > state.max_attachments:
            _, stale = state.attachments.popitem(last=False)
            if stale.miner is not None:
                stale.miner.clear_memo()
            stale.miner = None
            stale.network = None
            stale.store = None
            try:
                if stale.shm is not None:
                    stale.shm.close()
            except BufferError:
                # A straggling view still maps the buffer; the mmap is
                # reclaimed when it is garbage-collected instead.
                pass
    else:
        state.attachments.move_to_end(handle.shm_name)
    return attachment


def _shard_miner(attachment: StoreAttachment, config: MinerConfig) -> GRMiner:
    """The attachment's miner skeleton, re-armed when the query changes."""
    if attachment.miner is None:
        attachment.miner = GRMiner(
            attachment.network, store=attachment.store, config=config
        )
    elif attachment.miner.config != config:
        attachment.miner.rearm(config)
    return attachment.miner


def _task_bus(state: WorkerState, handle: BusHandle | None) -> ThresholdBus | None:
    if handle is None:
        return None
    name = handle[0]
    bus = state.buses.get(name)
    if bus is None:
        bus = state.buses[name] = ThresholdBus(handle=handle)
    return bus


def run_shard(task: ShardTask) -> ShardResult:
    """The pool's entry: resolve the task's store and bus, then mine."""
    if not _STATE:
        raise RuntimeError("worker not initialized — call initialize_worker first")
    state = _STATE[0]
    miner = _shard_miner(_task_attachment(state, task.store_handle), task.config)
    return mine_shard(
        miner, task, _task_bus(state, task.bus_handle), state.refresh_every
    )


def mine_shard(
    miner: GRMiner,
    task: ShardTask,
    bus: ThresholdBus | None,
    refresh_every: int = 64,
) -> ShardResult:
    """Mine one shard's branches on ``miner`` and return its verified
    entries.

    ``miner`` must already be armed with ``task.config``; the task's
    store handle is not consulted.  With a ``bus`` (and a dynamic
    top-k) the collector trades k-th-best scores over it, re-reading
    the bus every ``refresh_every`` consultations.
    """
    if bus is not None and miner.push_topk and miner.k is not None:
        collector: TopKCollector = SharedThresholdCollector(
            k=miner.k,
            min_score=miner.min_score,
            bus=bus,
            slot=task.shard_id,
            refresh_every=refresh_every,
        )
    else:
        collector = TopKCollector(
            k=miner.k if miner.push_topk else None, min_score=miner.min_score
        )
    miner._begin(collector)
    miner._candidate_verifier = (
        CrossShardGeneralityVerifier(miner) if miner.apply_generality else None
    )
    tau = static_tau(miner.schema, miner.node_attributes)
    for branch in task.branches:
        miner.mine_branch(tau, branch)
    return ShardResult(
        shard_id=task.shard_id,
        entries=miner._collector.results(),
        stats=miner._stats,
        memo_hits=miner.memo_hits,
        memo_misses=miner.memo_misses,
    )
