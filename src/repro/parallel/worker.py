"""Per-process execution of enumeration-tree shards.

A worker process is initialized once (:func:`initialize_worker`) and
holds no store of its own.  Each :class:`ShardTask` is *self-describing*
— it carries the query's :class:`~repro.core.miner.MinerConfig` and the
handle of the store export it mines over — so one long-lived worker
serves any stream of queries over any number of stores.  Each
attached store (LRU-bounded) keeps one :class:`~repro.core.miner.GRMiner`
skeleton, re-armed (:meth:`GRMiner.rearm`) whenever a task's config
differs, while its per-edge column gathers and enumeration-lattice memo
persist for the attachment's lifetime.  :func:`run_shard`, the pool's
entry, hands that skeleton to :func:`mine_on_skeleton`, the one place a
shard is mined, which replays the serial miner's recursion over a
task's slice of first-level branches and returns a :class:`ShardResult`
of mined entries plus effort counters.

A shard prunes on its own collector's k-th best score (Algorithm 1
line 28) and nothing else: under the total rank order, a GR in the
global top-k is also in the top-k of the shard that enumerated it, so
the per-shard lists the merge folds always contain the global answer.

Cross-shard generality
----------------------
A blocker (a more general GR passing condition (1)) may be enumerated in
a different first-level branch than the GRs it blocks — e.g. the blocker
``(Region:R) → r`` lives in the Region branch while the blocked
``(Age:a, Region:R) → r`` lives in the Age branch — so a shard's own
generality index cannot enforce Definition 5(2) alone.  Instead of
shipping index updates between processes (which would serialize the
walk), every shard checks each would-be top-k candidate with
:meth:`GRMiner.generality_blocked <repro.core.miner.GRMiner.generality_blocked>`,
which evaluates its generalizations on the data.  Each shard's collector
then holds exactly the Definition-5-valid candidates of its slice — the
property the deterministic merge relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.miner import BranchSpec, GRMiner, MinerConfig
from ..core.results import MinedGR, MiningStats
from ..core.enumeration import static_tau
from ..data.store import SharedStoreHandle, attach_shared_store

__all__ = [
    "ShardResult",
    "ShardTask",
    "StoreAttachment",
    "initialize_worker",
    "mine_on_skeleton",
    "run_shard",
]


@dataclass(frozen=True)
class ShardTask:
    """One worker assignment: a query config plus a slice of branches.

    ``store_handle`` addresses the shared store export the task mines
    over; a pool worker attaches it on demand, which is what lets one
    fleet serve many networks (:class:`repro.engine.EngineHub`) and
    re-exported post-delta stores.  Every task must carry one: a task
    without it fails in the worker with a clear error.
    """

    shard_id: int
    branches: tuple[BranchSpec, ...]
    config: MinerConfig
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

    #: Per-task store attachments keyed by segment name, LRU-bounded by
    #: ``max_attachments`` (a hub evicts leases under a memory budget
    #: and re-exports post-delta stores, so stale names do turn over).
    attachments: "OrderedDict[str, StoreAttachment]" = field(
        default_factory=OrderedDict
    )
    max_attachments: int = 8


#: Process-global state, populated by the pool initializer.
_STATE: list[WorkerState] = []


def initialize_worker() -> None:
    """Pool initializer: a fresh, store-agnostic worker state.

    Deliberately query- and store-agnostic — no miner parameters, no
    store — so the pool outlives any individual query or store version
    (an engine spawns it once and feeds it many); tasks carry the store
    handles the worker attaches.
    """
    _STATE.clear()
    _STATE.append(WorkerState())


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
    """The attachment's miner skeleton, built for ``config`` on first use."""
    if attachment.miner is None:
        attachment.miner = GRMiner(
            attachment.network, store=attachment.store, config=config
        )
    return attachment.miner


def mine_on_skeleton(miner: GRMiner, task: ShardTask) -> ShardResult:
    """Mine a task's branches on a worker skeleton, re-armed first when
    it holds another query, and return the shard's verified entries.

    Every would-be top-k candidate is checked on the data, whatever
    ``push_topk`` says: the shard's index cannot see its sibling
    branches.
    """
    if miner.config != task.config:
        miner.rearm(task.config)
    miner._begin(verify=True)
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


def run_shard(task: ShardTask) -> ShardResult:
    """The pool's entry: mine one shard's branches on the skeleton of
    the store its handle addresses (:func:`mine_on_skeleton`)."""
    if not _STATE:
        raise RuntimeError("worker not initialized — call initialize_worker first")
    attachment = _task_attachment(_STATE[0], task.store_handle)
    return mine_on_skeleton(_shard_miner(attachment, task.config), task)
