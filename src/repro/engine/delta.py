"""Delta-aware cache migration: incremental re-mining after append_edges.

The compact store's first level partitions the GR space by the LHS's
latest-in-τ assignment (:class:`~repro.core.miner.BranchSpec`), and an
append-edge delta's footprint on that level is computable exactly: a
first-level branch ``(attr, v)`` gained edges iff some new edge's source
carries ``attr = v`` (:class:`~repro.data.store.StoreDelta`'s
``touched_partitions``).  Since every edge selected by a GR's ``l ∧ w``
conditions matches *all* of its LHS assignments — in particular the
branch assignment — a GR in an untouched branch keeps its l∧w edge set
bit-for-bit, and with it its support, lw, homophily counts and score.

:func:`migrate_fingerprint` exploits that instead of purging the whole
superseded fingerprint: each cached entry is either *migrated* — its
untouched-branch members carried over (re-verified on the new store) and
only the touched branches re-mined on the hub's fleet, as an
:class:`~repro.parallel.Execution` of the same shards every query runs
(:meth:`MiningEngine.shard_execution
<repro.engine.MiningEngine.shard_execution>` over the post-delta
lease), then merged through the same total-order reduce — or
*purged*, whenever any link of the proof below cannot be established.
The fallback is always available and always sound: a purged entry is
simply re-mined cold on its next request.  An entry whose migration
*raises* is purged too, so the others still migrate, but that is a
fault rather than a safety check: it warns with the exception and is
counted apart (:attr:`MigrationReport.errors`).  A failed migration
shard is such a fault: it becomes the execution's ``error``, which the
migration raises.

Soundness of a migrated entry (why the merge equals a cold re-mine)
-------------------------------------------------------------------
Let ``R_old`` be the cached result, ``T`` the touched branches (plus the
root branch, whose empty-LHS GRs select over all edges), ``U'`` the
``R_old`` members in untouched branches that survive re-verification,
and ``C_T`` the fresh top-k of the branches in ``T``.  The migrated
result is ``merge(U', C_T)``.  Eligibility conditions and what each one
buys:

* **Exact entries.**  Every engine entry carries exact Definition 5
  semantics (its shards decide blocking on the data), so set equalities
  below are well-defined.  A key of any other layout (e.g. a disk-tier
  row written before ``push_topk`` left the key) is purged.
* **Ranking ∈ {nhp, confidence, laplace}.**  These depend only on the
  candidate's own counts, which are unchanged in untouched branches.
  ``gain`` divides by ``|E|``, so *every* score moves with the delta —
  gain entries are always purged.
* **``min_score == 0`` or generality off.**  Appending edges can only
  grow supports, so a condition-(1) blocker never loses its support
  qualification; with ``min_score == 0`` (scores are non-negative) it
  cannot lose score qualification either.  Hence *blocked stays
  blocked*: a GR absent from ``R_old`` because of Definition 5(2)
  cannot re-qualify, so untouched branches spring no new members.
  Newly *qualifying* blockers (their counts grew) are handled in the
  other direction by re-checking each ``U'`` member with
  :meth:`GRMiner.generality_blocked <repro.core.miner.GRMiner.generality_blocked>`.

Given those, every valid post-delta GR is either in a touched branch
(exactly covered by ``C_T``) or untouched — then its metrics are
unchanged, so it was valid pre-delta, so it is in ``R_old`` unless
``R_old`` was truncated at ``k``.  Truncation is the one remaining gap,
closed at merge time: with ``t*`` the rank key of ``R_old``'s k-th
entry, any valid GR missing from ``U' ∪ C_T`` ranks strictly below
``t*`` (rank keys are a total order and untouched keys did not move), so
the merge is provably exact when it yields ``k`` entries all ranking at
or above ``t*`` — and falls back otherwise.  When ``R_old`` held fewer
than ``k`` entries it was complete, and the merge is exact
unconditionally.

Re-verification of ``U'`` members doubles as a tripwire: the recomputed
counts must equal the cached ones.  A mismatch means some assumption was
violated (e.g. the store was mutated behind the delta's back), and the
whole entry falls back to the purge path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.miner import CKEY_FIELDS, GRMiner, MinerConfig, config_from_canonical_key
from ..core.results import MinedGR, MiningResult, MiningStats
from ..data.store import StoreDelta
from ..parallel.miner import (
    dispatch,
    gather,
    memo_counts,
    merge_shard_results,
    warn_at_caller,
)
from ..parallel.worker import ShardResult
from ..serve.markers import coordinator_only

__all__ = ["MigrationReport", "migrate_fingerprint"]

#: Rankings whose score is a function of the candidate's own counts
#: alone (an untouched branch therefore keeps its scores exactly).
_COUNT_LOCAL_RANKINGS = ("nhp", "confidence", "laplace")


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of migrating one superseded fingerprint."""

    #: Entries re-keyed to the new fingerprint with a combined result.
    migrated: int = 0
    #: Entries dropped (ineligible, failed a safety check, or the whole
    #: delta was unprovable) — their queries re-mine cold on next use.
    purged: int = 0
    #: The subset of ``purged`` that *looked* migratable but failed a
    #: safety check during the combine (count mismatch, top-k
    #: truncation).
    fallbacks: int = 0
    #: The subset of ``purged`` whose migration raised: a fault, not a
    #: safety check, so each one also warns with its exception.
    errors: int = 0


def _rank_key(entry: MinedGR) -> tuple:
    """The Definition 5 total order (matches TopKCollector.offer)."""
    return (-entry.score, -entry.metrics.support_count, entry.gr.sort_key())


def _code_maps(gr, schema) -> tuple[dict, dict, dict]:
    """A cached GR's label descriptors back as code-level maps."""
    l_map = {n: schema.node_attribute(n).code(v) for n, v in gr.lhs.items}
    w_map = {n: schema.edge_attribute(n).code(v) for n, v in gr.edge.items}
    r_map = {n: schema.node_attribute(n).code(v) for n, v in gr.rhs.items}
    return l_map, w_map, r_map


def _entry_branch(l_map: dict, tau) -> tuple[str, int] | None:
    """The first-level branch owning this LHS: its latest-in-τ
    assignment; ``None`` is the root branch (empty LHS)."""
    for token in reversed(tau):
        if token.role == "L" and token.attr in l_map:
            return (token.attr, l_map[token.attr])
    return None


@coordinator_only
def migrate_fingerprint(engine, old_fingerprint: str, delta: StoreDelta | None) -> MigrationReport:
    """Migrate or purge every cache entry under ``old_fingerprint``.

    Called by :meth:`MiningEngine.refresh_store` after the store was
    rebuilt and ``engine.fingerprint`` already points at the new
    version.  Entries are *taken* (removed) from the cache first, so any
    failure mid-migration degrades to the old purge behaviour — stale
    keys can never be served, and each successfully migrated entry was
    validated independently before being re-inserted.  An entry whose
    migration raises is purged, warned about and counted in
    :attr:`MigrationReport.errors`; the other entries still migrate.
    """
    cache = engine.hub.cache
    if delta is None or delta.untracked or delta.num_new_edges <= 0:
        return MigrationReport(purged=cache.purge_fingerprint(old_fingerprint))
    migrated = purged = fallbacks = errors = 0
    for key, result in cache.take_fingerprint(old_fingerprint):
        combined = None
        status = "ineligible"
        if isinstance(key, tuple) and len(key) == 2:
            try:
                status, combined = _migrate_entry(engine, key[1], result, delta)
            except Exception as exc:
                status = "error"
                warn_at_caller(
                    f"delta migration raised {exc!r}; the cache entry was "
                    "purged and its query will re-mine cold"
                )
        if combined is None:
            purged += 1
            fallbacks += status == "fallback"
            errors += status == "error"
        else:
            cache.put((engine.fingerprint, key[1]), combined)
            migrated += 1
    return MigrationReport(
        migrated=migrated, purged=purged, fallbacks=fallbacks, errors=errors
    )


def _eligible_config(ckey) -> MinerConfig | None:
    """Decode an entry's request key iff it is provably migratable.

    ``ckey`` is a :meth:`MineRequest.canonical_key`: the
    :data:`~repro.core.miner.CKEY_FIELDS` fields of
    :meth:`MinerConfig.canonical_key`.  Cache keys round-trip through
    the sqlite disk tier and may predate the current layout, so the
    shape is checked before the fields are decoded.
    """
    if not isinstance(ckey, tuple) or len(ckey) != CKEY_FIELDS:
        return None  # malformed, or another layout's key
    config = config_from_canonical_key(ckey)
    if config.rank_by not in _COUNT_LOCAL_RANKINGS:
        return None  # gain rescales every score with |E|
    if config.apply_generality and config.min_score > 0.0:
        return None  # a blocker could *lose* qualification → un-blocking
    return config


def _migrate_entry(
    engine, ckey, result: MiningResult, delta: StoreDelta
) -> tuple[str, MiningResult | None]:
    """Combine one cached entry with a touched-branch re-mine.

    Returns ``(status, result-or-None)`` where a ``None`` result means
    the entry must be purged: ``status`` distinguishes entries that were
    never eligible from safety-check fallbacks.
    """
    started = time.perf_counter()
    config = _eligible_config(ckey)
    if config is None:
        return "ineligible", None
    schema = engine.network.schema

    skeleton: GRMiner = engine._armed_skeleton(config)
    plan = skeleton.plan_branches()
    touched = delta.touched_partitions
    tau = plan.tau

    # --- carry over untouched-branch members, re-verified on the new
    # store (the root branch — empty LHS — is touched by construction).
    survivors: list[MinedGR] = []
    for entry in result.grs:
        l_map, w_map, r_map = _code_maps(entry.gr, schema)
        branch = _entry_branch(l_map, tau)
        if branch is None or branch in touched:
            continue  # superseded by the touched-branch re-mine
        metrics, trivial = skeleton.evaluate_codes(l_map, w_map, r_map)
        score = skeleton._score(metrics)
        if (
            metrics.support_count != entry.metrics.support_count
            or metrics.lw_count != entry.metrics.lw_count
            or metrics.homophily_count != entry.metrics.homophily_count
            or score != entry.score
        ):
            # The untouched-branch invariant failed — something mutated
            # outside the delta's account.  Trust nothing in this entry.
            return "fallback", None
        if config.apply_generality and skeleton.generality_blocked(
            *(tuple(sorted(m.items())) for m in (l_map, w_map, r_map))
        ):
            continue  # a blocker newly qualified; Definition 5(2) drops it
        survivors.append(MinedGR(gr=entry.gr, metrics=metrics, score=score))

    # --- re-mine only the touched branches on the fleet, as an
    # execution of the shards every query runs (its exactness carries
    # over).  Its pin comes back once it drained, or when nothing went
    # out, as in sweep().
    touched_branches = tuple(
        b
        for b in plan.branches
        if b.kind == "root" or (b.attr, b.value) in touched
    )
    execution = engine.shard_execution(
        config, plan, touched_branches, engine.workers
    )
    try:
        if execution.queue:
            gather([execution], dispatch([execution], engine.hub._ensure_pool()))
    finally:
        if execution.inflight == 0:
            engine.release(execution)
    if execution.error is not None:
        raise execution.error
    carried = ShardResult(shard_id=-1, entries=survivors, stats=MiningStats())
    entries, stats = merge_shard_results(
        [carried, *execution.results], config, plan.pruned_by_support
    )

    # --- threshold-truncation safety: if the old result was truncated
    # at k, an untouched candidate just below its k-th rank key t* is in
    # neither U' nor C_T; the merge is only provably exact when k slots
    # fill at or above t*.
    if config.k is not None and len(result.grs) >= config.k:
        t_star = _rank_key(result.grs[-1])
        if len(entries) < config.k or _rank_key(entries[-1]) > t_star:
            return "fallback", None

    stats.runtime_seconds = time.perf_counter() - started
    params = dict(result.params)
    params.pop("cached", None)
    params.update(
        engine=engine.fingerprint,
        migrated=True,
        branches_mined=len(touched_branches),
        branches_total=len(plan.branches),
        **memo_counts(execution.results),
    )
    return "migrated", MiningResult(grs=entries, stats=stats, params=params)
