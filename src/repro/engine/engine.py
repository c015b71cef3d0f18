"""MiningEngine — a long-lived session serving many queries over one store.

Motivation: real use of GR mining — including the paper's own Fig. 4
experiment grids — runs *many* ``(k, minSupp, minNhp, rank_by)`` queries
against the *same* network.  The one-shot path
(``mine_top_k(..., workers=N)``, which mines on a cache-less engine that
lives for one query) pays the full setup on every call: build the
compact store, export it to shared memory, fork a worker pool, re-gather
the per-edge columns, re-partition the first level.  The engine hoists
all of that to construction time and amortizes it over the query
stream:

* the :class:`~repro.data.store.CompactStore` is built **once** and
  fingerprinted (the cache identity of the data);
* the worker fleet and the store leases belong to the engine's
  :attr:`~MiningEngine.hub`: a standalone engine builds a private
  :class:`~repro.engine.EngineHub` of one network and closes it with
  itself, a hub-registered one shares its hub's.  Either way the
  shared-memory export happens **once** per store version, under a
  guaranteed-unlink :class:`~repro.data.store.SharedStoreLease`, and the
  fleet is spawned **once** (lazily, on the first mined query) and
  re-armed per query via self-describing shard tasks;
* one miner skeleton on the coordinator plans every query, re-targeted
  per query with :meth:`GRMiner.rearm`, and mines nothing: a migrated
  cache entry's touched branches run on the fleet as an execution too
  (:mod:`repro.engine.delta`);
* results are memoized in an LRU keyed by ``(store fingerprint,
  canonical request)``.

A cache miss is planned into an :class:`~repro.parallel.Execution`
(:meth:`MiningEngine.prepare`) whose shard tasks all run on the fleet:
one, many, or none when every first-level partition falls below
minSupp.  A request's ``workers`` caps how many fleet workers its
shards spread over; ``None`` means the whole fleet.  A planned
execution holds a pin on the lease its tasks address, so no other
network's export can budget-evict that lease before
:meth:`MiningEngine.release` returns the pin.
:meth:`MiningEngine.sweep` drives a batch of executions itself; the
:mod:`repro.serve` scheduler drives the same executions through the
same steps and hands them back to :meth:`MiningEngine.finish` and
:meth:`MiningEngine.release`.  Both learn of each settled shard through
the fleet's ``submit`` callbacks.

Semantics are inherited, not reimplemented: every query runs through
the fleet's :func:`~repro.parallel.worker.run_shard` and
:meth:`Execution.merge <repro.parallel.Execution.merge>`, so the
equivalence harness's guarantees carry over unchanged: every engine
answer is the exact Definition 5 answer, whatever the worker count.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from ..core.miner import GRMiner, MinerConfig
from ..core.results import MiningResult
from ..data.network import SocialNetwork
from ..data.store import CompactStore, StoreDelta
from ..parallel.miner import (
    Execution,
    dispatch,
    gather,
    memo_counts,
    shard_tasks,
    warn_at_caller,
    warn_if_overprovisioned,
)
from ..obs.metrics import REGISTRY
from ..parallel.planner import plan_shards
from ..parallel.pool import default_start_method
from ..serve.markers import coordinator_only
from .delta import migrate_fingerprint
from .request import MineRequest

__all__ = ["EngineStats", "Execution", "MiningEngine"]

_INVALIDATIONS = REGISTRY.counter(
    "repro_store_invalidations_total",
    "Store-delta invalidation events (fingerprint changes).",
)
_DELTA_ENTRIES = REGISTRY.counter(
    "repro_delta_entries_total",
    "Cache entries handled across a store delta, by outcome.",
    labels=("outcome",),
)
_DELTA_MIGRATED = _DELTA_ENTRIES.labels(outcome="migrated")
_DELTA_PURGED = _DELTA_ENTRIES.labels(outcome="purged")
_DELTA_FALLBACKS = _DELTA_ENTRIES.labels(outcome="fallback")
_DELTA_ERRORS = _DELTA_ENTRIES.labels(outcome="error")


@dataclass
class EngineStats:
    """Lifecycle counters proving (and measuring) the amortization."""

    #: Shared-memory store exports performed (≤ 1 per engine *version*:
    #: an append-edge delta retires the old export and pays a new one).
    exports: int = 0
    #: Queries answered, including cache hits.
    queries: int = 0
    #: Queries served straight from the result cache.
    cache_hits: int = 0
    #: Queries actually mined.
    cache_misses: int = 0
    #: Store-delta invalidation events (append_edges → new fingerprint).
    invalidations: int = 0
    #: Cache entries dropped by those invalidations (they re-mine cold).
    purged_entries: int = 0
    #: Cache entries *migrated* across an invalidation instead: carried
    #: over to the new fingerprint with only touched branches re-mined
    #: (see :mod:`repro.engine.delta`).
    migrated_entries: int = 0
    #: Migration attempts that failed a safety check and degraded to a
    #: purge (a subset of ``purged_entries``).
    migration_fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class MiningEngine:
    """Serve a stream of top-k GR mining queries over one shared store.

    Parameters
    ----------
    network:
        The attributed network all queries run against.
    workers:
        Size of the (lazily spawned) worker fleet every mined query runs
        on; ``None`` uses ``os.cpu_count()``.  Individual requests may
        ask for fewer workers; requests asking for more are clamped with
        a warning.
    cache_size:
        LRU capacity of the result cache (``0`` disables caching).
    store:
        A prebuilt :class:`~repro.data.store.CompactStore`; defaults to
        building one from the network.

    The fleet, the store lease and the result cache live on
    :attr:`hub`, a private one-network :class:`~repro.engine.EngineHub`
    that :meth:`close` closes with the engine.  :meth:`EngineHub.register
    <repro.engine.EngineHub.register>` builds engines on a shared hub
    instead.

    Examples
    --------
    >>> from repro.datasets.toy import toy_dating_network
    >>> from repro.engine import MineRequest, MiningEngine
    >>> with MiningEngine(toy_dating_network()) as engine:
    ...     results = engine.sweep([
    ...         MineRequest(k=5, min_support=2, min_nhp=0.5),
    ...         MineRequest(k=3, min_support=2, min_nhp=0.6),
    ...     ])
    >>> [len(r) <= 5 for r in results]
    [True, True]
    """

    def __init__(
        self,
        network: SocialNetwork,
        workers: int | None = None,
        cache_size: int = 128,
        store: CompactStore | None = None,
    ) -> None:
        from .hub import EngineHub  # the hub module imports this one

        self._serve_on(
            EngineHub(workers, cache_size=cache_size), "engine", network, store
        )
        self._owns_hub = True

    def _serve_on(self, hub, name: str, network: SocialNetwork,
                  store: CompactStore | None = None) -> None:
        """Serve ``network`` as ``hub``'s network ``name``: the one set-up
        both a standalone engine and :meth:`EngineHub.register` run."""
        self.hub = hub
        self.name = name
        self.network = network
        self.store = store if store is not None else CompactStore(network)
        self.fingerprint = self.store.fingerprint()
        self.workers = hub.workers
        self.stats = EngineStats()
        self._owns_hub = False
        self._skeleton: GRMiner | None = None
        self._warned_clamp = False
        self._closed = False
        #: Non-None after a failed (and unrecovered) append_edges: the
        #: reason queries must fail loudly instead of serving stale data.
        self._poisoned: str | None = None
        hub._engines[name] = self

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def mine(self, request: MineRequest | None = None, **kwargs) -> MiningResult:
        """Answer one query; keyword form builds the request inline.

        ``engine.mine(k=10, min_nhp=0.5, workers=4)`` is shorthand for
        ``engine.mine(MineRequest.create(k=10, min_nhp=0.5, workers=4))``.
        """
        if request is None:
            request = MineRequest.create(**kwargs)
        elif kwargs:
            raise TypeError("pass either a MineRequest or keywords, not both")
        return self.sweep([request])[0]

    def sweep(self, requests: Iterable[MineRequest | Mapping]) -> list[MiningResult]:
        """Answer a batch of queries, interleaving their shards.

        Every cache-missed query's shard tasks are dispatched
        round-robin over the one shared fleet before any gather, so a
        sweep's wall time approaches the makespan of the combined task
        bag instead of the sum of per-query makespans.  Results come
        back in request order; duplicates within a batch share one
        execution.
        """
        self._ensure_open()
        requests = [
            req if isinstance(req, MineRequest) else MineRequest.create(**req)
            for req in requests
        ]
        answers: list[MiningResult | Execution] = []
        executions: dict[tuple, Execution] = {}
        try:
            for request in requests:
                key = self.query_key(request)
                if key in executions:  # duplicate within this batch
                    self.stats.queries += 1
                    self.stats.cache_hits += 1
                    answers.append(executions[key])
                    continue
                answer = self.prepare(request)
                if isinstance(answer, Execution):
                    executions[key] = answer
                answers.append(answer)
            pending = [e for e in executions.values() if e.queue]
            settled = dispatch(pending, self.hub._ensure_pool()) if pending else None
        except BaseException:
            # A pin is only returnable while none of the query's shards
            # reached the fleet; the others stay out (reclaimed at
            # close()).
            for execution in executions.values():
                if execution.inflight == 0:
                    self.release(execution)
            raise

        # One failing query must not stop the others: every execution is
        # always gathered (its pin may only be returned once all of its
        # shards settled), completed work is cached, and the first error
        # is re-raised at the end.
        gather(pending, settled)
        results: dict[tuple, MiningResult] = {}
        errors: list[BaseException] = []
        for execution in executions.values():
            self.release(execution)
            try:
                if execution.error is not None:
                    raise execution.error
                results[execution.key] = self.finish(execution)
            except BaseException as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return [
            results[a.key] if isinstance(a, Execution) else a for a in answers
        ]

    # ------------------------------------------------------------------
    # The steps a driver runs an execution through
    # ------------------------------------------------------------------
    def query_key(self, request: MineRequest) -> tuple:
        """The result-cache identity of ``request`` over this store."""
        return (self.fingerprint, request.canonical_key(
            self.network.schema, self.network.num_edges
        ))

    @coordinator_only
    def prepare(self, request: MineRequest) -> MiningResult | Execution:
        """The front half of one query: cache lookup, then planning.

        A cache hit returns the answer itself — a private snapshot
        tagged ``params["cached"]`` — and creates no execution; a miss
        returns the :class:`~repro.parallel.Execution`
        :meth:`plan_query` built.  Stats are counted here, so a
        scheduler-served query shows up in :class:`EngineStats` exactly
        like a ``sweep()``-served one.
        """
        self._ensure_open()
        self.stats.queries += 1
        key = self.query_key(request)
        cached = self.hub.cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            # The cache hands out private snapshots, so tagging the copy
            # (consumed by e.g. the CLI's per-row accounting) cannot
            # leak into the stored entry or other callers.
            cached.params["cached"] = True
            return cached
        self.stats.cache_misses += 1
        return self.plan_query(request, key)

    @coordinator_only
    def plan_query(self, request: MineRequest, key: tuple) -> Execution:
        """Plan one cache-missed query into an :class:`Execution`.

        Pays branch planning here, then shards every planned branch
        through :meth:`shard_execution`, so the tasks can be dispatched
        to the fleet without touching the engine again.
        """
        config = request.to_config()
        plan = self._armed_skeleton(config).plan_branches()
        workers = self.workers
        if request.workers is not None:
            workers = min(request.workers, self.workers)
            if request.workers > self.workers and not self._warned_clamp:
                # Once per engine (and per hub network): a sweep of N
                # over-asking requests is one misconfiguration, not N.
                self._warned_clamp = True
                warn_at_caller(
                    f"network {self.name!r}: request asked for "
                    f"workers={request.workers} but the engine's fleet has "
                    f"{self.workers}; clamping (further clamped requests on "
                    "this engine stay silent)"
                )
            warn_if_overprovisioned(workers, len(plan.branches))
        return self.shard_execution(config, plan, plan.branches, workers, key)

    @coordinator_only
    def shard_execution(
        self, config: MinerConfig, plan, branches, workers: int, key: tuple = ()
    ) -> Execution:
        """An :class:`Execution` of ``branches`` packed into at most
        ``workers`` shards over this network's live lease.

        The tasks carry the lease handle so the store-agnostic fleet can
        attach the right data, and the lease stays pinned
        (:meth:`EngineHub.pin_lease <repro.engine.EngineHub.pin_lease>`)
        until :meth:`release`.  With no shard to run (every branch below
        minSupp) the execution is drained from the start and pins
        nothing.
        """
        shards = plan_shards(branches, workers)
        if not shards:
            return Execution(config=config, key=key, plan=plan, network=self.name)
        store_handle = self.hub._touch_lease(self).handle
        self.hub.pin_lease(self.name)
        return Execution(
            config=config,
            key=key,
            plan=plan,
            tasks=shard_tasks(shards, config, store_handle),
            network=self.name,
            pinned=True,
        )

    @coordinator_only
    def finish(self, execution: Execution) -> MiningResult:
        """Merge a drained execution's shards and cache the answer."""
        merge_started = time.perf_counter()
        entries, stats = execution.merge()
        execution.timings["merge"] = (merge_started, time.perf_counter())
        params = self._armed_skeleton(execution.config)._params()
        params.update(
            workers=len(execution.tasks),
            shards=len(execution.tasks),
            start_method=default_start_method(),
            engine=self.fingerprint,
            **memo_counts(execution.results),
        )
        result = MiningResult(grs=entries, stats=stats, params=params)
        self.hub.cache.put(execution.key, result)
        return result

    @coordinator_only
    def release(self, execution: Execution) -> None:
        """Return an execution's lease pin (idempotent).

        Only safe once the execution drained — or before any of its
        shards was dispatched at all.
        """
        if execution.pinned:
            execution.pinned = False
            self.hub.unpin_lease(self.name)

    # ------------------------------------------------------------------
    # The planning skeleton
    # ------------------------------------------------------------------
    @coordinator_only
    def _armed_skeleton(self, config: MinerConfig) -> GRMiner:
        """The engine's one coordinator-side miner, re-targeted to
        ``config``: it plans queries and names their params."""
        if self._skeleton is None:
            self._skeleton = GRMiner(self.network, store=self.store, config=config)
        elif self._skeleton.config != config:
            self._skeleton.rearm(config)
        return self._skeleton

    # ------------------------------------------------------------------
    # Store mutation (append-edge deltas)
    # ------------------------------------------------------------------
    @coordinator_only
    def append_edges(self, src, dst, edge_codes=None) -> str:
        """Apply an append-edge delta to the served network, safely.

        Appends the edges (:meth:`SocialNetwork.append_edges`), rebuilds
        the store's edge-derived arrays (:meth:`CompactStore.apply_delta`)
        and then :meth:`refresh_store`s the serving state, handing the
        returned :class:`~repro.data.store.StoreDelta` to the cache
        migrator.
        Returns the new store fingerprint.  Do not mutate
        ``engine.network`` directly — the engine would keep serving
        pre-delta results from its caches.

        An empty delta short-circuits after validation: nothing changed,
        so neither the store rebuild nor the refresh is paid.

        The post-mutation sequence is transactional: once the network
        has mutated, a failure in the rebuild/refresh is retried once
        through the degraded full-purge path (with a warning); if the
        retry fails too the engine *poisons* itself — every subsequent
        query raises instead of silently serving pre-delta answers for
        the post-delta network.  Validation errors (bad endpoints or
        codes) raise before any mutation and leave the engine healthy.
        """
        self._ensure_open()
        appended = self.network.append_edges(src, dst, edge_codes)
        if appended == 0:
            return self.fingerprint
        try:
            delta = self.store.apply_delta()
            return self.refresh_store(delta)
        except BaseException as exc:
            try:
                self.store.apply_delta()
                new = self.refresh_store()
            except BaseException:
                self._poisoned = (
                    "append_edges mutated the network, then both the "
                    "store rebuild/refresh and its full-rebuild retry "
                    "failed; cached state may describe the pre-delta "
                    "edge set. Recreate the engine over this network."
                )
                raise exc
            warnings.warn(
                "append_edges: the delta-aware refresh failed "
                f"({exc!r}); recovered through a full rebuild + cache "
                "purge, so results stay correct but this delta mined cold",
                stacklevel=2,
            )
            return new

    @coordinator_only
    def refresh_store(self, delta: StoreDelta | None = None) -> str:
        """Re-sync serving state after the backing store was rebuilt.

        Re-reads the fingerprint; when it changed, drops the planning
        skeleton (its column gathers and lattice memo describe the old
        edge set), retires the shared-memory lease (workers
        attach the next export per task) and hands the old fingerprint's
        result-cache entries to :func:`repro.engine.delta.migrate_fingerprint`:
        entries the delta provably did not invalidate are re-keyed to
        the new fingerprint with only their touched branches re-mined
        on the fleet, over a fresh export of the post-delta store;
        the rest are purged (they could never be served again — lookups
        use the new fingerprint — but they would pollute the LRU and any
        disk tier).  With no ``delta`` (an untracked mutation) every
        entry is purged, today's degraded-but-always-sound path.  The
        worker fleet itself survives: tasks carry their store handles,
        so no respawn is needed.
        """
        old = self.fingerprint
        new = self.store.fingerprint()
        if new == old:
            return new
        self.fingerprint = new
        self.stats.invalidations += 1
        _INVALIDATIONS.inc()
        if self._skeleton is not None:
            self._skeleton.clear_memo()
        self._skeleton = None
        self.hub._drop_lease(self.name)
        report = migrate_fingerprint(self, old, delta)
        self.stats.migrated_entries += report.migrated
        self.stats.purged_entries += report.purged
        self.stats.migration_fallbacks += report.fallbacks
        _DELTA_MIGRATED.inc(report.migrated)
        _DELTA_PURGED.inc(report.purged)
        _DELTA_FALLBACKS.inc(report.fallbacks)
        _DELTA_ERRORS.inc(report.errors)
        return new

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("MiningEngine is closed")
        if self._poisoned is not None:
            raise RuntimeError(f"MiningEngine is poisoned: {self._poisoned}")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, force: bool = False) -> None:
        """Stop serving (idempotent).

        A standalone engine closes its private hub with it — the pool and
        the store lease — under :meth:`EngineHub.close
        <repro.engine.EngineHub.close>`'s in-flight guard: with shard
        tasks still in flight it raises and leaves the engine serving,
        unless ``force=True`` (the path ``__exit__`` takes when an
        exception is already unwinding).  A hub-registered engine only
        retires its own lease; the fleet and the hub's other networks
        keep serving.  Its guard is the lease pin: while a planned
        execution pins the lease (:meth:`release` not yet called), its
        tasks still address the segment, so closing raises and leaves
        the engine serving unless ``force=True``.
        """
        if self._closed:
            return
        if self._owns_hub:
            self.hub.close(force)  # marks this engine closed with its hub
            return
        pins = self.hub._lease_pins.get(self.name, 0)
        if pins and not force:
            raise RuntimeError(
                f"close() with {pins} planned execution(s) still pinning "
                f"{self.name!r}'s lease — unlinking it now would fail their "
                "shards; release them first, or call close(force=True)"
            )
        self._closed = True
        self.hub._drop_lease(self.name)

    def __enter__(self) -> "MiningEngine":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # An unwinding exception may have left shards in flight (that is
        # precisely the crash-cleanup path), so the guard is waived.
        self.close(force=exc_type is not None)

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "pooled" if self.hub._pool is not None else "idle"
        )
        return (
            f"MiningEngine({self.name!r}, fingerprint={self.fingerprint[:12]}, "
            f"workers={self.workers}, {state}, "
            f"queries={self.stats.queries}, cache_hits={self.stats.cache_hits})"
        )
