"""EngineHub — many named networks served through one shared fleet.

The hub is the one owner of what mining needs beyond a network's own
store and skeleton: the worker fleet, the store leases with their
budget and pins, and the result cache.  No other code spawns a worker
or exports a store.  A :class:`~repro.engine.MiningEngine` amortizes
per-query setup for one network on these resources — a standalone
engine on a private hub of one network, a registered one on a shared
hub, and a ``mine_top_k(..., workers=N)`` query on a cache-less hub of
one that lives for that query — and the hub amortizes the *fleet*
across many networks and makes the networks mutable:

* **One pool.**  The worker fleet is spawned once and is store-agnostic,
  like every :class:`PersistentWorkerPool`: each shard task carries its
  network's store handle and workers attach the export on demand
  (LRU-bounded per worker).  Store leases are the only shared-memory
  segments the fleet maps.
* **Per-network leases under a memory budget.**  Each registered
  network's shared-memory export lives in an LRU of
  :class:`~repro.data.store.SharedStoreLease`\\ s.  Attaching a lease
  that would push the total mapped bytes over ``lease_budget_bytes``
  evicts the least-recently-served network's lease (never the one being
  served, nor one a planned execution pins).  Workers that already
  mapped an evicted segment keep their mapping (POSIX unlink
  semantics); the next query for that network simply pays a fresh
  export.
* **Append-edge deltas with incremental cache migration.**
  :meth:`append_edges` mutates the named network in place, rebuilds the
  store's edge-derived arrays, recomputes the fingerprint and retires
  the stale lease.  The old fingerprint's result-cache entries (memory
  *and* disk tier) are not simply purged: entries the delta provably
  did not invalidate are *migrated* to the new fingerprint with only
  the touched first-level branches re-mined on the fleet during the
  delta (:mod:`repro.engine.delta`); the rest are purged and re-mine
  cold.
  Untouched networks keep their cache entries and leases.
* **A shared result cache with an optional disk tier.**  Keys embed the
  store fingerprint, so one cache safely serves every network.  With
  ``disk_cache=PATH`` the cache is a
  :class:`~repro.engine.cache.TieredResultCache` over a sqlite file —
  a restarted process answers previously mined queries without
  re-mining.

Semantics are inherited from the engine layer: each network is served
by a plain :class:`MiningEngine` on the hub's resources.  The hub is not
thread-safe; serve it from one coordinator (queries themselves still
fan out over the worker fleet).

Examples
--------
>>> from repro.datasets.toy import toy_dating_network
>>> from repro.engine import EngineHub
>>> with EngineHub(workers=2) as hub:
...     _ = hub.register("toy", toy_dating_network())
...     result = hub.mine("toy", k=5, min_support=2, min_nhp=0.5)
>>> len(result) <= 5
True
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Iterable, Mapping

from ..core.results import MiningResult
from ..data.network import SocialNetwork
from ..data.store import CompactStore, SharedStoreLease
from ..obs.metrics import REGISTRY
from ..parallel.miner import check_worker_count
from ..parallel.pool import PersistentWorkerPool
from ..serve.markers import coordinator_only
from .cache import DiskResultCache, ResultCache, TieredResultCache
from .engine import MiningEngine
from .request import MineRequest

__all__ = ["EngineHub"]

_LEASE_EXPORTS = REGISTRY.counter(
    "repro_lease_exports_total",
    "Shared-memory store exports (leases opened).",
)
_LEASE_EVICTIONS = REGISTRY.counter(
    "repro_lease_evictions_total",
    "Resident store leases closed by the hub's memory budget.",
)


class EngineHub:
    """Serve mining queries against many named networks from one fleet.

    Parameters
    ----------
    workers:
        Shared fleet size (``None`` uses ``os.cpu_count()``).  Every
        network's mined queries run on this one fleet.
    cache_size:
        Capacity of the shared in-memory result LRU (``0`` disables the
        memory tier).
    disk_cache:
        Optional path to a sqlite file persisting the result cache
        across processes (:class:`~repro.engine.cache.DiskResultCache`).
    disk_cache_max_bytes, disk_cache_ttl_seconds:
        Bound the disk tier: LRU-by-``last_used`` eviction over the
        byte cap, expiry of entries unused for the TTL window.  Both
        default to unbounded (the pre-eviction behavior).
    lease_budget_bytes:
        Soft cap on the summed size of resident shared-memory store
        exports; exceeding it evicts least-recently-served leases
        (``None`` = unbounded).  The lease of the network currently
        being served is never evicted, so a single oversized network
        still works — the budget then only keeps *other* networks out.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_size: int = 256,
        disk_cache: str | os.PathLike | None = None,
        disk_cache_max_bytes: int | None = None,
        disk_cache_ttl_seconds: float | None = None,
        lease_budget_bytes: int | None = None,
    ) -> None:
        if lease_budget_bytes is not None and lease_budget_bytes <= 0:
            raise ValueError("lease_budget_bytes must be positive (or None)")
        self.workers = check_worker_count(workers)
        self.lease_budget_bytes = lease_budget_bytes
        memory = ResultCache(cache_size)
        self.cache = (
            TieredResultCache(
                memory,
                DiskResultCache(
                    disk_cache,
                    max_bytes=disk_cache_max_bytes,
                    ttl_seconds=disk_cache_ttl_seconds,
                ),
            )
            if disk_cache is not None
            else memory
        )
        self._engines: dict[str, MiningEngine] = {}
        self._leases: "OrderedDict[str, SharedStoreLease]" = OrderedDict()
        #: Pin refcounts per network (see :meth:`pin_lease`) — pinned
        #: leases are exempt from budget eviction.
        self._lease_pins: dict[str, int] = {}
        self._pool: PersistentWorkerPool | None = None
        #: Fleet spawns performed (≤ 1 per hub lifetime).
        self.pool_spawns = 0
        #: Leases closed by the memory budget (not by deltas or close()).
        self.lease_evictions = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        network: SocialNetwork,
        store: CompactStore | None = None,
    ) -> MiningEngine:
        """Add a named network; returns the engine serving it on this
        hub's fleet, leases and cache.

        The compact store is built (or adopted) and fingerprinted now;
        the shared-memory export is deferred until the first mined
        query touches it.
        """
        self._ensure_open()
        if name in self._engines:
            raise ValueError(f"network {name!r} is already registered")
        engine = MiningEngine.__new__(MiningEngine)
        engine._serve_on(self, name, network, store)
        return engine

    def engine(self, name: str) -> MiningEngine:
        """The engine serving ``name``."""
        try:
            return self._engines[name]
        except KeyError:
            raise KeyError(
                f"no network {name!r} registered "
                f"(have: {sorted(self._engines) or 'none'})"
            ) from None

    def network(self, name: str) -> SocialNetwork:
        return self.engine(name).network

    def names(self) -> list[str]:
        return sorted(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    def __len__(self) -> int:
        return len(self._engines)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def mine(
        self, name: str, request: MineRequest | None = None, **kwargs
    ) -> MiningResult:
        """Answer one query against the named network."""
        self._ensure_open()
        return self.engine(name).mine(request, **kwargs)

    def sweep(
        self, name: str, requests: Iterable[MineRequest | Mapping]
    ) -> list[MiningResult]:
        """Answer a batch of queries against the named network."""
        self._ensure_open()
        return self.engine(name).sweep(requests)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @coordinator_only
    def append_edges(self, name: str, src, dst, edge_codes=None) -> str:
        """Append edges to the named network; returns its new fingerprint.

        Rebuilds the store's edge-derived state, retires the stale lease
        and migrates-or-purges exactly the old fingerprint's cache
        entries, memory and disk tier (migrated entries are re-keyed to
        the new fingerprint with only the delta-touched branches
        re-mined; see :mod:`repro.engine.delta`, and the per-network
        ``migrated_entries`` / ``purged_entries`` counters in
        :meth:`stats` / :meth:`aggregate_stats`) — other networks'
        entries, hits and leases are untouched.
        """
        self._ensure_open()
        return self.engine(name).append_edges(src, dst, edge_codes)

    # ------------------------------------------------------------------
    # Shared resources (called by the hub's engines)
    # ------------------------------------------------------------------
    @coordinator_only
    def _ensure_pool(self) -> PersistentWorkerPool:
        if self._pool is None:
            self._pool = PersistentWorkerPool(self.workers)
            self.pool_spawns += 1
        return self._pool

    @coordinator_only
    def _touch_lease(self, engine: MiningEngine) -> SharedStoreLease:
        """The live lease for ``engine``, freshly exported if needed,
        promoted to most-recently-served, with the budget enforced."""
        lease = self._leases.get(engine.name)
        if lease is None or lease.closed:
            lease = engine.store.lease_shared()
            engine.stats.exports += 1
            _LEASE_EXPORTS.inc()
            self._leases[engine.name] = lease
        self._leases.move_to_end(engine.name)
        self._evict_over_budget(keep=engine.name)
        return lease

    @coordinator_only
    def _drop_lease(self, name: str) -> None:
        lease = self._leases.pop(name, None)
        if lease is not None:
            lease.close()

    @coordinator_only
    def _evict_over_budget(self, keep: str) -> None:
        if self.lease_budget_bytes is None:
            return
        while (
            len(self._leases) > 1
            and sum(lease.size for lease in self._leases.values())
            > self.lease_budget_bytes
        ):
            # Walk from least-recently-served, skipping the in-flight
            # network and any network pinned by concurrent serving (its
            # queued shard tasks still address the lease's segment, so
            # unlinking it would fail their attach).  All-pinned over
            # budget degrades to a soft cap rather than breaking a job.
            victim = next(
                (
                    name
                    for name in self._leases
                    if name != keep and self._lease_pins.get(name, 0) == 0
                ),
                None,
            )
            if victim is None:
                return
            self._leases.pop(victim).close()
            self.lease_evictions += 1
            _LEASE_EVICTIONS.inc()

    @coordinator_only
    def pin_lease(self, name: str) -> None:
        """Exempt ``name``'s lease from budget eviction (refcounted).

        The engine that resolves an execution's store handle pins its
        lease in :meth:`MiningEngine.shard_execution` and unpins it in
        :meth:`MiningEngine.release`: the execution's shard tasks carry
        the lease's segment name, and an eviction in between — triggered
        by another network's query being planned — would unlink the
        segment out from under them.  Pins nest; they do not create
        leases and survive ``append_edges`` retiring one (the pin then
        guards whatever lease the network's next export produces).
        """
        self._lease_pins[name] = self._lease_pins.get(name, 0) + 1

    @coordinator_only
    def unpin_lease(self, name: str) -> None:
        """Drop one pin for ``name`` (the lease becomes evictable at 0)."""
        count = self._lease_pins.get(name, 0) - 1
        if count > 0:
            self._lease_pins[name] = count
        else:
            self._lease_pins.pop(name, None)

    def resident_networks(self) -> list[str]:
        """Networks whose store export is currently mapped, LRU order."""
        return [name for name, lease in self._leases.items() if not lease.closed]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self, name: str):
        """The named network's :class:`EngineStats`."""
        return self.engine(name).stats

    @coordinator_only
    def aggregate_stats(self) -> dict[str, int]:
        """Hub-wide counters: summed engine stats plus fleet/lease state."""
        totals: dict[str, int] = {
            "networks": len(self._engines),
            "pool_spawns": self.pool_spawns,
            "lease_evictions": self.lease_evictions,
            "resident_leases": len(self.resident_networks()),
        }
        for engine in self._engines.values():
            for key, value in engine.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("EngineHub is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, force: bool = False) -> None:
        """Release the fleet, every lease and the cache, and close every
        engine (idempotent).

        Closing while shard tasks are still in flight fails fast with a
        :class:`RuntimeError` and leaves the hub serving: terminating the
        pool would leave whoever waits for their callbacks blocked
        forever.  Drain or cancel the in-flight queries first, or
        pass ``force=True`` to accept the hard teardown (the path
        ``__exit__`` takes when an exception is already unwinding — after
        a worker crash mid-query the pool is torn down hard and the
        leases' guaranteed unlink keeps ``/dev/shm`` clean).
        """
        if self._closed:
            return
        if not force and self._pool is not None and self._pool.inflight > 0:
            raise RuntimeError(
                f"close() with {self._pool.inflight} shard task(s) still "
                "in flight — terminating the fleet now would block their "
                "gatherer forever; drain or cancel the in-flight queries "
                "first, or call close(force=True) for a hard teardown"
            )
        self._closed = True
        for engine in self._engines.values():
            engine._closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        for lease in self._leases.values():
            lease.close()
        self._leases.clear()
        self._lease_pins.clear()
        self.cache.close()

    def __enter__(self) -> "EngineHub":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.close(force=exc_type is not None)

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "pooled" if self._pool is not None else "idle"
        )
        return (
            f"EngineHub(networks={sorted(self._engines)}, "
            f"workers={self.workers}, {state}, "
            f"resident={self.resident_networks()})"
        )
