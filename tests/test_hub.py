"""EngineHub: many mutable networks, one fleet, tiered caching.

The hub's contract extends the engine's three legs:

1. **Sharing** — any number of registered networks are served through
   exactly one worker-pool spawn, with at most one live shared-memory
   lease per resident network (LRU-evicted under the memory budget).
2. **Exactness under mutation** — every hub answer equals a fresh
   one-shot miner over the network's *current* edge set, including
   after ``append_edges`` deltas.
3. **Invalidation precision** — a delta purges exactly the mutated
   network's old-fingerprint cache entries (memory and disk tier);
   untouched networks keep their hits and leases.
4. **Persistence** — with a disk cache, a restarted process answers a
   previously mined query without mining at all.
"""

import os
import pickle
import queue
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.miner import GRMiner
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import (
    DiskResultCache,
    EngineHub,
    MineRequest,
    ResultCache,
    TieredResultCache,
)

from oracles import oracle


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _make_network(seed: int, num_edges: int = 100):
    schema = random_schema(
        num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
    )
    return random_attributed_network(
        schema, num_nodes=20, num_edges=num_edges, homophily_strength=0.5, seed=seed
    )


def _delta(network, count: int, seed: int = 0):
    """A valid random edge batch for ``network``."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, network.num_nodes, count)
    dst = rng.integers(0, network.num_nodes, count)
    edge_codes = {
        name: rng.integers(
            1, network.schema.edge_attribute(name).domain_size + 1, count
        )
        for name in network.schema.edge_attribute_names
    }
    return src, dst, edge_codes


class TestHubRegistry:
    def test_register_and_lookup(self):
        with EngineHub(workers=1) as hub:
            hub.register("a", _make_network(1))
            assert "a" in hub and hub.names() == ["a"] and len(hub) == 1
            assert hub.network("a").num_edges == 100
            with pytest.raises(ValueError, match="already registered"):
                hub.register("a", _make_network(2))
            with pytest.raises(KeyError, match="no network"):
                hub.mine("missing", k=3)

    def test_closed_hub_refuses_everything(self):
        hub = EngineHub(workers=1)
        hub.register("a", _make_network(1))
        hub.close()
        hub.close()  # idempotent
        assert hub.closed
        with pytest.raises(RuntimeError):
            hub.mine("a", k=3)
        with pytest.raises(RuntimeError):
            hub.register("b", _make_network(2))

    def test_closing_a_registered_engine_leaves_the_hub_serving(self):
        nets = {"a": _make_network(1), "b": _make_network(2)}
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        fresh_request = MineRequest(k=4, min_support=2, min_nhp=0.4, workers=2)
        with EngineHub(workers=2) as hub:
            for name, network in nets.items():
                hub.register(name, network)
                hub.mine(name, request)
            hub.engine("a").close()
            assert hub.engine("a").closed and not hub.closed
            assert hub.resident_networks() == ["b"]  # only a's lease went
            with pytest.raises(RuntimeError, match="closed"):
                hub.mine("a", request)
            result = hub.mine("b", fresh_request)  # a miss: mined on the fleet
            assert hub.stats("b").cache_misses == 2
            assert hub.pool_spawns == 1 and not hub._pool.closed
        assert _signature(result) == _signature(oracle(nets["b"], fresh_request))

    def test_a_pinned_registered_engine_refuses_to_close(self):
        """Closing a registered engine unlinks its lease.  While a planned
        execution pins it, its shards would then fail to attach, so
        ``close()`` raises and the execution still mines."""
        from repro.parallel.miner import dispatch, gather

        network = _make_network(1)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with EngineHub(workers=2, cache_size=0) as hub:
            engine = hub.register("a", network)
            execution = engine.prepare(request)
            with pytest.raises(RuntimeError, match="pinning"):
                engine.close()
            assert not engine.closed
            gather([execution], dispatch([execution], hub._ensure_pool()))
            assert execution.error is None
            result = engine.finish(execution)
            engine.release(execution)
            engine.close()
            assert engine.closed and hub.resident_networks() == []
        assert _signature(result) == _signature(oracle(network, request))


class TestHubEquivalence:
    """Acceptance: hub answers equal the serial oracle, with one
    pool spawn total and one live lease per resident network."""

    def test_interleaved_two_network_traffic(self):
        nets = {"a": _make_network(1), "b": _make_network(2)}
        requests = [
            MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=5, min_support=1, min_nhp=0.5, rank_by="confidence",
                        workers=2),
            MineRequest(k=6, min_support=2, min_nhp=0.4),  # serial mode
        ]
        with EngineHub(workers=2) as hub:
            for name, network in nets.items():
                hub.register(name, network)
            # Alternate networks per query — the worst case for any
            # per-store caching in the workers.
            for request in requests:
                for name in ("a", "b", "a"):
                    result = hub.mine(name, request)
                    assert _signature(result) == _signature(
                        oracle(nets[name], request)
                    ), f"hub diverged on {name}: {request.describe()}"
            assert hub.pool_spawns == 1
            # One live lease per resident network, nothing orphaned.
            assert sorted(hub.resident_networks()) == ["a", "b"]
            assert len(hub._leases) == 2
        assert hub.resident_networks() == []

    def test_sweep_through_hub_matches_engine_semantics(self):
        network = _make_network(3)
        requests = [
            MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2),  # dup
            MineRequest(k=4, min_support=2, min_nhp=0.5),
        ]
        with EngineHub(workers=2) as hub:
            hub.register("n", network)
            results = hub.sweep("n", requests)
            stats = hub.stats("n")
            assert stats.cache_misses == 2 and stats.cache_hits == 1
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(oracle(network, request))


class TestDeltaInvalidation:
    """Satellite: append_edges invalidates exactly the stale entries."""

    def test_hub_equals_fresh_miner_after_delta(self):
        network = _make_network(4)
        request = MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2)
        serial = MineRequest(k=10, min_support=2, min_nhp=0.3)
        with EngineHub(workers=2) as hub:
            hub.register("n", network)
            before = hub.mine("n", request)
            assert _signature(before) == _signature(oracle(network, request))
            old_fp = hub.engine("n").fingerprint

            new_fp = hub.append_edges("n", *_delta(network, 25, seed=7))
            assert new_fp != old_fp
            assert hub.engine("n").fingerprint == new_fp

            # Sharded and serial modes both see the mutated edge set.
            after = hub.mine("n", request)
            assert _signature(after) == _signature(oracle(network, request))
            after_serial = hub.mine("n", serial)
            assert _signature(after_serial) == _signature(oracle(network, serial))
            # Still one fleet; the store was re-exported exactly once.
            assert hub.pool_spawns == 1
            assert hub.stats("n").exports == 2
            assert hub.stats("n").invalidations == 1

    def test_old_fingerprint_entries_are_purged(self):
        network = _make_network(5)
        with EngineHub(workers=1, cache_size=32) as hub:
            hub.register("n", network)
            hub.mine("n", k=5, min_support=2, min_nhp=0.3)
            hub.mine("n", k=3, min_support=1, min_nhp=0.5)
            old_fp = hub.engine("n").fingerprint
            assert len(hub.cache) == 2
            hub.append_edges("n", *_delta(network, 10, seed=1))
            assert len(hub.cache) == 0  # dead keys do not pollute the LRU
            assert hub.stats("n").purged_entries == 2
            # A post-delta repeat really re-mines (no stale hit).
            hub.mine("n", k=5, min_support=2, min_nhp=0.3)
            assert hub.stats("n").cache_hits == 0
            assert old_fp != hub.engine("n").fingerprint

    def test_untouched_network_keeps_its_cache_and_lease(self):
        nets = {"a": _make_network(6), "b": _make_network(7)}
        request = MineRequest(k=8, min_support=2, min_nhp=0.3, workers=2)
        with EngineHub(workers=2) as hub:
            for name, network in nets.items():
                hub.register(name, network)
            hub.mine("a", request)
            hub.mine("b", request)
            lease_b = hub._leases["b"]
            hub.append_edges("a", *_delta(nets["a"], 15, seed=2))
            # b's lease survived the delta to a...
            assert hub._leases["b"] is lease_b and not lease_b.closed
            assert "a" not in hub._leases  # a's stale lease retired
            # ...and so did b's cache entry.
            again = hub.mine("b", request)
            assert hub.stats("b").cache_hits == 1
            assert again.params["cached"] is True
            assert hub.stats("b").invalidations == 0

    def test_delta_to_empty_batch_is_a_noop(self):
        network = _make_network(6)
        with EngineHub(workers=1) as hub:
            hub.register("n", network)
            hub.mine("n", k=5, min_support=2, min_nhp=0.3)
            fp = hub.engine("n").fingerprint
            new_fp = hub.append_edges("n", [], [], {
                name: [] for name in network.schema.edge_attribute_names
            })
            assert new_fp == fp
            assert hub.stats("n").invalidations == 0
            hub.mine("n", k=5, min_support=2, min_nhp=0.3)
            assert hub.stats("n").cache_hits == 1


class TestLeaseBudget:
    def test_lru_eviction_under_memory_budget(self):
        nets = {"a": _make_network(1), "b": _make_network(2)}
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        # A budget of one byte forces single-residency (the in-flight
        # network's lease is exempt, so serving still works).
        with EngineHub(workers=2, lease_budget_bytes=1) as hub:
            for name, network in nets.items():
                hub.register(name, network)
            hub.mine("a", request)
            assert hub.resident_networks() == ["a"]
            result = hub.mine("b", request)
            assert _signature(result) == _signature(oracle(nets["b"], request))
            assert hub.resident_networks() == ["b"]
            assert hub.lease_evictions == 1
            # An evicted lease does not evict results: a's repeat query
            # is a cache hit and touches no shared memory at all.
            repeat = hub.mine("a", request)
            assert hub.stats("a").cache_hits == 1
            assert hub.resident_networks() == ["b"]
            # A *new* pooled query for a re-exports and evicts b in turn.
            fresh_request = MineRequest(k=4, min_support=2, min_nhp=0.4, workers=2)
            again = hub.mine("a", fresh_request)
            assert _signature(again) == _signature(oracle(nets["a"], fresh_request))
            assert hub.resident_networks() == ["a"]
            assert hub.stats("a").exports == 2
            assert hub.lease_evictions == 2
        assert hub.resident_networks() == []

    def test_engine_steps_pin_what_they_plan(self):
        """Planning on a second network must not budget-evict the lease
        the first network's planned tasks address: the engine pins it
        in ``prepare`` and unpins it in ``release``."""
        from repro.parallel.miner import dispatch, gather

        nets = {"a": _make_network(1), "b": _make_network(2)}
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with EngineHub(workers=2, lease_budget_bytes=1) as hub:
            engines = {name: hub.register(name, net) for name, net in nets.items()}
            executions = {name: engines[name].prepare(request) for name in ("a", "b")}
            assert sorted(hub.resident_networks()) == ["a", "b"]
            planned = list(executions.values())
            gather(planned, dispatch(planned, hub._ensure_pool()))
            results = {}
            for name, execution in executions.items():
                assert execution.error is None
                results[name] = engines[name].finish(execution)
                engines[name].release(execution)
            assert hub._lease_pins == {}
        for name, result in results.items():
            assert _signature(result) == _signature(oracle(nets[name], request))

    def test_unbudgeted_hub_keeps_all_leases(self):
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with EngineHub(workers=2) as hub:
            for seed, name in enumerate(("a", "b", "c"), start=1):
                hub.register(name, _make_network(seed))
                hub.mine(name, request)
            assert sorted(hub.resident_networks()) == ["a", "b", "c"]
            assert hub.lease_evictions == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineHub(workers=1, lease_budget_bytes=0)


class TestDiskCache:
    def test_restarted_process_serves_from_disk_without_mining(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: kill the hub, start a new one on the same disk
        cache, repeat a query — zero mining calls."""
        path = tmp_path / "results.sqlite"
        network = _make_network(8)
        request = MineRequest(k=10, min_support=2, min_nhp=0.3)
        with EngineHub(workers=1, disk_cache=path) as hub:
            hub.register("n", network)
            reference = _signature(hub.mine("n", request))

        # "Restart": a brand-new hub (fresh process state) on the file.
        def _no_mining(*args, **kwargs):
            raise AssertionError("query must be served from the disk cache")

        monkeypatch.setattr(GRMiner, "mine", _no_mining)
        monkeypatch.setattr(GRMiner, "plan_branches", _no_mining)
        with EngineHub(workers=1, disk_cache=path) as hub:
            hub.register("n", _make_network(8))  # same content, same fingerprint
            warm = hub.mine("n", request)
            stats = hub.stats("n")
            assert stats.cache_hits == 1 and stats.cache_misses == 0
            assert hub.pool_spawns == 0  # not even the fleet was needed
        assert _signature(warm) == reference

    def test_disk_hits_promote_to_memory(self, tmp_path):
        disk = DiskResultCache(tmp_path / "cache.sqlite")
        memory = ResultCache(maxsize=4)
        tiered = TieredResultCache(memory, disk)
        key = ("fp", ("serial", 1))
        disk.put(key, {"payload": 1})
        assert len(memory) == 0
        assert tiered.get(key) == {"payload": 1}
        assert len(memory) == 1  # promoted
        disk.clear()
        assert tiered.get(key) == {"payload": 1}  # now served by memory

    def test_corrupt_file_degrades_to_miss_and_recreates(self, tmp_path):
        path = tmp_path / "corrupt.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        cache = DiskResultCache(path)
        assert cache.get(("fp", "key")) is None
        cache.put(("fp", "key"), 42)
        assert cache.get(("fp", "key")) == 42  # fully functional again
        cache.close()

    def test_unopenable_path_raises_instead_of_silently_disabling(self, tmp_path):
        # A typo'd --disk-cache must not silently lose persistence.
        import sqlite3

        with pytest.raises((sqlite3.Error, OSError)):
            DiskResultCache(tmp_path / "no" / "such" / "dir" / "cache.sqlite")

    def test_corrupt_row_is_dropped_not_raised(self, tmp_path):
        path = tmp_path / "rows.sqlite"
        cache = DiskResultCache(path)
        key = ("fp", "key")
        cache.put(key, 42)
        fingerprint, ckey = cache._split(key)
        cache._conn.execute(
            "UPDATE results SET value = ? WHERE fingerprint = ? AND ckey = ?",
            (b"\x80garbage", fingerprint, ckey),
        )
        cache._conn.commit()
        assert cache.get(key) is None
        assert key not in cache  # the poisoned row was deleted
        cache.close()

    def test_purge_fingerprint_reaches_the_disk_tier(self, tmp_path):
        cache = DiskResultCache(tmp_path / "purge.sqlite")
        cache.put(("old", "k1"), 1)
        cache.put(("old", "k2"), 2)
        cache.put(("new", "k1"), 3)
        assert cache.purge_fingerprint("old") == 2
        assert len(cache) == 1 and cache.get(("new", "k1")) == 3
        cache.close()

    def test_snapshot_semantics_on_both_tiers(self, tmp_path):
        tiered = TieredResultCache(
            ResultCache(maxsize=4), DiskResultCache(tmp_path / "snap.sqlite")
        )
        value = {"grs": [1, 2, 3]}
        tiered.put(("fp", "k"), value)
        value["grs"].clear()  # post-put mutation must not reach the cache
        first = tiered.get(("fp", "k"))
        assert first == {"grs": [1, 2, 3]}
        first["grs"].clear()  # nor must mutating a returned hit
        assert tiered.get(("fp", "k")) == {"grs": [1, 2, 3]}
        tiered.close()


class TestDiskCacheEviction:
    """Satellite: the sqlite tier no longer grows unboundedly."""

    def test_max_bytes_evicts_lru_by_last_used(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module

        clock = [1000.0]
        monkeypatch.setattr(cache_module, "_now", lambda: clock[0])
        # Each pickled payload is ~size bytes; cap fits roughly two.
        payload = b"x" * 100
        cache = DiskResultCache(tmp_path / "cap.sqlite", max_bytes=250)
        for name in ("k1", "k2", "k3"):
            clock[0] += 1
            cache.put(("fp", name), payload)
        assert len(cache) == 2  # k1 (oldest) already evicted
        assert cache.get(("fp", "k1")) is None
        clock[0] += 1
        assert cache.get(("fp", "k2")) is not None  # refreshes last_used
        clock[0] += 1
        cache.put(("fp", "k4"), payload)
        # k3 became the LRU once k2 was refreshed, so k3 went, k2 stayed.
        assert cache.get(("fp", "k3")) is None
        assert cache.get(("fp", "k2")) is not None
        assert cache.get(("fp", "k4")) is not None
        assert cache.evictions == 2
        assert cache.total_bytes() <= 250
        cache.close()

    def test_oversized_single_value_is_stored_not_thrashed(self, tmp_path):
        cache = DiskResultCache(tmp_path / "big.sqlite", max_bytes=10)
        cache.put(("fp", "huge"), b"y" * 1000)
        assert cache.get(("fp", "huge")) is not None  # kept despite the cap
        cache.put(("fp", "huge2"), b"z" * 1000)
        assert len(cache) == 1  # but it is the first to go for the next one
        cache.close()

    def test_ttl_expires_unused_entries(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module

        clock = [0.0]
        monkeypatch.setattr(cache_module, "_now", lambda: clock[0])
        cache = DiskResultCache(tmp_path / "ttl.sqlite", ttl_seconds=10.0)
        cache.put(("fp", "stale"), 1)
        cache.put(("fp", "kept"), 2)
        clock[0] = 8.0
        assert cache.get(("fp", "kept")) == 2  # refreshed inside the window
        clock[0] = 15.0  # "stale" is 15s old, "kept" only 7s
        assert cache.get(("fp", "stale")) is None  # lazy expiry on access
        assert cache.get(("fp", "kept")) == 2
        assert cache.expirations == 1
        # Bulk expiry on put removes stale rows without touching them.
        clock[0] = 40.0
        cache.put(("fp", "new"), 3)
        assert len(cache) == 1 and cache.get(("fp", "new")) == 3
        cache.close()

    def test_ttl_aware_introspection(self, tmp_path, monkeypatch):
        """Regression: ``__contains__`` and ``__len__`` reported
        TTL-expired rows that ``get`` would refuse to serve, so
        ``key in cache`` disagreed with ``cache.get(key)``."""
        import repro.engine.cache as cache_module

        clock = [0.0]
        monkeypatch.setattr(cache_module, "_now", lambda: clock[0])
        cache = DiskResultCache(tmp_path / "intro.sqlite", ttl_seconds=10.0)
        cache.put(("fp", "k"), 1)
        assert ("fp", "k") in cache and len(cache) == 1
        clock[0] = 11.0
        assert ("fp", "k") not in cache  # agrees with get()
        assert len(cache) == 0
        # Introspection is non-mutating: the row is still on disk for
        # the lazy expiry on access to account for.
        assert cache.expirations == 0
        assert cache.get(("fp", "k")) is None
        assert cache.expirations == 1
        cache.close()

    def test_tiered_contains_is_ttl_aware(self, tmp_path, monkeypatch):
        import repro.engine.cache as cache_module

        clock = [0.0]
        monkeypatch.setattr(cache_module, "_now", lambda: clock[0])
        disk = DiskResultCache(tmp_path / "tiered.sqlite", ttl_seconds=10.0)
        # A zero-capacity memory tier forces every probe to the disk
        # tier, whose TTL view is the one under test.
        tiered = TieredResultCache(ResultCache(0), disk)
        tiered.put(("fp", "k"), 1)
        assert ("fp", "k") in tiered
        clock[0] = 11.0
        assert ("fp", "k") not in tiered
        assert tiered.get(("fp", "k")) is None
        tiered.close()

    def test_pre_eviction_files_are_migrated_in_place(self, tmp_path):
        import pickle
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE results (fingerprint TEXT NOT NULL,"
            " ckey BLOB NOT NULL, value BLOB NOT NULL,"
            " PRIMARY KEY (fingerprint, ckey))"
        )
        key = ("fp", "legacy")
        conn.execute(
            "INSERT INTO results VALUES (?, ?, ?)",
            ("fp", pickle.dumps(key, protocol=4), pickle.dumps(42, protocol=4)),
        )
        conn.commit()
        conn.close()
        cache = DiskResultCache(path, max_bytes=10_000, ttl_seconds=3600)
        assert cache.get(key) == 42  # legacy row readable and evictable
        assert cache.total_bytes() > 0  # size backfilled from LENGTH(value)
        cache.put(("fp", "new"), 43)
        assert cache.get(("fp", "new")) == 43
        cache.close()

    def test_bounds_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskResultCache(tmp_path / "x.sqlite", max_bytes=0)
        with pytest.raises(ValueError):
            DiskResultCache(tmp_path / "y.sqlite", ttl_seconds=0)

    def test_hub_wires_disk_bounds_through(self, tmp_path):
        with EngineHub(
            workers=1,
            disk_cache=tmp_path / "hub.sqlite",
            disk_cache_max_bytes=50_000,
            disk_cache_ttl_seconds=3600,
        ) as hub:
            hub.register("n", _make_network(9))
            hub.mine("n", k=5, min_support=2, min_nhp=0.3)
            disk = hub.cache.disk
            assert disk.max_bytes == 50_000 and disk.ttl_seconds == 3600
            assert len(disk) == 1


class TestWorkerStoreRotation:
    """Per-task store attach: one worker serving many segment names."""

    def test_worker_attachment_table_is_bounded(self):
        from repro.parallel.worker import StoreAttachment, WorkerState, _task_attachment
        from repro.data.store import CompactStore

        state = WorkerState(max_attachments=2)
        leases = []
        try:
            for seed in (1, 2, 3):
                store = CompactStore(_make_network(seed, num_edges=40))
                lease = store.lease_shared()
                leases.append(lease)
                attachment = _task_attachment(state, lease.handle)
                assert isinstance(attachment, StoreAttachment)
                assert attachment.store.num_edges == 40
            assert len(state.attachments) == 2  # LRU-bounded
            # Re-touching a live attachment is served from the table.
            again = _task_attachment(state, leases[-1].handle)
            assert again is state.attachments[leases[-1].name]
        finally:
            state.attachments.clear()
            for lease in leases:
                lease.close()

    def test_store_less_state_rejects_handleless_tasks(self):
        # A worker holds no store of its own: every pooled task must
        # address one, and one that does not fails loudly.
        from repro.core.miner import MinerConfig
        from repro.parallel import PersistentWorkerPool, ShardTask
        from repro.parallel.worker import WorkerState, _task_attachment

        with pytest.raises(RuntimeError, match="carries no store handle"):
            _task_attachment(WorkerState(), None)
        task = ShardTask(shard_id=0, branches=(), config=MinerConfig(k=3))
        settled = queue.SimpleQueue()
        with PersistentWorkerPool(1) as pool:
            pool.submit(task, callback=settled.put, error_callback=settled.put)
            error = settled.get(timeout=30)
        assert isinstance(error, RuntimeError)
        assert "carries no store handle" in str(error)


def _psm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestFleetResourceTracker:
    def test_fleet_forked_before_any_export_leaks_and_warns_nothing(self):
        """A fleet forked before the first store export shares the
        coordinator's resource tracker.  A worker that started a tracker
        of its own would unlink the segments it attached when it exits,
        and warn about them at close."""
        script = textwrap.dedent(
            """
            from repro.datasets.random_graphs import (
                random_attributed_network, random_schema,
            )
            from repro.engine import EngineHub

            schema = random_schema(
                num_node_attrs=3, num_edge_attrs=1, max_domain=3,
                num_homophily=2, seed=1,
            )
            network = random_attributed_network(
                schema, num_nodes=20, num_edges=100, seed=1
            )
            with EngineHub(workers=2, cache_size=0) as hub:
                hub._ensure_pool()
                hub.register("a", network)
                for k in (3, 4, 5):
                    hub.mine("a", k=k, min_support=2, min_nhp=0.3)
            """
        )
        src = Path(__file__).resolve().parent.parent / "src"
        before = _psm_segments()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert _psm_segments() - before == set()
