"""The MiningEngine session layer: amortized serving with exact semantics.

The engine's contract has three legs:

1. **Amortization** — a sweep of M parameter combos performs exactly one
   store export and one pool spawn (the acceptance criterion of the
   engine PR), with the first-level state reused across queries.
2. **Exactness** — every engine result, with or without ``workers``,
   equals a fresh ``ParallelGRMiner`` of the same parameters (and
   therefore the exact Definition 5 reference).
3. **Isolation** — nothing leaks between consecutive queries: no stale
   threshold-bus floors, no stale caches when parameters change, no
   orphaned shared-memory segments when a worker dies.
"""

import math
import warnings
from dataclasses import replace
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import GRMiner, MinerConfig
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import MineRequest, MiningEngine, ResultCache
from repro.parallel import ParallelGRMiner


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


_NETWORKS = {}


def _network(seed: int):
    if seed not in _NETWORKS:
        schema = random_schema(
            num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
        )
        _NETWORKS[seed] = random_attributed_network(
            schema,
            num_nodes=20,
            num_edges=100,
            homophily_strength=0.5,
            seed=seed,
        )
    return _NETWORKS[seed]


def _fresh(network, request: MineRequest):
    """A cold one-shot run of the same query, outside any engine: the
    exact parallel miner, which every engine answer must equal."""
    return ParallelGRMiner(
        network,
        workers=request.workers or 1,
        k=request.k,
        min_support=request.min_support,
        min_score=request.min_nhp,
        rank_by=request.rank_by,
        push_topk=request.push_topk,
        **dict(request.options),
    ).mine()


class TestMineRequest:
    def test_maps_onto_miner_config(self):
        request = MineRequest.create(
            k=7, min_support=3, min_nhp=0.4, rank_by="confidence",
            allow_empty_lhs=True, node_attributes=["A", "B"],
        )
        config = request.to_config()
        assert config.k == 7 and config.min_score == 0.4
        assert config.allow_empty_lhs and config.node_attributes == ("A", "B")

    def test_min_score_alias_accepted(self):
        assert MineRequest.create(min_score=0.7).min_nhp == 0.7

    def test_first_class_fields_rejected_as_options(self):
        with pytest.raises(ValueError):
            MineRequest(options=(("k", 5),))

    def test_invalid_parameters_fail_at_build_time(self):
        with pytest.raises(ValueError):
            MineRequest(min_nhp=1.5)
        with pytest.raises(ValueError):
            MineRequest(rank_by="oracle")
        with pytest.raises(ValueError):
            MineRequest(workers=0)
        with pytest.raises(ValueError):
            MineRequest(min_support=-5)
        with pytest.raises(ValueError):
            MineRequest(min_support=True)

    def test_canonical_key_resolves_equivalent_forms(self):
        network = _network(0)
        schema, edges = network.schema, network.num_edges
        absolute = MineRequest(k=5, min_support=10, min_nhp=0.5)
        fractional = MineRequest(k=5, min_support=10 / edges, min_nhp=0.5)
        assert absolute.canonical_key(schema, edges) == fractional.canonical_key(
            schema, edges
        )
        explicit_attrs = MineRequest.create(
            k=5, min_support=10, min_nhp=0.5,
            node_attributes=schema.node_attribute_names,
        )
        assert absolute.canonical_key(schema, edges) == explicit_attrs.canonical_key(
            schema, edges
        )

    def test_miner_rejects_config_plus_explicit_keywords(self):
        network = _network(0)
        config = MinerConfig(k=5, min_support=2)
        assert GRMiner(network, config=config).k == 5
        with pytest.raises(ValueError, match="not both"):
            GRMiner(network, k=9, config=config)

    def test_canonical_key_ignores_worker_counts(self):
        # Every engine answer is exact and worker-count deterministic,
        # so a whole-fleet request shares its key with every count.
        network = _network(0)
        schema, edges = network.schema, network.num_edges
        keys = {
            MineRequest(k=5, min_support=2, workers=workers).canonical_key(
                schema, edges
            )
            for workers in (None, 1, 2, 4)
        }
        assert len(keys) == 1


class TestMinSupportCanonicalization:
    """Satellite: minSupp edge cases either raise cleanly or collapse to
    the same cache key as their integer form."""

    def test_zero_and_vanishing_fractions_collapse_to_one(self):
        network = _network(0)
        schema, edges = network.schema, network.num_edges
        base = MineRequest(k=5, min_support=1).canonical_key(schema, edges)
        for form in (0, 0.0, 1e-12, 0.5 / edges):
            key = MineRequest(k=5, min_support=form).canonical_key(schema, edges)
            assert key == base, f"min_support={form!r} diverged from 1"

    def test_float_one_is_rejected_as_ambiguous(self):
        # 1.0 reads as both "one edge" (absolute) and "all edges"
        # (fraction); silently picking one poisons cross-form cache
        # collapsing, so it must fail at request build time.
        with pytest.raises(ValueError, match="ambiguous"):
            MineRequest(k=5, min_support=1.0)
        with pytest.raises(ValueError, match="ambiguous"):
            MinerConfig(min_support=1.0)
        with pytest.raises(ValueError, match="ambiguous"):
            GRMiner._absolute_support(1.0, 100)

    def test_out_of_range_fractions_raise(self):
        for bad in (-0.25, 1.5, float("nan"), -3):
            with pytest.raises(ValueError):
                MineRequest(k=5, min_support=bad)

    @settings(max_examples=100, deadline=None)
    @given(v=st.integers(min_value=0, max_value=100))
    def test_boundary_fractions_match_their_integer_form(self, v):
        """v/|E| is exactly the fraction meaning "at least v edges"."""
        network = _network(0)
        schema, edges = network.schema, network.num_edges
        assert edges == 100
        if v == edges:
            with pytest.raises(ValueError, match="ambiguous"):
                MineRequest(k=5, min_support=v / edges)
            return
        frac_key = MineRequest(k=5, min_support=v / edges).canonical_key(
            schema, edges
        )
        int_key = MineRequest(k=5, min_support=max(1, v)).canonical_key(
            schema, edges
        )
        assert frac_key == int_key

    @settings(max_examples=100, deadline=None)
    @given(
        fraction=st.floats(
            min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False
        )
    )
    def test_any_fraction_matches_its_resolved_count(self, fraction):
        network = _network(0)
        schema, edges = network.schema, network.num_edges
        resolved = GRMiner._absolute_support(fraction, edges)
        assert 1 <= resolved <= edges
        frac_key = MineRequest(k=5, min_support=fraction).canonical_key(
            schema, edges
        )
        int_key = MineRequest(k=5, min_support=resolved).canonical_key(
            schema, edges
        )
        assert frac_key == int_key


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_size_disables_caching(self):
        cache = ResultCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0


class TestEngineAmortization:
    """Acceptance: M combos, one export, one pool spawn, exact answers."""

    def test_sweep_exports_and_spawns_once(self):
        network = _network(3)
        requests = [
            MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=5, min_support=1, min_nhp=0.5, rank_by="confidence", workers=2),
            MineRequest(k=15, min_support=2, min_nhp=0.0, push_topk=False, workers=2),
            MineRequest(k=3, min_support=3, min_nhp=0.4, workers=2),
        ]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
            assert engine.stats.exports == 1
            assert engine.stats.pool_spawns == 1
            # A follow-up single query still reuses the same fleet.
            engine.mine(MineRequest(k=4, min_support=2, min_nhp=0.6, workers=2))
            assert engine.stats.exports == 1
            assert engine.stats.pool_spawns == 1
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(_fresh(network, request))

    def test_workers_less_queries_run_on_the_whole_fleet(self):
        network = _network(1)
        with MiningEngine(network, workers=2) as engine:
            result = engine.mine(k=8, min_support=2, min_nhp=0.3)
            assert engine.stats.exports == 1 and engine.stats.pool_spawns == 1
            assert result.params["shards"] == 2
        exact = GRMiner(
            network, k=8, min_support=2, min_score=0.3, push_topk=False
        ).mine()
        assert _signature(result) == _signature(exact)[:8]

    def test_mixed_serial_and_sharded_sweep(self):
        network = _network(2)
        requests = [
            MineRequest(k=6, min_support=2, min_nhp=0.3),
            MineRequest(k=6, min_support=2, min_nhp=0.3, workers=2),
            MineRequest(k=9, min_support=1, min_nhp=0.5),
        ]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(_fresh(network, request))

    def test_single_shard_request_runs_on_the_fleet(self, monkeypatch):
        # One shard is still a fleet task: the coordinator never mines.
        schema = random_schema(
            num_node_attrs=1, num_edge_attrs=0, max_domain=2, num_homophily=1, seed=9
        )
        network = random_attributed_network(schema, num_nodes=5, num_edges=12, seed=9)
        with MiningEngine(network, workers=2) as engine:
            engine._ensure_pool()  # forked before the patch: workers mine

            def _no_mining(*args, **kwargs):
                raise AssertionError("the coordinator must not mine")

            monkeypatch.setattr(GRMiner, "mine_branch", _no_mining)
            result = engine.mine(k=3, min_support=1, min_nhp=0.0, workers=1)
            monkeypatch.undo()
            assert result.params["shards"] == 1
        fresh = ParallelGRMiner(network, workers=1, k=3, min_support=1, min_score=0.0).mine()
        assert _signature(result) == _signature(fresh)

    def test_zero_shard_query_resolves_without_the_fleet(self):
        # Every first-level partition is below minSupp: no shard runs,
        # and the empty answer carries no stale runtime.
        from repro.datasets.toy import toy_dating_network

        request = MineRequest(k=5, min_support=10_000, workers=2)
        with MiningEngine(toy_dating_network(), workers=2) as engine:
            [result] = engine.sweep([request])
            assert len(result) == 0 and result.params["shards"] == 0
            assert result.stats.runtime_seconds < 1
            assert engine.stats.pool_spawns == 0
            buses = engine._buses
            assert buses is None or len(buses._free) == len(buses._all)


class TestEngineCache:
    def test_repeat_query_is_served_from_cache(self):
        network = _network(4)
        request = MineRequest(k=10, min_support=2, min_nhp=0.3, workers=2)
        with MiningEngine(network, workers=2) as engine:
            first = engine.mine(request)
            second = engine.mine(request)
            # Hits hand out private snapshots (mutation cannot poison
            # the entry), so equality + the hit counter prove the cache
            # served it, not object identity.
            assert second is not first
            assert _signature(second) == _signature(first)
            assert second.params["cached"] is True
            assert engine.stats.cache_hits == 1
            assert engine.stats.cache_misses == 1

    def test_equivalent_forms_share_a_cache_entry(self):
        network = _network(4)
        absolute = MineRequest(k=5, min_support=2, min_nhp=0.5)
        fractional = MineRequest(
            k=5, min_support=2 / network.num_edges, min_nhp=0.5
        )
        with MiningEngine(network) as engine:
            first = engine.mine(absolute)
            second = engine.mine(fractional)
            assert _signature(second) == _signature(first)
            assert engine.stats.cache_hits == 1
            assert engine.stats.cache_misses == 1

    def test_mutating_a_hit_does_not_poison_the_cache(self):
        """Regression: cached results used to be returned by reference,
        so a caller clearing (or editing) a returned hit corrupted every
        future hit of that key."""
        network = _network(4)
        request = MineRequest(k=10, min_support=2, min_nhp=0.3)
        with MiningEngine(network) as engine:
            first = engine.mine(request)
            reference = _signature(first)
            assert reference  # a non-trivial result, or the test is vacuous
            first.grs.clear()  # vandalize the miss-path object
            hit = engine.mine(request)
            assert _signature(hit) == reference
            hit.grs.clear()  # vandalize a hit-path snapshot too
            hit.params["k"] = "poisoned"
            again = engine.mine(request)
            assert _signature(again) == reference
            assert again.params.get("k") != "poisoned"

    def test_duplicates_within_a_sweep_are_mined_once(self):
        network = _network(4)
        request = MineRequest(k=7, min_support=2, min_nhp=0.4, workers=2)
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep([request, request, request])
            assert engine.stats.cache_misses == 1
            assert engine.stats.cache_hits == 2
        assert _signature(results[0]) == _signature(results[1]) == _signature(results[2])

    def test_cache_disabled_by_size_zero(self):
        network = _network(4)
        request = MineRequest(k=5, min_support=2, min_nhp=0.5)
        with MiningEngine(network, cache_size=0) as engine:
            first = engine.mine(request)
            second = engine.mine(request)
            assert second is not first
            assert _signature(second) == _signature(first)


class TestThresholdIsolation:
    """Satellite: bus reuse across queries must never leak thresholds."""

    def test_bus_reset_clears_published_floors(self):
        from repro.parallel import ThresholdBus

        bus = ThresholdBus(num_slots=3)
        try:
            bus.publish(0, 0.9)
            bus.publish(2, 0.7)
            bus.reset()
            assert bus.best_floor() == float("-inf")
            bus.publish(1, 0.2)  # the bus is fully reusable after reset
            assert bus.best_floor() == 0.2
        finally:
            bus.release()

    def test_tight_query_then_loose_query_same_engine(self):
        """Query N's k-th-best floor must not prune query N+1's results.

        The first query (k=1) publishes the global best score as its
        dynamic threshold.  If that floor leaked into the second query
        (large k, permissive thresholds), its workers would discard
        everything below the first query's maximum — returning far fewer
        than the fresh reference does.
        """
        network = _network(5)
        tight = MineRequest(k=1, min_support=1, min_nhp=0.0, workers=2)
        loose = MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2)
        with MiningEngine(network, workers=2) as engine:
            engine.mine(tight)
            relaxed = engine.mine(loose)
        assert _signature(relaxed) == _signature(_fresh(network, loose))
        assert len(relaxed) > 1

    def test_interleaved_sweep_queries_have_private_buses(self):
        network = _network(6)
        requests = [
            MineRequest(k=1, min_support=1, min_nhp=0.0, workers=2),
            MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2),
        ]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(_fresh(network, request))


class TestEngineLifecycle:
    def test_close_is_idempotent_and_blocks_serving(self):
        engine = MiningEngine(_network(0), workers=2)
        engine.mine(k=5, min_support=2, min_nhp=0.3, workers=2)
        engine.close()
        engine.close()
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.mine(k=5, min_support=2, min_nhp=0.3)

    def test_close_unlinks_the_store_segment(self):
        engine = MiningEngine(_network(0), workers=2)
        engine.mine(k=5, min_support=2, min_nhp=0.3, workers=2)
        name = engine._lease.name
        engine.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_crashed_worker_does_not_orphan_segments(self):
        """A task that raises in the pool must not leak the export."""
        from repro.core.miner import BranchSpec
        from repro.data.store import CompactStore
        from repro.parallel import PersistentWorkerPool, ShardTask

        store = CompactStore(_network(0))
        config = MinerConfig(k=3, min_support=2)
        lease = store.lease_shared()
        name = lease.name
        poison = ShardTask(
            shard_id=0,
            branches=(BranchSpec("left", token_index=999, attr="X", value=1, weight=1),),
            config=config,
            store_handle=lease.handle,
        )
        with pytest.raises(Exception):
            with lease:
                with PersistentWorkerPool(2) as pool:
                    pool.submit(poison).get()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_engine_survives_a_failed_query(self):
        """An engine keeps serving after one request blows up."""
        network = _network(0)
        good = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with MiningEngine(network, workers=2) as engine:
            with pytest.raises(Exception):
                # max_lhs_attrs must be an int; the TypeError surfaces
                # during planning, before any worker is touched.
                engine.mine(
                    MineRequest.create(
                        k=5, min_support=2, min_nhp=0.3, workers=2,
                        max_lhs_attrs="bogus",
                    )
                )
            result = engine.mine(good)
        assert _signature(result) == _signature(_fresh(network, good))

    def test_failing_query_does_not_strand_other_work(self):
        """A sweep mixing a good query with one whose shards fail on the
        fleet must still gather the good one (caching it, recycling its
        bus) and raise the failure afterwards."""
        network = _network(1)
        good = MineRequest(k=5, min_support=2, min_nhp=0.3)
        # max_rhs_attrs is only consulted inside the RIGHT recursion, so
        # planning succeeds and the TypeError fires in the workers.
        bad = MineRequest.create(
            k=5, min_support=2, min_nhp=0.3, max_rhs_attrs="bogus"
        )
        with MiningEngine(network, workers=2) as engine:
            with pytest.raises(TypeError):
                engine.sweep([bad, good])
            # every bus back on the free list
            assert len(engine._buses._free) == len(engine._buses._all)
            again = engine.mine(good)
            assert engine.stats.cache_hits == 1  # the sweep cached it
        assert _signature(again) == _signature(_fresh(network, good))

    def test_failed_store_export_recycles_the_bus_checkout(self, monkeypatch):
        """plan_query acquires the threshold bus *before* resolving the
        store handle; if the shared-memory export then fails (e.g.
        /dev/shm exhaustion) the clean checkout must go back to the
        pool, not strand until close().  Found by the lease-lifecycle
        lint audit (PR 8)."""
        network = _network(0)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with MiningEngine(network, workers=2) as engine:
            def boom():
                raise OSError("no space left on /dev/shm")
            monkeypatch.setattr(engine, "_task_store_handle", boom)
            with pytest.raises(OSError):
                engine.plan_query(request, engine.query_key(request))
            buses = engine._buses
            assert buses is not None  # the checkout happened...
            assert len(buses._free) == len(buses._all) == 1  # ...and returned
            monkeypatch.undo()
            result = engine.mine(request)  # the engine still serves
        assert _signature(result) == _signature(_fresh(network, request))

    def test_engine_survives_a_worker_side_failure(self):
        """Shards that die *in the pool* must not poison later queries.

        The failing query's bus may only be recycled once every one of
        its shards settled — otherwise a straggler publishes its stale
        k-th-best floor into whichever query grabs the segment next and
        silently over-prunes it.  The follow-up query's equality with a
        fresh run is exactly that regression check.
        """
        network = _network(0)
        # max_rhs_attrs is only consulted inside the RIGHT recursion, so
        # planning succeeds and the TypeError fires in the workers.
        poisoned = MineRequest.create(
            k=5, min_support=2, min_nhp=0.3, workers=2, max_rhs_attrs="bogus"
        )
        loose = MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2)
        with MiningEngine(network, workers=2) as engine:
            with pytest.raises(TypeError):
                engine.mine(poisoned)
            result = engine.mine(loose)
        assert _signature(result) == _signature(_fresh(network, loose))


class TestWorkerValidation:
    """Satellite: --workers passthrough warns instead of crashing."""

    def test_workers_above_cpu_count_warns(self, monkeypatch):
        import repro.parallel.miner as pm

        monkeypatch.setattr(pm.os, "cpu_count", lambda: 2)
        with pytest.warns(UserWarning, match="cpu_count"):
            ParallelGRMiner(_network(0), workers=16, k=5, min_support=2)
        with pytest.warns(UserWarning, match="cpu_count"):
            MiningEngine(_network(0), workers=16)

    def test_workers_above_branch_count_warns_not_crashes(self):
        schema = random_schema(
            num_node_attrs=1, num_edge_attrs=0, max_domain=2, num_homophily=1, seed=9
        )
        network = random_attributed_network(schema, num_nodes=5, num_edges=12, seed=9)
        miner = ParallelGRMiner(network, workers=8, k=3, min_support=1, min_score=0.0)
        with pytest.warns(UserWarning, match="branches"):
            result = miner.mine()
        assert len(result) <= 3

    def test_request_workers_clamped_to_fleet(self):
        network = _network(2)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=8)
        with MiningEngine(network, workers=2) as engine:
            with pytest.warns(UserWarning, match="clamping"):
                result = engine.mine(request)
        assert _signature(result) == _signature(
            _fresh(network, replace(request, workers=2))
        )

    def test_clamp_warning_fires_once_per_engine(self):
        """Regression: a 100-request sweep used to emit 100 identical
        clamping warnings; only the first over-asking request warns."""
        network = _network(2)
        with MiningEngine(network, workers=2) as engine:
            with pytest.warns(UserWarning, match="clamping"):
                engine.mine(MineRequest(k=5, min_support=2, min_nhp=0.3, workers=8))
            with warnings.catch_warnings(record=True) as later:
                warnings.simplefilter("always")
                engine.mine(MineRequest(k=4, min_support=2, min_nhp=0.4, workers=9))
                engine.sweep(
                    [MineRequest(k=3, min_support=2, min_nhp=0.5, workers=8)]
                )
            assert not [w for w in later if "clamping" in str(w.message)]