"""The MiningEngine session layer: amortized serving with exact semantics.

The engine's contract has three legs:

1. **Amortization** — a sweep of M parameter combos performs exactly one
   store export and one pool spawn (the acceptance criterion of the
   engine PR), with the first-level state reused across queries.
2. **Exactness** — every engine result, with or without ``workers``,
   equals a fresh ``ParallelGRMiner`` of the same parameters (and
   therefore the exact Definition 5 reference).
3. **Isolation** — nothing leaks between consecutive queries: no stale
   dynamic thresholds, no stale caches when parameters change, no
   orphaned shared-memory segments when a worker dies.
"""

import math
import os
import queue
import warnings
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import GRMiner, MinerConfig
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import EngineHub, MineRequest, MiningEngine, ResultCache
from repro.parallel import ParallelGRMiner, PersistentWorkerPool

from oracles import oracle


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
            assert engine.hub.pool_spawns == 1
            # A follow-up single query still reuses the same fleet.
            engine.mine(MineRequest(k=4, min_support=2, min_nhp=0.6, workers=2))
            assert engine.stats.exports == 1
            assert engine.hub.pool_spawns == 1
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(oracle(network, request))

    def test_workers_less_queries_run_on_the_whole_fleet(self):
        network = _network(1)
        with MiningEngine(network, workers=2) as engine:
            result = engine.mine(k=8, min_support=2, min_nhp=0.3)
            assert engine.stats.exports == 1 and engine.hub.pool_spawns == 1
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
            assert _signature(result) == _signature(oracle(network, request))

    def test_single_shard_request_runs_on_the_fleet(self, monkeypatch):
        # One shard is still a fleet task: the coordinator never mines.
        schema = random_schema(
            num_node_attrs=1, num_edge_attrs=0, max_domain=2, num_homophily=1, seed=9
        )
        network = random_attributed_network(schema, num_nodes=5, num_edges=12, seed=9)
        with MiningEngine(network, workers=2) as engine:
            engine.hub._ensure_pool()  # forked before the patch: workers mine

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
            assert engine.hub.pool_spawns == 0
            assert engine.hub._lease_pins == {}


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

    def test_push_topk_twins_share_a_cache_entry(self):
        """``push_topk`` changes effort, never the answer, so a request
        and its ``push_topk=False`` twin are one miss, then one hit."""
        network = _network(4)
        request = MineRequest(k=8, min_support=2, min_nhp=0.3)
        twin = MineRequest(k=8, min_support=2, min_nhp=0.3, push_topk=False)
        with MiningEngine(network) as engine:
            assert engine.query_key(request) == engine.query_key(twin)
            first = engine.mine(request)
            second = engine.mine(twin)
            assert second.params["cached"] is True
            assert _signature(second) == _signature(first)
            assert _signature(first) == _signature(oracle(network, twin))
            assert engine.stats.cache_misses == 1
            assert engine.stats.cache_hits == 1

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
    """One query's dynamic threshold never prunes the next."""

    def test_tight_query_then_loose_query_same_engine(self):
        """Query N's k-th-best threshold must not prune query N+1's results.

        The first query (k=1) raises each shard's dynamic threshold to
        its best score, on worker skeletons the second query re-arms.
        If that threshold leaked into the second query (large k,
        permissive thresholds), its workers would discard everything
        below the first query's maximum — returning far fewer than the
        fresh reference does.
        """
        network = _network(5)
        tight = MineRequest(k=1, min_support=1, min_nhp=0.0, workers=2)
        loose = MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2)
        with MiningEngine(network, workers=2) as engine:
            engine.mine(tight)
            relaxed = engine.mine(loose)
        assert _signature(relaxed) == _signature(oracle(network, loose))
        assert len(relaxed) > 1

    def test_interleaved_sweep_queries_have_private_buses(self):
        """A k=1 and a k=20 query interleaved in one sweep each prune on
        their own shards' thresholds only."""
        network = _network(6)
        requests = [
            MineRequest(k=1, min_support=1, min_nhp=0.0, workers=2),
            MineRequest(k=20, min_support=1, min_nhp=0.0, workers=2),
        ]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
        for request, result in zip(requests, results):
            assert _signature(result) == _signature(oracle(network, request))


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
        name = engine.hub._leases[engine.name].name
        engine.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_planning_maps_only_the_store_lease(self):
        """A planned query's only shared-memory segment is its network's
        store lease: shards prune on their own thresholds, so nothing
        else is exported for them."""

        def segments():
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with MiningEngine(_network(0), workers=2, cache_size=0) as engine:
            before = segments()
            execution = engine.prepare(request)
            try:
                added = segments() - before
                assert added == {engine.hub._leases[engine.name].name}
            finally:
                engine.release(execution)

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
        settled = queue.SimpleQueue()
        with pytest.raises(Exception):
            with lease:
                with PersistentWorkerPool(2) as pool:
                    pool.submit(poison, callback=settled.put, error_callback=settled.put)
                    error = settled.get(timeout=30)
                    raise error
        assert isinstance(error, Exception)  # the shard's own failure unwound
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
        assert _signature(result) == _signature(oracle(network, good))

    def test_failing_query_does_not_strand_other_work(self):
        """A sweep mixing a good query with one whose shards fail on the
        fleet must still gather the good one (caching it, returning its
        lease pin) and raise the failure afterwards."""
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
            # every lease pin returned
            assert engine.hub._lease_pins == {}
            again = engine.mine(good)
            assert engine.stats.cache_hits == 1  # the sweep cached it
        assert _signature(again) == _signature(oracle(network, good))

    def test_failed_store_export_strands_no_pin(self, monkeypatch):
        """If plan_query's shared-memory export fails (e.g. /dev/shm
        exhaustion), the query pins no lease and the engine keeps
        serving."""
        network = _network(0)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=2)
        with MiningEngine(network, workers=2) as engine:
            def boom(_engine):
                raise OSError("no space left on /dev/shm")
            monkeypatch.setattr(engine.hub, "_touch_lease", boom)
            with pytest.raises(OSError):
                engine.plan_query(request, engine.query_key(request))
            assert engine.hub._lease_pins == {}
            monkeypatch.undo()
            result = engine.mine(request)  # the engine still serves
        assert _signature(result) == _signature(oracle(network, request))

    def test_engine_survives_a_worker_side_failure(self):
        """Shards that die *in the pool* must not poison later queries.

        The follow-up query runs on the same workers, whose skeletons
        the failed shards left mid-walk; its equality with a fresh run
        checks that nothing of the failed query carries over.
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
        assert _signature(result) == _signature(oracle(network, loose))


def _psm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestOneShotMinerIsAHubOfOne:
    """``ParallelGRMiner`` owns no fleet and no lease: a pooled query
    runs on a hub of one, which builds and tears down both."""

    @pytest.fixture
    def fleets(self, monkeypatch):
        """``(every pool constructed, every pool a hub's _ensure_pool
        returned)``."""
        built, ensured = [], []
        construct, ensure = PersistentWorkerPool.__init__, EngineHub._ensure_pool

        def spy_construct(pool, processes):
            built.append(pool)
            construct(pool, processes)

        def spy_ensure(hub):
            ensured.append(ensure(hub))
            return ensured[-1]

        monkeypatch.setattr(PersistentWorkerPool, "__init__", spy_construct)
        monkeypatch.setattr(EngineHub, "_ensure_pool", spy_ensure)
        return built, ensured

    def test_pooled_mine_builds_its_fleet_once_through_the_hub(self, fleets):
        built, ensured = fleets
        network = _network(0)
        params = dict(k=5, min_support=2, min_score=0.3)
        before = _psm_segments()
        result = ParallelGRMiner(network, workers=2, **params).mine()
        assert result.params["shards"] == 2 and result.params["workers"] == 2
        assert len(ensured) == 1 and built == ensured  # one fleet, via the hub
        assert ensured[0].closed  # torn down with the query
        assert _psm_segments() == before  # its lease is unlinked
        assert _signature(result) == _signature(
            oracle(network, MineRequest.create(**params))
        )

    def test_workers_1_and_a_single_shard_build_no_pool(self, fleets, toy_network):
        built, ensured = fleets
        params = dict(k=5, min_support=2, min_score=0.3)
        serial = ParallelGRMiner(_network(0), workers=1, **params).mine()
        assert serial.params["shards"] == 1
        single = dict(k=5, min_support=15, min_score=0.0)  # toy: one branch
        with pytest.warns(UserWarning, match="branches"):
            one = ParallelGRMiner(toy_network, workers=2, **single).mine()
        assert one.params["shards"] == 1
        assert built == [] and ensured == []
        assert _signature(one) == _signature(
            oracle(toy_network, MineRequest.create(**single))
        )

    def test_an_oversubscribed_pooled_mine_warns_once(self, monkeypatch):
        # The count was validated when the miner was built; the hub of
        # one the query runs on does not warn about it again.
        import repro.parallel.miner as pm

        monkeypatch.setattr(pm.os, "cpu_count", lambda: 2)
        with pytest.warns(UserWarning, match="cpu_count") as record:
            miner = ParallelGRMiner(_network(0), workers=4, k=5, min_support=2)
        assert [w.filename for w in record] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            assert miner.mine().params["shards"] == 4


class TestWorkerValidation:
    """Satellite: --workers passthrough warns instead of crashing."""

    def test_workers_above_cpu_count_warns(self, monkeypatch):
        import repro.parallel.miner as pm

        monkeypatch.setattr(pm.os, "cpu_count", lambda: 2)
        with pytest.warns(UserWarning, match="cpu_count"):
            ParallelGRMiner(_network(0), workers=16, k=5, min_support=2)
        with pytest.warns(UserWarning, match="cpu_count"):
            MiningEngine(_network(0), workers=16)

    def test_oversubscription_warning_names_the_callers_file(self, monkeypatch):
        # MiningEngine(...) validates through the private hub it builds;
        # the warning must still point at the line that asked.
        import repro.parallel.miner as pm

        monkeypatch.setattr(pm.os, "cpu_count", lambda: 2)
        with pytest.warns(UserWarning, match="cpu_count") as record:
            engine = MiningEngine(_network(0), workers=16)
        engine.close()
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize(
        "knob", [{"start_method": "fork"}, {"threshold_refresh": 8}]
    )
    def test_no_constructor_takes_a_start_method_or_refresh_knob(self, knob):
        network = _network(0)
        makers = [
            lambda: MiningEngine(network, workers=1, **knob),
            lambda: EngineHub(workers=1, **knob),
            lambda: ParallelGRMiner(network, workers=1, k=3, **knob),
            lambda: PersistentWorkerPool(1, **knob),
        ]
        for make in makers:
            with pytest.raises(TypeError):
                make()

    def test_workers_above_branch_count_warns_not_crashes(self):
        schema = random_schema(
            num_node_attrs=1, num_edge_attrs=0, max_domain=2, num_homophily=1, seed=9
        )
        network = random_attributed_network(schema, num_nodes=5, num_edges=12, seed=9)
        miner = ParallelGRMiner(network, workers=8, k=3, min_support=1, min_score=0.0)
        with pytest.warns(UserWarning, match="branches") as record:
            result = miner.mine()
        assert len(result) <= 3
        assert [w.filename for w in record] == [__file__]

    def test_request_workers_clamped_to_fleet(self):
        network = _network(2)
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=8)
        with MiningEngine(network, workers=2) as engine:
            with pytest.warns(UserWarning, match="clamping"):
                result = engine.mine(request)
        assert _signature(result) == _signature(oracle(network, request))

    def test_clamp_warning_names_the_callers_file(self):
        # engine.mine reaches the clamp through sweep, prepare and
        # plan_query; the warning must still point at the line that asked.
        request = MineRequest(k=5, min_support=2, min_nhp=0.3, workers=8)
        with MiningEngine(_network(2), workers=1) as engine:
            with pytest.warns(UserWarning, match="clamping") as record:
                engine.mine(request)
        assert [w.filename for w in record] == [__file__]

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