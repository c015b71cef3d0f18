"""Delta-aware incremental re-mining (the append-edges fast path).

The contract under test, in three legs:

1. **Exactness** — after any append-edge delta, an engine's answers are
   GR-for-GR identical to a fresh miner over the post-delta network,
   whether the cache entry was *migrated* (untouched branches carried,
   touched branches re-mined) or *purged* (cold re-mine).  The property
   sweep drives random deltas — empty, single-edge, many-edge,
   concentrated in one first-level partition and spread across them,
   repeated, and followed by sweeps — through requests with and without
   ``workers``.
2. **Incrementality** — an eligible cached entry survives a delta as a
   migrated entry whose re-mine covered strictly fewer branches than a
   cold mine would, while every ineligible shape (gain ranking, score
   threshold + generality, untracked deltas, old-layout disk rows)
   demonstrably falls back to the purge path, and an entry whose
   migration raises is purged loudly: a warning and a counted error.
3. **Transactionality** — ``MiningEngine.append_edges`` never half
   commits: validation failures leave the engine untouched, a refresh
   failure is recovered through a full rebuild (with a warning), and a
   double failure poisons the engine so queries fail loudly instead of
   serving pre-delta answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import (
    CKEY_FIELDS,
    GRMiner,
    MinerConfig,
    config_from_canonical_key,
)
from repro.data.network import NetworkError
from repro.data.store import CompactStore, StoreDelta
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import EngineHub, MineRequest, MiningEngine
from repro.engine import delta as delta_module
from repro.obs import REGISTRY

from oracles import oracle


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _build(seed: int):
    """A fresh random network (never shared: these tests mutate it)."""
    schema = random_schema(
        num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
    )
    return random_attributed_network(
        schema, num_nodes=20, num_edges=100, homophily_strength=0.5, seed=seed
    )


def _delta(network, count: int, seed: int = 0, concentrated: bool = False):
    """A valid random edge batch; ``concentrated`` pins one source node
    so the delta touches only that node's first-level partitions."""
    rng = np.random.default_rng(seed)
    if concentrated and count:
        src = np.full(count, int(rng.integers(0, network.num_nodes)))
    else:
        src = rng.integers(0, network.num_nodes, count)
    dst = rng.integers(0, network.num_nodes, count)
    edge_codes = {
        name: rng.integers(
            0, network.schema.edge_attribute(name).domain_size + 1, count
        )
        for name in network.schema.edge_attribute_names
    }
    return src, dst, edge_codes


class TestStoreDelta:
    """``CompactStore.apply_delta`` reports what changed, exactly."""

    def test_reports_tail_rows_and_partition_footprint(self, small_network):
        store = CompactStore(small_network)
        small_network.append_edges([0, 2], [3, 5], {"W": [1, 2]})
        delta = store.apply_delta()
        assert delta.num_edges_before == 8
        assert delta.num_edges_after == 10
        assert delta.num_new_edges == 2
        assert not delta.untracked
        expected = {
            (name, int(small_network.node_column(name)[v]))
            for name in small_network.schema.node_attribute_names
            for v in (0, 2)
        }
        assert delta.touched_partitions == expected

    def test_empty_delta_has_empty_footprint(self, small_network):
        store = CompactStore(small_network)
        delta = store.apply_delta()
        assert delta.num_new_edges == 0
        assert delta.touched_partitions == frozenset()
        assert not delta.untracked

    def test_shrinking_edge_set_is_untracked(self, small_network):
        store = CompactStore(small_network)
        # Simulate a wholesale array replacement the store cannot
        # attribute to an append: the edge count went down.
        store._num_edges += 1
        delta = store.apply_delta()
        assert delta.untracked
        # An untracked delta still leaves the store itself consistent.
        assert store._num_edges == small_network.num_edges

    def test_delta_keeps_store_equal_to_cold_rebuild(self, small_network):
        store = CompactStore(small_network)
        small_network.append_edges([1, 1, 4], [0, 2, 2], {"W": [2, 1, 0]})
        store.apply_delta()
        cold = CompactStore(small_network)
        assert store.fingerprint() == cold.fingerprint()


class TestConfigRoundtrip:
    """``config_from_canonical_key`` inverts ``MinerConfig.canonical_key``."""

    @pytest.mark.parametrize(
        "config",
        [
            MinerConfig(k=5, min_support=3),
            MinerConfig(k=None, min_support=2, min_score=0.4, rank_by="confidence"),
            MinerConfig(k=7, min_support=4, rank_by="laplace", laplace_k=3),
            MinerConfig(k=2, min_support=2, rank_by="gain", gain_theta=0.25),
            MinerConfig(
                k=3, min_support=2, allow_empty_lhs=True, include_trivial=True,
                apply_generality=False, push_topk=False,
            ),
            MinerConfig(k=4, min_support=0.1, max_lhs_attrs=1, max_rhs_attrs=1),
        ],
    )
    def test_roundtrip_is_exact(self, small_schema, config):
        key = config.canonical_key(small_schema, 50)
        rebuilt = config_from_canonical_key(key)
        assert rebuilt.canonical_key(small_schema, 50) == key
        # Absolute support makes the key |E|-independent.
        assert rebuilt.canonical_key(small_schema, 999) == key


class TestShortCircuit:
    """A zero-length delta must not rebuild or invalidate anything."""

    def test_empty_batch_skips_rebuild_and_refresh(self, monkeypatch):
        network = _build(3)
        empty = {name: [] for name in network.schema.edge_attribute_names}
        with MiningEngine(network) as engine:
            fingerprint = engine.fingerprint
            calls = []
            monkeypatch.setattr(
                CompactStore, "_rebuild", lambda self: calls.append(1)
            )
            assert engine.append_edges([], [], empty) == fingerprint
            assert calls == []
            assert engine.stats.invalidations == 0
            assert engine.fingerprint == fingerprint


class TestTransactionalAppend:
    """append_edges commits fully, recovers, or poisons — never halfway."""

    def test_validation_failure_leaves_engine_healthy(self):
        network = _build(4)
        request = MineRequest(k=5, min_support=3)
        with MiningEngine(network) as engine:
            before = _signature(engine.mine(request))
            fingerprint = engine.fingerprint
            with pytest.raises(NetworkError):
                engine.append_edges([0], [10_000], None)
            assert engine.fingerprint == fingerprint
            assert _signature(engine.mine(request)) == before

    def test_one_shot_refresh_failure_recovers_with_warning(self, monkeypatch):
        network = _build(5)
        request = MineRequest(k=5, min_support=3, workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)
            original = CompactStore.apply_delta
            state = {"failures": 1}

            def flaky(store):
                if state["failures"]:
                    state["failures"] -= 1
                    raise RuntimeError("injected rebuild fault")
                return original(store)

            monkeypatch.setattr(CompactStore, "apply_delta", flaky)
            with pytest.warns(UserWarning, match="recovered"):
                engine.append_edges(*_delta(network, 5, seed=1))
            # Recovery took the purge path (no delta to migrate with) …
            assert engine.stats.migrated_entries == 0
            assert engine.stats.purged_entries == 1
            # … and the engine serves exact post-delta answers.
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_double_failure_poisons_the_engine(self, monkeypatch):
        network = _build(6)
        request = MineRequest(k=5, min_support=3)
        with MiningEngine(network) as engine:
            engine.mine(request)

            def broken(store):
                raise RuntimeError("injected rebuild fault")

            monkeypatch.setattr(CompactStore, "apply_delta", broken)
            with pytest.raises(RuntimeError, match="injected rebuild fault"):
                engine.append_edges(*_delta(network, 5, seed=2))
            # The network mutated but the store could not follow: the
            # engine must now refuse to serve (possibly stale) answers.
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.mine(request)
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.append_edges(*_delta(network, 1, seed=3))


class TestMigration:
    """Eligible entries migrate (fewer branches mined); others purge."""

    def test_eligible_entry_migrates_and_mines_fewer_branches(self):
        network = _build(7)
        request = MineRequest(k=5, min_support=3, workers=1)
        with MiningEngine(network) as engine:
            cold = engine.mine(request)
            assert "migrated" not in cold.params
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 1
            assert engine.stats.purged_entries == 0
            warm = engine.mine(request)
            assert warm.params["cached"] is True
            assert warm.params["migrated"] is True
            assert warm.params["branches_mined"] < warm.params["branches_total"]
            assert _signature(warm) == _signature(oracle(network, request))

    def test_workers_less_entries_migrate(self):
        # Without ``workers`` a query still mines exactly on the fleet,
        # so its entry migrates like any other.
        network = _build(7)
        request = MineRequest(k=5, min_support=3)
        with MiningEngine(network) as engine:
            engine.mine(request)
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 1
            assert engine.stats.purged_entries == 0
            result = engine.mine(request)
            assert result.params["migrated"] is True
            assert _signature(result) == _signature(oracle(network, request))

    def test_old_layout_disk_row_misses_and_purges(self, tmp_path):
        """A disk row keyed with the execution-mode prefix keys used to
        carry is a miss for the same query, and a delta purges it
        without decoding it as a config."""
        network = _build(7)
        request = MineRequest(k=5, min_support=3)
        with EngineHub(disk_cache=tmp_path / "cache.sqlite") as hub:
            engine = hub.register("net", network)
            fingerprint, ckey = engine.query_key(request)
            stale = oracle(network, MineRequest(k=1, min_support=3))
            hub.cache.disk.put((fingerprint, ("sharded",) + ckey), stale)
            result = engine.mine(request)
            assert engine.stats.cache_misses == 1 and len(result) == 5
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.purged_entries == 1  # the old-layout row
            assert engine.stats.migration_fallbacks == 0
            assert engine.stats.migrated_entries == 1  # the mined entry
            assert len(hub.cache.disk) == 1

    def test_seventeen_field_disk_row_misses_and_purges(self, tmp_path):
        """A row keyed with the 17-field layout (``push_topk`` at field
        4, ``verify_generality`` last) misses for the same query, and
        the next delta purges it as ineligible, not as a fallback."""
        network = _build(7)
        request = MineRequest(k=5, min_support=3)
        with EngineHub(disk_cache=tmp_path / "cache.sqlite") as hub:
            engine = hub.register("net", network)
            fingerprint, ckey = engine.query_key(request)
            assert len(ckey) == CKEY_FIELDS == 15
            old_layout = ckey[:4] + (True,) + ckey[4:] + (True,)
            stale = oracle(network, MineRequest(k=1, min_support=3))
            hub.cache.disk.put((fingerprint, old_layout), stale)
            result = engine.mine(request)
            assert engine.stats.cache_misses == 1 and len(result) == 5
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.purged_entries == 1  # the 17-field row
            assert engine.stats.migration_fallbacks == 0
            assert engine.stats.migrated_entries == 1  # the mined entry
            assert len(hub.cache.disk) == 1

    def test_migration_mines_on_the_fleet_not_the_coordinator(self, monkeypatch):
        """The touched branches are an execution on the hub's fleet: a
        coordinator whose miner cannot walk a branch still migrates."""
        network = _build(7)
        request = MineRequest(k=5, min_support=3, workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)  # forks the fleet before the patch
            with monkeypatch.context() as patch:

                def no_mining(*args, **kwargs):
                    raise AssertionError("the coordinator must not mine")

                patch.setattr(GRMiner, "mine_branch", no_mining)
                engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 1
            warm = engine.mine(request)
        assert warm.params["migrated"] is True
        assert warm.params["branches_mined"] < warm.params["branches_total"]
        assert _signature(warm) == _signature(oracle(network, request))

    def test_a_raising_migration_warns_and_counts_an_error(
        self, monkeypatch, tmp_path
    ):
        """A migrator fault is purged like a fallback, so the query still
        re-mines exactly, but it warns with the exception and is counted
        as an error, not as a safety fallback.  The fault is a migration
        shard failing on the fleet: the workers inherit a ``mine_branch``
        that raises while the ``fault`` file exists."""
        network = _build(7)
        request = MineRequest(k=5, min_support=3, workers=1)
        errors = REGISTRY.counter(
            "repro_delta_entries_total", "", labels=("outcome",)
        ).labels(outcome="error")
        before = errors.value
        reports = []
        migrate = delta_module.migrate_fingerprint
        fault = tmp_path / "fault"
        mine_branch = GRMiner.mine_branch

        def recording(*args):
            reports.append(migrate(*args))
            return reports[-1]

        def faulty(miner, *args, **kwargs):
            if fault.exists():
                raise TypeError("injected migration shard fault")
            return mine_branch(miner, *args, **kwargs)

        monkeypatch.setattr(GRMiner, "mine_branch", faulty)
        monkeypatch.setattr("repro.engine.engine.migrate_fingerprint", recording)
        with MiningEngine(network) as engine:
            engine.mine(request)  # forks the fleet with the fault disarmed
            fault.touch()
            with pytest.warns(UserWarning, match="TypeError") as caught:
                engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            fault.unlink()
            assert caught[0].filename == __file__
            (report,) = reports
            assert (report.errors, report.fallbacks, report.purged) == (1, 0, 1)
            assert errors.value - before == 1
            assert engine.stats.migration_fallbacks == 0
            assert engine.stats.purged_entries == 1
            assert engine.hub._lease_pins == {}  # the drained shard's pin came back
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_gain_ranking_always_purges(self):
        network = _build(9)
        request = MineRequest(k=5, min_support=3, rank_by="gain", workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 0
            assert engine.stats.purged_entries == 1
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_score_threshold_with_generality_purges(self):
        network = _build(10)
        request = MineRequest(k=5, min_support=3, min_nhp=0.3, workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 0
            assert engine.stats.purged_entries == 1
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_untracked_delta_purges_and_recovers_cold(self, monkeypatch):
        network = _build(11)
        request = MineRequest(k=5, min_support=3, workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)
            original = CompactStore.apply_delta

            def untracked(store):
                delta = original(store)
                return StoreDelta(
                    num_edges_before=delta.num_edges_before,
                    num_edges_after=delta.num_edges_after,
                    untracked=True,
                )

            monkeypatch.setattr(CompactStore, "apply_delta", untracked)
            engine.append_edges(*_delta(network, 3, seed=1, concentrated=True))
            assert engine.stats.migrated_entries == 0
            assert engine.stats.purged_entries == 1
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_lying_delta_trips_the_reverification_tripwire(self, monkeypatch):
        """A delta that under-reports its partition footprint must be
        caught by the carried-entry count re-check, not believed."""
        network = _build(12)
        request = MineRequest(k=20, min_support=2, workers=1)
        with MiningEngine(network) as engine:
            engine.mine(request)
            original = CompactStore.apply_delta

            def lying(store):
                delta = original(store)
                return StoreDelta(
                    num_edges_before=delta.num_edges_before,
                    num_edges_after=delta.num_edges_after,
                    touched_partitions=frozenset(),  # the lie
                )

            monkeypatch.setattr(CompactStore, "apply_delta", lying)
            # Duplicate existing edges: supports genuinely change, so
            # the "untouched" invariant is violated for cached entries.
            src = [int(v) for v in network.src[:5]]
            dst = [int(v) for v in network.dst[:5]]
            codes = {
                name: [int(v) for v in network.edge_column(name)[:5]]
                for name in network.schema.edge_attribute_names
            }
            engine.append_edges(src, dst, codes)
            assert engine.stats.migrated_entries == 0
            assert engine.stats.purged_entries == 1
            assert engine.stats.migration_fallbacks == 1
            assert _signature(engine.mine(request)) == _signature(
                oracle(network, request)
            )

    def test_migration_counters_reach_hub_stats(self):
        network = _build(13)
        request = MineRequest(k=5, min_support=3, workers=1)
        with EngineHub(workers=1) as hub:
            hub.register("n", network)
            hub.mine("n", request)
            hub.append_edges("n", *_delta(network, 3, seed=1, concentrated=True))
            assert hub.stats("n").migrated_entries == 1
            assert hub.aggregate_stats()["migrated_entries"] == 1


class TestIncrementalEquivalence:
    """Incremental re-mining equals a cold re-mine, GR for GR."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.sampled_from([0, 1, 7]),
        concentrated=st.booleans(),
        workers=st.sampled_from([None, 1]),
    )
    def test_random_deltas_stay_exact(self, seed, size, concentrated, workers):
        network = _build(seed % 7)
        request = MineRequest(k=5, min_support=3, workers=workers)
        with MiningEngine(network) as engine:
            engine.mine(request)
            engine.append_edges(
                *_delta(network, size, seed=seed, concentrated=concentrated)
            )
            incremental = engine.mine(request)
            assert _signature(incremental) == _signature(oracle(network, request))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_repeated_deltas_sharded(self, workers):
        network = _build(14)
        request = MineRequest(k=5, min_support=3, workers=workers)
        with MiningEngine(network, workers=workers) as engine:
            engine.mine(request)
            for i in range(3):
                engine.append_edges(
                    *_delta(network, 4, seed=i, concentrated=(i % 2 == 0))
                )
                result = engine.mine(request)
                assert _signature(result) == _signature(oracle(network, request))

    def test_delta_then_sweep_stays_exact(self):
        network = _build(15)
        requests = [
            MineRequest(k=5, min_support=3, workers=1),
            MineRequest(k=3, min_support=2, workers=1),
            MineRequest(k=5, min_support=3),  # serial rides along
        ]
        with MiningEngine(network) as engine:
            engine.sweep(requests)
            engine.append_edges(*_delta(network, 5, seed=9))
            results = engine.sweep(requests)
            for request, result in zip(requests, results):
                assert _signature(result) == _signature(oracle(network, request))
