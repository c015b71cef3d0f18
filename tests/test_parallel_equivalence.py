"""Serial / parallel / brute-force equivalence of the sharded miner.

A sharded answer — one query on a cache-less engine of N fleet workers,
what ``mine_top_k(..., workers=N)`` runs — must carry *exact*
Definition 5 semantics for any worker count: it must equal the
brute-force reference, the oracle serial configuration
(``push_topk=False``) and serial GRMiner(k) GR for GR, and must be
bit-for-bit deterministic across worker counts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import BruteForceMiner
from repro.core.miner import GRMiner
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.engine import MineRequest, MiningEngine
from repro.parallel import plan_shards


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _sharded(network, workers: int, **params):
    """One query on a cache-less engine of ``workers`` fleet workers,
    with GRMiner's keywords and defaults (``k=None``: every GR)."""
    request = MineRequest.create(**{"k": None, **params})
    with MiningEngine(network, workers, cache_size=0) as engine:
        return engine.mine(request)


_NETWORKS = {}


def _network(seed: int, null_fraction: float = 0.0):
    key = (seed, null_fraction)
    if key not in _NETWORKS:
        schema = random_schema(
            num_node_attrs=3, num_edge_attrs=1, max_domain=3, num_homophily=2, seed=seed
        )
        _NETWORKS[key] = random_attributed_network(
            schema,
            num_nodes=20,
            num_edges=100,
            homophily_strength=0.5,
            null_fraction=null_fraction,
            seed=seed,
        )
    return _NETWORKS[key]


class TestShardPlanner:
    def test_branches_partition_exactly_once(self):
        miner = GRMiner(_network(0), k=5, min_support=2, min_score=0.3)
        plan = miner.plan_branches()
        shards = plan_shards(plan.branches, 3)
        flattened = [branch for shard in shards for branch in shard]
        assert sorted(flattened, key=lambda b: (b.token_index, b.value)) == sorted(
            plan.branches, key=lambda b: (b.token_index, b.value)
        )

    def test_deterministic_and_balanced(self):
        miner = GRMiner(_network(1), k=5, min_support=1, min_score=0.0)
        plan = miner.plan_branches()
        first = plan_shards(plan.branches, 4)
        second = plan_shards(plan.branches, 4)
        assert first == second
        loads = [sum(b.weight for b in shard) for shard in first]
        # LPT bound: no shard exceeds the ideal load by more than the
        # heaviest single branch.
        heaviest = max(b.weight for b in plan.branches)
        ideal = sum(b.weight for b in plan.branches) / len(first)
        assert max(loads) <= ideal + heaviest

    def test_single_shard_holds_everything(self):
        miner = GRMiner(_network(0), k=5, min_support=2, min_score=0.3)
        plan = miner.plan_branches()
        shards = plan_shards(plan.branches, 1)
        assert len(shards) == 1 and len(shards[0]) == len(plan.branches)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            plan_shards((), 0)


class TestDatasetEquivalence:
    """Acceptance sweep: parallel == serial on the three dataset styles."""

    @pytest.fixture(scope="class")
    def datasets(self):
        from repro.datasets import synthetic_dblp, synthetic_pokec, toy_dating_network

        return {
            "toy": (toy_dating_network(), dict(min_support=2)),
            "pokec": (
                synthetic_pokec(num_sources=600, num_edges=6000, seed=20160516),
                dict(min_support=20),
            ),
            "dblp": (
                synthetic_dblp(num_authors=900, num_links=4000, seed=20160517),
                dict(min_support=20),
            ),
        }

    @pytest.mark.slow
    @pytest.mark.parametrize("rank_by", ["nhp", "confidence", "laplace", "gain"])
    @pytest.mark.parametrize("name", ["toy", "pokec", "dblp"])
    def test_workers4_equals_serial(self, datasets, name, rank_by):
        network, extra = datasets[name]
        threshold = {"nhp": 0.5, "confidence": 0.5, "laplace": 0.0, "gain": -1.0}
        params = dict(k=25, min_score=threshold[rank_by], rank_by=rank_by, **extra)
        # The exact serial configuration (existing equivalence tests pin
        # push_topk=False to the brute-force reference).
        serial_exact = GRMiner(network, push_topk=False, **params).mine()
        serial_heuristic = GRMiner(network, **params).mine()
        parallel = _sharded(network, 4, **params)
        assert _signature(parallel) == _signature(serial_exact)[:25]
        assert _signature(serial_heuristic) == _signature(parallel)


class TestRandomizedEquivalence:
    """Property sweep over seeds × mining parameters (satellite 3)."""

    @pytest.mark.slow
    @given(
        seed=st.integers(0, 15),
        k=st.integers(1, 25),
        min_support=st.integers(1, 6),
        min_score=st.sampled_from([0.0, 0.3, 0.5, 0.8]),
        rank_by=st.sampled_from(["nhp", "confidence"]),
        dynamic=st.booleans(),
        null_fraction=st.sampled_from([0.0, 0.15]),
    )
    @settings(max_examples=12, deadline=None)
    def test_parallel_matches_bruteforce_and_exact_serial(
        self, seed, k, min_support, min_score, rank_by, dynamic, null_fraction
    ):
        network = _network(seed, null_fraction)
        params = dict(
            k=k, min_support=min_support, min_score=min_score, rank_by=rank_by
        )
        brute = BruteForceMiner(network, **params).mine()
        exact_serial = GRMiner(
            network, push_topk=False, dynamic_rhs_ordering=dynamic, **params
        ).mine()
        parallel = _sharded(network, 2, dynamic_rhs_ordering=dynamic, **params)
        assert _signature(parallel) == _signature(brute)
        assert _signature(parallel) == _signature(exact_serial)

    @pytest.mark.slow
    @given(
        seed=st.integers(0, 15),
        k=st.integers(1, 25),
        push_topk=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_push_topk_variants_agree(self, seed, k, push_topk):
        """Both published variants shard to the same exact answer."""
        network = _network(seed)
        params = dict(k=k, min_support=2, min_score=0.3, push_topk=push_topk)
        brute = BruteForceMiner(network, k=k, min_support=2, min_score=0.3).mine()
        parallel = _sharded(network, 2, **params)
        assert _signature(parallel) == _signature(brute)

    @given(seed=st.integers(0, 15), k=st.integers(1, 20))
    @settings(max_examples=10, deadline=None)
    def test_serial_pushdown_is_subsequence_of_parallel(self, seed, k):
        """GRMiner(k) checks generality in the walk like a shard, so its
        list equals the parallel result, not just a subsequence of it."""
        network = _network(seed)
        params = dict(k=k, min_support=2, min_score=0.3)
        serial = GRMiner(network, **params).mine()
        parallel = _sharded(network, 1, **params)
        assert _signature(serial) == _signature(parallel)


class TestWorkerCountDeterminism:
    """The answer must never depend on how the tree was sharded."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "params",
        [
            dict(k=10, min_support=2, min_score=0.3),
            dict(k=5, min_support=1, min_score=0.5, rank_by="confidence"),
            dict(k=15, min_support=2, min_score=0.0, push_topk=False),
            dict(k=10, min_support=2, min_score=0.3, allow_empty_lhs=True),
            dict(min_support=2, min_score=0.3),  # GRMiner's k=None: every GR
        ],
    )
    def test_workers_1_2_4_identical(self, params):
        network = _network(3)
        signatures = [
            _signature(_sharded(network, w, **params))
            for w in (1, 2, 4)
        ]
        assert signatures[0] == signatures[1] == signatures[2]

    def test_shard_and_worker_metadata_recorded(self):
        result = _sharded(_network(0), 2, k=5, min_support=2, min_score=0.3)
        assert result.params["workers"] == 2
        assert result.params["shards"] >= 1
        assert result.stats.grs_examined > 0


class TestEngineEquivalence:
    """Acceptance: a MiningEngine sweep answers exactly like fresh runs
    while performing one store export and one pool spawn in total."""

    _GRID = [
        dict(k=10, min_support=2, min_score=0.3),
        dict(k=5, min_support=1, min_score=0.5, rank_by="confidence"),
        dict(k=15, min_support=2, min_score=0.0, push_topk=False),
        dict(k=25, min_support=1, min_score=0.0),
        dict(k=3, min_support=3, min_score=0.4, dynamic_rhs_ordering=False),
    ]

    def test_sweep_matches_fresh_miners_with_one_setup(self):
        network = _network(7)
        requests = [
            MineRequest.create(workers=2, **params) for params in self._GRID
        ]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
            assert engine.stats.exports == 1
            assert engine.hub.pool_spawns == 1
        for params, result in zip(self._GRID, results):
            fresh_parallel = _sharded(network, 2, **params)
            assert _signature(result) == _signature(fresh_parallel)
            # ... and therefore the exact serial Definition 5 reference.
            exact = dict(params)
            exact["push_topk"] = False
            fresh_serial = GRMiner(network, **exact).mine()
            k = params["k"]
            assert _signature(result) == _signature(fresh_serial)[:k]

    @pytest.mark.slow
    def test_engine_workers_less_requests_match_the_exact_oracle(self):
        network = _network(8)
        requests = [MineRequest.create(**params) for params in self._GRID]
        with MiningEngine(network, workers=2) as engine:
            results = engine.sweep(requests)
            assert engine.stats.exports == 1  # mined on the fleet
        for params, result in zip(self._GRID, results):
            exact = GRMiner(network, **dict(params, push_topk=False)).mine()
            assert _signature(result) == _signature(exact)[: params["k"]]
            fresh_parallel = _sharded(network, 2, **params)
            assert _signature(result) == _signature(fresh_parallel)

    @pytest.mark.slow
    def test_engine_answer_independent_of_fleet_size(self):
        network = _network(3)
        signatures = []
        for fleet in (1, 2, 4):
            with MiningEngine(network, workers=fleet) as engine:
                request = MineRequest(k=10, min_support=2, min_nhp=0.3, workers=fleet)
                signatures.append(_signature(engine.mine(request)))
        assert signatures[0] == signatures[1] == signatures[2]


class TestParallelEdgeCases:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            _sharded(_network(0), 0, k=5)

    def test_mine_top_k_workers_keyword(self):
        from repro import mine_top_k

        network = _network(2)
        serial = mine_top_k(network, k=8, min_support=2, min_nhp=0.3, push_topk=False)
        parallel = mine_top_k(network, k=8, min_support=2, min_nhp=0.3, workers=2)
        assert _signature(parallel) == _signature(serial)[:8]

    def test_single_branch_network_runs_inline(self):
        # One node attribute with one frequent value ⇒ very few branches.
        schema = random_schema(
            num_node_attrs=1, num_edge_attrs=0, max_domain=2, num_homophily=1, seed=9
        )
        network = random_attributed_network(schema, num_nodes=5, num_edges=12, seed=9)
        serial = GRMiner(network, k=3, min_support=1, min_score=0.0, push_topk=False).mine()
        parallel = _sharded(network, 4, k=3, min_support=1, min_score=0.0)
        assert _signature(parallel) == _signature(serial)[:3]

    def test_empty_lhs_root_branch_is_sharded(self):
        network = _network(4)
        params = dict(k=10, min_support=2, min_score=0.2, allow_empty_lhs=True)
        brute = BruteForceMiner(network, allow_empty_lhs=True, k=10, min_support=2, min_score=0.2).mine()
        parallel = _sharded(network, 3, **params)
        assert _signature(parallel) == _signature(brute)
