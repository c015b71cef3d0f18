"""Kernel-tier equivalence: the vector tier vs the scalar reference.

The reference tier is the equivalence oracle: the vector tier must
return the identical result list — scores, metrics, rank order — *and*
the identical effort counters (``grs_examined``, ``pruned_by_support``,
``pruned_by_nhp``, ...), because its candidate-list visits claim to
replay the reference traversal exactly, not merely to reach the same
answer.

The tier is also asserted to be a pure execution detail: canonical
cache keys, engine result caching, single-flight dedup and delta
migration all behave identically whichever tier computed the entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.interestingness import gain, laplace
from repro.core.kernels import DEFAULT_KERNEL, KERNEL_TIERS
from repro.core.miner import GRMiner, MinerConfig, _ColumnCache, _LWContext, mine_top_k
from repro.datasets.random_graphs import random_attributed_network, random_schema
from repro.datasets.toy import toy_dating_network

RANK_METRICS = ("nhp", "confidence", "laplace", "gain")


def _signature(result):
    return [
        (
            str(m.gr),
            m.score,
            m.metrics.support_count,
            m.metrics.lw_count,
            m.metrics.homophily_count,
        )
        for m in result
    ]


def _counters(stats):
    return (
        stats.grs_examined,
        stats.pruned_by_support,
        stats.pruned_by_nhp,
        stats.candidates,
        stats.lw_nodes,
        stats.pruned_by_generality,
    )


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


def _mine(network, tier, **kw):
    return GRMiner(network, kernel=tier, **kw).mine()


class TestTierEquivalence:
    """Vector answers equal the reference candidate-for-candidate."""

    @pytest.mark.parametrize("rank_by", RANK_METRICS)
    @pytest.mark.parametrize("push_topk", [True, False])
    def test_toy_all_metrics_and_pushdown(self, rank_by, push_topk):
        network = toy_dating_network()
        for gen in (True, False):
            kw = dict(
                k=5,
                min_support=1,
                rank_by=rank_by,
                push_topk=push_topk,
                apply_generality=gen,
            )
            ref = _mine(network, "reference", **kw)
            got = _mine(network, "vector", **kw)
            assert _signature(got) == _signature(ref)
            assert _counters(got.stats) == _counters(ref.stats)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5),
        null_fraction=st.sampled_from([0.0, 0.2]),
        k=st.integers(min_value=1, max_value=8),
        min_support=st.integers(min_value=1, max_value=4),
        min_score=st.floats(min_value=0.0, max_value=0.6),
        rank_by=st.sampled_from(RANK_METRICS),
        push_topk=st.booleans(),
        push_score_pruning=st.booleans(),
        # False is the Remark 2 ablation: whether a β = ∅ node's subtree
        # may be cut then hangs on the can-flip rule.
        dynamic_rhs_ordering=st.booleans(),
        include_trivial=st.sampled_from([None, True, False]),
        max_rhs_attrs=st.sampled_from([None, 1, 2]),
        allow_empty_lhs=st.booleans(),
    )
    def test_vector_equals_reference_on_random_networks(
        self, seed, null_fraction, **kw
    ):
        network = _network(seed, null_fraction)
        ref = _mine(network, "reference", **kw)
        got = _mine(network, "vector", **kw)
        assert _signature(got) == _signature(ref)
        assert _counters(got.stats) == _counters(ref.stats)

    def test_threshold_raised_inside_a_recursion_cuts_later_siblings(self):
        # The offers made below one survivor can lift the k-th best above
        # a later sibling's score, so the vector loop must re-read the
        # threshold after each recursion, not only after its own offers:
        # on this network and query a stale threshold lets a sibling the
        # reference cuts recurse (two more GRs examined).
        schema = random_schema(
            num_node_attrs=2, num_edge_attrs=0, max_domain=3, num_homophily=1, seed=0
        )
        network = random_attributed_network(
            schema, num_nodes=12, num_edges=40, homophily_strength=0.7, seed=0
        )
        kw = dict(k=2, min_support=1, rank_by="nhp", include_trivial=False)
        ref = _mine(network, "reference", **kw)
        got = _mine(network, "vector", **kw)
        assert _signature(got) == _signature(ref)
        assert _counters(got.stats) == _counters(ref.stats)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_workers_match_reference_across_tiers(self, workers):
        from repro.engine import MineRequest, MiningEngine

        network = _network(2)
        kw = dict(k=6, min_support=2, min_nhp=0.2)
        with MiningEngine(network, workers, cache_size=0) as engine:
            ref = engine.mine(MineRequest.create(kernel="reference", **kw))
            got = engine.mine(MineRequest.create(kernel="vector", **kw))
        assert _signature(got) == _signature(ref)

    def test_rearmed_skeleton_switches_tiers_in_place(self):
        network = _network(3)
        base = dict(k=5, min_support=1, min_score=0.2)
        miner = GRMiner(network, kernel="vector", **base)
        vector = miner.mine()
        reference = miner.rearm(MinerConfig(kernel="reference", **base)).mine()
        assert miner.kernel == "reference"
        assert _signature(vector) == _signature(reference)

    def test_rhs_order_cache_respects_dynamic_ordering_flag(self):
        # Regression: the memoised Eqn. 8 orderings outlive re-arms, so
        # a skeleton re-armed from dynamic_rhs_ordering=True to False
        # (or back) must not serve orderings computed under the other
        # flag.
        network = _network(0)
        base = dict(k=3, min_support=3, min_score=0.4)
        miner = GRMiner(network, dynamic_rhs_ordering=True, **base)
        miner.mine()
        rearmed = miner.rearm(
            MinerConfig(dynamic_rhs_ordering=False, **base)
        ).mine()
        fresh = GRMiner(network, dynamic_rhs_ordering=False, **base).mine()
        assert _signature(rearmed) == _signature(fresh)
        assert _counters(rearmed.stats) == _counters(fresh.stats)

    def test_mine_top_k_kernel_keyword(self):
        network = toy_dating_network()
        ref = mine_top_k(network, k=5, min_support=2, kernel="reference")
        got = mine_top_k(network, k=5, min_support=2, kernel="vector")
        assert _signature(got) == _signature(ref)


class TestNumbaTier:
    """The never-run numba tier is gone: "numba" is an unknown tier."""

    def test_default_is_vector(self):
        assert DEFAULT_KERNEL == "vector"
        assert GRMiner(toy_dating_network(), k=3).kernel in ("vector",)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            MinerConfig(kernel="simd")
        with pytest.raises(ValueError, match="kernel"):
            GRMiner(toy_dating_network(), k=3, kernel="simd")

    def test_numba_fails_validation_like_any_unknown_tier(self):
        assert KERNEL_TIERS == ("reference", "vector")
        with pytest.raises(ValueError, match="kernel"):
            MinerConfig(kernel="numba")
        with pytest.raises(ValueError, match="kernel"):
            GRMiner(toy_dating_network(), k=3, kernel="numba")


class TestTierIsExecutionDetail:
    """Cache keys, dedup and deltas are tier-blind."""

    def test_canonical_keys_equal_across_tiers(self):
        network = toy_dating_network()
        keys = {
            tier: MinerConfig(k=5, min_support=2, kernel=tier).canonical_key(
                network.schema, network.num_edges
            )
            for tier in KERNEL_TIERS
        }
        assert len(set(keys.values())) == 1

    def test_engine_cache_shared_across_tiers(self):
        from repro.engine import MineRequest, MiningEngine

        network = _network(4)
        ref_req = MineRequest.create(
            k=5, min_support=1, min_nhp=0.2, kernel="reference"
        )
        vec_req = MineRequest.create(k=5, min_support=1, min_nhp=0.2, kernel="vector")
        with MiningEngine(network) as engine:
            first = engine.mine(ref_req)
            hits_before = engine.stats.cache_hits
            second = engine.mine(vec_req)
            assert engine.stats.cache_hits == hits_before + 1
        assert _signature(first) == _signature(second)

    def test_request_canonical_key_is_tier_blind(self):
        """Requests differing only in tier share one key, so they dedup
        against each other; a differing threshold still splits them."""
        from repro.engine.request import MineRequest

        network = _network(4)
        schema, num_edges = network.schema, network.num_edges
        reference = MineRequest.create(
            k=5, min_support=4, min_nhp=0.5, workers=2, kernel="reference"
        )
        twin = MineRequest.create(
            k=5, min_support=4, min_nhp=0.5, workers=2, kernel="vector"
        )
        laxer = MineRequest.create(
            k=5, min_support=2, min_nhp=0.5, workers=2, kernel="vector"
        )
        assert twin.canonical_key(schema, num_edges) == reference.canonical_key(
            schema, num_edges
        )
        assert laxer.canonical_key(schema, num_edges) != reference.canonical_key(
            schema, num_edges
        )

    def test_delta_migration_identical_across_tiers(self):
        from repro.engine import MineRequest, MiningEngine

        def fresh_network():
            # append_edges mutates the network, so each tier gets its
            # own same-seed copy instead of the shared cached instance.
            schema = random_schema(
                num_node_attrs=3, num_edge_attrs=1, max_domain=3,
                num_homophily=2, seed=5,
            )
            return random_attributed_network(
                schema, num_nodes=20, num_edges=100,
                homophily_strength=0.5, seed=5,
            )

        results = {}
        for tier in ("reference", "vector"):
            network = fresh_network()
            rng = np.random.default_rng(11)
            request = MineRequest.create(
                k=8, min_support=1, min_nhp=0.1, kernel=tier
            )
            with MiningEngine(network) as engine:
                engine.mine(request)
                count = 6
                src = rng.integers(0, network.num_nodes, count)
                dst = rng.integers(0, network.num_nodes, count)
                codes = {
                    name: rng.integers(
                        0,
                        network.schema.edge_attribute(name).domain_size + 1,
                        count,
                    )
                    for name in network.schema.edge_attribute_names
                }
                engine.append_edges(src, dst, codes)
                results[tier] = _signature(engine.mine(request))
        assert results["vector"] == results["reference"]


class TestMetricFormulaConsistency:
    """One source of truth: interestingness and both tiers evaluate the
    same count-level formulas."""

    def test_interestingness_delegates_match_counts(self):
        rng = np.random.default_rng(0)
        num_edges = 200
        for _ in range(50):
            lw = int(rng.integers(1, 60))
            supp = int(rng.integers(0, lw + 1))
            assert laplace(
                supp / num_edges, lw / num_edges, num_edges, k=2
            ) == pytest.approx(kernels.laplace_counts(supp, lw, 2))
            assert gain(supp / num_edges, lw / num_edges, 0.5) == pytest.approx(
                kernels.gain_counts(supp / num_edges, lw / num_edges, 1, 0.5)
            )

    def test_nhp_degenerate_denominator_is_zero(self):
        assert kernels.nhp_counts(5, 10, 10) == 0.0
        assert kernels.nhp_counts(5, 10, 12) == 0.0


class _SpyColumnCache(_ColumnCache):
    """Counts full-column fetch requests per attribute."""

    __slots__ = ("requests",)

    def __init__(self, fetch):
        super().__init__(fetch)
        self.requests = {}

    def __getitem__(self, name):
        self.requests[name] = self.requests.get(name, 0) + 1
        return super().__getitem__(name)


class TestContextColumnCache:
    """β sets sharing an attribute reuse one per-context gather."""

    def _spied_miner(self):
        miner = GRMiner(toy_dating_network(), k=5, min_support=1)
        spy = _SpyColumnCache(miner.store.dest_codes)
        miner._dst_cols = spy
        return miner, spy

    def test_context_dst_gathers_once_per_context(self):
        miner, spy = self._spied_miner()
        edges = np.arange(miner.network.num_edges)
        context = _LWContext(edges=edges, l_map={"EDU": 1}, w_map={}, lw_count=8)
        first = miner._context_dst(context, "EDU")
        second = miner._context_dst(context, "EDU")
        assert first is second
        assert spy.requests == {"EDU": 1}

    def test_homophily_counts_share_gathered_columns(self):
        miner, spy = self._spied_miner()
        edges = np.arange(miner.network.num_edges)
        l_map = {"EDU": 1, "SEX": 1}
        context = _LWContext(edges=edges, l_map=l_map, w_map={}, lw_count=8)
        miner._homophily_count(context, ("EDU",))
        miner._homophily_count(context, ("EDU", "SEX"))
        miner._homophily_count(context, ("SEX",))
        assert spy.requests == {"EDU": 1, "SEX": 1}
        # A different context re-gathers: the cache is per ``l ∧ w``.
        other = _LWContext(
            edges=edges[: len(edges) // 2], l_map=l_map, w_map={}, lw_count=4
        )
        miner._homophily_count(other, ("EDU",))
        assert spy.requests["EDU"] == 2


class TestProfileHook:
    def test_profile_mining_matches_plain_mine(self, tmp_path):
        from repro.bench.harness import profile_mining

        network = toy_dating_network()
        plain = _mine(network, "vector", k=5, min_support=1)
        out = tmp_path / "walk.pstats"
        result, text = profile_mining(
            GRMiner(network, k=5, min_support=1, kernel="vector"), out_path=out
        )
        assert _signature(result) == _signature(plain)
        assert out.exists() and out.stat().st_size > 0
        assert "mine_branch" in text

    def test_cli_accepts_kernel_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["mine", "data", "--kernel", "reference"])
        assert args.kernel == "reference"
        args = build_parser().parse_args(["sweep", "data", "--kernel", "vector"])
        assert args.kernel == "vector"
