"""Equivalence of GRMiner against the brute-force reference miner.

This is the load-bearing correctness test of the reproduction: the
SFDF-enumerating, nhp-pruning, generality-indexed miner must produce
*identical ranked output* to the direct Definition 2–5 implementation,
across parameter grids and randomized networks (hypothesis).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import BruteForceMiner
from repro.core.miner import GRMiner
from repro.datasets.random_graphs import random_attributed_network, random_schema


def _signature(result):
    return [(str(m.gr), round(m.score, 9), m.metrics.support_count) for m in result]


def _assert_equal_results(miner_result, reference_result):
    assert _signature(miner_result) == _signature(reference_result)


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


class TestToyEquivalence:
    @pytest.mark.parametrize(
        "params",
        [
            dict(min_support=1, min_score=0.0),
            dict(min_support=2, min_score=0.5),
            dict(min_support=3, min_score=0.6),
            dict(min_support=0.1, min_score=0.4),
            dict(min_support=2, min_score=0.5, rank_by="confidence"),
            dict(min_support=2, min_score=0.5, allow_empty_lhs=True),
            dict(min_support=2, min_score=0.2, include_trivial=True),
            dict(min_support=2, min_score=0.0, apply_generality=False),
        ],
    )
    def test_full_output_matches_bruteforce(self, toy_network, params):
        mined = GRMiner(toy_network, k=None, **params).mine()
        reference = BruteForceMiner(toy_network, k=None, **params).mine()
        _assert_equal_results(mined, reference)

    @pytest.mark.parametrize("rank_by", ["laplace", "gain"])
    def test_alternative_antimonotone_metrics_match(self, toy_network, rank_by):
        threshold = 0.0 if rank_by == "laplace" else -1.0
        mined = GRMiner(
            toy_network, k=None, min_support=2, min_score=threshold, rank_by=rank_by
        ).mine()
        reference = BruteForceMiner(
            toy_network, k=None, min_support=2, min_score=threshold, rank_by=rank_by
        ).mine()
        _assert_equal_results(mined, reference)


class TestRandomizedEquivalence:
    @given(
        seed=st.integers(0, 15),
        min_support=st.integers(1, 8),
        min_score=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
        null_fraction=st.sampled_from([0.0, 0.15]),
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_miner_matches_bruteforce(
        self, seed, min_support, min_score, null_fraction
    ):
        network = _network(seed, null_fraction)
        mined = GRMiner(
            network, k=None, min_support=min_support, min_score=min_score
        ).mine()
        reference = BruteForceMiner(
            network, k=None, min_support=min_support, min_score=min_score
        ).mine()
        _assert_equal_results(mined, reference)

    @given(seed=st.integers(0, 15), min_support=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_confidence_ranking_matches_bruteforce(self, seed, min_support):
        network = _network(seed)
        mined = GRMiner(
            network, k=None, min_support=min_support, min_score=0.3, rank_by="confidence"
        ).mine()
        reference = BruteForceMiner(
            network, k=None, min_support=min_support, min_score=0.3, rank_by="confidence"
        ).mine()
        _assert_equal_results(mined, reference)

    @given(seed=st.integers(0, 15), min_support=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_static_ordering_ablation_still_exact(self, seed, min_support):
        """Disabling dynamic ordering must not change output — only cost.

        The miner falls back to the conservative Theorem 2 pruning rule,
        so correctness is preserved (Remark 2's trap is avoided)."""
        network = _network(seed)
        dynamic = GRMiner(
            network, k=None, min_support=min_support, min_score=0.4
        ).mine()
        static = GRMiner(
            network,
            k=None,
            min_support=min_support,
            min_score=0.4,
            dynamic_rhs_ordering=False,
        ).mine()
        _assert_equal_results(dynamic, static)


class TestTopKPushdown:
    """GRMiner(k): dynamic threshold upgrade plus the in-walk check of
    each would-be top-k candidate's generality on the data."""

    @given(seed=st.integers(0, 15), k=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_topk_is_subsequence_of_exact_topk(self, seed, k):
        network = _network(seed)
        fast = GRMiner(network, k=k, min_support=2, min_score=0.3).mine()
        exact = BruteForceMiner(network, k=k, min_support=2, min_score=0.3).mine()
        _assert_equal_results(fast, exact)

    @given(
        seed=st.integers(0, 15),
        k=st.integers(1, 13),
        min_support=st.integers(1, 5),
        min_score=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7]),
        rank_by=st.sampled_from(["nhp", "confidence", "laplace", "gain"]),
        push_score_pruning=st.booleans(),
        dynamic_rhs_ordering=st.booleans(),
        kernel=st.sampled_from(["reference", "vector"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_topk_equals_plain_grminer_truncated(self, seed, k, **params):
        """``push_topk`` changes effort, never the answer: GRMiner(k)
        equals the index-only oracle truncated to k, GR for GR."""
        network = _network(seed)
        fast = GRMiner(network, k=k, **params).mine()
        plain = GRMiner(network, k=k, push_topk=False, **params).mine()
        _assert_equal_results(fast, plain)

    @given(seed=st.integers(0, 15), k=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_push_topk_false_is_exact(self, seed, k):
        network = _network(seed)
        plain = GRMiner(
            network, k=k, min_support=2, min_score=0.3, push_topk=False
        ).mine()
        exact = BruteForceMiner(network, k=k, min_support=2, min_score=0.3).mine()
        _assert_equal_results(plain, exact)

    def test_first_result_always_agrees(self, toy_network):
        fast = GRMiner(toy_network, k=1, min_support=2, min_score=0.3).mine()
        exact = BruteForceMiner(toy_network, k=1, min_support=2, min_score=0.3).mine()
        _assert_equal_results(fast, exact)
