"""Edge cases: null attribute values, edge descriptors, degenerate inputs."""

import numpy as np
import pytest

from repro.core.bruteforce import BruteForceMiner
from repro.core.descriptors import GR, Descriptor
from repro.core.metrics import MetricEngine
from repro.core.miner import GRMiner
from repro.data.network import SocialNetwork
from repro.data.schema import Attribute, Schema
from repro.datasets.random_graphs import random_attributed_network, random_schema


class TestNullHandling:
    def test_nulls_never_satisfy_descriptors(self, small_network):
        engine = MetricEngine(small_network)
        # Node 5 has null A; edges from node 5 must not match any (A:x).
        for value in ("a1", "a2"):
            mask = engine.lhs_mask(Descriptor({"A": value}))
            edges_from_5 = small_network.src == 5
            assert not (mask & edges_from_5).any()

    def test_null_heavy_network_still_exact(self):
        network = random_attributed_network(
            num_nodes=20, num_edges=80, null_fraction=0.4, seed=77
        )
        mined = GRMiner(network, k=None, min_support=1, min_score=0.0).mine()
        reference = BruteForceMiner(network, k=None, min_support=1, min_score=0.0).mine()
        assert [(str(a.gr), a.score) for a in mined] == [
            (str(b.gr), b.score) for b in reference
        ]

    def test_all_null_attribute_yields_no_grs_on_it(self):
        schema = Schema([Attribute("A", ("x",)), Attribute("B", ("y", "z"))])
        network = SocialNetwork(
            schema,
            {"A": np.zeros(4, dtype=int), "B": np.array([1, 2, 1, 2])},
            np.array([0, 1, 2]),
            np.array([1, 2, 3]),
        )
        result = GRMiner(network, k=None, min_support=1, min_score=0.0).mine()
        used = {name for m in result for name, _ in tuple(m.gr.lhs) + tuple(m.gr.rhs)}
        assert "A" not in used


class TestEdgeDescriptors:
    def test_edge_attribute_participates_in_grs(self):
        schema = random_schema(num_node_attrs=2, num_edge_attrs=1, seed=8)
        network = random_attributed_network(schema, num_nodes=20, num_edges=150, seed=8)
        # A threshold matters here: at min_score 0 every `l -> r` is a
        # qualifying blocker, so no `l -w-> r` can ever be maximal.
        result = GRMiner(network, k=None, min_support=2, min_score=0.5).mine()
        assert any(m.gr.edge for m in result)

    def test_edge_descriptor_grs_blocked_at_zero_threshold(self):
        schema = random_schema(num_node_attrs=2, num_edge_attrs=1, seed=8)
        network = random_attributed_network(schema, num_nodes=20, num_edges=150, seed=8)
        result = GRMiner(network, k=None, min_support=1, min_score=0.0).mine()
        assert all(not m.gr.edge for m in result)

    def test_schema_without_edge_attributes(self):
        schema = Schema([Attribute("A", ("x", "y"))])
        network = SocialNetwork(
            schema,
            {"A": np.array([1, 2, 1, 2])},
            np.array([0, 1, 2, 3]),
            np.array([1, 2, 3, 0]),
        )
        result = GRMiner(network, k=None, min_support=1, min_score=0.0).mine()
        assert all(not m.gr.edge for m in result)
        reference = BruteForceMiner(network, k=None, min_support=1, min_score=0.0).mine()
        assert [str(m.gr) for m in result] == [str(m.gr) for m in reference]


class TestDegenerateInputs:
    def test_single_edge_network(self):
        schema = Schema([Attribute("A", ("x", "y"))])
        network = SocialNetwork(
            schema, {"A": np.array([1, 2])}, np.array([0]), np.array([1])
        )
        result = GRMiner(network, k=None, min_support=1, min_score=0.0).mine()
        assert any(
            m.gr.lhs == Descriptor({"A": "x"}) and m.gr.rhs == Descriptor({"A": "y"})
            for m in result
        )

    def test_network_with_no_edges(self):
        schema = Schema([Attribute("A", ("x",))])
        network = SocialNetwork(
            schema,
            {"A": np.array([1, 1])},
            np.array([], dtype=int),
            np.array([], dtype=int),
        )
        result = GRMiner(network, k=5, min_support=1, min_score=0.0).mine()
        assert len(result) == 0

    def test_self_loops_counted_normally(self):
        schema = Schema([Attribute("A", ("x", "y"))])
        network = SocialNetwork(
            schema, {"A": np.array([1, 2])}, np.array([0, 0]), np.array([0, 1])
        )
        engine = MetricEngine(network)
        gr = GR(Descriptor({"A": "x"}), Descriptor({"A": "x"}))
        assert engine.evaluate(gr).support_count == 1

    def test_k_larger_than_result_set(self, toy_network):
        result = GRMiner(toy_network, k=100_000, min_support=2, min_score=0.5).mine()
        exact = GRMiner(
            toy_network, k=None, min_support=2, min_score=0.5
        ).mine()
        assert len(result) == len(exact)

    def test_min_score_one_keeps_only_perfect_grs(self, toy_network):
        result = GRMiner(toy_network, k=None, min_support=1, min_score=1.0).mine()
        assert result
        assert all(m.score == pytest.approx(1.0) for m in result)

    def test_min_support_above_edge_count_empty(self, toy_network):
        result = GRMiner(toy_network, k=None, min_support=1000, min_score=0.0).mine()
        assert len(result) == 0


class TestVerifyGeneralityPass:
    """GRMiner(k)'s in-walk generality check (``generality_blocked``)."""

    def test_verified_entries_are_maximal(self, toy_network):
        """Theorem 4-style guarantee: no GRMiner(k) entry has a
        qualifying generalization."""
        result = GRMiner(toy_network, k=10, min_support=2, min_score=0.5).mine()
        engine = MetricEngine(toy_network)
        for mined in result:
            for general in mined.gr.generalizations():
                if not general.lhs or general.is_trivial(toy_network.schema):
                    continue
                metrics = engine.evaluate(general)
                blocked = metrics.support_count >= 2 and metrics.nhp >= 0.5
                assert not blocked, f"{mined.gr} blocked by {general}"

    @pytest.mark.parametrize("kernel", ["reference", "vector"])
    @pytest.mark.parametrize(
        "params",
        [
            dict(k=3, min_support=1, min_score=0.0),
            dict(k=5, min_support=2, min_score=0.5),  # the README example
        ],
    )
    def test_fills_k_where_the_threshold_cut_a_blocker(
        self, toy_network, params, kernel
    ):
        """On these queries the dynamic threshold cuts a blocker's
        subtree before the index sees it; the answer still holds the
        oracle's k GRs."""
        fast = GRMiner(toy_network, kernel=kernel, **params).mine()
        oracle = GRMiner(toy_network, push_topk=False, kernel=kernel, **params).mine()
        assert len(fast) == params["k"]
        assert [(str(m.gr), m.score) for m in fast] == [
            (str(m.gr), m.score) for m in oracle
        ]

    def test_only_the_dynamic_threshold_consults_the_data(
        self, toy_network, monkeypatch
    ):
        """The oracle ``push_topk=False`` (and ``k=None``) stays
        index-only, independent of ``generality_blocked``."""
        calls = []
        check = GRMiner.generality_blocked

        def spy(miner, *keys):
            calls.append(keys)
            return check(miner, *keys)

        monkeypatch.setattr(GRMiner, "generality_blocked", spy)
        params = dict(min_support=1, min_score=0.0)
        GRMiner(toy_network, k=3, push_topk=False, **params).mine()
        GRMiner(toy_network, k=None, **params).mine()
        assert calls == []
        GRMiner(toy_network, k=3, **params).mine()
        assert calls


class TestTheorem4:
    def test_no_nontrivial_gr_below_thresholds_examined_needlessly(self, toy_network):
        """Theorem 4(2) consequence: raising minNhp strictly shrinks the
        candidate set and never the result's correctness."""
        low = GRMiner(toy_network, k=None, min_support=2, min_score=0.3).mine()
        high = GRMiner(toy_network, k=None, min_support=2, min_score=0.7).mine()
        low_set = {str(m.gr) for m in low if m.score >= 0.7}
        high_set = {str(m.gr) for m in high}
        # Every GR qualifying at the high threshold appears in the low run.
        assert high_set <= {str(m.gr) for m in low} | high_set
        # And the high run finds exactly the low run's >= 0.7 subset, up to
        # generality interactions (blockers below 0.7 disappear).
        assert high_set >= low_set
