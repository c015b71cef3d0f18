"""Unit tests for repro.data.network."""

import numpy as np
import pytest

from repro.data.network import NetworkError, SocialNetwork
from repro.data.schema import Attribute, Schema


class TestConstruction:
    def test_sizes(self, small_network):
        assert small_network.num_nodes == 6
        assert small_network.num_edges == 8

    def test_node_column_contents(self, small_network):
        a = small_network.node_column("A")
        assert list(a) == [1, 1, 2, 2, 1, 0]  # node 5 has null A

    def test_edge_column_contents(self, small_network):
        w = small_network.edge_column("W")
        assert list(w) == [1, 1, 2, 1, 2, 1, 2, 0]

    def test_missing_node_column_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="node attribute columns"):
            SocialNetwork(
                small_schema,
                {"A": np.array([1])},
                np.array([0]),
                np.array([0]),
                {"W": np.array([1])},
            )

    def test_extra_edge_column_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="edge attribute columns"):
            SocialNetwork(
                small_schema,
                {"A": np.array([1]), "B": np.array([1])},
                np.array([0]),
                np.array([0]),
                {"W": np.array([1]), "Q": np.array([1])},
            )

    def test_endpoint_out_of_range_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="out of range"):
            SocialNetwork(
                small_schema,
                {"A": np.array([1]), "B": np.array([1])},
                np.array([0]),
                np.array([5]),
                {"W": np.array([1])},
            )

    def test_code_out_of_domain_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="codes outside"):
            SocialNetwork(
                small_schema,
                {"A": np.array([9]), "B": np.array([1])},
                np.array([0]),
                np.array([0]),
                {"W": np.array([1])},
            )

    def test_mixed_column_lengths_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="mixed lengths"):
            SocialNetwork(
                small_schema,
                {"A": np.array([1, 1]), "B": np.array([1])},
                np.array([0]),
                np.array([0]),
                {"W": np.array([1])},
            )

    def test_from_records_duplicate_node_ids_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="duplicate"):
            SocialNetwork.from_records(
                small_schema, [(1, {}), (1, {})], []
            )

    def test_from_records_unknown_endpoint_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="not a node"):
            SocialNetwork.from_records(small_schema, {1: {}}, [(1, 2)])

    def test_from_records_bad_edge_tuple_rejected(self, small_schema):
        with pytest.raises(NetworkError, match="bad edge"):
            SocialNetwork.from_records(small_schema, {1: {}}, [(1,)])

    def test_node_ids_preserved(self, small_network):
        assert small_network.node_ids == (0, 1, 2, 3, 4, 5)

    def test_node_ids_length_checked(self, small_schema):
        with pytest.raises(NetworkError, match="node ids"):
            SocialNetwork(
                small_schema,
                {"A": np.array([1]), "B": np.array([1])},
                np.array([], dtype=int),
                np.array([], dtype=int),
                {"W": np.array([], dtype=int)},
                node_ids=["x", "y"],
            )


class TestAccessors:
    def test_source_values_gather(self, small_network):
        assert list(small_network.source_values("A")) == [1, 1, 1, 1, 2, 2, 1, 0]

    def test_dest_values_gather(self, small_network):
        assert list(small_network.dest_values("A")) == [1, 2, 2, 2, 2, 1, 0, 1]

    def test_node_record_decodes_labels(self, small_network):
        assert small_network.node_record(0) == {"A": "a1", "B": "b1"}
        assert small_network.node_record(4) == {"A": "a1"}  # null B omitted

    def test_edge_record_decodes_labels(self, small_network):
        assert small_network.edge_record(0) == {"W": "w1"}
        assert small_network.edge_record(7) == {}

    def test_degrees(self, small_network):
        assert list(small_network.out_degrees()) == [2, 2, 1, 1, 1, 1]
        assert list(small_network.in_degrees()) == [1, 1, 2, 2, 1, 1]
        assert int(small_network.out_degrees().sum()) == small_network.num_edges
        assert int(small_network.in_degrees().sum()) == small_network.num_edges


class TestDerivation:
    def test_reciprocal_doubles_edges(self, small_network):
        doubled = small_network.with_reciprocal_edges()
        assert doubled.num_edges == 2 * small_network.num_edges
        # The second half is the reverse of the first.
        n = small_network.num_edges
        assert list(doubled.src[n:]) == list(small_network.dst)
        assert list(doubled.dst[n:]) == list(small_network.src)

    def test_reciprocal_copies_edge_attributes(self, small_network):
        doubled = small_network.with_reciprocal_edges()
        n = small_network.num_edges
        assert list(doubled.edge_column("W")[:n]) == list(doubled.edge_column("W")[n:])

    def test_restrict_node_attributes(self, small_network):
        restricted = small_network.restrict_node_attributes(["B"])
        assert restricted.schema.node_attribute_names == ("B",)
        assert restricted.num_edges == small_network.num_edges
        assert list(restricted.node_column("B")) == list(small_network.node_column("B"))

    def test_with_homophily(self, small_network):
        derived = small_network.with_homophily(["B"])
        assert derived.schema.homophily_attribute_names == ("B",)
        # Data unchanged.
        assert list(derived.node_column("A")) == list(small_network.node_column("A"))

    def test_repr_mentions_sizes(self, small_network):
        text = repr(small_network)
        assert "|V|=6" in text and "|E|=8" in text


class TestToyNetwork:
    def test_toy_shape_matches_paper(self, toy_network):
        assert toy_network.num_nodes == 14
        assert toy_network.num_edges == 30  # 15 undirected links

    def test_toy_attribute_table_matches_figure(self, toy_network):
        from repro.datasets.toy import TOY_NODES

        for index, node_id in enumerate(toy_network.node_ids):
            assert toy_network.node_record(index) == TOY_NODES[node_id]

    def test_every_toy_node_has_a_link(self, toy_network):
        degrees = toy_network.out_degrees() + toy_network.in_degrees()
        assert (degrees > 0).all()


class TestAppendEdges:
    """In-place append-edge deltas (the hub's mutable-network primitive)."""

    def test_appends_edges_and_codes(self, small_network):
        before = small_network.num_edges
        appended = small_network.append_edges(
            [0, 2], [3, 5], {"W": np.array([1, 2])}
        )
        assert appended == 2
        assert small_network.num_edges == before + 2
        assert list(small_network.src[-2:]) == [0, 2]
        assert list(small_network.dst[-2:]) == [3, 5]
        assert list(small_network.edge_column("W")[-2:]) == [1, 2]
        # The node side is untouched.
        assert small_network.num_nodes == 6

    def test_empty_delta_is_a_noop(self, small_network):
        before = small_network.num_edges
        assert small_network.append_edges([], [], {"W": []}) == 0
        assert small_network.num_edges == before

    def test_bad_batches_leave_the_network_untouched(self, small_network):
        before = small_network.num_edges
        with pytest.raises(NetworkError, match="out of range"):
            small_network.append_edges([0], [99], {"W": [1]})
        with pytest.raises(NetworkError, match="edge attribute columns"):
            small_network.append_edges([0], [1], {})  # W missing
        with pytest.raises(NetworkError, match="edge attribute columns"):
            small_network.append_edges([0], [1], {"W": [1], "Q": [1]})
        with pytest.raises(NetworkError, match="codes outside"):
            small_network.append_edges([0], [1], {"W": [99]})
        with pytest.raises(NetworkError, match="has 2 entries"):
            small_network.append_edges([0], [1], {"W": [1, 2]})
        with pytest.raises(NetworkError, match="equal length"):
            small_network.append_edges([0, 1], [2], {"W": [1]})
        assert small_network.num_edges == before

    @pytest.mark.parametrize(
        "src, dst, codes",
        [
            ([1.5], [2], [1]),  # fractional endpoint
            ([0], [True], [1]),  # boolean endpoint
            (["3"], [2], [1]),  # string endpoint
            ([0], [2], [1.9]),  # fractional code
        ],
        ids=["fractional-endpoint", "boolean-endpoint", "string-endpoint",
             "fractional-code"],
    )
    def test_non_integer_batches_are_refused(self, small_network, src, dst, codes):
        # An int64 cast would have appended 1→2, 0→1, 3→2 and code 1.
        before = small_network.num_edges
        with pytest.raises(NetworkError, match="must be integers"):
            small_network.append_edges(src, dst, {"W": codes})
        assert small_network.num_edges == before

    def test_appended_edges_reach_the_miners(self, small_network):
        from repro.core.miner import GRMiner

        base = GRMiner(small_network, k=5, min_support=1).mine()
        # Duplicate the densest relationship a few times: supports grow.
        small_network.append_edges(
            [0, 0, 0], [1, 1, 1], {"W": np.array([1, 1, 1])}
        )
        grown = GRMiner(small_network, k=5, min_support=1).mine()
        assert grown.params["abs_min_support"] == base.params["abs_min_support"]
        assert max(m.metrics.support_count for m in grown) >= max(
            m.metrics.support_count for m in base
        )


class TestDuplicateSemantics:
    """``append_edges`` is a multigraph append."""

    def test_multigraph_by_default(self, small_network):
        # Edge (0, 1, W=w1) already exists; appending it again is legal
        # and every instance counts once toward support.
        before = small_network.num_edges
        assert small_network.append_edges([0], [1], {"W": [1]}) == 1
        assert small_network.num_edges == before + 1

    def test_self_loops_are_legal(self, small_network):
        assert small_network.append_edges([2], [2], {"W": [1]}) == 1
