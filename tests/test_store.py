"""Unit tests for the compact LArray/EArray/RArray store (Section IV-A)."""

import numpy as np
import pytest

from repro.data.store import CompactStore
from repro.datasets.random_graphs import random_attributed_network


class TestLayout:
    def test_larray_holds_only_positive_out_degree(self, small_network):
        store = CompactStore(small_network)
        out = small_network.out_degrees()
        assert set(store.l_nodes) == set(np.flatnonzero(out > 0))

    def test_rarray_holds_only_positive_in_degree(self, small_network):
        store = CompactStore(small_network)
        indeg = small_network.in_degrees()
        assert set(store.r_nodes) == set(np.flatnonzero(indeg > 0))

    def test_out_and_ind_describe_contiguous_runs(self, small_network):
        store = CompactStore(small_network)
        # Ind must be the exclusive prefix sum of Out.
        assert store.l_ind[0] == 0
        assert list(store.l_ind[1:]) == list(np.cumsum(store.l_out)[:-1])
        assert int(store.l_out.sum()) == small_network.num_edges

    def test_out_edges_of_l_row_point_to_own_edges(self, small_network):
        store = CompactStore(small_network)
        for row in range(store.l_nodes.size):
            edges = store.out_edges_of_l_row(row)
            assert (store.e_src_row[edges] == row).all()

    def test_ptr_resolves_destinations(self, small_network):
        store = CompactStore(small_network)
        # Destination node attribute through Ptr equals the network's own gather.
        order = store.edge_order
        for name in small_network.schema.node_attribute_names:
            via_store = store.dest_codes(name)
            direct = small_network.dest_values(name)[order]
            assert list(via_store) == list(direct)

    def test_source_codes_match_network(self, small_network):
        store = CompactStore(small_network)
        order = store.edge_order
        for name in small_network.schema.node_attribute_names:
            assert list(store.source_codes(name)) == list(
                small_network.source_values(name)[order]
            )

    def test_edge_codes_match_network(self, small_network):
        store = CompactStore(small_network)
        order = store.edge_order
        for name in small_network.schema.edge_attribute_names:
            assert list(store.edge_codes(name)) == list(
                small_network.edge_column(name)[order]
            )

    def test_subset_gather(self, small_network):
        store = CompactStore(small_network)
        subset = np.array([0, 3, 5])
        assert list(store.source_codes("A", subset)) == list(
            store.source_codes("A")[subset]
        )

    def test_all_edges(self, small_network):
        store = CompactStore(small_network)
        assert list(store.all_edges()) == list(range(8))


class TestStorageClaim:
    """The Section IV-A size comparison against the single table."""

    def test_size_formula(self, small_network):
        store = CompactStore(small_network)
        n_v, n_e = 2, 1  # attributes in the small schema
        expected = (
            store.l_nodes.size * (n_v + 2)
            + small_network.num_edges * (n_e + 1)
            + store.r_nodes.size * n_v
        )
        assert store.size_cells() == expected

    def test_single_table_formula(self, small_network):
        store = CompactStore(small_network)
        assert store.single_table_size_cells() == 8 * (2 * 2 + 1)

    def test_compact_smaller_on_dense_graphs(self):
        # Dense multi-attribute network: the |E| * 2 * #AttrV term dominates.
        from repro.datasets.random_graphs import random_schema

        schema = random_schema(num_node_attrs=6, num_edge_attrs=1, seed=3)
        network = random_attributed_network(
            schema, num_nodes=50, num_edges=2000, seed=3
        )
        store = CompactStore(network)
        assert store.size_cells() < store.single_table_size_cells()

    def test_zero_degree_nodes_excluded_from_arrays(self, small_schema):
        from repro.data.network import SocialNetwork

        network = SocialNetwork.from_records(
            small_schema,
            {0: {"A": "a1"}, 1: {"A": "a2"}, 2: {"A": "a1"}},
            [(0, 1, {})],
        )
        store = CompactStore(network)
        assert store.l_nodes.size == 1  # only node 0 has out-edges
        assert store.r_nodes.size == 1  # only node 1 has in-edges


class TestSharedMemoryExport:
    """Zero-copy shared-memory round trip (repro.parallel substrate)."""

    def test_round_trip_preserves_every_array(self, small_network):
        from repro.data.store import attach_shared_store

        store = CompactStore(small_network)
        with store.lease_shared() as lease:
            network2, store2, shm = attach_shared_store(lease.handle)
            try:
                np.testing.assert_array_equal(store2.e_ptr, store.e_ptr)
                np.testing.assert_array_equal(store2.e_src_row, store.e_src_row)
                np.testing.assert_array_equal(store2.l_ind, store.l_ind)
                for name in small_network.schema.node_attribute_names:
                    np.testing.assert_array_equal(
                        store2.l_attrs[name], store.l_attrs[name]
                    )
                    np.testing.assert_array_equal(
                        network2.node_column(name), small_network.node_column(name)
                    )
                for name in small_network.schema.edge_attribute_names:
                    np.testing.assert_array_equal(
                        store2.e_attrs[name], store.e_attrs[name]
                    )
                np.testing.assert_array_equal(network2.src, small_network.src)
                np.testing.assert_array_equal(network2.dst, small_network.dst)
            finally:
                shm.close()

    def test_attached_views_are_zero_copy_and_read_only(self, small_network):
        from repro.data.store import attach_shared_store

        store = CompactStore(small_network)
        with store.lease_shared() as lease:
            _, store2, shm = attach_shared_store(lease.handle)
            try:
                assert not store2.e_ptr.flags.owndata  # a view over the segment
                with pytest.raises(ValueError):
                    store2.e_ptr[0] = 99
            finally:
                shm.close()

    def test_handle_is_picklable(self, small_network):
        import pickle

        store = CompactStore(small_network)
        with store.lease_shared() as lease:
            restored = pickle.loads(pickle.dumps(lease.handle))
            assert restored.shm_name == lease.handle.shm_name
            assert restored.num_edges == store.num_edges

    def test_release_is_idempotent(self, small_network):
        lease = CompactStore(small_network).lease_shared()
        lease.close()
        lease.close()  # second call must not raise

    def test_mining_over_attached_store_matches(self, small_network):
        from repro.core.miner import GRMiner
        from repro.data.store import attach_shared_store

        store = CompactStore(small_network)
        baseline = GRMiner(small_network, k=5, min_support=1, min_score=0.0).mine()
        with store.lease_shared() as lease:
            network2, store2, shm = attach_shared_store(lease.handle)
            try:
                mined = GRMiner(
                    network2, k=5, min_support=1, min_score=0.0, store=store2
                ).mine()
                assert [str(m.gr) for m in mined] == [str(m.gr) for m in baseline]
            finally:
                shm.close()


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestFingerprint:
    """Content identity of a store (the engine's cache key component)."""

    def test_identical_networks_share_a_fingerprint(self, small_schema):
        from repro.data.network import SocialNetwork

        nodes = {0: {"A": "a1"}, 1: {"A": "a2"}, 2: {"B": "b1"}}
        edges = [(0, 1, {"W": "w1"}), (1, 2, {})]
        first = CompactStore(SocialNetwork.from_records(small_schema, nodes, edges))
        second = CompactStore(SocialNetwork.from_records(small_schema, nodes, edges))
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() is first.fingerprint()  # memoized

    def test_different_data_different_fingerprint(self, small_schema):
        from repro.data.network import SocialNetwork

        nodes = {0: {"A": "a1"}, 1: {"A": "a2"}}
        base = CompactStore(
            SocialNetwork.from_records(small_schema, nodes, [(0, 1, {"W": "w1"})])
        )
        other = CompactStore(
            SocialNetwork.from_records(small_schema, nodes, [(0, 1, {"W": "w2"})])
        )
        assert base.fingerprint() != other.fingerprint()

    def test_attached_store_fingerprint_matches_source(self, small_network):
        from repro.data.store import attach_shared_store

        store = CompactStore(small_network)
        with store.lease_shared() as lease:
            _, store2, shm = attach_shared_store(lease.handle)
            try:
                assert store2.fingerprint() == store.fingerprint()
            finally:
                shm.close()


class TestSharedStoreLease:
    """Guaranteed unlink of shared exports (satellite: leak-proofing)."""

    def test_close_unlinks_and_is_idempotent(self, small_network):
        lease = CompactStore(small_network).lease_shared()
        name = lease.name
        assert _segment_exists(name) and not lease.closed
        lease.close()
        lease.close()  # second call must not raise
        assert lease.closed and not _segment_exists(name)

    def test_exception_inside_with_unlinks(self, small_network):
        store = CompactStore(small_network)
        with pytest.raises(RuntimeError):
            with store.lease_shared() as lease:
                name = lease.name
                raise RuntimeError("boom")
        assert not _segment_exists(name)

    def test_abandoned_lease_is_collected(self, small_network):
        import gc

        lease = CompactStore(small_network).lease_shared()
        name = lease.name
        del lease  # nobody ever called close()
        gc.collect()
        assert not _segment_exists(name)

    def test_handle_attachable_until_closed(self, small_network):
        from repro.data.store import attach_shared_store

        store = CompactStore(small_network)
        with store.lease_shared() as lease:
            network2, _, shm = attach_shared_store(lease.handle)
            assert network2.num_edges == small_network.num_edges
            shm.close()


class TestApplyDelta:
    """Store rebuilds after the backing network appended edges."""

    @staticmethod
    def _network(seed: int):
        from repro.datasets.random_graphs import random_schema

        schema = random_schema(
            num_node_attrs=3, num_edge_attrs=1, max_domain=3, seed=seed
        )
        return random_attributed_network(
            schema, num_nodes=15, num_edges=60, seed=seed
        )

    def test_delta_rebuilds_arrays_and_resets_fingerprint(self):
        network = self._network(3)
        store = CompactStore(network)
        fp_before = store.fingerprint()
        edges_before = store.num_edges

        network.append_edges(
            [0, 1, 2], [3, 4, 5],
            {name: np.ones(3, dtype=np.int64)
             for name in network.schema.edge_attribute_names},
        )
        # The store is a snapshot until the delta is applied.
        assert store.num_edges == edges_before
        store.apply_delta()
        assert store.num_edges == edges_before + 3
        assert store.fingerprint() != fp_before
        # The rebuilt pointer structure stays internally consistent.
        assert store.e_src_row.size == store.num_edges
        assert int(store.l_out.sum()) == store.num_edges
        gathered = store.source_codes(network.schema.node_attribute_names[0])
        assert gathered.size == store.num_edges

    def test_rebuilt_store_equals_a_fresh_store(self):
        network = self._network(4)
        store = CompactStore(network)
        store.fingerprint()
        network.append_edges(
            [5, 6], [7, 8],
            {name: np.zeros(2, dtype=np.int64)
             for name in network.schema.edge_attribute_names},
        )
        store.apply_delta()
        fresh = CompactStore(network)
        assert store.fingerprint() == fresh.fingerprint()
