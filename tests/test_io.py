"""CSV persistence and networkx interop."""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.core.metrics import MetricEngine
from repro.io.loaders import (
    from_networkx,
    load_network,
    save_network,
    schema_from_dict,
    schema_to_dict,
    to_networkx,
)


class TestSchemaJSON:
    def test_roundtrip(self, small_schema):
        assert schema_from_dict(schema_to_dict(small_schema)) == small_schema

    def test_homophily_preserved(self, toy_network):
        schema = toy_network.schema
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored.homophily_attribute_names == ("EDU",)


class TestCSVRoundtrip:
    def test_roundtrip_preserves_everything(self, toy_network, tmp_path):
        save_network(toy_network, tmp_path / "toy")
        restored = load_network(tmp_path / "toy")
        assert restored.schema == toy_network.schema
        assert restored.num_nodes == toy_network.num_nodes
        assert restored.num_edges == toy_network.num_edges
        for name in toy_network.schema.node_attribute_names:
            assert list(restored.node_column(name)) == list(
                toy_network.node_column(name)
            )
        assert list(restored.src) == list(toy_network.src)
        assert list(restored.dst) == list(toy_network.dst)

    def test_roundtrip_preserves_nulls(self, small_network, tmp_path):
        save_network(small_network, tmp_path / "net")
        restored = load_network(tmp_path / "net")
        assert list(restored.node_column("A")) == list(small_network.node_column("A"))
        assert list(restored.edge_column("W")) == list(small_network.edge_column("W"))

    def test_mining_results_survive_roundtrip(self, toy_network, tmp_path):
        from repro.core.miner import GRMiner

        save_network(toy_network, tmp_path / "toy")
        restored = load_network(tmp_path / "toy")
        a = GRMiner(toy_network, min_support=2, min_score=0.5, k=None).mine()
        b = GRMiner(restored, min_support=2, min_score=0.5, k=None).mine()
        assert [str(m.gr) for m in a] == [str(m.gr) for m in b]

    def test_expected_files_written(self, toy_network, tmp_path):
        directory = save_network(toy_network, tmp_path / "toy")
        assert (directory / "schema.json").exists()
        assert (directory / "nodes.csv").exists()
        assert (directory / "edges.csv").exists()


class TestNetworkx:
    def test_networkx_is_imported_only_by_the_adapter(self):
        # Every ``repro`` process, each ``repro serve`` launch included,
        # imports the CLI; it must not pay for networkx up front.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, repro.cli, repro.io; "
            "assert 'networkx' not in sys.modules; "
            "from repro.datasets.toy import toy_dating_network; "
            "repro.io.to_networkx(toy_dating_network()); "
            "assert 'networkx' in sys.modules"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

    def test_to_networkx_shape(self, toy_network):
        graph = to_networkx(toy_network)
        assert graph.number_of_nodes() == 14
        assert graph.number_of_edges() == 30
        assert graph.nodes[1]["SEX"] == "F"

    def test_roundtrip_through_networkx(self, toy_network):
        graph = to_networkx(toy_network)
        restored = from_networkx(graph, toy_network.schema)
        engine_a, engine_b = MetricEngine(toy_network), MetricEngine(restored)
        from repro.core.descriptors import GR, Descriptor

        gr = GR(
            Descriptor({"SEX": "M"}),
            Descriptor({"SEX": "F", "RACE": "Asian"}),
            Descriptor({"TYPE": "dates"}),
        )
        assert engine_a.evaluate(gr).support_count == engine_b.evaluate(gr).support_count

    def test_undirected_graph_gets_reciprocal_edges(self, small_schema):
        graph = nx.Graph()
        graph.add_node("x", A="a1", B="b1")
        graph.add_node("y", A="a2", B="b2")
        graph.add_edge("x", "y", W="w1")
        network = from_networkx(graph, small_schema)
        assert network.num_edges == 2

    def test_unknown_attributes_ignored(self, small_schema):
        graph = nx.DiGraph()
        graph.add_node("x", A="a1", irrelevant="junk")
        graph.add_node("y", B="b2")
        graph.add_edge("x", "y", W="w1", other=3)
        network = from_networkx(graph, small_schema)
        assert network.node_record(0) == {"A": "a1"}
