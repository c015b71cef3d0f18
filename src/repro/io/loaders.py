"""CSV persistence and networkx interop for social networks.

On-disk format (directory based):

* ``schema.json`` — attribute names, value labels and homophily flags;
* ``nodes.csv``   — ``id`` column plus one column per node attribute
  (empty cell = null);
* ``edges.csv``   — ``src``/``dst`` columns (external node ids) plus one
  column per edge attribute.

The networkx adapters map node/edge attribute dicts to and from the
columnar representation, so existing graph pipelines can feed GRMiner.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..data.network import SocialNetwork
from ..data.schema import Attribute, Schema

if TYPE_CHECKING:  # networkx is imported only by the adapter that builds a graph
    import networkx as nx

__all__ = [
    "save_network",
    "load_network",
    "schema_to_dict",
    "schema_from_dict",
    "to_networkx",
    "from_networkx",
]


# ----------------------------------------------------------------------
# Schema JSON
# ----------------------------------------------------------------------
def schema_to_dict(schema: Schema) -> dict:
    """JSON-serializable schema description."""
    return {
        "node_attributes": [
            {"name": a.name, "values": list(a.values), "homophily": a.homophily}
            for a in schema.node_attributes
        ],
        "edge_attributes": [
            {"name": a.name, "values": list(a.values)} for a in schema.edge_attributes
        ],
    }


def schema_from_dict(data: dict) -> Schema:
    """Inverse of :func:`schema_to_dict`."""
    return Schema(
        node_attributes=[
            Attribute(a["name"], tuple(a["values"]), homophily=bool(a.get("homophily")))
            for a in data["node_attributes"]
        ],
        edge_attributes=[
            Attribute(a["name"], tuple(a["values"]))
            for a in data.get("edge_attributes", [])
        ],
    )


# ----------------------------------------------------------------------
# CSV directory format
# ----------------------------------------------------------------------
def save_network(network: SocialNetwork, directory: str | Path) -> Path:
    """Write ``schema.json``, ``nodes.csv`` and ``edges.csv``; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.json").write_text(
        json.dumps(schema_to_dict(network.schema), indent=2)
    )

    node_attrs = network.schema.node_attribute_names
    with open(directory / "nodes.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("id",) + node_attrs)
        for index, node_id in enumerate(network.node_ids):
            record = network.node_record(index)
            writer.writerow([node_id] + [record.get(name, "") for name in node_attrs])

    edge_attrs = network.schema.edge_attribute_names
    with open(directory / "edges.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("src", "dst") + edge_attrs)
        for index in range(network.num_edges):
            record = network.edge_record(index)
            writer.writerow(
                [network.node_ids[network.src[index]], network.node_ids[network.dst[index]]]
                + [record.get(name, "") for name in edge_attrs]
            )
    return directory


def load_network(directory: str | Path) -> SocialNetwork:
    """Load a network saved by :func:`save_network`."""
    directory = Path(directory)
    schema = schema_from_dict(json.loads((directory / "schema.json").read_text()))

    nodes: dict[str, dict[str, str]] = {}
    with open(directory / "nodes.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            node_id = row.pop("id")
            nodes[node_id] = {name: value for name, value in row.items() if value}

    edges: list[tuple[str, str, dict[str, str]]] = []
    with open(directory / "edges.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            src, dst = row.pop("src"), row.pop("dst")
            edges.append((src, dst, {name: value for name, value in row.items() if value}))

    return SocialNetwork.from_records(schema, nodes, edges)


# ----------------------------------------------------------------------
# networkx interop
# ----------------------------------------------------------------------
def to_networkx(network: SocialNetwork) -> nx.MultiDiGraph:
    """Convert to a ``networkx.MultiDiGraph`` with label attributes."""
    import networkx as nx

    graph = nx.MultiDiGraph()
    for index, node_id in enumerate(network.node_ids):
        graph.add_node(node_id, **network.node_record(index))
    for index in range(network.num_edges):
        graph.add_edge(
            network.node_ids[network.src[index]],
            network.node_ids[network.dst[index]],
            **network.edge_record(index),
        )
    return graph


def from_networkx(graph: nx.Graph, schema: Schema) -> SocialNetwork:
    """Convert any networkx graph to a :class:`SocialNetwork`.

    Node/edge attribute dicts must use the schema's labels; attributes
    absent from a node or edge become nulls.  Undirected graphs are
    expanded to reciprocal directed edges (the paper's convention).
    """
    node_names = set(schema.node_attribute_names)
    edge_names = set(schema.edge_attribute_names)
    nodes = {
        node: {k: str(v) for k, v in data.items() if k in node_names}
        for node, data in graph.nodes(data=True)
    }
    edges = [
        (u, v, {k: str(val) for k, val in data.items() if k in edge_names})
        for u, v, data in graph.edges(data=True)
    ]
    network = SocialNetwork.from_records(schema, nodes, edges)
    if not graph.is_directed():
        network = network.with_reciprocal_edges()
    return network
