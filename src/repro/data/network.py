"""Attributed directed social network container.

A :class:`SocialNetwork` is the pair ``G = (V, E)`` of Section III: a set
of nodes and directed edges, where every node carries a code vector over
the schema's node attributes and every edge carries a code vector over
the edge attributes.  Attribute values are stored column-wise as numpy
arrays so the miners can gather and partition them without materializing
the per-edge joined table the paper warns about (Section IV intro).

Construction paths:

* :meth:`SocialNetwork.from_arrays` — columnar codes, zero-copy.
* :meth:`SocialNetwork.from_records` — label dictionaries, for tests,
  examples and loaders.

Undirected inputs are handled by :meth:`SocialNetwork.with_reciprocal_edges`
following the paper's convention that "an undirected edge can be
represented by a pair of directed edges in the opposite directions".
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .schema import NULL, Schema, SchemaError

__all__ = ["SocialNetwork", "NetworkError"]


class NetworkError(ValueError):
    """Raised for structurally invalid networks or out-of-range references."""


class SocialNetwork:
    """Directed multidimensional graph with attributes on nodes and edges.

    Parameters
    ----------
    schema:
        Attribute specification.
    node_codes:
        Mapping from node attribute name to an int array of length ``|V|``.
    src, dst:
        Edge endpoint arrays of length ``|E|`` (node indices).
    edge_codes:
        Mapping from edge attribute name to an int array of length ``|E|``.
    node_ids:
        Optional external identifiers, one per node (defaults to ``0..|V|-1``).
    """

    def __init__(
        self,
        schema: Schema,
        node_codes: Mapping[str, np.ndarray],
        src: np.ndarray,
        dst: np.ndarray,
        edge_codes: Mapping[str, np.ndarray] | None = None,
        node_ids: Sequence[Hashable] | None = None,
    ) -> None:
        self.schema = schema
        self._node_codes = {
            name: np.ascontiguousarray(np.asarray(col, dtype=np.int64))
            for name, col in node_codes.items()
        }
        self.src = np.ascontiguousarray(np.asarray(src, dtype=np.int64))
        self.dst = np.ascontiguousarray(np.asarray(dst, dtype=np.int64))
        self._edge_codes = {
            name: np.ascontiguousarray(np.asarray(col, dtype=np.int64))
            for name, col in (edge_codes or {}).items()
        }
        self._validate()
        if node_ids is None:
            self.node_ids: tuple[Hashable, ...] = tuple(range(self.num_nodes))
        else:
            self.node_ids = tuple(node_ids)
            if len(self.node_ids) != self.num_nodes:
                raise NetworkError(
                    f"{len(self.node_ids)} node ids for {self.num_nodes} nodes"
                )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        expected_node = set(self.schema.node_attribute_names)
        got_node = set(self._node_codes)
        if expected_node != got_node:
            raise NetworkError(
                f"node attribute columns {sorted(got_node)} do not match "
                f"schema {sorted(expected_node)}"
            )
        expected_edge = set(self.schema.edge_attribute_names)
        got_edge = set(self._edge_codes)
        if expected_edge != got_edge:
            raise NetworkError(
                f"edge attribute columns {sorted(got_edge)} do not match "
                f"schema {sorted(expected_edge)}"
            )

        lengths = {col.shape[0] for col in self._node_codes.values()}
        if len(lengths) != 1:
            raise NetworkError(f"node attribute columns have mixed lengths: {lengths}")
        self._num_nodes = lengths.pop()

        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise NetworkError("src and dst must be 1-D arrays of equal length")
        self._num_edges = int(self.src.shape[0])
        for name, col in self._edge_codes.items():
            if col.shape[0] != self._num_edges:
                raise NetworkError(
                    f"edge attribute {name!r} has {col.shape[0]} entries "
                    f"for {self._num_edges} edges"
                )

        if self._num_edges:
            lo = min(int(self.src.min()), int(self.dst.min()))
            hi = max(int(self.src.max()), int(self.dst.max()))
            if lo < 0 or hi >= self._num_nodes:
                raise NetworkError(
                    f"edge endpoints out of range [0, {self._num_nodes})"
                )

        for name, col in self._node_codes.items():
            attr = self.schema.node_attribute(name)
            self._check_codes(name, col, attr.domain_size)
        for name, col in self._edge_codes.items():
            attr = self.schema.edge_attribute(name)
            self._check_codes(name, col, attr.domain_size)

    @staticmethod
    def _int_column(values, what: str) -> np.ndarray:
        # A plain int64 cast would truncate 1.9 to 1, read True as 1 and
        # parse "3" as 3: a batch naming anything but integers is refused.
        col = np.asarray(values)
        if col.size and (col.dtype.kind not in "iu" or (
            not isinstance(values, np.ndarray)
            and any(isinstance(v, (bool, np.bool_)) for v in values)
        )):
            raise NetworkError(f"appended {what} must be integers")
        return np.ascontiguousarray(col, dtype=np.int64)

    @staticmethod
    def _check_codes(name: str, col: np.ndarray, domain_size: int) -> None:
        if col.size and (col.min() < NULL or col.max() > domain_size):
            raise NetworkError(
                f"attribute {name!r} has codes outside [0, {domain_size}]"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        schema: Schema,
        node_codes: Mapping[str, np.ndarray],
        src: np.ndarray,
        dst: np.ndarray,
        edge_codes: Mapping[str, np.ndarray] | None = None,
        node_ids: Sequence[Hashable] | None = None,
    ) -> "SocialNetwork":
        """Construct from columnar code arrays (alias of the constructor)."""
        return cls(schema, node_codes, src, dst, edge_codes, node_ids)

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        nodes: Mapping[Hashable, Mapping[str, str]] | Iterable[tuple[Hashable, Mapping[str, str]]],
        edges: Iterable[tuple[Hashable, Hashable] | tuple[Hashable, Hashable, Mapping[str, str]]],
    ) -> "SocialNetwork":
        """Construct from label records.

        Parameters
        ----------
        nodes:
            Mapping (or iterable of pairs) from an external node id to its
            ``{attribute: label}`` dict.  Missing attributes become null.
        edges:
            Iterable of ``(u, v)`` or ``(u, v, {attribute: label})`` with
            ``u``/``v`` external node ids.
        """
        items = list(nodes.items()) if isinstance(nodes, Mapping) else list(nodes)
        if not items:
            raise NetworkError("a network needs at least one node")
        node_ids = [node_id for node_id, _ in items]
        if len(set(node_ids)) != len(node_ids):
            raise NetworkError("duplicate node ids")
        index_of = {node_id: i for i, (node_id, _) in enumerate(items)}

        encoded = [schema.encode_node(record) for _, record in items]
        node_codes = {
            attr.name: np.array([vec[j] for vec in encoded], dtype=np.int64)
            for j, attr in enumerate(schema.node_attributes)
        }

        src_list: list[int] = []
        dst_list: list[int] = []
        edge_records: list[tuple[int, ...]] = []
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                attrs: Mapping[str, str] = {}
            elif len(edge) == 3:
                u, v, attrs = edge
            else:
                raise NetworkError(f"bad edge record: {edge!r}")
            try:
                src_list.append(index_of[u])
                dst_list.append(index_of[v])
            except KeyError as exc:
                raise NetworkError(f"edge endpoint {exc.args[0]!r} is not a node") from None
            edge_records.append(schema.encode_edge(attrs))

        edge_codes = {
            attr.name: np.array([vec[j] for vec in edge_records], dtype=np.int64)
            for j, attr in enumerate(schema.edge_attributes)
        }
        return cls(
            schema,
            node_codes,
            np.array(src_list, dtype=np.int64),
            np.array(dst_list, dtype=np.int64),
            edge_codes,
            node_ids=node_ids,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def node_column(self, name: str) -> np.ndarray:
        """Code column (length ``|V|``) of a node attribute."""
        try:
            return self._node_codes[name]
        except KeyError:
            raise SchemaError(f"unknown node attribute {name!r}") from None

    def edge_column(self, name: str) -> np.ndarray:
        """Code column (length ``|E|``) of an edge attribute."""
        try:
            return self._edge_codes[name]
        except KeyError:
            raise SchemaError(f"unknown edge attribute {name!r}") from None

    def source_values(self, name: str) -> np.ndarray:
        """Per-edge codes of node attribute ``name`` at the edge *source*."""
        return self.node_column(name)[self.src]

    def dest_values(self, name: str) -> np.ndarray:
        """Per-edge codes of node attribute ``name`` at the edge *destination*."""
        return self.node_column(name)[self.dst]

    def node_record(self, index: int) -> dict[str, str]:
        """Decode node ``index`` to an ``{attribute: label}`` dict."""
        return self.schema.decode_node(
            [self._node_codes[a.name][index] for a in self.schema.node_attributes]
        )

    def edge_record(self, index: int) -> dict[str, str]:
        """Decode the attribute labels of edge ``index``."""
        return self.schema.decode_edge(
            [self._edge_codes[a.name][index] for a in self.schema.edge_attributes]
        )

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.bincount(self.dst, minlength=self.num_nodes)

    # ------------------------------------------------------------------
    # Mutation (append-edge deltas)
    # ------------------------------------------------------------------
    def append_edges(
        self,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        edge_codes: Mapping[str, np.ndarray] | None = None,
    ) -> int:
        """Append new edges between *existing* nodes, in place.

        The delta is validated in full before any mutation, so a bad
        batch leaves the network untouched.  Only edges can be appended
        — the node set, node attributes and schema are immutable (new
        nodes would invalidate every node-indexed structure).  Derived
        structures (a :class:`~repro.data.store.CompactStore`, miner
        caches) do not see the change until explicitly rebuilt — see
        :meth:`CompactStore.apply_delta`.

        Duplicate and self-loop semantics
        ---------------------------------
        The network is a directed *multigraph*: two edges with the same
        ``(src, dst, edge codes)`` are distinct edge instances, and each
        contributes one unit to every count the miners take (``supp``,
        ``supp(l∧w)``, homophily counts) — the paper's measures are over
        edge instances, not node pairs, so repeated interactions
        *intentionally* weigh more.  An appended edge that repeats an
        existing row, or another edge of the same batch, therefore
        becomes a parallel edge.

        Self-loops (``src == dst``) are legal: a node may relate to its
        own group, and the store's LArray/RArray both carry the node.

        Returns the number of edges appended.
        """
        new_src = self._int_column(src, "edge endpoints")
        new_dst = self._int_column(dst, "edge endpoints")
        if new_src.shape != new_dst.shape or new_src.ndim != 1:
            raise NetworkError("src and dst must be 1-D arrays of equal length")
        count = int(new_src.shape[0])
        if count == 0:
            return 0
        lo = min(int(new_src.min()), int(new_dst.min()))
        hi = max(int(new_src.max()), int(new_dst.max()))
        if lo < 0 or hi >= self._num_nodes:
            raise NetworkError(
                f"appended edge endpoints out of range [0, {self._num_nodes})"
            )
        expected = set(self.schema.edge_attribute_names)
        got = set(edge_codes or {})
        if expected != got:
            raise NetworkError(
                f"appended edge attribute columns {sorted(got)} do not match "
                f"schema {sorted(expected)}"
            )
        new_edge_codes: dict[str, np.ndarray] = {}
        for name in expected:
            col = self._int_column(edge_codes[name], f"edge attribute {name!r} codes")
            if col.shape != (count,):
                raise NetworkError(
                    f"appended edge attribute {name!r} has {col.shape[0]} entries "
                    f"for {count} edges"
                )
            attr = self.schema.edge_attribute(name)
            self._check_codes(name, col, attr.domain_size)
            new_edge_codes[name] = col

        self.src = np.concatenate([self.src, new_src])
        self.dst = np.concatenate([self.dst, new_dst])
        for name, col in new_edge_codes.items():
            self._edge_codes[name] = np.concatenate([self._edge_codes[name], col])
        self._num_edges += count
        return count

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_reciprocal_edges(self) -> "SocialNetwork":
        """Return a copy with every edge accompanied by its reverse.

        This is the paper's representation of undirected relationships.
        Edge attributes are copied onto the reversed edges.
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        edge_codes = {
            name: np.concatenate([col, col]) for name, col in self._edge_codes.items()
        }
        return SocialNetwork(
            self.schema, self._node_codes, src, dst, edge_codes, node_ids=self.node_ids
        )

    def restrict_node_attributes(self, names: Iterable[str]) -> "SocialNetwork":
        """Project onto a subset of node attributes (Fig. 4d experiments)."""
        sub_schema = self.schema.restrict_node_attributes(names)
        node_codes = {name: self._node_codes[name] for name in sub_schema.node_attribute_names}
        return SocialNetwork(
            sub_schema, node_codes, self.src, self.dst, self._edge_codes, self.node_ids
        )

    def with_homophily(self, homophily_names: Iterable[str]) -> "SocialNetwork":
        """Return a copy whose schema flags exactly ``homophily_names``."""
        return SocialNetwork(
            self.schema.with_homophily(homophily_names),
            self._node_codes,
            self.src,
            self.dst,
            self._edge_codes,
            self.node_ids,
        )

    def __repr__(self) -> str:
        return (
            f"SocialNetwork(|V|={self.num_nodes}, |E|={self.num_edges}, "
            f"node_attrs={list(self.schema.node_attribute_names)}, "
            f"edge_attrs={list(self.schema.edge_attribute_names)})"
        )
