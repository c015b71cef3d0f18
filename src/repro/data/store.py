"""Compact data model: LArray, EArray and RArray (Section IV-A, Fig. 2).

The paper avoids the single joined edge table (size
``|E| * (2*#AttrV + #AttrE)``) by storing node and edge information
separately:

* **LArray** — one record per node with out-degree > 0: its node attribute
  codes, its out-degree ``Out`` and the index ``Ind`` of its first
  outgoing edge in EArray.
* **EArray** — one record per edge, grouped by source node: the edge
  attribute codes and a pointer ``Ptr`` to the destination's row in
  RArray.
* **RArray** — one record per node with in-degree > 0: its node attribute
  codes.

The compact size is ``|V|*(#AttrV+2) + |E|*(#AttrE+1) + |V|*#AttrV``
cells, which eliminates the ``|E| * 2 * #AttrV`` bottleneck term.

:class:`CompactStore` materializes this layout from a
:class:`~repro.data.network.SocialNetwork` and exposes the per-edge
gather operations the miners need (source codes, destination codes, edge
codes — all resolved through the pointer structure, never via a joined
table).

For multi-process mining, :meth:`CompactStore.lease_shared` packs the
store's arrays *and* the backing network's code columns into one
POSIX shared-memory segment, owned by a guaranteed-unlink
:class:`SharedStoreLease`.  The lease's :class:`SharedStoreHandle` is a
small picklable descriptor; :func:`attach_shared_store` reconstructs a
read-only network + store in a worker as zero-copy views over the
segment — the data is written once by the parent, never serialized per
worker.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..obs.metrics import REGISTRY
from ..serve.markers import coordinator_only
from .network import SocialNetwork
from .schema import Schema

_STORE_ATTACHES = REGISTRY.counter(
    "repro_store_attaches_total",
    "Shared-store attaches (per-process: worker attaches land in the "
    "worker's own registry).",
)

__all__ = [
    "CompactStore",
    "SharedStoreHandle",
    "SharedStoreLease",
    "StoreDelta",
    "attach_shared_store",
]


@dataclass(frozen=True)
class StoreDelta:
    """Structured description of one append-edge rebuild.

    Produced by :meth:`CompactStore.apply_delta`: the store compares the
    backing network's edge count against the count it was last built
    from, so the *tail* rows ``[num_edges_before, num_edges_after)`` of
    the network arrays are exactly the appended edges.

    ``touched_partitions`` is the delta's footprint on the SFDF tree's
    first level: the set of ``(node attribute name, source code)``
    pairs matched by at least one new edge's source — i.e. every
    first-level LEFT branch whose edge subset grew.  A first-level
    branch *not* in this set kept its edge subset bit-for-bit (a GR's
    l∧w edge set can only change when some new edge matches its full
    LHS, which in particular matches the branch assignment), which is
    the invariant the engine's incremental re-mining leans on.  GRs
    with an *empty* LHS select over all edges, so the root branch is
    touched by every non-empty delta.

    ``untracked`` marks a delta the store could not account for (the
    network shrank or was swapped out from under it — something other
    than :meth:`SocialNetwork.append_edges` mutated it).  Consumers
    must treat an untracked delta as "anything may have changed" and
    fall back to full invalidation.
    """

    num_edges_before: int
    num_edges_after: int
    #: ``(node attribute name, source code)`` pairs whose first-level
    #: branch gained at least one edge.
    touched_partitions: frozenset = frozenset()
    untracked: bool = False

    @property
    def num_new_edges(self) -> int:
        return self.num_edges_after - self.num_edges_before


class CompactStore:
    """LArray / EArray / RArray materialization of a social network.

    Parameters
    ----------
    network:
        The network to index.  The store keeps its own edge ordering:
        edges are re-grouped by source node (the EArray layout), and all
        edge indices exposed by this class refer to that ordering.
    """

    def __init__(self, network: SocialNetwork) -> None:
        self.network = network
        self._rebuild()

    def _rebuild(self) -> None:
        """(Re-)derive every array from the backing network's columns."""
        network = self.network
        schema = network.schema
        src, dst = network.src, network.dst
        num_nodes, num_edges = network.num_nodes, network.num_edges

        out_deg = np.bincount(src, minlength=num_nodes)
        in_deg = np.bincount(dst, minlength=num_nodes)

        # ---- LArray: nodes with positive out-degree --------------------
        self.l_nodes = np.flatnonzero(out_deg > 0)
        l_row_of_node = np.full(num_nodes, -1, dtype=np.int64)
        l_row_of_node[self.l_nodes] = np.arange(self.l_nodes.size)
        self.l_attrs = {
            name: network.node_column(name)[self.l_nodes]
            for name in schema.node_attribute_names
        }
        self.l_out = out_deg[self.l_nodes].astype(np.int64)
        self.l_ind = np.zeros(self.l_nodes.size, dtype=np.int64)
        if self.l_nodes.size:
            np.cumsum(self.l_out[:-1], out=self.l_ind[1:])

        # ---- RArray: nodes with positive in-degree ---------------------
        self.r_nodes = np.flatnonzero(in_deg > 0)
        r_row_of_node = np.full(num_nodes, -1, dtype=np.int64)
        r_row_of_node[self.r_nodes] = np.arange(self.r_nodes.size)
        self.r_attrs = {
            name: network.node_column(name)[self.r_nodes]
            for name in schema.node_attribute_names
        }

        # ---- EArray: edges grouped by source node ----------------------
        # Stable counting-sort style grouping on the source id keeps the
        # original relative order of a node's out-edges.
        order = np.argsort(src, kind="stable")
        self.edge_order = order
        self.e_src_row = l_row_of_node[src[order]]
        self.e_ptr = r_row_of_node[dst[order]]
        self.e_attrs = {
            name: network.edge_column(name)[order]
            for name in schema.edge_attribute_names
        }
        self._num_edges = num_edges
        self._fingerprint: str | None = None

    @coordinator_only
    def apply_delta(self) -> StoreDelta:
        """Re-derive the store after the backing network appended edges.

        The node columns are untouched by an append-edge delta; this
        rebuilds the edge-derived state — the EArray grouping, the
        degree-dependent LArray/RArray rows and the pointer structure —
        and resets the memoized :meth:`fingerprint` so the store's cache
        identity changes with its content.  Callers holding store-derived
        caches (per-edge column gathers, first-level partitions, shared
        exports) must rebuild them: the engine layer's
        ``refresh_store()`` does exactly that.

        Returns a :class:`StoreDelta` describing what changed: the
        appended edge count plus the first-level partition footprint of
        the appended tail rows (the input of the engine's incremental
        re-mining differ).  A mutation the store cannot attribute to an
        edge append — the network's edge count went *down*, meaning
        something replaced the arrays wholesale — yields an
        ``untracked`` delta, which consumers must treat as a full
        invalidation.
        """
        before = self._num_edges
        network = self.network
        after = network.num_edges
        if after < before:
            self._rebuild()
            return StoreDelta(
                num_edges_before=before, num_edges_after=after, untracked=True
            )
        new_src = network.src[before:after]
        touched = frozenset(
            (name, int(code))
            for name in network.schema.node_attribute_names
            for code in np.unique(network.node_column(name)[new_src])
        )
        self._rebuild()
        return StoreDelta(
            num_edges_before=before,
            num_edges_after=after,
            touched_partitions=touched,
        )

    # ------------------------------------------------------------------
    # Sizes (the Section IV-A storage claim)
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self._num_edges

    def size_cells(self) -> int:
        """Cells used by the compact model.

        ``LArray`` holds ``#AttrV + 2`` cells per source row (attributes,
        Out, Ind); ``EArray`` holds ``#AttrE + 1`` per edge (attributes,
        Ptr); ``RArray`` holds ``#AttrV`` per destination row.
        """
        n_attr_v = len(self.network.schema.node_attributes)
        n_attr_e = len(self.network.schema.edge_attributes)
        return (
            self.l_nodes.size * (n_attr_v + 2)
            + self._num_edges * (n_attr_e + 1)
            + self.r_nodes.size * n_attr_v
        )

    def single_table_size_cells(self) -> int:
        """Cells the joined single-table representation would use:
        ``|E| * (2*#AttrV + #AttrE)`` (Section IV intro)."""
        n_attr_v = len(self.network.schema.node_attributes)
        n_attr_e = len(self.network.schema.edge_attributes)
        return self._num_edges * (2 * n_attr_v + n_attr_e)

    # ------------------------------------------------------------------
    # Per-edge gathers through the pointer structure
    # ------------------------------------------------------------------
    def source_codes(self, name: str, edges: np.ndarray | None = None) -> np.ndarray:
        """Node-attribute codes at the source of each edge (via LArray rows)."""
        rows = self.e_src_row if edges is None else self.e_src_row[edges]
        return self.l_attrs[name][rows]

    def dest_codes(self, name: str, edges: np.ndarray | None = None) -> np.ndarray:
        """Node-attribute codes at the destination of each edge (via Ptr)."""
        rows = self.e_ptr if edges is None else self.e_ptr[edges]
        return self.r_attrs[name][rows]

    def edge_codes(self, name: str, edges: np.ndarray | None = None) -> np.ndarray:
        """Edge-attribute codes of each edge."""
        col = self.e_attrs[name]
        return col if edges is None else col[edges]

    def all_edges(self) -> np.ndarray:
        """Index array of all edges in EArray order."""
        return np.arange(self._num_edges, dtype=np.int64)

    def out_edges_of_l_row(self, row: int) -> np.ndarray:
        """Edges leaving the node of LArray row ``row`` (uses Out and Ind)."""
        start = int(self.l_ind[row])
        return np.arange(start, start + int(self.l_out[row]), dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"CompactStore(L={self.l_nodes.size}, E={self._num_edges}, "
            f"R={self.r_nodes.size}, cells={self.size_cells()})"
        )

    # ------------------------------------------------------------------
    # Identity (repro.engine result-cache keying)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the store: schema + every array a miner reads.

        Two stores with equal fingerprints answer every mining query
        identically, so the engine layer keys its result cache (and
        tags its results) with this.  Computed once and memoized; an
        :meth:`apply_delta` rebuild resets the memo, so a mutated store
        hashes to a new identity.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for attr in self.network.schema:
                digest.update(
                    repr((attr.name, attr.values, attr.homophily)).encode()
                )
            digest.update(
                f"|V={self.network.num_nodes}|E={self._num_edges}|".encode()
            )
            for key, arr in sorted(self._shared_arrays().items()):
                arr = np.ascontiguousarray(arr)
                digest.update(key.encode())
                digest.update(str(arr.dtype).encode())
                digest.update(repr(arr.shape).encode())
                digest.update(arr.data)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Shared-memory export (repro.parallel)
    # ------------------------------------------------------------------
    def _shared_arrays(self) -> dict[str, np.ndarray]:
        """Every array a worker needs, keyed for the shared segment."""
        network = self.network
        arrays: dict[str, np.ndarray] = {
            "net.src": network.src,
            "net.dst": network.dst,
            "store.l_nodes": self.l_nodes,
            "store.l_out": self.l_out,
            "store.l_ind": self.l_ind,
            "store.r_nodes": self.r_nodes,
            "store.edge_order": self.edge_order,
            "store.e_src_row": self.e_src_row,
            "store.e_ptr": self.e_ptr,
        }
        for name in network.schema.node_attribute_names:
            arrays[f"net.node.{name}"] = network.node_column(name)
            arrays[f"store.l_attrs.{name}"] = self.l_attrs[name]
            arrays[f"store.r_attrs.{name}"] = self.r_attrs[name]
        for name in network.schema.edge_attribute_names:
            arrays[f"net.edge.{name}"] = network.edge_column(name)
            arrays[f"store.e_attrs.{name}"] = self.e_attrs[name]
        return arrays

    @coordinator_only
    def lease_shared(self) -> "SharedStoreLease":
        """Copy the store + network arrays into one shared-memory segment
        under a guaranteed-unlink lease.

        The parent pays a single memcpy; every worker then attaches
        zero-copy read-only views via :func:`attach_shared_store`.  The
        lease unlinks the segment on ``close()`` / ``__exit__`` *and*
        from a garbage-collection/interpreter-exit finalizer, so no
        failure mode short of SIGKILL orphans a ``/dev/shm`` segment.
        """
        arrays = self._shared_arrays()
        specs: list[SharedArraySpec] = []
        offset = 0
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            arrays[key] = arr
            specs.append(SharedArraySpec(key, str(arr.dtype), arr.shape, offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        try:
            for spec, arr in zip(specs, arrays.values()):
                view = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=spec.offset
                )
                view[...] = arr
        except BaseException:  # never orphan a half-written segment
            _release_segment(shm)
            raise
        handle = SharedStoreHandle(
            shm_name=shm.name,
            specs=tuple(specs),
            schema=self.network.schema,
            num_nodes=self.network.num_nodes,
            num_edges=self._num_edges,
        )
        return SharedStoreLease(shm, handle)

    @classmethod
    def _from_shared(
        cls, network: SocialNetwork, arrays: dict[str, np.ndarray]
    ) -> "CompactStore":
        """Rebuild a store from attached views, skipping recomputation."""
        self = cls.__new__(cls)
        self.network = network
        schema = network.schema
        self.l_nodes = arrays["store.l_nodes"]
        self.l_out = arrays["store.l_out"]
        self.l_ind = arrays["store.l_ind"]
        self.r_nodes = arrays["store.r_nodes"]
        self.edge_order = arrays["store.edge_order"]
        self.e_src_row = arrays["store.e_src_row"]
        self.e_ptr = arrays["store.e_ptr"]
        self.l_attrs = {
            name: arrays[f"store.l_attrs.{name}"] for name in schema.node_attribute_names
        }
        self.r_attrs = {
            name: arrays[f"store.r_attrs.{name}"] for name in schema.node_attribute_names
        }
        self.e_attrs = {
            name: arrays[f"store.e_attrs.{name}"] for name in schema.edge_attribute_names
        }
        self._num_edges = network.num_edges
        self._fingerprint = None
        return self


@dataclass(frozen=True)
class SharedArraySpec:
    """Location of one array inside the shared segment."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class SharedStoreHandle:
    """Picklable descriptor of an exported store (ship this to workers)."""

    shm_name: str
    specs: tuple[SharedArraySpec, ...]
    schema: Schema
    num_nodes: int
    num_edges: int


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # already unlinked
        pass


class SharedStoreLease:
    """Owning lease on a shared store export with guaranteed unlink.

    An export that relied on the happy path to unlink it would orphan
    its segment in ``/dev/shm`` until reboot whenever an exception
    unwinds past the owner (a worker raises mid-query, pool setup fails,
    a test errors out).  The lease closes that gap three ways:
    ``close()`` is idempotent, ``with lease:`` releases on any exit, and
    a :func:`weakref.finalize` finalizer fires when the lease is
    garbage-collected or the interpreter exits — so cleanup never
    depends on reaching a particular line.

    The picklable :attr:`handle` is what travels to worker processes;
    workers attach by name and are unaffected by the parent unlinking
    the name after they have mapped it (POSIX semantics).
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: SharedStoreHandle
    ) -> None:
        self._shm = shm
        #: The picklable descriptor to ship to workers.
        self.handle = handle
        self._finalizer = weakref.finalize(self, _release_segment, shm)

    @property
    def name(self) -> str:
        """The shared-memory segment's name."""
        return self._shm.name

    @property
    def size(self) -> int:
        """Bytes held by the segment (the hub's memory-budget unit)."""
        return self._shm.size

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "SharedStoreLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SharedStoreLease({self.name!r}, {state})"


def attach_shared_store(
    handle: SharedStoreHandle,
) -> tuple[SocialNetwork, CompactStore, shared_memory.SharedMemory]:
    """Reconstruct a read-only network + store from a shared export.

    The returned arrays are views over the segment — no copies are made.
    The caller must keep the returned ``SharedMemory`` object alive for
    as long as the network/store are used, and ``close()`` it afterwards.
    External ``node_ids`` are not shipped (workers mine over codes and
    decode through the schema, so they never need them).
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    _STORE_ATTACHES.inc()
    arrays: dict[str, np.ndarray] = {}
    for spec in handle.specs:
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf, offset=spec.offset
        )
        view.flags.writeable = False
        arrays[spec.key] = view
    schema = handle.schema
    network = SocialNetwork(
        schema,
        {name: arrays[f"net.node.{name}"] for name in schema.node_attribute_names},
        arrays["net.src"],
        arrays["net.dst"],
        {name: arrays[f"net.edge.{name}"] for name in schema.edge_attribute_names},
    )
    store = CompactStore._from_shared(network, arrays)
    return network, store, shm
